//! The system under test: a real `iofwdd` process, its set-up time,
//! its stats wire, and outside-in samples of its `/proc/<pid>` entries.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use iofwd::telemetry::TelemetrySnapshot;
use iofwd::transport::tcp::TcpConn;
use iofwd::Client;
use iofwd_proto::StatsQuery;

use crate::workload::Spec;

/// A running daemon; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Start `bin` serving `root` and return it with its set-up time:
    /// spawn until the first stats answer.
    pub fn spawn(
        bin: &Path,
        root: &Path,
        run_dir: &Path,
        spec: &Spec,
        cpu: Option<usize>,
    ) -> Result<(Daemon, f64), String> {
        let port_file = run_dir.join("port");
        let _ = fs::remove_file(&port_file);
        let log = fs::File::create(run_dir.join("iofwdd.log")).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(bin);
        cmd.arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .arg("--root")
            .arg(root)
            .args(["--mode", "staged", "--transport", "threads"])
            .args(["--bml-mib", &spec.bml_mib.to_string()])
            .args(["--stats-interval", "0"]);
        if let Some((per_op_us, mib_s)) = spec.throttle {
            cmd.args(["--throttle", &format!("{per_op_us},{mib_s}")]);
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(log);
        // Spawn from a thread on the daemon's core, whose placement the
        // child inherits. A pre-exec hook would make the spawn fork this
        // process, and its size (the payload pool) would show in the
        // set-up time.
        let (started, child) = std::thread::scope(|s| {
            s.spawn(|| {
                crate::affinity::pin(cpu);
                let started = Instant::now();
                (started, cmd.spawn())
            })
            .join()
            .expect("spawning thread panicked")
        });
        let child = child.map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = started + Duration::from_secs(20);
        let port = loop {
            if let Some(port) = fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse::<u16>().ok())
            {
                break port;
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("iofwdd exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("iofwdd did not publish its port".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        daemon.addr = format!("127.0.0.1:{port}");
        let mut client = daemon.client(u32::MAX)?;
        client
            .query_stats(StatsQuery::Snapshot)
            .map_err(|e| e.to_string())?;
        let setup = started.elapsed().as_secs_f64();
        let _ = client.shutdown();
        Ok((daemon, setup))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn client(&self, id: u32) -> Result<Client, String> {
        let conn =
            TcpConn::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        Ok(Client::with_id(Box::new(conn), id))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The daemon's telemetry snapshot over the stats wire.
pub fn snapshot(client: &mut Client) -> Result<TelemetrySnapshot, String> {
    let doc = client
        .query_stats(StatsQuery::Snapshot)
        .map_err(|e| e.to_string())?;
    let text = std::str::from_utf8(&doc).map_err(|e| e.to_string())?;
    TelemetrySnapshot::from_json(text)
}

/// Thread classes the daemon names its threads by.
pub const CLASSES: [&str; 3] = ["worker", "handler", "accept"];

fn class_of(comm: &str) -> Option<usize> {
    if comm.starts_with("iofwd-worker-") {
        Some(0)
    } else if comm == "iofwd-handler" {
        Some(1)
    } else if comm == "iofwd-accept" {
        Some(2)
    } else {
        None
    }
}

/// One outside-in sample of the daemon process.
#[derive(Clone, Debug, Default)]
pub struct ProcSample {
    /// utime + stime of the whole process, in clock ticks.
    pub cpu_ticks: u64,
    /// Minor page faults of the whole process.
    pub minflt: u64,
    /// Voluntary + involuntary context switches over live threads.
    pub ctx_switches: u64,
    /// Per class: (on-CPU ns, runqueue-wait ns) from schedstat.
    pub classes: [(u64, u64); 3],
}

/// USER_HZ: the unit of utime/stime in `/proc/<pid>/stat` on Linux.
pub const CLOCK_TICKS_PER_S: f64 = 100.0;

impl ProcSample {
    pub fn take(pid: u32) -> Result<ProcSample, String> {
        let base = PathBuf::from(format!("/proc/{pid}"));
        let stat = fs::read_to_string(base.join("stat")).map_err(|e| e.to_string())?;
        // Fields after the parenthesised comm: state is field 3, utime
        // and stime are fields 14 and 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("bad /proc stat")?;
        let f: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| {
            f.get(i - 3)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        let mut s = ProcSample {
            cpu_ticks: tick(14) + tick(15),
            minflt: tick(10),
            ..ProcSample::default()
        };
        for task in fs::read_dir(base.join("task"))
            .map_err(|e| e.to_string())?
            .flatten()
        {
            let dir = task.path();
            let (Ok(comm), Ok(status)) = (
                fs::read_to_string(dir.join("comm")),
                fs::read_to_string(dir.join("status")),
            ) else {
                continue; // the thread exited between listing and reading
            };
            s.ctx_switches += status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:");
            if let (Some(class), Ok(sched)) = (
                class_of(comm.trim()),
                fs::read_to_string(dir.join("schedstat")),
            ) {
                let mut it = sched
                    .split_whitespace()
                    .map(|v| v.parse::<u64>().unwrap_or(0));
                s.classes[class].0 += it.next().unwrap_or(0);
                s.classes[class].1 += it.next().unwrap_or(0);
            }
        }
        Ok(s)
    }
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (VmHWM) in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    Ok(status_field(&status, "VmHWM:") as f64 / 1024.0)
}

/// CPUs `/proc/stat` sums its counters over; 1 where unreadable.
pub fn stat_cpus() -> usize {
    fs::read_to_string("/proc/stat")
        .map(|s| {
            s.lines()
                .filter(|l| {
                    l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit)
                })
                .count()
        })
        .unwrap_or(0)
        .max(1)
}

/// Clock ticks the hypervisor has run other machines while this one's
/// CPUs wanted to run (`steal` in `/proc/stat`); 0 where unreadable.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}
