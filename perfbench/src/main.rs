//! perfbench: closed-loop benchmark of a live `iofwdd`.
//!
//! ```text
//! perfbench --iofwdd PATH --workload bulk_rw|small_ops|checkpoint \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! One run starts the daemon as deployed (staged mode, threads
//! transport, default hot path and coalescing) with its root inside
//! the working directory, calibrates the host's bound at the
//! workload's op size, and drives the daemon from two closed-loop
//! clients. Every read is checked against the client's shadow image
//! and every final file against the shadow after the run. With
//! `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it ends with rounds that alternate untraced and traced
//! and measures the per-layer metrics and the ledger. Tables go
//! to stdout; the last line is one JSON object with the metrics the
//! run was asked for. The exit code is 1 when any check failed.

mod affinity;
mod bound;
mod daemon;
mod ledger;
mod micro;
mod report;
mod runner;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use iofwd::telemetry::{HistSnapshot, TelemetrySnapshot};

use daemon::{Daemon, ProcSample};
use ledger::Ledger;
use report::{Metric, Metrics};
use runner::{ClientRun, ClientState, Plan, Window};
use stats::{hist_delta, hist_quantile, interquartile_mean, median, nearest_rank};
use workload::{Class, Kind, Spec, CLIENTS};

/// Daemon start-ups before the measured epochs; `setup_s` is the
/// median over these and each epoch's own start-up.
const SETUPS: usize = 51;
/// Daemon lifetimes the untraced rounds are spread over: a daemon can
/// settle into one of a few states when it starts and keep it (a
/// checkpoint close p50 near 1.8 ms in some lifetimes and near 3 ms in
/// others), so a run samples many starts.
const EPOCHS: usize = 30;
const MIB: f64 = (1u64 << 20) as f64;

/// End-to-end metrics in the result line with `--trace 0`. Time and
/// rate enter it only against the same-run bound measured beside each
/// round (`efficiency` and the `_over_` ratios): on a host shared with
/// other machines the absolute figures drift by a fifth from one run
/// of the same code to the next, and the raw stages drift with them.
/// The table prints the absolute figures too, and the p99s;
/// `meta_p50_us` is left out in either form because it sits where a
/// fast and a slow cluster of metadata latencies meet.
const END_TO_END: [&str; 7] = [
    "write_p50_over_bound",
    "read_p50_over_bound",
    "verified_op_ratio",
    "efficiency",
    "daemon_cpu_per_op_over_rtt",
    "daemon_peak_rss_mib",
    "setup_s",
];

/// Per-layer metrics, printed with `--trace 1`.
const PER_LAYER: [&str; 41] = [
    "bound.memcpy_gib_s",
    "bound.loopback_tcp_gib_s",
    "bound.loopback_rtt_us",
    "bound.tmpfs_write_gib_s",
    "bound.tmpfs_read_gib_s",
    "proto.encode_ns.4k",
    "proto.encode_ns.1m",
    "proto.decode_shared_ns.4k",
    "proto.decode_shared_ns.1m",
    "transport.tcp_rtt_us.4k",
    "transport.tcp_gib_s.1m",
    "bml.adopt_release_ns",
    "bml.acquire_release_ns",
    "bml.slab_hit_ratio",
    "bml.blocked_acquires",
    "bml.block_ns_p99",
    "queue.push_pop_ns",
    "queue.steal_ratio",
    "queue.wait_us_p50",
    "descdb.begin_finish_ns",
    "staged.coalesced_ops_ratio",
    "staged.coalesce_width_mean",
    "backend.pwrite_gib_s.1m",
    "backend.read_into_gib_s.1m",
    "backend.self_us_per_op",
    "server.dispatch_us_per_op",
    "server.reply_us_per_op",
    "daemon.worker_oncpu_share",
    "daemon.worker_runq_share",
    "daemon.handler_oncpu_share",
    "daemon.handler_runq_share",
    "daemon.ctx_switches_per_op",
    "daemon.minor_faults_per_op",
    "client.encode_us",
    "client.send_us",
    "client.recv_wait_us",
    "client.decode_us",
    "ledger.server_us",
    "ledger.unattributed_share",
    "trace.overhead",
    "verify_s",
];

struct Args {
    iofwdd: PathBuf,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut iofwdd = None;
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--iofwdd" => iofwdd = Some(PathBuf::from(value)),
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    Ok(Args {
        iofwdd: iofwdd.ok_or("--iofwdd is required")?,
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --iofwdd PATH --workload bulk_rw|small_ops|checkpoint --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let run_dir = PathBuf::from(".perfbench-run").join(format!(
        "{}-{}",
        args.kind.name(),
        std::process::id()
    ));
    let res = run(&args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Some(parent) = run_dir.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run uses it
    }
    match res {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// The daemon's state at one edge of an epoch's measured rounds.
struct Edge {
    stats: TelemetrySnapshot,
    proc: ProcSample,
}

fn edge(stats: &mut iofwd::Client, pid: u32) -> Result<Edge, String> {
    Ok(Edge {
        stats: daemon::snapshot(stats)?,
        proc: ProcSample::take(pid)?,
    })
}

/// Daemon counters the per-layer metrics are derived from.
const COUNTERS: [&str; 6] = [
    "slab_hits",
    "slab_misses",
    "bml_blocked_acquires",
    "steal_ops",
    "coalesced_ops",
    "ops_staged",
];
const HISTS: [&str; 3] = ["bml_block_ns", "queue_wait_ns", "coalesce_width"];

/// What the daemons did over the untraced rounds: the stats-wire and
/// `/proc` differences across each round, summed.
#[derive(Default)]
struct DaemonDelta {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, HistSnapshot>,
    ctx_switches: u64,
    minflt: u64,
    classes: [(u64, u64); 3],
}

impl DaemonDelta {
    fn add(&mut self, b: &Edge, a: &Edge) {
        for name in COUNTERS {
            *self.counters.entry(name).or_default() +=
                a.stats.counter(name).saturating_sub(b.stats.counter(name));
        }
        for name in HISTS {
            self.hists
                .entry(name)
                .or_default()
                .merge(&hist_delta(a.stats.hist(name), b.stats.hist(name)));
        }
        self.ctx_switches += a.proc.ctx_switches.saturating_sub(b.proc.ctx_switches);
        self.minflt += a.proc.minflt.saturating_sub(b.proc.minflt);
        for (acc, (x, y)) in self
            .classes
            .iter_mut()
            .zip(a.proc.classes.iter().zip(&b.proc.classes))
        {
            acc.0 += x.0.saturating_sub(y.0);
            acc.1 += x.1.saturating_sub(y.1);
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn hist(&self, name: &str) -> HistSnapshot {
        self.hists.get(name).copied().unwrap_or_default()
    }
}

/// Both clients' share of a set of windows, merged.
struct Merged {
    lat: [Vec<u64>; 3],
    write_bytes: u64,
    read_bytes: u64,
    ops: u64,
    secs: f64,
    traces: Ledger,
}

fn merge(runs: &[ClientRun], windows: impl IntoIterator<Item = usize>) -> Merged {
    let mut m = Merged {
        lat: Default::default(),
        write_bytes: 0,
        read_bytes: 0,
        ops: 0,
        secs: 0.0,
        traces: Ledger::default(),
    };
    for i in windows {
        let wins: Vec<&Window> = runs.iter().filter_map(|r| r.windows.get(i)).collect();
        for w in &wins {
            for (all, mine) in m.lat.iter_mut().zip(&w.lat) {
                all.extend_from_slice(mine);
            }
            for t in &w.traces {
                m.traces.add(t);
            }
            m.write_bytes += w.write_bytes;
            m.read_bytes += w.read_bytes;
            m.ops += w.ops;
        }
        // A window lasts from its first client's start to its last
        // client's end.
        if let (Some(s), Some(e)) = (
            wins.iter().filter_map(|w| w.start).min(),
            wins.iter().filter_map(|w| w.end).max(),
        ) {
            m.secs += e.duration_since(s).as_secs_f64();
        }
    }
    for l in &mut m.lat {
        l.sort_unstable();
    }
    m
}

impl Merged {
    fn throughput_mib_s(&self) -> f64 {
        (self.write_bytes + self.read_bytes) as f64 / MIB / self.secs.max(1e-9)
    }
}

/// Length of one untraced round; a bound rep runs before each.
const ROUND: Duration = Duration::from_secs(1);

fn run(args: &Args, run_dir: &Path) -> Result<bool, String> {
    let spec: Spec = args.kind.spec();
    let root = run_dir.join("root");
    let calib = run_dir.join("calib");
    let _ = std::fs::remove_dir_all(run_dir);
    for d in [&root, &calib] {
        std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
    }
    let pool = workload::pool(&spec, args.seed);
    // Client side on one core, daemon side on another; every thread
    // spawned from here on inherits the client core unless re-pinned.
    let placement = affinity::Placement::detect();
    let (client_cpu, ion_cpu) = (placement.map(|p| p.client), placement.map(|p| p.ion));
    affinity::pin(client_cpu);

    let mut setups = Vec::with_capacity(SETUPS + EPOCHS);
    let mut daemon = None;
    for _ in 0..SETUPS {
        drop(daemon.take());
        let (d, s) = Daemon::spawn(&args.iofwdd, &root, run_dir, &spec, ion_cpu)?;
        setups.push(s);
        daemon = Some(d);
    }

    let mut layer = Metrics::default();
    if args.trace {
        // The layers are daemon code: time them on the daemon's core.
        std::thread::scope(|s| {
            s.spawn(|| {
                affinity::pin(ion_cpu);
                micro::run(&calib, &mut layer, client_cpu)
            })
            .join()
            .expect("micro-measurement thread panicked")
        })?;
    }
    let calibrator = bound::Calibrator::new(&spec, &calib, ion_cpu)?;

    let rounds = ((args.seconds / ROUND.as_secs_f64()).round() as usize).max(1);
    let round = Duration::from_secs_f64(args.seconds / rounds as f64);
    let schedule = schedule(rounds, args.trace);
    // Per round, over the whole run: traced or not, and its epoch.
    let traced: Vec<bool> = schedule.concat();
    let epoch_of: Vec<usize> = (0..schedule.len())
        .flat_map(|e| std::iter::repeat_n(e, schedule[e].len()))
        .collect();
    let origin = Instant::now();
    let mut states: Vec<ClientState> = (0..CLIENTS)
        .map(|c| ClientState::new(spec, args.seed, c, &pool))
        .collect();
    let mut delta = DaemonDelta::default();
    let mut bounds = Vec::with_capacity(traced.len());
    let mut steal = Vec::with_capacity(traced.len());
    // Daemon CPU ticks over each untraced round (0 for the others).
    let mut cpu_ticks = Vec::with_capacity(traced.len());
    let mut peak_rss = Vec::with_capacity(schedule.len());
    for kinds in &schedule {
        let daemon = match daemon.take() {
            Some(d) => d,
            None => {
                let (d, s) = Daemon::spawn(&args.iofwdd, &root, run_dir, &spec, ion_cpu)?;
                setups.push(s);
                d
            }
        };
        let pid = daemon.pid();
        let mut stats_client = daemon.client(1000)?;
        let mut conns = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            conns.push(runner::connect(
                &daemon.addr,
                c,
                kinds.contains(&true),
                origin,
            )?);
        }
        let barrier = Barrier::new(CLIENTS + 1);
        let plan = Plan {
            rounds: kinds,
            round,
            barrier: &barrier,
        };
        let sampled = std::thread::scope(|s| {
            for (st, (c, w)) in states.iter_mut().zip(conns) {
                let plan = &plan;
                s.spawn(move || runner::client_thread(plan, st, c, w));
            }
            // The waits match the client threads' one for one whatever
            // the samples return, so a failed stats query cannot strand
            // them; the scope joins the threads.
            barrier.wait();
            let mut failure = None;
            for &t in kinds.iter() {
                bounds.push(calibrator.rep());
                let stolen = daemon::steal_ticks();
                let before = edge(&mut stats_client, pid);
                barrier.wait();
                barrier.wait();
                let after = edge(&mut stats_client, pid);
                steal.push(daemon::steal_ticks().saturating_sub(stolen));
                let ticks = match (&before, &after) {
                    (Ok(b), Ok(a)) if !t => a.proc.cpu_ticks.saturating_sub(b.proc.cpu_ticks),
                    _ => 0,
                };
                cpu_ticks.push(ticks);
                match (before, after) {
                    (Ok(b), Ok(a)) if !t => delta.add(&b, &a),
                    (Err(e), _) | (_, Err(e)) => {
                        failure.get_or_insert(e);
                    }
                    _ => {}
                }
            }
            barrier.wait();
            failure.map_or(Ok(()), Err)
        });
        sampled?;
        peak_rss.push(daemon::peak_rss_mib(pid)?);
        let _ = stats_client.shutdown();
    }
    drop(calibrator);
    let runs: Vec<ClientRun> = states.into_iter().map(|s| s.run).collect();

    // Final files under the daemon root against each shadow image.
    let mut final_bad = 0u64;
    let check = Instant::now();
    for (client, r) in runs.iter().enumerate() {
        for file in 0..r.shadow.files() {
            let p = root.join(workload::path(client, file).trim_start_matches('/'));
            let image = match std::fs::read(&p) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(format!("read {}: {e}", p.display())),
            };
            final_bad += r.shadow.check_file(file, &image, &pool);
        }
    }
    let final_check_s = check.elapsed().as_secs_f64();

    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let mismatched: u64 = runs.iter().map(|r| r.mismatched).sum();
    let verify_s: f64 = runs.iter().map(|r| r.verify.as_secs_f64()).sum();
    let correct = failed == 0 && mismatched == 0 && final_bad == 0;

    // Rates and percentiles come from the calm rounds: those in which
    // the host took no more CPU time from this machine than in the
    // median round, or under 1% of the round's CPU time. The rest
    // measure the host's other tenants. Rates are interquartile means
    // over rounds; percentiles are taken over the calm rounds' samples
    // pooled (a percentile per round, or per group of rounds, averaged
    // over the rounds, spread twice as wide from run to run).
    let untraced: Vec<usize> = (0..traced.len()).filter(|&g| !traced[g]).collect();
    let floor = 0.01 * daemon::stat_cpus() as f64 * round.as_secs_f64() * daemon::CLOCK_TICKS_PER_S;
    let calm = calm_rounds(&untraced, &steal, floor);
    let per_round: Vec<Merged> = calm.iter().map(|&r| merge(&runs, [r])).collect();
    let kept = calm.len();
    let thr_r: Vec<f64> = per_round.iter().map(Merged::throughput_mib_s).collect();
    let ops_r: Vec<f64> = per_round
        .iter()
        .map(|m| m.ops as f64 / m.secs.max(1e-9))
        .collect();
    let a = merge(&runs, untraced.iter().copied());
    let mut e2e = Metrics::default();
    let thr = interquartile_mean(&thr_r);
    e2e.add_note(
        "throughput_mib_s",
        thr,
        "MiB/s",
        format!(
            "(interquartile mean of {kept} calm rounds of {})",
            untraced.len()
        ),
    );
    e2e.add_note(
        "ops_per_s",
        interquartile_mean(&ops_r),
        "1/s",
        format!(
            "(interquartile mean of {kept} calm rounds of {})",
            untraced.len()
        ),
    );
    for class in Class::ALL {
        let mut lat: Vec<u64> = per_round
            .iter()
            .flat_map(|m| &m.lat[class.index()])
            .copied()
            .collect();
        lat.sort_unstable();
        for p in [50.0, 99.0] {
            let name = format!("{}_p{}_us", class.name(), p as u32);
            match nearest_rank(&lat, p) {
                Some(x) => {
                    let note = format!(
                        "(n={}, {} beyond{})",
                        x.samples,
                        x.beyond,
                        if x.beyond < 10 {
                            "; FEWER THAN 10 BEYOND"
                        } else {
                            ""
                        }
                    );
                    e2e.add_note(name, x.value as f64 / 1e3, "us", note);
                }
                None => eprintln!("perfbench: no {} ops completed in the rounds", class.name()),
            }
        }
    }
    // The same p50s with each sample over the least its op could take
    // in its round: the raw round trip of the loopback bound rep run
    // just before the round, plus, for a read, the device model's
    // service time (a staged write returns before the device sees it).
    // They follow the forwarder, not the host's drifting speed.
    let rtt_r: Vec<f64> = calm.iter().map(|&g| bounds[g].loopback_rtt_us).collect();
    let device_us = spec.throttle.map_or(0.0, |(per_op_us, mib_s)| {
        per_op_us as f64 + spec.op_size as f64 / (mib_s as f64 * MIB) * 1e6
    });
    for (class, extra_us) in [(Class::Write, 0.0), (Class::Read, device_us)] {
        let mut rel: Vec<u64> = per_round
            .iter()
            .zip(&rtt_r)
            .flat_map(|(m, &rtt)| {
                m.lat[class.index()]
                    .iter()
                    .map(move |&ns| (ns as f64 / 1e3 / (rtt + extra_us) * 1e6) as u64)
            })
            .collect();
        rel.sort_unstable();
        if let Some(x) = nearest_rank(&rel, 50.0) {
            e2e.add_note(
                format!("{}_p50_over_bound", class.name()),
                x.value as f64 / 1e6,
                "ratio",
                format!(
                    "(n={}, {} beyond; bound: median raw round trip {:.2} us + device {extra_us:.0} us)",
                    x.samples,
                    x.beyond,
                    median(&rtt_r)
                ),
            );
        }
    }
    let failed_ratio = (failed + mismatched) as f64 / attempted.max(1) as f64;
    e2e.add_note(
        "verified_op_ratio",
        1.0 - failed_ratio,
        "ratio",
        format!("(failed_op_ratio {failed_ratio}: {failed} failed + {mismatched} mismatched of {attempted})"),
    );
    // Each calm round against the bound rep run just before it, so a
    // host whose speed drifts during the run moves both alike.
    let eff_r: Vec<f64> = calm
        .iter()
        .zip(&per_round)
        .map(|(&g, m)| {
            m.throughput_mib_s() / bounds[g].mix_mib_s(m.write_bytes as f64, m.read_bytes as f64)
        })
        .collect();
    let bound = bound::median_of(&bounds);
    let bound_mib_s = bound.mix_mib_s(a.write_bytes as f64, a.read_bytes as f64);
    e2e.add_note(
        "efficiency",
        interquartile_mean(&eff_r),
        "ratio",
        format!("(interquartile mean over {kept} calm rounds of throughput over the bound rep before each; median bound {bound_mib_s:.1} MiB/s)"),
    );
    let cpu_r: Vec<f64> = calm
        .iter()
        .zip(&per_round)
        .map(|(&g, m)| cpu_ticks[g] as f64 / daemon::CLOCK_TICKS_PER_S * 1e6 / m.ops.max(1) as f64)
        .collect();
    e2e.add_note(
        "daemon_cpu_us_per_op",
        interquartile_mean(&cpu_r),
        "us",
        format!("(interquartile mean of {kept} calm rounds)"),
    );
    let cpu_rel: Vec<f64> = cpu_r.iter().zip(&rtt_r).map(|(c, r)| c / r).collect();
    e2e.add_note(
        "daemon_cpu_per_op_over_rtt",
        interquartile_mean(&cpu_rel),
        "ratio",
        "(the same, each round over its raw round trip)".to_string(),
    );
    e2e.add_note(
        "daemon_peak_rss_mib",
        median(&peak_rss),
        "MiB",
        format!("(median over {} daemons)", schedule.len()),
    );
    e2e.add_note(
        "setup_s",
        median(&setups),
        "s",
        format!("(median of {})", setups.len()),
    );

    layer.add("bound.memcpy_gib_s", bound.memcpy_gib_s, "GiB/s");
    layer.add(
        "bound.loopback_tcp_gib_s",
        bound.loopback_tcp_gib_s,
        "GiB/s",
    );
    layer.add("bound.loopback_rtt_us", bound.loopback_rtt_us, "us");
    layer.add("bound.tmpfs_write_gib_s", bound.fs_write_gib_s, "GiB/s");
    layer.add("bound.tmpfs_read_gib_s", bound.fs_read_gib_s, "GiB/s");
    if let Some(d) = bound.device_gib_s {
        layer.add("bound.device_gib_s", d, "GiB/s");
    }
    daemon_layers(&mut layer, &delta, a.ops, a.secs);
    layer.add("verify_s", verify_s, "s");
    if args.trace {
        let traced_rounds: Vec<usize> = (0..traced.len()).filter(|&g| traced[g]).collect();
        let b = merge(&runs, traced_rounds.iter().copied());
        let l = &b.traces;
        let per_op = |ns: u64| ns as f64 / l.ops.max(1) as f64 / 1e3;
        layer.add("client.encode_us", l.mean_us("client.encode"), "us");
        layer.add("client.send_us", per_op(l.send_ns), "us");
        layer.add("client.recv_wait_us", per_op(l.recv_ns), "us");
        layer.add("client.decode_us", l.mean_us("client.decode"), "us");
        layer.add("ledger.server_us", per_op(l.server_ns), "us");
        layer.add("ledger.unattributed_share", l.unattributed_share(), "ratio");
        layer.add(
            "server.dispatch_us_per_op",
            l.mean_us("server.dispatch"),
            "us",
        );
        layer.add("server.reply_us_per_op", l.mean_us("server.reply"), "us");
        layer.add("backend.self_us_per_op", l.mean_us("server.backend"), "us");
        let (overhead, pairs, kept) = trace_overhead(&runs, &traced, &epoch_of, &steal, floor);
        layer.add_note(
            "trace.overhead",
            overhead,
            "ratio",
            format!("(1 - median traced/untraced throughput over {kept} calm of {pairs} adjacent round pairs on one daemon)"),
        );
        l.print();
        let spans: Vec<(usize, Vec<ledger::OpTrace>)> = runs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let ops = traced_rounds
                    .iter()
                    .filter_map(|&g| r.windows.get(g))
                    .flat_map(|w| &w.traces)
                    .take(ledger::SPANS_WRITTEN_PER_CLIENT)
                    .copied()
                    .collect();
                (i, ops)
            })
            .collect();
        let spans: Vec<(usize, &[ledger::OpTrace])> =
            spans.iter().map(|(i, v)| (*i, v.as_slice())).collect();
        let path =
            PathBuf::from(".perfbench-out").join(format!("{}.spans.jsonl", args.kind.name()));
        ledger::write_spans(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("   spans: {}", path.display());
    }

    println!(
        "perfbench {} seed {} ({} clients, {} x {:.2} s rounds{}): {} ops attempted, {} failed, {} reads mismatched, {} final-file mismatches; verify {:.3} s, final check {:.3} s",
        args.kind.name(),
        args.seed,
        CLIENTS,
        rounds,
        round.as_secs_f64(),
        if args.trace { ", the last epoch's alternate traced" } else { "" },
        attempted,
        failed,
        mismatched,
        final_bad,
        verify_s,
        final_check_s
    );
    println!(
        "   steal ticks per round: {steal:?}; calm rounds {calm:?} at MiB/s {:?}",
        thr_r
            .iter()
            .map(|t| (t * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    e2e.print_table("end-to-end");
    layer.print_table("per-layer");

    let (names, source): (&[&str], &Metrics) = if args.trace {
        (&PER_LAYER, &layer)
    } else {
        (&END_TO_END, &e2e)
    };
    let chosen: Vec<&Metric> = names
        .iter()
        .map(|n| {
            source
                .0
                .iter()
                .find(|m| m.name == *n)
                .ok_or_else(|| format!("metric {n} was not measured"))
        })
        .collect::<Result<_, _>>()?;
    if !correct {
        eprintln!("perfbench: VERIFICATION FAILED: {failed} failed ops, {mismatched} mismatched reads, {final_bad} final-file mismatches");
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed + mismatched, &chosen)
    );
    Ok(correct)
}

/// The measured rounds of a run, per epoch (daemon lifetime): whether
/// each runs traced. The untraced rounds are spread over up to
/// [`EPOCHS`] daemons. A traced run's last epoch instead alternates an
/// untraced and a traced round, a quarter of the run each, so that the
/// cost of tracing is measured on one daemon, round against adjacent
/// round.
fn schedule(rounds: usize, trace: bool) -> Vec<Vec<bool>> {
    let pairs = if trace { (rounds / 4).max(1) } else { 0 };
    let rest = rounds.saturating_sub(2 * pairs);
    let spread = (EPOCHS - usize::from(trace)).min(rest);
    let mut plan: Vec<Vec<bool>> = (0..spread)
        .map(|e| vec![false; rest / spread + usize::from(e < rest % spread)])
        .collect();
    if trace {
        plan.push((0..2 * pairs).map(|i| i % 2 == 1).collect());
    }
    plan
}

/// Of `rounds`, those whose stolen CPU time is at most the median
/// among them or at most `floor` ticks: all of them on a host that
/// takes little.
fn calm_rounds(rounds: &[usize], steal: &[u64], floor: f64) -> Vec<usize> {
    let limit = median(&rounds.iter().map(|&r| steal[r] as f64).collect::<Vec<_>>()).max(floor);
    rounds
        .iter()
        .copied()
        .filter(|&r| steal[r] as f64 <= limit)
        .collect()
}

/// The cost of tracing: 1 - the median, over the last epoch's pairs of
/// an untraced round and the traced round after it, of traced over
/// untraced throughput. Only pairs whose rounds are both calm (within
/// that epoch) count, unless none are. Returns the overhead, the
/// number of pairs and the number counted.
fn trace_overhead(
    runs: &[ClientRun],
    traced: &[bool],
    epoch_of: &[usize],
    steal: &[u64],
    floor: f64,
) -> (f64, usize, usize) {
    let last = epoch_of.last().copied().unwrap_or(0);
    let in_last: Vec<usize> = (0..traced.len()).filter(|&g| epoch_of[g] == last).collect();
    let calm = calm_rounds(&in_last, steal, floor);
    let pairs: Vec<(usize, usize)> = in_last
        .iter()
        .filter(|&&g| traced[g] && g > 0 && !traced[g - 1] && epoch_of[g - 1] == last)
        .map(|&g| (g - 1, g))
        .collect();
    let steady: Vec<(usize, usize)> = pairs
        .iter()
        .copied()
        .filter(|(u, t)| calm.contains(u) && calm.contains(t))
        .collect();
    let used = if steady.is_empty() { &pairs } else { &steady };
    let ratios: Vec<f64> = used
        .iter()
        .map(|&(u, t)| {
            merge(runs, [t]).throughput_mib_s() / merge(runs, [u]).throughput_mib_s().max(1e-9)
        })
        .collect();
    (1.0 - median(&ratios), pairs.len(), used.len())
}

/// Per-layer metrics from the daemons' stats-wire and `/proc` deltas
/// over the untraced rounds.
fn daemon_layers(out: &mut Metrics, d: &DaemonDelta, ops: u64, busy_s: f64) {
    let dc = |name: &str| d.counter(name);
    let dh = |name: &str| d.hist(name);
    let ratio = |x: u64, y: u64| if y == 0 { 0.0 } else { x as f64 / y as f64 };

    let hits = dc("slab_hits");
    out.add(
        "bml.slab_hit_ratio",
        ratio(hits, hits + dc("slab_misses")),
        "ratio",
    );
    out.add(
        "bml.blocked_acquires",
        dc("bml_blocked_acquires") as f64,
        "count",
    );
    out.add(
        "bml.block_ns_p99",
        hist_quantile(&dh("bml_block_ns"), 0.99),
        "ns",
    );
    let qwait = dh("queue_wait_ns");
    out.add(
        "queue.steal_ratio",
        ratio(dc("steal_ops"), qwait.count),
        "ratio",
    );
    out.add("queue.wait_us_p50", hist_quantile(&qwait, 0.5) / 1e3, "us");
    out.add(
        "staged.coalesced_ops_ratio",
        ratio(dc("coalesced_ops"), dc("ops_staged")),
        "ratio",
    );
    let width = dh("coalesce_width");
    out.add("staged.coalesce_width_mean", width.mean(), "ops");

    // The daemon idles during the bound reps between rounds: shares are
    // of the rounds' wall time.
    let window_ns = (busy_s * 1e9).max(1.0);
    for (i, class) in daemon::CLASSES.iter().enumerate().take(2) {
        let (on, rq) = d.classes[i];
        out.add(
            format!("daemon.{class}_oncpu_share"),
            on as f64 / window_ns,
            "cores",
        );
        out.add(
            format!("daemon.{class}_runq_share"),
            rq as f64 / window_ns,
            "cores",
        );
    }
    out.add(
        "daemon.accept_oncpu_share",
        d.classes[2].0 as f64 / window_ns,
        "cores",
    );
    out.add(
        "daemon.ctx_switches_per_op",
        ratio(d.ctx_switches, ops),
        "count",
    );
    out.add("daemon.minor_faults_per_op", ratio(d.minflt, ops), "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload names the benchmark's description lists,
    /// in file order.
    fn described_names() -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        text.split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn calm_rounds_are_those_at_or_below_the_median_steal_or_the_floor() {
        assert_eq!(calm_rounds(&[0, 1, 2], &[0, 0, 0], 0.0), vec![0, 1, 2]);
        assert_eq!(
            calm_rounds(&[0, 1, 2, 3, 4], &[5, 40, 0, 90, 7], 0.0),
            vec![0, 2, 4]
        );
        assert_eq!(calm_rounds(&[0, 1, 2, 3], &[3, 1, 2, 10], 0.0), vec![1, 2]);
        assert_eq!(calm_rounds(&[1, 3, 4], &[0, 40, 0, 90, 7], 0.0), vec![1, 4]);
        // Below the floor every round is calm, whatever the median.
        assert_eq!(
            calm_rounds(&[0, 1, 2, 3], &[0, 2, 1, 0], 2.0),
            vec![0, 1, 2, 3]
        );
        assert_eq!(
            calm_rounds(&[0, 1, 2, 3], &[0, 9, 1, 0], 2.0),
            vec![0, 2, 3]
        );
    }

    #[test]
    fn schedule_spreads_untraced_rounds_and_pairs_traced_ones_on_the_last_daemon() {
        let plan = schedule(3 * EPOCHS + 1, false);
        assert_eq!(plan.len(), EPOCHS);
        assert_eq!(plan[0].len(), 4);
        assert!(plan[1..].iter().all(|e| e.len() == 3));
        assert!(plan.iter().flatten().all(|t| !t));
        assert_eq!(schedule(4, false), vec![vec![false]; 4]);

        // 30 rounds traced: 7 pairs on the last daemon, the other 16
        // rounds spread over the daemons before it.
        let plan = schedule(30, true);
        assert_eq!(plan.len(), 1 + (EPOCHS - 1).min(16));
        assert_eq!(plan.concat().len(), 30);
        let (last, before) = plan.split_last().unwrap();
        assert_eq!(last.len(), 14);
        assert!(last.chunks(2).all(|p| p == [false, true]));
        assert!(before.iter().flatten().all(|t| !t));
        assert_eq!(schedule(1, true), vec![vec![false, true]]);
    }

    #[test]
    fn the_description_lists_exactly_the_metrics_the_runs_print() {
        let names = described_names();
        let workloads: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        let n = workloads.len();
        assert_eq!(names[..n], workloads);
        assert_eq!(names[n..n + END_TO_END.len()], END_TO_END);
        assert_eq!(names[n + END_TO_END.len()..], PER_LAYER);
    }
}
