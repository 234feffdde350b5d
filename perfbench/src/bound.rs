//! Same-run bound calibration: what this host can move at the
//! workload's op size and stream count without the forwarder in the
//! way. `efficiency` is the forwarder's throughput against it. One
//! short rep of each stage runs before every round of the forwarder and
//! the bound is the per-stage median of the reps, so it samples the
//! host over the same stretch of time as the forwarder on a host whose
//! speed drifts.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::affinity::pin;
use crate::stats::median;
use crate::workload::{Spec, CLIENTS};

/// One calibration rep of each stage runs this long.
const REP: Duration = Duration::from_millis(30);
const GIB: f64 = (1u64 << 30) as f64;

#[derive(Clone, Copy, Debug, Default)]
pub struct Bound {
    pub memcpy_gib_s: f64,
    pub loopback_tcp_gib_s: f64,
    /// Median round trip of one loopback stream in that stage, in
    /// microseconds: an op-size message and its ack, the other streams
    /// running alongside as the forwarder's other clients do. A median,
    /// like the forwarder's p50s, so that a stall while the host takes
    /// the CPU away moves neither.
    pub loopback_rtt_us: f64,
    pub fs_write_gib_s: f64,
    pub fs_read_gib_s: f64,
    /// The device model's configured bandwidth, where one is set.
    pub device_gib_s: Option<f64>,
}

impl Bound {
    /// Ceiling for one direction of payload: the slowest stage a byte
    /// crosses (memory copy, loopback wire, filesystem, device model).
    fn ceiling(&self, fs: f64) -> f64 {
        let mut c = self.memcpy_gib_s.min(self.loopback_tcp_gib_s).min(fs);
        if let Some(d) = self.device_gib_s {
            c = c.min(d);
        }
        c
    }

    /// The bound for a byte mix, in MiB/s: the rate at which the host
    /// could move `write_bytes` in and `read_bytes` out at the write and
    /// read ceilings one after the other.
    pub fn mix_mib_s(&self, write_bytes: f64, read_bytes: f64) -> f64 {
        let secs = write_bytes / (self.ceiling(self.fs_write_gib_s) * GIB)
            + read_bytes / (self.ceiling(self.fs_read_gib_s) * GIB);
        if secs <= 0.0 {
            return 0.0;
        }
        (write_bytes + read_bytes) / secs / (1u64 << 20) as f64
    }
}

/// Aggregate rate of `CLIENTS` threads, on `cpu` when given, each
/// calling `work(stream, deadline)` until `REP` has passed; `work`
/// returns the bytes it moved.
fn aggregate_gib_s(cpu: Option<usize>, work: impl Fn(usize, Instant) -> u64 + Sync) -> f64 {
    let start = Instant::now();
    let deadline = start + REP;
    let bytes: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let work = &work;
                s.spawn(move || {
                    pin(cpu);
                    work(i, deadline)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bound worker panicked"))
            .sum()
    });
    bytes as f64 / start.elapsed().as_secs_f64() / GIB
}

/// Raw stages at the workload's op size and stream count, kept open so
/// that one short rep of each can run between the forwarder's rounds.
/// The stages the daemon would do (copies, the receiving end of the
/// wire, the filesystem) run on the daemon's core; the sending end of
/// the wire stays on the caller's.
pub struct Calibrator {
    op: usize,
    ion: Option<usize>,
    span: u64,
    device_gib_s: Option<f64>,
    payload: Vec<u8>,
    /// Client ends of the loopback streams.
    streams: Vec<Mutex<TcpStream>>,
    /// Echo peers: each reads an op-size message and answers 8 bytes.
    peers: Vec<std::thread::JoinHandle<()>>,
    /// One file per stream on the daemon root's filesystem.
    files: Vec<File>,
    paths: Vec<PathBuf>,
}

impl Calibrator {
    pub fn new(spec: &Spec, dir: &Path, ion: Option<usize>) -> Result<Calibrator, String> {
        let op = spec.op_size;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let mut cal = Calibrator {
            op,
            ion,
            span: (spec.files * spec.extents * op) as u64,
            device_gib_s: spec.throttle.map(|(_, mib_s)| mib_s as f64 / 1024.0),
            payload: vec![0xa5u8; op],
            streams: Vec::new(),
            peers: Vec::new(),
            files: Vec::new(),
            paths: Vec::new(),
        };
        for i in 0..CLIENTS {
            let c = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            c.set_nodelay(true).map_err(|e| e.to_string())?;
            let (mut s, _) = listener.accept().map_err(|e| e.to_string())?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            cal.streams.push(Mutex::new(c));
            cal.peers.push(std::thread::spawn(move || {
                pin(ion);
                let mut buf = vec![0u8; op];
                while s.read_exact(&mut buf).is_ok() {
                    if s.write_all(&[0u8; 8]).is_err() {
                        break;
                    }
                }
            }));
            let path = dir.join(format!("bound-{i}.dat"));
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .map_err(|e| e.to_string())?;
            // Allocate the pages once; the reps overwrite them, as the
            // forwarder does once each file has been visited.
            let mut at = 0;
            while at < cal.span {
                f.write_all_at(&cal.payload, at)
                    .map_err(|e| e.to_string())?;
                at += op as u64;
            }
            cal.files.push(f);
            cal.paths.push(path);
        }
        Ok(cal)
    }

    /// One rep of every stage.
    pub fn rep(&self) -> Bound {
        let op = self.op;
        let memcpy_gib_s = aggregate_gib_s(self.ion, |_, deadline| {
            let mut dst = vec![0u8; op];
            let mut n = 0u64;
            while Instant::now() < deadline {
                for _ in 0..8 {
                    dst.copy_from_slice(std::hint::black_box(&self.payload));
                    std::hint::black_box(&mut dst);
                }
                n += 8 * op as u64;
            }
            n
        });
        // Closed loop like the forwarder: send an op, wait for the ack.
        let rtts = Mutex::new(Vec::new());
        let loopback_tcp_gib_s = aggregate_gib_s(None, |i, deadline| {
            let mut c = self.streams[i].lock().expect("loopback stream lock");
            let mut ack = [0u8; 8];
            let mut mine = Vec::new();
            let mut n = 0u64;
            loop {
                let t = Instant::now();
                if t >= deadline
                    || c.write_all(&self.payload)
                        .and_then(|_| c.read_exact(&mut ack))
                        .is_err()
                {
                    break;
                }
                mine.push(t.elapsed().as_secs_f64() * 1e6);
                n += op as u64;
            }
            rtts.lock().expect("rtt lock").extend(mine);
            n
        });
        let loopback_rtt_us = median(&rtts.into_inner().expect("rtt lock"));
        let fs = |write: bool| {
            aggregate_gib_s(self.ion, |i, deadline| {
                let mut buf = vec![0u8; op];
                let mut at = (i as u64 * 7 * op as u64) % self.span;
                let mut n = 0u64;
                while Instant::now() < deadline {
                    let r = match write {
                        true => self.files[i].write_all_at(&self.payload, at),
                        false => self.files[i].read_exact_at(&mut buf, at),
                    };
                    if r.is_err() {
                        break;
                    }
                    at = (at + op as u64) % self.span;
                    n += op as u64;
                }
                n
            })
        };
        Bound {
            memcpy_gib_s,
            loopback_tcp_gib_s,
            loopback_rtt_us,
            fs_write_gib_s: fs(true),
            fs_read_gib_s: fs(false),
            device_gib_s: self.device_gib_s,
        }
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        for c in &self.streams {
            if let Ok(c) = c.lock() {
                let _ = c.shutdown(std::net::Shutdown::Both);
            }
        }
        for p in self.peers.drain(..) {
            let _ = p.join();
        }
        for p in &self.paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// The per-component median of several reps.
pub fn median_of(reps: &[Bound]) -> Bound {
    let m = |f: fn(&Bound) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    Bound {
        memcpy_gib_s: m(|b| b.memcpy_gib_s),
        loopback_tcp_gib_s: m(|b| b.loopback_tcp_gib_s),
        loopback_rtt_us: m(|b| b.loopback_rtt_us),
        fs_write_gib_s: m(|b| b.fs_write_gib_s),
        fs_read_gib_s: m(|b| b.fs_read_gib_s),
        device_gib_s: reps.first().and_then(|b| b.device_gib_s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_bound_is_the_harmonic_combination_of_the_ceilings() {
        let b = Bound {
            memcpy_gib_s: 8.0,
            loopback_tcp_gib_s: 2.0,
            loopback_rtt_us: 1.0,
            fs_write_gib_s: 1.0,
            fs_read_gib_s: 4.0,
            device_gib_s: None,
        };
        // Writes cap at 1 GiB/s (fs), reads at 2 GiB/s (loopback).
        let gib = GIB;
        let mix = b.mix_mib_s(gib, gib);
        assert!((mix - 2.0 * 1024.0 / 1.5).abs() < 1e-6, "{mix}");
        assert!((b.mix_mib_s(gib, 0.0) - 1024.0).abs() < 1e-6);
        let dev = Bound {
            device_gib_s: Some(0.25),
            ..b
        };
        assert!((dev.mix_mib_s(gib, 0.0) - 256.0).abs() < 1e-6);
    }
}
