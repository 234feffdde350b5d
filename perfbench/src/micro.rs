//! Per-layer micro-measurements: each layer's public entry points timed
//! in isolation, in ns/op or GiB/s, so a regression names its layer.

use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iofwd::backend::{Backend, FileBackend};
use iofwd::bml::Bml;
use iofwd::descdb::{DescDb, OpOutcome};
use iofwd::server::{QueueDiscipline, ReplyTo, WorkItem, WorkQueue};
use iofwd::telemetry::{OpKind, OpSpan};
use iofwd::transport::tcp::TcpConn;
use iofwd::transport::Conn;
use iofwd_proto::{Fd, Frame, OpenFlags, Request, Response};
use std::hint::black_box;

use crate::report::Metrics;
use crate::stats::{median, median_ns_per_call};

const KIB4: usize = 4 << 10;
const MIB1: usize = 1 << 20;
const REPS: usize = 5;
const GIB: f64 = (1u64 << 30) as f64;

/// Run every layer's measurement; the TCP echo peer runs on
/// `peer_cpu` when given.
pub fn run(dir: &Path, out: &mut Metrics, peer_cpu: Option<usize>) -> Result<(), String> {
    proto(out);
    transport(out, peer_cpu)?;
    bml(out);
    queue(out);
    descdb(dir, out)?;
    backend(dir, out)?;
    Ok(())
}

fn pwrite_frame(size: usize) -> (Request, Bytes) {
    let req = Request::Pwrite {
        fd: Fd(3),
        offset: 1 << 20,
        len: size as u64,
    };
    (req, Bytes::from(vec![0x42u8; size]))
}

/// `Frame::request` + `encode_header`, and `Frame::decode_shared`.
fn proto(out: &mut Metrics) {
    for (size, tag) in [(KIB4, "4k"), (MIB1, "1m")] {
        let (req, data) = pwrite_frame(size);
        let enc = median_ns_per_call(REPS, 50_000, || {
            let f = Frame::request(1, 7, black_box(&req), data.clone());
            black_box(f.encode_header());
        });
        out.add(format!("proto.encode_ns.{tag}"), enc, "ns");
        let wire = Frame::request(1, 7, &req, data).encode();
        let dec = median_ns_per_call(REPS, 50_000, || {
            black_box(Frame::decode_shared(black_box(&wire)).expect("decode own frame"));
        });
        out.add(format!("proto.decode_shared_ns.{tag}"), dec, "ns");
    }
}

/// `TcpConn` over loopback against an echo peer that answers each
/// request with a payload-free response.
fn transport(out: &mut Metrics, peer_cpu: Option<usize>) -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let client = TcpConn::connect(addr).map_err(|e| e.to_string())?;
    let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
    let server = TcpConn::from_stream(stream).map_err(|e| e.to_string())?;
    std::thread::scope(|s| {
        s.spawn(|| {
            crate::affinity::pin(peer_cpu);
            while let Ok(Some(f)) = server.recv() {
                let ack =
                    Frame::response(f.client_id, f.seq, &Response::Ok { ret: 0 }, Bytes::new());
                if server.send(ack).is_err() {
                    break;
                }
            }
        });
        let round = |size: usize, iters: usize| -> Result<f64, String> {
            let (req, data) = pwrite_frame(size);
            let t = Instant::now();
            for seq in 0..iters as u64 {
                client
                    .send(Frame::request(1, seq, &req, data.clone()))
                    .map_err(|e| e.to_string())?;
                client
                    .recv()
                    .map_err(|e| e.to_string())?
                    .ok_or("echo peer closed")?;
            }
            Ok(t.elapsed().as_secs_f64() / iters as f64)
        };
        let res = (|| {
            round(KIB4, 500)?; // warm the connection
            let rtt: Vec<f64> = (0..REPS)
                .map(|_| round(KIB4, 2000).map(|s| s * 1e6))
                .collect::<Result<_, _>>()?;
            out.add("transport.tcp_rtt_us.4k", median(&rtt), "us");
            let bw: Vec<f64> = (0..REPS)
                .map(|_| round(MIB1, 64).map(|s| MIB1 as f64 / s / GIB))
                .collect::<Result<_, _>>()?;
            out.add("transport.tcp_gib_s.1m", median(&bw), "GiB/s");
            Ok(())
        })();
        client.close();
        res
    })
}

fn bml(out: &mut Metrics) {
    let bml = Bml::new(64 << 20);
    let data = Bytes::from(vec![7u8; MIB1]);
    let adopt = median_ns_per_call(REPS, 50_000, || {
        drop(black_box(bml.adopt(data.clone()).expect("BML open")));
    });
    out.add("bml.adopt_release_ns", adopt, "ns");
    let acquire = median_ns_per_call(REPS, 50_000, || {
        drop(black_box(bml.acquire(MIB1).expect("BML open")));
    });
    out.add("bml.acquire_release_ns", acquire, "ns");
}

/// `WorkQueue` (per-worker shards) push then `pop_batch_into` from the
/// owning worker.
fn queue(out: &mut Metrics) {
    let q = WorkQueue::new(QueueDiscipline::PerWorker, 2);
    let (tx, _rx) = crossbeam::channel::unbounded();
    let mut tx = Some(tx);
    let mut batch = Vec::with_capacity(16);
    let mut seq = 0u64;
    let ns = median_ns_per_call(REPS, 100_000, || {
        seq += 1;
        let item = WorkItem::Sync {
            req: Request::Fsync { fd: Fd(1) },
            data: Bytes::new(),
            reply: ReplyTo::Handler(tx.take().expect("sender returned by the last pop")),
            span: OpSpan::begin(OpKind::Fsync, 0, seq, 0),
        };
        q.push(item).expect("queue open");
        q.pop_batch_into(0, 1, &mut batch);
        match batch.pop() {
            Some(WorkItem::Sync {
                reply: ReplyTo::Handler(t),
                ..
            }) => tx = Some(t),
            _ => unreachable!("popped the item just pushed"),
        }
    });
    out.add("queue.push_pop_ns", ns, "ns");
}

fn descdb(dir: &Path, out: &mut Metrics) -> Result<(), String> {
    let backend = FileBackend::new(dir);
    let obj = backend
        .open(
            "/descdb.dat",
            OpenFlags::RDWR.union(OpenFlags::CREATE),
            0o644,
        )
        .map_err(|e| e.to_string())?;
    let db = DescDb::new();
    let fd = db.insert(obj, "/descdb.dat").map_err(|e| e.to_string())?;
    let ns = median_ns_per_call(REPS, 100_000, || {
        let (op, obj) = db
            .begin_op(fd)
            .map_err(|_| "begin_op")
            .expect("descriptor open");
        black_box(obj);
        db.finish_op(fd, op, OpOutcome::Ok);
    });
    out.add("descdb.begin_finish_ns", ns, "ns");
    Ok(())
}

/// `FileBackend` positioned 1 MiB writes and `read_into` over a 64 MiB
/// file on the daemon root's filesystem.
fn backend(dir: &Path, out: &mut Metrics) -> Result<(), String> {
    const SPAN: u64 = 64 << 20;
    let backend = FileBackend::new(dir);
    let mut obj = backend
        .open(
            "/backend.dat",
            OpenFlags::RDWR.union(OpenFlags::CREATE),
            0o644,
        )
        .map_err(|e| e.to_string())?;
    let data = vec![0x11u8; MIB1];
    let mut buf = vec![0u8; MIB1];
    let mut at = 0;
    while at < SPAN {
        obj.write_at(Some(at), &data).map_err(|e| e.to_string())?;
        at += MIB1 as u64;
    }
    let mut rate = |write: bool| -> Result<f64, String> {
        let rates: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                let mut n = 0u64;
                while t.elapsed() < Duration::from_millis(40) {
                    let at = n * MIB1 as u64 % SPAN;
                    if write {
                        obj.write_at(Some(at), &data).map_err(|e| e.to_string())?;
                    } else {
                        obj.read_into(Some(at), &mut buf)
                            .map_err(|e| e.to_string())?;
                    }
                    n += 1;
                }
                Ok(n as f64 * MIB1 as f64 / t.elapsed().as_secs_f64() / GIB)
            })
            .collect::<Result<_, String>>()?;
        Ok(median(&rates))
    };
    let w = rate(true)?;
    let r = rate(false)?;
    out.add("backend.pwrite_gib_s.1m", w, "GiB/s");
    out.add("backend.read_into_gib_s.1m", r, "GiB/s");
    drop(obj);
    let _ = std::fs::remove_file(dir.join("backend.dat"));
    let _ = std::fs::remove_file(dir.join("descdb.dat"));
    Ok(())
}
