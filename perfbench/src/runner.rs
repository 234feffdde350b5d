//! The closed loop: each generator thread drives one connection, waits
//! for every reply, checks every read against its shadow image, and
//! stamps latencies. Untraced rounds call `iofwd::Client`; traced
//! rounds run the same ops through this file's own wire loop
//! (what `Client::call` does, with a trace context attached) and keep
//! one span record per op in memory.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iofwd::transport::tcp::TcpConn;
use iofwd::transport::Conn;
use iofwd::Client;
use iofwd_proto::{Fd, Frame, OpenFlags, Request, Response, StageEcho, TraceContext, TraceExt};

use crate::ledger::OpTrace;
use crate::workload::{matches_slot, path, Class, Op, OpStream, Shadow, Slot, Spec};

/// How long the loop runs against a fresh daemon before its first
/// measured round, so file creation, first-touch page faults and slab
/// warm-up are not timed.
pub const WARMUP: Duration = Duration::from_millis(200);

/// What one client did in one measured window.
#[derive(Default)]
pub struct Window {
    /// Latencies in ns, by [`Class::index`].
    pub lat: [Vec<u64>; 3],
    pub write_bytes: u64,
    /// Bytes read and verified equal to the shadow image.
    pub read_bytes: u64,
    pub ops: u64,
    pub start: Option<Instant>,
    pub end: Option<Instant>,
    /// Traced phase only: one record per completed op.
    pub traces: Vec<OpTrace>,
}

/// Everything one client thread returns.
pub struct ClientRun {
    pub windows: Vec<Window>,
    pub attempted: u64,
    pub failed: u64,
    /// Reads whose bytes differed from the shadow image.
    pub mismatched: u64,
    /// Time spent comparing read data, outside every latency stamp.
    pub verify: Duration,
    pub shadow: Shadow,
}

/// One traced request/response exchange, done by hand.
pub struct Wire {
    conn: TcpConn,
    client_id: u32,
    seq: u64,
    origin: Instant,
}

impl Wire {
    fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `Frame::request` -> `TcpConn::send` -> `recv` ->
    /// `decode_response`, stamping each boundary into `rec.t`.
    fn call(
        &mut self,
        req: &Request,
        payload: Option<&Bytes>,
        rec: &mut OpTrace,
    ) -> Result<(Response, Vec<u8>), String> {
        rec.t[0] = self.ns();
        self.seq += 1;
        let seq = self.seq;
        // The client library copies the caller's slice into the frame.
        let data = payload.map_or_else(Bytes::new, |p| Bytes::copy_from_slice(p));
        let trace_id = (u64::from(self.client_id) + 1) << 32 | (seq & 0xffff_ffff);
        let frame = Frame::request(self.client_id, seq, req, data)
            .with_ext(TraceExt::Ctx(TraceContext::sampled(trace_id)));
        rec.t[1] = self.ns();
        self.conn.send(frame).map_err(|e| e.to_string())?;
        rec.t[2] = self.ns();
        let reply = self
            .conn
            .recv()
            .map_err(|e| e.to_string())?
            .ok_or("connection closed")?;
        rec.t[3] = self.ns();
        if reply.seq != seq {
            return Err(format!(
                "response out of order: expected {seq}, got {}",
                reply.seq
            ));
        }
        let resp = reply.decode_response().map_err(|e| e.to_string())?;
        let data = reply.data.to_vec();
        rec.echo = reply.stage_echo().unwrap_or(StageEcho::default());
        rec.t[4] = self.ns();
        Ok((resp, data))
    }
}

enum Outcome {
    Done,
    Opened(Fd),
    Read(Vec<u8>),
    Failed,
}

fn flags(truncate: bool) -> OpenFlags {
    let f = OpenFlags::RDWR.union(OpenFlags::CREATE);
    if truncate {
        f.union(OpenFlags::TRUNC)
    } else {
        f
    }
}

fn request_of(op: Op, spec: &Spec, client: usize, fds: &[Option<Fd>]) -> Option<Request> {
    let size = spec.op_size as u64;
    Some(match op {
        Op::Open { file, truncate } => Request::Open {
            path: path(client, file),
            flags: flags(truncate),
            mode: 0o644,
        },
        Op::Stat { file } => Request::Stat {
            path: path(client, file),
        },
        Op::Pwrite { file, extent, .. } => Request::Pwrite {
            fd: fds[file]?,
            offset: extent as u64 * size,
            len: size,
        },
        Op::Pread { file, extent } => Request::Pread {
            fd: fds[file]?,
            offset: extent as u64 * size,
            len: size,
        },
        Op::Fsync { file } => Request::Fsync { fd: fds[file]? },
        Op::Close { file } => Request::Close { fd: fds[file]? },
    })
}

/// The same op through `iofwd::Client`.
fn via_client(
    c: &mut Client,
    op: Op,
    spec: &Spec,
    client: usize,
    fds: &[Option<Fd>],
    pool: &[Bytes],
) -> Outcome {
    let size = spec.op_size as u64;
    let fd = |file: usize| fds[file];
    let r = match op {
        Op::Open { file, truncate } => {
            return c
                .open(&path(client, file), flags(truncate), 0o644)
                .map_or(Outcome::Failed, Outcome::Opened)
        }
        Op::Stat { file } => c.stat(&path(client, file)).map(|_| ()),
        Op::Pwrite {
            file,
            extent,
            entry,
        } => match fd(file) {
            Some(fd) => c.pwrite(fd, extent as u64 * size, &pool[entry]).map(|_| ()),
            None => return Outcome::Failed,
        },
        Op::Pread { file, extent } => {
            return match fd(file) {
                Some(fd) => c
                    .pread(fd, extent as u64 * size, size)
                    .map_or(Outcome::Failed, Outcome::Read),
                None => Outcome::Failed,
            }
        }
        Op::Fsync { file } => match fd(file) {
            Some(fd) => c.fsync(fd),
            None => return Outcome::Failed,
        },
        Op::Close { file } => match fd(file) {
            Some(fd) => c.close(fd),
            None => return Outcome::Failed,
        },
    };
    r.map_or(Outcome::Failed, |_| Outcome::Done)
}

/// The same op through the hand-rolled traced wire loop.
fn via_wire(
    w: &mut Wire,
    op: Op,
    spec: &Spec,
    client: usize,
    fds: &[Option<Fd>],
    pool: &[Bytes],
    rec: &mut OpTrace,
) -> Outcome {
    let Some(req) = request_of(op, spec, client, fds) else {
        return Outcome::Failed;
    };
    let payload = match op {
        Op::Pwrite { entry, .. } => Some(&pool[entry]),
        _ => None,
    };
    match w.call(&req, payload, rec) {
        Ok((Response::Ok { ret }, data)) => match op {
            Op::Open { .. } => Outcome::Opened(Fd(ret as u32)),
            Op::Pread { .. } if ret as usize == data.len() => Outcome::Read(data),
            Op::Pread { .. } => Outcome::Failed,
            _ => Outcome::Done,
        },
        Ok((Response::Staged { .. }, _)) if matches!(op, Op::Pwrite { .. }) => Outcome::Done,
        Ok((Response::StatOk { .. }, _)) if matches!(op, Op::Stat { .. }) => Outcome::Done,
        _ => Outcome::Failed,
    }
}

/// One client's loop state, carried across the run's epochs: its op
/// stream, shadow image, open descriptors and tallies.
pub struct ClientState<'a> {
    spec: Spec,
    client: usize,
    pool: &'a [Bytes],
    stream: OpStream,
    pending: std::vec::IntoIter<Op>,
    fds: Vec<Option<Fd>>,
    pub run: ClientRun,
}

impl<'a> ClientState<'a> {
    pub fn new(spec: Spec, seed: u64, client: usize, pool: &'a [Bytes]) -> ClientState<'a> {
        ClientState {
            spec,
            client,
            pool,
            stream: OpStream::new(spec, seed, client),
            pending: Vec::new().into_iter(),
            fds: vec![None; spec.files],
            run: ClientRun {
                windows: Vec::new(),
                attempted: 0,
                failed: 0,
                mismatched: 0,
                verify: Duration::ZERO,
                shadow: Shadow::new(&spec),
            },
        }
    }

    fn next_op(&mut self) -> Op {
        loop {
            if let Some(op) = self.pending.next() {
                return op;
            }
            self.pending = self.stream.next_cycle().into_iter();
        }
    }

    /// Send one op, through the traced wire loop (stamping `rec`) when
    /// `wire` is given, else through the client library. Returns the
    /// class, latency and payload bytes when the op succeeded.
    fn step(
        &mut self,
        c: &mut Client,
        wire: &mut Option<&mut Wire>,
        op: Op,
        rec: &mut OpTrace,
    ) -> Option<(Class, u64, u64)> {
        let t0 = Instant::now();
        let outcome = match wire {
            Some(w) => via_wire(w, op, &self.spec, self.client, &self.fds, self.pool, rec),
            None => via_client(c, op, &self.spec, self.client, &self.fds, self.pool),
        };
        let lat = t0.elapsed().as_nanos() as u64;
        self.record(op, outcome)
            .map(|bytes| (op.class(), lat, bytes))
    }

    /// Account for one op's outcome: tallies, descriptors and the
    /// shadow image; every read is compared with the shadow here,
    /// after its latency stamp. Returns the verified payload bytes
    /// when the op succeeded.
    fn record(&mut self, op: Op, outcome: Outcome) -> Option<u64> {
        self.run.attempted += 1;
        let mut bytes = 0;
        match (op, outcome) {
            (_, Outcome::Failed) => {
                self.run.failed += 1;
                if let Op::Pwrite { file, extent, .. } = op {
                    self.run.shadow.set(file, extent, Slot::Unknown);
                }
                if let Op::Close { file } = op {
                    self.fds[file] = None;
                }
                return None;
            }
            (Op::Open { file, truncate }, Outcome::Opened(fd)) => {
                self.fds[file] = Some(fd);
                if truncate {
                    self.run.shadow.truncate(file);
                }
            }
            (
                Op::Pwrite {
                    file,
                    extent,
                    entry,
                },
                _,
            ) => {
                self.run.shadow.set(file, extent, Slot::Entry(entry));
                bytes = self.spec.op_size as u64;
            }
            (Op::Pread { file, extent }, Outcome::Read(data)) => {
                let v = Instant::now();
                let ok = matches_slot(
                    self.run.shadow.get(file, extent),
                    &data,
                    self.pool,
                    self.spec.op_size,
                );
                self.run.verify += v.elapsed();
                // The slot alone decides: a read past the end of the
                // file returns nothing, which is right for a slot never
                // written and wrong for any other.
                if !ok {
                    self.run.mismatched += 1;
                    return None;
                }
                bytes = data.len() as u64;
            }
            (Op::Close { file }, _) => self.fds[file] = None,
            _ => {}
        }
        Some(bytes)
    }

    /// Drop the rest of the current cycle and close what it left open,
    /// through the library client or, when given, the traced wire
    /// connection the descriptors were opened on; a phase so ends with
    /// every staged write flushed.
    fn close_open(&mut self, c: &mut Client, wire: Option<&mut Wire>) {
        let dropped: Vec<Op> = std::mem::take(&mut self.pending).collect();
        self.stream.forget(&dropped);
        let mut wire = wire;
        for file in 0..self.fds.len() {
            if let Some(fd) = self.fds[file].take() {
                let ok = match wire.as_deref_mut() {
                    Some(w) => matches!(
                        w.call(&Request::Close { fd }, None, &mut OpTrace::default()),
                        Ok((Response::Ok { .. }, _))
                    ),
                    None => c.close(fd).is_ok(),
                };
                self.run.attempted += 1;
                self.run.failed += u64::from(!ok);
            }
        }
    }

    /// Run until `deadline`; record into `win` when given.
    fn drive(
        &mut self,
        c: &mut Client,
        mut wire: Option<&mut Wire>,
        deadline: Instant,
        mut win: Option<&mut Window>,
    ) {
        if let Some(w) = win.as_deref_mut() {
            w.start = Some(Instant::now());
        }
        while Instant::now() < deadline {
            let op = self.next_op();
            let mut rec = OpTrace::default();
            let Some((class, lat, bytes)) = self.step(c, &mut wire, op, &mut rec) else {
                continue;
            };
            if let Some(w) = win.as_deref_mut() {
                w.lat[class.index()].push(lat);
                w.ops += 1;
                match class {
                    Class::Write => w.write_bytes += bytes,
                    Class::Read => w.read_bytes += bytes,
                    Class::Meta => {}
                }
                if wire.is_some() {
                    rec.class = class;
                    w.traces.push(rec);
                }
            }
        }
        if let Some(w) = win {
            w.end = Some(Instant::now());
        }
    }
}

/// The measured rounds of one epoch.
pub struct Plan<'a> {
    /// One entry per round, in order: whether it runs traced.
    pub rounds: &'a [bool],
    pub round: Duration,
    /// Meets the main thread around every round, so it can sample the
    /// daemon at the edges and calibrate the bound between rounds
    /// while the clients wait.
    pub barrier: &'a Barrier,
}

/// Open one client's connections: the library client, plus the raw
/// wire connection when the epoch has traced rounds.
pub fn connect(
    addr: &str,
    client: usize,
    traced: bool,
    origin: Instant,
) -> Result<(Client, Option<Wire>), String> {
    let dial = || TcpConn::connect(addr).map_err(|e| format!("connect {addr}: {e}"));
    let c = Client::with_id(Box::new(dial()?), client as u32);
    let wire = match traced {
        true => Some(Wire {
            conn: dial()?,
            client_id: client as u32,
            seq: 0,
            origin,
        }),
        false => None,
    };
    Ok((c, wire))
}

/// One epoch of one client against one daemon: warm up, then run the
/// rounds, meeting the main thread around each. A round runs through
/// the library client or, when traced, the wire loop; the descriptors
/// of one are closed before the other takes over, and at the end.
pub fn client_thread(
    plan: &Plan<'_>,
    st: &mut ClientState<'_>,
    mut c: Client,
    mut wire: Option<Wire>,
) {
    st.drive(&mut c, None, Instant::now() + WARMUP, None);
    plan.barrier.wait();
    for (i, &traced) in plan.rounds.iter().enumerate() {
        plan.barrier.wait();
        let mut win = Window::default();
        let w = wire.as_mut().filter(|_| traced);
        st.drive(&mut c, w, Instant::now() + plan.round, Some(&mut win));
        st.run.windows.push(win);
        if plan.rounds.get(i + 1) != Some(&traced) {
            st.close_open(&mut c, wire.as_mut().filter(|_| traced));
        }
        plan.barrier.wait();
    }
    plan.barrier.wait();
    if let Some(w) = wire {
        w.conn.close();
    }
    let _ = c.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{pool, Kind};

    #[test]
    fn verifier_catches_one_flipped_byte_in_a_read() {
        let spec = Kind::SmallOps.spec();
        let pool = pool(&spec, 11);
        let mut st = ClientState::new(spec, 11, 0, &pool);
        let write = Op::Pwrite {
            file: 2,
            extent: 5,
            entry: 3,
        };
        let read = Op::Pread { file: 2, extent: 5 };
        assert_eq!(st.record(write, Outcome::Done), Some(spec.op_size as u64));

        let good = pool[3].to_vec();
        assert_eq!(st.record(read, Outcome::Read(good.clone())), Some(4096));
        assert_eq!(st.run.mismatched, 0);

        let mut bad = good.clone();
        bad[1234] ^= 0x20;
        assert_eq!(st.record(read, Outcome::Read(bad)), None);
        assert_eq!(st.run.mismatched, 1);
        // A short read of a written slot is a mismatch too; one past
        // the end of the file is right only for a slot never written.
        assert_eq!(st.record(read, Outcome::Read(good[..100].to_vec())), None);
        assert_eq!(st.run.mismatched, 2);
        let unwritten = Op::Pread { file: 2, extent: 9 };
        assert_eq!(st.record(unwritten, Outcome::Read(Vec::new())), Some(0));
        assert_eq!(st.run.mismatched, 2);
        assert_eq!(st.run.attempted, 5);
    }
}
