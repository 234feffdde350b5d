//! The traced run's span records and the per-layer ledger that
//! reconciles them against client-observed latency.
//!
//! Each op keeps five client-side stamps (op start, after encode, after
//! send, after receive, after decode) and the daemon's echoed stage
//! durations. The spans of one op, all under the op's id:
//!
//! ```text
//! op                              t0 .. t4
//! ├─ client.encode                t0 .. t1
//! ├─ transport.send               t1 .. t2
//! ├─ transport.recv               t2 .. t3
//! ├─ server (echo, inside t1..t3): queue, dispatch, backend, reply, other
//! └─ client.decode                t3 .. t4
//! ```
//!
//! The echoed durations come from the daemon's clock, so they have no
//! start stamps here: they sit somewhere inside `t1 .. t3`. On a busy
//! host the daemon often starts on a request before the client's send
//! call has returned, so the server span overlaps both transport spans.
//! The ledger therefore sums encode, the server stages and decode, and
//! reports `(t3 - t1) - server total` as the time no layer claims: the
//! wire both ways, the socket calls and the wake-ups around them.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use iofwd_proto::StageEcho;

use crate::workload::Class;

#[derive(Clone, Copy, Debug)]
pub struct OpTrace {
    pub class: Class,
    /// ns since the run's origin: start, encoded, sent, received, decoded.
    pub t: [u64; 5],
    pub echo: StageEcho,
}

impl Default for OpTrace {
    fn default() -> Self {
        OpTrace {
            class: Class::Meta,
            t: [0; 5],
            echo: StageEcho::default(),
        }
    }
}

/// Ledger rows, in the order a request crosses the layers; every row
/// but the last sums to the last.
pub const ROWS: [&str; 9] = [
    "client.encode",
    "server.queue",
    "server.dispatch",
    "server.backend",
    "server.reply",
    "server.other",
    "client.decode",
    "unattributed",
    "op",
];

/// Summed ns per row over the ops added.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Ledger {
    pub ops: u64,
    pub rows: [u64; ROWS.len()],
    /// Sums of echoed server totals and of the two transport spans,
    /// which overlap the server's residency.
    pub server_ns: u64,
    pub send_ns: u64,
    pub recv_ns: u64,
}

impl Ledger {
    pub fn add(&mut self, op: &OpTrace) {
        let d = |a: usize, b: usize| op.t[b].saturating_sub(op.t[a]);
        let e = &op.echo;
        let server = e.total_ns;
        let parts = [
            d(0, 1),
            e.queue_ns,
            e.dispatch_ns,
            e.backend_ns,
            e.reply_ns,
            server.saturating_sub(e.stage_sum_ns()),
            d(3, 4),
            d(1, 3).saturating_sub(server),
            d(0, 4),
        ];
        for (acc, v) in self.rows.iter_mut().zip(parts) {
            *acc += v;
        }
        self.ops += 1;
        self.server_ns += server;
        self.send_ns += d(1, 2);
        self.recv_ns += d(2, 3);
    }

    pub fn row_ns(&self, name: &str) -> u64 {
        ROWS.iter()
            .position(|r| *r == name)
            .map_or(0, |i| self.rows[i])
    }

    /// Mean µs per op of a row.
    pub fn mean_us(&self, name: &str) -> f64 {
        self.row_ns(name) as f64 / self.ops.max(1) as f64 / 1e3
    }

    pub fn unattributed_share(&self) -> f64 {
        self.row_ns("unattributed") as f64 / self.row_ns("op").max(1) as f64
    }

    /// `sum(named parts) + unattributed - op`, in ns. Zero when every
    /// echoed server residency fits between send start and receive
    /// end; positive by the overhang otherwise.
    pub fn reconcile_error_ns(&self) -> i128 {
        let parts: u64 = self.rows[..ROWS.len() - 1].iter().sum();
        parts as i128 - self.row_ns("op") as i128
    }

    pub fn print(&self) {
        let op = self.row_ns("op").max(1) as f64;
        println!(
            "== ledger ({} traced ops; mean us/op, share of client latency)",
            self.ops
        );
        for name in ROWS {
            let ns = self.row_ns(name);
            println!(
                "  {:<18} {:>12.3} us {:>7.2}%",
                name,
                ns as f64 / self.ops.max(1) as f64 / 1e3,
                ns as f64 / op * 100.0
            );
        }
        let per_op = |ns: u64| ns as f64 / self.ops.max(1) as f64 / 1e3;
        println!(
            "  (overlapping the server: transport.send {:.3} us, transport.recv {:.3} us)",
            per_op(self.send_ns),
            per_op(self.recv_ns)
        );
        println!(
            "  reconcile error    {:>12} ns total",
            self.reconcile_error_ns()
        );
    }
}

/// Ops per client whose spans are written out; the ledger covers all.
pub const SPANS_WRITTEN_PER_CLIENT: usize = 20_000;

/// Write the traced ops' spans as JSON lines, one op per line, for the
/// first [`SPANS_WRITTEN_PER_CLIENT`] ops of each client.
pub fn write_spans(path: &Path, client_ops: &[(usize, &[OpTrace])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut line = String::new();
    for (client, ops) in client_ops {
        for (i, op) in ops.iter().take(SPANS_WRITTEN_PER_CLIENT).enumerate() {
            let t = op.t;
            let e = op.echo;
            line.clear();
            let _ = write!(
                line,
                "{{\"id\":\"c{client}-{i}\",\"class\":\"{}\",\"op\":[{},{}],\
                 \"client.encode\":[{},{}],\"transport.send\":[{},{}],\
                 \"transport.recv\":[{},{}],\"client.decode\":[{},{}],\
                 \"server\":{{\"parent\":\"op\",\"within\":[{},{}],\"total_ns\":{},\"queue_ns\":{},\
                 \"dispatch_ns\":{},\"backend_ns\":{},\"reply_ns\":{}}}}}",
                op.class.name(),
                t[0],
                t[4],
                t[0],
                t[1],
                t[1],
                t[2],
                t[2],
                t[3],
                t[3],
                t[4],
                t[1],
                t[3],
                e.total_ns,
                e.queue_ns,
                e.dispatch_ns,
                e.backend_ns,
                e.reply_ns
            );
            writeln!(out, "{line}")?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(t: [u64; 5], echo: StageEcho) -> OpTrace {
        OpTrace {
            class: Class::Write,
            t,
            echo,
        }
    }

    #[test]
    fn parts_sum_to_the_op_span_when_the_server_fits_in_send_and_recv() {
        let mut l = Ledger::default();
        let echo = StageEcho {
            queue_ns: 300,
            dispatch_ns: 50,
            backend_ns: 1000,
            reply_ns: 20,
            total_ns: 1500,
            ..StageEcho::default()
        };
        l.add(&op([1000, 1200, 1500, 4000, 4100], echo));
        l.add(&op([5000, 5100, 5300, 7000, 7050], echo));
        assert_eq!(l.reconcile_error_ns(), 0);
        assert_eq!(l.row_ns("op"), 3100 + 2050);
        // send+recv span 2800 and 1900 ns around 1500 ns of server time.
        assert_eq!(l.row_ns("unattributed"), 1300 + 400);
        assert_eq!(l.row_ns("server.other"), 2 * 130);
        assert_eq!((l.send_ns, l.recv_ns), (300 + 200, 2500 + 1700));
        let share = l.unattributed_share();
        assert!((share - 1700.0 / 5150.0).abs() < 1e-12);
    }

    #[test]
    fn an_overhanging_server_span_shows_as_reconcile_error() {
        let mut l = Ledger::default();
        let echo = StageEcho {
            backend_ns: 900,
            total_ns: 900,
            ..StageEcho::default()
        };
        // send+recv is only 600 ns: the server claims 300 ns more.
        l.add(&op([0, 100, 200, 700, 800], echo));
        assert_eq!(l.row_ns("unattributed"), 0);
        assert_eq!(l.reconcile_error_ns(), 300);
    }
}
