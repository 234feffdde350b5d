//! The three traffic mixes, their seeded op streams, the payload pool
//! and the per-client shadow image that every read is checked against.
//!
//! Everything here is a pure function of `(workload, seed, client)`:
//! the daemon sees only the requests generated from it.

use bytes::Bytes;

/// Closed-loop clients per run (one per generator thread).
pub const CLIENTS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    BulkRw,
    SmallOps,
    Checkpoint,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::BulkRw, Kind::SmallOps, Kind::Checkpoint];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::BulkRw => "bulk_rw",
            Kind::SmallOps => "small_ops",
            Kind::Checkpoint => "checkpoint",
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            // 1 MiB is the paper's message size. 16 files x 4 MiB per
            // client is twice the daemon's 32 MiB staging budget.
            Kind::BulkRw => Spec {
                kind: self,
                op_size: 1 << 20,
                files: 16,
                extents: 4,
                pool: 23,
                bml_mib: 32,
                throttle: None,
            },
            // 4 KiB slots, 256 per file; per-op cost dominates.
            Kind::SmallOps => Spec {
                kind: self,
                op_size: 4 << 10,
                files: 4,
                extents: 256,
                pool: 61,
                bml_mib: 32,
                throttle: None,
            },
            // 3 to 5 MiB checkpoint files of 64 KiB writes against the
            // device model: 500 us per op, 256 MiB/s shared, so that
            // coalescing staged writes into one device op pays off. A
            // file is about 20 ms of device time, several times what a
            // client takes to stage it, so the device stays busy across
            // the other client's fsync barrier.
            Kind::Checkpoint => Spec {
                kind: self,
                op_size: 64 << 10,
                files: 4,
                extents: 80,
                pool: 31,
                bml_mib: 32,
                throttle: Some((500, 256)),
            },
        }
    }
}

/// Shape of one workload: op size, file set and daemon knobs.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub op_size: usize,
    /// Files per client.
    pub files: usize,
    /// Op-size extents per file (checkpoint: the most one holds).
    pub extents: usize,
    /// Distinct payloads in the pool.
    pub pool: usize,
    /// The daemon's staging budget (`--bml-mib`).
    pub bml_mib: u64,
    /// Device model `(per-op us, MiB/s)` (`--throttle`).
    pub throttle: Option<(u64, u64)>,
}

/// The class an op's latency is reported under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Write,
    Read,
    Meta,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Write, Class::Read, Class::Meta];

    pub fn name(self) -> &'static str {
        match self {
            Class::Write => "write",
            Class::Read => "read",
            Class::Meta => "meta",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Open {
        file: usize,
        truncate: bool,
    },
    Pwrite {
        file: usize,
        extent: usize,
        entry: usize,
    },
    Pread {
        file: usize,
        extent: usize,
    },
    Stat {
        file: usize,
    },
    Fsync {
        file: usize,
    },
    Close {
        file: usize,
    },
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Pwrite { .. } => Class::Write,
            Op::Pread { .. } => Class::Read,
            _ => Class::Meta,
        }
    }
}

/// Path of a client's file under the daemon root.
pub fn path(client: usize, file: usize) -> String {
    format!("/c{client}-f{file}.dat")
}

/// splitmix64: small, seedable, and the same on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Slot step between consecutive small_ops writes (coprime with the
/// 256 slots of a file, so a file fills in a strided order).
const STRIDE: usize = 7;
/// Data ops per small_ops cycle; a stat sits in the middle.
const SMALL_DATA_OPS: usize = 12;

/// Leading extents of a checkpoint file read back after its fsync.
const CHECKPOINT_HEADER: usize = 4;

/// One client's deterministic op stream, produced a file visit (a
/// cycle) at a time.
pub struct OpStream {
    spec: Spec,
    rng: Rng,
    next_file: usize,
    /// small_ops: slots written so far, per file, for read targets.
    written: Vec<Vec<usize>>,
    /// small_ops: slots the current cycle adds to `written`.
    fresh: Vec<(usize, usize)>,
}

impl OpStream {
    pub fn new(spec: Spec, seed: u64, client: usize) -> OpStream {
        OpStream {
            spec,
            rng: Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)),
            next_file: client % spec.files,
            written: vec![Vec::new(); spec.files],
            fresh: Vec::new(),
        }
    }

    /// The rest of the current cycle, `dropped`, will not be sent:
    /// forget the slots only its writes would have filled, so later
    /// cycles read only what was written.
    pub fn forget(&mut self, dropped: &[Op]) {
        for op in dropped {
            if let Op::Pwrite { file, extent, .. } = *op {
                if let Some(i) = self.fresh.iter().position(|&f| f == (file, extent)) {
                    self.fresh.swap_remove(i);
                    self.written[file].retain(|&e| e != extent);
                }
            }
        }
    }

    pub fn next_cycle(&mut self) -> Vec<Op> {
        let file = self.next_file;
        self.next_file = (self.next_file + 1) % self.spec.files;
        let s = self.spec;
        let mut ops = Vec::new();
        self.fresh.clear();
        match s.kind {
            Kind::BulkRw => {
                ops.push(Op::Open {
                    file,
                    truncate: false,
                });
                for extent in self.rng.permutation(s.extents) {
                    let entry = self.rng.below(s.pool);
                    ops.push(Op::Pwrite {
                        file,
                        extent,
                        entry,
                    });
                }
                // Make the extents durable before reading them back.
                // Open and close are quick hand-offs while fsync waits
                // for the staged writes, so the meta p50 sits among the
                // quick two rather than between one quick and one slow.
                ops.push(Op::Fsync { file });
                for extent in self.rng.permutation(s.extents) {
                    ops.push(Op::Pread { file, extent });
                }
                ops.push(Op::Close { file });
            }
            Kind::SmallOps => {
                ops.push(Op::Open {
                    file,
                    truncate: false,
                });
                let start = self.rng.below(s.extents);
                for k in 0..SMALL_DATA_OPS {
                    if k % 2 == 0 {
                        let extent = (start + k / 2 * STRIDE) % s.extents;
                        let entry = self.rng.below(s.pool);
                        if !self.written[file].contains(&extent) {
                            self.written[file].push(extent);
                            self.fresh.push((file, extent));
                        }
                        ops.push(Op::Pwrite {
                            file,
                            extent,
                            entry,
                        });
                    } else {
                        let slots = &self.written[file];
                        let extent = slots[self.rng.below(slots.len())];
                        ops.push(Op::Pread { file, extent });
                    }
                    if k + 1 == SMALL_DATA_OPS / 2 {
                        ops.push(Op::Stat { file });
                    }
                }
                ops.push(Op::Fsync { file });
                ops.push(Op::Close { file });
            }
            Kind::Checkpoint => {
                ops.push(Op::Open {
                    file,
                    truncate: true,
                });
                // Files of 3/5 to all of `extents` extents: the two
                // clients' cycles differ in length from file to file,
                // so their fsync barriers drift through every relative
                // phase instead of settling into one.
                let len = s.extents * 3 / 5 + self.rng.below(s.extents * 2 / 5 + 1);
                for extent in 0..len {
                    let entry = self.rng.below(s.pool);
                    ops.push(Op::Pwrite {
                        file,
                        extent,
                        entry,
                    });
                }
                ops.push(Op::Fsync { file });
                // Check the header blocks once the barrier returns,
                // before the checkpoint counts as committed.
                for extent in 0..CHECKPOINT_HEADER {
                    ops.push(Op::Pread { file, extent });
                }
                ops.push(Op::Close { file });
            }
        }
        ops
    }
}

/// The seeded payload pool, built before any timed window.
pub fn pool(spec: &Spec, seed: u64) -> Vec<Bytes> {
    (0..spec.pool)
        .map(|i| {
            let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(i as u64 + 1));
            let mut v = Vec::with_capacity(spec.op_size);
            while v.len() < spec.op_size {
                v.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            v.truncate(spec.op_size);
            Bytes::from(v)
        })
        .collect()
}

/// What one client believes each of its extents holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    Unwritten,
    /// The last acknowledged write carried this pool entry.
    Entry(usize),
    /// A write to it failed; its content is not defined.
    Unknown,
}

/// Per-client shadow image: extent -> pool entry.
pub struct Shadow {
    op_size: usize,
    files: Vec<Vec<Slot>>,
}

impl Shadow {
    pub fn new(spec: &Spec) -> Shadow {
        Shadow {
            op_size: spec.op_size,
            files: vec![vec![Slot::Unwritten; spec.extents]; spec.files],
        }
    }

    pub fn truncate(&mut self, file: usize) {
        self.files[file].fill(Slot::Unwritten);
    }

    pub fn set(&mut self, file: usize, extent: usize, slot: Slot) {
        self.files[file][extent] = slot;
    }

    pub fn get(&self, file: usize, extent: usize) -> Slot {
        self.files[file][extent]
    }

    pub fn files(&self) -> usize {
        self.files.len()
    }

    /// Length the file must have: the end of its last written extent.
    pub fn expected_len(&self, file: usize) -> u64 {
        self.files[file]
            .iter()
            .rposition(|s| *s != Slot::Unwritten)
            .map_or(0, |e| ((e + 1) * self.op_size) as u64)
    }

    /// Mismatches between a final file image and the shadow: one per
    /// differing extent, plus one for a wrong length.
    pub fn check_file(&self, file: usize, image: &[u8], pool: &[Bytes]) -> u64 {
        let mut bad = u64::from(image.len() as u64 != self.expected_len(file));
        for (extent, slot) in self.files[file].iter().enumerate() {
            let at = extent * self.op_size;
            let got = image.get(at..(at + self.op_size).min(image.len()));
            bad += u64::from(!matches_slot(*slot, got.unwrap_or(&[]), pool, self.op_size));
        }
        bad
    }
}

/// Does `got` hold what the slot says? Unwritten extents inside the
/// file are holes and read back as zeros; unknown ones match anything.
pub fn matches_slot(slot: Slot, got: &[u8], pool: &[Bytes], op_size: usize) -> bool {
    match slot {
        Slot::Entry(e) => got == &pool[e][..],
        Slot::Unwritten => got.is_empty() || (got.len() == op_size && got.iter().all(|b| *b == 0)),
        Slot::Unknown => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_op_stream() {
        for kind in Kind::ALL {
            let spec = kind.spec();
            for client in 0..CLIENTS {
                let mut a = OpStream::new(spec, 42, client);
                let mut b = OpStream::new(spec, 42, client);
                for _ in 0..50 {
                    assert_eq!(a.next_cycle(), b.next_cycle());
                }
            }
            assert_eq!(pool(&spec, 42), pool(&spec, 42));
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let spec = Kind::BulkRw.spec();
        let mut a = OpStream::new(spec, 1, 0);
        let mut b = OpStream::new(spec, 2, 0);
        assert_ne!(a.next_cycle(), b.next_cycle());
        assert_ne!(pool(&spec, 1), pool(&spec, 2));
    }

    #[test]
    fn reads_target_only_written_extents() {
        for kind in Kind::ALL {
            let spec = kind.spec();
            let mut s = OpStream::new(spec, 7, 1);
            let mut written = vec![vec![false; spec.extents]; spec.files];
            for _ in 0..200 {
                for op in s.next_cycle() {
                    match op {
                        Op::Open {
                            file,
                            truncate: true,
                        } => written[file].fill(false),
                        Op::Pwrite { file, extent, .. } => written[file][extent] = true,
                        Op::Pread { file, extent } => assert!(written[file][extent]),
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn a_truncated_cycle_leaves_no_reads_of_its_unsent_writes() {
        let spec = Kind::SmallOps.spec();
        for cut in 0..12 {
            let mut s = OpStream::new(spec, 9, 0);
            let mut written = vec![vec![false; spec.extents]; spec.files];
            for cycle in 0..100 {
                let ops = s.next_cycle();
                // Every third cycle stops after `cut` ops, as a phase
                // end does, and the stream is told what was dropped.
                let sent = if cycle % 3 == 1 {
                    cut.min(ops.len())
                } else {
                    ops.len()
                };
                for op in &ops[..sent] {
                    match *op {
                        Op::Pwrite { file, extent, .. } => written[file][extent] = true,
                        Op::Pread { file, extent } => {
                            assert!(written[file][extent], "cut {cut}: read of unsent write")
                        }
                        _ => {}
                    }
                }
                s.forget(&ops[sent..]);
            }
        }
    }

    #[test]
    fn verifier_catches_one_flipped_byte_in_a_final_file() {
        let spec = Kind::Checkpoint.spec();
        let pool = pool(&spec, 3);
        let mut shadow = Shadow::new(&spec);
        let mut image = Vec::new();
        for extent in 0..4 {
            shadow.set(1, extent, Slot::Entry(extent * 2));
            image.extend_from_slice(&pool[extent * 2]);
        }
        assert_eq!(shadow.check_file(1, &image, &pool), 0);
        image[2 * spec.op_size + 17] ^= 0x01;
        assert_eq!(shadow.check_file(1, &image, &pool), 1);
        image[2 * spec.op_size + 17] ^= 0x01;
        image.pop();
        assert!(shadow.check_file(1, &image, &pool) >= 1, "short file");
    }

    #[test]
    fn holes_must_read_back_as_zeros() {
        let spec = Kind::SmallOps.spec();
        let pool = pool(&spec, 5);
        let mut shadow = Shadow::new(&spec);
        shadow.set(0, 2, Slot::Entry(0));
        let mut image = vec![0u8; 3 * spec.op_size];
        image[2 * spec.op_size..].copy_from_slice(&pool[0]);
        assert_eq!(shadow.check_file(0, &image, &pool), 0);
        image[5] = 1;
        assert_eq!(shadow.check_file(0, &image, &pool), 1);
    }
}
