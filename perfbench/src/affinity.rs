//! CPU placement. On BG/P the compute nodes and the I/O node have their
//! own cores; here the benchmark's client side runs on one core and the
//! daemon (and everything that stands in for it: the bound's far side,
//! the layer micro-measurements) on another, so the two sides never
//! trade places on a core between runs.

use std::io;

/// Linux's `cpu_set_t`: 1024 bits.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
}

/// Which core each side runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Compute-node side: the generator threads and the run's control.
    pub client: usize,
    /// I/O-node side: the daemon.
    pub ion: usize,
}

impl Placement {
    /// The first two cores this process may run on, or `None` with
    /// fewer than two (everything then shares the one core).
    pub fn detect() -> Option<Placement> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            return None;
        }
        let mut cpus = (0..1024).filter(|c| set.0[c / 64] & (1 << (c % 64)) != 0);
        Some(Placement {
            client: cpus.next()?,
            ion: cpus.next()?,
        })
    }
}

/// Restrict the calling thread (and the threads and processes it
/// starts later) to `cpu`.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live, initialised buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Pin the calling thread when a placement exists; a failure leaves the
/// thread where the scheduler put it, which only costs steadiness.
pub fn pin(cpu: Option<usize>) {
    if let Some(cpu) = cpu {
        let _ = pin_current_thread(cpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_a_thread_to_an_allowed_cpu_succeeds() {
        if let Some(p) = Placement::detect() {
            assert_ne!(p.client, p.ion);
            std::thread::spawn(move || pin_current_thread(p.ion).expect("pin"))
                .join()
                .expect("thread");
        }
    }
}
