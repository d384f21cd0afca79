//! CPU placement: the generator thread gets a processor of its own, the
//! daemon gets the others, and the daemon's processors are kept awake.
//!
//! On a small host the generator and the daemon's threads otherwise
//! migrate across the same processors, and whether the generator shares
//! one with a scheduling round decides its lateness and the daemon's
//! throughput from run to run. With the split, the daemon's numbers are
//! the daemon's: the generator can never take cycles from it.
//!
//! On a virtual machine an idle processor halts, and waking it costs a
//! trip through the hypervisor whose length is the host's business, not
//! the daemon's: with a daemon that sleeps between frames, submit latency
//! and CPU per job followed the host's mood (batch-sufferage-b1024 read
//! 16.4k jobs/s and a 486 µs median RTT with halting, 20.5–21.2k and
//! 151–158 µs without). The daemon's first processor therefore carries
//! the idle-priority reference thread (`reference.rs`) and [`keep_awake`]
//! parks an idle-priority spinner on each of the others: they run only
//! when nothing else wants the processor, and anything else preempts them
//! at once.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Words of the kernel CPU mask this module handles (1024 processors).
const MASK_WORDS: usize = 16;

/// Linux `SCHED_IDLE`: below every nice level.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// The processors this thread may run on, ascending.
pub fn allowed() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 means the calling thread. The kernel writes at most
    // that many bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restricts the calling thread (and every process it spawns from now
/// on) to `cpus`.
pub fn pin(cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu >= MASK_WORDS * 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cpu out of range",
            ));
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 means the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// How the allowed processors are split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// The generator's processor.
    pub generator: Vec<usize>,
    /// The daemon's processors.
    pub daemon: Vec<usize>,
}

/// Processors the daemon gets at most: one I/O thread, the router and two
/// shards (four for half of `mixed-control-c16`) never run more at once,
/// and each one it gets carries a spinner.
const DAEMON_CPUS_MAX: usize = 4;

/// Splits `allowed`: the lowest-numbered processor for the generator,
/// the next [`DAEMON_CPUS_MAX`] at most for the daemon. `None` with fewer
/// than two processors — then nothing is pinned and both share the one
/// there is.
pub fn split(allowed: &[usize]) -> Option<Split> {
    let (first, rest) = allowed.split_first()?;
    if rest.is_empty() {
        return None;
    }
    Some(Split {
        generator: vec![*first],
        daemon: rest.iter().copied().take(DAEMON_CPUS_MAX).collect(),
    })
}

/// Moves the calling thread to idle priority — it then runs only when
/// nothing else wants the processor, and anything else preempts it at once
/// — and, with `Some`, onto `cpu`. `false` if either was refused.
pub fn enter_idle_class(cpu: Option<usize>) -> bool {
    let param = 0i32; // `sched_param.sched_priority`, 0 for SCHED_IDLE
                      // SAFETY: `param` is a live `sched_param` (one int) that is only read;
                      // pid 0 means the calling thread.
    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
    idle && cpu.is_none_or(|cpu| pin(&[cpu]).is_ok())
}

/// Idle-priority spinners keeping processors out of the halted state;
/// stopped and joined on drop.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// Starts one spinner on each of `cpus`. A spinner that cannot pin itself
/// or drop to idle priority exits at once rather than compete with the
/// daemon.
pub fn keep_awake(cpus: &[usize]) -> KeepAwake {
    let stop = Arc::new(AtomicBool::new(false));
    let threads = cpus
        .iter()
        .map(|&cpu| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                if !enter_idle_class(Some(cpu)) {
                    return;
                }
                // Relaxed: the flag publishes nothing but itself.
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();
    KeepAwake { stop, threads }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A spinner has nothing to panic about; nothing to report.
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_gives_the_generator_the_first_processor() {
        assert_eq!(
            split(&[0, 1, 2, 5]),
            Some(Split {
                generator: vec![0],
                daemon: vec![1, 2, 5]
            })
        );
        let many: Vec<usize> = (0..64).collect();
        assert_eq!(split(&many).unwrap().daemon, [1, 2, 3, 4]);
        assert_eq!(split(&[3]), None);
        assert_eq!(split(&[]), None);
    }

    #[test]
    fn pinning_narrows_and_restores_the_mask() {
        let before = allowed().unwrap();
        assert!(!before.is_empty());
        pin(&before[..1]).unwrap();
        assert_eq!(allowed().unwrap(), before[..1]);
        pin(&before).unwrap();
        assert_eq!(allowed().unwrap(), before);
        assert!(pin(&[MASK_WORDS * 64]).is_err());
    }

    #[test]
    fn spinners_stop_when_dropped() {
        let cpus = allowed().unwrap();
        let awake = keep_awake(&cpus[..1]);
        assert_eq!(awake.threads.len(), 1);
        drop(awake); // joins: would hang here if the spinner ignored the flag
        assert_eq!(
            allowed().unwrap(),
            cpus,
            "the caller's own mask is untouched"
        );
    }
}
