//! The host-speed reference that throughput and CPU cost are normalised by.
//!
//! A shared virtual machine does not run at one speed. For minutes at a
//! time the same daemon, on the same inputs, accepts a third fewer jobs
//! per second and burns a third more CPU per job — neighbours on the
//! physical core and its caches, nothing the checkout did. A fixed
//! arithmetic loop does not see these episodes (it reads the same to 2 %
//! throughout); code that touches memory and branches on data does, and in
//! proportion: over a hundred runs the logarithm of a window's throughput
//! fell 0.8–1.1 for every unit the logarithm of the scan kernel below rose,
//! and 0.6–0.85 for the copy kernel (correlation −0.7 to −0.86 on every
//! workload).
//!
//! So an idle-priority thread on the daemon's own processor times two small
//! kernels, frozen here and independent of the program's crates, in short
//! gaps around every `saturate` window, when the daemon has nothing to do.
//! A window's *reading* is the geometric mean of the two kernels' median
//! durations over the gap before and the gap after it, and the window's
//! throughput and CPU per job are reported as they would have been on a
//! host whose reading is [`NOMINAL_NS`]. Between runs of one commit that
//! took the spread of the median window from 18–20 % to 6–7 % in the study
//! that chose the kernels, and to 3–9 % in the two sets of ten runs per
//! workload made afterwards (README, "What the bounds rest on").
//!
//! Outside the gaps the thread keeps running the kernels without recording
//! them: that is what keeps the processor from halting (see
//! `affinity::keep_awake`).

use crate::affinity;
use crate::stats;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The reading of the host the normalised metrics are expressed for,
/// nanoseconds: what the host the benchmark was calibrated on reads when
/// it is quiet (the lowest tenth of 400 window readings was 17.4–17.9 µs),
/// so that on a quiet host normalised and raw numbers coincide.
pub const NOMINAL_NS: f64 = 18_000.0;

/// Bytes the scan kernel reads per call, out of [`SCAN_BUFFER`].
const SCAN_SLICE: usize = 16 * 1024;
/// The scan kernel's input: larger than L1, well inside L2.
const SCAN_BUFFER: usize = 256 * 1024;
/// Bytes the copy kernel moves per call, inside [`COPY_BUFFER`].
const COPY_SLICE: usize = 256 * 1024;
/// Source and destination of the copy kernel: together they fit in L2,
/// beside the daemon's working set or not as the neighbours allow.
const COPY_BUFFER: usize = 5 * COPY_SLICE;

/// The kernels' working memory.
struct Kernels {
    text: Vec<u8>,
    table: [u32; 4096],
    scan_at: usize,
    src: Vec<u8>,
    dst: Vec<u8>,
    copy_at: usize,
}

impl Kernels {
    fn new() -> Kernels {
        // Pseudo-random bytes: the scan's branches must not be predictable.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let text = (0..SCAN_BUFFER)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect();
        Kernels {
            text,
            table: [0; 4096],
            scan_at: 0,
            src: vec![1; COPY_BUFFER],
            dst: vec![0; COPY_BUFFER],
            copy_at: 0,
        }
    }

    /// A tokeniser-shaped pass over the next slice of the text:
    /// data-dependent branches, a running hash, scattered table updates.
    fn scan(&mut self) {
        let slice = &self.text[self.scan_at..self.scan_at + SCAN_SLICE];
        self.scan_at = (self.scan_at + SCAN_SLICE) % SCAN_BUFFER;
        let (mut hash, mut digits) = (0u32, 0u32);
        for &b in slice {
            if b.is_ascii_digit() {
                digits += 1;
            } else if b == b'"' || b == b',' {
                hash = hash.rotate_left(5) ^ digits;
                self.table[(hash & 4095) as usize] += 1;
            } else {
                hash = hash.wrapping_mul(31).wrapping_add(u32::from(b));
            }
        }
        black_box((hash, digits));
    }

    /// Copies the next slice of the source buffer.
    fn copy(&mut self) {
        let at = self.copy_at;
        self.copy_at = (at + COPY_SLICE) % COPY_BUFFER;
        self.dst[at..at + COPY_SLICE].copy_from_slice(&self.src[at..at + COPY_SLICE]);
        black_box(&self.dst);
    }
}

/// Kernel durations recorded during one gap, nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Gap {
    scan_ns: Vec<u64>,
    copy_ns: Vec<u64>,
}

/// The reading over two gaps, nanoseconds: the geometric mean of the scan
/// kernel's and the copy kernel's median duration. `None` when either
/// kernel was never timed.
pub fn reading(before: &Gap, after: &Gap) -> Option<f64> {
    let median_of = |a: &[u64], b: &[u64]| {
        let mut pooled = [a, b].concat();
        (!pooled.is_empty()).then(|| stats::percentile(&mut pooled, 0.5) as f64)
    };
    let scan = median_of(&before.scan_ns, &after.scan_ns)?;
    let copy = median_of(&before.copy_ns, &after.copy_ns)?;
    Some((scan * copy).sqrt())
}

/// The reference thread; stopped and joined on drop.
pub struct Reference {
    stop: Arc<AtomicBool>,
    recording: Arc<AtomicBool>,
    gap: Arc<Mutex<Gap>>,
    thread: Option<JoinHandle<()>>,
}

/// Starts the reference thread at idle priority on `cpu` (unpinned with
/// `None`: a host with one processor, which the thread then only gets
/// while generator and daemon both sleep).
pub fn start(cpu: Option<usize>) -> Reference {
    let stop = Arc::new(AtomicBool::new(false));
    let recording = Arc::new(AtomicBool::new(false));
    let gap = Arc::new(Mutex::new(Gap::default()));
    let thread = {
        let (stop, recording, gap) = (Arc::clone(&stop), Arc::clone(&recording), Arc::clone(&gap));
        std::thread::spawn(move || {
            let idle = affinity::enter_idle_class(cpu);
            let mut kernels = Kernels::new();
            // Relaxed throughout: the flags publish nothing but themselves;
            // the samples travel under the mutex.
            while !stop.load(Ordering::Relaxed) {
                let record = recording.load(Ordering::Relaxed);
                if !idle && !record {
                    // Without idle priority the thread would take cycles
                    // from the daemon: run in the gaps only.
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                let t0 = Instant::now();
                kernels.scan();
                let t1 = Instant::now();
                kernels.copy();
                let t2 = Instant::now();
                if record {
                    let mut gap = gap.lock().expect("no holder of the gap lock panics");
                    gap.scan_ns.push((t1 - t0).as_nanos() as u64);
                    gap.copy_ns.push((t2 - t1).as_nanos() as u64);
                }
            }
        })
    };
    Reference {
        stop,
        recording,
        gap,
        thread: Some(thread),
    }
}

impl Reference {
    /// Records the kernels while `idle` runs — the caller's way of
    /// spending a gap without giving the daemon work — and returns what
    /// was recorded.
    pub fn during<E>(&self, idle: impl FnOnce() -> Result<(), E>) -> Result<Gap, E> {
        self.recording.store(true, Ordering::Relaxed);
        let outcome = idle();
        self.recording.store(false, Ordering::Relaxed);
        let gap = std::mem::take(&mut *self.gap.lock().expect("no holder of the gap lock panics"));
        outcome.map(|()| gap)
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // The thread has nothing to report.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_is_the_geometric_mean_of_the_pooled_medians() {
        let before = Gap {
            scan_ns: vec![10, 30, 1_000],
            copy_ns: vec![4],
        };
        let after = Gap {
            scan_ns: vec![20, 40],
            copy_ns: vec![16, 16],
        };
        // scan pooled: 10 20 30 40 1000 → 30; copy pooled: 4 16 16 → 16.
        let r = reading(&before, &after).unwrap();
        assert!((r - (30.0f64 * 16.0).sqrt()).abs() < 1e-9);
        assert!(reading(&Gap::default(), &Gap::default()).is_none());
        assert!(reading(&before, &Gap::default()).is_some());
    }

    #[test]
    fn the_thread_records_only_inside_a_gap() {
        let reference = start(None);
        std::thread::sleep(Duration::from_millis(20));
        let gap = reference
            .during(|| {
                std::thread::sleep(Duration::from_millis(100));
                Ok::<(), ()>(())
            })
            .unwrap();
        assert!(!gap.scan_ns.is_empty(), "nothing recorded in 100 ms");
        assert_eq!(gap.scan_ns.len(), gap.copy_ns.len());
        assert!(reading(&gap, &gap).unwrap() > 0.0);
        // What ran before the gap was not recorded, and a failed idle
        // still stops the recording.
        assert_eq!(reference.during(|| Err::<(), u8>(7)).unwrap_err(), 7);
        let empty = reference.during(|| Ok::<(), ()>(())).unwrap();
        assert!(empty.scan_ns.len() <= 1);
    }

    #[test]
    fn kernels_walk_their_buffers_without_leaving_them() {
        let mut k = Kernels::new();
        for _ in 0..200 {
            k.scan();
            k.copy();
        }
        assert!(k.scan_at + SCAN_SLICE <= SCAN_BUFFER);
        assert!(k.copy_at + COPY_SLICE <= COPY_BUFFER);
        assert!(k.table.iter().any(|&n| n > 0));
        assert_eq!(k.dst[0], 1);
    }
}
