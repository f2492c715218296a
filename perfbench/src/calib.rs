//! Host-speed calibration.
//!
//! The host this benchmark runs on is shared, and its speed drifts by
//! tens of percent over seconds to minutes. A fixed calibration kernel,
//! timed between the calls a unit of work makes, tracks that drift: host
//! times are reported scaled to the speed at which the kernel takes
//! [`NOMINAL_SECS`], so a slow spell of the machine cancels out while a
//! slower program does not. The kernel is self-contained — it calls no
//! amada code — so no change to the program under test can move it.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines nominal host speed: about what the kernel
/// takes on the 2-core host the workloads were sized on.
pub const NOMINAL_SECS: f64 = 0.005;
/// Words in the kernel's working set (4 MiB: past the per-core caches,
/// like the warehouse's working set).
const WORDS: usize = 1 << 19;
/// Dependent random reads per kernel run.
const READS: usize = 32_000;
/// Dependent multiply-xorshift steps per kernel run.
const STEPS: usize = 700_000;

/// The kernel's working set and the timings taken so far.
struct Calibrator {
    table: Vec<u64>,
    samples: Vec<f64>,
}

thread_local! {
    static CALIBRATOR: RefCell<Calibrator> = RefCell::new(Calibrator::new());
}

impl Calibrator {
    /// Allocates and fills the working set (xorshift values).
    fn new() -> Calibrator {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let table = (0..WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Calibrator {
            table,
            samples: Vec::new(),
        }
    }

    /// One kernel run: a chain of dependent random reads over the
    /// working set (memory latency), then a chain of dependent
    /// arithmetic steps (core speed).
    fn kernel(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut i = 0usize;
        for _ in 0..READS {
            let v = self.table[i];
            h = (h ^ v).wrapping_mul(0x100_0000_01b3);
            i = (v ^ h) as usize % WORDS;
        }
        for _ in 0..STEPS {
            h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
            h ^= h >> 29;
        }
        h
    }
}

/// Times one kernel run and keeps the sample.
pub fn tick() {
    CALIBRATOR.with(|c| {
        let mut c = c.borrow_mut();
        let t = Instant::now();
        black_box(c.kernel());
        let secs = t.elapsed().as_secs_f64();
        c.samples.push(secs);
    });
}

/// Samples taken so far; pass it to [`scale_since`] later.
pub fn mark() -> usize {
    CALIBRATOR.with(|c| c.borrow().samples.len())
}

/// The factor that scales host times measured since `mark` to nominal
/// host speed: nominal kernel time over the median of the samples taken
/// since (ticking once more if there are none).
pub fn scale_since(mark: usize) -> f64 {
    if CALIBRATOR.with(|c| c.borrow().samples.len()) <= mark {
        tick();
    }
    CALIBRATOR.with(|c| {
        let mut s = c.borrow().samples[mark..].to_vec();
        s.sort_by(f64::total_cmp);
        NOMINAL_SECS / s[s.len() / 2]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        CALIBRATOR.with(|c| {
            let c = c.borrow();
            assert_eq!(c.kernel(), c.kernel());
        });
    }

    #[test]
    fn scale_is_positive() {
        let m = mark();
        tick();
        let s = scale_since(m);
        assert!(s > 0.0 && s.is_finite());
    }
}
