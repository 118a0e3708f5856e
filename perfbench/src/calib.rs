//! Machine-speed calibration for the end-to-end times.
//!
//! On a shared host the caches and memory bus are shared with other
//! tenants. Their load moves the wall time of one reproduction by a
//! quarter or more within minutes, while a pure ALU loop keeps its time
//! to a few percent: the clock holds, the memory system does not. A
//! fixed memory-bound [`Kernel`], timed around each measured step,
//! slows by the same share as the step. Every end-to-end time is
//! therefore reported at the kernel's nominal speed (see [`Step`]).
//! A change to the program moves the step and not the kernel, so it
//! moves the reported time by the same share as the wall time.

use std::hint::black_box;
use std::time::Instant;

/// About the kernel's time on a quiet 2-vCPU 2.1 GHz Xeon VM. A fixed
/// constant, so that calibrated times read as seconds on that machine.
pub const NOMINAL_S: f64 = 0.0135;

/// `u64` keys the kernel sorts and chases: 4 MiB, well past the
/// per-core caches, so the kernel leans on the shared ones.
const KEYS: usize = 1 << 19;

/// Dependent loads of the pointer chase through the sorted keys.
const CHASE: usize = 200_000;

/// The calibration kernel: fill, sort, then a dependent pointer chase
/// over the same buffer. The work is a pure function of the constants
/// above and belongs to the benchmark, not the program under test.
pub struct Kernel {
    keys: Vec<u64>,
    /// Wall time of the latest kernel run, seconds.
    last: f64,
}

/// One measured step. The host's load can change from one step to the
/// next, so the kernel time it is calibrated against is the mean of
/// the kernel runs right before and right after it.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Wall time of the step, seconds.
    pub wall: f64,
    /// Mean wall time of the kernel runs around it, seconds.
    pub kernel: f64,
}

impl Step {
    /// The step's time at the kernel's nominal speed, seconds:
    /// `wall × NOMINAL_S / kernel`.
    pub fn calibrated(&self) -> f64 {
        self.wall * NOMINAL_S / self.kernel
    }
}

impl Kernel {
    /// Builds the kernel and runs it twice: the first run also pays
    /// the page faults of its buffer.
    pub fn new() -> Kernel {
        let mut kernel = Kernel {
            keys: vec![0; KEYS],
            last: 0.0,
        };
        kernel.time();
        kernel.last = kernel.time();
        kernel
    }

    /// Runs the kernel once and returns its wall time in seconds.
    fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        for (i, key) in self.keys.iter_mut().enumerate() {
            *key = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7;
        }
        self.keys.sort_unstable();
        let (mut at, mut acc) = (0usize, 0u64);
        for _ in 0..CHASE {
            acc = acc.wrapping_add(self.keys[at]);
            at = (self.keys[at] as usize ^ at.wrapping_mul(31)) & (KEYS - 1);
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    }

    /// Times `step`, then the kernel; returns the step's result and
    /// its [`Step`].
    pub fn measure<T>(&mut self, step: impl FnOnce() -> T) -> (T, Step) {
        let before = self.last;
        let t0 = Instant::now();
        let out = step();
        let wall = t0.elapsed().as_secs_f64();
        self.last = self.time();
        let kernel = (before + self.last) / 2.0;
        (out, Step { wall, kernel })
    }
}
