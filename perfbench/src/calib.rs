//! Host-speed calibration: a fixed kernel, owned by the benchmark and
//! timed between steps, that every time metric is normalised by.
//!
//! On a shared host the program's speed drifts by 20–50 % over minutes
//! as neighbours load the caches, the memory bus and the cores' siblings.
//! The kernel feels the same drift, and nothing a change to the program
//! does can move it, so a step's time divided by the kernel's time around
//! it is the step's cost in units of host speed. Multiplied by
//! [`REFERENCE_MS`], the kernel's time on the reference host, it reads as
//! milliseconds on that host.
//!
//! The kernel mixes the program's two kinds of work: a 3×3 float stencil
//! over a VGA plane (compute over an L2-sized working set) and one
//! read-modify-write pass over 8 MiB (memory bandwidth). It runs on as
//! many threads as the workload it calibrates, so a workload that needs
//! both cores is paired with the speed of both.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host (2-vCPU Intel Xeon, model
/// 143, quiet), ms. Only a scale: it converts kernel units into
/// milliseconds and never changes.
pub const REFERENCE_MS: f64 = 2.0;

const WIDTH: usize = 640;
const HEIGHT: usize = 480;
const STENCIL_PASSES: usize = 2;
const STREAM_WORDS: usize = 1 << 20;

/// One thread's kernel buffers.
#[derive(Debug)]
struct Kernel {
    plane: Vec<f32>,
    out: Vec<f32>,
    stream: Vec<u64>,
}

impl Kernel {
    fn new() -> Self {
        let plane =
            (0..WIDTH * HEIGHT).map(|i| (i * 2_654_435_761 % 1000) as f32 / 1000.0).collect();
        Self { plane, out: vec![0.0; WIDTH * HEIGHT], stream: (0..STREAM_WORDS as u64).collect() }
    }

    /// One pass of the kernel; its result keeps the work observable.
    fn run(&mut self) -> f64 {
        let w = WIDTH;
        let mut acc = 0.0f32;
        for _ in 0..STENCIL_PASSES {
            for y in 1..HEIGHT - 1 {
                for x in 1..w - 1 {
                    let i = y * w + x;
                    let p = &self.plane;
                    let s = p[i - w - 1]
                        + p[i - w]
                        + p[i - w + 1]
                        + p[i - 1]
                        + p[i]
                        + p[i + 1]
                        + p[i + w - 1]
                        + p[i + w]
                        + p[i + w + 1];
                    let v = s * (1.0 / 9.0);
                    self.out[i] = if v > 0.5 { v - 0.25 } else { v + 0.125 };
                }
            }
            for (a, b) in self.plane.iter_mut().zip(&self.out) {
                *a = 0.5 * (*a + *b);
                acc += *b;
            }
        }
        let mut sum = 0u64;
        for v in &mut self.stream {
            *v = v.wrapping_mul(3).wrapping_add(1);
            sum = sum.wrapping_add(*v);
        }
        f64::from(acc) + (sum & 0xff) as f64
    }
}

/// The kernel on a fixed number of threads, and every time it took.
#[derive(Debug)]
pub struct Calibrator {
    kernels: Vec<Kernel>,
    /// Every kernel time measured, ms.
    samples: Vec<f64>,
}

impl Calibrator {
    /// Allocates and fills one set of buffers per thread, then runs the
    /// kernel once so the first measured sample finds them resident.
    pub fn new(threads: usize) -> Self {
        let mut c = Self {
            kernels: (0..threads.max(1)).map(|_| Kernel::new()).collect(),
            samples: Vec::with_capacity(1 << 16),
        };
        black_box(c.kernel());
        c
    }

    /// One pass on every thread: the first on this one, the others on
    /// scoped threads, as the workloads run their own parallel phases.
    fn kernel(&mut self) -> f64 {
        let (first, rest) = self.kernels.split_first_mut().expect("at least one thread");
        std::thread::scope(|scope| {
            let others: Vec<_> = rest.iter_mut().map(|k| scope.spawn(move || k.run())).collect();
            let mine = first.run();
            others.into_iter().map(|h| h.join().expect("kernel thread")).fold(mine, |a, b| a + b)
        })
    }

    /// Times one kernel pass, records it and returns it, ms.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.kernel());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples.push(ms);
        ms
    }

    /// Median kernel time of every sample so far, ms.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// The factor that turns a time measured while the kernel took
    /// `kernel_ms` into a time on the reference host.
    pub fn factor(kernel_ms: f64) -> f64 {
        REFERENCE_MS / kernel_ms
    }
}

/// Steps timed between calibration samples: the kernel runs before the
/// first step and after each one, and each step is normalised by the mean
/// of the samples on either side of it, so it is paired with the host
/// speed of its own moment.
#[derive(Debug)]
pub struct Bracketed {
    calibrator: Calibrator,
    last_kernel_ms: f64,
    /// Measured step times, ms.
    pub raw: Vec<f64>,
    /// The same steps on the reference host, ms.
    pub normalised: Vec<f64>,
}

impl Bracketed {
    /// Takes the opening sample.
    pub fn new(mut calibrator: Calibrator) -> Self {
        let last_kernel_ms = calibrator.sample();
        Self {
            calibrator,
            last_kernel_ms,
            raw: Vec::with_capacity(1 << 16),
            normalised: Vec::with_capacity(1 << 16),
        }
    }

    /// Records a step that took `ms` and samples the kernel after it.
    pub fn step(&mut self, ms: f64) {
        let after = self.calibrator.sample();
        let kernel_ms = 0.5 * (self.last_kernel_ms + after);
        self.last_kernel_ms = after;
        self.raw.push(ms);
        self.normalised.push(ms * Calibrator::factor(kernel_ms));
    }

    /// Samples the kernel after a step that is not recorded, so the next
    /// recorded step is still paired with its own moment.
    pub fn gap(&mut self) {
        self.last_kernel_ms = self.calibrator.sample();
    }

    /// Steps recorded.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// The factor of the run's median kernel time, for spans that are
    /// not bracketed one by one.
    pub fn run_factor(&self) -> f64 {
        Calibrator::factor(self.calibrator.median_ms())
    }

    /// Median kernel time of the run, ms.
    pub fn kernel_ms(&self) -> f64 {
        self.calibrator.median_ms()
    }
}

/// Kernel samples on each side of a one-off span such as a set-up; their
/// median on each side damps a single disturbed sample.
const SPAN_SAMPLES: usize = 3;

/// Runs `f` between two sets of kernel samples and returns its result
/// with its time on the reference host, s.
pub fn normalised_s<T>(calibrator: &mut Calibrator, f: impl FnOnce() -> T) -> (T, f64) {
    let side = |c: &mut Calibrator| {
        let samples: Vec<f64> = (0..SPAN_SAMPLES).map(|_| c.sample()).collect();
        crate::stats::median(&samples)
    };
    let before = side(calibrator);
    let t = Instant::now();
    let out = f();
    let s = t.elapsed().as_secs_f64();
    let after = side(calibrator);
    (out, s * Calibrator::factor(0.5 * (before + after)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_step_is_scaled_by_the_mean_of_the_samples_around_it() {
        let mut b = Bracketed::new(Calibrator::new(1));
        b.last_kernel_ms = 4.0;
        b.step(10.0);
        let after = *b.calibrator.samples.last().expect("sampled after the step");
        let expected = 10.0 * REFERENCE_MS / (0.5 * (4.0 + after));
        assert!((b.normalised[0] - expected).abs() < 1e-12);
        assert_eq!(b.raw, [10.0]);
        assert_eq!(b.len(), 1);
        assert_eq!(b.last_kernel_ms, after);
    }

    #[test]
    fn the_factor_is_one_at_the_reference_speed_and_inverse_in_it() {
        assert_eq!(Calibrator::factor(REFERENCE_MS), 1.0);
        assert_eq!(Calibrator::factor(2.0 * REFERENCE_MS), 0.5);
    }

    #[test]
    fn the_kernel_does_the_same_work_on_every_instance_and_thread() {
        let (mut a, mut b) = (Calibrator::new(1), Calibrator::new(2));
        let one = a.kernel();
        assert_eq!(b.kernel(), 2.0 * one);
        assert_eq!(Calibrator::new(1).kernel(), one);
        assert!(a.sample() > 0.0);
    }
}
