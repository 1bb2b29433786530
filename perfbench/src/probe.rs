//! A fixed reference load that reads how fast this machine's cores run
//! during a run.
//!
//! On a shared host the same code takes a varying amount of CPU time:
//! busy neighbours on the host's cores slow every instruction by a share
//! that drifts over seconds to hours (a fixed compute loop was seen to
//! take 20 % more CPU time from one minute to the next on a 2-vCPU VM).
//! The probe is the benchmark's own fixed work, which never calls the
//! program. The CPU-timed workloads run it between their timed samples,
//! on as many threads as they time, and express their CPU figures at a
//! reference speed: CPU time × [`NOMINAL_MS`] / the run's median probe.
//! A slowdown of the program still shows in full; a slowdown of the
//! host slows the probe too and cancels.

use crate::stats::median;
use crate::wire::own_thread_cpu_ns;
use std::hint::black_box;

/// CPU milliseconds one probe thread takes on the reference core (a
/// little above the 16–19 ms it takes on the 2-vCPU Xeon VM this was
/// written on). Scaled figures are in time on that core; the constant
/// only sets their scale.
pub const NOMINAL_MS: f64 = 20.0;

/// Matrix products, the shape of the network kernels: one whose
/// matrices fit in a core's L1 cache and one whose matrices fit only in
/// its L2. A busy host can slow L2-bound work more than L1-bound work,
/// and the program has both. In two 4-minute traces against a 1-thread
/// mini-grid and the server's CPU per batch, the sum of the two had the
/// smallest worst-case error of the variants tried.
const SMALL: (usize, usize) = (48, 128);
const LARGE: (usize, usize) = (160, 8);

/// Hashing a buffer, the shape of decode and encode work.
const HASH_BYTES: usize = 1 << 14;
const HASH_ROUNDS: usize = 160;

/// `rounds` products of two fixed `n` × `n` matrices.
fn matmul((n, rounds): (usize, usize)) -> u64 {
    let a: Vec<f32> = (0..n * n).map(|i| (i % 7) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..n * n).map(|i| (i % 5) as f32 * 0.5).collect();
    let mut c = vec![0f32; n * n];
    for _ in 0..rounds {
        for i in 0..n {
            for k in 0..n {
                let aik = black_box(a[i * n + k]);
                for j in 0..n {
                    c[i * n + j] += aik * b[k * n + j];
                }
            }
        }
    }
    c.iter().map(|v| u64::from(v.to_bits())).sum()
}

/// One probe's fixed work on the calling thread. It fits in a core's
/// L2 cache, so the program's memory use before a probe does not change
/// its cost. Returns a value that depends on all of it, so none of it
/// can be skipped.
fn work() -> u64 {
    let bytes: Vec<u8> = (0..HASH_BYTES).map(|i| (i * 31 % 251) as u8).collect();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..HASH_ROUNDS {
        for &x in black_box(&bytes) {
            h = (h ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h ^ matmul(SMALL) ^ matmul(LARGE)
}

/// The probes of one run.
pub struct Probe {
    threads: usize,
    /// CPU milliseconds of each probe, mean over its threads.
    pub ms: Vec<f64>,
}

impl Probe {
    /// A probe that runs on `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        Probe {
            threads: threads.max(1),
            ms: Vec::new(),
        }
    }

    /// Runs the fixed work on every thread at once and records the mean
    /// CPU milliseconds of one thread.
    pub fn run(&mut self) {
        let total_ns: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| {
                    s.spawn(|| {
                        let t0 = own_thread_cpu_ns();
                        black_box(work());
                        own_thread_cpu_ns() - t0
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .sum()
        });
        self.ms.push(total_ns as f64 / 1e6 / self.threads as f64);
    }

    /// The factor that takes this run's CPU time to the reference core:
    /// [`NOMINAL_MS`] over the median probe.
    pub fn scale(&self) -> f64 {
        NOMINAL_MS / median(&self.ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_the_median_probe() {
        let p = Probe {
            threads: 1,
            ms: vec![30.0, 40.0, 90.0],
        };
        assert_eq!(p.scale(), NOMINAL_MS / 40.0);
    }

    #[test]
    fn a_probe_records_positive_cpu_time() {
        let mut p = Probe::new(2);
        p.run();
        assert_eq!(p.ms.len(), 1);
        assert!(p.ms[0] > 0.0);
    }
}
