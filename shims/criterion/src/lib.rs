//! Offline shim for the `criterion` crate: same macro/builder surface,
//! simple mean-of-N wall-clock measurement instead of statistical
//! sampling. Good enough to compare configurations (the workspace's
//! benches report relative numbers, not publishable absolutes).

#![deny(unsafe_code)]

use std::time::{Duration, Instant};

/// Opaque black box: defeats trivial constant folding.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How per-iteration setup output is batched (accepted, ignored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// The measurement driver handed to `bench_function` closures.
pub struct Bencher {
    iters: u64,
    /// Total measured time, reported back to [`Criterion`].
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over the configured iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` with un-timed per-iteration setup.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            elapsed += start.elapsed();
        }
        self.elapsed = elapsed;
    }
}

/// Benchmark runner configuration + execution.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Runs `f`, calibrating an iteration count from the warm-up so the
    /// measurement roughly fills `measurement_time`, and prints a
    /// criterion-like summary line.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        // Warm-up + calibration: time a single iteration.
        let mut probe = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time {
            f(&mut probe);
            warm_iters += 1;
            if warm_iters >= 1000 {
                break;
            }
        }
        let per_iter = if warm_iters > 0 {
            (warm_start.elapsed() / warm_iters as u32).max(Duration::from_nanos(1))
        } else {
            Duration::from_micros(1)
        };
        let budget_per_sample = self.measurement_time / self.sample_size as u32;
        let iters =
            (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64;

        let mut best = Duration::MAX;
        let mut worst = Duration::ZERO;
        let mut total = Duration::ZERO;
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            let per = if b.elapsed.is_zero() {
                Duration::from_nanos(1)
            } else {
                b.elapsed / iters as u32
            };
            best = best.min(per);
            worst = worst.max(per);
            total += per;
        }
        let mean = total / self.sample_size as u32;
        println!(
            "{name:<40} time: [{} {} {}]  ({} iters x {} samples)",
            fmt_dur(best),
            fmt_dur(mean),
            fmt_dur(worst),
            iters,
            self.sample_size
        );
        self
    }

    /// Final reporting hook (no-op in the shim).
    pub fn final_summary(&mut self) {}
}

fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Declares a benchmark group, mirroring criterion's two accepted forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c: $crate::Criterion = $config;
            $( $target(&mut c); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(5));
        let mut count = 0u64;
        c.bench_function("shim/smoke", |b| {
            b.iter(|| {
                count += 1;
                black_box(count)
            })
        });
        assert!(count > 0);
    }

    #[test]
    fn iter_batched_runs_setup_per_iteration() {
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(2));
        let mut setups = 0u64;
        let mut runs = 0u64;
        c.bench_function("shim/batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    setups
                },
                |v| {
                    runs += 1;
                    black_box(v)
                },
                BatchSize::SmallInput,
            )
        });
        assert!(setups > 0);
        assert_eq!(setups, runs);
    }
}
