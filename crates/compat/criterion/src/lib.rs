//! Offline stand-in for `criterion` covering the surface this workspace
//! uses: `Criterion`, `benchmark_group`, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, `Bencher::iter`, and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Each benchmark is warmed up briefly, then timed for a fixed wall-clock
//! budget, and the mean ns/iteration is printed. There is no statistical
//! analysis, HTML report, or baseline comparison — this is a smoke-level
//! harness that keeps `cargo bench` meaningful offline.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Wall-clock budget spent measuring each benchmark.
const MEASURE_BUDGET: Duration = Duration::from_millis(60);
/// Wall-clock budget spent warming each benchmark up.
const WARMUP_BUDGET: Duration = Duration::from_millis(15);

/// Top-level driver handed to every `criterion_group!` target.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\nbenchmark group: {name}");
        BenchmarkGroup {
            name,
            _criterion: self,
        }
    }

    /// Benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.into_benchmark_id().0, f);
        self
    }
}

/// A named collection of benchmarks sharing a report prefix.
pub struct BenchmarkGroup<'a> {
    name: String,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Time `f` under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id().0);
        run_benchmark(&label, f);
        self
    }

    /// Time `f` under `id` with a shared input.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.0);
        run_benchmark(&label, |b| f(b, input));
        self
    }

    /// End the group (report flushing is a no-op here).
    pub fn finish(self) {}
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, mut f: F) {
    let mut bencher = Bencher {
        iterations: 0,
        elapsed: Duration::ZERO,
    };
    f(&mut bencher);
    if bencher.iterations == 0 {
        println!("  {label}: no iterations recorded");
        return;
    }
    let ns = bencher.elapsed.as_nanos() as f64 / bencher.iterations as f64;
    println!("  {label}: {ns:.1} ns/iter ({} iters)", bencher.iterations);
}

/// Passed to the closure; `iter` performs the actual timing.
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Warm `routine` up, then run it repeatedly for the measurement
    /// budget, accumulating time and iteration counts.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARMUP_BUDGET {
            std::hint::black_box(routine());
        }
        let start = Instant::now();
        let mut iterations = 0u64;
        loop {
            std::hint::black_box(routine());
            iterations += 1;
            if start.elapsed() >= MEASURE_BUDGET {
                break;
            }
        }
        self.iterations += iterations;
        self.elapsed += start.elapsed();
    }
}

/// A benchmark name of the form `function/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Combine a function name with a parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId(format!("{}/{}", function_name.into(), parameter))
    }
}

/// Anything usable as a benchmark name.
pub trait IntoBenchmarkId {
    /// Convert into the canonical id.
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId(self.to_string())
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId(self)
    }
}

/// Collect benchmark functions into one runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Entry point running every listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_iterations() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        let mut total = 0u64;
        g.bench_function("count", |b| {
            b.iter(|| {
                total = total.wrapping_add(1);
                total
            })
        });
        g.bench_with_input(BenchmarkId::new("param", 42), &7u64, |b, x| {
            b.iter(|| x * 2)
        });
        g.finish();
        assert!(total > 0);
    }
}
