//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this in-tree shim
//! provides the subset of the criterion API the workspace's benches use:
//! [`Criterion`], [`BenchmarkGroup`], `bench_function`, `iter`,
//! `iter_batched` with [`BatchSize`], [`black_box`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Measurement model: for each benchmark the closure is warmed up for
//! `warm_up_time`, then timed batches run until `measurement_time` elapses
//! (at least `sample_size` iterations). The mean, min, and max per-iteration
//! wall times are printed in a criterion-like one-line format. There are no
//! statistical comparisons with previous runs and no HTML reports.

use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer value passthrough.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level benchmark harness configuration and driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
            warm_up_time: Duration::from_secs(3),
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
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

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
            measurement_time: None,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let cfg = self.clone();
        run_one(&cfg, &id.into(), f);
        self
    }
}

/// A group of benchmarks sharing a name prefix and overrides.
///
/// Overrides are group-local (stored here, applied per `bench_function`),
/// never written back to the parent `Criterion` — matching real
/// criterion, where a group's settings die with the group.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: Option<usize>,
    measurement_time: Option<Duration>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = Some(n);
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = Some(d);
        self
    }

    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut cfg = self.criterion.clone();
        if let Some(n) = self.sample_size {
            cfg.sample_size = n;
        }
        if let Some(d) = self.measurement_time {
            cfg.measurement_time = d;
        }
        run_one(&cfg, &format!("{}/{}", self.name, id.into()), f);
        self
    }

    pub fn finish(self) {}
}

/// How many inputs `iter_batched` prepares per batch. The shim always
/// prepares one input per timed call; the variants exist for source
/// compatibility with criterion.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Passed to the benchmark closure; [`Bencher::iter`] and
/// [`Bencher::iter_batched`] do the timing.
pub struct Bencher {
    cfg: Criterion,
    /// Measured per-iteration times, filled by `iter`.
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `f`, repeatedly: warm-up, then sampled measurement.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        self.iter_batched(|| (), |()| f(), BatchSize::PerIteration);
    }

    /// Like [`iter`](Self::iter), but every call of `routine` gets a
    /// fresh input from `setup`, and only `routine` is timed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Warm-up: run until the warm-up budget is spent.
        let warm_deadline = Instant::now() + self.cfg.warm_up_time;
        while Instant::now() < warm_deadline {
            black_box(routine(setup()));
        }
        // Measurement: at least `sample_size` samples, stop when the
        // measurement budget is spent.
        let deadline = Instant::now() + self.cfg.measurement_time;
        loop {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed());
            if self.samples.len() >= self.cfg.sample_size && Instant::now() >= deadline {
                break;
            }
            if self.samples.len() >= 1_000_000 {
                break; // fast closures: enough precision either way
            }
        }
    }
}

fn run_one(cfg: &Criterion, id: &str, mut f: impl FnMut(&mut Bencher)) {
    let mut b = Bencher {
        cfg: cfg.clone(),
        samples: Vec::new(),
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{id:<50} (no samples: closure never called iter)");
        return;
    }
    let n = b.samples.len() as u32;
    let mean = b.samples.iter().sum::<Duration>() / n;
    let min = b.samples.iter().min().copied().unwrap_or_default();
    let max = b.samples.iter().max().copied().unwrap_or_default();
    println!(
        "{id:<50} time: [{} {} {}]  ({n} samples)",
        fmt_duration(min),
        fmt_duration(mean),
        fmt_duration(max),
    );
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.3} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

/// Declares a benchmark entry function from a config expression and a list
/// of target functions (criterion-compatible syntax).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
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

/// Declares `main` running each group.
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

    fn fast_cfg() -> Criterion {
        Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1))
    }

    #[test]
    fn bench_function_runs_closure() {
        let mut c = fast_cfg();
        let mut ran = false;
        c.bench_function("smoke", |b| {
            b.iter(|| black_box(1 + 1));
            ran = true;
        });
        assert!(ran);
    }

    #[test]
    fn groups_run_and_finish() {
        let mut c = fast_cfg();
        let mut g = c.benchmark_group("grp");
        g.sample_size(5);
        g.bench_function("a", |b| b.iter(|| black_box(2 * 2)));
        g.finish();
    }

    #[test]
    fn group_overrides_do_not_leak_into_parent() {
        let mut c = fast_cfg();
        let before = c.measurement_time;
        {
            let mut g = c.benchmark_group("slow");
            g.measurement_time(Duration::from_millis(25));
            g.sample_size(3);
            g.bench_function("a", |b| b.iter(|| black_box(1)));
            g.finish();
        }
        assert_eq!(c.measurement_time, before, "group setting leaked");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert!(fmt_duration(Duration::from_micros(1500)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with("s"));
    }

    criterion_group! {
        name = test_benches;
        config = Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(5))
            .warm_up_time(Duration::from_millis(1));
        targets = noop_bench
    }

    fn noop_bench(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| black_box(0u64)));
    }

    #[test]
    fn criterion_group_macro_expands() {
        test_benches();
    }
}
