//! Minimal offline stand-in for the `criterion` crate.
//!
//! Provides the handful of entry points the workspace's benches use
//! (`bench_function`, `benchmark_group`, `iter`, `iter_batched`,
//! `criterion_group!`/`criterion_main!`) with a plain wall-clock
//! measurement loop: a short warm-up, then `sample_size` timed samples,
//! reporting min/mean/max to stdout. No statistics, no HTML reports, no
//! comparison to saved baselines — the numbers are for eyeballing
//! relative cost on one machine in one run.
//!
//! Like the real crate, positional command-line arguments are substring
//! filters on the benchmark name (`cargo bench --bench kernels --
//! reductions`) and `--quick` shortens the run (three samples); other
//! flags, such as the `--bench` cargo passes, are ignored.

use std::time::{Duration, Instant};

pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

pub struct Bencher {
    samples: Vec<Duration>,
    target: usize,
}

impl Bencher {
    /// Time `routine` repeatedly (one warm-up call, then `target` samples).
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        std::hint::black_box(routine());
        for _ in 0..self.target {
            let start = Instant::now();
            std::hint::black_box(routine());
            self.samples.push(start.elapsed());
        }
    }

    /// Time `routine` on fresh inputs from `setup`; setup time excluded.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        std::hint::black_box(routine(setup()));
        for _ in 0..self.target {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            self.samples.push(start.elapsed());
        }
    }
}

/// Does `name` pass the command line's positional substring filters?
fn selected(name: &str) -> bool {
    let mut filters = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .peekable();
    filters.peek().is_none() || filters.any(|f| name.contains(&f))
}

/// The sample count after `--quick`.
fn effective(sample_size: usize) -> usize {
    if std::env::args().any(|a| a == "--quick") {
        sample_size.min(3)
    } else {
        sample_size
    }
}

/// Run and report one named benchmark, unless filtered out.
fn run_one(name: &str, sample_size: usize, f: impl FnOnce(&mut Bencher)) {
    if !selected(name) {
        return;
    }
    let mut bencher = Bencher {
        samples: Vec::new(),
        target: effective(sample_size),
    };
    f(&mut bencher);
    report(name, &bencher.samples);
}

fn report(name: &str, samples: &[Duration]) {
    if samples.is_empty() {
        println!("{name:<50} (no samples)");
        return;
    }
    let min = samples.iter().min().unwrap();
    let max = samples.iter().max().unwrap();
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    println!("{name:<50} time: [{min:>12.3?} {mean:>12.3?} {max:>12.3?}]");
}

pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 10 }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn configure_from_args(self) -> Self {
        self
    }

    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        run_one(name, self.sample_size, f);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            group: name.to_string(),
            sample_size: self.sample_size,
            _marker: std::marker::PhantomData,
        }
    }

    pub fn final_summary(&mut self) {}
}

pub struct BenchmarkGroup<'a> {
    group: String,
    sample_size: usize,
    // Tie the group's lifetime to the parent Criterion like the real API.
    _marker: std::marker::PhantomData<&'a mut Criterion>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        run_one(&format!("{}/{name}", self.group), self.sample_size, f);
        self
    }

    pub fn finish(self) {}
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
