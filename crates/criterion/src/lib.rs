#![forbid(unsafe_code)]
//! Vendored minimal stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the subset of the criterion API its benches use: groups,
//! `bench_function` / `bench_with_input`, `Bencher::iter` /
//! `iter_batched`, throughput annotation, and the `criterion_group!` /
//! `criterion_main!` macros.
//!
//! Measurement is deliberately simple: a short warmup, then up to
//! `sample_size` timed samples (bounded by a per-benchmark time budget),
//! reporting min / mean / max wall-clock time per iteration as plain
//! text. There is no statistical analysis, no HTML report, and no
//! baseline comparison — the benches remain runnable and comparable by
//! eye, which is all this workspace needs offline.

use std::time::{Duration, Instant};

/// Re-export so call sites can use `criterion::black_box`.
pub use std::hint::black_box;

#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
}

pub struct Criterion {
    sample_size: usize,
    /// Wall-clock budget per benchmark id (warmup + samples).
    time_budget: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            time_budget: Duration::from_millis(1500),
        }
    }
}

impl Criterion {
    pub fn configure_from_args(self) -> Self {
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\ngroup: {name}");
        BenchmarkGroup {
            sample_size: self.sample_size,
            time_budget: self.time_budget,
            elements: None,
            _parent: self,
        }
    }

    pub fn final_summary(&mut self) {}
}

pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

pub struct BenchmarkGroup<'a> {
    sample_size: usize,
    time_budget: Duration,
    /// Elements per iteration, when the group declares them.
    elements: Option<u64>,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        match t {
            Throughput::Elements(n) => {
                println!("  throughput: {n} elements/iter");
                self.elements = Some(n);
            }
            Throughput::Bytes(n) => println!("  throughput: {n} bytes/iter"),
        }
        self
    }

    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run_one(id, &mut f);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let name = id.id.clone();
        self.run_one(&name, &mut |b: &mut Bencher| f(b, input));
        self
    }

    pub fn finish(self) {}

    fn run_one(&mut self, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let started = Instant::now();
        // Warmup: one measured pass to size the sample loop.
        let mut b = Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        let mut samples: Vec<f64> = Vec::new();
        if b.iters > 0 {
            samples.push(b.elapsed.as_secs_f64() / b.iters as f64);
        }
        while samples.len() < self.sample_size && started.elapsed() < self.time_budget {
            let mut b = Bencher {
                elapsed: Duration::ZERO,
                iters: 0,
            };
            f(&mut b);
            if b.iters > 0 {
                samples.push(b.elapsed.as_secs_f64() / b.iters as f64);
            }
        }
        if samples.is_empty() {
            println!("  {id}: no samples");
            return;
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0f64, f64::max);
        let per_element = match self.elements {
            Some(n) if n > 0 => format!(", {} per element", fmt_time(mean / n as f64)),
            _ => String::new(),
        };
        println!(
            "  {id}: mean {} (min {}, max {}, {} samples{per_element})",
            fmt_time(mean),
            fmt_time(min),
            fmt_time(max),
            samples.len()
        );
    }
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

pub struct Bencher {
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let t = Instant::now();
        black_box(routine());
        self.elapsed += t.elapsed();
        self.iters += 1;
    }

    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let input = setup();
        let t = Instant::now();
        black_box(routine(input));
        self.elapsed += t.elapsed();
        self.iters += 1;
    }
}

/// Bundle benchmark functions under one name, mirroring criterion's
/// macro signature (config arm accepted and ignored).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($target(&mut c);)+
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
