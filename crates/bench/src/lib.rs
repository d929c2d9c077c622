#![forbid(unsafe_code)]
//! The experiment harness and its regression gate:
//!
//! * [`harness`] — runs the paper's top-k experiments, the qdb serving,
//!   cluster and streaming workloads and the real-CPU backend, collecting
//!   simulator counters + host wall-clock into versioned `BENCH_*.json`
//!   reports (the `harness` binary);
//! * [`figures`] — the suite behind the remaining paper figures and
//!   ablations (`BENCH_figures.json`);
//! * [`report`] — the machine-readable report schema and its markdown
//!   table rendering (the tables of EXPERIMENTS.md);
//! * [`diff`] — the regression gate comparing a report against the
//!   committed baseline in `crates/bench/baseline/` and machine-checking
//!   paper claims (the `bench-diff` binary);
//! * [`json`] — the minimal JSON layer both sides share.
//!
//! Dataset size defaults to 2^22 (the paper uses 2^29) and is overridden
//! with `TOPK_REPRO_LOG2N`; bandwidth-bound times scale linearly in n, so
//! multiplying by 2^(29 − log2n) extrapolates them to the paper's scale
//! (launch overheads do not scale, so this slightly overestimates).

pub mod diff;
pub mod figures;
pub mod harness;
pub mod json;
pub mod report;

/// The k sweep used by Figures 11, 12 and 17.
pub const K_SWEEP: [usize; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
