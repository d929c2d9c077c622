#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # gpu-topk
//!
//! A from-scratch reproduction of *Efficient Top-K Query Processing on
//! Massively Parallel Hardware* (SIGMOD 2018): GPU top-k algorithms —
//! including the paper's novel **bitonic top-k** — running on a
//! warp-synchronous SIMT simulator, plus CPU baselines, the Section 7
//! cost models, and a MapD-style columnar engine for the integration
//! experiments.
//!
//! This crate is a facade: it re-exports the workspace's crates under one
//! namespace. See `README.md` for the architecture map and
//! `EXPERIMENTS.md` for the paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use gpu_topk::simt::Device;
//! use gpu_topk::topk::TopKRequest;
//!
//! let dev = Device::titan_x();
//! let data: Vec<f32> = (0..10_000).map(|i| (i as f32).sin()).collect();
//! let input = dev.upload(&data);
//!
//! let result = TopKRequest::largest(5).run(&dev, &input).expect("top-k");
//!
//! assert_eq!(result.items.len(), 5);
//! println!("top-5 = {:?} in {} (simulated)", result.items, result.time);
//! ```

pub mod auto;

pub use datagen;
pub use qdb;
pub use simt;
pub use sortnet;
pub use topk;
pub use topk_costmodel;
pub use topk_cpu;

/// The workspace version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Resolves where a report-writing example should put its JSON artifact.
///
/// Every artifact-writing example (`quickstart`, `concurrent_serving`,
/// `analysis_sweep`, …) uses the same contract, so CI and humans can
/// redirect outputs without editing code:
///
/// 1. an explicit path passed as the example's first CLI argument wins;
/// 2. else `$GPU_TOPK_OUT_DIR/<default_name>` when that variable is set
///    (the directory is created if missing);
/// 3. else the system temp directory + `<default_name>`.
pub fn artifact_path(default_name: &str) -> std::path::PathBuf {
    if let Some(arg) = std::env::args().nth(1) {
        return std::path::PathBuf::from(arg);
    }
    match std::env::var_os("GPU_TOPK_OUT_DIR") {
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            std::fs::create_dir_all(&dir).expect("create $GPU_TOPK_OUT_DIR");
            dir.join(default_name)
        }
        None => std::env::temp_dir().join(default_name),
    }
}
