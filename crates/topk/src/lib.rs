#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! GPU top-k algorithms on the `simt` simulator — the paper's contribution.
//!
//! Six algorithms (Section 3 plus the Dr. Top-k follow-up), all
//! returning the largest `k` items in descending key order:
//!
//! | Algorithm | Module | Paper |
//! |---|---|---|
//! | Sort & choose (LSD radix sort) | [`sort`] | §3, baseline |
//! | Per-thread heaps (+ register variant) | [`per_thread`] | §3.1, App. A |
//! | Radix select | [`radix_select`] | §2.3/§4.2 |
//! | Bucket select | [`bucket_select`] | §2.3/§4.2 |
//! | **Bitonic top-k** | [`bitonic`] | §3.2/§4.3 |
//! | Delegate select | [`delegate`] | Dr. Top-k (PAPERS.md) |
//!
//! Every algorithm is functionally executed on simulated device buffers —
//! results are real and tested against a sort oracle — while the
//! simulator's traffic counters drive the modeled kernel times
//! (see the `simt` crate docs).
//!
//! # Example
//!
//! All entry points go through [`TopKRequest`]: algorithm, `k`, key
//! order, and (optionally) the stream to launch on travel in one value.
//!
//! ```
//! use simt::Device;
//! use topk::{bitonic::BitonicConfig, TopKAlgorithm, TopKRequest};
//!
//! let dev = Device::titan_x();
//! let data: Vec<f32> = (0..4096).map(|i| (i * 31 % 4096) as f32).collect();
//! let input = dev.upload(&data);
//! let result = TopKRequest::largest(8)
//!     .with_alg(TopKAlgorithm::Bitonic(BitonicConfig::default()))
//!     .run(&dev, &input)
//!     .unwrap();
//! assert_eq!(result.items.len(), 8);
//! assert_eq!(result.items[0], 4095.0);
//!
//! // smallest-k is the same request with the order flipped; the input
//! // buffer is reinterpreted in place (no host round-trip).
//! let low = TopKRequest::smallest(3).run(&dev, &input).unwrap();
//! assert_eq!(low.items[0], 0.0);
//! ```

pub mod backend;
pub mod batched;
pub mod bitonic;
pub mod bucket_select;
pub mod chunked;
pub mod delegate;
pub mod hybrid;
pub mod per_thread;
pub mod radix_select;
pub mod sort;
pub(crate) mod util;

use datagen::TopKItem;
use simt::{Device, GpuBuffer, LaunchError, LaunchReport, SimTime, StreamId};

pub use backend::{
    Backend, BackendBuffer, BackendKind, BackendTopK, CpuBackend, ExecBackend, ExecReport, SimExec,
    SimtBackend,
};

/// Errors top-k execution can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopKError {
    /// `k` must be at least 1.
    ZeroK,
    /// The input buffer is empty.
    EmptyInput,
    /// A kernel could not launch — e.g. per-thread top-k's shared-memory
    /// footprint exceeds the device limit for large `k` (Section 6.2).
    Launch(LaunchError),
    /// The request asks for a feature the executing backend does not
    /// have (e.g. simt streams or the sanitizer on the CPU backend).
    /// Simulator-only machinery degrades loudly, never silently.
    UnsupportedOnBackend {
        /// The backend that rejected the request.
        backend: &'static str,
        /// The unavailable feature.
        feature: &'static str,
    },
    /// A [`backend::BackendBuffer`] belonging to one backend was handed
    /// to the other (e.g. a simulated device buffer to [`CpuBackend`]).
    BackendMismatch {
        /// The backend that was asked to execute.
        backend: &'static str,
        /// The backend the buffer belongs to.
        buffer: &'static str,
    },
    /// A configuration field set through its public fields is outside
    /// what the algorithm supports — e.g. a [`bitonic::BitonicConfig`]
    /// block size that is not a power of two.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Its value.
        value: usize,
        /// What the field must be.
        requirement: &'static str,
    },
}

impl From<LaunchError> for TopKError {
    fn from(e: LaunchError) -> Self {
        TopKError::Launch(e)
    }
}

impl std::fmt::Display for TopKError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopKError::ZeroK => write!(f, "k must be at least 1"),
            TopKError::EmptyInput => write!(f, "input is empty"),
            TopKError::Launch(e) => write!(f, "kernel launch failed: {e}"),
            TopKError::UnsupportedOnBackend { backend, feature } => {
                write!(f, "the {backend} backend does not support {feature}")
            }
            TopKError::BackendMismatch { backend, buffer } => {
                write!(f, "the {backend} backend was handed a {buffer} buffer")
            }
            TopKError::InvalidConfig {
                field,
                value,
                requirement,
            } => write!(
                f,
                "invalid config: {field} = {value}, must be {requirement}"
            ),
        }
    }
}

impl std::error::Error for TopKError {}

/// The outcome of a top-k invocation.
#[derive(Debug, Clone)]
pub struct TopKResult<T> {
    /// The largest `k` items, descending by key. If `k > n` all items are
    /// returned.
    pub items: Vec<T>,
    /// Total modeled device time across the algorithm's kernel launches.
    pub time: SimTime,
    /// Per-kernel launch reports, in launch order.
    pub reports: Vec<LaunchReport>,
}

impl<T> TopKResult<T> {
    /// Aggregate global memory traffic over all launches.
    pub fn global_bytes(&self) -> u64 {
        self.reports.iter().map(|r| r.stats.global_bytes()).sum()
    }

    /// Aggregate effective shared-memory traffic over all launches.
    pub fn shared_eff_bytes(&self) -> u64 {
        self.reports.iter().map(|r| r.stats.shared_eff_bytes).sum()
    }
}

/// Algorithm selector for experiment sweeps and the query planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopKAlgorithm {
    /// Full LSD radix sort, then take the first `k`.
    Sort,
    /// Per-thread heaps in shared memory (Algorithm 1).
    PerThread,
    /// Per-thread linear buffer held in registers (Appendix A).
    PerThreadRegisters,
    /// MSD radix select with the §4.2 output optimizations.
    RadixSelect,
    /// Min/max bucket select.
    BucketSelect,
    /// Bitonic top-k with the given optimization configuration.
    Bitonic(bitonic::BitonicConfig),
    /// Delegate-centric top-k (Dr. Top-k): per-subrange delegates,
    /// top-k over delegates, refinement over contributing subranges.
    DelegateSelect(delegate::DelegateConfig),
}

impl TopKAlgorithm {
    /// Short name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            TopKAlgorithm::Sort => "sort",
            TopKAlgorithm::PerThread => "per-thread",
            TopKAlgorithm::PerThreadRegisters => "per-thread-regs",
            TopKAlgorithm::RadixSelect => "radix-select",
            TopKAlgorithm::BucketSelect => "bucket-select",
            TopKAlgorithm::Bitonic(_) => "bitonic",
            TopKAlgorithm::DelegateSelect(_) => "delegate-select",
        }
    }

    /// All seven algorithms at their default configurations.
    ///
    /// This is the Figure 11 line-up plus [`PerThreadRegisters`]
    /// (Appendix A) and [`DelegateSelect`] (the Dr. Top-k follow-up):
    /// the paper's figure omits the register variant because it
    /// coincides with per-thread heaps at small `k`, but sweeps and
    /// agreement tests here cover all seven variants.
    ///
    /// [`PerThreadRegisters`]: TopKAlgorithm::PerThreadRegisters
    /// [`DelegateSelect`]: TopKAlgorithm::DelegateSelect
    pub fn all() -> Vec<TopKAlgorithm> {
        vec![
            TopKAlgorithm::Sort,
            TopKAlgorithm::PerThread,
            TopKAlgorithm::PerThreadRegisters,
            TopKAlgorithm::RadixSelect,
            TopKAlgorithm::BucketSelect,
            TopKAlgorithm::Bitonic(bitonic::BitonicConfig::default()),
            TopKAlgorithm::DelegateSelect(delegate::DelegateConfig::default()),
        ]
    }
}

/// Which end of the key order a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KeyOrder {
    /// The largest `k` items, descending (`ORDER BY key DESC LIMIT k`).
    #[default]
    Largest,
    /// The smallest `k` items, ascending (`ORDER BY key ASC LIMIT k`).
    Smallest,
}

/// A top-k invocation: algorithm, `k`, key order, and the stream to
/// launch on, in one builder-style value.
///
/// ```
/// use simt::Device;
/// use topk::{TopKAlgorithm, TopKRequest};
///
/// let dev = Device::titan_x();
/// let input = dev.upload(&[5.0f32, 1.0, 9.0, 3.0]);
/// let top = TopKRequest::largest(2).run(&dev, &input).unwrap();
/// assert_eq!(top.items, vec![9.0, 5.0]);
/// let bottom = TopKRequest::smallest(2)
///     .with_alg(TopKAlgorithm::Sort)
///     .run(&dev, &input)
///     .unwrap();
/// assert_eq!(bottom.items, vec![1.0, 3.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKRequest {
    /// The algorithm to dispatch to.
    pub alg: TopKAlgorithm,
    /// How many items to return.
    pub k: usize,
    /// Largest-k (descending) or smallest-k (ascending).
    pub order: KeyOrder,
    /// Stream to issue the kernels on; `None` launches on whatever
    /// stream is current (the default stream outside any scope).
    pub stream: Option<StreamId>,
}

impl TopKRequest {
    /// A request for `alg` with the given order.
    pub fn new(alg: TopKAlgorithm, k: usize, order: KeyOrder) -> Self {
        TopKRequest {
            alg,
            k,
            order,
            stream: None,
        }
    }

    /// Largest-k with the default algorithm (bitonic top-k).
    pub fn largest(k: usize) -> Self {
        Self::new(
            TopKAlgorithm::Bitonic(bitonic::BitonicConfig::default()),
            k,
            KeyOrder::Largest,
        )
    }

    /// Smallest-k with the default algorithm (bitonic top-k).
    pub fn smallest(k: usize) -> Self {
        Self::new(
            TopKAlgorithm::Bitonic(bitonic::BitonicConfig::default()),
            k,
            KeyOrder::Smallest,
        )
    }

    /// Selects the algorithm.
    pub fn with_alg(mut self, alg: TopKAlgorithm) -> Self {
        self.alg = alg;
        self
    }

    /// Selects the key order.
    pub fn with_order(mut self, order: KeyOrder) -> Self {
        self.order = order;
        self
    }

    /// Issues the kernels on the given stream (see `simt::Stream`).
    pub fn on_stream(mut self, stream: StreamId) -> Self {
        self.stream = Some(stream);
        self
    }

    /// Executes the request on the simulator — shorthand for running on a
    /// [`SimtBackend`] over `dev` (see [`TopKRequest::run_on`] for the
    /// backend-generic entry point). The kernel sequence is identical
    /// either way.
    ///
    /// Smallest-k reinterprets the input buffer **in place** as the
    /// order-reversing [`datagen::item::Rev`] wrapper (via the safe
    /// [`datagen::RevView::as_rev_view`] — no host round-trip, no extra
    /// device memory) and returns items in ascending key order.
    pub fn run<T: TopKItem>(
        &self,
        dev: &Device,
        input: &GpuBuffer<T>,
    ) -> Result<TopKResult<T>, TopKError> {
        backend::run_simt(self, dev, input)
    }

    /// Executes the request on any [`Backend`]: the simulator, the real
    /// multi-threaded CPU engine, or the runtime-selected
    /// [`ExecBackend`].
    ///
    /// ```
    /// use topk::{Backend, CpuBackend, TopKRequest};
    ///
    /// let cpu = CpuBackend::with_threads(4);
    /// let input = cpu.upload(&[5.0f32, 1.0, 9.0, 3.0]);
    /// let top = TopKRequest::largest(2).run_on(&cpu, &input).unwrap();
    /// assert_eq!(top.items, vec![9.0, 5.0]);
    /// assert!(top.report.sim.is_none(), "CPU runs are wall-clock only");
    /// ```
    pub fn run_on<T: TopKItem, B: Backend>(
        &self,
        backend: &B,
        input: &BackendBuffer<T>,
    ) -> Result<BackendTopK<T>, TopKError> {
        backend.topk(self, input)
    }
}

/// Single dispatch point every entry path funnels through.
pub(crate) fn dispatch<T: TopKItem>(
    alg: TopKAlgorithm,
    dev: &Device,
    input: &GpuBuffer<T>,
    k: usize,
) -> Result<TopKResult<T>, TopKError> {
    match alg {
        TopKAlgorithm::Sort => sort::sort_topk(dev, input, k),
        TopKAlgorithm::PerThread => {
            per_thread::per_thread_topk(dev, input, k, per_thread::Variant::SharedHeap)
        }
        TopKAlgorithm::PerThreadRegisters => {
            per_thread::per_thread_topk(dev, input, k, per_thread::Variant::RegisterBuffer)
        }
        TopKAlgorithm::RadixSelect => radix_select::radix_select_topk(dev, input, k),
        TopKAlgorithm::BucketSelect => bucket_select::bucket_select_topk(dev, input, k),
        TopKAlgorithm::Bitonic(cfg) => bitonic::bitonic_topk(dev, input, k, cfg),
        TopKAlgorithm::DelegateSelect(cfg) => delegate::delegate_select_topk(dev, input, k, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{Distribution, Uniform};

    #[test]
    fn dispatcher_runs_every_algorithm() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 12, 3);
        let input = dev.upload(&data);
        let expect = datagen::reference_topk(&data, 16);
        assert_eq!(TopKAlgorithm::all().len(), 7, "all seven variants");
        for alg in TopKAlgorithm::all() {
            let r = TopKRequest::largest(16)
                .with_alg(alg)
                .run(&dev, &input)
                .unwrap();
            let got: Vec<u32> = r.items.iter().map(|x| x.key_bits()).collect();
            let want: Vec<u32> = expect.iter().map(|x| x.key_bits()).collect();
            assert_eq!(got, want, "algorithm {}", alg.name());
            assert!(r.time.seconds() > 0.0, "{} reported no time", alg.name());
            assert!(!r.reports.is_empty());
        }
    }

    #[test]
    fn zero_k_rejected() {
        let dev = Device::titan_x();
        let input = dev.upload(&[1.0f32, 2.0]);
        for alg in TopKAlgorithm::all() {
            let req = TopKRequest::largest(0).with_alg(alg);
            assert_eq!(req.run(&dev, &input).unwrap_err(), TopKError::ZeroK);
        }
    }

    #[test]
    fn smallest_k_mode() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 12, 5);
        let input = dev.upload(&data);
        let mut expect = data.clone();
        expect.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        expect.truncate(16);
        for alg in TopKAlgorithm::all() {
            let r = TopKRequest::smallest(16)
                .with_alg(alg)
                .run(&dev, &input)
                .unwrap();
            assert_eq!(r.items, expect, "{} smallest-k", alg.name());
        }
    }

    #[test]
    fn smallest_k_with_negatives() {
        let dev = Device::titan_x();
        let data = vec![3.0f32, -7.5, 0.0, -1.0, 12.0, -7.4];
        let input = dev.upload(&data);
        let r = TopKRequest::smallest(3).run(&dev, &input).unwrap();
        assert_eq!(r.items, vec![-7.5, -7.4, -1.0]);
    }

    #[test]
    fn smallest_k_leaves_input_intact_without_reupload() {
        let dev = Device::titan_x();
        let data: Vec<f32> = Uniform.generate(1 << 10, 11);
        let input = dev.upload(&data);
        let before = dev.memory_highwater();
        let r = TopKRequest::smallest(8).run(&dev, &input).unwrap();
        assert_eq!(r.items.len(), 8);
        // the in-place view adds no allocation for the wrapped input
        // (scratch buffers of the algorithm itself still count)
        assert!(
            dev.memory_highwater() - before < input.len() * 4,
            "smallest-k must not duplicate the input buffer"
        );
        assert_eq!(input.to_vec(), data, "input restored after the view");
    }

    #[test]
    fn empty_input_rejected() {
        let dev = Device::titan_x();
        let input = dev.upload::<f32>(&[]);
        for alg in TopKAlgorithm::all() {
            let req = TopKRequest::new(alg, 4, KeyOrder::Largest);
            assert_eq!(req.run(&dev, &input).unwrap_err(), TopKError::EmptyInput);
        }
    }

    #[test]
    fn request_runs_on_chosen_stream() {
        let dev = Device::titan_x();
        let st = dev.create_stream();
        let data: Vec<f32> = Uniform.generate(1 << 10, 7);
        let input = dev.upload(&data);
        let r = TopKRequest::largest(4)
            .on_stream(st.id())
            .run(&dev, &input)
            .unwrap();
        assert!(r.reports.iter().all(|rep| rep.stream == st.id().0));
        assert_eq!(dev.stream_log(st.id()).len(), r.reports.len());
    }
}
