#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! A warp-synchronous SIMT GPU simulator.
//!
//! This crate is the hardware substrate for the top-k reproduction: it
//! executes GPU-style kernels *functionally* (real data, real results) on
//! the host while accounting for the machine quantities that determine GPU
//! performance — and deriving simulated time from them:
//!
//! * **global memory** traffic with per-warp coalescing into 32-byte
//!   sectors,
//! * **shared memory** traffic with 32 banks and exact per-step conflict
//!   degrees (same-address broadcast is free),
//! * **occupancy** (blocks per SM limited by shared memory, registers and
//!   thread count) and its effect on achievable global bandwidth,
//! * **compute** and **atomic** operation counts,
//! * **kernel launch overhead**.
//!
//! The timing model is the paper's own (Section 7):
//! `T = max(T_global, T_shared, T_compute) + overhead`, with
//! `T_global = bytes / (B_G · eff(occupancy))` and
//! `T_shared = conflict-weighted bytes / B_S`.
//!
//! # Writing kernels
//!
//! A kernel implements [`Kernel::run_block`]; the body is organized into
//! *steps* (the code between `__syncthreads()` barriers). Within
//! [`BlockCtx::step`] the closure runs once per thread; its tracked
//! accesses are recorded with (warp, intra-thread slot) coordinates and
//! replayed warp-lockstep, which is exact for the data-independent access
//! patterns of sorting networks. Per-thread state that survives across
//! steps lives in kernel-owned arrays indexed by [`Lane::tid`] — the
//! moral equivalent of registers.
//!
//! Streaming kernels whose patterns are trivially coalesced (radix
//! histograms, scatter passes) can skip per-access tracking and charge
//! aggregate traffic through the `bulk_*` methods, which feed the same
//! counters.
//!
//! A kernel whose accesses do not depend on the data can declare its
//! contract exact by implementing [`Metered`]. A plain device then
//! charges its launches from the contract's prediction, memoized per
//! launch shape, and runs them on host memory; the lane path above
//! stays the reference whenever a sanitizer or lint capture is attached.

pub mod analysis;
pub mod block;
pub mod buffer;
pub mod device;
pub mod fault;
pub mod lint;
pub mod occupancy;
pub mod sanitize;
pub mod spec;
pub mod stats;
pub mod stream;
pub mod topology;
pub mod trace;

pub use analysis::{AnalysisReport, Finding, FindingKind, Severity, Source};
pub use block::{BlockCtx, Lane, SharedHandle};
pub use buffer::{DeviceCopy, GpuBuffer, MappedBuffer, TransparentWrapper};
pub use device::{
    Device, IngestRecord, Kernel, LaunchError, LaunchReport, LaunchWindow, MeterStats, Metered,
    OutOfMemory,
};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use lint::{
    AccessSpec, BufferDecl, BulkAccess, GlobalStream, LaunchGeometry, PhaseSpec, SharedEv,
    SharedStep,
};
pub use occupancy::Occupancy;
pub use spec::DeviceSpec;
pub use stats::{KernelStats, SimTime};
pub use stream::{Event, ScheduledLaunch, Stream, StreamId, StreamSchedule};
pub use topology::{Cluster, ClusterSpec, Endpoint, LinkSpec, Transfer, TransferError};
pub use trace::{chrome_trace, chrome_trace_streams};
