//! The simulated device: buffer allocation, kernel launch, and the
//! bandwidth-based timing model.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use crate::analysis::AnalysisReport;
use crate::block::BlockCtx;
use crate::buffer::{DeviceCopy, GpuBuffer};
use crate::fault::{attribute, EccTarget, FaultEvent, FaultKind, FaultPlan, FaultState};
use crate::lint::{self, AccessSpec, LaunchGeometry, PhaseSpec};
use crate::occupancy::Occupancy;
use crate::sanitize::LaunchSanitizer;
use crate::spec::DeviceSpec;
use crate::stats::{KernelStats, SimTime};
use crate::stream::{self, Stream, StreamId, StreamSchedule, WaitEdge};

/// A GPU kernel.
///
/// `run_block` is invoked once per block of the grid; blocks are
/// independent (no cross-block synchronization within a launch), exactly
/// as on real hardware.
pub trait Kernel {
    /// Kernel name for reports.
    fn name(&self) -> &'static str;

    /// Threads per block.
    fn block_dim(&self) -> usize;

    /// Blocks in the grid.
    fn grid_dim(&self) -> usize;

    /// Declared shared memory per block, bytes (drives occupancy and the
    /// launch-limit check).
    fn shared_bytes_per_block(&self) -> usize {
        0
    }

    /// Declared registers per thread (drives occupancy).
    fn regs_per_thread(&self) -> usize {
        32
    }

    /// Justification for a launch configuration whose occupancy the
    /// occupancy lint would otherwise flag (see [`crate::analysis`]).
    /// Kernels whose low occupancy is inherent to the algorithm — the
    /// paper's per-thread top-k trades resident warps for shared-memory
    /// heap capacity (Section 4.1) — return a reason; the lint is then
    /// recorded as waived instead of as a finding.
    fn low_occupancy_waiver(&self) -> Option<&'static str> {
        None
    }

    /// The kernel's declared access contract for static analysis (see
    /// [`crate::lint`]). `None` disables the spec-driven checks; the
    /// lint then only validates launch geometry and occupancy and
    /// records a `spec.missing` warning.
    fn access_spec(&self) -> Option<AccessSpec> {
        None
    }

    /// The kernel's metered form, when its contract is exact (see
    /// [`Metered`]). `None`, the default, always replays lanes.
    fn metered(&self) -> Option<&dyn Metered> {
        None
    }

    /// Executes one block.
    fn run_block(&self, blk: &mut BlockCtx);
}

/// A kernel whose declared contract is exact: its accesses do not depend
/// on the data, and its streamed contract predicts every counter the lane
/// replay measures (each barrier interval declares its compute ops).
///
/// [`Device::launch`] charges such a launch from that prediction, memoized
/// per launch shape, and runs it on host memory instead of through
/// per-lane closures. The lane path stays the reference: a device with a
/// sanitizer or lint capture attached replays lanes, and debug builds run
/// both paths on every metered launch and assert they agree.
pub trait Metered {
    /// Everything the prediction depends on besides the kernel name, the
    /// grid and block dims and the device: the schedule, the element sizes
    /// and the buffers' base addresses modulo 32. Launches with equal keys
    /// must predict equal counters.
    fn meter_key(&self) -> Vec<u64>;

    /// Streams the contract to `sink`, one barrier interval per piece, in
    /// launch order. [`AccessSpec::collect`] over it is the kernel's
    /// [`Kernel::access_spec`].
    fn contract(&self, sink: &mut dyn FnMut(PhaseSpec));

    /// Runs every block, in grid order, on host memory: writes exactly the
    /// elements the lane path writes, and charges nothing.
    fn run_host(&self);

    /// Runs the launch on both paths from the same starting contents:
    /// [`Metered::run_host`], then the lane path through `lanes`, which
    /// runs every block and returns the replayed counters. Panics unless
    /// both wrote the same elements; leaves the lane path's writes in
    /// place and returns its counters. Debug builds call this instead of
    /// `run_host`.
    fn run_both(&self, lanes: &mut dyn FnMut() -> KernelStats) -> KernelStats;
}

/// Launch shapes a device's meter memoizes; a full memo is cleared before
/// the next insert, so it stays bounded however long the device runs.
const METER_MEMO_CAP: usize = 256;

/// The shape of a metered launch: with the device's fixed spec, every
/// input of its prediction. Compared by equality, never by hash alone.
#[derive(PartialEq, Eq, Hash)]
struct MeterKey {
    kernel: &'static str,
    grid_dim: usize,
    block_dim: usize,
    words: Vec<u64>,
}

/// The meter's memo and its counters.
#[derive(Default)]
struct Meter {
    memo: HashMap<MeterKey, KernelStats>,
    launches: u64,
    hits: u64,
}

/// What a device's meter has done so far (see [`Device::meter_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeterStats {
    /// Launches charged from their contract instead of replayed.
    pub launches: u64,
    /// Of those, launches whose prediction was memoized.
    pub hits: u64,
    /// Launch shapes memoized now (at most 256).
    pub entries: usize,
}

/// Device memory exhaustion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes the failed allocation asked for.
    pub requested: usize,
    /// Bytes already allocated on the device.
    pub in_use: usize,
    /// Device memory capacity.
    pub capacity: usize,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory: requested {} B with {} B in use of {} B",
            self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Errors a launch can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The block's declared shared memory exceeds the per-block limit —
    /// the failure mode of per-thread top-k for k ≥ 512 (Section 6.2).
    SharedMemoryExceeded {
        /// Bytes of shared memory the kernel declared.
        requested: usize,
        /// The per-block limit.
        limit: usize,
    },
    /// Block dimension over the device limit.
    BlockTooLarge {
        /// Threads per block requested.
        requested: usize,
        /// The device's maximum.
        limit: usize,
    },
    /// Empty grid or block.
    EmptyLaunch,
    /// An injected transient device fault (see [`crate::fault`]): the
    /// launch was valid but the fault plan failed it before any block
    /// ran. Unlike the configuration errors above, retrying the same
    /// launch may succeed.
    DeviceFault {
        /// Kernel whose launch was failed.
        kernel: &'static str,
    },
    /// The device is permanently down (see [`crate::fault`]'s device-down
    /// failure domain and [`Device::mark_down`]): every launch on it is
    /// rejected and will keep being rejected. Non-transient — retrying
    /// cannot succeed; callers must fail over to another device.
    DeviceDown {
        /// Kernel whose launch was rejected.
        kernel: &'static str,
    },
}

impl LaunchError {
    /// True for faults a caller may sensibly retry ([`LaunchError::DeviceFault`]);
    /// the configuration errors are permanent for a given launch shape,
    /// and [`LaunchError::DeviceDown`] is permanent for the device itself.
    pub fn is_transient(&self) -> bool {
        matches!(self, LaunchError::DeviceFault { .. })
    }
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::SharedMemoryExceeded { requested, limit } => write!(
                f,
                "shared memory per block {requested} B exceeds device limit {limit} B"
            ),
            LaunchError::BlockTooLarge { requested, limit } => {
                write!(f, "block dim {requested} exceeds device limit {limit}")
            }
            LaunchError::EmptyLaunch => write!(f, "grid and block dims must be nonzero"),
            LaunchError::DeviceFault { kernel } => {
                write!(f, "injected device fault failed launch of `{kernel}`")
            }
            LaunchError::DeviceDown { kernel } => {
                write!(
                    f,
                    "device is permanently down; launch of `{kernel}` rejected"
                )
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// Everything known about one kernel launch: counters, occupancy, and the
/// modeled time decomposition.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Kernel name.
    pub name: &'static str,
    /// Stream the launch was issued on (0 = the default stream).
    pub stream: usize,
    /// Blocks launched.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Aggregated machine counters.
    pub stats: KernelStats,
    /// Residency of this configuration.
    pub occupancy: Occupancy,
    /// Time if the kernel were purely global-memory bound.
    pub t_global: SimTime,
    /// Time if purely shared-memory bound.
    pub t_shared: SimTime,
    /// Time if purely compute bound (includes atomics).
    pub t_compute: SimTime,
    /// Modeled kernel time: `max(t_global, t_shared, t_compute) + overhead`.
    pub time: SimTime,
    /// Static counter prediction from the kernel's [`AccessSpec`],
    /// populated only when the device's lint capture is enabled (see
    /// [`Device::enable_lint`]) and the kernel declares a spec.
    pub static_pred: Option<KernelStats>,
}

impl LaunchReport {
    /// Which resource the kernel is bound by.
    pub fn bound_by(&self) -> &'static str {
        if self.t_global.0 >= self.t_shared.0 && self.t_global.0 >= self.t_compute.0 {
            "global"
        } else if self.t_shared.0 >= self.t_compute.0 {
            "shared"
        } else {
            "compute"
        }
    }
}

/// Aggregate view over a window of launches — the per-run metric set the
/// benchmark harness records (total modeled time, merged machine
/// counters, and a time-weighted occupancy), retrievable from the plain
/// launch log without enabling the sanitizer.
#[derive(Debug, Clone, Default)]
pub struct LaunchWindow {
    /// Launches in the window.
    pub launches: usize,
    /// Total modeled time of the window's launches.
    pub time: SimTime,
    /// Machine counters merged across the window.
    pub stats: KernelStats,
    /// Occupancy averaged over launches, weighted by each launch's
    /// modeled time (0 when the window is empty).
    pub time_weighted_occupancy: f64,
    /// Static predictions summed across the window — `Some` only when
    /// every launch in the window carries one (lint capture was on and
    /// every kernel declared an [`AccessSpec`]).
    pub static_pred: Option<KernelStats>,
}

impl LaunchWindow {
    /// Aggregates a slice of launch reports — e.g. `TopKResult::reports`
    /// or a `Device::log_since` window.
    pub fn from_reports(reports: &[LaunchReport]) -> Self {
        let mut w = LaunchWindow {
            launches: reports.len(),
            ..LaunchWindow::default()
        };
        let mut occ_time = 0.0;
        let mut preds = KernelStats::default();
        let mut all_pred = !reports.is_empty();
        for r in reports {
            w.time += r.time;
            w.stats.merge(&r.stats);
            occ_time += r.occupancy.occupancy * r.time.seconds();
            match &r.static_pred {
                Some(p) => preds.merge(p),
                None => all_pred = false,
            }
        }
        if w.time.seconds() > 0.0 {
            w.time_weighted_occupancy = occ_time / w.time.seconds();
        }
        if all_pred {
            w.static_pred = Some(preds);
        }
        w
    }
}

pub(crate) struct DeviceInner {
    spec: DeviceSpec,
    mem_allocated: Cell<usize>,
    mem_highwater: Cell<usize>,
    next_base: Cell<u64>,
    log: RefCell<Vec<LaunchReport>>,
    /// Sum of `log`'s times, kept as launches are pushed so
    /// [`Device::total_time`] (read on every launch under a fault plan)
    /// costs O(1). Starts at +0, the empty [`SimTime`] sum.
    total_time: Cell<SimTime>,
    /// Stream subsequent launches are stamped with (set via
    /// [`Device::stream_scope`]).
    pub(crate) cur_stream: Cell<usize>,
    /// Next id handed out by [`Device::create_stream`].
    pub(crate) next_stream: Cell<usize>,
    /// Cross-stream ordering constraints recorded by events.
    pub(crate) waits: RefCell<Vec<WaitEdge>>,
    /// When set, every launch runs under the sanitizer.
    sanitize: Cell<bool>,
    /// When set, every launch plan is statically linted before the kernel
    /// runs (see [`crate::lint`]).
    lint: Cell<bool>,
    /// One report per launch that ran with either pass on, in launch
    /// order.
    analysis: RefCell<Vec<AnalysisReport>>,
    /// When set, launches and fallible allocations roll against this
    /// fault plan (see [`crate::fault`]).
    fault: RefCell<Option<FaultState>>,
    /// Every injected fault, in firing order.
    fault_events: RefCell<Vec<FaultEvent>>,
    /// Buffers opted in to ECC-corruption injection.
    ecc_targets: RefCell<Vec<EccTarget>>,
    /// Permanent device-down latch: set by a fault plan's down trigger
    /// or [`Device::mark_down`], never cleared (device loss is final).
    down: Cell<bool>,
    /// Host→device ingest transfers charged via [`Device::ingest_transfer`]
    /// (streaming appends), in charge order.
    ingests: RefCell<Vec<IngestRecord>>,
    /// Predicted counters of metered launches, by launch shape.
    meter: RefCell<Meter>,
}

/// One host→device ingest transfer charged against this device by a
/// streaming append (see [`Device::ingest_transfer`]). Single-device
/// tables have no [`crate::topology::Cluster`] to route transfers
/// through, so the device itself keeps this ledger; clustered appends
/// charge real [`crate::topology::Cluster::transfer`]s instead.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRecord {
    /// What was appended (e.g. `append:batch3`).
    pub label: String,
    /// Payload size on the wire.
    pub bytes: usize,
    /// Modeled PCIe 3.0 x16 transfer time for the payload.
    pub time: SimTime,
}

impl DeviceInner {
    pub(crate) fn claim_address_range(&self, bytes: usize) -> u64 {
        let base = self.next_base.get();
        // keep buffers 4 KiB-aligned and disjoint so sectors never alias
        let aligned = (bytes as u64).div_ceil(4096) * 4096 + 4096;
        self.next_base.set(base + aligned);
        base
    }

    pub(crate) fn acquire_bytes(&self, bytes: usize) {
        let cur = self.mem_allocated.get() + bytes;
        self.mem_allocated.set(cur);
        if cur > self.mem_highwater.get() {
            self.mem_highwater.set(cur);
        }
    }

    pub(crate) fn release_bytes(&self, bytes: usize) {
        self.mem_allocated.set(self.mem_allocated.get() - bytes);
    }

    pub(crate) fn log_len(&self) -> usize {
        self.log.borrow().len()
    }

    /// Analysis reports for launches stamped with `stream` (the hook
    /// `Stream::analysis_reports` uses).
    pub(crate) fn stream_analysis(&self, stream: usize) -> Vec<AnalysisReport> {
        self.analysis
            .borrow()
            .iter()
            .filter(|r| r.stream == stream)
            .cloned()
            .collect()
    }

    /// Fault events for launches stamped with `stream` (the hook
    /// `Stream::fault_events` uses).
    pub(crate) fn stream_fault_events(&self, stream: usize) -> Vec<FaultEvent> {
        self.fault_events
            .borrow()
            .iter()
            .filter(|e| e.stream == stream)
            .cloned()
            .collect()
    }

    /// Registers a buffer for ECC-corruption injection (the hook
    /// `GpuBuffer::tag_ecc` uses). Dead targets are pruned first so the
    /// registry stays bounded by the number of live tagged buffers.
    pub(crate) fn register_ecc_target(&self, target: EccTarget) {
        let mut targets = self.ecc_targets.borrow_mut();
        targets.retain(|t| (t.alive)());
        targets.push(target);
    }

    /// Rolls the launch-failure fault for `kernel`; true when the launch
    /// must fail with [`LaunchError::DeviceFault`].
    fn inject_launch_failure(&self, kernel: &'static str, block_dim: usize) -> bool {
        let mut fault = self.fault.borrow_mut();
        let Some(st) = fault.as_mut() else {
            return false;
        };
        let rate = st.plan.launch_failure_rate;
        let Some(w) = st.roll(rate) else {
            return false;
        };
        let (step, lane) = attribute(w, block_dim);
        self.fault_events.borrow_mut().push(FaultEvent {
            kind: FaultKind::LaunchFailure,
            kernel: kernel.to_string(),
            launch_index: self.log_len(),
            stream: self.cur_stream.get(),
            step,
            lane,
            target: None,
            detail: "launch failed before any block ran".to_string(),
        });
        true
    }

    /// Rolls the stream-stall fault; returns the modeled delay to add to
    /// the completed launch's time.
    fn inject_stall(&self, kernel: &'static str, block_dim: usize) -> Option<SimTime> {
        let mut fault = self.fault.borrow_mut();
        let st = fault.as_mut()?;
        let rate = st.plan.stall_rate;
        let w = st.roll(rate)?;
        let delay = st.plan.stall_delay;
        let (step, lane) = attribute(w, block_dim);
        self.fault_events.borrow_mut().push(FaultEvent {
            kind: FaultKind::StreamStall,
            kernel: kernel.to_string(),
            launch_index: self.log_len(),
            stream: self.cur_stream.get(),
            step,
            lane,
            target: None,
            detail: format!("stalled {delay}"),
        });
        Some(delay)
    }

    /// Rolls the ECC-corruption fault after a completed launch: one
    /// element of one live tagged buffer is overwritten with its default
    /// value. A no-op when no tagged buffer is alive.
    fn inject_corruption(&self, kernel: &'static str, block_dim: usize) {
        let w = {
            let mut fault = self.fault.borrow_mut();
            let Some(st) = fault.as_mut() else { return };
            let rate = st.plan.corruption_rate;
            let Some(w) = st.roll(rate) else { return };
            w
        };
        let mut targets = self.ecc_targets.borrow_mut();
        targets.retain(|t| (t.alive)());
        if targets.is_empty() {
            return;
        }
        let pick = (w as usize) % targets.len();
        let t = &targets[pick];
        let Some(elem) = (t.corrupt)(w >> 16) else {
            return;
        };
        let (step, lane) = attribute(w, block_dim);
        self.fault_events.borrow_mut().push(FaultEvent {
            kind: FaultKind::MemoryCorruption,
            kernel: kernel.to_string(),
            launch_index: self.log_len(),
            stream: self.cur_stream.get(),
            step,
            lane,
            target: Some(t.label.clone()),
            detail: format!("element {elem} reset to default"),
        });
    }

    /// Rolls the allocation-OOM fault; true when a fallible allocation
    /// of `bytes` must fail despite available capacity.
    fn inject_alloc_oom(&self, bytes: usize) -> bool {
        let mut fault = self.fault.borrow_mut();
        let Some(st) = fault.as_mut() else {
            return false;
        };
        let rate = st.plan.oom_rate;
        let Some(w) = st.roll(rate) else {
            return false;
        };
        let (step, lane) = attribute(w, 1);
        self.fault_events.borrow_mut().push(FaultEvent {
            kind: FaultKind::AllocOom,
            kernel: "alloc".to_string(),
            launch_index: self.log_len(),
            stream: self.cur_stream.get(),
            step,
            lane,
            target: None,
            detail: format!("allocation of {bytes} B failed"),
        });
        true
    }
}

/// The simulated GPU.
///
/// Owns the spec, tracks device-memory usage, and keeps a log of every
/// launch so multi-kernel algorithms can report end-to-end simulated time.
pub struct Device {
    inner: Rc<DeviceInner>,
}

impl Device {
    /// Creates a device with the given hardware parameters.
    pub fn new(spec: DeviceSpec) -> Self {
        Self {
            inner: Rc::new(DeviceInner {
                spec,
                mem_allocated: Cell::new(0),
                mem_highwater: Cell::new(0),
                next_base: Cell::new(0x1000),
                log: RefCell::new(Vec::new()),
                total_time: Cell::new(SimTime::ZERO),
                cur_stream: Cell::new(0),
                next_stream: Cell::new(1),
                waits: RefCell::new(Vec::new()),
                sanitize: Cell::new(false),
                lint: Cell::new(false),
                analysis: RefCell::new(Vec::new()),
                fault: RefCell::new(None),
                fault_events: RefCell::new(Vec::new()),
                ecc_targets: RefCell::new(Vec::new()),
                down: Cell::new(false),
                ingests: RefCell::new(Vec::new()),
                meter: RefCell::new(Meter::default()),
            }),
        }
    }

    /// The device the paper benchmarks on.
    pub fn titan_x() -> Self {
        Self::new(DeviceSpec::titan_x_maxwell())
    }

    /// The device's hardware parameters.
    pub fn spec(&self) -> &DeviceSpec {
        &self.inner.spec
    }

    /// Allocates a zero/default-initialized buffer of `n` elements.
    ///
    /// # Panics
    /// If device memory is exhausted — use [`Device::try_alloc`] for a
    /// recoverable path (the chunked out-of-core top-k does).
    pub fn alloc<T: DeviceCopy>(&self, n: usize) -> GpuBuffer<T> {
        self.alloc_uninjected(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible allocation respecting the device memory capacity. Also
    /// the injection point for [`crate::FaultPlan::oom_rate`] — only
    /// callers that already handle [`OutOfMemory`] see injected failures.
    pub fn try_alloc<T: DeviceCopy>(&self, n: usize) -> Result<GpuBuffer<T>, OutOfMemory> {
        self.injected_oom(n * std::mem::size_of::<T>())?;
        self.alloc_uninjected(n)
    }

    fn alloc_uninjected<T: DeviceCopy>(&self, n: usize) -> Result<GpuBuffer<T>, OutOfMemory> {
        self.check_capacity(n * std::mem::size_of::<T>())?;
        Ok(GpuBuffer::new(
            Rc::clone(&self.inner),
            vec![T::default(); n],
        ))
    }

    /// Allocates a buffer initialized from a host slice.
    ///
    /// # Panics
    /// On device memory exhaustion (see [`Device::try_upload`]).
    pub fn upload<T: DeviceCopy>(&self, host: &[T]) -> GpuBuffer<T> {
        self.upload_uninjected(host)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible upload respecting the device memory capacity; injected
    /// OOM faults fire here (see [`Device::try_alloc`]).
    pub fn try_upload<T: DeviceCopy>(&self, host: &[T]) -> Result<GpuBuffer<T>, OutOfMemory> {
        self.injected_oom(std::mem::size_of_val(host))?;
        self.upload_uninjected(host)
    }

    fn upload_uninjected<T: DeviceCopy>(&self, host: &[T]) -> Result<GpuBuffer<T>, OutOfMemory> {
        self.check_capacity(std::mem::size_of_val(host))?;
        Ok(GpuBuffer::new(Rc::clone(&self.inner), host.to_vec()))
    }

    /// Allocates a buffer filled with `v`.
    ///
    /// # Panics
    /// On device memory exhaustion.
    pub fn alloc_filled<T: DeviceCopy>(&self, n: usize, v: T) -> GpuBuffer<T> {
        self.check_capacity(n * std::mem::size_of::<T>())
            .unwrap_or_else(|e| panic!("{e}"));
        GpuBuffer::new(Rc::clone(&self.inner), vec![v; n])
    }

    /// Fallible fill-allocation; injected OOM faults fire here (see
    /// [`Device::try_alloc`]).
    pub fn try_alloc_filled<T: DeviceCopy>(
        &self,
        n: usize,
        v: T,
    ) -> Result<GpuBuffer<T>, OutOfMemory> {
        let bytes = n * std::mem::size_of::<T>();
        self.injected_oom(bytes)?;
        self.check_capacity(bytes)?;
        Ok(GpuBuffer::new(Rc::clone(&self.inner), vec![v; n]))
    }

    fn injected_oom(&self, bytes: usize) -> Result<(), OutOfMemory> {
        if self.inner.inject_alloc_oom(bytes) {
            return Err(OutOfMemory {
                requested: bytes,
                in_use: self.inner.mem_allocated.get(),
                capacity: self.inner.spec.global_mem_bytes,
            });
        }
        Ok(())
    }

    fn check_capacity(&self, bytes: usize) -> Result<(), OutOfMemory> {
        let in_use = self.inner.mem_allocated.get();
        let capacity = self.inner.spec.global_mem_bytes;
        if in_use + bytes > capacity {
            return Err(OutOfMemory {
                requested: bytes,
                in_use,
                capacity,
            });
        }
        Ok(())
    }

    /// Currently allocated device bytes.
    pub fn memory_allocated(&self) -> usize {
        self.inner.mem_allocated.get()
    }

    /// High-water mark of device memory over the device's lifetime (reset
    /// with [`Device::reset_memory_highwater`]).
    pub fn memory_highwater(&self) -> usize {
        self.inner.mem_highwater.get()
    }

    /// Resets the high-water mark to the current allocation.
    pub fn reset_memory_highwater(&self) {
        self.inner.mem_highwater.set(self.inner.mem_allocated.get());
    }

    /// Launches a kernel, executing every block and deriving modeled time.
    ///
    /// A [`Metered`] kernel runs on host memory and is charged from its
    /// contract, unless a sanitizer or lint capture is attached; every
    /// other launch replays its lanes. Both yield the same counters and
    /// the same memory contents.
    pub fn launch<K: Kernel>(&self, kernel: &K) -> Result<LaunchReport, LaunchError> {
        if self.is_down() {
            return Err(LaunchError::DeviceDown {
                kernel: kernel.name(),
            });
        }
        let spec = self.inner.spec;
        let block_dim = kernel.block_dim();
        let grid_dim = kernel.grid_dim();
        if block_dim == 0 || grid_dim == 0 {
            return Err(LaunchError::EmptyLaunch);
        }
        if block_dim > spec.max_threads_per_block {
            return Err(LaunchError::BlockTooLarge {
                requested: block_dim,
                limit: spec.max_threads_per_block,
            });
        }
        let shared = kernel.shared_bytes_per_block();
        if shared > spec.shared_mem_per_block {
            return Err(LaunchError::SharedMemoryExceeded {
                requested: shared,
                limit: spec.shared_mem_per_block,
            });
        }
        if self.inner.inject_launch_failure(kernel.name(), block_dim) {
            return Err(LaunchError::DeviceFault {
                kernel: kernel.name(),
            });
        }

        // static analysis runs on the launch *plan*, before any block
        // executes; it records findings + the counter prediction but
        // never changes the launch outcome (the planner is the reject
        // point, see crate::lint)
        let linted = self
            .lint_enabled()
            .then(|| lint::lint_kernel(&spec, kernel));
        let san = self
            .sanitizer_enabled()
            .then(|| Rc::new(RefCell::new(LaunchSanitizer::new(kernel.name()))));

        // sanitizer and lint runs check the lane path itself, so only a
        // plain device meters
        let metered = kernel
            .metered()
            .filter(|_| san.is_none() && linted.is_none());
        let stats = match metered {
            Some(m) => self.run_metered(kernel, m),
            None => self.run_lanes(kernel, san.as_ref()),
        };

        let occupancy = Occupancy::compute(&spec, block_dim, shared, kernel.regs_per_thread());
        let static_pred = linted.as_ref().and_then(|r| r.prediction);
        if linted.is_some() || san.is_some() {
            // one report per launch, holding every pass that ran
            let mut analysis = linted.unwrap_or_else(|| {
                AnalysisReport::new(kernel.name(), grid_dim, block_dim, occupancy)
            });
            analysis.stream = self.inner.cur_stream.get();
            if let Some(s) = san {
                Rc::try_unwrap(s)
                    .ok()
                    .expect("block contexts dropped; sanitizer uniquely owned")
                    .into_inner()
                    .finish(&mut analysis, kernel.low_occupancy_waiver());
            }
            self.inner.analysis.borrow_mut().push(analysis);
        }
        let mut report =
            self.report_from_stats(kernel.name(), grid_dim, block_dim, stats, occupancy);
        report.static_pred = static_pred;
        // fault rolls in a fixed order (stall, then corruption) so a plan
        // fires identically run to run
        if let Some(delay) = self.inner.inject_stall(kernel.name(), block_dim) {
            report.time += delay;
        }
        self.inner.inject_corruption(kernel.name(), block_dim);
        self.inner
            .total_time
            .set(self.inner.total_time.get() + report.time);
        self.inner.log.borrow_mut().push(report.clone());
        Ok(report)
    }

    /// Runs every block of `kernel` through the lane path, under `san`
    /// when given, and returns the replayed counters. The block context,
    /// and with it its handle on the sanitizer, is dropped on return.
    fn run_lanes<K: Kernel>(
        &self,
        kernel: &K,
        san: Option<&Rc<RefCell<LaunchSanitizer>>>,
    ) -> KernelStats {
        let grid_dim = kernel.grid_dim();
        let mut stats = KernelStats::default();
        let mut ctx = BlockCtx::new(self.inner.spec, 0, grid_dim, kernel.block_dim());
        if let Some(s) = san {
            ctx.set_sanitizer(Rc::clone(s));
        }
        for b in 0..grid_dim {
            if let Some(s) = san {
                s.borrow_mut().begin_block(b);
            }
            ctx.begin_block(b);
            kernel.run_block(&mut ctx);
            stats.merge(&ctx.take_stats());
        }
        stats
    }

    /// Charges a metered launch from its prediction, memoized per launch
    /// shape, and runs it on host memory. Debug builds also replay its
    /// lanes and assert both paths agree on counters and written elements.
    fn run_metered<K: Kernel>(&self, kernel: &K, m: &dyn Metered) -> KernelStats {
        let key = MeterKey {
            kernel: kernel.name(),
            grid_dim: kernel.grid_dim(),
            block_dim: kernel.block_dim(),
            words: m.meter_key(),
        };
        let memoized = {
            let mut meter = self.inner.meter.borrow_mut();
            meter.launches += 1;
            let hit = meter.memo.get(&key).copied();
            meter.hits += u64::from(hit.is_some());
            hit
        };
        let stats = memoized.unwrap_or_else(|| {
            let geom = LaunchGeometry::of(kernel);
            let pred = lint::predict_streamed(&self.inner.spec, &geom, |sink| m.contract(sink));
            let mut meter = self.inner.meter.borrow_mut();
            if meter.memo.len() >= METER_MEMO_CAP {
                meter.memo.clear();
            }
            meter.memo.insert(key, pred);
            pred
        });
        if cfg!(debug_assertions) {
            let replayed = m.run_both(&mut || self.run_lanes(kernel, None));
            debug_assert_eq!(
                stats,
                replayed,
                "metered launch of `{}` charged other counters than its lane replay",
                kernel.name()
            );
        } else {
            m.run_host();
        }
        stats
    }

    /// How many launches were metered (see [`Metered`]), how many of
    /// those found their prediction memoized, and how many launch shapes
    /// the memo holds.
    pub fn meter_stats(&self) -> MeterStats {
        let meter = self.inner.meter.borrow();
        MeterStats {
            launches: meter.launches,
            hits: meter.hits,
            entries: meter.memo.len(),
        }
    }

    /// Installs a fault plan: subsequent launches and fallible
    /// allocations roll against it (see [`crate::fault`]). Replaces any
    /// previous plan and restarts its RNG stream; collected events are
    /// kept. An all-zero plan never fires and draws no random words, so
    /// installing [`FaultPlan::none`] is behaviorally identical to no
    /// plan at all.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.inner.fault.borrow_mut() = Some(FaultState::new(plan));
    }

    /// Removes the fault plan; subsequent launches run fault-free.
    /// Collected events are kept.
    pub fn clear_fault_plan(&self) {
        *self.inner.fault.borrow_mut() = None;
    }

    /// True when a fault plan that can actually fire is installed.
    pub fn fault_plan_active(&self) -> bool {
        self.inner
            .fault
            .borrow()
            .as_ref()
            .is_some_and(|st| !st.plan.is_zero())
    }

    /// True when this device is permanently down — killed directly via
    /// [`Device::mark_down`] or lost to its fault plan's down trigger,
    /// which is evaluated here against the accumulated modeled launch
    /// time (no RNG words are drawn). The first call that observes a
    /// plan trigger records one [`FaultKind::DeviceDown`] event; the
    /// state never clears — device loss is final.
    pub fn is_down(&self) -> bool {
        if self.inner.down.get() {
            return true;
        }
        let due = self
            .inner
            .fault
            .borrow()
            .as_ref()
            .is_some_and(|st| st.down_due(self.total_time()));
        if due {
            self.transition_down("fault-plan down trigger fired");
        }
        due
    }

    /// Permanently kills this device: every subsequent launch fails with
    /// [`LaunchError::DeviceDown`] and interconnect transfers touching it
    /// are rejected at the link layer. The host-driven, deterministic
    /// counterpart of a fault plan's down trigger; irreversible.
    pub fn mark_down(&self) {
        self.transition_down("marked down by the host");
    }

    /// Latches the down state and records the one-time transition event.
    fn transition_down(&self, why: &str) {
        if self.inner.down.get() {
            return;
        }
        self.inner.down.set(true);
        self.inner.fault_events.borrow_mut().push(FaultEvent {
            kind: FaultKind::DeviceDown,
            kernel: "device".to_string(),
            launch_index: self.inner.log_len(),
            stream: self.inner.cur_stream.get(),
            step: 0,
            lane: 0,
            target: None,
            detail: why.to_string(),
        });
    }

    /// Snapshot of every injected fault so far, in firing order.
    pub fn fault_events(&self) -> Vec<FaultEvent> {
        self.inner.fault_events.borrow().clone()
    }

    /// Drains the collected fault events.
    pub fn take_fault_events(&self) -> Vec<FaultEvent> {
        std::mem::take(&mut *self.inner.fault_events.borrow_mut())
    }

    /// Number of fault events collected so far (use to window a drain:
    /// events at positions `>= start` belong to work issued after the
    /// snapshot).
    pub fn fault_events_len(&self) -> usize {
        self.inner.fault_events.borrow().len()
    }

    /// Rolls this device's fault plan against an interconnect transfer
    /// (see [`crate::topology`]): an endpoint whose plan fires its
    /// launch-failure rate drops the transfer. Records a
    /// [`FaultKind::LaunchFailure`] event labeled with the transfer.
    pub(crate) fn inject_transfer_failure(&self, label: &str) -> bool {
        let fired = {
            let mut fault = self.inner.fault.borrow_mut();
            let Some(st) = fault.as_mut() else {
                return false;
            };
            let rate = st.plan.launch_failure_rate;
            st.roll(rate)
        };
        let Some(w) = fired else {
            return false;
        };
        let (step, lane) = attribute(w, 1);
        self.inner.fault_events.borrow_mut().push(FaultEvent {
            kind: FaultKind::LaunchFailure,
            kernel: label.to_string(),
            launch_index: self.log_len(),
            stream: self.inner.cur_stream.get(),
            step,
            lane,
            target: None,
            detail: "interconnect transfer dropped".to_string(),
        });
        true
    }

    /// Rolls this device's fault plan for a transfer stall: the link op
    /// completes but its modeled time is inflated by the plan's stall
    /// delay (a retried DMA / congested switch).
    pub(crate) fn inject_transfer_stall(&self, label: &str) -> Option<SimTime> {
        let (w, delay) = {
            let mut fault = self.inner.fault.borrow_mut();
            let st = fault.as_mut()?;
            let rate = st.plan.stall_rate;
            let w = st.roll(rate)?;
            (w, st.plan.stall_delay)
        };
        let (step, lane) = attribute(w, 1);
        self.inner.fault_events.borrow_mut().push(FaultEvent {
            kind: FaultKind::StreamStall,
            kernel: label.to_string(),
            launch_index: self.log_len(),
            stream: self.inner.cur_stream.get(),
            step,
            lane,
            target: None,
            detail: format!("transfer stalled {delay}"),
        });
        Some(delay)
    }

    /// Enables the sanitizer (the dynamic analysis pass) for every
    /// subsequent launch on this device, including launches issued inside
    /// [`Device::stream_scope`], so batched/streamed serving traffic is
    /// covered. Each launch appends an [`AnalysisReport`] (see
    /// [`Device::analysis_since`]).
    pub fn enable_sanitizer(&self) {
        self.inner.sanitize.set(true);
    }

    /// Disables the sanitizer for subsequent launches. Collected reports
    /// are kept.
    pub fn disable_sanitizer(&self) {
        self.inner.sanitize.set(false);
    }

    /// True when launches currently run under the sanitizer.
    pub fn sanitizer_enabled(&self) -> bool {
        self.inner.sanitize.get()
    }

    /// Runs one launch under the sanitizer and returns its analysis
    /// report alongside the launch report — the per-launch enablement
    /// path.
    pub fn launch_sanitized<K: Kernel>(
        &self,
        kernel: &K,
    ) -> Result<(LaunchReport, AnalysisReport), LaunchError> {
        let was_enabled = self.sanitizer_enabled();
        if !was_enabled {
            self.enable_sanitizer();
        }
        let result = self.launch(kernel);
        if !was_enabled {
            self.disable_sanitizer();
        }
        let report = result?;
        let analysis = self
            .inner
            .analysis
            .borrow()
            .last()
            .cloned()
            .expect("sanitized launch must produce a report");
        Ok((report, analysis))
    }

    /// Enables static lint capture (the static analysis pass) for every
    /// subsequent launch: each launch plan is analyzed by
    /// [`lint::lint_kernel`] *before* its blocks run, appending an
    /// [`AnalysisReport`] and stamping the [`LaunchReport`] with the
    /// kernel's static counter prediction. Analysis only — the launch
    /// outcome is unchanged.
    pub fn enable_lint(&self) {
        self.inner.lint.set(true);
    }

    /// Disables static lint capture for subsequent launches. Collected
    /// reports are kept.
    pub fn disable_lint(&self) {
        self.inner.lint.set(false);
    }

    /// True when launch plans are currently captured by the static lint.
    pub fn lint_enabled(&self) -> bool {
        self.inner.lint.get()
    }

    /// Number of analysis reports collected so far (use with
    /// [`Device::analysis_since`]).
    pub fn analysis_len(&self) -> usize {
        self.inner.analysis.borrow().len()
    }

    /// The analysis reports collected after position `start` (0 for all),
    /// in launch order: one per launch that ran with the sanitizer or the
    /// lint on, holding the findings of both passes when both were.
    pub fn analysis_since(&self, start: usize) -> Vec<AnalysisReport> {
        self.inner.analysis.borrow()[start..].to_vec()
    }

    /// Drains the collected analysis reports.
    pub fn take_analysis(&self) -> Vec<AnalysisReport> {
        std::mem::take(&mut *self.inner.analysis.borrow_mut())
    }

    fn report_from_stats(
        &self,
        name: &'static str,
        grid_dim: usize,
        block_dim: usize,
        stats: KernelStats,
        occupancy: Occupancy,
    ) -> LaunchReport {
        let spec = &self.inner.spec;
        let bw_eff = occupancy.bandwidth_efficiency(spec).max(1e-3);
        let t_global = stats.global_bytes() as f64 / (spec.global_bw * bw_eff);
        let t_shared = stats.shared_eff_bytes as f64 / spec.shared_bw;
        let t_compute = (stats.compute_ops as f64 + stats.atomic_ops as f64 * spec.atomic_op_cost)
            / spec.compute_ops_per_sec;
        let t = t_global.max(t_shared).max(t_compute) + spec.launch_overhead;
        LaunchReport {
            name,
            stream: self.inner.cur_stream.get(),
            grid_dim,
            block_dim,
            stats,
            occupancy,
            t_global: SimTime(t_global),
            t_shared: SimTime(t_shared),
            t_compute: SimTime(t_compute),
            time: SimTime(t),
            static_pred: None,
        }
    }

    /// Charges one host→device ingest transfer of `bytes` against this
    /// device and records it in the ingest ledger. The modeled time uses
    /// the same PCIe 3.0 x16 link model the cluster topology prices
    /// host-staged hops with, so a single-device append costs exactly
    /// what the equivalent `Cluster::host_to_device` leg would.
    ///
    /// Streaming appends are the caller: uploading a delta of rows is
    /// real wire traffic even though buffer writes themselves are
    /// functional (untimed) in the simulator.
    pub fn ingest_transfer(&self, bytes: usize, label: impl Into<String>) -> SimTime {
        let time = SimTime(crate::topology::LinkSpec::pcie3_x16().seconds(bytes));
        self.inner.ingests.borrow_mut().push(IngestRecord {
            label: label.into(),
            bytes,
            time,
        });
        time
    }

    /// Snapshot of the ingest ledger, in charge order.
    pub fn ingest_log(&self) -> Vec<IngestRecord> {
        self.inner.ingests.borrow().clone()
    }

    /// Number of ingest transfers charged so far.
    pub fn ingest_len(&self) -> usize {
        self.inner.ingests.borrow().len()
    }

    /// Total modeled time of every charged ingest transfer.
    pub fn total_ingest_time(&self) -> SimTime {
        self.inner.ingests.borrow().iter().map(|r| r.time).sum()
    }

    /// Total modeled time of all launches since the last reset.
    pub fn total_time(&self) -> SimTime {
        self.inner.total_time.get()
    }

    /// Snapshot of the launch log.
    pub fn launch_log(&self) -> Vec<LaunchReport> {
        self.inner.log.borrow().clone()
    }

    /// Number of launches recorded so far (use with [`Device::log_since`]).
    pub fn log_len(&self) -> usize {
        self.inner.log.borrow().len()
    }

    /// The launches recorded after position `start` — how algorithms
    /// attribute launches (and simulated time) to one invocation.
    pub fn log_since(&self, start: usize) -> Vec<LaunchReport> {
        self.inner.log.borrow()[start..].to_vec()
    }

    /// Aggregated counters, modeled time and time-weighted occupancy for
    /// the launches recorded after position `start` (see
    /// [`LaunchWindow`]).
    pub fn window_since(&self, start: usize) -> LaunchWindow {
        LaunchWindow::from_reports(&self.inner.log.borrow()[start..])
    }

    /// Clears the launch log (typically between measured runs). Also
    /// drops recorded cross-stream wait edges, which reference log
    /// positions.
    pub fn reset_log(&self) {
        self.inner.log.borrow_mut().clear();
        self.inner.total_time.set(SimTime::ZERO);
        self.inner.waits.borrow_mut().clear();
    }

    /// Creates a new stream with a device-unique id. Launches issued
    /// inside [`Device::stream_scope`] for this stream share the device
    /// with launches on other streams when scheduled.
    pub fn create_stream(&self) -> Stream {
        let id = self.inner.next_stream.get();
        self.inner.next_stream.set(id + 1);
        Stream::new(Rc::clone(&self.inner), StreamId(id))
    }

    /// Runs `f` with the current stream set to `id`; every launch inside
    /// is stamped with that stream. Scopes nest and restore on exit.
    pub fn stream_scope<R>(&self, id: StreamId, f: impl FnOnce() -> R) -> R {
        let prev = self.inner.cur_stream.replace(id.0);
        let out = f();
        self.inner.cur_stream.set(prev);
        out
    }

    /// The stream new launches are currently stamped with.
    pub fn current_stream(&self) -> StreamId {
        StreamId(self.inner.cur_stream.get())
    }

    /// The launches recorded on one stream.
    pub fn stream_log(&self, id: StreamId) -> Vec<LaunchReport> {
        self.inner
            .log
            .borrow()
            .iter()
            .filter(|r| r.stream == id.0)
            .cloned()
            .collect()
    }

    /// Schedules the whole launch log onto the shared device timeline
    /// (see [`stream::schedule`] for the contention model).
    pub fn schedule(&self) -> StreamSchedule {
        self.schedule_since(0)
    }

    /// Schedules the launches recorded after position `start`. Wait
    /// edges whose source launches fall before `start` are treated as
    /// already satisfied.
    pub fn schedule_since(&self, start: usize) -> StreamSchedule {
        let log = self.inner.log.borrow();
        let waits = self.inner.waits.borrow();
        stream::schedule(&self.inner.spec, &log[start..], &waits, start)
    }
}

impl Default for Device {
    fn default() -> Self {
        Self::titan_x()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::SharedHandle;
    use crate::lint::{BufferDecl, GlobalStream};

    /// Doubles every element, grid-strided.
    struct DoubleKernel {
        data: GpuBuffer<f32>,
        grid: usize,
        block: usize,
    }

    impl Kernel for DoubleKernel {
        fn name(&self) -> &'static str {
            "double"
        }
        fn block_dim(&self) -> usize {
            self.block
        }
        fn grid_dim(&self) -> usize {
            self.grid
        }
        fn run_block(&self, blk: &mut BlockCtx) {
            let n = self.data.len();
            let total = self.grid * self.block;
            let mut iters = 0usize;
            let mut base = blk.block_idx * self.block;
            while base < n {
                iters += 1;
                base += total;
            }
            for it in 0..iters {
                blk.step(|l| {
                    let i = l.gtid() + it * total;
                    if i < n {
                        let v = l.gread(&self.data, i);
                        l.gwrite(&self.data, i, v * 2.0);
                        l.ops(1);
                    }
                });
            }
        }
    }

    #[test]
    fn launch_executes_and_times() {
        let dev = Device::titan_x();
        let data = dev.upload(&(0..1024).map(|i| i as f32).collect::<Vec<_>>());
        let k = DoubleKernel {
            data: data.clone(),
            grid: 4,
            block: 128,
        };
        let r = dev.launch(&k).unwrap();
        assert_eq!(data.get(10), 20.0);
        // 1024 × 4 B read + written once
        assert_eq!(r.stats.global_read_bytes, 4096);
        assert_eq!(r.stats.global_write_bytes, 4096);
        assert!(r.time.0 > 0.0);
        assert!(r.time.0 >= dev.spec().launch_overhead);
        assert_eq!(dev.launch_log().len(), 1);
        assert!(dev.total_time().0 >= r.time.0 * 0.99);
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let dev = Device::titan_x();
        let data = dev.upload(&[1.0f32; 32]);
        let k = DoubleKernel {
            data,
            grid: 1,
            block: 32,
        };
        let r = dev.launch(&k).unwrap();
        let oh = dev.spec().launch_overhead;
        assert!((r.time.0 - oh) / oh < 0.1, "tiny kernel ≈ pure overhead");
    }

    #[test]
    fn shared_limit_rejected() {
        struct BigShared;
        impl Kernel for BigShared {
            fn name(&self) -> &'static str {
                "big"
            }
            fn block_dim(&self) -> usize {
                32
            }
            fn grid_dim(&self) -> usize {
                1
            }
            fn shared_bytes_per_block(&self) -> usize {
                64 * 1024
            }
            fn run_block(&self, _b: &mut BlockCtx) {}
        }
        let dev = Device::titan_x();
        match dev.launch(&BigShared) {
            Err(LaunchError::SharedMemoryExceeded { requested, limit }) => {
                assert_eq!(requested, 64 * 1024);
                assert_eq!(limit, 48 * 1024);
            }
            other => panic!("expected SharedMemoryExceeded, got {other:?}"),
        }
    }

    #[test]
    fn block_too_large_rejected() {
        struct Wide;
        impl Kernel for Wide {
            fn name(&self) -> &'static str {
                "wide"
            }
            fn block_dim(&self) -> usize {
                2048
            }
            fn grid_dim(&self) -> usize {
                1
            }
            fn run_block(&self, _b: &mut BlockCtx) {}
        }
        assert!(matches!(
            Device::titan_x().launch(&Wide),
            Err(LaunchError::BlockTooLarge { .. })
        ));
    }

    #[test]
    fn memory_accounting_tracks_highwater() {
        let dev = Device::titan_x();
        assert_eq!(dev.memory_allocated(), 0);
        {
            let _a = dev.alloc::<f32>(1024); // 4 KiB
            let _b = dev.alloc::<f64>(1024); // 8 KiB
            assert_eq!(dev.memory_allocated(), 12 * 1024);
        }
        assert_eq!(dev.memory_allocated(), 0);
        assert_eq!(dev.memory_highwater(), 12 * 1024);
        dev.reset_memory_highwater();
        assert_eq!(dev.memory_highwater(), 0);
    }

    #[test]
    fn buffers_have_disjoint_address_ranges() {
        let dev = Device::titan_x();
        let a = dev.alloc::<f32>(10_000);
        let b = dev.alloc::<f32>(10_000);
        let a_end = a.base_addr() + (a.len() * 4) as u64;
        assert!(b.base_addr() >= a_end);
    }

    #[test]
    fn low_occupancy_degrades_bandwidth_timing() {
        // same traffic, but one kernel declares a huge shared footprint
        struct Streamer {
            data: GpuBuffer<f32>,
            shared: usize,
        }
        impl Kernel for Streamer {
            fn name(&self) -> &'static str {
                "streamer"
            }
            fn block_dim(&self) -> usize {
                64
            }
            fn grid_dim(&self) -> usize {
                4
            }
            fn shared_bytes_per_block(&self) -> usize {
                self.shared
            }
            fn run_block(&self, blk: &mut BlockCtx) {
                blk.bulk_global_read((self.data.len() * 4) as u64 / self.grid_dim() as u64);
            }
        }
        let dev = Device::titan_x();
        let data = dev.alloc::<f32>(1 << 20);
        let fast = dev
            .launch(&Streamer {
                data: data.clone(),
                shared: 0,
            })
            .unwrap();
        let slow = dev
            .launch(&Streamer {
                data,
                shared: 40 * 1024,
            })
            .unwrap();
        assert!(
            slow.time.0 > fast.time.0 * 1.5,
            "occupancy penalty missing: slow={} fast={}",
            slow.time,
            fast.time
        );
    }

    #[test]
    fn bound_by_classification() {
        let dev = Device::titan_x();
        struct Computey;
        impl Kernel for Computey {
            fn name(&self) -> &'static str {
                "computey"
            }
            fn block_dim(&self) -> usize {
                32
            }
            fn grid_dim(&self) -> usize {
                1
            }
            fn run_block(&self, blk: &mut BlockCtx) {
                blk.bulk_ops(1_000_000_000);
            }
        }
        let r = dev.launch(&Computey).unwrap();
        assert_eq!(r.bound_by(), "compute");
    }

    #[test]
    fn total_time_is_the_log_sum() {
        let log_sum = |dev: &Device| -> SimTime { dev.launch_log().iter().map(|r| r.time).sum() };
        let dev = Device::titan_x();
        assert_eq!(dev.total_time().0.to_bits(), log_sum(&dev).0.to_bits());
        let data = dev.upload(&(0..3000).map(|i| i as f32).collect::<Vec<_>>());
        let k = |grid| DoubleKernel {
            data: data.clone(),
            grid,
            block: 128,
        };
        for grid in [1, 3, 7] {
            dev.launch(&k(grid)).unwrap();
        }
        assert_eq!(dev.total_time().0.to_bits(), log_sum(&dev).0.to_bits());

        dev.set_fault_plan(FaultPlan {
            stall_rate: 1.0,
            stall_delay: SimTime(1.25e-4),
            ..FaultPlan::with_seed(3)
        });
        let stalled = dev.launch(&k(2)).unwrap();
        assert_eq!(dev.fault_events()[0].kind, FaultKind::StreamStall);
        assert_eq!(dev.launch_log().last().unwrap().time, stalled.time);
        assert_eq!(dev.total_time().0.to_bits(), log_sum(&dev).0.to_bits());

        dev.reset_log();
        assert_eq!(dev.total_time().0.to_bits(), log_sum(&dev).0.to_bits());
        dev.clear_fault_plan();
        dev.launch(&k(5)).unwrap();
        assert_eq!(dev.total_time().0.to_bits(), log_sum(&dev).0.to_bits());
    }

    #[test]
    fn launch_window_aggregates_counters_without_sanitizer() {
        let dev = Device::titan_x();
        let data = dev.upload(&(0..4096).map(|i| i as f32).collect::<Vec<_>>());
        let start = dev.log_len();
        for _ in 0..3 {
            dev.launch(&DoubleKernel {
                data: data.clone(),
                grid: 4,
                block: 128,
            })
            .unwrap();
        }
        assert!(!dev.sanitizer_enabled());
        let w = dev.window_since(start);
        assert_eq!(w.launches, 3);
        assert_eq!(w.stats.global_read_bytes, 3 * 4096 * 4);
        assert!((w.time.seconds() - dev.window_since(0).time.seconds()).abs() < 1e-15);
        assert!(w.time_weighted_occupancy > 0.0 && w.time_weighted_occupancy <= 1.0);
        // aggregating the same reports directly gives the same window
        let w2 = LaunchWindow::from_reports(&dev.log_since(start));
        assert_eq!(w2.launches, w.launches);
        assert_eq!(w2.stats, w.stats);
        // empty window: no launches, no time, occupancy 0
        let e = dev.window_since(dev.log_len());
        assert_eq!(e.launches, 0);
        assert_eq!(e.time_weighted_occupancy, 0.0);
    }

    /// Adds one to every element of `input` into `output`, one element
    /// per tracked lane. Metered; `tag` tells otherwise equal launch
    /// shapes apart.
    struct MeteredIncrement {
        input: GpuBuffer<u32>,
        output: GpuBuffer<u32>,
        grid: usize,
        tag: u64,
    }

    impl MeteredIncrement {
        fn new(dev: &Device, grid: usize, tag: u64) -> Self {
            let n = grid as u32 * 32;
            MeteredIncrement {
                input: dev.upload(&(0..n).map(|i| i * 7 % 13).collect::<Vec<_>>()),
                output: dev.alloc(grid * 32),
                grid,
                tag,
            }
        }

        fn stream(&self, label: &'static str, buf: &GpuBuffer<u32>, write: bool) -> GlobalStream {
            GlobalStream {
                buf: BufferDecl::of(label, buf),
                write,
                base: 0,
                lane_stride: 1,
                slot_stride: 0,
                slots: 1,
                block_stride: 32,
                active: 32,
                bound: None,
            }
        }
    }

    impl Kernel for MeteredIncrement {
        fn name(&self) -> &'static str {
            "metered_increment"
        }
        fn block_dim(&self) -> usize {
            32
        }
        fn grid_dim(&self) -> usize {
            self.grid
        }
        fn access_spec(&self) -> Option<AccessSpec> {
            Some(AccessSpec::collect(|sink| self.contract(sink)))
        }
        fn metered(&self) -> Option<&dyn Metered> {
            Some(self)
        }
        fn run_block(&self, blk: &mut BlockCtx) {
            blk.step(|l| {
                let i = l.gtid();
                let v = l.gread(&self.input, i);
                l.gwrite(&self.output, i, v + 1);
                l.ops(2);
            });
        }
    }

    impl Metered for MeteredIncrement {
        fn meter_key(&self) -> Vec<u64> {
            vec![
                self.tag,
                self.input.base_addr() % 32,
                self.output.base_addr() % 32,
            ]
        }
        fn contract(&self, sink: &mut dyn FnMut(PhaseSpec)) {
            sink(PhaseSpec {
                name: "increment".into(),
                globals: vec![
                    self.stream("input", &self.input, false),
                    self.stream("output", &self.output, true),
                ],
                shared_steps: vec![crate::SharedStep {
                    lanes: Vec::new(),
                    ops: 2 * 32,
                }],
                ..PhaseSpec::default()
            });
        }
        fn run_host(&self) {
            let mut v = self.input.read_range(0..self.grid * 32);
            v.iter_mut().for_each(|x| *x += 1);
            self.output.write_range(0, &v);
        }
        fn run_both(&self, lanes: &mut dyn FnMut() -> KernelStats) -> KernelStats {
            let before = self.output.to_vec();
            self.run_host();
            let host = self.output.to_vec();
            self.output.upload(&before);
            let stats = lanes();
            assert_eq!(self.output.to_vec(), host, "paths wrote different elements");
            stats
        }
    }

    #[test]
    fn metered_launch_charges_what_the_lanes_replay() {
        let metered = Device::titan_x();
        let replayed = Device::titan_x();
        replayed.enable_lint();
        let (a, b) = (
            MeteredIncrement::new(&metered, 5, 0),
            MeteredIncrement::new(&replayed, 5, 0),
        );
        let ra = metered.launch(&a).unwrap();
        let rb = replayed.launch(&b).unwrap();
        assert_eq!(ra.stats, rb.stats);
        assert_eq!(ra.time.0.to_bits(), rb.time.0.to_bits());
        assert_eq!(rb.static_pred, Some(rb.stats), "the contract is exact");
        assert_eq!(ra.stats.steps, 5);
        assert_eq!(ra.stats.compute_ops, 5 * 64);
        assert_eq!(a.output.to_vec(), b.output.to_vec());
        assert_eq!(a.output.get(33), b.input.get(33) + 1);
        // the lint-capture device replayed; the plain one metered
        assert_eq!(replayed.meter_stats().launches, 0);
        assert_eq!(metered.meter_stats().launches, 1);
        // a second launch of the same shape is charged from the memo
        metered.launch(&a).unwrap();
        assert_eq!(
            metered.meter_stats(),
            MeterStats {
                launches: 2,
                hits: 1,
                entries: 1
            }
        );
        // a sanitizer needs the lane path too
        let (_, srep) = metered.launch_sanitized(&a).unwrap();
        assert!(srep.is_clean(), "{}", srep.render());
        assert_eq!(metered.meter_stats().launches, 2);
    }

    #[test]
    fn meter_memo_stays_bounded() {
        let dev = Device::titan_x();
        let k = MeteredIncrement::new(&dev, 1, 0);
        for tag in 0..10 * METER_MEMO_CAP as u64 {
            dev.launch(&MeteredIncrement {
                input: k.input.clone(),
                output: k.output.clone(),
                grid: 1,
                tag,
            })
            .unwrap();
            assert!(dev.meter_stats().entries <= METER_MEMO_CAP);
        }
        let st = dev.meter_stats();
        assert_eq!(st.launches, 10 * METER_MEMO_CAP as u64);
        assert_eq!(st.hits, 0, "every shape was new");
        assert_eq!(st.entries, METER_MEMO_CAP);
    }

    #[test]
    fn shared_handle_len() {
        let mut ctx = BlockCtx::new(DeviceSpec::titan_x_maxwell(), 0, 1, 32);
        let h: SharedHandle<u32> = ctx.alloc_shared(48);
        assert_eq!(h.len(), 48);
        assert!(!h.is_empty());
    }
}
