//! `simt::lint` — static launch-plan analysis.
//!
//! Where [`crate::sanitize`] *observes* a kernel's behavior by executing
//! it under instrumentation, this module *predicts* it before a single
//! simulated step runs. Each kernel declares an [`AccessSpec`] contract —
//! per-phase global access strides, the shared-memory words each lane
//! touches per barrier interval, barrier placement relative to divergent
//! branches, and index expressions in grid-geometry terms — and the
//! analyzer:
//!
//! * checks **launch validity** against the [`DeviceSpec`] (block size,
//!   shared memory per block, register file),
//! * computes a **static occupancy bound** (and flags configurations
//!   below the threshold unless the kernel carries a waiver),
//! * predicts **every [`KernelStats`] counter** from the declared strides
//!   and per-interval compute, with the exact integer arithmetic the
//!   simulator's replay uses — so predictions can be cross-checked
//!   bit-for-bit against measured counters, and a kernel whose contract
//!   is exact can be charged from it instead of replayed (see
//!   [`crate::Metered`]),
//! * **proves in-bounds access** for static index expressions (including
//!   k-padding sentinel slots), and
//! * flags **barrier-in-divergent-branch** hazards declared by the
//!   contract.
//!
//! Every finding carries kernel/phase attribution and a typed severity.
//!
//! # The prediction model
//!
//! The simulator replays tracked accesses grouped by (warp,
//! intra-thread event slot); see `block.rs`. The spec mirrors that:
//! a [`GlobalStream`] describes one strided family of per-lane global
//! accesses (one slot per stream iteration), and a [`SharedStep`]
//! carries the per-lane ordered shared word accesses of one barrier
//! interval. Global and shared events are evaluated with independent
//! slot numbering, which is exact whenever every lane of a warp
//! interleaves the two classes identically (lanes that exit a guarded
//! loop early simply truncate their streams) — true for all shipped
//! kernels and enforced empirically by the sanitizer cross-check gate.
//!
//! Specs describe block 0; shared geometry never depends on the block
//! index, and global streams carry an explicit per-block element stride.
//! When a block's address shift is sector-aligned the evaluator scales
//! block 0 by `grid_dim`; otherwise it walks every block.

use crate::buffer::{DeviceCopy, GpuBuffer};
use crate::device::Kernel;
use crate::occupancy::Occupancy;
pub use crate::sanitize::Severity;
use crate::sanitize::{
    MAX_SECTORS_PER_ACCESS, MIN_ACCESSES_FOR_COALESCING, MIN_BANK_CONFLICT_DEGREE, MIN_OCCUPANCY,
};
use crate::spec::DeviceSpec;
use crate::stats::KernelStats;

/// The class of defect a [`LintFinding`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// Zero grid or block dimension.
    EmptyLaunch,
    /// Block dimension over the device maximum.
    BlockTooLarge,
    /// Declared shared memory over the per-block limit.
    SharedMemExceeded,
    /// Declared registers leave no schedulable block on an SM (or exceed
    /// the per-thread architectural cap).
    RegsExceeded,
    /// Static occupancy bound below the threshold, with no waiver.
    LowOccupancy,
    /// A warp/slot group's declared strides predict poor coalescing.
    UncoalescedGlobal,
    /// Declared shared strides predict a bank-conflict degree at or
    /// above the threshold.
    BankConflict,
    /// A static index expression reaches past the end of its buffer.
    GlobalOutOfBounds,
    /// A declared shared word lies past the declared allocation.
    SharedOutOfBounds,
    /// The contract declares a barrier inside a divergent branch.
    BarrierInDivergence,
    /// Static prediction disagrees with dynamic sanitizer measurement.
    SpecMismatch,
    /// The kernel declares no [`AccessSpec`]; only launch validity and
    /// occupancy were checked.
    SpecMissing,
}

impl LintKind {
    /// Hard (must-not-launch) findings are errors; advisory predictions
    /// are warnings.
    pub fn severity(&self) -> Severity {
        match self {
            LintKind::EmptyLaunch
            | LintKind::BlockTooLarge
            | LintKind::SharedMemExceeded
            | LintKind::RegsExceeded
            | LintKind::GlobalOutOfBounds
            | LintKind::SharedOutOfBounds
            | LintKind::BarrierInDivergence
            | LintKind::SpecMismatch => Severity::Error,
            LintKind::LowOccupancy
            | LintKind::UncoalescedGlobal
            | LintKind::BankConflict
            | LintKind::SpecMissing => Severity::Warning,
        }
    }

    /// Stable dotted identifier (`area.check`) used in rendered and JSON
    /// output.
    pub fn code(&self) -> &'static str {
        match self {
            LintKind::EmptyLaunch => "launch.empty",
            LintKind::BlockTooLarge => "launch.block-too-large",
            LintKind::SharedMemExceeded => "launch.shared-mem-exceeded",
            LintKind::RegsExceeded => "launch.regs-exceeded",
            LintKind::LowOccupancy => "occupancy.low",
            LintKind::UncoalescedGlobal => "coalesce.uncoalesced-global",
            LintKind::BankConflict => "bank.conflict",
            LintKind::GlobalOutOfBounds => "bounds.global-oob",
            LintKind::SharedOutOfBounds => "bounds.shared-oob",
            LintKind::BarrierInDivergence => "barrier.divergent",
            LintKind::SpecMismatch => "spec.mismatch",
            LintKind::SpecMissing => "spec.missing",
        }
    }
}

/// One static-analysis diagnostic with kernel/phase attribution.
#[derive(Debug, Clone)]
pub struct LintFinding {
    /// What was detected.
    pub kind: LintKind,
    /// Kernel the launch plan belongs to.
    pub kernel: String,
    /// Phase of the declared contract the finding is attributed to
    /// (empty for launch-wide findings like occupancy).
    pub phase: String,
    /// Human-readable explanation.
    pub detail: String,
}

impl LintFinding {
    /// Error/warning classification (delegates to the kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl std::fmt::Display for LintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} `{}`",
            self.kind.code(),
            match self.severity() {
                Severity::Error => "ERROR",
                Severity::Warning => "WARN",
            },
            self.kernel,
        )?;
        if !self.phase.is_empty() {
            write!(f, " phase `{}`", self.phase)?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// True when a static prediction's derived metrics bit-match a measured
/// launch — the cross-check contract with the replay's counters. A
/// prediction is a whole [`KernelStats`]; for tracked kernels whose
/// barrier intervals declare their compute ops every counter matches,
/// so this check is implied. Bulk (`bulk_*`) traffic is mirrored
/// statically with the replay's own arithmetic (perfectly coalesced
/// sectors, no lane accesses, no conflict cycles) but its compute is
/// not declared, so for streaming kernels only the derived metrics
/// agree — both per launch and when launch windows aggregate bulk and
/// tracked kernels together — as long as each declared [`BulkAccess`]
/// charges exactly the bytes it declares.
pub fn matches(pred: &KernelStats, stats: &KernelStats) -> bool {
    pred.sectors_per_access().to_bits() == stats.sectors_per_access().to_bits()
        && pred.avg_conflict_degree().to_bits() == stats.avg_conflict_degree().to_bits()
}

/// A global buffer as the contract sees it: enough to resolve element
/// indices to simulated device addresses and prove bounds.
#[derive(Debug, Clone)]
pub struct BufferDecl {
    /// Role of the buffer in the kernel (e.g. `"input"`).
    pub label: &'static str,
    /// Simulated device address of element 0.
    pub base_addr: u64,
    /// Elements in the buffer.
    pub len: usize,
    /// Size of one element in bytes.
    pub elem_bytes: usize,
}

impl BufferDecl {
    /// Declares `buf` under `label`.
    pub fn of<T: DeviceCopy>(label: &'static str, buf: &GpuBuffer<T>) -> Self {
        BufferDecl {
            label,
            base_addr: buf.base_addr(),
            len: buf.len(),
            elem_bytes: std::mem::size_of::<T>(),
        }
    }
}

/// One strided family of per-lane tracked global accesses.
///
/// In block `b`, lane `t` accesses element
/// `base + b·block_stride + t·lane_stride + s·slot_stride`
/// for each slot `s < slots`, provided `t < active` and (when `bound` is
/// set) `t·lane_stride + s·slot_stride < bound`. Each slot is one
/// warp-replay group, exactly as the simulator coalesces.
#[derive(Debug, Clone)]
pub struct GlobalStream {
    /// The buffer accessed.
    pub buf: BufferDecl,
    /// True for writes.
    pub write: bool,
    /// Element index of lane 0, slot 0, block 0.
    pub base: usize,
    /// Element stride between adjacent lanes.
    pub lane_stride: usize,
    /// Element stride between consecutive slots of one lane.
    pub slot_stride: usize,
    /// Slots (stream iterations) per lane.
    pub slots: usize,
    /// Element stride between consecutive blocks.
    pub block_stride: usize,
    /// Lanes `0..active` participate.
    pub active: usize,
    /// When set, a lane skips slots whose in-block offset
    /// `t·lane_stride + s·slot_stride` reaches this bound (a guarded
    /// tail loop).
    pub bound: Option<usize>,
}

/// One shared access of one lane within a barrier interval.
#[derive(Debug, Clone, Copy)]
pub struct SharedEv {
    /// First 4-byte shared word touched.
    pub word: u32,
    /// Consecutive words covered (multi-word elements).
    pub words: u32,
    /// True for writes.
    pub write: bool,
}

/// One barrier interval (one `step()` call): the per-lane ordered shared
/// accesses and the block's compute. Entry `t` of `lanes` is lane `t`'s
/// stream; lanes past the end of the vector (or with empty streams)
/// touch nothing. The i-th event of each lane forms one warp-replay
/// group, exactly as the simulator banks shared traffic.
#[derive(Debug, Clone, Default)]
pub struct SharedStep {
    /// Per-lane event streams, indexed by thread id within the block.
    pub lanes: Vec<Vec<SharedEv>>,
    /// Scalar-op equivalents all lanes of one block charge in this
    /// interval (the sum of their `Lane::ops` calls).
    pub ops: u64,
}

/// Aggregate traffic declared without per-lane addresses: streaming
/// kernels charge bulk bytes, so the statically checkable properties
/// are the element count against the buffer length (bounds) and the
/// perfectly coalesced sector/byte totals the replay will charge for
/// the same bytes. Lane-level accesses and conflicts stay untracked —
/// the contract is that the kernel charges exactly `elems × elem_bytes`
/// bytes in one `bulk_global_read`/`bulk_global_write` call per entry.
#[derive(Debug, Clone)]
pub struct BulkAccess {
    /// The buffer accessed.
    pub buf: BufferDecl,
    /// Worst-case elements touched.
    pub elems: usize,
    /// True for writes.
    pub write: bool,
}

/// One phase of the declared contract — a named group of barrier
/// intervals with uniform access structure.
///
/// A phase may also be one *piece* of a streamed contract (see
/// [`AccessSpec::collect`]): a kernel that emits its contract interval
/// by interval sends consecutive pieces of one phase under one name.
#[derive(Debug, Clone, Default)]
pub struct PhaseSpec {
    /// Phase name for attribution (e.g. `"load"`, `"merge"`).
    pub name: String,
    /// When set, the contract declares a `step()` barrier inside a
    /// divergent branch; the string describes the divergence. On real
    /// hardware `__syncthreads()` under divergence deadlocks or leaves
    /// the barrier count undefined — a hard error.
    pub divergent_barrier: Option<String>,
    /// Tracked global access families of this phase.
    pub globals: Vec<GlobalStream>,
    /// Tracked shared accesses, one entry per barrier interval.
    pub shared_steps: Vec<SharedStep>,
    /// Untracked bulk traffic (bounds documentation only).
    pub bulk: Vec<BulkAccess>,
}

impl PhaseSpec {
    /// An empty named phase.
    pub fn named(name: impl Into<String>) -> Self {
        PhaseSpec {
            name: name.into(),
            ..PhaseSpec::default()
        }
    }

    /// A phase that only charges bulk traffic.
    pub fn bulk_only(name: impl Into<String>, bulk: Vec<BulkAccess>) -> Self {
        PhaseSpec {
            name: name.into(),
            bulk,
            ..PhaseSpec::default()
        }
    }

    /// Appends a later piece of the same phase.
    fn absorb(&mut self, piece: PhaseSpec) {
        if self.divergent_barrier.is_none() {
            self.divergent_barrier = piece.divergent_barrier;
        }
        self.globals.extend(piece.globals);
        self.shared_steps.extend(piece.shared_steps);
        self.bulk.extend(piece.bulk);
    }
}

/// A kernel's declared access contract (see module docs). The contract
/// describes block 0; per-block global shifts come from each stream's
/// `block_stride`, and shared geometry is block-invariant by
/// construction. Lane-dependent quantities assume the 32-lane warps
/// every shipped [`DeviceSpec`] uses.
#[derive(Debug, Clone, Default)]
pub struct AccessSpec {
    /// The phases of the kernel, in execution order.
    pub phases: Vec<PhaseSpec>,
}

impl AccessSpec {
    /// A contract consisting only of bulk-traffic phases — the shape
    /// streaming kernels (histograms, scatters) declare.
    pub fn bulk(name: impl Into<String>, bulk: Vec<BulkAccess>) -> Self {
        AccessSpec {
            phases: vec![PhaseSpec::bulk_only(name, bulk)],
        }
    }

    /// Collects a contract that `emit` streams piece by piece (see
    /// [`crate::Metered::contract`]): consecutive pieces that share a
    /// phase name become one phase.
    pub fn collect(emit: impl FnOnce(&mut dyn FnMut(PhaseSpec))) -> Self {
        let mut phases: Vec<PhaseSpec> = Vec::new();
        emit(&mut |piece: PhaseSpec| match phases.last_mut() {
            Some(last) if last.name == piece.name => last.absorb(piece),
            _ => phases.push(piece),
        });
        AccessSpec { phases }
    }
}

/// The launch-shape facts the validity and occupancy checks need —
/// obtainable from a [`Kernel`] or constructed directly by planners
/// that have no kernel object yet.
#[derive(Debug, Clone)]
pub struct LaunchGeometry {
    /// Kernel name for attribution.
    pub name: String,
    /// Blocks in the grid.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Declared shared memory per block, bytes.
    pub shared_bytes_per_block: usize,
    /// Declared registers per thread.
    pub regs_per_thread: usize,
    /// Low-occupancy waiver, if the kernel declares one.
    pub low_occupancy_waiver: Option<&'static str>,
}

impl LaunchGeometry {
    /// Extracts the geometry of a kernel object.
    pub fn of<K: Kernel + ?Sized>(kernel: &K) -> Self {
        LaunchGeometry {
            name: kernel.name().to_string(),
            grid_dim: kernel.grid_dim(),
            block_dim: kernel.block_dim(),
            shared_bytes_per_block: kernel.shared_bytes_per_block(),
            regs_per_thread: kernel.regs_per_thread(),
            low_occupancy_waiver: kernel.low_occupancy_waiver(),
        }
    }
}

/// Per-phase evaluation summary, kept on the report for rendering.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name.
    pub name: String,
    /// Predicted counters contributed by this phase (whole grid).
    pub pred: KernelStats,
    /// Worst predicted coalescing group: (sectors, accesses).
    pub worst_global_group: Option<(u64, u64)>,
    /// Worst predicted bank-conflict degree over the phase's groups
    /// (1 when conflict-free or no shared traffic).
    pub max_bank_degree: u64,
}

/// Everything the static analyzer derived from one launch plan.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Kernel name.
    pub kernel: String,
    /// Blocks in the launch plan.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Findings, errors first.
    pub findings: Vec<LintFinding>,
    /// Lints suppressed by an explicit kernel waiver, with the reason.
    pub waived: Vec<String>,
    /// The static occupancy bound.
    pub occupancy: Occupancy,
    /// Predicted counters (None when the kernel declares no spec).
    pub prediction: Option<KernelStats>,
    /// Per-phase evaluation summaries (empty without a spec).
    pub phases: Vec<PhaseReport>,
}

impl LintReport {
    /// True when nothing was found (waived lints do not count).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of hard (error) findings.
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity() == Severity::Error)
            .count()
    }

    /// Number of advisory (warning) findings.
    pub fn warning_count(&self) -> usize {
        self.findings.len() - self.error_count()
    }

    /// The findings of one kind.
    pub fn findings_of(&self, kind: LintKind) -> Vec<&LintFinding> {
        self.findings.iter().filter(|f| f.kind == kind).collect()
    }

    /// True when a finding of `kind` is present.
    pub fn has(&self, kind: LintKind) -> bool {
        self.findings.iter().any(|f| f.kind == kind)
    }

    /// Human-readable report, one finding per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "========= simt-lint: `{}` (grid {} × block {}) =========\n",
            self.kernel, self.grid_dim, self.block_dim
        );
        out.push_str(&format!(
            "  occupancy bound: {:.3} ({:?}-limited)\n",
            self.occupancy.occupancy, self.occupancy.limiter
        ));
        if let Some(p) = &self.prediction {
            out.push_str(&format!(
                "  predicted: sectors/access {:.4}, conflict degree {:.4}\n",
                p.sectors_per_access(),
                p.avg_conflict_degree()
            ));
        }
        if self.is_clean() {
            out.push_str("  clean: no findings\n");
        } else {
            out.push_str(&format!(
                "  {} error(s), {} warning(s)\n",
                self.error_count(),
                self.warning_count()
            ));
            for f in &self.findings {
                out.push_str(&format!("  {f}\n"));
            }
        }
        for w in &self.waived {
            out.push_str(&format!("  waived: {w}\n"));
        }
        out
    }

    /// The report as a JSON object (hand-rolled; the workspace has no
    /// serde).
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    r#"{{"kind":"{}","severity":"{}","kernel":"{}","phase":"{}","detail":"{}"}}"#,
                    f.kind.code(),
                    match f.severity() {
                        Severity::Error => "error",
                        Severity::Warning => "warning",
                    },
                    json_escape(&f.kernel),
                    json_escape(&f.phase),
                    json_escape(&f.detail),
                )
            })
            .collect();
        let waived: Vec<String> = self
            .waived
            .iter()
            .map(|w| format!(r#""{}""#, json_escape(w)))
            .collect();
        let pred = match &self.prediction {
            Some(p) => format!(
                r#"{{"sectors_per_access":{},"conflict_degree":{},"global_sectors":{},"global_accesses":{},"shared_eff_bytes":{},"shared_conflict_cycles":{}}}"#,
                p.sectors_per_access(),
                p.avg_conflict_degree(),
                p.global_sectors,
                p.global_accesses,
                p.shared_eff_bytes,
                p.shared_conflict_cycles
            ),
            None => "null".to_string(),
        };
        format!(
            r#"{{"kernel":"{}","grid_dim":{},"block_dim":{},"occupancy":{},"errors":{},"warnings":{},"prediction":{},"findings":[{}],"waived":[{}]}}"#,
            json_escape(&self.kernel),
            self.grid_dim,
            self.block_dim,
            self.occupancy.occupancy,
            self.error_count(),
            self.warning_count(),
            pred,
            findings.join(","),
            waived.join(",")
        )
    }
}

impl std::fmt::Display for LintReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Serializes a batch of lint reports as one JSON array — the artifact
/// format the CI lint sweep uploads.
pub fn reports_to_json(reports: &[LintReport]) -> String {
    let items: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
    format!("[{}]", items.join(","))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Lints launch validity and occupancy from geometry alone — the entry
/// point for planners that have no kernel object yet (the cost model
/// rejects hard-failing configurations before anything is built). The
/// advisory lints fire at the sanitizer's thresholds
/// ([`crate::sanitize::MIN_OCCUPANCY`] and its siblings), so the static
/// pass and the dynamic sanitizer agree on what counts as a finding.
pub fn lint_geometry(spec: &DeviceSpec, geom: &LaunchGeometry) -> LintReport {
    let mut findings = Vec::new();
    let mut waived = Vec::new();
    let launch_wide = |kind: LintKind, detail: String| LintFinding {
        kind,
        kernel: geom.name.clone(),
        phase: String::new(),
        detail,
    };
    if geom.grid_dim == 0 || geom.block_dim == 0 {
        findings.push(launch_wide(
            LintKind::EmptyLaunch,
            format!(
                "grid {} × block {}: both dimensions must be nonzero",
                geom.grid_dim, geom.block_dim
            ),
        ));
    }
    if geom.block_dim > spec.max_threads_per_block {
        findings.push(launch_wide(
            LintKind::BlockTooLarge,
            format!(
                "block dim {} exceeds device limit {}",
                geom.block_dim, spec.max_threads_per_block
            ),
        ));
    }
    if geom.shared_bytes_per_block > spec.shared_mem_per_block {
        findings.push(launch_wide(
            LintKind::SharedMemExceeded,
            format!(
                "shared memory {} B exceeds per-block limit {} B",
                geom.shared_bytes_per_block, spec.shared_mem_per_block
            ),
        ));
    }
    if geom.regs_per_thread > spec.max_regs_per_thread {
        findings.push(launch_wide(
            LintKind::RegsExceeded,
            format!(
                "{} registers per thread exceeds architectural cap {}",
                geom.regs_per_thread, spec.max_regs_per_thread
            ),
        ));
    } else if geom.block_dim > 0 && geom.regs_per_thread * geom.block_dim > spec.regs_per_sm {
        findings.push(launch_wide(
            LintKind::RegsExceeded,
            format!(
                "{} registers × {} threads = {} exceeds the {}-register SM file: no block can be scheduled",
                geom.regs_per_thread,
                geom.block_dim,
                geom.regs_per_thread * geom.block_dim,
                spec.regs_per_sm
            ),
        ));
    }
    let occupancy = Occupancy::compute(
        spec,
        geom.block_dim.max(1),
        geom.shared_bytes_per_block,
        geom.regs_per_thread,
    );
    if occupancy.occupancy < MIN_OCCUPANCY {
        match geom.low_occupancy_waiver {
            Some(reason) => waived.push(format!(
                "occupancy.low ({:.3} < {:.2}): {reason}",
                occupancy.occupancy, MIN_OCCUPANCY
            )),
            None => findings.push(launch_wide(
                LintKind::LowOccupancy,
                format!(
                    "static occupancy bound {:.3} below threshold {:.2} ({:?}-limited)",
                    occupancy.occupancy, MIN_OCCUPANCY, occupancy.limiter
                ),
            )),
        }
    }
    LintReport {
        kernel: geom.name.clone(),
        grid_dim: geom.grid_dim,
        block_dim: geom.block_dim,
        findings,
        waived,
        occupancy,
        prediction: None,
        phases: Vec::new(),
    }
}

/// Runs the full static analysis on a kernel object: geometry checks
/// plus the [`AccessSpec`]-driven predictions, bounds proofs, and
/// barrier-divergence checks. Executes no simulated step.
pub fn lint_kernel<K: Kernel + ?Sized>(spec: &DeviceSpec, kernel: &K) -> LintReport {
    let geom = LaunchGeometry::of(kernel);
    let mut report = lint_geometry(spec, &geom);
    match kernel.access_spec() {
        None => {
            report.findings.push(LintFinding {
                kind: LintKind::SpecMissing,
                kernel: geom.name.clone(),
                phase: String::new(),
                detail:
                    "kernel declares no AccessSpec; only launch validity and occupancy were checked"
                        .to_string(),
            });
        }
        Some(access) => analyze_spec(spec, &geom, &access, &mut report),
    }
    sort_findings(&mut report.findings);
    report
}

fn sort_findings(findings: &mut [LintFinding]) {
    findings.sort_by_key(|f| match f.severity() {
        Severity::Error => 0u8,
        Severity::Warning => 1,
    });
}

/// Evaluates the declared contract against the launch geometry, filling
/// `report.prediction` / `report.phases` and appending findings.
fn analyze_spec(
    spec: &DeviceSpec,
    geom: &LaunchGeometry,
    access: &AccessSpec,
    report: &mut LintReport,
) {
    let shared_words_avail = (geom.shared_bytes_per_block / 4) as u32;
    let mut total = KernelStats::default();
    for phase in &access.phases {
        let mut pr = PhaseReport {
            name: phase.name.clone(),
            pred: KernelStats::default(),
            worst_global_group: None,
            max_bank_degree: 1,
        };
        let finding = |kind: LintKind, detail: String| LintFinding {
            kind,
            kernel: geom.name.clone(),
            phase: phase.name.clone(),
            detail,
        };
        if let Some(div) = &phase.divergent_barrier {
            report.findings.push(finding(
                LintKind::BarrierInDivergence,
                format!("barrier placed inside divergent branch: {div}"),
            ));
        }
        for gs in &phase.globals {
            let ev = eval_global_stream(spec, geom, gs);
            pr.pred.merge(&ev.pred);
            if let Some(group) = ev.worst_group {
                keep_worse(&mut pr.worst_global_group, group);
            }
            if let Some(m) = ev.max_elem.filter(|&m| m >= gs.buf.len) {
                report.findings.push(finding(
                    LintKind::GlobalOutOfBounds,
                    format!(
                        "static index expression reaches element {} of `{}` (len {})",
                        m, gs.buf.label, gs.buf.len
                    ),
                ));
            }
        }
        for step in &phase.shared_steps {
            let ev = eval_shared_step(spec, geom, step);
            pr.pred.merge(&ev.pred);
            pr.max_bank_degree = pr.max_bank_degree.max(ev.max_degree);
            if ev.max_end > shared_words_avail {
                report.findings.push(finding(
                    LintKind::SharedOutOfBounds,
                    format!(
                        "declared shared access reaches word {} but the kernel declares only {} words ({} B)",
                        ev.max_end, shared_words_avail, geom.shared_bytes_per_block
                    ),
                ));
            }
        }
        for bulk in &phase.bulk {
            if bulk.elems > bulk.buf.len {
                report.findings.push(finding(
                    LintKind::GlobalOutOfBounds,
                    format!(
                        "bulk {} of {} elements overruns `{}` (len {})",
                        if bulk.write { "write" } else { "read" },
                        bulk.elems,
                        bulk.buf.label,
                        bulk.buf.len
                    ),
                ));
            }
            pr.pred.merge(&eval_bulk(bulk));
        }
        if let Some((sectors, accesses)) = pr.worst_global_group {
            let spa = sectors as f64 / accesses as f64;
            if spa > MAX_SECTORS_PER_ACCESS && accesses >= MIN_ACCESSES_FOR_COALESCING {
                report.findings.push(finding(
                    LintKind::UncoalescedGlobal,
                    format!(
                        "declared strides predict {sectors} sectors over {accesses} accesses in one warp group ({spa:.3} sectors/access > {:.3})",
                        MAX_SECTORS_PER_ACCESS
                    ),
                ));
            }
        }
        if pr.max_bank_degree >= MIN_BANK_CONFLICT_DEGREE {
            report.findings.push(finding(
                LintKind::BankConflict,
                format!(
                    "declared shared strides predict a {}-way bank conflict (threshold {})",
                    pr.max_bank_degree, MIN_BANK_CONFLICT_DEGREE
                ),
            ));
        }
        total.merge(&pr.pred);
        report.phases.push(pr);
    }
    report.prediction = Some(total);
}

/// Predicts a launch's counters from a contract that `emit` streams
/// piece by piece (see [`crate::Metered::contract`]). Each piece is
/// evaluated with the same arithmetic as [`lint_kernel`] and dropped, so
/// the whole [`AccessSpec`] is never held at once. No findings are
/// derived: this is the charge of a metered launch, not an analysis.
pub(crate) fn predict_streamed(
    spec: &DeviceSpec,
    geom: &LaunchGeometry,
    emit: impl FnOnce(&mut dyn FnMut(PhaseSpec)),
) -> KernelStats {
    let mut total = KernelStats::default();
    emit(&mut |piece: PhaseSpec| {
        for gs in &piece.globals {
            total.merge(&eval_global_stream(spec, geom, gs).pred);
        }
        for step in &piece.shared_steps {
            total.merge(&eval_shared_step(spec, geom, step).pred);
        }
        for bulk in &piece.bulk {
            total.merge(&eval_bulk(bulk));
        }
    });
    total
}

/// Mirrors the replay's bulk arithmetic (`bulk_global_read` /
/// `bulk_global_write`): bytes / 32 sectors per call, no lane accesses —
/// so windows aggregating bulk and tracked launches still bit-match the
/// measurement.
fn eval_bulk(bulk: &BulkAccess) -> KernelStats {
    let bytes = (bulk.elems * bulk.buf.elem_bytes) as u64;
    let mut pred = KernelStats {
        global_sectors: bytes / 32,
        ..KernelStats::default()
    };
    if bulk.write {
        pred.global_write_bytes = bytes;
    } else {
        pred.global_read_bytes = bytes;
    }
    pred
}

/// Replaces `worst` with `group`, a (sectors, accesses) pair, when
/// `group` coalesces worse.
fn keep_worse(worst: &mut Option<(u64, u64)>, group: (u64, u64)) {
    let spa = |(sectors, accesses): (u64, u64)| sectors as f64 / accesses as f64;
    if worst.is_none_or(|w| spa(group) > spa(w)) {
        *worst = Some(group);
    }
}

/// What evaluating one [`GlobalStream`] yields.
struct GlobalEval {
    /// Predicted counters (whole grid).
    pred: KernelStats,
    /// Worst coalescing group: (sectors, accesses).
    worst_group: Option<(u64, u64)>,
    /// Largest element index any block touches (the bounds proof).
    max_elem: Option<usize>,
}

/// Evaluates one global stream with the replay's coalescing arithmetic:
/// per (warp, slot) group, distinct `(sector, write)` tags each cost one
/// 32-byte sector; accesses count raw lane events.
fn eval_global_stream(spec: &DeviceSpec, geom: &LaunchGeometry, gs: &GlobalStream) -> GlobalEval {
    let mut out = GlobalEval {
        pred: KernelStats::default(),
        worst_group: None,
        max_elem: None,
    };
    let ws = spec.warp_size;
    let eb = gs.buf.elem_bytes as u64;
    if geom.block_dim == 0 || geom.grid_dim == 0 || gs.slots == 0 || gs.active == 0 {
        return out;
    }
    // A block shift that is sector-aligned preserves the group/sector
    // structure exactly, so block 0 × grid_dim is bit-identical to
    // walking every block.
    let uniform = geom.grid_dim == 1 || (gs.block_stride as u64 * eb).is_multiple_of(32);
    let blocks = if uniform { 1 } else { geom.grid_dim };
    let scale = if uniform { geom.grid_dim as u64 } else { 1 };
    let warps = geom.block_dim.div_ceil(ws);
    let mut tags: Vec<u64> = Vec::new();
    for b in 0..blocks {
        let block_base = gs.base + b * gs.block_stride;
        for w in 0..warps {
            let lo = w * ws;
            let hi = ((w + 1) * ws).min(geom.block_dim).min(gs.active);
            if lo >= hi {
                continue;
            }
            for s in 0..gs.slots {
                tags.clear();
                let mut events = 0u64;
                for t in lo..hi {
                    let off = t * gs.lane_stride + s * gs.slot_stride;
                    if let Some(bound) = gs.bound {
                        if off >= bound {
                            continue;
                        }
                    }
                    let elem = block_base + off;
                    // track the worst element for the bounds proof;
                    // under the uniform fast path the last block attains
                    // the true maximum via the same in-block offset
                    let worst = if uniform {
                        elem + (geom.grid_dim - 1) * gs.block_stride
                    } else {
                        elem
                    };
                    out.max_elem = Some(out.max_elem.map_or(worst, |m| m.max(worst)));
                    let addr = gs.buf.base_addr + elem as u64 * eb;
                    let first = addr / 32;
                    let last = (addr + eb - 1) / 32;
                    for sec in first..=last {
                        tags.push((sec << 1) | gs.write as u64);
                    }
                    events += 1;
                }
                if events == 0 {
                    continue;
                }
                tags.sort_unstable();
                tags.dedup();
                let sectors = tags.len() as u64;
                out.pred.global_sectors += sectors * scale;
                out.pred.global_accesses += events * scale;
                if gs.write {
                    out.pred.global_write_bytes += 32 * sectors * scale;
                } else {
                    out.pred.global_read_bytes += 32 * sectors * scale;
                }
                keep_worse(&mut out.worst_group, (sectors, events));
            }
        }
    }
    out
}

/// What evaluating one [`SharedStep`] yields.
struct SharedEval {
    /// Predicted counters (whole grid), the interval's step and compute
    /// included.
    pred: KernelStats,
    /// Worst bank-conflict degree over the interval's groups (1 when
    /// conflict-free or without shared traffic).
    max_degree: u64,
    /// One past the highest shared word any lane touches.
    max_end: u32,
}

/// Evaluates one shared barrier interval with the replay's banking
/// arithmetic: per (warp, event-position) group, deduped words are
/// binned into banks; the max bin is the conflict degree. The interval
/// is one `step()` of every block, charging its declared ops.
fn eval_shared_step(spec: &DeviceSpec, geom: &LaunchGeometry, step: &SharedStep) -> SharedEval {
    let ws = spec.warp_size;
    let banks = spec.shared_banks;
    let grid = geom.grid_dim as u64;
    let mut out = SharedEval {
        pred: KernelStats {
            compute_ops: step.ops * grid,
            steps: grid,
            ..KernelStats::default()
        },
        max_degree: 1,
        max_end: 0,
    };
    let warps = geom.block_dim.div_ceil(ws);
    let mut words: Vec<u32> = Vec::new();
    let mut bank_counts = vec![0u32; banks];
    let empty: Vec<SharedEv> = Vec::new();
    for w in 0..warps {
        let lo = w * ws;
        let hi = ((w + 1) * ws).min(geom.block_dim);
        let max_slots = (lo..hi)
            .map(|t| step.lanes.get(t).map_or(0, |l| l.len()))
            .max()
            .unwrap_or(0);
        for s in 0..max_slots {
            words.clear();
            let mut events = 0u64;
            for t in lo..hi {
                let lane = step.lanes.get(t).unwrap_or(&empty);
                let Some(ev) = lane.get(s) else { continue };
                words.extend(ev.word..ev.word + ev.words);
                out.max_end = out.max_end.max(ev.word + ev.words);
                events += 1;
            }
            if events == 0 {
                continue;
            }
            words.sort_unstable();
            words.dedup();
            bank_counts.fill(0);
            let mut degree = 1u32;
            for &wd in &words {
                let bank = wd as usize % banks;
                bank_counts[bank] += 1;
                degree = degree.max(bank_counts[bank]);
            }
            out.pred.shared_accesses += events * grid;
            out.pred.shared_eff_bytes += degree as u64 * (ws as u64 * 4) * grid;
            if degree > 1 {
                out.pred.shared_conflict_groups += grid;
                out.pred.shared_conflict_cycles += (degree as u64 - 1) * grid;
            }
            out.max_degree = out.max_degree.max(degree as u64);
        }
    }
    out
}

/// Compares a launch's static prediction against its measured dynamic
/// counters; a drift produces a [`LintKind::SpecMismatch`] finding —
/// the gate that keeps static analysis honest.
pub fn cross_check(report: &LintReport, stats: &KernelStats) -> Option<LintFinding> {
    let pred = report.prediction.as_ref()?;
    if matches(pred, stats) {
        return None;
    }
    Some(LintFinding {
        kind: LintKind::SpecMismatch,
        kernel: report.kernel.clone(),
        phase: String::new(),
        detail: format!(
            "static prediction (sectors/access {}, degree {}) disagrees with measurement (sectors/access {}, degree {})",
            pred.sectors_per_access(),
            pred.avg_conflict_degree(),
            stats.sectors_per_access(),
            stats.avg_conflict_degree()
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn titan() -> DeviceSpec {
        DeviceSpec::titan_x_maxwell()
    }

    fn geom(block: usize, grid: usize) -> LaunchGeometry {
        LaunchGeometry {
            name: "unit".to_string(),
            grid_dim: grid,
            block_dim: block,
            shared_bytes_per_block: 4096,
            regs_per_thread: 32,
            low_occupancy_waiver: None,
        }
    }

    fn eval(spec_access: AccessSpec, g: LaunchGeometry) -> LintReport {
        let mut report = lint_geometry(&titan(), &g);
        analyze_spec(&titan(), &g, &spec_access, &mut report);
        report
    }

    #[test]
    fn contiguous_f32_warp_is_four_sectors() {
        // 32 lanes × 4 B contiguous = 128 B = 4 sectors (mirrors the
        // block.rs replay tests)
        let access = AccessSpec {
            phases: vec![PhaseSpec {
                name: "load".into(),
                globals: vec![GlobalStream {
                    buf: BufferDecl {
                        label: "in",
                        base_addr: 0x1000,
                        len: 32,
                        elem_bytes: 4,
                    },
                    write: false,
                    base: 0,
                    lane_stride: 1,
                    slot_stride: 0,
                    slots: 1,
                    block_stride: 0,
                    active: 32,
                    bound: None,
                }],
                ..PhaseSpec::default()
            }],
        };
        let r = eval(access, geom(32, 1));
        let p = r.prediction.unwrap();
        assert_eq!(p.global_sectors, 4);
        assert_eq!(p.global_accesses, 32);
        assert_eq!(p.global_read_bytes, 128);
        assert!((p.sectors_per_access() - 0.125).abs() < 1e-12);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn strided_global_is_uncoalesced() {
        // stride-8 f32: every lane in its own sector → 32 sectors / 32
        // accesses = 1.0 > 0.5 threshold
        let access = AccessSpec {
            phases: vec![PhaseSpec {
                name: "scatter".into(),
                globals: vec![GlobalStream {
                    buf: BufferDecl {
                        label: "out",
                        base_addr: 0x1000,
                        len: 256,
                        elem_bytes: 4,
                    },
                    write: true,
                    base: 0,
                    lane_stride: 8,
                    slot_stride: 0,
                    slots: 1,
                    block_stride: 0,
                    active: 32,
                    bound: None,
                }],
                ..PhaseSpec::default()
            }],
        };
        let r = eval(access, geom(32, 1));
        assert!(r.has(LintKind::UncoalescedGlobal), "{}", r.render());
        let p = r.prediction.unwrap();
        assert_eq!(p.global_sectors, 32);
        assert!((p.sectors_per_access() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stride_two_shared_predicts_two_way_conflict() {
        // 32 lanes reading words 0,2,4,..,62 → 2 per bank → degree 2,
        // eff 256 B, cycles 1 (mirrors block.rs stride-2 test)
        let lanes: Vec<Vec<SharedEv>> = (0..32)
            .map(|t| {
                vec![SharedEv {
                    word: (t * 2) as u32,
                    words: 1,
                    write: false,
                }]
            })
            .collect();
        let access = AccessSpec {
            phases: vec![PhaseSpec {
                name: "exchange".into(),
                shared_steps: vec![SharedStep { lanes, ops: 0 }],
                ..PhaseSpec::default()
            }],
        };
        let r = eval(access, geom(32, 1));
        let p = r.prediction.unwrap();
        assert_eq!(p.shared_eff_bytes, 256);
        assert_eq!(p.shared_conflict_cycles, 1);
        assert_eq!(p.shared_accesses, 32);
        assert!((p.avg_conflict_degree() - 2.0).abs() < 1e-12);
        // degree 2 is below the lint threshold of 8 → no finding
        assert!(!r.has(LintKind::BankConflict));
    }

    #[test]
    fn stride_32_shared_trips_bank_conflict_lint() {
        let lanes: Vec<Vec<SharedEv>> = (0..32)
            .map(|t| {
                vec![SharedEv {
                    word: (t * 32) as u32,
                    words: 1,
                    write: true,
                }]
            })
            .collect();
        let access = AccessSpec {
            phases: vec![PhaseSpec {
                name: "transpose".into(),
                shared_steps: vec![SharedStep { lanes, ops: 0 }],
                ..PhaseSpec::default()
            }],
        };
        let mut g = geom(32, 1);
        g.shared_bytes_per_block = 32 * 32 * 4;
        let r = eval(access, g);
        let p = r.prediction.unwrap();
        assert_eq!(p.shared_conflict_cycles, 31);
        assert!((p.avg_conflict_degree() - 32.0).abs() < 1e-12);
        let f = &r.findings_of(LintKind::BankConflict)[0];
        assert_eq!(f.phase, "transpose");
    }

    #[test]
    fn partial_warp_shared_eff_bytes_full_line() {
        // 8 lanes, conflict-free: replay still charges a full 128-B line
        let lanes: Vec<Vec<SharedEv>> = (0..8)
            .map(|t| {
                vec![SharedEv {
                    word: t as u32,
                    words: 1,
                    write: false,
                }]
            })
            .collect();
        let access = AccessSpec {
            phases: vec![PhaseSpec {
                name: "tail".into(),
                shared_steps: vec![SharedStep { lanes, ops: 0 }],
                ..PhaseSpec::default()
            }],
        };
        let r = eval(access, geom(8, 1));
        let p = r.prediction.unwrap();
        assert_eq!(p.shared_eff_bytes, 128);
        assert_eq!(p.shared_accesses, 8);
    }

    #[test]
    fn oob_global_and_shared_are_errors() {
        let access = AccessSpec {
            phases: vec![PhaseSpec {
                name: "store".into(),
                globals: vec![GlobalStream {
                    buf: BufferDecl {
                        label: "out",
                        base_addr: 0x1000,
                        len: 30, // lanes 30, 31 overrun
                        elem_bytes: 4,
                    },
                    write: true,
                    base: 0,
                    lane_stride: 1,
                    slot_stride: 0,
                    slots: 1,
                    block_stride: 0,
                    active: 32,
                    bound: None,
                }],
                shared_steps: vec![SharedStep {
                    lanes: vec![vec![SharedEv {
                        word: 2000,
                        words: 1,
                        write: false,
                    }]],
                    ops: 0,
                }],
                ..PhaseSpec::default()
            }],
        };
        let r = eval(access, geom(32, 1)); // 4096 B shared = 1024 words
        assert!(r.has(LintKind::GlobalOutOfBounds), "{}", r.render());
        assert!(r.has(LintKind::SharedOutOfBounds), "{}", r.render());
        assert_eq!(r.error_count(), 2);
    }

    #[test]
    fn guarded_tail_is_in_bounds() {
        // 40 elements over 32 lanes, 2 slots, bound 40: max element 39
        let access = AccessSpec {
            phases: vec![PhaseSpec {
                name: "store".into(),
                globals: vec![GlobalStream {
                    buf: BufferDecl {
                        label: "out",
                        base_addr: 0x1000,
                        len: 40,
                        elem_bytes: 4,
                    },
                    write: true,
                    base: 0,
                    lane_stride: 1,
                    slot_stride: 32,
                    slots: 2,
                    block_stride: 40,
                    active: 32,
                    bound: Some(40),
                }],
                ..PhaseSpec::default()
            }],
        };
        let r = eval(access, geom(32, 1));
        assert!(!r.has(LintKind::GlobalOutOfBounds), "{}", r.render());
        // accesses: 32 + 8 guarded tail
        assert_eq!(r.prediction.unwrap().global_accesses, 40);
    }

    #[test]
    fn non_aligned_block_stride_walks_every_block() {
        // block stride of 33 f32 elements = 132 B, not sector-aligned:
        // block 1 straddles sectors differently than block 0
        let mk = |_grid: usize| AccessSpec {
            phases: vec![PhaseSpec {
                name: "load".into(),
                globals: vec![GlobalStream {
                    buf: BufferDecl {
                        label: "in",
                        base_addr: 0x1000,
                        len: 1024,
                        elem_bytes: 4,
                    },
                    write: false,
                    base: 0,
                    lane_stride: 1,
                    slot_stride: 0,
                    slots: 1,
                    block_stride: 33,
                    active: 32,
                    bound: None,
                }],
                ..PhaseSpec::default()
            }],
        };
        let r1 = eval(mk(1), geom(32, 1));
        let r2 = eval(mk(2), geom(32, 2));
        let p1 = r1.prediction.unwrap();
        let p2 = r2.prediction.unwrap();
        assert_eq!(p1.global_sectors, 4);
        // second block starts 132 B in → offset 4 into a sector → 5 sectors
        assert_eq!(p2.global_sectors, 4 + 5);
        assert_eq!(p2.global_accesses, 64);
    }

    #[test]
    fn geometry_hard_errors() {
        let mut g = geom(2048, 1);
        let r = lint_geometry(&titan(), &g);
        assert!(r.has(LintKind::BlockTooLarge));
        g = geom(0, 1);
        assert!(lint_geometry(&titan(), &g).has(LintKind::EmptyLaunch));
        g = geom(256, 1);
        g.shared_bytes_per_block = 64 * 1024;
        assert!(lint_geometry(&titan(), &g).has(LintKind::SharedMemExceeded));
        g = geom(1024, 1);
        g.regs_per_thread = 65; // 65 × 1024 > 64K
        assert!(lint_geometry(&titan(), &g).has(LintKind::RegsExceeded));
        g = geom(256, 1);
        g.regs_per_thread = 300; // over the 255 per-thread cap
        assert!(lint_geometry(&titan(), &g).has(LintKind::RegsExceeded));
    }

    #[test]
    fn occupancy_waiver_suppresses_warning() {
        let mut g = geom(128, 1);
        g.shared_bytes_per_block = 40 * 1024; // 2 blocks/SM → 8 warps of 64
        let r = lint_geometry(&titan(), &g);
        assert!(r.has(LintKind::LowOccupancy));
        g.low_occupancy_waiver = Some("heap capacity trade (Section 4.1)");
        let r = lint_geometry(&titan(), &g);
        assert!(!r.has(LintKind::LowOccupancy));
        assert_eq!(r.waived.len(), 1);
    }

    #[test]
    fn divergent_barrier_is_hard_error_with_phase_attribution() {
        let access = AccessSpec {
            phases: vec![PhaseSpec {
                name: "reduce".into(),
                divergent_barrier: Some("step() under `if tid < half`".to_string()),
                ..PhaseSpec::default()
            }],
        };
        let r = eval(access, geom(64, 1));
        let f = &r.findings_of(LintKind::BarrierInDivergence)[0];
        assert_eq!(f.severity(), Severity::Error);
        assert_eq!(f.phase, "reduce");
        assert_eq!(f.kernel, "unit");
    }

    #[test]
    fn cross_check_flags_drift() {
        let mut report = lint_geometry(&titan(), &geom(32, 1));
        report.prediction = Some(KernelStats {
            global_sectors: 4,
            global_accesses: 32,
            ..KernelStats::default()
        });
        let mut stats = KernelStats {
            global_sectors: 4,
            global_accesses: 32,
            ..KernelStats::default()
        };
        assert!(cross_check(&report, &stats).is_none());
        stats.global_sectors = 32;
        let f = cross_check(&report, &stats).unwrap();
        assert_eq!(f.kind, LintKind::SpecMismatch);
        assert_eq!(f.severity(), Severity::Error);
    }

    /// Lane `t` writes word `t`, then reads word `2t`: one conflict-free
    /// group and one 2-way group per warp.
    fn two_group_step(block: usize, ops: u64) -> SharedStep {
        SharedStep {
            lanes: (0..block as u32)
                .map(|t| {
                    vec![
                        SharedEv {
                            word: t,
                            words: 1,
                            write: true,
                        },
                        SharedEv {
                            word: 2 * t,
                            words: 1,
                            write: false,
                        },
                    ]
                })
                .collect(),
            ops,
        }
    }

    #[test]
    fn intervals_charge_their_ops_and_one_step_per_block() {
        let access = AccessSpec {
            phases: vec![PhaseSpec {
                name: "network".into(),
                shared_steps: vec![two_group_step(64, 7), two_group_step(64, 5)],
                ..PhaseSpec::default()
            }],
        };
        let p = eval(access, geom(64, 3)).prediction.unwrap();
        assert_eq!(p.compute_ops, (7 + 5) * 3);
        assert_eq!(p.steps, 2 * 3);
        assert_eq!(p.atomic_ops, 0);
        // 2 intervals × 2 warps × 2 groups per block, one of them 2-way
        assert_eq!(p.shared_accesses, 2 * 64 * 2 * 3);
        assert_eq!(p.shared_conflict_groups, 2 * 2 * 3);
    }

    #[test]
    fn streamed_contract_collects_to_phases_and_predicts_the_same() {
        let load = GlobalStream {
            buf: BufferDecl {
                label: "in",
                base_addr: 0x1000,
                len: 4 * 256,
                elem_bytes: 4,
            },
            write: false,
            base: 0,
            lane_stride: 1,
            slot_stride: 64,
            slots: 4,
            block_stride: 256,
            active: 64,
            bound: None,
        };
        let emit = |sink: &mut dyn FnMut(PhaseSpec)| {
            sink(PhaseSpec {
                name: "load".into(),
                globals: vec![load.clone()],
                shared_steps: vec![two_group_step(64, 0)],
                ..PhaseSpec::default()
            });
            for ops in [3, 4, 5] {
                sink(PhaseSpec {
                    name: "op0:sort".into(),
                    shared_steps: vec![two_group_step(64, ops)],
                    ..PhaseSpec::default()
                });
            }
            sink(PhaseSpec::named("op1:empty"));
        };
        let access = AccessSpec::collect(emit);
        let names: Vec<&str> = access.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["load", "op0:sort", "op1:empty"]);
        assert_eq!(access.phases[1].shared_steps.len(), 3);
        let g = geom(64, 4);
        let whole = eval(access, g.clone()).prediction.unwrap();
        assert_eq!(predict_streamed(&titan(), &g, emit), whole);
        assert_eq!(whole.steps, 4 * 4);
        assert_eq!(whole.compute_ops, (3 + 4 + 5) * 4);
        assert_eq!(whole.global_accesses, 4 * 64 * 4);
    }

    #[test]
    fn report_renders_and_serializes() {
        let access = AccessSpec::bulk(
            "stream",
            vec![BulkAccess {
                buf: BufferDecl {
                    label: "in",
                    base_addr: 0x1000,
                    len: 100,
                    elem_bytes: 4,
                },
                elems: 100,
                write: false,
            }],
        );
        let r = eval(access, geom(256, 4));
        assert!(r.is_clean());
        let text = r.render();
        assert!(text.contains("simt-lint"));
        assert!(text.contains("clean"));
        let json = r.to_json();
        assert!(json.contains(r#""errors":0"#));
        assert!(json.contains(r#""prediction":{"#));
        let arr = reports_to_json(&[r]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
    }
}
