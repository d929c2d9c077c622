//! `simt::analysis` — the one finding and report type of the simulator's
//! two analysis passes.
//!
//! A launch can be checked twice, from different inputs:
//!
//! * the **static pass** ([`crate::lint`]) *predicts* from the kernel's
//!   declared access contract, before a single step runs;
//! * the **dynamic pass** ([`crate::sanitize`]) *observes* the replayed
//!   launch: races, out-of-bounds and uninitialized accesses, and the
//!   measured memory behavior.
//!
//! Both report in this module's terms: one [`FindingKind`] with one code
//! and one severity per kind, one [`Finding`] tagged with the [`Source`]
//! that produced it, and one per-launch [`AnalysisReport`] with one
//! render and one JSON form. The thresholds both passes apply live here
//! too, so a prediction and a measurement are judged alike. A device with
//! either capture on ([`crate::Device::enable_lint`],
//! [`crate::Device::enable_sanitizer`]) appends one report per launch,
//! holding the findings of every pass that ran
//! ([`crate::Device::analysis_since`]).

use crate::lint::PhaseReport;
use crate::occupancy::Occupancy;
use crate::stats::KernelStats;

/// Uncoalesced-global lint: fires when a warp's accesses in one slot
/// touch more than this many 32-byte sectors per access.
pub const MAX_SECTORS_PER_ACCESS: f64 = 0.5;
/// Uncoalesced-global lint: minimum accesses in the warp/slot group
/// before the lint applies (tail groups are exempt).
pub const MIN_ACCESSES_FOR_COALESCING: u64 = 8;
/// Bank-conflict lint: fires at this conflict degree or worse.
pub const MIN_BANK_CONFLICT_DEGREE: u64 = 8;
/// Occupancy lint: fires when occupancy is below this fraction of the
/// SM's maximum resident warps (unless the kernel declares a waiver, see
/// [`crate::Kernel::low_occupancy_waiver`]).
pub const MIN_OCCUPANCY: f64 = 0.25;

/// True when one warp group's `accesses` lane accesses over `sectors`
/// sectors count as uncoalesced.
pub(crate) fn uncoalesced(sectors: u64, accesses: u64) -> bool {
    accesses >= MIN_ACCESSES_FOR_COALESCING
        && sectors as f64 / accesses as f64 > MAX_SECTORS_PER_ACCESS
}

/// True when a bank-conflict degree counts as a conflict hotspot.
pub(crate) fn bank_conflicted(degree: u64) -> bool {
    degree >= MIN_BANK_CONFLICT_DEGREE
}

/// Error vs. warning classification of a finding. Errors sort first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A correctness defect or a launch that cannot run.
    Error,
    /// A performance lint or an advisory.
    Warning,
}

/// Which pass produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// Predicted by the static pass from the launch plan and its
    /// contract ([`crate::lint`]).
    Static,
    /// Observed by the dynamic pass on the replayed launch
    /// ([`crate::sanitize`]).
    Dynamic,
}

/// The class of defect or inefficiency a [`Finding`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// Zero grid or block dimension.
    EmptyLaunch,
    /// Block dimension over the device maximum.
    BlockTooLarge,
    /// Declared shared memory over the per-block limit.
    SharedMemExceeded,
    /// Declared registers leave no schedulable block on an SM (or exceed
    /// the per-thread architectural cap).
    RegsExceeded,
    /// Occupancy below [`MIN_OCCUPANCY`], with no waiver.
    LowOccupancy,
    /// A warp's global accesses in one slot spread over too many sectors.
    UncoalescedGlobal,
    /// Shared-memory bank-conflict degree at or above
    /// [`MIN_BANK_CONFLICT_DEGREE`].
    BankConflict,
    /// Global access past the end of its buffer.
    GlobalOutOfBounds,
    /// Shared access past the end of its allocation.
    SharedOutOfBounds,
    /// The contract declares a barrier inside a divergent branch.
    BarrierInDivergence,
    /// The static prediction disagrees with the measured counters.
    SpecMismatch,
    /// The kernel declares no [`crate::AccessSpec`]; the static pass only
    /// checked launch validity and occupancy.
    SpecMissing,
    /// Two lanes touched the same shared word in one step, ≥ 1 write.
    SharedRace,
    /// Conflicting global accesses to the same 4-byte word: ≥ 1 write
    /// from ≥ 2 lanes in one step, or writes from different blocks
    /// within the launch.
    GlobalRace,
    /// Read of a shared word never written since `alloc_shared`.
    UninitializedRead,
}

impl FindingKind {
    /// Defects and launches that cannot run are errors; performance
    /// lints and a missing contract are warnings.
    pub fn severity(&self) -> Severity {
        match self {
            FindingKind::LowOccupancy
            | FindingKind::UncoalescedGlobal
            | FindingKind::BankConflict
            | FindingKind::SpecMissing => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Stable dotted identifier (`area.check`), used in rendered and JSON
    /// output.
    pub fn code(&self) -> &'static str {
        match self {
            FindingKind::EmptyLaunch => "launch.empty",
            FindingKind::BlockTooLarge => "launch.block-too-large",
            FindingKind::SharedMemExceeded => "launch.shared-mem-exceeded",
            FindingKind::RegsExceeded => "launch.regs-exceeded",
            FindingKind::LowOccupancy => "perf.low-occupancy",
            FindingKind::UncoalescedGlobal => "perf.uncoalesced-global",
            FindingKind::BankConflict => "perf.bank-conflict",
            FindingKind::GlobalOutOfBounds => "bounds.global-oob",
            FindingKind::SharedOutOfBounds => "bounds.shared-oob",
            FindingKind::BarrierInDivergence => "barrier.divergent",
            FindingKind::SpecMismatch => "spec.mismatch",
            FindingKind::SpecMissing => "spec.missing",
            FindingKind::SharedRace => "racecheck.shared-race",
            FindingKind::GlobalRace => "racecheck.global-race",
            FindingKind::UninitializedRead => "initcheck.uninit-read",
        }
    }
}

/// One diagnostic. A static finding names the contract `phase` it
/// concerns (empty for launch-wide findings). A dynamic finding is
/// deduplicated: `block`, `step`, `lane`, `address` and `allocation`
/// describe its **first** occurrence, and `occurrences` counts every
/// repeat folded onto it.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What was detected.
    pub kind: FindingKind,
    /// The pass that detected it.
    pub source: Source,
    /// Kernel the launch ran (or would run).
    pub kernel: String,
    /// Contract phase of a static finding (empty otherwise).
    pub phase: String,
    /// Block index of the first occurrence.
    pub block: usize,
    /// Step index (barrier interval) of the first occurrence.
    pub step: usize,
    /// Lane (thread index within the block) of the first occurrence.
    pub lane: usize,
    /// Shared word index or global byte address of the first occurrence
    /// (0 when not address-specific).
    pub address: u64,
    /// Description of the allocation involved, when known.
    pub allocation: String,
    /// Human-readable explanation of the first occurrence.
    pub detail: String,
    /// Total occurrences folded into this finding.
    pub occurrences: u64,
}

impl Finding {
    /// A finding with no lane attribution: launch-wide, or a static one
    /// attributed to `phase`.
    pub(crate) fn new(
        kind: FindingKind,
        source: Source,
        kernel: &str,
        phase: &str,
        detail: String,
    ) -> Finding {
        Finding {
            kind,
            source,
            kernel: kernel.to_string(),
            phase: phase.to_string(),
            block: 0,
            step: 0,
            lane: 0,
            address: 0,
            allocation: String::new(),
            detail,
            occurrences: 1,
        }
    }

    /// Error/warning classification (delegates to the kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let severity = match self.severity() {
            Severity::Error => "ERROR",
            Severity::Warning => "WARN",
        };
        write!(f, "[{}] {severity} `{}`", self.kind.code(), self.kernel)?;
        match self.source {
            Source::Static if !self.phase.is_empty() => write!(f, " phase `{}`", self.phase)?,
            Source::Static => {}
            Source::Dynamic => write!(
                f,
                " block {} step {} lane {}",
                self.block, self.step, self.lane
            )?,
        }
        write!(f, ": {}", self.detail)?;
        if !self.allocation.is_empty() {
            write!(f, " [{}]", self.allocation)?;
        }
        if self.occurrences > 1 {
            write!(f, " (×{})", self.occurrences)?;
        }
        Ok(())
    }
}

/// Everything the analysis passes found in one launch (or, from
/// [`crate::lint::lint_geometry`], one launch plan).
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Kernel name.
    pub kernel: String,
    /// Blocks in the launch.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Stream the launch was issued on (0 for a plan nothing launched).
    pub stream: usize,
    /// The launch's occupancy.
    pub occupancy: Occupancy,
    /// Counters the static pass predicted (`None` unless it ran on a
    /// kernel that declares an [`crate::AccessSpec`]).
    pub prediction: Option<KernelStats>,
    /// Per-phase summaries of the prediction (empty without one).
    pub phases: Vec<PhaseReport>,
    /// Findings of every pass that ran, errors first, then by
    /// (block, step).
    pub findings: Vec<Finding>,
    /// Lints suppressed by an explicit kernel waiver, with the reason.
    pub waived: Vec<String>,
}

impl AnalysisReport {
    /// An empty report for one launch of `kernel` on stream 0.
    pub(crate) fn new(
        kernel: &str,
        grid_dim: usize,
        block_dim: usize,
        occupancy: Occupancy,
    ) -> Self {
        AnalysisReport {
            kernel: kernel.to_string(),
            grid_dim,
            block_dim,
            stream: 0,
            occupancy,
            prediction: None,
            phases: Vec::new(),
            findings: Vec::new(),
            waived: Vec::new(),
        }
    }

    /// The occupancy lint both passes apply: below [`MIN_OCCUPANCY`] it
    /// records a `source` finding, or a waived line when the kernel gives
    /// a reason (once, however many passes ran).
    pub(crate) fn check_occupancy(&mut self, source: Source, waiver: Option<&str>) {
        let occ = &self.occupancy;
        if occ.occupancy >= MIN_OCCUPANCY {
            return;
        }
        let detail = format!(
            "occupancy {:.3} ({} warps/SM, limited by {:?}) below threshold {:.2}",
            occ.occupancy, occ.warps_per_sm, occ.limiter, MIN_OCCUPANCY
        );
        let kind = FindingKind::LowOccupancy;
        match waiver {
            Some(reason) => {
                let line = format!("{}: {detail}; waived: {reason}", kind.code());
                if !self.waived.contains(&line) {
                    self.waived.push(line);
                }
            }
            None => {
                let finding = Finding::new(kind, source, &self.kernel, "", detail);
                self.findings.push(finding);
            }
        }
    }

    /// Orders the findings errors first, then by (block, step). The sort
    /// is stable, so emission order breaks ties.
    pub(crate) fn sort_findings(&mut self) {
        self.findings
            .sort_by_key(|f| (f.severity(), f.block, f.step));
    }

    /// True when nothing was found (waived lints do not count).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of error findings.
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity() == Severity::Error)
            .count()
    }

    /// Number of warning findings.
    pub fn warning_count(&self) -> usize {
        self.findings.len() - self.error_count()
    }

    /// The findings of one kind.
    pub fn findings_of(&self, kind: FindingKind) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.kind == kind).collect()
    }

    /// Human-readable report, one finding per line — the
    /// compute-sanitizer-style console output.
    pub fn render(&self) -> String {
        let mut out = format!(
            "========= simt-analysis: `{}` (grid {} × block {}, stream {}) =========\n",
            self.kernel, self.grid_dim, self.block_dim, self.stream
        );
        out.push_str(&format!(
            "  occupancy {:.3} ({:?}-limited)\n",
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
                    r#"{{"kind":"{}","severity":"{}","source":"{}","kernel":"{}","phase":"{}","block":{},"step":{},"lane":{},"address":{},"allocation":"{}","detail":"{}","occurrences":{}}}"#,
                    f.kind.code(),
                    match f.severity() {
                        Severity::Error => "error",
                        Severity::Warning => "warning",
                    },
                    match f.source {
                        Source::Static => "static",
                        Source::Dynamic => "dynamic",
                    },
                    escape_json(&f.kernel),
                    escape_json(&f.phase),
                    f.block,
                    f.step,
                    f.lane,
                    f.address,
                    escape_json(&f.allocation),
                    escape_json(&f.detail),
                    f.occurrences
                )
            })
            .collect();
        let waived: Vec<String> = self
            .waived
            .iter()
            .map(|w| format!(r#""{}""#, escape_json(w)))
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
            r#"{{"kernel":"{}","grid_dim":{},"block_dim":{},"stream":{},"occupancy":{},"errors":{},"warnings":{},"prediction":{},"findings":[{}],"waived":[{}]}}"#,
            escape_json(&self.kernel),
            self.grid_dim,
            self.block_dim,
            self.stream,
            self.occupancy.occupancy,
            self.error_count(),
            self.warning_count(),
            pred,
            findings.join(","),
            waived.join(",")
        )
    }
}

/// Serializes a batch of launch reports as one JSON array — the artifact
/// format the CI analysis sweep uploads.
pub fn reports_to_json(reports: &[AnalysisReport]) -> String {
    let items: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
    format!("[{}]", items.join(","))
}

/// Escapes `s` for a JSON string literal (RFC 8259: quote, backslash and
/// every control character) — the one escaper behind the crate's JSON
/// reports and chrome traces.
pub(crate) fn escape_json(s: &str) -> String {
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
