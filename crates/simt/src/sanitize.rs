//! `simt::sanitize` — a compute-sanitizer–style analysis layer for
//! simulated kernels.
//!
//! Real CUDA ships `compute-sanitizer` with three main tools; this module
//! mirrors each of them against the simulator's per-step access streams:
//!
//! * **racecheck** — two lanes touching the same shared word within one
//!   [`crate::BlockCtx::step`] (one barrier interval) with at least one
//!   write, plus conflicting global writes to the same 4-byte word — from
//!   different lanes within a step, or from different blocks anywhere in
//!   the launch. The simulator replays lanes in a fixed order, so such
//!   code *works* here but would be nondeterministic on silicon.
//! * **memcheck** — out-of-bounds shared/global accesses reported as
//!   structured diagnostics (kernel, step, lane, address, allocation)
//!   instead of raw `Vec` panics. With a sanitizer attached the faulting
//!   access is skipped (reads return `T::default()`), matching
//!   compute-sanitizer's report-and-continue behavior.
//! * **initcheck** — reads of shared words never written since
//!   [`crate::BlockCtx::alloc_shared`]. The simulator default-fills
//!   shared arrays, which masks reads-before-write that would observe
//!   garbage on hardware.
//!
//! On top of those, **perf lints** flag uncoalesced global access
//! patterns (sectors-per-warp-access above a threshold), shared-memory
//! bank-conflict hotspots, and occupancy-limiting launch configurations.
//!
//! Enable per device with [`crate::Device::enable_sanitizer`] (every
//! launch, including launches issued inside stream scopes, produces a
//! [`SanitizerReport`]) or per launch with
//! [`crate::Device::launch_sanitized`].
//!
//! # The step-as-barrier-interval race model
//!
//! `step()` models the code between two `__syncthreads()` barriers, so
//! accesses inside one step are concurrent and accesses in different
//! steps are ordered. This makes racecheck exact for the simulator's
//! programming model but narrower than hardware racecheck: warp-level
//! intrinsics, `__syncwarp()` sub-block ordering, and atomics-based
//! synchronization have no equivalent here, and bulk-accounted traffic
//! (`bulk_*` methods) carries no addresses at all, so only tracked and
//! `*_untracked` lane accesses are analyzed.

use std::collections::HashMap;

use crate::occupancy::Occupancy;
use crate::spec::DeviceSpec;

/// Uncoalesced-global lint: fires when a warp's accesses in one slot
/// touch more than this many 32-byte sectors per access. The static lint
/// ([`crate::lint`]) applies the same four thresholds.
pub const MAX_SECTORS_PER_ACCESS: f64 = 0.5;
/// Uncoalesced-global lint: minimum accesses in the warp/slot group
/// before the lint applies (tail groups are exempt).
pub const MIN_ACCESSES_FOR_COALESCING: u64 = 8;
/// Bank-conflict lint: fires at this conflict degree or worse.
pub const MIN_BANK_CONFLICT_DEGREE: u64 = 8;
/// Occupancy lint: fires when achieved occupancy is below this fraction
/// of the SM's maximum resident warps (unless the kernel declares a
/// waiver, see [`crate::Kernel::low_occupancy_waiver`]).
pub const MIN_OCCUPANCY: f64 = 0.25;

/// The class of defect (or inefficiency) a [`Finding`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// Two lanes touched the same shared word in one step, ≥ 1 write.
    SharedRace,
    /// Conflicting global accesses to the same 4-byte word: ≥ 1 write
    /// from ≥ 2 lanes in one step, or writes from different blocks
    /// within the launch.
    GlobalRace,
    /// Shared access past the end of its allocation.
    SharedOutOfBounds,
    /// Global access past the end of its buffer.
    GlobalOutOfBounds,
    /// Read of a shared word never written since `alloc_shared`.
    UninitializedRead,
    /// A warp's global accesses in one slot spread over too many sectors.
    UncoalescedGlobal,
    /// Shared-memory bank-conflict degree at or above the threshold.
    BankConflict,
    /// Launch configuration limits occupancy below the threshold.
    LowOccupancy,
}

/// Error vs. warning classification of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A correctness defect (racecheck / memcheck / initcheck).
    Error,
    /// A performance lint.
    Warning,
}

impl FindingKind {
    /// Correctness findings are errors; perf lints are warnings.
    pub fn severity(&self) -> Severity {
        match self {
            FindingKind::SharedRace
            | FindingKind::GlobalRace
            | FindingKind::SharedOutOfBounds
            | FindingKind::GlobalOutOfBounds
            | FindingKind::UninitializedRead => Severity::Error,
            FindingKind::UncoalescedGlobal
            | FindingKind::BankConflict
            | FindingKind::LowOccupancy => Severity::Warning,
        }
    }

    /// Stable dotted identifier (`tool.check`), used in rendered and JSON
    /// output.
    pub fn code(&self) -> &'static str {
        match self {
            FindingKind::SharedRace => "racecheck.shared-race",
            FindingKind::GlobalRace => "racecheck.global-race",
            FindingKind::SharedOutOfBounds => "memcheck.shared-oob",
            FindingKind::GlobalOutOfBounds => "memcheck.global-oob",
            FindingKind::UninitializedRead => "initcheck.uninit-read",
            FindingKind::UncoalescedGlobal => "perf.uncoalesced-global",
            FindingKind::BankConflict => "perf.bank-conflict",
            FindingKind::LowOccupancy => "perf.low-occupancy",
        }
    }
}

/// One deduplicated diagnostic. Attribution fields (`block`, `step`,
/// `lane`, `address`) describe the **first** occurrence; `occurrences`
/// counts every repeat that deduplicated onto it.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What was detected.
    pub kind: FindingKind,
    /// Kernel the launch ran.
    pub kernel: &'static str,
    /// Block index of the first occurrence.
    pub block: usize,
    /// Step index (barrier interval) of the first occurrence.
    pub step: usize,
    /// Lane (thread index within the block) of the first occurrence.
    pub lane: usize,
    /// Shared word index or global byte address of the first occurrence
    /// (0 when not address-specific, e.g. occupancy lints).
    pub address: u64,
    /// Description of the allocation involved, when known.
    pub allocation: String,
    /// Human-readable explanation of the first occurrence.
    pub detail: String,
    /// Total occurrences folded into this finding.
    pub occurrences: u64,
}

impl Finding {
    /// Error/warning classification (delegates to the kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} `{}` block {} step {} lane {}: {}",
            self.kind.code(),
            match self.severity() {
                Severity::Error => "ERROR",
                Severity::Warning => "WARN",
            },
            self.kernel,
            self.block,
            self.step,
            self.lane,
            self.detail
        )?;
        if !self.allocation.is_empty() {
            write!(f, " [{}]", self.allocation)?;
        }
        if self.occurrences > 1 {
            write!(f, " (×{})", self.occurrences)?;
        }
        Ok(())
    }
}

/// A shared allocation's footprint, for attributing shared findings.
#[derive(Debug, Clone)]
struct SharedAlloc {
    base_word: u32,
    words: u32,
    len: usize,
    elem: &'static str,
}

impl SharedAlloc {
    fn describe(&self, id: usize) -> String {
        format!(
            "shared #{id} <{}>[{}] words {}..{}",
            self.elem,
            self.len,
            self.base_word,
            self.base_word + self.words
        )
    }
}

/// Per-word accumulator for one step's racecheck.
#[derive(Debug, Clone, Copy, Default)]
struct WordAcc {
    touched: bool,
    first_lane: u32,
    other_lane: Option<u32>,
    write_lane: Option<u32>,
}

impl WordAcc {
    fn touch(&mut self, lane: u32, write: bool) {
        if !self.touched {
            self.touched = true;
            self.first_lane = lane;
        } else if lane != self.first_lane && self.other_lane.is_none() {
            self.other_lane = Some(lane);
        }
        if write && self.write_lane.is_none() {
            self.write_lane = Some(lane);
        }
    }

    fn is_race(&self) -> bool {
        self.other_lane.is_some() && self.write_lane.is_some()
    }
}

/// One tracked access within the current step, kept for the perf lints'
/// warp/slot grouping (mirrors the replay grouping in `block.rs`).
#[derive(Debug, Clone, Copy)]
struct StepAccess {
    lane: u32,
    slot: u32,
    /// Shared word index, or global byte address.
    addr: u64,
    /// Words (shared) or bytes (global) the access covers.
    size: u32,
    shared: bool,
}

/// Per-launch sanitizer state, attached to every [`crate::BlockCtx`] of
/// the launch by `Device::launch` when sanitizing is enabled.
pub(crate) struct LaunchSanitizer {
    kernel: &'static str,
    findings: Vec<Finding>,
    index: HashMap<(FindingKind, u64), usize>,
    waived: Vec<String>,
    // --- block-scoped state (reset by begin_block) ---
    cur_block: usize,
    shared_written: Vec<bool>,
    shared_allocs: Vec<SharedAlloc>,
    // --- step-scoped state (reset by end_step) ---
    cur_step: usize,
    step_shared: HashMap<u32, WordAcc>,
    step_global: HashMap<u64, WordAcc>,
    step_log: Vec<StepAccess>,
    // --- launch-wide state ---
    /// First writer of each global 4-byte word: (block, lane, step).
    global_writers: HashMap<u64, (usize, usize, usize)>,
}

impl LaunchSanitizer {
    pub(crate) fn new(kernel: &'static str) -> Self {
        LaunchSanitizer {
            kernel,
            findings: Vec::new(),
            index: HashMap::new(),
            waived: Vec::new(),
            cur_block: 0,
            shared_written: Vec::new(),
            shared_allocs: Vec::new(),
            cur_step: 0,
            step_shared: HashMap::new(),
            step_global: HashMap::new(),
            step_log: Vec::new(),
            global_writers: HashMap::new(),
        }
    }

    /// Resets shared-memory state for a new block (shared memory does not
    /// survive across blocks, so initcheck bitmaps start over).
    pub(crate) fn begin_block(&mut self, block_idx: usize) {
        self.cur_block = block_idx;
        self.shared_written.clear();
        self.shared_allocs.clear();
    }

    /// Marks the start of a barrier interval.
    pub(crate) fn begin_step(&mut self, step: usize) {
        self.cur_step = step;
    }

    /// Registers a shared allocation (sizes the initcheck bitmap).
    pub(crate) fn on_alloc_shared(
        &mut self,
        base_word: u32,
        words: u32,
        len: usize,
        elem: &'static str,
    ) {
        let end = (base_word + words) as usize;
        if self.shared_written.len() < end {
            self.shared_written.resize(end, false);
        }
        self.shared_allocs.push(SharedAlloc {
            base_word,
            words,
            len,
            elem,
        });
    }

    fn shared_alloc_for(&self, word: u32) -> String {
        self.shared_allocs
            .iter()
            .position(|a| word >= a.base_word && word < a.base_word + a.words)
            .map(|i| self.shared_allocs[i].describe(i))
            .unwrap_or_default()
    }

    /// An in-bounds shared access by `lane` in the current step.
    /// `tracked` accesses also feed the perf lints; untracked ones are
    /// analyzed for races and initialization only.
    pub(crate) fn shared_access(
        &mut self,
        lane: usize,
        word: u32,
        words: u32,
        write: bool,
        slot: u32,
        tracked: bool,
    ) {
        for w in word..word + words {
            self.step_shared
                .entry(w)
                .or_default()
                .touch(lane as u32, write);
        }
        if write {
            for w in word..word + words {
                self.shared_written[w as usize] = true;
            }
        } else {
            for w in word..word + words {
                if !self.shared_written[w as usize] {
                    let alloc = self.shared_alloc_for(w);
                    self.emit(
                        FindingKind::UninitializedRead,
                        w as u64,
                        lane,
                        w as u64,
                        alloc,
                        format!("read of shared word {w} never written since alloc_shared"),
                    );
                }
            }
        }
        if tracked {
            self.step_log.push(StepAccess {
                lane: lane as u32,
                slot,
                addr: word as u64,
                size: words,
                shared: true,
            });
        }
    }

    /// An in-bounds tracked global access by `lane` in the current step.
    /// `describe` is invoked only if a finding must name the buffer.
    pub(crate) fn global_access(
        &mut self,
        lane: usize,
        addr: u64,
        bytes: u32,
        write: bool,
        slot: u32,
        describe: &dyn Fn() -> String,
    ) {
        let first = addr / 4;
        let last = (addr + bytes as u64 - 1) / 4;
        for w in first..=last {
            self.step_global
                .entry(w)
                .or_default()
                .touch(lane as u32, write);
            if write {
                match self.global_writers.get(&w) {
                    Some(&(b, l, s)) if b != self.cur_block => {
                        let detail = format!(
                            "global word 0x{:x} written by block {} (lane {l}, step {s}) \
                             and block {} (lane {lane}, step {}); inter-block write order \
                             is undefined within a launch",
                            w * 4,
                            b,
                            self.cur_block,
                            self.cur_step
                        );
                        self.emit(FindingKind::GlobalRace, w, lane, w * 4, describe(), detail);
                    }
                    Some(_) => {}
                    None => {
                        self.global_writers
                            .insert(w, (self.cur_block, lane, self.cur_step));
                    }
                }
            }
        }
        self.step_log.push(StepAccess {
            lane: lane as u32,
            slot,
            addr,
            size: bytes,
            shared: false,
        });
    }

    /// Records a shared out-of-bounds access (memcheck).
    pub(crate) fn record_shared_oob(
        &mut self,
        lane: usize,
        base_word: u32,
        len: usize,
        idx: usize,
        write: bool,
    ) {
        let alloc = self.shared_alloc_for(base_word);
        self.emit(
            FindingKind::SharedOutOfBounds,
            base_word as u64 ^ (idx as u64) << 32,
            lane,
            base_word as u64,
            alloc,
            format!(
                "shared {} out of bounds: index {idx} >= len {len}; access skipped",
                if write { "write" } else { "read" }
            ),
        );
    }

    /// Records a global out-of-bounds access (memcheck).
    pub(crate) fn record_global_oob(
        &mut self,
        lane: usize,
        base_addr: u64,
        len: usize,
        idx: usize,
        write: bool,
        alloc: String,
    ) {
        self.emit(
            FindingKind::GlobalOutOfBounds,
            base_addr ^ (idx as u64) << 32,
            lane,
            base_addr,
            alloc,
            format!(
                "global {} out of bounds: index {idx} >= len {len}; access skipped",
                if write { "write" } else { "read" }
            ),
        );
    }

    /// Ends the current barrier interval: emits intra-step races and the
    /// coalescing / bank-conflict lints, then clears step state.
    pub(crate) fn end_step(&mut self, spec: &DeviceSpec) {
        let shared: Vec<(u32, WordAcc)> = self
            .step_shared
            .iter()
            .filter(|(_, acc)| acc.is_race())
            .map(|(&w, &acc)| (w, acc))
            .collect();
        for (w, acc) in shared {
            let writer = acc.write_lane.unwrap_or(acc.first_lane);
            let other = if acc.other_lane == Some(writer) {
                acc.first_lane
            } else {
                acc.other_lane.unwrap_or(acc.first_lane)
            };
            let alloc = self.shared_alloc_for(w);
            self.emit(
                FindingKind::SharedRace,
                w as u64,
                writer as usize,
                w as u64,
                alloc,
                format!(
                    "lanes {writer} and {other} touched shared word {w} in the same step \
                     with ≥1 write; intra-step ordering is undefined"
                ),
            );
        }
        let global: Vec<(u64, WordAcc)> = self
            .step_global
            .iter()
            .filter(|(_, acc)| acc.is_race())
            .map(|(&w, &acc)| (w, acc))
            .collect();
        for (w, acc) in global {
            let writer = acc.write_lane.unwrap_or(acc.first_lane);
            let other = if acc.other_lane == Some(writer) {
                acc.first_lane
            } else {
                acc.other_lane.unwrap_or(acc.first_lane)
            };
            self.emit(
                FindingKind::GlobalRace,
                w,
                writer as usize,
                w * 4,
                String::new(),
                format!(
                    "lanes {writer} and {other} touched global word 0x{:x} in the same \
                     step with ≥1 write",
                    w * 4
                ),
            );
        }

        if !self.step_log.is_empty() {
            self.perf_lint_step(spec);
        }

        self.step_shared.clear();
        self.step_global.clear();
        self.step_log.clear();
    }

    /// Warp/slot grouping of the step's tracked accesses, mirroring the
    /// replay model: global accesses coalesce into 32-byte sectors,
    /// shared accesses pay the per-bank degree over distinct words.
    fn perf_lint_step(&mut self, spec: &DeviceSpec) {
        let ws = spec.warp_size as u32;
        let banks = spec.shared_banks;
        let mut groups: HashMap<(u32, u32, bool), Vec<StepAccess>> = HashMap::new();
        for a in self.step_log.drain(..) {
            groups
                .entry((a.lane / ws, a.slot, a.shared))
                .or_default()
                .push(a);
        }
        let mut scratch: Vec<u64> = Vec::new();
        for ((warp, _slot, shared), accs) in groups {
            scratch.clear();
            let lane = accs[0].lane as usize;
            if shared {
                for a in &accs {
                    for dw in 0..a.size {
                        scratch.push(a.addr + dw as u64);
                    }
                }
                scratch.sort_unstable();
                scratch.dedup();
                let mut bank_counts = vec![0u64; banks];
                for &w in &scratch {
                    bank_counts[(w as usize) % banks] += 1;
                }
                let degree = bank_counts.iter().copied().max().unwrap_or(0);
                if degree >= MIN_BANK_CONFLICT_DEGREE {
                    self.emit(
                        FindingKind::BankConflict,
                        0,
                        lane,
                        accs[0].addr,
                        String::new(),
                        format!(
                            "warp {warp} step {}: {degree}-way bank conflict over {} distinct \
                             shared words",
                            self.cur_step,
                            scratch.len()
                        ),
                    );
                }
            } else {
                for a in &accs {
                    let first = a.addr / 32;
                    let last = (a.addr + a.size as u64 - 1) / 32;
                    for s in first..=last {
                        scratch.push(s);
                    }
                }
                scratch.sort_unstable();
                scratch.dedup();
                let sectors = scratch.len() as u64;
                let n = accs.len() as u64;
                if n >= MIN_ACCESSES_FOR_COALESCING
                    && sectors as f64 / n as f64 > MAX_SECTORS_PER_ACCESS
                {
                    self.emit(
                        FindingKind::UncoalescedGlobal,
                        0,
                        lane,
                        accs[0].addr,
                        String::new(),
                        format!(
                            "warp {warp} step {}: {sectors} sectors for {n} global accesses \
                             ({:.2} sectors/access)",
                            self.cur_step,
                            sectors as f64 / n as f64
                        ),
                    );
                }
            }
        }
    }

    /// Launch-level occupancy lint, applied once after all blocks ran.
    pub(crate) fn check_occupancy(&mut self, occ: &Occupancy, waiver: Option<&'static str>) {
        if occ.occupancy >= MIN_OCCUPANCY {
            return;
        }
        let detail = format!(
            "occupancy {:.3} ({} warps/SM, limited by {:?}) below threshold {:.2}",
            occ.occupancy, occ.warps_per_sm, occ.limiter, MIN_OCCUPANCY
        );
        if let Some(reason) = waiver {
            self.waived
                .push(format!("perf.low-occupancy: {detail}; waived: {reason}"));
        } else {
            self.emit(FindingKind::LowOccupancy, 0, 0, 0, String::new(), detail);
        }
    }

    fn emit(
        &mut self,
        kind: FindingKind,
        key: u64,
        lane: usize,
        address: u64,
        allocation: String,
        detail: String,
    ) {
        if let Some(&i) = self.index.get(&(kind, key)) {
            self.findings[i].occurrences += 1;
            return;
        }
        self.index.insert((kind, key), self.findings.len());
        self.findings.push(Finding {
            kind,
            kernel: self.kernel,
            block: self.cur_block,
            step: self.cur_step,
            lane,
            address,
            allocation,
            detail,
            occurrences: 1,
        });
    }

    /// Consumes the per-launch state into the final report.
    pub(crate) fn finalize(
        mut self,
        grid_dim: usize,
        block_dim: usize,
        stream: usize,
    ) -> SanitizerReport {
        self.findings.sort_by_key(|f| {
            (
                match f.severity() {
                    Severity::Error => 0u8,
                    Severity::Warning => 1,
                },
                f.block,
                f.step,
            )
        });
        SanitizerReport {
            kernel: self.kernel,
            grid_dim,
            block_dim,
            stream,
            findings: self.findings,
            waived: self.waived,
        }
    }
}

/// Everything the sanitizer found in one kernel launch.
#[derive(Debug, Clone)]
pub struct SanitizerReport {
    /// Kernel name.
    pub kernel: &'static str,
    /// Blocks in the launch.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Stream the launch was issued on.
    pub stream: usize,
    /// Deduplicated findings, errors first, then by (block, step).
    pub findings: Vec<Finding>,
    /// Lints suppressed by an explicit kernel waiver, with the reason.
    pub waived: Vec<String>,
}

impl SanitizerReport {
    /// True when nothing was found (waived lints do not count).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of correctness findings.
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity() == Severity::Error)
            .count()
    }

    /// Number of perf-lint findings.
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
            "========= simt-sanitize: `{}` (grid {} × block {}, stream {}) =========\n",
            self.kernel, self.grid_dim, self.block_dim, self.stream
        );
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
                    r#"{{"kind":"{}","severity":"{}","kernel":"{}","block":{},"step":{},"lane":{},"address":{},"allocation":"{}","detail":"{}","occurrences":{}}}"#,
                    f.kind.code(),
                    match f.severity() {
                        Severity::Error => "error",
                        Severity::Warning => "warning",
                    },
                    json_escape(f.kernel),
                    f.block,
                    f.step,
                    f.lane,
                    f.address,
                    json_escape(&f.allocation),
                    json_escape(&f.detail),
                    f.occurrences
                )
            })
            .collect();
        let waived: Vec<String> = self
            .waived
            .iter()
            .map(|w| format!(r#""{}""#, json_escape(w)))
            .collect();
        format!(
            r#"{{"kernel":"{}","grid_dim":{},"block_dim":{},"stream":{},"errors":{},"warnings":{},"findings":[{}],"waived":[{}]}}"#,
            json_escape(self.kernel),
            self.grid_dim,
            self.block_dim,
            self.stream,
            self.error_count(),
            self.warning_count(),
            findings.join(","),
            waived.join(",")
        )
    }
}

impl std::fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Serializes a batch of launch reports as one JSON array — the artifact
/// format the CI sanitizer sweep uploads.
pub fn reports_to_json(reports: &[SanitizerReport]) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn san() -> LaunchSanitizer {
        LaunchSanitizer::new("unit")
    }

    #[test]
    fn sanitizer_dedups_and_counts_occurrences() {
        let mut s = san();
        s.begin_block(0);
        s.on_alloc_shared(0, 64, 64, "f32");
        for step in 0..3 {
            s.begin_step(step);
            // two lanes write the same word every step
            s.shared_access(1, 7, 1, true, 0, true);
            s.shared_access(2, 7, 1, true, 0, true);
            s.end_step(&DeviceSpec::titan_x_maxwell());
        }
        let rep = s.finalize(1, 32, 0);
        let races = rep.findings_of(FindingKind::SharedRace);
        assert_eq!(races.len(), 1, "same word dedups to one finding");
        assert_eq!(races[0].occurrences, 3);
        assert_eq!(races[0].step, 0, "attribution keeps the first occurrence");
        assert_eq!(rep.error_count(), 1);
    }

    #[test]
    fn sanitizer_single_lane_rmw_is_not_a_race() {
        let mut s = san();
        s.begin_block(0);
        s.on_alloc_shared(0, 64, 64, "f32");
        s.begin_step(0);
        s.shared_access(5, 9, 1, true, 0, true);
        s.shared_access(5, 9, 1, false, 1, true);
        s.end_step(&DeviceSpec::titan_x_maxwell());
        assert!(s.finalize(1, 32, 0).is_clean());
    }

    #[test]
    fn sanitizer_broadcast_read_is_not_a_race() {
        let mut s = san();
        s.begin_block(0);
        s.on_alloc_shared(0, 64, 64, "f32");
        // word 3 written in step 0 by one lane, read by all in step 1
        s.begin_step(0);
        s.shared_access(0, 3, 1, true, 0, true);
        s.end_step(&DeviceSpec::titan_x_maxwell());
        s.begin_step(1);
        for lane in 0..32 {
            s.shared_access(lane, 3, 1, false, 0, true);
        }
        s.end_step(&DeviceSpec::titan_x_maxwell());
        assert!(s.finalize(1, 32, 0).is_clean());
    }

    #[test]
    fn sanitizer_cross_block_write_conflict() {
        let mut s = san();
        s.begin_block(0);
        s.begin_step(0);
        s.global_access(3, 0x1000, 4, true, 0, &|| "buf".into());
        s.end_step(&DeviceSpec::titan_x_maxwell());
        s.begin_block(1);
        s.begin_step(0);
        s.global_access(4, 0x1000, 4, true, 0, &|| "buf".into());
        s.end_step(&DeviceSpec::titan_x_maxwell());
        let rep = s.finalize(2, 32, 0);
        let races = rep.findings_of(FindingKind::GlobalRace);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].block, 1, "flagged at the second writer");
        assert_eq!(races[0].lane, 4);
    }

    #[test]
    fn sanitizer_json_escapes_and_renders() {
        let mut s = san();
        s.begin_block(0);
        s.begin_step(2);
        s.record_global_oob(9, 0x40, 16, 99, true, "GpuBuffer<\"x\">".into());
        let rep = s.finalize(1, 32, 7);
        let j = rep.to_json();
        assert!(j.contains(r#""kind":"memcheck.global-oob""#), "{j}");
        assert!(j.contains(r#"GpuBuffer<\"x\">"#), "{j}");
        assert!(j.contains(r#""stream":7"#), "{j}");
        assert!(rep.render().contains("1 error(s)"));
        let arr = reports_to_json(&[rep.clone(), rep]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
    }

    #[test]
    fn sanitizer_occupancy_waiver_suppresses_lint() {
        let spec = DeviceSpec::titan_x_maxwell();
        let occ = Occupancy::compute(&spec, 128, 32 * 1024, 32);
        assert!(occ.occupancy < 0.25);
        let mut s = san();
        s.check_occupancy(&occ, None);
        let rep = s.finalize(1, 128, 0);
        assert_eq!(rep.findings_of(FindingKind::LowOccupancy).len(), 1);

        let mut s = san();
        s.check_occupancy(&occ, Some("inherent to the algorithm"));
        let rep = s.finalize(1, 128, 0);
        assert!(rep.is_clean());
        assert_eq!(rep.waived.len(), 1);
    }
}
