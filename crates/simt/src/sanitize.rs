//! `simt::sanitize` — the dynamic analysis pass, a compute-sanitizer for
//! simulated kernels.
//!
//! Real CUDA ships `compute-sanitizer` with three main tools; this pass
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
//! On top of those, the **perf lints** of [`crate::analysis`] judge the
//! measured warp groups: uncoalesced global access, shared-memory bank
//! conflicts, and occupancy-limiting launch configurations.
//!
//! Enable per device with [`crate::Device::enable_sanitizer`] (every
//! launch, including launches issued inside stream scopes, then appends
//! its findings to an [`AnalysisReport`]) or per launch with
//! [`crate::Device::launch_sanitized`]. Findings are emitted in a fixed
//! order (word order within a step, then warp and slot order), so a
//! launch renders the same report on every run.
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

use crate::analysis::{bank_conflicted, uncoalesced, AnalysisReport, Finding, FindingKind, Source};
use crate::spec::DeviceSpec;

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

    /// A race's writing lane and one other lane.
    fn racing_pair(&self) -> (u32, u32) {
        let writer = self.write_lane.unwrap_or(self.first_lane);
        let other = if self.other_lane == Some(writer) {
            self.first_lane
        } else {
            self.other_lane.unwrap_or(self.first_lane)
        };
        (writer, other)
    }
}

/// The racing words of one step's accumulator map, in word order (a
/// `HashMap` iterates in a different order per map). Clears the map.
fn races_in_order<K: Copy + Ord>(step: &mut HashMap<K, WordAcc>) -> Vec<(K, WordAcc)> {
    let mut races: Vec<(K, WordAcc)> = step.drain().filter(|(_, acc)| acc.is_race()).collect();
    races.sort_unstable_by_key(|&(w, _)| w);
    races
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
#[derive(Default)]
pub(crate) struct LaunchSanitizer {
    kernel: &'static str,
    findings: Vec<Finding>,
    index: HashMap<(FindingKind, u64), usize>,
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
            ..LaunchSanitizer::default()
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

    /// Records an out-of-bounds access (memcheck) past the `len`
    /// elements at `base`: a global byte address in the buffer `alloc`
    /// describes, or a shared word when `alloc` is `None`.
    pub(crate) fn record_oob(
        &mut self,
        lane: usize,
        base: u64,
        len: usize,
        idx: usize,
        write: bool,
        alloc: Option<String>,
    ) {
        let (kind, space, alloc) = match alloc {
            Some(alloc) => (FindingKind::GlobalOutOfBounds, "global", alloc),
            None => {
                let alloc = self.shared_alloc_for(base as u32);
                (FindingKind::SharedOutOfBounds, "shared", alloc)
            }
        };
        let op = if write { "write" } else { "read" };
        self.emit(
            kind,
            base ^ (idx as u64) << 32,
            lane,
            base,
            alloc,
            format!("{space} {op} out of bounds: index {idx} >= len {len}; access skipped"),
        );
    }

    /// Ends the current barrier interval: emits intra-step races in word
    /// order and the coalescing / bank-conflict lints, then clears step
    /// state.
    pub(crate) fn end_step(&mut self, spec: &DeviceSpec) {
        for (w, acc) in races_in_order(&mut self.step_shared) {
            let (writer, other) = acc.racing_pair();
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
        for (w, acc) in races_in_order(&mut self.step_global) {
            let (writer, other) = acc.racing_pair();
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
    }

    /// Warp/slot grouping of the step's tracked accesses, mirroring the
    /// replay model: global accesses coalesce into 32-byte sectors,
    /// shared accesses pay the per-bank degree over distinct words.
    /// Groups are judged in (warp, slot) order, so the group a
    /// deduplicated finding is attributed to is the same on every run.
    fn perf_lint_step(&mut self, spec: &DeviceSpec) {
        let ws = spec.warp_size as u32;
        let banks = spec.shared_banks;
        let mut log = std::mem::take(&mut self.step_log);
        let group = |a: &StepAccess| (a.lane / ws, a.slot, a.shared);
        // stable: each group keeps its accesses in lane order
        log.sort_by_key(group);
        let mut scratch: Vec<u64> = Vec::new();
        for accs in log.chunk_by(|a, b| group(a) == group(b)) {
            let (warp, _, shared) = group(&accs[0]);
            let lane = accs[0].lane as usize;
            scratch.clear();
            if shared {
                for a in accs {
                    scratch.extend((0..a.size as u64).map(|dw| a.addr + dw));
                }
                scratch.sort_unstable();
                scratch.dedup();
                let mut bank_counts = vec![0u64; banks];
                for &w in &scratch {
                    bank_counts[(w as usize) % banks] += 1;
                }
                let degree = bank_counts.iter().copied().max().unwrap_or(0);
                if bank_conflicted(degree) {
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
                for a in accs {
                    scratch.extend(a.addr / 32..=(a.addr + a.size as u64 - 1) / 32);
                }
                scratch.sort_unstable();
                scratch.dedup();
                let sectors = scratch.len() as u64;
                let n = accs.len() as u64;
                if uncoalesced(sectors, n) {
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
        log.clear();
        self.step_log = log;
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
            block: self.cur_block,
            step: self.cur_step,
            lane,
            address,
            allocation,
            ..Finding::new(kind, Source::Dynamic, self.kernel, "", detail)
        });
    }

    /// Ends the launch: adds its findings to `report`, applies the
    /// occupancy lint (waived by `waiver`) and sorts the findings.
    pub(crate) fn finish(self, report: &mut AnalysisReport, waiver: Option<&str>) {
        report.findings.extend(self.findings);
        report.check_occupancy(Source::Dynamic, waiver);
        report.sort_findings();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::reports_to_json;
    use crate::occupancy::Occupancy;

    fn san() -> LaunchSanitizer {
        LaunchSanitizer::new("unit")
    }

    /// The report of a one-block launch of `block_dim` threads with
    /// `shared` bytes of shared memory, finished by `s`.
    fn report(
        s: LaunchSanitizer,
        block_dim: usize,
        shared: usize,
        waiver: Option<&str>,
    ) -> AnalysisReport {
        let spec = DeviceSpec::titan_x_maxwell();
        let occ = Occupancy::compute(&spec, block_dim, shared, 32);
        let mut rep = AnalysisReport::new("unit", 1, block_dim, occ);
        s.finish(&mut rep, waiver);
        rep
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
        let rep = report(s, 32, 0, None);
        let races = rep.findings_of(FindingKind::SharedRace);
        assert_eq!(races.len(), 1, "same word dedups to one finding");
        assert_eq!(races[0].occurrences, 3);
        assert_eq!(races[0].step, 0, "attribution keeps the first occurrence");
        assert_eq!(races[0].source, Source::Dynamic);
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
        assert!(report(s, 32, 0, None).is_clean());
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
        assert!(report(s, 32, 0, None).is_clean());
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
        let rep = report(s, 32, 0, None);
        let races = rep.findings_of(FindingKind::GlobalRace);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].block, 1, "flagged at the second writer");
        assert_eq!(races[0].lane, 4);
    }

    #[test]
    fn sanitizer_report_escapes_json_and_renders() {
        let mut s = san();
        s.begin_block(0);
        s.begin_step(2);
        s.record_oob(9, 0x40, 16, 99, true, Some("GpuBuffer<\"x\">".into()));
        let mut rep = report(s, 32, 0, None);
        rep.stream = 7;
        let j = rep.to_json();
        assert!(j.contains(r#""kind":"bounds.global-oob""#), "{j}");
        assert!(j.contains(r#""source":"dynamic""#), "{j}");
        assert!(j.contains(r#"GpuBuffer<\"x\">"#), "{j}");
        assert!(j.contains(r#""stream":7"#), "{j}");
        assert!(rep.render().contains("1 error(s)"));
        assert!(
            rep.render().contains("block 0 step 2 lane 9"),
            "{}",
            rep.render()
        );
        let arr = reports_to_json(&[rep.clone(), rep]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
    }

    #[test]
    fn sanitizer_occupancy_waiver_suppresses_lint() {
        let occ = Occupancy::compute(&DeviceSpec::titan_x_maxwell(), 128, 32 * 1024, 32);
        assert!(occ.occupancy < 0.25);
        let rep = report(san(), 128, 32 * 1024, None);
        let low = rep.findings_of(FindingKind::LowOccupancy);
        assert_eq!(low.len(), 1);
        assert_eq!(low[0].source, Source::Dynamic);

        let rep = report(san(), 128, 32 * 1024, Some("inherent to the algorithm"));
        assert!(rep.is_clean());
        assert_eq!(rep.waived.len(), 1);
    }
}
