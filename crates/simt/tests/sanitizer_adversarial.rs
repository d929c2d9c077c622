//! Adversarial kernels for `simt::sanitize`: each deliberately defective
//! kernel must produce the expected finding kind with correct step and
//! lane attribution (no false negatives), and the known-clean kernel must
//! produce zero findings (no false positives).

use proptest::prelude::*;
use simt::{BlockCtx, Device, FindingKind, GpuBuffer, Kernel};

/// The classic broken bitonic exchange: compare-exchange pairs read and
/// write their partner's slot inside ONE barrier interval. The simulator
/// picks a lane order and "works"; hardware would be nondeterministic.
struct RacyExchange {
    block_dim: usize,
    stride: usize,
}

impl Kernel for RacyExchange {
    fn name(&self) -> &'static str {
        "racy_exchange"
    }
    fn block_dim(&self) -> usize {
        self.block_dim
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn shared_bytes_per_block(&self) -> usize {
        self.block_dim * 4
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let h = blk.alloc_shared::<u32>(self.block_dim);
        // step 0: init every slot
        blk.step(|l| {
            let t = l.tid();
            l.swrite(h, t, (t as u32).wrapping_mul(2654435761));
        });
        // step 1: read own + partner, write own — all in one step (BUG:
        // the partner read and the partner's write to its slot race)
        let d = self.stride;
        blk.step(|l| {
            let t = l.tid();
            let p = t ^ d;
            let a = l.sread(h, t);
            let b = l.sread(h, p);
            l.swrite(h, t, a.max(b));
        });
    }
}

/// Scatter with an out-of-bounds tail: lane `t` writes `out[t * stride]`,
/// which runs past the buffer for large `t`.
struct OobScatter {
    out: GpuBuffer<u32>,
    stride: usize,
}

impl Kernel for OobScatter {
    fn name(&self) -> &'static str {
        "oob_scatter"
    }
    fn block_dim(&self) -> usize {
        32
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let stride = self.stride;
        let out = self.out.clone();
        blk.step(|l| {
            let t = l.tid();
            l.gwrite(&out, t * stride, t as u32 + 1);
        });
    }
}

/// Shared scan that reads the upper half of its staging buffer before
/// anything ever wrote it (the default-fill masks the garbage that would
/// be observed on silicon).
struct ReadBeforeWriteScan {
    block_dim: usize,
}

impl Kernel for ReadBeforeWriteScan {
    fn name(&self) -> &'static str {
        "rbw_scan"
    }
    fn block_dim(&self) -> usize {
        self.block_dim
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn shared_bytes_per_block(&self) -> usize {
        2 * self.block_dim * 4
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let bd = self.block_dim;
        let h = blk.alloc_shared::<u32>(2 * bd);
        blk.step(|l| {
            let t = l.tid();
            l.swrite(h, t, t as u32);
        });
        let mut sums = vec![0u32; bd];
        blk.step(|l| {
            let t = l.tid();
            // the lower-half read is initialized (written in step 0);
            // the upper-half read never was — initcheck must fire there
            sums[t] = l.sread(h, t).wrapping_add(l.sread(h, bd + t));
        });
    }
}

/// A correct barrier-disciplined exchange: reads and writes live in
/// separate steps, every lane writes only its own slot, and global
/// traffic is unit-stride — nothing for any analysis to flag.
struct CleanExchange {
    input: GpuBuffer<u32>,
    out: GpuBuffer<u32>,
    block_dim: usize,
    stride: usize,
}

impl Kernel for CleanExchange {
    fn name(&self) -> &'static str {
        "clean_exchange"
    }
    fn block_dim(&self) -> usize {
        self.block_dim
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn shared_bytes_per_block(&self) -> usize {
        self.block_dim * 4
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let bd = self.block_dim;
        let h = blk.alloc_shared::<u32>(bd);
        let input = self.input.clone();
        let out = self.out.clone();
        blk.step(|l| {
            let t = l.tid();
            let v = l.gread(&input, t);
            l.swrite(h, t, v);
        });
        // read phase and write phase in separate barrier intervals
        let mut regs = vec![0u32; bd];
        let d = self.stride;
        blk.step(|l| {
            let t = l.tid();
            let a = l.sread(h, t);
            let b = l.sread(h, t ^ d);
            regs[t] = if t & d == 0 { a.max(b) } else { a.min(b) };
        });
        blk.step(|l| {
            let t = l.tid();
            l.swrite(h, t, regs[t]);
        });
        blk.step(|l| {
            let t = l.tid();
            let v = l.sread(h, t);
            l.gwrite(&out, t, v);
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sanitizer_catches_racy_bitonic_exchange(
        bd in prop::sample::select(vec![32usize, 64, 128]),
        stride in prop::sample::select(vec![1usize, 2, 4, 8, 16]),
    ) {
        let dev = Device::titan_x();
        let (_, rep) = dev
            .launch_sanitized(&RacyExchange { block_dim: bd, stride })
            .unwrap();
        let races = rep.findings_of(FindingKind::SharedRace);
        prop_assert_eq!(races.len(), bd, "one race per shared word");
        for f in races {
            prop_assert_eq!(f.step, 1, "race is in the exchange step");
            // the flagged word is written by exactly its own lane
            prop_assert_eq!(f.lane as u64, f.address);
            prop_assert!(f.allocation.contains("shared #0"), "{}", f.allocation);
        }
        // init step + separate-lane ownership elsewhere: no other errors
        prop_assert_eq!(rep.error_count(), bd);
    }

    #[test]
    fn sanitizer_catches_oob_scatter(
        len in 8usize..48,
        stride in 2usize..8,
    ) {
        let dev = Device::titan_x();
        let out = dev.alloc::<u32>(len);
        let (_, rep) = dev.launch_sanitized(&OobScatter { out: out.clone(), stride }).unwrap();
        let oob = rep.findings_of(FindingKind::GlobalOutOfBounds);
        let first_offender = len.div_ceil(stride);
        prop_assert_eq!(oob.len(), 32 - first_offender, "one finding per offending lane's index");
        prop_assert_eq!(oob[0].step, 0);
        prop_assert_eq!(oob[0].lane, first_offender, "attributed to the first offending lane");
        prop_assert!(oob[0].allocation.contains("GpuBuffer<u32>"), "{}", oob[0].allocation);
        // in-bounds writes landed; the faulting ones were skipped
        prop_assert_eq!(out.get(0), 1);
        prop_assert_eq!(rep.error_count(), oob.len());
    }

    #[test]
    fn sanitizer_catches_read_before_write_scan(
        bd in prop::sample::select(vec![32usize, 64, 128]),
    ) {
        let dev = Device::titan_x();
        let (_, rep) = dev
            .launch_sanitized(&ReadBeforeWriteScan { block_dim: bd })
            .unwrap();
        let uninit = rep.findings_of(FindingKind::UninitializedRead);
        prop_assert_eq!(uninit.len(), bd, "every upper-half word flagged");
        prop_assert_eq!(uninit[0].step, 1, "flagged in the scan step");
        prop_assert_eq!(uninit[0].lane, 0);
        prop_assert_eq!(uninit[0].address, bd as u64, "first unwritten word");
        prop_assert_eq!(rep.error_count(), bd, "the written lower half is not flagged");
    }

    #[test]
    fn sanitizer_clean_kernel_has_zero_findings(
        bd in prop::sample::select(vec![32usize, 64, 128, 256]),
        stride in prop::sample::select(vec![1usize, 2, 4, 8, 16]),
    ) {
        let dev = Device::titan_x();
        let data: Vec<u32> = (0..bd as u32).map(|i| i.wrapping_mul(48271)).collect();
        let input = dev.upload(&data);
        let out = dev.alloc::<u32>(bd);
        let (_, rep) = dev
            .launch_sanitized(&CleanExchange { input, out, block_dim: bd, stride })
            .unwrap();
        prop_assert!(rep.is_clean(), "false positives:\n{}", rep.render());
    }
}

/// Same buffer written by every block: the cross-block write-conflict
/// side of racecheck.
struct CrossBlockWriter {
    out: GpuBuffer<u32>,
}

impl Kernel for CrossBlockWriter {
    fn name(&self) -> &'static str {
        "cross_block_writer"
    }
    fn block_dim(&self) -> usize {
        32
    }
    fn grid_dim(&self) -> usize {
        4
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let out = self.out.clone();
        let b = blk.block_idx as u32;
        blk.step(move |l| {
            let t = l.tid();
            l.gwrite(&out, t, b);
        });
    }
}

#[test]
fn sanitizer_catches_cross_block_global_write_conflict() {
    let dev = Device::titan_x();
    let out = dev.alloc::<u32>(32);
    let (_, rep) = dev.launch_sanitized(&CrossBlockWriter { out }).unwrap();
    let races = rep.findings_of(FindingKind::GlobalRace);
    assert_eq!(races.len(), 32, "every word has a conflicting writer");
    assert_eq!(races[0].block, 1, "flagged at the second writing block");
    assert_eq!(
        races[0].occurrences, 3,
        "blocks 1..=3 all conflict with block 0"
    );
    assert!(
        races[0].detail.contains("inter-block"),
        "{}",
        races[0].detail
    );
}

#[test]
fn sanitizer_device_mode_covers_streamed_launches() {
    let dev = Device::titan_x();
    dev.enable_sanitizer();
    let st = dev.create_stream();
    let out = dev.alloc::<u32>(32);
    dev.stream_scope(st.id(), || {
        dev.launch(&OobScatter {
            out: out.clone(),
            stride: 4,
        })
        .unwrap();
    });
    dev.disable_sanitizer();
    // disabled: no report for this launch
    dev.launch(&OobScatter { out, stride: 1 }).unwrap();

    let reports = dev.analysis_since(0);
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].stream, st.id().0, "stream id stamped");
    assert!(reports[0].error_count() > 0);
    // the per-stream view sees the same report
    let via_stream = st.analysis_reports();
    assert_eq!(via_stream.len(), 1);
    assert_eq!(via_stream[0].kernel, "oob_scatter");
    // draining empties the log
    assert_eq!(dev.take_analysis().len(), 1);
    assert!(dev.analysis_since(0).is_empty());
    assert_eq!(dev.analysis_len(), 0);
}

/// Unsanitized OOB must panic (bounds checks are always-on now, even in
/// release builds — this test runs in the CI `--release` sanitizer job).
struct UntrackedOob;

impl Kernel for UntrackedOob {
    fn name(&self) -> &'static str {
        "untracked_oob"
    }
    fn block_dim(&self) -> usize {
        32
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn shared_bytes_per_block(&self) -> usize {
        64
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let h = blk.alloc_shared::<u32>(16);
        blk.step(|l| {
            l.swrite_untracked(h, 16 + l.tid(), 7);
        });
    }
}

#[test]
#[should_panic(expected = "memcheck: shared write out of bounds")]
fn sanitizer_untracked_oob_panics_without_sanitizer() {
    let _ = Device::titan_x().launch(&UntrackedOob);
}

#[test]
fn sanitizer_untracked_accesses_are_not_a_blind_spot() {
    // the same kernel under the sanitizer: structured finding, no panic
    let dev = Device::titan_x();
    let (_, rep) = dev.launch_sanitized(&UntrackedOob).unwrap();
    let oob = rep.findings_of(FindingKind::SharedOutOfBounds);
    assert_eq!(oob.len(), 32);
    assert_eq!(oob[0].lane, 0);
    assert!(
        oob[0].detail.contains("index 16 >= len 16"),
        "{}",
        oob[0].detail
    );
}

/// Tracked shared OOB panics with the structured memcheck message when no
/// sanitizer is attached (the old `debug_assert!` is now always-on).
struct TrackedSharedOob;

impl Kernel for TrackedSharedOob {
    fn name(&self) -> &'static str {
        "tracked_shared_oob"
    }
    fn block_dim(&self) -> usize {
        32
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn shared_bytes_per_block(&self) -> usize {
        64
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let h = blk.alloc_shared::<u32>(16);
        blk.step(|l| {
            let _ = l.sread(h, 99);
        });
    }
}

#[test]
#[should_panic(expected = "memcheck: shared read out of bounds")]
fn sanitizer_tracked_oob_panics_without_sanitizer() {
    let _ = Device::titan_x().launch(&TrackedSharedOob);
}

/// Racecheck also sees the untracked accessors: two lanes write the same
/// word through `swrite_untracked` in one step.
struct UntrackedRace;

impl Kernel for UntrackedRace {
    fn name(&self) -> &'static str {
        "untracked_race"
    }
    fn block_dim(&self) -> usize {
        32
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn shared_bytes_per_block(&self) -> usize {
        64
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let h = blk.alloc_shared::<u32>(16);
        blk.step(|l| {
            l.swrite_untracked(h, l.tid() / 2, 1);
        });
    }
}

#[test]
fn sanitizer_untracked_races_detected() {
    let dev = Device::titan_x();
    let (report, srep) = dev.launch_sanitized(&UntrackedRace).unwrap();
    assert_eq!(
        srep.findings_of(FindingKind::SharedRace).len(),
        16,
        "lanes 2t and 2t+1 collide on word t:\n{}",
        srep.render()
    );
    // untracked accesses stay invisible to the traffic model
    assert_eq!(report.stats.shared_accesses, 0);
}

/// Strided global reads: every lane its own sector — the uncoalesced
/// perf lint must fire; and a stride-`banks` shared pattern must trip the
/// bank-conflict lint.
struct PerfHostile {
    input: GpuBuffer<u32>,
}

impl Kernel for PerfHostile {
    fn name(&self) -> &'static str {
        "perf_hostile"
    }
    fn block_dim(&self) -> usize {
        32
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn shared_bytes_per_block(&self) -> usize {
        32 * 32 * 4
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let h = blk.alloc_shared::<u32>(32 * 32);
        let input = self.input.clone();
        blk.step(|l| {
            let t = l.tid();
            let v = l.gread(&input, t * 32); // 128 B apart: 32 sectors
            l.swrite(h, t * 32, v); // all lanes hit bank 0: degree 32
        });
    }
}

#[test]
fn sanitizer_perf_lints_fire_and_are_warnings() {
    let dev = Device::titan_x();
    let input = dev.alloc::<u32>(32 * 32);
    let (_, rep) = dev.launch_sanitized(&PerfHostile { input }).unwrap();
    assert_eq!(rep.error_count(), 0, "{}", rep.render());
    assert_eq!(rep.findings_of(FindingKind::UncoalescedGlobal).len(), 1);
    let bank = rep.findings_of(FindingKind::BankConflict);
    assert_eq!(bank.len(), 1);
    assert!(bank[0].detail.contains("32-way"), "{}", bank[0].detail);
    let json = rep.to_json();
    assert!(json.contains("perf.bank-conflict"), "{json}");
}

/// Lanes `t` and `t ^ 1` write shared word `(t / 2) · 32`: 64 racing
/// words over 4 warps, every warp's writes on one bank — many races and
/// one deduplicated bank-conflict finding per launch.
struct PairedBankRace;

impl Kernel for PairedBankRace {
    fn name(&self) -> &'static str {
        "paired_bank_race"
    }
    fn block_dim(&self) -> usize {
        128
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn shared_bytes_per_block(&self) -> usize {
        64 * 32 * 4
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let h = blk.alloc_shared::<u32>(64 * 32);
        blk.step(|l| {
            let t = l.tid();
            l.swrite(h, (t / 2) * 32, t as u32);
        });
    }
}

#[test]
fn sanitizer_renders_byte_identical_reports_on_fresh_devices() {
    let runs: Vec<(String, String)> = (0..8)
        .map(|_| {
            let (_, rep) = Device::titan_x().launch_sanitized(&PairedBankRace).unwrap();
            assert_eq!(rep.findings_of(FindingKind::SharedRace).len(), 64);
            assert_eq!(rep.findings_of(FindingKind::BankConflict).len(), 1);
            (rep.render(), rep.to_json())
        })
        .collect();
    for (render, json) in &runs[1..] {
        assert_eq!(render, &runs[0].0, "render differs between fresh devices");
        assert_eq!(json, &runs[0].1, "JSON differs between fresh devices");
    }
    // emitted in word order, and the bank conflict is attributed to the
    // first warp's first lane
    let (_, rep) = Device::titan_x().launch_sanitized(&PairedBankRace).unwrap();
    let words: Vec<u64> = rep
        .findings_of(FindingKind::SharedRace)
        .iter()
        .map(|f| f.address)
        .collect();
    assert_eq!(words, (0..64).map(|w| w * 32).collect::<Vec<u64>>());
    let bank = rep.findings_of(FindingKind::BankConflict);
    assert_eq!((bank[0].lane, bank[0].address), (0, 0));
    assert_eq!(bank[0].occurrences, 4, "one per warp");
}
