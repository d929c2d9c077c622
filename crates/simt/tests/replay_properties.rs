//! Property-based validation of the warp-lockstep replay: for arbitrary
//! access patterns, the simulator's coalescing and bank-conflict counters
//! must equal an independently computed brute-force reference.

use std::collections::BTreeSet;

use proptest::prelude::*;
use simt::{BlockCtx, Device, DeviceCopy, DeviceSpec, GpuBuffer, Kernel, KernelStats, Occupancy};

/// A kernel where each lane performs a scripted list of shared-memory
/// word accesses (one per slot).
struct ScriptedShared {
    /// `pattern[lane][slot]` = shared word index.
    pattern: Vec<Vec<u32>>,
    words: usize,
}

impl Kernel for ScriptedShared {
    fn name(&self) -> &'static str {
        "scripted_shared"
    }
    fn block_dim(&self) -> usize {
        self.pattern.len()
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let h = blk.alloc_shared::<f32>(self.words);
        blk.step(|lane| {
            for &w in &self.pattern[lane.tid()] {
                let _ = lane.sread(h, w as usize);
            }
        });
    }
}

/// Brute-force reference: group by (warp, slot), count distinct words per
/// bank, sum the max (degree) per group.
fn reference_shared(pattern: &[Vec<u32>], warp: usize, banks: usize) -> KernelStats {
    let mut stats = KernelStats::default();
    let warps = pattern.len().div_ceil(warp);
    for w in 0..warps {
        let lanes = &pattern[w * warp..((w + 1) * warp).min(pattern.len())];
        let max_slots = lanes.iter().map(|l| l.len()).max().unwrap_or(0);
        for slot in 0..max_slots {
            let mut words: Vec<u32> = lanes.iter().filter_map(|l| l.get(slot).copied()).collect();
            if words.is_empty() {
                continue;
            }
            stats.shared_accesses += words.len() as u64;
            words.sort_unstable();
            words.dedup();
            let mut per_bank = vec![0u64; banks];
            for w in words {
                per_bank[w as usize % banks] += 1;
            }
            let degree = *per_bank.iter().max().unwrap();
            stats.shared_eff_bytes += degree * 32 * 4;
            if degree > 1 {
                stats.shared_conflict_groups += 1;
                stats.shared_conflict_cycles += degree - 1;
            }
        }
    }
    stats
}

/// One lane's accesses across a launch: `script[block][step][lane]`
/// lists the lane's accesses in slot order, each encoded as
/// `3 * index + kind` with kind 0 a shared read, 1 a global read and 2 a
/// global write of element `index`.
type Script = Vec<Vec<Vec<Vec<u32>>>>;

/// Runs a [`Script`] over shared and global arrays of `T`.
struct ScriptedMixed<T: DeviceCopy> {
    script: Script,
    block_dim: usize,
    buf: GpuBuffer<T>,
    shared_len: usize,
}

impl<T: DeviceCopy> Kernel for ScriptedMixed<T> {
    fn name(&self) -> &'static str {
        "scripted_mixed"
    }
    fn block_dim(&self) -> usize {
        self.block_dim
    }
    fn grid_dim(&self) -> usize {
        self.script.len()
    }
    fn shared_bytes_per_block(&self) -> usize {
        self.shared_len * std::mem::size_of::<T>()
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let h = blk.alloc_shared::<T>(self.shared_len);
        for step in &self.script[blk.block_idx] {
            blk.step(|lane| {
                for &code in step.get(lane.tid()).into_iter().flatten() {
                    let i = (code / 3) as usize;
                    match code % 3 {
                        0 => _ = lane.sread(h, i),
                        1 => _ = lane.gread(&self.buf, i),
                        _ => lane.gwrite(&self.buf, i, T::default()),
                    }
                }
            });
        }
    }
}

/// Brute-force reference for a [`Script`] over `T` elements: group by
/// (block, step, warp, slot); global accesses pay each distinct
/// (sector, direction) once, shared accesses pay the largest count of
/// distinct words in one bank.
fn reference_mixed<T>(script: &Script, warp: usize, base: u64, banks: usize) -> KernelStats {
    let size = std::mem::size_of::<T>() as u64;
    let wpe = size.div_ceil(4) as u32;
    let mut stats = KernelStats::default();
    for step in script.iter().flatten() {
        stats.steps += 1;
        for lanes in step.chunks(warp) {
            let max_slots = lanes.iter().map(|l| l.len()).max().unwrap_or(0);
            for slot in 0..max_slots {
                let mut sectors = BTreeSet::new();
                let mut words = BTreeSet::new();
                let (mut global, mut shared) = (0u64, 0u64);
                for &code in lanes.iter().filter_map(|l| l.get(slot)) {
                    let i = code / 3;
                    if code % 3 == 0 {
                        shared += 1;
                        words.extend(i * wpe..(i + 1) * wpe);
                    } else {
                        global += 1;
                        let addr = base + i as u64 * size;
                        for sector in addr / 32..=(addr + size - 1) / 32 {
                            sectors.insert((sector, code % 3 == 2));
                        }
                    }
                }
                if !sectors.is_empty() {
                    stats.global_accesses += global;
                    for &(_, write) in &sectors {
                        if write {
                            stats.global_write_bytes += 32;
                        } else {
                            stats.global_read_bytes += 32;
                        }
                        stats.global_sectors += 1;
                    }
                }
                if !words.is_empty() {
                    stats.shared_accesses += shared;
                    let mut per_bank = vec![0u64; banks];
                    for w in words {
                        per_bank[w as usize % banks] += 1;
                    }
                    let degree = *per_bank.iter().max().unwrap();
                    stats.shared_eff_bytes += degree * warp as u64 * 4;
                    if degree > 1 {
                        stats.shared_conflict_groups += 1;
                        stats.shared_conflict_cycles += degree - 1;
                    }
                }
            }
        }
    }
    stats
}

/// Launches `script` over `T` elements on a Titan X with `banks` shared
/// banks and returns (measured, reference) counters. The shared and
/// global arrays hold every element the script indexes.
fn run_mixed<T: DeviceCopy>(script: Script, banks: usize) -> (KernelStats, KernelStats) {
    let spec = DeviceSpec {
        shared_banks: banks,
        ..DeviceSpec::titan_x_maxwell()
    };
    let dev = Device::new(spec);
    let codes = script.iter().flatten().flatten().flatten();
    let elems = codes.map(|&c| c as usize / 3 + 1).max().unwrap_or(1);
    let buf = dev.alloc::<T>(elems);
    let base = buf.base_addr();
    let block_dim = script.iter().flatten().map(Vec::len).max().unwrap_or(1);
    let expect = reference_mixed::<T>(&script, spec.warp_size, base, banks);
    let k = ScriptedMixed {
        script,
        block_dim,
        buf,
        shared_len: elems,
    };
    (dev.launch(&k).unwrap().stats, expect)
}

/// Elements the mixed scripts index: few enough that one slot often
/// reads and writes the same sector.
const MIXED_ELEMS: usize = 96;

/// Elements one warp of a translated step indexes before its offset.
const SPAN: u32 = 48;

/// Bounds a translated warp's element offset, either way.
const REACH: u32 = 8 * 8 + 3 * 7;

/// One step of a [`Script`] in which every full warp repeats `warp0`
/// moved by its own element offset: warp `w` by `offsets[w - 1]`, then
/// edited by `edits[w - 1]` (see [`edit_warp`]). `tail` more lanes, a
/// partial warp, repeat warp 0's first lanes. Indices are biased by
/// [`REACH`] so that every offset stays in bounds.
fn translated_step(
    warp0: &[Vec<u32>],
    offsets: &[i64],
    edits: &[u32],
    tail: usize,
) -> Vec<Vec<u32>> {
    let shift = |lane: &Vec<u32>, by: i64| -> Vec<u32> {
        let by = 3 * (by + REACH as i64);
        lane.iter().map(|&c| (c as i64 + by) as u32).collect()
    };
    let mut step: Vec<Vec<u32>> = warp0.iter().map(|l| shift(l, 0)).collect();
    for (&by, &e) in offsets.iter().zip(edits) {
        let mut warp: Vec<Vec<u32>> = warp0.iter().map(|l| shift(l, by)).collect();
        edit_warp(&mut warp, e);
        step.extend(warp);
    }
    step.extend(warp0[..tail].iter().map(|l| shift(l, 0)));
    step
}

/// Breaks a warp's translation according to `e`: `e / 16` picks the
/// first lane to try and `e % 16` the edit. 0 appends a global read to
/// that lane; 1 drops the last access of the first lane from there that
/// has one; 2 hands that access to the next lane instead, which leaves
/// the warp's log as it was; 3 turns the first shared read from there
/// into a global read, and 4 the first global read into a write (a code
/// is `3 * index + kind`, so both add 1). 5 to 15 leave the warp alone.
fn edit_warp(warp: &mut [Vec<u32>], e: u32) {
    let first = e as usize / 16 % warp.len();
    let mut lanes = (first..warp.len()).chain(0..first);
    match e % 16 {
        0 => warp[first].push(3 * REACH + 1),
        1 => {
            if let Some(t) = lanes.find(|&t| !warp[t].is_empty()) {
                warp[t].pop();
            }
        }
        2 => {
            if let Some(t) = lanes.find(|&t| !warp[t].is_empty() && t + 1 < warp.len()) {
                let code = warp[t].pop().unwrap();
                warp[t + 1].insert(0, code);
            }
        }
        kind @ (3 | 4) => {
            let hit = lanes.find_map(|t| {
                let slot = warp[t].iter().position(|&c| c % 3 == kind - 3)?;
                Some((t, slot))
            });
            if let Some((t, slot)) = hit {
                warp[t][slot] += 1;
            }
        }
        _ => {}
    }
}

/// Scripted global reads: one address list per lane.
struct ScriptedGlobal {
    pattern: Vec<Vec<u32>>,
    buf: GpuBuffer<f32>,
}

impl Kernel for ScriptedGlobal {
    fn name(&self) -> &'static str {
        "scripted_global"
    }
    fn block_dim(&self) -> usize {
        self.pattern.len()
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        blk.step(|lane| {
            for &i in &self.pattern[lane.tid()] {
                let _ = lane.gread(&self.buf, i as usize);
            }
        });
    }
}

fn reference_global_bytes(pattern: &[Vec<u32>], warp: usize, base: u64) -> u64 {
    let mut bytes = 0u64;
    let warps = pattern.len().div_ceil(warp);
    for w in 0..warps {
        let lanes = &pattern[w * warp..((w + 1) * warp).min(pattern.len())];
        let max_slots = lanes.iter().map(|l| l.len()).max().unwrap_or(0);
        for slot in 0..max_slots {
            let mut sectors: Vec<u64> = lanes
                .iter()
                .filter_map(|l| l.get(slot).map(|&i| (base + i as u64 * 4) / 32))
                .collect();
            sectors.sort_unstable();
            sectors.dedup();
            bytes += 32 * sectors.len() as u64;
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shared_replay_matches_bruteforce(
        pattern in prop::collection::vec(
            prop::collection::vec(0u32..512, 0..6),
            1..96,
        ),
        banks in prop::sample::select(vec![32usize, 48, 128]),
    ) {
        let spec = DeviceSpec { shared_banks: banks, ..DeviceSpec::titan_x_maxwell() };
        let dev = Device::new(spec);
        let k = ScriptedShared { pattern: pattern.clone(), words: 512 };
        let r = dev.launch(&k).unwrap();
        let expect = reference_shared(&pattern, 32, banks);
        prop_assert_eq!(r.stats.shared_accesses, expect.shared_accesses);
        prop_assert_eq!(r.stats.shared_eff_bytes, expect.shared_eff_bytes);
        prop_assert_eq!(r.stats.shared_conflict_cycles, expect.shared_conflict_cycles);
        prop_assert_eq!(r.stats.shared_conflict_groups, expect.shared_conflict_groups);
    }

    #[test]
    fn global_replay_matches_bruteforce(
        pattern in prop::collection::vec(
            prop::collection::vec(0u32..4096, 0..5),
            1..96,
        )
    ) {
        let dev = Device::new(DeviceSpec::titan_x_maxwell());
        let buf = dev.alloc::<f32>(4096);
        let base = buf.base_addr();
        let k = ScriptedGlobal { pattern: pattern.clone(), buf };
        let r = dev.launch(&k).unwrap();
        prop_assert_eq!(
            r.stats.global_read_bytes,
            reference_global_bytes(&pattern, 32, base)
        );
    }

    /// Several blocks of several steps, shared and global accesses in
    /// the same slot, reads and writes of one sector in one slot, and
    /// 1-, 2- and 3-word elements (12-byte ones straddle sectors).
    #[test]
    fn mixed_replay_matches_bruteforce(
        script in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec(
                    prop::collection::vec(0u32..3 * MIXED_ELEMS as u32, 0..5),
                    1..72,
                ),
                1..4,
            ),
            1..4,
        ),
        width in prop::sample::select(vec![4usize, 8, 12]),
        banks in prop::sample::select(vec![32usize, 48, 128]),
    ) {
        let (got, expect) = match width {
            4 => run_mixed::<f32>(script, banks),
            8 => run_mixed::<f64>(script, banks),
            _ => run_mixed::<[f32; 3]>(script, banks),
        };
        prop_assert_eq!(got, expect);
    }

    /// Steps of 2–8 full warps in which each warp repeats warp 0's
    /// accesses moved by its own element offset: a multiple of 8 (whole
    /// sectors for 4-, 8- and 12-byte elements) or not, negative or not.
    /// Some warps are edited so that they are no translation (a lane
    /// gains or drops an access, or hands one to the next lane; a read
    /// becomes a write, a shared access a global one); some steps end in
    /// a partial warp.
    #[test]
    fn translated_warps_match_bruteforce(
        warp0s in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u32..3 * SPAN, 0..5), 32..33),
            1..3,
        ),
        sectors in prop::collection::vec(-8i64..8, 1..8),
        nudges in prop::collection::vec(prop::sample::select(vec![0i64, 0, 0, 0, 0, 1, 2, 3]), 7..8),
        edits in prop::collection::vec(0u32..16 * 32, 7..8),
        tail in prop::sample::select(vec![0usize, 0, 0, 5, 31]),
        width in prop::sample::select(vec![4usize, 8, 12]),
        banks in prop::sample::select(vec![32usize, 48, 128]),
    ) {
        // A warp sits whole sectors from the one before unless its nudge
        // is not 0: the nudges add up.
        let mut nudge = 0;
        let offsets: Vec<i64> = sectors
            .iter()
            .zip(&nudges)
            .map(|(s, n)| {
                nudge += n;
                8 * s + nudge
            })
            .collect();
        let steps = warp0s
            .iter()
            .map(|w| translated_step(w, &offsets, &edits, tail))
            .collect();
        let script = vec![steps];
        let (got, expect) = match width {
            4 => run_mixed::<f32>(script, banks),
            8 => run_mixed::<f64>(script, banks),
            _ => run_mixed::<[f32; 3]>(script, banks),
        };
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn occupancy_is_monotone_in_shared_usage(
        block in prop::sample::select(vec![32usize, 64, 128, 256, 512]),
        s1 in 0usize..48 * 1024,
        s2 in 0usize..48 * 1024,
    ) {
        let spec = DeviceSpec::titan_x_maxwell();
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let o_lo = Occupancy::compute(&spec, block, lo, 32);
        let o_hi = Occupancy::compute(&spec, block, hi, 32);
        prop_assert!(o_lo.occupancy >= o_hi.occupancy);
        prop_assert!(o_lo.bandwidth_efficiency(&spec) >= o_hi.bandwidth_efficiency(&spec));
    }

    #[test]
    fn timing_is_monotone_in_traffic(extra in 0u64..10_000_000) {
        struct Bulk { bytes: u64 }
        impl Kernel for Bulk {
            fn name(&self) -> &'static str { "bulk" }
            fn block_dim(&self) -> usize { 256 }
            fn grid_dim(&self) -> usize { 1 }
            fn run_block(&self, blk: &mut BlockCtx) {
                blk.bulk_global_read(self.bytes);
            }
        }
        let dev = Device::new(DeviceSpec::titan_x_maxwell());
        let t1 = dev.launch(&Bulk { bytes: 1_000_000 }).unwrap().time;
        let t2 = dev.launch(&Bulk { bytes: 1_000_000 + extra }).unwrap().time;
        prop_assert!(t2.seconds() >= t1.seconds());
    }
}
