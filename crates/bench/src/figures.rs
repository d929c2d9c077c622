//! The `figures` suite: every paper figure and ablation that the topk and
//! serve suites do not already measure, each on its own inputs
//! (distribution, seed, device preset, algorithm configuration).
//!
//! Sizes are relative to the top-k scale `L` (`TOPK_REPRO_LOG2N`, default
//! 22), so the full profile measures the tables in EXPERIMENTS.md. Ids
//! follow `<figure>/<series>/<column>/<row>`, the shape
//! [`BenchReport::render_tables`] pivots back into tables:
//!
//! * `fig08/k32/bitonic/b<B>` — elements per thread (Figure 8), and
//!   `ladder/k32/bitonic/<level>` — the Section 4.3 optimization ladder;
//!   both carry the shared-memory counters behind the time;
//! * `fig11b/u32`, `fig11c/f64` (n = 2^(L−1)), `fig12a/increasing`,
//!   `fig12b/bucket-killer` — every algorithm across the k sweep, plus
//!   a `bw-floor` column: one read of the input at peak bandwidth;
//! * `fig12a_regime/k8/per-thread/<dist>` — per-thread top-k at 2^(L+2)
//!   on the 5-SM `small_mobile` preset, where the sorted-input penalty
//!   shows;
//! * `fig14/{kv,kkv,kkkv}` (n = 2^(L−1)), `fig18/<dist>` — payload width
//!   and register-buffer per-thread top-k;
//! * `fig15/<dist>` — the CPU baselines (`host_wall_ms`, measured on all
//!   host threads) beside the simulated GPU algorithms;
//! * `fig16/q{1,2,3,4}` — the MapD queries on 2^min(L,19) tweets;
//! * `fig17/uniform` — measured time beside the Section 7 cost model
//!   (`sim_model_ms`);
//! * `hybrid/uniform`, `hybrid/split-k32` — the select→bitonic hybrid and
//!   the CPU+GPU split (`host_*` for the measured CPU side);
//! * `device_sweep/<device>`, `planner/log2n<x>` — the planners' picks
//!   against the measured times: the `pick` column's
//!   `sim_pick_over_best` is the pick's time over the fastest
//!   algorithm's (claim 12 gates the `planner` grid).
//!
//! Figure 11a, Figure 13, the robustness ablation and the serving sweep
//! are the topk and serve suites' `vary_k/uniform`, `vary_n/uniform`,
//! `dist` and `serve/load` cells. Every cell runs on a plain device (no
//! lint capture), delegate select on a warm index; a cell that cannot
//! launch is omitted.

use std::time::Instant;

use datagen::twitter::TweetTable;
use datagen::{
    BucketKiller, Decreasing, Distribution, Increasing, Kkkv, Kkv, Kv, TopKItem, Uniform,
};
use qdb::queries::{filtered_topk, group_topk, ranked_topk};
use qdb::{FilterOp, GpuTweetTable, QdbError, QueryResult, Strategy, TopKStrategy};
use simt::{Device, DeviceSpec, GpuBuffer, LaunchReport};
use topk::bitonic::{bitonic_topk, BitonicConfig, OptLevel};
use topk::delegate::{warm_delegate_index, DelegateConfig};
use topk::hybrid::{cpu_gpu_topk, select_then_bitonic};
use topk::{TopKAlgorithm, TopKRequest};
use topk_costmodel::planner::Algorithm;
use topk_costmodel::{
    bitonic_topk_seconds, radix_select_seconds, recommend, recommend_full, BitonicModelInput,
    FullAlgorithm, ReductionProfile,
};
use topk_cpu::{CpuBitonic, CpuTopK, HandPq, StlPq};

use crate::report::{BenchReport, Experiment};
use crate::K_SWEEP;

/// The k values of the planner grid (claim 12).
pub const PLANNER_KS: [usize; 5] = [1, 16, 64, 256, 1024];

/// Claim 12's bound: the planner's pick may take at most this multiple
/// of the fastest measured algorithm's time.
pub const PLANNER_TOLERANCE: f64 = 1.25;

/// The planner grid at top-k scale `log2n`: n = 2^(L−4), 2^(L−2) and 2^L,
/// each with the [`PLANNER_KS`] that fit in n.
pub fn planner_grid(log2n: u32) -> Vec<(u32, Vec<usize>)> {
    [4, 2, 0]
        .map(|d| log2n.saturating_sub(d))
        .into_iter()
        .map(|x| (x, PLANNER_KS.into_iter().filter(|&k| k <= 1 << x).collect()))
        .collect()
}

/// The line-up `recommend_full` prices, in its own order.
const FULL: [FullAlgorithm; 6] = [
    FullAlgorithm::Sort,
    FullAlgorithm::PerThread,
    FullAlgorithm::RadixSelect,
    FullAlgorithm::BucketSelect,
    FullAlgorithm::BitonicTopK,
    FullAlgorithm::DelegateSelect,
];

fn algorithm(f: FullAlgorithm) -> TopKAlgorithm {
    match f {
        FullAlgorithm::Sort => TopKAlgorithm::Sort,
        FullAlgorithm::PerThread => TopKAlgorithm::PerThread,
        FullAlgorithm::RadixSelect => TopKAlgorithm::RadixSelect,
        FullAlgorithm::BucketSelect => TopKAlgorithm::BucketSelect,
        FullAlgorithm::BitonicTopK => TopKAlgorithm::Bitonic(BitonicConfig::default()),
        FullAlgorithm::DelegateSelect => TopKAlgorithm::DelegateSelect(DelegateConfig::default()),
    }
}

/// Modeled milliseconds of one top-k request, `None` if it cannot launch.
fn sim_ms<T: TopKItem>(
    dev: &Device,
    alg: TopKAlgorithm,
    input: &GpuBuffer<T>,
    k: usize,
) -> Option<f64> {
    let r = TopKRequest::largest(k).with_alg(alg).run(dev, input);
    r.ok().map(|r| r.time.millis())
}

/// Uploads `data` to `dev` and warms its delegate index.
fn upload<T: TopKItem>(dev: &Device, data: &[T]) -> GpuBuffer<T> {
    let input = dev.upload(data);
    warm_delegate_index(dev, &input, DelegateConfig::default()).expect("delegate index");
    input
}

/// `algs` across `ks` on one input: `<prefix>/<alg>/k<k>` per run that
/// launches.
fn sweep<T: TopKItem>(
    out: &mut Vec<Experiment>,
    prefix: &str,
    dev: &Device,
    input: &GpuBuffer<T>,
    algs: &[TopKAlgorithm],
    ks: &[usize],
) {
    for &k in ks {
        for &alg in algs {
            if let Some(t) = sim_ms(dev, alg, input, k) {
                let id = format!("{prefix}/{}/k{k}", alg.name());
                out.push(Experiment::new(id, &[("sim_time_ms", t)]));
            }
        }
    }
}

/// Every algorithm across the k sweep plus the `bw-floor` column.
fn all_algorithms<T: TopKItem>(out: &mut Vec<Experiment>, prefix: &str, data: &[T]) {
    let dev = Device::titan_x();
    let input = upload(&dev, data);
    sweep(out, prefix, &dev, &input, &TopKAlgorithm::all(), &K_SWEEP);
    let floor = dev.spec().scan_floor_seconds(data.len() * T::SIZE_BYTES) * 1e3;
    for k in K_SWEEP {
        let id = format!("{prefix}/bw-floor/k{k}");
        out.push(Experiment::new(id, &[("sim_time_ms", floor)]));
    }
}

/// One bitonic top-32 run: its time and the shared-memory counters
/// behind it.
fn bitonic_counters(id: String, input: &[f32], cfg: BitonicConfig) -> Experiment {
    let dev = Device::titan_x();
    let r = bitonic_topk(&dev, &dev.upload(input), 32, cfg).expect("bitonic top-32");
    let sum = |f: fn(&LaunchReport) -> f64| r.reports.iter().map(f).sum::<f64>();
    Experiment::new(
        id,
        &[
            ("sim_time_ms", r.time.millis()),
            ("sim_t_shared_ms", sum(|x| x.t_shared.millis())),
            ("sim_shared_bytes", sum(|x| x.stats.shared_eff_bytes as f64)),
            (
                "sim_conflict_cycles",
                sum(|x| x.stats.shared_conflict_cycles as f64),
            ),
            (
                "sim_occupancy_first",
                r.reports.first().map_or(0.0, |x| x.occupancy.occupancy),
            ),
            ("sim_launches", r.reports.len() as f64),
        ],
    )
}

/// Runs the figures suite at top-k scale `2^log2n` (see the module docs).
pub fn run_figures_suite(log2n: u32, profile: &str) -> BenchReport {
    let mut out = Vec::new();
    let figures: [fn(&mut Vec<Experiment>, u32); 10] = [
        bitonic_ablations,
        distributions,
        payloads,
        cpu_vs_gpu,
        mapd_queries,
        cost_model,
        register_topk,
        hybrids,
        device_sweep,
        planner,
    ];
    for figure in figures {
        figure(&mut out, log2n);
    }
    BenchReport::new("figures", log2n, profile, out)
}

fn uniform(n: usize, seed: u64) -> Vec<f32> {
    Uniform.generate(n, seed)
}

fn bitonic() -> TopKAlgorithm {
    algorithm(FullAlgorithm::BitonicTopK)
}

const RADIX: TopKAlgorithm = TopKAlgorithm::RadixSelect;

/// The three input orders of Figures 12a, 15 and 18.
const ORDERS: [(&str, &dyn Distribution<f32>); 3] = [
    ("uniform", &Uniform),
    ("increasing", &Increasing),
    ("decreasing", &Decreasing),
];

/// CPU worker threads: every host thread, as the CPU baselines assume.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(4, |p| p.get())
}

/// Figure 8 and the Section 4.3 ladder: bitonic top-32, uniform f32.
fn bitonic_ablations(out: &mut Vec<Experiment>, log2n: u32) {
    let data = uniform(1 << log2n, 23);
    for b in [4usize, 8, 16, 32, 64] {
        let cfg = BitonicConfig::with_elems_per_thread(b);
        out.push(bitonic_counters(
            format!("fig08/k32/bitonic/b{b}"),
            &data,
            cfg,
        ));
    }
    let data = uniform(1 << log2n, 24);
    for opt in OptLevel::ladder() {
        let id = format!("ladder/k32/bitonic/{}", opt.name());
        out.push(bitonic_counters(id, &data, BitonicConfig::at_level(opt)));
    }
}

/// Figures 11b, 11c, 12a and 12b, and the per-thread regime of 12a.
fn distributions(out: &mut Vec<Experiment>, log2n: u32) {
    let n = 1usize << log2n;
    let data: Vec<u32> = Uniform.generate(n, 12);
    all_algorithms(out, "fig11b/u32", &data);
    let data: Vec<f64> = Uniform.generate(n / 2, 13);
    all_algorithms(out, "fig11c/f64", &data);
    let data: Vec<f32> = Increasing.generate(n, 14);
    all_algorithms(out, "fig12a/increasing", &data);
    let data: Vec<f32> = BucketKiller.generate(n, 15);
    all_algorithms(out, "fig12b/bucket-killer", &data);

    // elements per thread ≫ 32·k: 4n keys on the 5-SM preset
    let mut base = None;
    for (name, order) in ORDERS {
        let dev = Device::new(DeviceSpec::small_mobile());
        let input = dev.upload(&order.generate(n << 2, 70));
        let t = sim_ms(&dev, TopKAlgorithm::PerThread, &input, 8).expect("per-thread k=8");
        let b = *base.get_or_insert(t);
        out.push(Experiment::new(
            format!("fig12a_regime/k8/per-thread/{name}"),
            &[("sim_time_ms", t), ("sim_vs_uniform", t / b)],
        ));
    }
}

/// Figure 14: key+value items of 8, 12 and 16 bytes at n = 2^(L−1).
fn payloads(out: &mut Vec<Experiment>, log2n: u32) {
    let n = 1usize << log2n.saturating_sub(1);
    let (k0, k1, k2) = (uniform(n, 17), uniform(n, 18), uniform(n, 19));
    let dev = Device::titan_x();
    let algs = [RADIX, bitonic()];
    let kv: Vec<_> = (0..n).map(|i| Kv::new(k0[i], i as u32)).collect();
    sweep(out, "fig14/kv", &dev, &dev.upload(&kv), &algs, &K_SWEEP);
    let kkv: Vec<_> = (0..n).map(|i| Kkv::new(k0[i], k1[i], i as u32)).collect();
    sweep(out, "fig14/kkv", &dev, &dev.upload(&kkv), &algs, &K_SWEEP);
    let kkkv: Vec<_> = (0..n)
        .map(|i| Kkkv::new(k0[i], k1[i], k2[i], i as u32))
        .collect();
    sweep(out, "fig14/kkkv", &dev, &dev.upload(&kkkv), &algs, &K_SWEEP);
}

/// Figure 15: the CPU baselines' wall-clock beside the simulated GPU.
fn cpu_vs_gpu(out: &mut Vec<Experiment>, log2n: u32) {
    let n = 1usize << log2n;
    for (name, order) in &ORDERS[..2] {
        let data = order.generate(n, 20);
        let dev = Device::titan_x();
        let input = dev.upload(&data);
        for k in K_SWEEP.into_iter().filter(|&k| k <= 256) {
            for cpu in [&StlPq as &dyn CpuTopK<f32>, &HandPq, &CpuBitonic::default()] {
                let wall = Instant::now();
                let top = cpu.topk(&data, k, threads());
                let ms = wall.elapsed().as_secs_f64() * 1e3;
                assert_eq!(top.len(), k.min(n));
                let id = format!("fig15/{name}/{}/k{k}", cpu.name());
                out.push(Experiment::new(id, &[("host_wall_ms", ms)]));
            }
            let gpu = [bitonic(), RADIX];
            sweep(out, &format!("fig15/{name}"), &dev, &input, &gpu, &[k]);
        }
    }
}

/// Figure 16 and Section 6.8: the MapD queries on 2^min(L,19) tweets.
fn mapd_queries(out: &mut Vec<Experiment>, log2n: u32) {
    let host = TweetTable::generate(1 << log2n.min(19), 2017);
    let dev = Device::titan_x();
    let table = GpuTweetTable::upload(&dev, &host);
    type Query<'a> = &'a dyn Fn(Strategy) -> Result<QueryResult, QdbError>;
    let mut query = |q: &str, row: String, run: Query| {
        for strat in Strategy::all() {
            let t = run(strat).expect("MapD query").kernel_time.millis();
            let id = format!("fig16/{q}/{}/{row}", strat.name());
            out.push(Experiment::new(id, &[("sim_time_ms", t)]));
        }
    };
    for s in 0..=10 {
        let sel = s as f64 / 10.0;
        let op = FilterOp::TimeLess(host.time_cutoff_for_selectivity(sel));
        query("q1", format!("sel{sel:.1}"), &|st| {
            filtered_topk(&dev, &table, &op, 50, st)
        });
    }
    for k in [16usize, 32, 64, 128, 256] {
        query("q2", format!("k{k}"), &|st| {
            ranked_topk(&dev, &table, k, st)
        });
    }
    let langs = FilterOp::LangIn(vec![0, 1]);
    for k in [16usize, 64, 256] {
        query("q3", format!("k{k}"), &|st| {
            filtered_topk(&dev, &table, &langs, k, st)
        });
    }
    for (name, strat) in [
        ("sort", TopKStrategy::Sort),
        ("bitonic", TopKStrategy::Bitonic),
    ] {
        let r = group_topk(&dev, &table, 50, strat).expect("Q4");
        let total = r.kernel_time.millis();
        let group: f64 = r
            .breakdown
            .iter()
            .filter(|(n, _)| n.contains("group"))
            .map(|(_, t)| t.millis())
            .sum();
        out.push(Experiment::new(
            format!("fig16/q4/{name}/k50"),
            &[
                ("sim_time_ms", total),
                ("sim_group_ms", group),
                ("sim_topk_ms", total - group),
            ],
        ));
    }
}

/// Figure 17: measured time beside the Section 7 cost model.
fn cost_model(out: &mut Vec<Experiment>, log2n: u32) {
    let n = 1usize << log2n;
    let dev = Device::titan_x();
    let input = dev.upload(&uniform(n, 21));
    let radix = radix_select_seconds(dev.spec(), n, 4, &ReductionProfile::UniformFloats);
    for k in K_SWEEP {
        let bitonic_model =
            bitonic_topk_seconds(dev.spec(), BitonicModelInput::with_defaults(n, k, 4));
        for (alg, model) in [(RADIX, radix), (bitonic(), bitonic_model)] {
            let t = sim_ms(&dev, alg, &input, k).expect("figure 17 cell");
            out.push(Experiment::new(
                format!("fig17/uniform/{}/k{k}", alg.name()),
                &[("sim_time_ms", t), ("sim_model_ms", model * 1e3)],
            ));
        }
    }
}

/// Figure 18: register-buffer against shared-heap per-thread top-k.
fn register_topk(out: &mut Vec<Experiment>, log2n: u32) {
    let algs = [TopKAlgorithm::PerThread, TopKAlgorithm::PerThreadRegisters];
    for (name, order) in ORDERS {
        let dev = Device::titan_x();
        let input = dev.upload(&order.generate(1 << log2n, 22));
        let prefix = format!("fig18/{name}");
        sweep(out, &prefix, &dev, &input, &algs, &K_SWEEP[..9]);
    }
}

/// The Section 8 hybrids: select→bitonic across k, and the CPU+GPU split.
fn hybrids(out: &mut Vec<Experiment>, log2n: u32) {
    let data = uniform(1 << log2n, 55);
    let dev = Device::titan_x();
    let input = dev.upload(&data);
    for k in K_SWEEP {
        sweep(
            out,
            "hybrid/uniform",
            &dev,
            &input,
            &[bitonic(), RADIX],
            &[k],
        );
        let r = select_then_bitonic(&dev, &input, k).expect("hybrid");
        let id = format!("hybrid/uniform/select-bitonic/k{k}");
        out.push(Experiment::new(id, &[("sim_time_ms", r.time.millis())]));
    }
    for frac in [0.0, 0.5, 0.8, 0.95, 1.0] {
        let r = cpu_gpu_topk(&dev, &data, 32, frac, threads()).expect("cpu+gpu split");
        out.push(Experiment::new(
            format!("hybrid/split-k32/cpu-gpu/gpu{frac:.2}"),
            &[
                ("sim_gpu_fraction", r.gpu_fraction),
                ("sim_gpu_ms", r.gpu_time.millis()),
                ("host_cpu_ms", r.cpu_seconds * 1e3),
                ("host_combined_ms", r.combined_seconds * 1e3),
            ],
        ));
    }
}

/// Section 7's cross-hardware question: `recommend`'s pick among
/// bitonic, radix and delegate select on three device generations.
fn device_sweep(out: &mut Vec<Experiment>, log2n: u32) {
    let n = 1usize << log2n;
    let data = uniform(n, 99);
    for (name, spec) in [
        ("titan-x-maxwell", DeviceSpec::titan_x_maxwell()),
        ("titan-x-pascal", DeviceSpec::titan_x_pascal()),
        ("tesla-v100", DeviceSpec::tesla_v100()),
    ] {
        let dev = Device::new(spec);
        let input = upload(&dev, &data);
        let algs = [bitonic(), RADIX, algorithm(FullAlgorithm::DelegateSelect)];
        for k in K_SWEEP {
            let times = algs.map(|a| sim_ms(&dev, a, &input, k).expect("device sweep cell"));
            for (alg, t) in algs.iter().zip(times) {
                let id = format!("device_sweep/{name}/{}/k{k}", alg.name());
                out.push(Experiment::new(id, &[("sim_time_ms", t)]));
            }
            let plan = recommend(dev.spec(), n, k, 4, &ReductionProfile::UniformFloats);
            let pick = match plan.algorithm {
                Algorithm::BitonicTopK => times[0],
                Algorithm::RadixSelect => times[1],
                Algorithm::DelegateSelect => times[2],
            };
            let best = times.into_iter().fold(f64::INFINITY, f64::min);
            let id = format!("device_sweep/{name}/pick/k{k}");
            out.push(Experiment::new(id, &[("sim_pick_over_best", pick / best)]));
        }
    }
}

/// The planner grid (claim 12): every algorithm `recommend_full` prices,
/// measured, with its prediction, and the pick's time over the winner's.
fn planner(out: &mut Vec<Experiment>, log2n: u32) {
    for (x, ks) in planner_grid(log2n) {
        let n = 1usize << x;
        let dev = Device::titan_x();
        let input = upload(&dev, &uniform(n, 60 + u64::from(x)));
        for k in ks {
            let ranked = recommend_full(dev.spec(), n, k, 4, &ReductionProfile::UniformFloats);
            let mut times = Vec::new();
            for full in FULL {
                let alg = algorithm(full);
                let Some(t) = sim_ms(&dev, alg, &input, k) else {
                    continue;
                };
                let mut metrics = vec![("sim_time_ms", t)];
                let model = ranked.iter().find(|r| r.algorithm == full);
                if let Some(s) = model.and_then(|r| r.predicted_seconds) {
                    metrics.push(("sim_model_ms", s * 1e3));
                }
                out.push(Experiment::new(
                    format!("planner/log2n{x}/{}/k{k}", alg.name()),
                    &metrics,
                ));
                times.push((full, t));
            }
            let best = times.iter().map(|t| t.1).fold(f64::INFINITY, f64::min);
            // a pick that cannot launch leaves no pick cell: claim 12 fails
            if let Some(&(_, t)) = times.iter().find(|t| t.0 == ranked[0].algorithm) {
                let id = format!("planner/log2n{x}/pick/k{k}");
                out.push(Experiment::new(id, &[("sim_pick_over_best", t / best)]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_suite_is_deterministic_and_covers_every_figure() {
        let r = run_figures_suite(10, "test");
        assert_eq!(r.kind, "figures");
        for figure in [
            "fig08",
            "ladder",
            "fig11b",
            "fig11c",
            "fig12a",
            "fig12a_regime",
            "fig12b",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "hybrid",
            "device_sweep",
            "planner",
        ] {
            let prefix = format!("{figure}/");
            assert!(
                r.experiments.iter().any(|e| e.id.starts_with(&prefix)),
                "no {figure} cell"
            );
        }
        // every grid point carries the ratio claim 12 reads
        for (x, ks) in planner_grid(10) {
            for k in ks {
                let ratio = r.metric(&format!("planner/log2n{x}/pick/k{k}"), "sim_pick_over_best");
                assert!(ratio.is_some_and(|v| v >= 1.0), "log2n{x}/k{k}");
            }
        }
        let parsed = BenchReport::from_json(&r.render()).expect("schema-valid");
        assert_eq!(parsed.experiments.len(), r.experiments.len());

        let r2 = run_figures_suite(10, "test");
        assert_eq!(r.experiments.len(), r2.experiments.len());
        for (a, b) in r.experiments.iter().zip(&r2.experiments) {
            assert_eq!(a.id, b.id);
            for (name, v) in a.metrics.iter().filter(|(m, _)| m.starts_with("sim_")) {
                assert_eq!(v.to_bits(), b.metrics[name].to_bits(), "{}/{name}", a.id);
            }
        }
    }
}
