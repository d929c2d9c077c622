//! Criterion benchmarks of the simulator itself: how fast the
//! warp-lockstep replay processes tracked accesses, on both of its paths,
//! and what the bulk path costs by comparison; then one bitonic read on
//! the metered path and on the lane path it replaces outside sanitizer
//! and lint runs, for f32 keys and `Kv<f32>` pairs; then one host network
//! step per distance on `u32` and `u64` ranks, the element widths the
//! metered path runs those two item types on; last, qdb's serving
//! shapes end to end and one append, per table row. (Host wall-clock of
//! the simulation, not simulated time; each line reports host time per
//! element.)

use std::cell::RefCell;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use datagen::twitter::TweetTable;
use datagen::{Distribution, Kv, TopKItem, Uniform};
use qdb::{execute_sql, parse_sql, GpuTweetTable, Strategy};
use simt::{BlockCtx, Device, DeviceSpec, GpuBuffer, Kernel};
use sortnet::host::{apply_step, apply_steps};
use sortnet::Step;
use topk::TopKRequest;

/// Streams the data through shared memory with 16 tracked reads and 16
/// tracked writes per lane. Unpermuted, every warp's accesses are warp
/// 0's moved by whole sectors, so the replay reuses the first warp's
/// counters for the other seven. Permuted, lane `t` of warp `w` takes
/// element `t ^ w` of its warp's slice, a permutation of the warp's own,
/// so the replay works out every warp in full. Both cost the same
/// sectors and bank conflicts.
struct TrackedStream {
    data: GpuBuffer<f32>,
    permuted: bool,
}

impl Kernel for TrackedStream {
    fn name(&self) -> &'static str {
        "tracked_stream"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        self.data.len() / (16 * 256)
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let base = blk.block_idx * 16 * 256;
        let sh = blk.alloc_shared::<f32>(16 * 256);
        blk.step(|l| {
            let t = if self.permuted {
                l.tid() ^ (l.tid() / 32)
            } else {
                l.tid()
            };
            for j in 0..16 {
                let v = l.gread(&self.data, base + t + j * 256);
                l.swrite(sh, t + j * 256, v);
            }
        });
    }
}

struct BulkStream {
    data: GpuBuffer<f32>,
}

impl Kernel for BulkStream {
    fn name(&self) -> &'static str {
        "bulk_stream"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        blk.bulk_global_read((self.data.len() * 4) as u64);
        blk.bulk_shared((self.data.len() * 4) as u64);
    }
}

fn bench_simulator(c: &mut Criterion) {
    let n = 1 << 16;
    let dev = Device::new(DeviceSpec::titan_x_maxwell());
    let data = dev.alloc::<f32>(n);

    let mut g = c.benchmark_group("simulator");
    g.sample_size(20);
    g.throughput(Throughput::Elements(2 * n as u64));
    for (id, permuted) in [("tracked_reused", false), ("tracked_replayed", true)] {
        g.bench_function(id, |b| {
            b.iter(|| {
                let data = data.clone();
                dev.launch(&TrackedStream { data, permuted }).unwrap()
            })
        });
    }
    g.bench_function("bulk_accounting", |b| {
        b.iter(|| dev.launch(&BulkStream { data: data.clone() }).unwrap())
    });
    g.finish();
}

/// A bitonic read of 2^16 uniform keys, as f32 (`u32` ranks) and as
/// `Kv<f32>` pairs (`u64` ranks): on a plain device, which meters the
/// reducers (charged from their contract, run on host slices), at k = 8,
/// 64 and 1024; and at k = 64 under lint capture, which replays every
/// lane.
fn bench_bitonic_read(c: &mut Criterion) {
    let n = 1 << 16;
    let keys: Vec<f32> = Uniform.generate(n, 11);
    let pairs: Vec<Kv<f32>> = (0..n as u32)
        .map(|i| Kv::new(keys[i as usize], i))
        .collect();
    let mut g = c.benchmark_group("bitonic_read");
    g.sample_size(20);
    g.throughput(Throughput::Elements(n as u64));
    read_both_paths(&mut g, "f32", &keys);
    read_both_paths(&mut g, "kv_f32", &pairs);
    g.finish();
}

fn read_both_paths<T: TopKItem>(g: &mut criterion::BenchmarkGroup<'_>, ty: &str, data: &[T]) {
    let cells = [
        ("metered", false, 8),
        ("metered", false, 64),
        ("metered", false, 1024),
        ("lane_replay", true, 64),
    ];
    for (path, lint, k) in cells {
        let dev = Device::titan_x();
        if lint {
            dev.enable_lint();
        }
        let input = dev.upload(data);
        g.bench_function(&format!("{ty}/{path}/k{k}"), |b| {
            b.iter(|| {
                // analysis reports accumulate per launch; keep them bounded
                dev.take_analysis();
                TopKRequest::largest(k).run(&dev, &input).unwrap()
            })
        });
    }
}

/// One host network step over 2^16 ranks at each distance `j` (in a
/// phase of run `2j`), on `u32` and `u64` ranks; then a phase's tail
/// (`j` = 4, 2, 1), which [`apply_steps`] runs as one pass over 8-blocks.
fn bench_host_network(c: &mut Criterion) {
    let n = 1usize << 16;
    let keys: Vec<u32> = Uniform.generate(n, 12);
    let wide: Vec<u64> = keys.iter().map(|&k| (k as u64) << 32 | k as u64).collect();
    let mut g = c.benchmark_group("host_network");
    g.sample_size(20);
    g.throughput(Throughput::Elements(n as u64));
    network_steps(&mut g, "u32", &keys);
    network_steps(&mut g, "u64", &wide);
    g.finish();
}

fn network_steps<R: Copy + Ord>(g: &mut criterion::BenchmarkGroup<'_>, ty: &str, base: &[R]) {
    let mut data = base.to_vec();
    for log_j in [0, 1, 2, 3, 4, 6, 10, 15] {
        let step = Step {
            j: 1 << log_j,
            run: 2 << log_j,
        };
        g.bench_with_input(
            BenchmarkId::new(ty, format!("j={}", step.j)),
            &step,
            |b, &step| b.iter(|| apply_step(&mut data, step)),
        );
    }
    let tail = [4, 2, 1].map(|j| Step { j, run: 64 });
    g.bench_with_input(BenchmarkId::new(ty, "tail"), &tail, |b, tail| {
        b.iter(|| apply_steps(&mut data, tail))
    });
}

/// qdb's serving shapes, each timed end to end through `execute_sql`
/// with the staged bitonic plan, on a 2^17 + 512-row table, which pads
/// a full-table top-k input to 2^18: Q1 at 0%, 1%, 20% and 100%
/// selectivity (at 0% the filter runs alone), the Q2 ranking, `ASC` and
/// the Q4 group-by. Then one 512-row append onto 2^17 resident rows.
/// Host time per table row (per appended row for the append).
fn bench_qdb_operators(c: &mut Criterion) {
    let (n, batch_rows) = (1usize << 17, 512);
    let host = TweetTable::generate(n, 13);
    let batch = TweetTable::generate_at(batch_rows, 14, n as u32);
    let dev = Device::titan_x();
    let table = GpuTweetTable::upload_with_capacity(&dev, &host, n + batch_rows);
    table.append_batch(&dev, &batch).unwrap();
    let cutoff = |sel| host.time_cutoff_for_selectivity(sel);
    let shapes = [
        (
            "q1_sel_0pct",
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {} ORDER BY retweet_count DESC LIMIT 50",
                cutoff(0.0)
            ),
        ),
        (
            "q1_sel_1pct",
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {} ORDER BY retweet_count DESC LIMIT 50",
                cutoff(0.01)
            ),
        ),
        (
            "q1_sel_20pct",
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {} ORDER BY retweet_count DESC LIMIT 50",
                cutoff(0.2)
            ),
        ),
        (
            "q1_sel_100pct",
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {} ORDER BY retweet_count DESC LIMIT 50",
                cutoff(1.0)
            ),
        ),
        (
            "q2_ranked",
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 50"
                .to_string(),
        ),
        (
            "q1_asc",
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 50".to_string(),
        ),
        (
            "q4_group_by",
            "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 50"
                .to_string(),
        ),
    ];
    let mut g = c.benchmark_group("qdb_operators");
    g.sample_size(20);
    g.throughput(Throughput::Elements(table.len() as u64));
    for (id, sql) in &shapes {
        let q = parse_sql(sql).unwrap();
        g.bench_function(id, |b| {
            b.iter(|| execute_sql(&dev, &table, &q, Strategy::StageBitonic).unwrap())
        });
    }
    // every sample appends to a fresh table; the previous sample's table
    // is dropped in the untimed set-up, so the timing holds the splice
    g.throughput(Throughput::Elements(batch_rows as u64));
    let spent = RefCell::new(None);
    g.bench_function("append_512", |b| {
        b.iter_batched(
            || {
                spent.borrow_mut().take();
                GpuTweetTable::upload_with_capacity(&dev, &host, n + batch_rows)
            },
            |t| {
                let receipt = t.append_batch(&dev, &batch).unwrap();
                *spent.borrow_mut() = Some(t);
                receipt
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_simulator,
    bench_bitonic_read,
    bench_host_network,
    bench_qdb_operators
);
criterion_main!(benches);
