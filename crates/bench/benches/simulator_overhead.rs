//! Criterion benchmarks of the simulator itself: how fast the
//! warp-lockstep replay processes tracked accesses, on both of its paths,
//! and what the bulk path costs by comparison; then one bitonic read on
//! the metered path and on the lane path it replaces outside sanitizer
//! and lint runs. (Host wall-clock of the simulation, not simulated
//! time; each line reports host time per element.)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use datagen::{Distribution, Uniform};
use simt::{BlockCtx, Device, DeviceSpec, GpuBuffer, Kernel};
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

/// A k = 64 bitonic read of 2^16 uniform f32 keys, once on a plain
/// device, which meters the reducers (charged from their contract, run
/// on host slices), and once under lint capture, which replays every
/// lane.
fn bench_bitonic_read(c: &mut Criterion) {
    let n = 1 << 16;
    let data: Vec<f32> = Uniform.generate(n, 11);
    let mut g = c.benchmark_group("bitonic_read");
    g.sample_size(20);
    g.throughput(Throughput::Elements(n as u64));
    for (id, lint) in [("metered", false), ("lane_replay", true)] {
        let dev = Device::titan_x();
        if lint {
            dev.enable_lint();
        }
        let input = dev.upload(&data);
        g.bench_function(id, |b| {
            b.iter(|| {
                // lint reports accumulate per launch; keep them bounded
                dev.take_lint_reports();
                TopKRequest::largest(64).run(&dev, &input).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_simulator, bench_bitonic_read);
criterion_main!(benches);
