//! Out-of-core top-k: data larger than device memory, streamed in chunks
//! with transfers overlapped against compute (the Section 4.3 discussion
//! on the PCI-E bottleneck, made concrete).
//!
//! The streaming loop is written once and takes an engine's top-k as a
//! closure, so the same code drives both engines: the simulator
//! ([`TopKRequest::run`], with its modeled transfer/compute overlap) and
//! the real CPU ([`TopKRequest::run_cpu`]).
//!
//! ```sh
//! cargo run --release --example out_of_core
//! ```

use gpu_topk::datagen::{reference_topk, Distribution, TopKItem, Uniform};
use gpu_topk::simt::{Device, DeviceSpec};
use gpu_topk::topk::chunked::{chunked_bitonic_topk, ChunkedConfig};
use gpu_topk::topk::{TopKError, TopKRequest};

/// Streams `data` through an engine's `topk` in `chunk`-sized pieces:
/// each chunk is reduced to its local top-k, and the per-chunk
/// candidates are merged with one final top-k — the reductive property
/// that makes out-of-core top-k a bandwidth problem, not a memory
/// problem.
fn streamed_topk<T: TopKItem>(
    topk: impl Fn(&[T]) -> Result<Vec<T>, TopKError>,
    data: &[T],
    chunk: usize,
) -> Result<(Vec<T>, usize), TopKError> {
    let mut candidates = Vec::new();
    let mut chunks = 0usize;
    for piece in data.chunks(chunk) {
        candidates.extend(topk(piece)?);
        chunks += 1;
    }
    Ok((topk(&candidates)?, chunks))
}

fn main() {
    // a deliberately tiny "GPU": 1 MiB of device memory
    let spec = DeviceSpec {
        global_mem_bytes: 1 << 20,
        ..DeviceSpec::titan_x_maxwell()
    };
    let dev = Device::new(spec);

    let n = 1 << 21; // 8 MiB of f32 — 8× device memory
    let k = 64;
    let chunk = spec.global_mem_bytes / 4 / 2; // double-buffered halves
    let data: Vec<f32> = Uniform.generate(n, 31337);
    let expect = reference_topk(&data, k);
    println!(
        "input: {:.1} MiB, device memory: {:.1} MiB — the data cannot fit\n",
        (n * 4) as f64 / (1 << 20) as f64,
        spec.global_mem_bytes as f64 / (1 << 20) as f64
    );

    // the same streaming loop, one closure per engine: each chunk is
    // uploaded to the device, or read in place by CPU threads
    let req = TopKRequest::largest(k);
    let engines = [
        (
            "simt",
            streamed_topk(
                |p| req.run(&dev, &dev.upload(p)).map(|r| r.items),
                &data,
                chunk,
            ),
        ),
        ("cpu", streamed_topk(|p| req.run_cpu(p, 4), &data, chunk)),
    ];
    for (name, streamed) in engines {
        let (items, chunks) = streamed.expect("streamed top-k");
        println!("backend {name:>4}: {chunks} chunks of {chunk} elements, top-{k} verified ✓");
        assert_eq!(items, expect);
    }

    // on the simulator, the chunked pipeline also models the PCI-E
    // overlap: double-buffering hides compute behind the transfers
    println!();
    for overlap in [false, true] {
        let r = chunked_bitonic_topk(
            &data,
            k,
            &dev,
            ChunkedConfig {
                overlap,
                ..Default::default()
            },
        )
        .expect("chunked top-k");
        println!(
            "{}: {} chunks | transfer {:.3} ms | compute {:.3} ms | wall {:.3} ms",
            if overlap {
                "overlapped (double-buffered)"
            } else {
                "serial                      "
            },
            r.chunks,
            r.transfer_time.millis(),
            r.compute_time.millis(),
            r.wall_time.millis(),
        );
        assert_eq!(r.items, expect);
    }

    println!("\nresults verified against host sort ✓");
    println!("note how the reductive top-k hides nearly all compute behind PCI-E transfer,");
    println!("exactly as the paper argues for streaming memory-size chunks.");
}
