//! Integration tests for the extension features (chunked, batched,
//! hybrid, smallest-k, auto-planner, SQL) — cross-checking them against
//! each other and the core algorithms.

use gpu_topk::datagen::{reference_topk, Distribution, Uniform};
use gpu_topk::qdb;
use gpu_topk::simt::{Device, DeviceSpec};
use gpu_topk::topk::batched::batched_bitonic_topk;
use gpu_topk::topk::bitonic::{bitonic_topk, BitonicConfig};
use gpu_topk::topk::chunked::{chunked_bitonic_topk, ChunkedConfig};
use gpu_topk::topk::hybrid::select_then_bitonic;
use gpu_topk::topk::{TopKAlgorithm, TopKRequest};
use gpu_topk::topk_costmodel::ReductionProfile;

#[test]
fn chunked_equals_in_core_result() {
    let data: Vec<f32> = Uniform.generate(1 << 16, 900);
    let dev = Device::titan_x();
    let input = dev.upload(&data);
    let in_core = bitonic_topk(&dev, &input, 40, BitonicConfig::default()).unwrap();
    let chunked = chunked_bitonic_topk(
        &data,
        40,
        &dev,
        ChunkedConfig {
            chunk_elems: Some(1 << 13),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(in_core.items, chunked.items);
    // streaming costs strictly more wall time than on-device compute alone
    assert!(chunked.wall_time.seconds() > in_core.time.seconds());
}

#[test]
fn batched_single_row_equals_plain_topk() {
    let data: Vec<f32> = Uniform.generate(2048, 901);
    let dev = Device::titan_x();
    let input = dev.upload(&data);
    let plain = bitonic_topk(&dev, &input, 16, BitonicConfig::default()).unwrap();
    let batched = batched_bitonic_topk(&dev, &input, 1, 2048, 16).unwrap();
    assert_eq!(batched.rows.len(), 1);
    assert_eq!(batched.rows[0], plain.items);
}

#[test]
fn hybrid_and_pure_agree_on_all_key_types() {
    let dev = Device::titan_x();
    let f: Vec<f32> = Uniform.generate(1 << 14, 902);
    let u: Vec<u64> = Uniform.generate(1 << 13, 903);
    let fi = dev.upload(&f);
    let ui = dev.upload(&u);
    let hf = select_then_bitonic(&dev, &fi, 100).unwrap();
    assert_eq!(hf.items, reference_topk(&f, 100));
    let hu = select_then_bitonic(&dev, &ui, 100).unwrap();
    assert_eq!(hu.items, reference_topk(&u, 100));
}

#[test]
fn smallest_k_is_reverse_of_largest_k_on_distinct_keys() {
    let data: Vec<u32> = (0..4096u32).map(|i| i.wrapping_mul(2654435761)).collect();
    let dev = Device::titan_x();
    let input = dev.upload(&data);
    let alg = TopKAlgorithm::Bitonic(BitonicConfig::default());
    let largest = TopKRequest::largest(4096)
        .with_alg(alg)
        .run(&dev, &input)
        .unwrap()
        .items;
    let smallest = TopKRequest::smallest(4096)
        .with_alg(alg)
        .run(&dev, &input)
        .unwrap()
        .items;
    let mut rev = largest.clone();
    rev.reverse();
    assert_eq!(smallest, rev);
}

#[test]
fn auto_planner_result_is_always_correct() {
    let dev = Device::titan_x();
    for (n, k) in [(1usize << 14, 8usize), (1 << 16, 512), (1 << 14, 2048)] {
        let data: Vec<u32> = Uniform.generate(n, (n + k) as u64);
        let input = dev.upload(&data);
        let r = gpu_topk::auto::auto_topk(&dev, &input, k, &ReductionProfile::UniformInts).unwrap();
        assert_eq!(r.result.items, reference_topk(&data, k), "n={n} k={k}");
    }
}

#[test]
fn sql_front_end_composes_with_explain() {
    let host = gpu_topk::datagen::twitter::TweetTable::generate(30_000, 904);
    let dev = Device::titan_x();
    let table = qdb::GpuTweetTable::upload(&dev, &host);
    let stats = qdb::TableStats::gather(&table);
    let cutoff = host.time_cutoff_for_selectivity(0.35);

    let q = qdb::parse_sql(&format!(
        "SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 40"
    ))
    .unwrap();
    let qdb::Shape::Top(Some(op)) = q.shape.clone() else {
        panic!("a filtered top-k parses to Shape::Top");
    };
    let plan = qdb::explain_filtered_topk(dev.spec(), &table, &stats, &op, q.limit);

    // run the plan's choice and the runner-up: the choice must not lose
    let chosen = qdb::execute_sql(&dev, &table, &q, plan.chosen()).unwrap();
    let runner_up = qdb::execute_sql(&dev, &table, &q, plan.costs[1].strategy).unwrap();
    assert_eq!(chosen.ids, runner_up.ids, "results must agree");
    assert!(chosen.kernel_time.seconds() <= runner_up.kernel_time.seconds() * 1.05);
}

#[test]
fn serving_layer_coalesces_and_matches_serial() {
    let host = gpu_topk::datagen::twitter::TweetTable::generate(16_384, 906);
    let dev = Device::titan_x();
    let table = qdb::GpuTweetTable::upload(&dev, &host);

    let sqls: Vec<String> = (0..16)
        .map(|i| {
            let cutoff = host.time_cutoff_for_selectivity(0.03 + 0.01 * (i % 8) as f64);
            format!(
                "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                 ORDER BY retweet_count DESC LIMIT {}",
                4 + 3 * (i % 5)
            )
        })
        .collect();

    let mut server = qdb::Server::new(&dev, &table, qdb::ServerConfig::default());
    for sql in &sqls {
        server.submit(sql, qdb::SubmitOptions::default()).unwrap();
    }
    let report = server.drain();

    assert_eq!(report.queries.len(), sqls.len());
    assert!(
        report.speedup() > 1.5,
        "16 concurrent small queries should overlap, got {:.2}x",
        report.speedup()
    );
    for (sql, served) in sqls.iter().zip(&report.queries) {
        let q = qdb::parse_sql(sql).unwrap();
        let serial = qdb::execute_sql(&dev, &table, &q, qdb::Strategy::StageBitonic).unwrap();
        let keys = |ids: &[u32]| -> Vec<u32> {
            ids.iter()
                .map(|&id| host.retweet_count[id as usize])
                .collect()
        };
        assert_eq!(
            keys(&served.result.ids),
            keys(&serial.ids),
            "{sql} must match serial execution"
        );
        assert!(served.coalesced, "{sql} should have joined the batch");
    }
    // the drain's trace is loadable multi-stream chrome JSON
    assert!(report.chrome_trace().starts_with('['));
    assert!(report.chrome_trace().contains("thread_name"));
}

#[test]
fn chunked_respects_tiny_devices_end_to_end() {
    // a 256 KiB device streaming a 4 MiB dataset
    let spec = DeviceSpec {
        global_mem_bytes: 256 * 1024,
        ..DeviceSpec::titan_x_maxwell()
    };
    let dev = Device::new(spec);
    let data: Vec<f32> = Uniform.generate(1 << 20, 905);
    let r = chunked_bitonic_topk(&data, 64, &dev, ChunkedConfig::default()).unwrap();
    assert!(r.chunks >= 16, "chunks={}", r.chunks);
    assert_eq!(r.items, reference_topk(&data, 64));
    // at no point may allocations have exceeded the device capacity
    assert!(dev.memory_highwater() <= 256 * 1024);
}

#[test]
fn batched_kv_payloads_roundtrip() {
    use gpu_topk::datagen::Kv;
    let rows = 16;
    let cols = 256;
    let data: Vec<Kv<f32>> = (0..rows * cols)
        .map(|i| Kv::new(((i * 31) % 1009) as f32, i as u32))
        .collect();
    let dev = Device::titan_x();
    let input = dev.upload(&data);
    let r = batched_bitonic_topk(&dev, &input, rows, cols, 4).unwrap();
    for (row_i, winners) in r.rows.iter().enumerate() {
        for w in winners {
            // every winner's payload must point back into its own row
            let idx = w.value as usize;
            assert!(
                idx / cols == row_i,
                "row {row_i} got payload from row {}",
                idx / cols
            );
            assert_eq!(data[idx].key, w.key);
        }
    }
}
