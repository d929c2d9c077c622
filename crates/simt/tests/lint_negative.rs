//! Negative coverage for `simt::lint`: deliberately broken launch plans
//! must each trip the *exact* lint kind with kernel/phase attribution —
//! oversubscribed shared memory, a mis-declared stride caught by the
//! sanitizer cross-check, a barrier declared inside a divergent branch,
//! and a statically provable out-of-bounds index.

use simt::lint::{
    cross_check, lint_kernel, AccessSpec, BufferDecl, GlobalStream, LintKind, PhaseSpec, Severity,
};
use simt::{BlockCtx, Device, DeviceSpec, GpuBuffer, Kernel, Lane};

type LaneBody = Box<dyn Fn(&mut Lane<'_>)>;

/// A configurable kernel whose contract and behavior the tests bend.
struct Probe {
    name: &'static str,
    grid: usize,
    block: usize,
    shared_bytes: usize,
    spec: Option<AccessSpec>,
    body: Option<LaneBody>,
}

impl Probe {
    fn plan_only(name: &'static str, grid: usize, block: usize) -> Self {
        Probe {
            name,
            grid,
            block,
            shared_bytes: 0,
            spec: None,
            body: None,
        }
    }
}

impl Kernel for Probe {
    fn name(&self) -> &'static str {
        self.name
    }
    fn grid_dim(&self) -> usize {
        self.grid
    }
    fn block_dim(&self) -> usize {
        self.block
    }
    fn shared_bytes_per_block(&self) -> usize {
        self.shared_bytes
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        self.spec.clone()
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let body = self
            .body
            .as_ref()
            .expect("plan-only probes are never launched");
        blk.step(|l| body(l));
    }
}

fn titan() -> DeviceSpec {
    DeviceSpec::titan_x_maxwell()
}

fn errors_of(report: &simt::LintReport, kind: LintKind) -> Vec<simt::lint::LintFinding> {
    report
        .findings
        .iter()
        .filter(|f| f.kind == kind)
        .cloned()
        .collect()
}

#[test]
fn oversubscribed_shared_memory_is_a_hard_error() {
    let spec = titan();
    let mut probe = Probe::plan_only("shm_hog", 4, 256);
    probe.shared_bytes = spec.shared_mem_per_block + 1;
    let report = lint_kernel(&spec, &probe);
    let hits = errors_of(&report, LintKind::SharedMemExceeded);
    assert_eq!(hits.len(), 1, "{}", report.render());
    assert_eq!(hits[0].severity(), Severity::Error);
    assert_eq!(hits[0].kernel, "shm_hog", "kernel attribution");
    assert!(hits[0].phase.is_empty(), "launch-wide, not phase-scoped");
    assert!(
        hits[0]
            .detail
            .contains(&spec.shared_mem_per_block.to_string()),
        "detail names the limit: {}",
        hits[0].detail
    );
    assert!(!report.is_clean());
    assert!(report.error_count() >= 1);
}

#[test]
fn oversized_block_is_a_hard_error() {
    let spec = titan();
    let probe = Probe::plan_only("wide_block", 1, spec.max_threads_per_block * 2);
    let report = lint_kernel(&spec, &probe);
    let hits = errors_of(&report, LintKind::BlockTooLarge);
    assert_eq!(hits.len(), 1, "{}", report.render());
    assert_eq!(hits[0].kernel, "wide_block");
}

#[test]
fn misdeclared_stride_trips_the_cross_check() {
    // the kernel reads contiguously (lane t -> element t) but its
    // contract claims a 32-element stride: the static prediction is
    // internally consistent and in bounds, so only the dynamic
    // cross-check can catch the lie — as spec.mismatch
    let dev = Device::titan_x();
    dev.enable_lint();
    let buf: GpuBuffer<u32> = dev.upload(&vec![7u32; 1024]);
    let decl = BufferDecl::of("input", &buf);
    let lying_spec = AccessSpec {
        phases: vec![PhaseSpec {
            name: "scan".to_string(),
            globals: vec![GlobalStream {
                buf: decl,
                write: false,
                base: 0,
                lane_stride: 32, // actual kernel uses stride 1
                slot_stride: 0,
                slots: 1,
                block_stride: 0,
                active: 32,
                bound: None,
            }],
            ..PhaseSpec::default()
        }],
    };
    let body = {
        let buf = buf.clone();
        Box::new(move |l: &mut Lane<'_>| {
            let t = l.tid();
            let _ = l.gread(&buf, t);
        })
    };
    let probe = Probe {
        name: "stride_liar",
        grid: 1,
        block: 32,
        shared_bytes: 0,
        spec: Some(lying_spec),
        body: Some(body),
    };
    let launch = dev.launch(&probe).unwrap();
    let reports = dev.take_lint_reports();
    assert_eq!(reports.len(), 1);
    // the plan itself lints clean: the lie is only visible dynamically
    assert_eq!(reports[0].error_count(), 0, "{}", reports[0].render());
    let mismatch = cross_check(&reports[0], &launch.stats)
        .expect("mis-declared stride must produce a spec.mismatch finding");
    assert_eq!(mismatch.kind, LintKind::SpecMismatch);
    assert_eq!(mismatch.severity(), Severity::Error);
    assert_eq!(mismatch.kernel, "stride_liar");
    // strided-by-32 predicts one sector per access; contiguous measures 1/8
    assert!(
        mismatch.detail.contains("disagrees"),
        "detail explains the drift: {}",
        mismatch.detail
    );
}

#[test]
fn truthful_spec_passes_the_same_cross_check() {
    // control for the stride test: the same kernel with an honest
    // contract survives cross_check
    let dev = Device::titan_x();
    dev.enable_lint();
    let buf: GpuBuffer<u32> = dev.upload(&vec![7u32; 1024]);
    let decl = BufferDecl::of("input", &buf);
    let honest = AccessSpec {
        phases: vec![PhaseSpec {
            name: "scan".to_string(),
            globals: vec![GlobalStream {
                buf: decl,
                write: false,
                base: 0,
                lane_stride: 1,
                slot_stride: 0,
                slots: 1,
                block_stride: 0,
                active: 32,
                bound: None,
            }],
            ..PhaseSpec::default()
        }],
    };
    let body = {
        let buf = buf.clone();
        Box::new(move |l: &mut Lane<'_>| {
            let t = l.tid();
            let _ = l.gread(&buf, t);
        })
    };
    let probe = Probe {
        name: "stride_honest",
        grid: 1,
        block: 32,
        shared_bytes: 0,
        spec: Some(honest),
        body: Some(body),
    };
    let launch = dev.launch(&probe).unwrap();
    let reports = dev.take_lint_reports();
    assert!(reports[0].is_clean(), "{}", reports[0].render());
    assert!(cross_check(&reports[0], &launch.stats).is_none());
}

#[test]
fn barrier_in_divergent_branch_is_a_hard_error_with_phase_attribution() {
    let spec = titan();
    let mut probe = Probe::plan_only("divergent_sync", 1, 64);
    probe.spec = Some(AccessSpec {
        phases: vec![
            PhaseSpec::named("setup"),
            PhaseSpec {
                name: "tail".to_string(),
                divergent_barrier: Some("step() reached only by lanes with tid < 16".to_string()),
                ..PhaseSpec::default()
            },
        ],
    });
    let report = lint_kernel(&spec, &probe);
    let hits = errors_of(&report, LintKind::BarrierInDivergence);
    assert_eq!(hits.len(), 1, "{}", report.render());
    assert_eq!(hits[0].severity(), Severity::Error);
    assert_eq!(hits[0].kernel, "divergent_sync");
    assert_eq!(hits[0].phase, "tail", "attributed to the divergent phase");
    assert!(hits[0].detail.contains("tid < 16"), "{}", hits[0].detail);
}

#[test]
fn statically_provable_oob_index_is_a_hard_error() {
    let spec = titan();
    let dev = Device::titan_x();
    let buf: GpuBuffer<u32> = dev.upload(&vec![0u32; 100]);
    let decl = BufferDecl::of("out", &buf);
    let mut probe = Probe::plan_only("oob_writer", 2, 64);
    // block 1, lane 63 writes element 64 + 63 = 127 >= len 100
    probe.spec = Some(AccessSpec {
        phases: vec![PhaseSpec {
            name: "store".to_string(),
            globals: vec![GlobalStream {
                buf: decl,
                write: true,
                base: 0,
                lane_stride: 1,
                slot_stride: 0,
                slots: 1,
                block_stride: 64,
                active: 64,
                bound: None,
            }],
            ..PhaseSpec::default()
        }],
    });
    let report = lint_kernel(&spec, &probe);
    let hits = errors_of(&report, LintKind::GlobalOutOfBounds);
    assert!(!hits.is_empty(), "{}", report.render());
    assert_eq!(hits[0].kernel, "oob_writer");
    assert_eq!(hits[0].phase, "store", "attributed to the writing phase");
    assert!(
        hits[0].detail.contains("out"),
        "detail names the buffer: {}",
        hits[0].detail
    );
}
