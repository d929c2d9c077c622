//! The simulator's chrome traces stay RFC 8259 JSON whatever a kernel
//! name or a transfer label holds: quotes, backslashes and control
//! characters are escaped, and the name survives a parse.

use bench::json::{parse, Json};
use simt::topology::{Cluster, ClusterSpec};
use simt::{chrome_trace, chrome_trace_streams, BlockCtx, Kernel, SimTime};

const AWKWARD: &str = "a \"quoted\" \\ name\nwith\ttabs";

struct Awkward;

impl Kernel for Awkward {
    fn name(&self) -> &'static str {
        AWKWARD
    }
    fn block_dim(&self) -> usize {
        32
    }
    fn grid_dim(&self) -> usize {
        1
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        blk.bulk_global_read(1024);
    }
}

/// How many events of a trace carry `name` — after checking that the
/// trace holds no raw control byte (the parser would accept one inside a
/// string) and parses.
fn count_named(trace: &str, name: &str) -> usize {
    assert!(
        trace.bytes().all(|b| b >= 0x20),
        "raw control byte in {trace:?}"
    );
    let Json::Arr(events) = parse(trace).expect("trace parses") else {
        panic!("a trace is an array: {trace}");
    };
    events
        .iter()
        .filter(|e| matches!(e, Json::Obj(m) if m.get("name") == Some(&Json::Str(name.into()))))
        .count()
}

#[test]
fn traces_escape_kernel_names_and_transfer_labels() {
    let cluster = Cluster::new(ClusterSpec::pcie_node(2));
    let dev = cluster.device(0);
    dev.launch(&Awkward).unwrap();
    cluster
        .device_to_host(0, 1 << 12, AWKWARD, SimTime::ZERO)
        .unwrap();
    assert_eq!(
        count_named(&cluster.chrome_trace(), AWKWARD),
        2,
        "the kernel and the transfer"
    );
    let log = dev.launch_log();
    assert_eq!(count_named(&chrome_trace(&log), AWKWARD), 1);
    assert_eq!(
        count_named(&chrome_trace_streams(&dev.schedule(), &log), AWKWARD),
        1
    );
}
