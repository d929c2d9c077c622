//! Multi-device cluster topology with an interconnect model.
//!
//! A [`Cluster`] owns N deterministic [`Device`] instances plus the links
//! between them: PCIe-like host links (one per device, full duplex —
//! each direction is an independent channel) and, optionally, peer-to-peer
//! links between device pairs. [`Cluster::transfer`] charges link time in
//! the same simulated-time currency as kernel launches
//! (`latency + bytes / bandwidth`), serializes transfers that share a
//! directed link, and respects the endpoint devices' fault plans: a
//! fault-plan hit drops the transfer (typed error, for the caller to
//! retry) or stalls it by the plan's stall delay. Completed transfers are
//! recorded and can be rendered into the same Chrome tracing format as
//! kernel launches via [`Cluster::chrome_trace`].
//!
//! Without peer links, device↔device traffic is staged through host
//! memory (two legs: source's device→host channel, then destination's
//! host→device channel), which is what PCIe-only boxes actually do.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

use crate::analysis::escape_json;
use crate::device::Device;
use crate::spec::DeviceSpec;
use crate::stats::SimTime;

/// Parameters of one interconnect link (a single direction of travel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Link bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Fixed per-transfer cost, seconds (DMA setup, hop traversal).
    pub latency: f64,
}

impl LinkSpec {
    /// PCIe 3.0 ×16 effective throughput — the host link of the paper's
    /// testbed generation (matches [`DeviceSpec::titan_x_maxwell`]'s
    /// `pcie_bw`).
    pub fn pcie3_x16() -> Self {
        LinkSpec {
            bandwidth: 12e9,
            latency: 5e-6,
        }
    }

    /// An NVLink-class peer link: higher bandwidth, lower setup cost.
    pub fn nvlink_like() -> Self {
        LinkSpec {
            bandwidth: 40e9,
            latency: 2e-6,
        }
    }

    /// Time for `bytes` to traverse this link once.
    pub fn seconds(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// One end of a transfer: host memory or a device in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Host (CPU) memory.
    Host,
    /// Device by cluster index.
    Device(usize),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Host => write!(f, "host"),
            Endpoint::Device(i) => write!(f, "dev{i}"),
        }
    }
}

/// A transfer rejected at the link layer. The link was never occupied.
/// Transient drops (an endpoint's fault plan fired) may be retried —
/// each retry re-rolls the plan — while `permanent` rejections name a
/// device that is down for good: retrying the same endpoints can never
/// succeed and the caller must fail over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferError {
    /// Label the transfer was submitted under.
    pub label: String,
    /// Transfer source.
    pub src: Endpoint,
    /// Transfer destination.
    pub dst: Endpoint,
    /// Cluster index of the device that dropped the transfer (fault
    /// plan fired) or is permanently down.
    pub device: usize,
    /// True when the named device is permanently down (see
    /// [`crate::Device::is_down`]); false for a transient fault-plan
    /// drop.
    pub permanent: bool,
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.permanent {
            write!(
                f,
                "transfer '{}' {} -> {} rejected: dev{} is permanently down",
                self.label, self.src, self.dst, self.device
            )
        } else {
            write!(
                f,
                "transfer '{}' {} -> {} dropped by dev{}'s fault plan",
                self.label, self.src, self.dst, self.device
            )
        }
    }
}

impl std::error::Error for TransferError {}

/// One hop of a completed transfer (staged device↔device transfers have
/// two; everything else has one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferLeg {
    /// Hop source.
    pub from: Endpoint,
    /// Hop destination.
    pub to: Endpoint,
    /// When the hop started occupying its link.
    pub start: SimTime,
    /// When the hop released the link.
    pub end: SimTime,
}

/// A completed interconnect transfer, in cluster simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct Transfer {
    /// Caller-supplied label (appears in traces and fault events).
    pub label: String,
    /// Transfer source.
    pub src: Endpoint,
    /// Transfer destination.
    pub dst: Endpoint,
    /// Payload size.
    pub bytes: usize,
    /// When the first leg started (>= the submitted ready time).
    pub start: SimTime,
    /// When the last leg finished; the payload is usable from here.
    pub end: SimTime,
    /// Extra time injected by endpoint fault-plan stalls.
    pub stall: SimTime,
    /// The hops taken (two when staged through host memory).
    pub legs: Vec<TransferLeg>,
}

impl Transfer {
    /// Total time from submission-ready to payload-available.
    pub fn duration(&self) -> SimTime {
        SimTime(self.end.0 - self.start.0)
    }

    /// Whether the transfer was staged through host memory.
    pub fn via_host(&self) -> bool {
        self.legs.len() > 1
    }
}

/// Shape of a simulated multi-GPU node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Hardware parameters of each device (homogeneous node).
    pub device: DeviceSpec,
    /// Number of devices.
    pub num_devices: usize,
    /// Host↔device link, one full-duplex instance per device.
    pub host_link: LinkSpec,
    /// Peer-to-peer link between device pairs; `None` means
    /// device↔device traffic stages through host memory.
    pub peer_link: Option<LinkSpec>,
}

impl ClusterSpec {
    /// A PCIe-only node of `num_devices` of the paper's evaluation GPU.
    pub fn pcie_node(num_devices: usize) -> Self {
        ClusterSpec {
            device: DeviceSpec::titan_x_maxwell(),
            num_devices,
            host_link: LinkSpec::pcie3_x16(),
            peer_link: None,
        }
    }

    /// The same node with NVLink-class peer links enabled.
    pub fn nvlink_node(num_devices: usize) -> Self {
        ClusterSpec {
            peer_link: Some(LinkSpec::nvlink_like()),
            ..Self::pcie_node(num_devices)
        }
    }
}

/// A simulated multi-GPU node: N devices plus the interconnect.
///
/// Devices are independent [`Device`] instances — kernel time accrues on
/// each device's own launch log exactly as in the single-device
/// simulator. The cluster adds the piece a single device cannot model:
/// moving bytes between memories costs link time, links are a shared
/// resource (transfers on the same directed channel serialize), and a
/// device's [`FaultPlan`](crate::FaultPlan) reaches the wire (its
/// transfers can be dropped or stalled).
pub struct Cluster {
    spec: ClusterSpec,
    devices: Vec<Device>,
    transfers: RefCell<Vec<Transfer>>,
    /// Per directed channel: simulated time at which it next frees up.
    link_free: RefCell<HashMap<(Endpoint, Endpoint), SimTime>>,
}

impl Cluster {
    /// Builds a cluster of `spec.num_devices` fresh devices.
    pub fn new(spec: ClusterSpec) -> Self {
        assert!(spec.num_devices > 0, "cluster needs at least one device");
        let devices = (0..spec.num_devices)
            .map(|_| Device::new(spec.device))
            .collect();
        Cluster {
            spec,
            devices,
            transfers: RefCell::new(Vec::new()),
            link_free: RefCell::new(HashMap::new()),
        }
    }

    /// The cluster shape.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of devices in the node.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Device by cluster index.
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// All devices, in cluster order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Completed transfers, in submission order.
    pub fn transfers(&self) -> Vec<Transfer> {
        self.transfers.borrow().clone()
    }

    /// Number of completed transfers recorded so far.
    pub fn transfers_len(&self) -> usize {
        self.transfers.borrow().len()
    }

    /// Sum of link time across all recorded transfer legs (a transfer
    /// staged through host counts both hops).
    pub fn total_link_time(&self) -> SimTime {
        SimTime(
            self.transfers
                .borrow()
                .iter()
                .flat_map(|t| t.legs.iter())
                .map(|l| l.end.0 - l.start.0)
                .sum(),
        )
    }

    /// Largest transfer completion time recorded so far.
    pub fn last_transfer_end(&self) -> SimTime {
        SimTime(
            self.transfers
                .borrow()
                .iter()
                .map(|t| t.end.0)
                .fold(0.0, f64::max),
        )
    }

    fn link_spec(&self, from: Endpoint, to: Endpoint) -> LinkSpec {
        match (from, to) {
            (Endpoint::Device(_), Endpoint::Device(_)) => self
                .spec
                .peer_link
                .expect("peer leg planned without a peer link"),
            _ => self.spec.host_link,
        }
    }

    /// Moves `bytes` from `src` to `dst`, charging link time.
    ///
    /// `ready` is the simulated time at which the payload exists at the
    /// source (e.g. the producing kernel's completion). The transfer
    /// occupies each directed channel it crosses from
    /// `max(ready, channel free time)`; channels are full duplex, so
    /// `dev0→host` and `host→dev0` never contend with each other, but two
    /// transfers out of `dev0` do serialize.
    ///
    /// Fault interaction, in a fixed roll order (src endpoint first, then
    /// dst): a permanently down endpoint (see [`crate::Device::is_down`])
    /// rejects the transfer outright with a `permanent`
    /// [`TransferError`] naming it — no RNG words are drawn; otherwise an
    /// endpoint device whose plan fires its *launch-failure* rate drops
    /// the transfer before it occupies any link ([`TransferError`]); a
    /// *stall* hit lets the transfer complete but inflates it by the
    /// plan's stall delay. Drops and stalls push a
    /// [`FaultEvent`](crate::FaultEvent) on the responsible device with
    /// the transfer label in the kernel slot.
    pub fn transfer(
        &self,
        src: Endpoint,
        dst: Endpoint,
        bytes: usize,
        label: &str,
        ready: SimTime,
    ) -> Result<Transfer, TransferError> {
        if let Endpoint::Device(i) = src {
            assert!(i < self.devices.len(), "src device {i} out of range");
        }
        if let Endpoint::Device(i) = dst {
            assert!(i < self.devices.len(), "dst device {i} out of range");
        }

        // A permanently down endpoint rejects the transfer before any
        // fault roll: a dead device has no DMA engine to gamble on.
        for ep in [src, dst] {
            let Endpoint::Device(i) = ep else { continue };
            if self.devices[i].is_down() {
                return Err(TransferError {
                    label: label.to_string(),
                    src,
                    dst,
                    device: i,
                    permanent: true,
                });
            }
        }

        // Fault plans reach the wire: either endpoint can drop the DMA.
        let mut stall = SimTime::ZERO;
        for ep in [src, dst] {
            let Endpoint::Device(i) = ep else { continue };
            let dev = &self.devices[i];
            if dev.inject_transfer_failure(label) {
                return Err(TransferError {
                    label: label.to_string(),
                    src,
                    dst,
                    device: i,
                    permanent: false,
                });
            }
            if let Some(delay) = dev.inject_transfer_stall(label) {
                stall += delay;
            }
        }

        // Same memory: nothing crosses a link.
        if src == dst {
            let t = Transfer {
                label: label.to_string(),
                src,
                dst,
                bytes,
                start: ready,
                end: ready + stall,
                stall,
                legs: Vec::new(),
            };
            self.transfers.borrow_mut().push(t.clone());
            return Ok(t);
        }

        let hops: Vec<(Endpoint, Endpoint)> = match (src, dst, self.spec.peer_link) {
            (Endpoint::Device(_), Endpoint::Device(_), Some(_)) => vec![(src, dst)],
            (Endpoint::Device(_), Endpoint::Device(_), None) => {
                vec![(src, Endpoint::Host), (Endpoint::Host, dst)]
            }
            _ => vec![(src, dst)],
        };

        let mut legs = Vec::with_capacity(hops.len());
        let mut cursor = ready;
        let mut link_free = self.link_free.borrow_mut();
        for (hop_i, &(from, to)) in hops.iter().enumerate() {
            let free = link_free.get(&(from, to)).copied().unwrap_or(SimTime::ZERO);
            let start = if free.0 > cursor.0 { free } else { cursor };
            let mut end = start + SimTime(self.link_spec(from, to).seconds(bytes));
            // charge the fault stall on the first hop, so a staged
            // transfer's second hop queues behind the inflated leg
            if hop_i == 0 {
                end += stall;
            }
            link_free.insert((from, to), end);
            legs.push(TransferLeg {
                from,
                to,
                start,
                end,
            });
            cursor = end;
        }
        drop(link_free);

        let t = Transfer {
            label: label.to_string(),
            src,
            dst,
            bytes,
            start: legs[0].start,
            end: legs[legs.len() - 1].end,
            stall,
            legs,
        };
        self.transfers.borrow_mut().push(t.clone());
        Ok(t)
    }

    /// Convenience: host memory → device `i`.
    pub fn host_to_device(
        &self,
        dst: usize,
        bytes: usize,
        label: &str,
        ready: SimTime,
    ) -> Result<Transfer, TransferError> {
        self.transfer(Endpoint::Host, Endpoint::Device(dst), bytes, label, ready)
    }

    /// Convenience: device `i` → host memory.
    pub fn device_to_host(
        &self,
        src: usize,
        bytes: usize,
        label: &str,
        ready: SimTime,
    ) -> Result<Transfer, TransferError> {
        self.transfer(Endpoint::Device(src), Endpoint::Host, bytes, label, ready)
    }

    /// Convenience: device `src` → device `dst` (peer link when the
    /// cluster has one, staged through host otherwise).
    pub fn device_to_device(
        &self,
        src: usize,
        dst: usize,
        bytes: usize,
        label: &str,
        ready: SimTime,
    ) -> Result<Transfer, TransferError> {
        self.transfer(
            Endpoint::Device(src),
            Endpoint::Device(dst),
            bytes,
            label,
            ready,
        )
    }

    /// Renders the cluster timeline as Chrome tracing JSON: one process
    /// per device (pid = index + 1) carrying that device's launch log
    /// laid end-to-end, plus an interconnect process (pid 0) with one
    /// track per directed channel carrying the transfer legs at their
    /// scheduled times.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, ev: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&ev);
        };

        push(
            &mut out,
            &mut first,
            concat!(
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,",
                "\"args\":{\"name\":\"interconnect\"}}"
            )
            .to_string(),
        );
        for i in 0..self.devices.len() {
            push(
                &mut out,
                &mut first,
                format!(
                    concat!(
                        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},",
                        "\"args\":{{\"name\":\"dev{}\"}}}}"
                    ),
                    i + 1,
                    i
                ),
            );
        }

        // device tracks: each device's launch log, sequential
        for (i, dev) in self.devices.iter().enumerate() {
            let mut t_us = 0.0f64;
            for r in dev.launch_log().iter() {
                let dur = r.time.micros();
                push(
                    &mut out,
                    &mut first,
                    format!(
                        concat!(
                            "{{\"name\":\"{}\",\"cat\":\"kernel\",\"ph\":\"X\",",
                            "\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":1,",
                            "\"args\":{{\"grid\":{},\"block\":{},",
                            "\"bound_by\":\"{}\",\"global_MB\":{:.3}}}}}"
                        ),
                        escape_json(r.name),
                        t_us,
                        dur,
                        i + 1,
                        r.grid_dim,
                        r.block_dim,
                        r.bound_by(),
                        r.stats.global_bytes() as f64 / 1e6,
                    ),
                );
                t_us += dur;
            }
        }

        // interconnect tracks: one tid per directed channel, first-seen order
        let transfers = self.transfers.borrow();
        let mut channel_tid: HashMap<(Endpoint, Endpoint), usize> = HashMap::new();
        for t in transfers.iter() {
            for leg in &t.legs {
                let next = channel_tid.len();
                let tid = *channel_tid.entry((leg.from, leg.to)).or_insert(next);
                if tid == next {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            concat!(
                                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,",
                                "\"tid\":{},\"args\":{{\"name\":\"{} -> {}\"}}}}"
                            ),
                            tid, leg.from, leg.to
                        ),
                    );
                }
                push(
                    &mut out,
                    &mut first,
                    format!(
                        concat!(
                            "{{\"name\":\"{}\",\"cat\":\"transfer\",\"ph\":\"X\",",
                            "\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},",
                            "\"args\":{{\"bytes\":{},\"stall_us\":{:.3}}}}}"
                        ),
                        escape_json(&t.label),
                        leg.start.micros(),
                        (leg.end.0 - leg.start.0) * 1e6,
                        tid,
                        t.bytes,
                        t.stall.micros(),
                    ),
                );
            }
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::{BlockCtx, FaultKind, Kernel};

    struct Tiny;
    impl Kernel for Tiny {
        fn name(&self) -> &'static str {
            "tiny"
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

    #[test]
    fn transfer_time_is_latency_plus_bytes_over_bandwidth() {
        let c = Cluster::new(ClusterSpec::pcie_node(2));
        let t = c
            .host_to_device(0, 12_000_000_000, "load", SimTime::ZERO)
            .unwrap();
        // 12 GB at 12 GB/s + 5 µs latency
        assert!((t.duration().seconds() - (1.0 + 5e-6)).abs() < 1e-9);
        assert_eq!(t.legs.len(), 1);
        assert!(!t.via_host());
    }

    #[test]
    fn same_directed_link_serializes_opposite_directions_do_not() {
        let c = Cluster::new(ClusterSpec::pcie_node(2));
        let a = c.host_to_device(0, 1 << 20, "a", SimTime::ZERO).unwrap();
        let b = c.host_to_device(0, 1 << 20, "b", SimTime::ZERO).unwrap();
        // b queues behind a on the host→dev0 channel
        assert!((b.start.0 - a.end.0).abs() < 1e-12);
        // the opposite direction is an independent channel
        let up = c.device_to_host(0, 1 << 20, "up", SimTime::ZERO).unwrap();
        assert_eq!(up.start, SimTime::ZERO);
        // and another device's channel is independent too
        let other = c.host_to_device(1, 1 << 20, "c", SimTime::ZERO).unwrap();
        assert_eq!(other.start, SimTime::ZERO);
    }

    #[test]
    fn staged_device_to_device_pays_two_hops_peer_link_pays_one() {
        let bytes = 1 << 22;
        let pcie = Cluster::new(ClusterSpec::pcie_node(2));
        let staged = pcie
            .device_to_device(0, 1, bytes, "x", SimTime::ZERO)
            .unwrap();
        assert_eq!(staged.legs.len(), 2);
        assert!(staged.via_host());
        let hop = LinkSpec::pcie3_x16().seconds(bytes);
        assert!((staged.duration().seconds() - 2.0 * hop).abs() < 1e-12);

        let nv = Cluster::new(ClusterSpec::nvlink_node(2));
        let peer = nv
            .device_to_device(0, 1, bytes, "x", SimTime::ZERO)
            .unwrap();
        assert_eq!(peer.legs.len(), 1);
        assert!(peer.duration().seconds() < staged.duration().seconds());
    }

    #[test]
    fn ready_time_delays_the_transfer() {
        let c = Cluster::new(ClusterSpec::pcie_node(1));
        let t = c
            .device_to_host(0, 1 << 10, "late", SimTime(1.5e-3))
            .unwrap();
        assert_eq!(t.start, SimTime(1.5e-3));
        assert!(t.end.0 > 1.5e-3);
    }

    #[test]
    fn fault_plan_drops_and_stalls_transfers() {
        let c = Cluster::new(ClusterSpec::pcie_node(2));
        c.device(1).set_fault_plan(FaultPlan {
            launch_failure_rate: 1.0,
            ..FaultPlan::with_seed(7)
        });
        let err = c
            .device_to_device(0, 1, 1 << 10, "doomed", SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err.device, 1);
        // dropped before the wire: no legs recorded, link still free
        assert_eq!(c.transfers_len(), 0);
        let ev = c.device(1).take_fault_events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, FaultKind::LaunchFailure);
        assert_eq!(ev[0].kernel, "doomed");

        // stall-only plan: the transfer completes, inflated by the delay
        c.device(1).set_fault_plan(FaultPlan {
            stall_rate: 1.0,
            stall_delay: SimTime(100e-6),
            ..FaultPlan::with_seed(8)
        });
        let t = c.host_to_device(1, 1 << 10, "slow", SimTime::ZERO).unwrap();
        assert_eq!(t.stall, SimTime(100e-6));
        let base = LinkSpec::pcie3_x16().seconds(1 << 10);
        assert!((t.duration().seconds() - (base + 100e-6)).abs() < 1e-12);
        let ev = c.device(1).take_fault_events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, FaultKind::StreamStall);
        c.device(1).clear_fault_plan();
    }

    #[test]
    fn no_fault_plan_means_no_rng_draws_and_identical_timing() {
        let a = Cluster::new(ClusterSpec::pcie_node(4));
        let b = Cluster::new(ClusterSpec::pcie_node(4));
        for c in [&a, &b] {
            for i in 0..4 {
                c.device_to_host(i, 4096, "gather", SimTime(i as f64 * 1e-4))
                    .unwrap();
            }
        }
        assert_eq!(a.transfers(), b.transfers());
        assert_eq!(a.total_link_time(), b.total_link_time());
    }

    #[test]
    fn same_endpoint_transfer_is_free() {
        let c = Cluster::new(ClusterSpec::pcie_node(1));
        let t = c
            .device_to_device(0, 0, 1 << 20, "self", SimTime(2e-3))
            .unwrap();
        assert_eq!(t.start, t.end);
        assert!(t.legs.is_empty());
    }

    #[test]
    fn cluster_trace_is_well_formed() {
        let c = Cluster::new(ClusterSpec::pcie_node(2));
        c.device(0).launch(&Tiny).unwrap();
        c.device(1).launch(&Tiny).unwrap();
        c.device_to_host(0, 1 << 16, "shard \"quoted\"", SimTime::ZERO)
            .unwrap();
        c.device_to_host(1, 1 << 16, "gather", SimTime::ZERO)
            .unwrap();
        let json = c.chrome_trace();
        assert!(json.starts_with('[') && json.ends_with(']'));
        // two device processes + the interconnect process
        assert!(json.contains("\"name\":\"dev0\""));
        assert!(json.contains("\"name\":\"dev1\""));
        assert!(json.contains("\"name\":\"interconnect\""));
        // kernel events on device pids, transfer events on pid 0
        assert_eq!(json.matches("\"cat\":\"kernel\"").count(), 2);
        assert_eq!(json.matches("\"cat\":\"transfer\"").count(), 2);
        // distinct directed channels get distinct named tracks
        assert!(json.contains("\"name\":\"dev0 -> host\""));
        assert!(json.contains("\"name\":\"dev1 -> host\""));
        // labels are escaped
        assert!(json.contains("shard \\\"quoted\\\""));
    }
}
