//! Streams: concurrent kernel execution on a shared device timeline.
//!
//! Real GPUs let independent work share the machine: kernels issued on
//! different streams run concurrently as long as SMs and bandwidth are
//! available, and `cudaEvent`s impose cross-stream ordering. This module
//! adds the same model to the simulator.
//!
//! Launch execution stays unchanged (blocks still run functionally, one
//! launch at a time, and each launch keeps its solo [`LaunchReport`]).
//! What streams change is *scheduling*: [`schedule`] replays the launch
//! log onto a shared device timeline where launches on different streams
//! overlap, contending for two resources:
//!
//! * **SMs** — a launch occupying `g` blocks at `b` resident blocks/SM
//!   claims `g / (b · num_sms)` of the machine (capped at 1). Sixty-four
//!   one-block kernels on a 24-SM device overlap essentially for free —
//!   this is the concurrency the serving layer exploits.
//! * **Global bandwidth** — a launch that solo-sustains a fraction `f`
//!   of peak DRAM bandwidth claims `f` of it.
//!
//! When the sum of claims on either resource exceeds the machine, every
//! resident launch is slowed by the same factor (fair sharing), so two
//! full-device scans overlap into ~2× the time of one — no free lunch —
//! while small independent kernels genuinely overlap.

use std::rc::Rc;

use crate::analysis::AnalysisReport;
use crate::device::{DeviceInner, LaunchReport};
use crate::spec::DeviceSpec;
use crate::stats::SimTime;

/// Identifies a stream. `StreamId(0)` is the default stream every launch
/// goes to unless scoped otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StreamId(pub usize);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

/// A stream handle created by [`crate::Device::create_stream`]. Cloning
/// yields another handle to the same stream.
#[derive(Clone)]
pub struct Stream {
    dev: Rc<DeviceInner>,
    id: StreamId,
}

impl Stream {
    pub(crate) fn new(dev: Rc<DeviceInner>, id: StreamId) -> Self {
        Stream { dev, id }
    }

    /// The stream's id (pass to [`crate::Device::stream_scope`]).
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// Records an event capturing all work issued to this stream so far.
    pub fn record_event(&self) -> Event {
        Event {
            source_stream: self.id.0,
            upto_abs: self.dev.log_len(),
        }
    }

    /// Analysis reports for launches issued on this stream, in launch
    /// order, read from the device's one analysis log. Empty unless the
    /// sanitizer or the lint was enabled while the launches ran (see
    /// [`crate::Device::enable_sanitizer`]) — this is how serving-layer
    /// code audits the launches a particular query's stream produced.
    pub fn analysis_reports(&self) -> Vec<AnalysisReport> {
        self.dev.stream_analysis(self.id.0)
    }

    /// Injected fault events attributed to this stream, in firing order
    /// (see [`crate::fault`]). Empty unless a fault plan was installed
    /// while the stream's work ran.
    pub fn fault_events(&self) -> Vec<crate::fault::FaultEvent> {
        self.dev.stream_fault_events(self.id.0)
    }

    /// Makes all *future* launches on this stream wait until the work
    /// captured by `event` has completed.
    pub fn wait_event(&self, event: &Event) {
        self.dev.waits.borrow_mut().push(WaitEdge {
            waiting_stream: self.id.0,
            from_abs: self.dev.log_len(),
            source_stream: event.source_stream,
            upto_abs: event.upto_abs,
        });
    }
}

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stream").field("id", &self.id).finish()
    }
}

/// A marker on a stream's timeline: all launches the stream had issued
/// when the event was recorded.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub(crate) source_stream: usize,
    pub(crate) upto_abs: usize,
}

/// A cross-stream ordering constraint: launches of `waiting_stream` at
/// log position ≥ `from_abs` must start after every launch of
/// `source_stream` at position < `upto_abs` has completed.
#[derive(Debug, Clone, Copy)]
pub struct WaitEdge {
    pub(crate) waiting_stream: usize,
    pub(crate) from_abs: usize,
    pub(crate) source_stream: usize,
    pub(crate) upto_abs: usize,
}

/// One launch placed on the shared device timeline.
#[derive(Debug, Clone)]
pub struct ScheduledLaunch {
    /// Absolute position in the device launch log.
    pub index: usize,
    /// Stream the launch ran on.
    pub stream: usize,
    /// Start time on the shared timeline.
    pub start: SimTime,
    /// Completion time on the shared timeline.
    pub end: SimTime,
    /// `(end - start) / solo_time` — 1.0 means no contention.
    pub stretch: f64,
}

/// The launch log replayed onto a shared device timeline.
#[derive(Debug, Clone)]
pub struct StreamSchedule {
    /// Per-launch placement, in log order.
    pub launches: Vec<ScheduledLaunch>,
    /// Completion time of the last launch.
    pub makespan: SimTime,
    /// What the same launches would take back-to-back on one stream.
    pub serial_time: SimTime,
}

impl StreamSchedule {
    /// `serial_time / makespan` — the throughput multiplier concurrency
    /// bought (1.0 = fully serialized).
    pub fn speedup(&self) -> f64 {
        if self.makespan.0 <= 0.0 {
            1.0
        } else {
            self.serial_time.0 / self.makespan.0
        }
    }

    /// The scheduled placements of one stream's launches.
    pub fn stream_launches(&self, id: StreamId) -> Vec<&ScheduledLaunch> {
        self.launches.iter().filter(|l| l.stream == id.0).collect()
    }
}

/// Fraction of the device's SMs a launch occupies while resident.
fn sm_demand(spec: &DeviceSpec, r: &LaunchReport) -> f64 {
    let slots = (r.occupancy.blocks_per_sm.max(1) * spec.num_sms) as f64;
    (r.grid_dim as f64 / slots).min(1.0)
}

/// Fraction of peak DRAM bandwidth the launch sustains while running.
fn bw_demand(spec: &DeviceSpec, r: &LaunchReport) -> f64 {
    if r.time.0 <= 0.0 {
        return 0.0;
    }
    let peak_seconds = r.stats.global_bytes() as f64 / spec.global_bw;
    (peak_seconds / r.time.0).min(1.0)
}

/// Replays `reports` (the launch log from absolute position
/// `abs_offset`) onto a shared device timeline.
///
/// Launches on the same stream execute in issue order; launches on
/// different streams overlap, subject to [`WaitEdge`]s and fair-share
/// slowdown when aggregate SM or bandwidth demand exceeds the machine
/// (see the module docs). Wait edges whose source launches precede
/// `abs_offset` are treated as satisfied.
pub fn schedule(
    spec: &DeviceSpec,
    reports: &[LaunchReport],
    waits: &[WaitEdge],
    abs_offset: usize,
) -> StreamSchedule {
    let n = reports.len();
    let solo: Vec<f64> = reports.iter().map(|r| r.time.0).collect();
    let sm: Vec<f64> = reports.iter().map(|r| sm_demand(spec, r)).collect();
    let bw: Vec<f64> = reports.iter().map(|r| bw_demand(spec, r)).collect();

    // Per-stream issue queues (local indices, in log order).
    let mut queues: std::collections::BTreeMap<usize, std::collections::VecDeque<usize>> =
        std::collections::BTreeMap::new();
    for (i, r) in reports.iter().enumerate() {
        queues.entry(r.stream).or_default().push_back(i);
    }

    let mut remaining = solo.clone();
    let mut started = vec![f64::NAN; n];
    let mut ended = vec![f64::NAN; n];
    let mut done = vec![false; n];
    let mut active: Vec<usize> = Vec::new();
    let mut t = 0.0f64;
    let mut completed = 0usize;

    // an edge whose source launches all precede the window is satisfied
    // (the device's edge list is never pruned, so skip those once here)
    let waits: Vec<&WaitEdge> = waits.iter().filter(|e| e.upto_abs > abs_offset).collect();
    let deps_done = |local: usize, done: &[bool]| -> bool {
        let abs = abs_offset + local;
        let stream = reports[local].stream;
        waits
            .iter()
            .filter(|e| e.waiting_stream == stream && e.from_abs <= abs)
            .all(|e| {
                reports
                    .iter()
                    .enumerate()
                    .filter(|(j, r)| r.stream == e.source_stream && abs_offset + j < e.upto_abs)
                    .all(|(j, _)| done[j])
            })
    };

    while completed < n {
        // Admit every stream head whose dependencies have completed.
        for q in queues.values() {
            if let Some(&head) = q.front() {
                if !active.contains(&head) && deps_done(head, &done) {
                    active.push(head);
                    started[head] = t;
                }
            }
        }
        assert!(
            !active.is_empty(),
            "stream schedule deadlock: wait edges form a cycle"
        );

        let sm_load: f64 = active.iter().map(|&i| sm[i]).sum();
        let bw_load: f64 = active.iter().map(|&i| bw[i]).sum();
        let rate = 1.0 / sm_load.max(bw_load).max(1.0);

        let dt = active
            .iter()
            .map(|&i| remaining[i] / rate)
            .fold(f64::INFINITY, f64::min);
        t += dt;
        for &i in &active {
            remaining[i] -= dt * rate;
        }
        active.retain(|&i| {
            if remaining[i] <= 1e-18 {
                ended[i] = t;
                done[i] = true;
                completed += 1;
                queues.get_mut(&reports[i].stream).unwrap().pop_front();
                false
            } else {
                true
            }
        });
    }

    let launches = (0..n)
        .map(|i| ScheduledLaunch {
            index: abs_offset + i,
            stream: reports[i].stream,
            start: SimTime(started[i]),
            end: SimTime(ended[i]),
            stretch: if solo[i] > 0.0 {
                (ended[i] - started[i]) / solo[i]
            } else {
                1.0
            },
        })
        .collect();
    StreamSchedule {
        launches,
        makespan: SimTime(t),
        serial_time: SimTime(solo.iter().sum()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockCtx, Device, Kernel};

    /// A kernel whose footprint we can dial: `grid` blocks, each charging
    /// `bytes_per_block` of bulk global reads.
    struct Load {
        grid: usize,
        bytes_per_block: u64,
    }

    impl Kernel for Load {
        fn name(&self) -> &'static str {
            "load"
        }
        fn block_dim(&self) -> usize {
            256
        }
        fn grid_dim(&self) -> usize {
            self.grid
        }
        fn run_block(&self, blk: &mut BlockCtx) {
            blk.bulk_global_read(self.bytes_per_block);
        }
    }

    #[test]
    fn default_stream_serializes() {
        let dev = Device::titan_x();
        for _ in 0..4 {
            dev.launch(&Load {
                grid: 1,
                bytes_per_block: 1 << 20,
            })
            .unwrap();
        }
        let s = dev.schedule();
        assert!((s.speedup() - 1.0).abs() < 1e-9, "speedup {}", s.speedup());
        // back-to-back: each launch starts when the previous ends
        for w in s.launches.windows(2) {
            assert!((w[1].start.0 - w[0].end.0).abs() < 1e-15);
        }
    }

    #[test]
    fn small_kernels_on_streams_overlap() {
        let dev = Device::titan_x();
        let streams: Vec<_> = (0..8).map(|_| dev.create_stream()).collect();
        for st in &streams {
            dev.stream_scope(st.id(), || {
                dev.launch(&Load {
                    grid: 1,
                    bytes_per_block: 1 << 16,
                })
                .unwrap();
            });
        }
        let s = dev.schedule();
        assert!(
            s.speedup() > 4.0,
            "8 one-block kernels should mostly overlap, got {}",
            s.speedup()
        );
        // every launch individually unstretched
        for l in &s.launches {
            assert!(l.stretch < 1.5, "stretch {}", l.stretch);
        }
    }

    #[test]
    fn bandwidth_contention_stretches_scans() {
        let dev = Device::titan_x();
        let a = dev.create_stream();
        let b = dev.create_stream();
        // Two full-device scans, each solo-saturating DRAM.
        for st in [&a, &b] {
            dev.stream_scope(st.id(), || {
                dev.launch(&Load {
                    grid: 24 * 8,
                    bytes_per_block: 8 << 20,
                })
                .unwrap();
            });
        }
        let s = dev.schedule();
        // no free lunch: two saturating scans ≈ serial time
        assert!(s.speedup() < 1.2, "speedup {}", s.speedup());
        for l in &s.launches {
            assert!(l.stretch > 1.5, "stretch {}", l.stretch);
        }
    }

    #[test]
    fn events_order_across_streams() {
        let dev = Device::titan_x();
        let a = dev.create_stream();
        let b = dev.create_stream();
        dev.stream_scope(a.id(), || {
            dev.launch(&Load {
                grid: 4,
                bytes_per_block: 1 << 20,
            })
            .unwrap();
        });
        let ev = a.record_event();
        b.wait_event(&ev);
        dev.stream_scope(b.id(), || {
            dev.launch(&Load {
                grid: 4,
                bytes_per_block: 1 << 20,
            })
            .unwrap();
        });
        let s = dev.schedule();
        let la = s.stream_launches(a.id())[0].clone();
        let lb = s.stream_launches(b.id())[0].clone();
        assert!(
            lb.start.0 >= la.end.0 - 1e-15,
            "waiter must start after event source completes"
        );
    }

    #[test]
    fn schedule_since_ignores_prior_epoch() {
        let dev = Device::titan_x();
        let a = dev.create_stream();
        dev.stream_scope(a.id(), || {
            dev.launch(&Load {
                grid: 1,
                bytes_per_block: 1 << 20,
            })
            .unwrap();
        });
        let mark = dev.log_len();
        let b = dev.create_stream();
        b.wait_event(&a.record_event()); // source entirely before `mark`
        dev.stream_scope(b.id(), || {
            dev.launch(&Load {
                grid: 1,
                bytes_per_block: 1 << 20,
            })
            .unwrap();
        });
        let s = dev.schedule_since(mark);
        assert_eq!(s.launches.len(), 1);
        assert!(s.launches[0].start.0.abs() < 1e-15);
    }

    #[test]
    fn many_drains_schedule_like_a_fresh_device() {
        // one "drain": a → b → a across two streams, ordered by events
        let drain = |dev: &Device, a: &Stream, b: &Stream| {
            let load = |st: &Stream, grid| {
                dev.stream_scope(st.id(), || {
                    dev.launch(&Load {
                        grid,
                        bytes_per_block: 1 << 18,
                    })
                    .unwrap();
                })
            };
            load(a, 4);
            b.wait_event(&a.record_event());
            load(b, 48);
            load(a, 2);
            a.wait_event(&b.record_event());
            load(a, 8);
        };
        let busy = Device::titan_x();
        let (a, b) = (busy.create_stream(), busy.create_stream());
        for _ in 0..200 {
            drain(&busy, &a, &b);
        }
        let mark = busy.log_len();
        drain(&busy, &a, &b);
        let fresh = Device::titan_x();
        let (fa, fb) = (fresh.create_stream(), fresh.create_stream());
        drain(&fresh, &fa, &fb);
        // the 400 earlier wait edges constrain nothing in the window
        let (got, want) = (busy.schedule_since(mark), fresh.schedule_since(0));
        assert_eq!(got.launches.len(), want.launches.len());
        for (g, w) in got.launches.iter().zip(&want.launches) {
            assert_eq!(g.index - mark, w.index);
            assert_eq!(g.stream, w.stream);
            assert_eq!(g.start.0.to_bits(), w.start.0.to_bits());
            assert_eq!(g.end.0.to_bits(), w.end.0.to_bits());
        }
        assert_eq!(got.makespan.0.to_bits(), want.makespan.0.to_bits());
    }

    #[test]
    fn stream_scope_restores_and_stamps() {
        let dev = Device::titan_x();
        let st = dev.create_stream();
        assert_eq!(dev.current_stream(), StreamId(0));
        dev.stream_scope(st.id(), || {
            assert_eq!(dev.current_stream(), st.id());
            dev.launch(&Load {
                grid: 1,
                bytes_per_block: 1024,
            })
            .unwrap();
        });
        assert_eq!(dev.current_stream(), StreamId(0));
        dev.launch(&Load {
            grid: 1,
            bytes_per_block: 1024,
        })
        .unwrap();
        assert_eq!(dev.stream_log(st.id()).len(), 1);
        assert_eq!(dev.stream_log(StreamId(0)).len(), 1);
        assert_eq!(dev.launch_log()[0].stream, st.id().0);
    }
}
