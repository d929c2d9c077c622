//! Launch-timeline export in Chrome tracing format.
//!
//! [`chrome_trace`] serializes a launch log as a `chrome://tracing` /
//! Perfetto-compatible JSON array: one complete event per kernel, laid
//! end-to-end on the device track, with the traffic counters attached as
//! event arguments. Drop the output into a `.json` file and load it in
//! the browser to see where an algorithm's simulated time goes.

use crate::analysis::escape_json;
use crate::device::LaunchReport;
use crate::stream::StreamSchedule;

/// Renders a launch log as Chrome tracing JSON (a complete-event array).
///
/// Events are placed sequentially, as the launches would execute on one
/// stream; timestamps are microseconds of simulated time.
pub fn chrome_trace(reports: &[LaunchReport]) -> String {
    let mut out = String::from("[");
    let mut t_us = 0.0f64;
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let dur = r.time.micros();
        out.push_str(&format!(
            concat!(
                "{{\"name\":\"{}\",\"cat\":\"kernel\",\"ph\":\"X\",",
                "\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{",
                "\"grid\":{},\"block\":{},\"bound_by\":\"{}\",",
                "\"global_MB\":{:.3},\"shared_eff_MB\":{:.3},",
                "\"conflict_cycles\":{},\"occupancy\":{:.3}}}}}"
            ),
            escape_json(r.name),
            t_us,
            dur,
            r.grid_dim,
            r.block_dim,
            r.bound_by(),
            r.stats.global_bytes() as f64 / 1e6,
            r.stats.shared_eff_bytes as f64 / 1e6,
            r.stats.shared_conflict_cycles,
            r.occupancy.occupancy,
        ));
        t_us += dur;
    }
    out.push(']');
    out
}

/// Renders a [`StreamSchedule`] as Chrome tracing JSON: one track (tid)
/// per stream, events placed at their *scheduled* start times, so
/// cross-stream overlap and contention stretch are visible.
///
/// `log` must be the full device launch log the schedule was computed
/// from ([`ScheduledLaunch::index`](crate::stream::ScheduledLaunch) is an
/// absolute log position).
pub fn chrome_trace_streams(schedule: &StreamSchedule, log: &[LaunchReport]) -> String {
    let mut out = String::from("[");
    let mut streams: Vec<usize> = schedule.launches.iter().map(|l| l.stream).collect();
    streams.sort_unstable();
    streams.dedup();
    let mut first = true;
    for s in &streams {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            concat!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},",
                "\"args\":{{\"name\":\"stream {}\"}}}}"
            ),
            s, s
        ));
    }
    for l in &schedule.launches {
        let r = &log[l.index];
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            concat!(
                "{{\"name\":\"{}\",\"cat\":\"kernel\",\"ph\":\"X\",",
                "\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{",
                "\"grid\":{},\"block\":{},\"bound_by\":\"{}\",",
                "\"global_MB\":{:.3},\"stretch\":{:.3},\"occupancy\":{:.3}}}}}"
            ),
            escape_json(r.name),
            l.start.micros(),
            (l.end.0 - l.start.0) * 1e6,
            l.stream,
            r.grid_dim,
            r.block_dim,
            r.bound_by(),
            r.stats.global_bytes() as f64 / 1e6,
            l.stretch,
            r.occupancy.occupancy,
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockCtx, Device, Kernel};

    struct Tiny;
    impl Kernel for Tiny {
        fn name(&self) -> &'static str {
            "tiny\"kernel"
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
    fn trace_is_well_formed() {
        let dev = Device::titan_x();
        dev.launch(&Tiny).unwrap();
        dev.launch(&Tiny).unwrap();
        let json = chrome_trace(&dev.launch_log());
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        // quotes in kernel names must be escaped
        assert!(json.contains("tiny\\\"kernel"));
        // events must be laid end-to-end (second ts == first dur)
        let first_dur = json.split("\"dur\":").nth(1).unwrap();
        let dur: f64 = first_dur.split(',').next().unwrap().parse().unwrap();
        let second_ts = json.split("\"ts\":").nth(2).unwrap();
        let ts: f64 = second_ts.split(',').next().unwrap().parse().unwrap();
        assert!((dur - ts).abs() < 1e-9);
    }

    #[test]
    fn empty_log_is_empty_array() {
        assert_eq!(chrome_trace(&[]), "[]");
    }

    #[test]
    fn stream_trace_has_one_track_per_stream() {
        let dev = Device::titan_x();
        let a = dev.create_stream();
        let b = dev.create_stream();
        for st in [&a, &b] {
            dev.stream_scope(st.id(), || dev.launch(&Tiny).unwrap());
        }
        let json = chrome_trace_streams(&dev.schedule(), &dev.launch_log());
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(json.matches("\"thread_name\"").count(), 2);
        assert!(json.contains(&format!("\"tid\":{}", a.id().0)));
        assert!(json.contains(&format!("\"tid\":{}", b.id().0)));
        // both tiny kernels overlap: both scheduled at ts 0
        assert_eq!(json.matches("\"ts\":0.000").count(), 2);
    }
}
