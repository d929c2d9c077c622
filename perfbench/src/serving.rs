//! `sql_dashboard` and `sharded_failover`: SQL serving with writes.
//!
//! Eight closed-loop clients send SQL drawn with skewed popularity from
//! a fixed pool; each round every client submits one query and the
//! server drains them together. Every `APPEND_EVERY` rounds a batch of
//! `n / APPEND_DIV` rows with continuing ids is appended and two
//! standing `TopKView`s are refreshed. `sql_dashboard` serves one
//! device through `qdb::Server`; `sharded_failover` serves a
//! hash-partitioned, r = 2 replicated table on a 4-device PCIe node
//! through `qdb::ShardedServer` and loses device 1 for good at the
//! middle round.

use std::time::Instant;

use datagen::twitter::TweetTable;
use qdb::shard::{PartitionPolicy, ReplicationFactor, ShardedServer, ShardedTable};
use qdb::{
    GpuTweetTable, LoadReport, QdbError, Server, ServerConfig, Strategy, SubmitOptions, TopKView,
    ViewConfig, ViewMode, ViewRefresh,
};
use simt::topology::{Cluster, ClusterSpec};
use simt::{Device, FaultPlan, LaunchWindow, SimTime, Transfer};

use crate::calib::{rescale, Probe};
use crate::oracle::{Memo, Shape};
use crate::rng::Rng;
use crate::stats::{median, peak_rss_mib, ratio};
use crate::trace::{SpanId, Tracer};
use crate::{Pass, Section, SimCounters};

/// Resident rows before any append: 2^17, about 2.6 MiB of columns,
/// over the simulated 2 MiB L2.
const LOG2N: u32 = 17;
/// Rounds per second of `--seconds`, calibrated so the timed phase takes
/// a little under that long on a quiet 2-vCPU host.
const ROUNDS_PER_SECOND: f64 = 3.0;
/// Set-ups timed per run for the `setup_s` median.
const SETUP_REPS: usize = 15;

/// What differs between the two serving workloads.
struct Mix {
    /// Serve a replicated cluster that loses a device (else one device).
    sharded: bool,
    /// The query pool with relative popularity.
    pool: Vec<(Shape, u32)>,
}

/// Closed-loop clients; one drain per round serves one query each.
pub const CLIENTS: usize = 8;
/// Rounds per append window.
pub const APPEND_EVERY: usize = 3;
/// Each append adds `n / APPEND_DIV` rows.
pub const APPEND_DIV: usize = 256;
/// Distinct authors the rows and the appended batches draw from (Zipf):
/// about 12.6k of them appear in 2^17 rows and about 13k after the
/// last append, so Q4's group count sits inside one power-of-two bucket
/// for every seed and every epoch. The generator's default of 0.23
/// authors per tweet gives 16.3k–16.5k, straddling 16384, and a seed's
/// data would flip the size of Q4's top-k stage.
pub const USERS: usize = 18_000;
/// The standing views refreshed after every append: top retweets and
/// the ranked query.
pub const VIEWS: [Shape; 2] = [
    Shape::Top {
        cutoff: None,
        k: 50,
    },
    Shape::Ranked { k: 50 },
];

/// Devices of the sharded node.
pub const DEVICES: usize = 4;
/// Replication factor of the sharded table.
pub const REPLICATION: usize = 2;
/// The device lost at the middle round.
pub const LOST_DEVICE: usize = 1;

/// Key bit marking a write's host sample (reads are keyed by round).
const WRITE_KEY: u64 = 1 << 40;

impl Mix {
    /// The pool of one workload; the sharded one cannot send `GROUP BY`.
    fn new(sharded: bool) -> Self {
        let month = datagen::twitter::MONTH_SECONDS as f64;
        // Q1: filtered top-k at selectivity `sel`
        let q1 = |sel: f64, k: usize| Shape::Top {
            cutoff: Some((month * sel) as u32),
            k,
        };
        // Popularity falls off with rank. Every entry is sent at least
        // once per append window; the deal (see `schedule`) puts a third
        // of the reads on the result cache, since a hit needs an earlier
        // drain at the same epoch. The window's first round misses
        // everything; the full-table shapes (Q2, ASC) sit where their
        // misses make the three rounds of a window clearly unequal in
        // cost, so the host p50 over drains falls inside the middle
        // round's class. Full-table shapes keep k small: their host cost
        // grows with k. Q1 selectivities keep each filtered candidate
        // count, on one device and per shard, inside one power-of-two
        // bucket (and on one side of the 4096-row batch limit) from the
        // first round to the last append, so the seed's data never
        // flips a query's kernel sizes mid-run. GROUP BY does not shard,
        // so the sharded mix swaps Q4's two slots for two more Q1 entries.
        let (q4_a, q4_b) = if sharded {
            (q1(0.05, 16), q1(0.07, 24))
        } else {
            (Shape::Group { k: 10 }, Shape::Group { k: 50 })
        };
        let pool = vec![
            (q1(0.01, 10), 4),
            (q1(0.02, 20), 3),
            (Shape::Ranked { k: 8 }, 3),
            (q1(0.012, 50), 3),
            (q1(0.025, 10), 2),
            (q1(0.005, 8), 2),
            (q1(0.04, 20), 2),
            (Shape::Bottom { k: 8 }, 2),
            (Shape::Ranked { k: 16 }, 2),
            (q1(0.052, 10), 2),
            (q4_a, 2),
            (q1(0.08, 64), 2),
            (q1(0.10, 10), 2),
            (Shape::Bottom { k: 16 }, 2),
            (q4_b, 2),
            (q1(0.20, 20), 2),
        ];
        Mix { sharded, pool }
    }
}

/// One read's outcome, normalised across both servers.
struct Served {
    ids: Vec<u32>,
    sim_ms: f64,
    error: Option<String>,
}

/// What a per-device server's drain report says about its own layer.
#[derive(Default)]
struct ServerLayer {
    host_ms: f64,
    makespan_ms: f64,
    serial_ms: f64,
    device_reads: usize,
    coalesced: usize,
    queued_ms: Vec<f64>,
    exec_ms: Vec<f64>,
}

impl ServerLayer {
    fn of(r: &LoadReport) -> Self {
        let mut s = ServerLayer {
            host_ms: r.host_wall.as_secs_f64() * 1e3,
            makespan_ms: r.makespan.millis(),
            serial_ms: r.serial_time.millis(),
            ..ServerLayer::default()
        };
        for q in r.queries.iter().filter(|q| !q.cached && q.completed()) {
            s.device_reads += 1;
            s.coalesced += usize::from(q.coalesced);
            s.queued_ms.push(q.timing.queued.millis());
            s.exec_ms.push(q.timing.exec.millis());
        }
        s
    }
}

/// One drain, normalised.
#[derive(Default)]
struct Drained {
    reads: Vec<Served>,
    makespan_ms: f64,
    hits: usize,
    refreshes: usize,
    misses: usize,
    failovers: usize,
    rebuilds: usize,
    breaker_trips: usize,
    servers: Vec<ServerLayer>,
}

/// The serving stack under test, behind one interface.
trait Front {
    fn submit(&mut self, sql: &str) -> Result<(), QdbError>;
    fn drain(&mut self) -> Drained;
    /// Appends a batch; returns modeled ingest time (single device) and
    /// replicas skipped because their device is down (cluster).
    fn append(&self, batch: &TweetTable) -> Result<(f64, usize), QdbError>;
    fn refresh(&self, v: &TopKView) -> Result<ViewRefresh, QdbError>;
    fn epoch(&self) -> u64;
    fn devices(&self) -> Vec<&Device>;
    fn transfers_len(&self) -> usize;
    fn transfers(&self) -> Vec<Transfer>;
    fn lose_device(&self);
}

struct Single<'a> {
    dev: &'a Device,
    table: &'a GpuTweetTable,
    server: Server<'a>,
}

impl Front for Single<'_> {
    fn submit(&mut self, sql: &str) -> Result<(), QdbError> {
        self.server
            .submit(sql, SubmitOptions::default())
            .map(|_| ())
    }
    fn drain(&mut self) -> Drained {
        let r = self.server.drain();
        Drained {
            reads: r
                .queries
                .iter()
                .map(|q| Served {
                    ids: q.result.ids.clone(),
                    sim_ms: q.timing.total.millis(),
                    error: q.error.as_ref().map(|e| e.to_string()),
                })
                .collect(),
            makespan_ms: r.makespan.millis(),
            hits: r.resilience.cache_hits,
            refreshes: r.resilience.cache_refreshes,
            misses: r.resilience.cache_misses,
            servers: vec![ServerLayer::of(&r)],
            ..Drained::default()
        }
    }
    fn append(&self, batch: &TweetTable) -> Result<(f64, usize), QdbError> {
        let r = self.table.append_batch(self.dev, batch)?;
        Ok((r.transfer_time.millis(), 0))
    }
    fn refresh(&self, v: &TopKView) -> Result<ViewRefresh, QdbError> {
        v.refresh(self.dev, self.table)
    }
    fn epoch(&self) -> u64 {
        self.table.epoch()
    }
    fn devices(&self) -> Vec<&Device> {
        vec![self.dev]
    }
    fn transfers_len(&self) -> usize {
        0
    }
    fn transfers(&self) -> Vec<Transfer> {
        Vec::new()
    }
    fn lose_device(&self) {}
}

struct Sharded<'a> {
    cluster: &'a Cluster,
    table: &'a ShardedTable,
    server: ShardedServer<'a>,
    retries: usize,
}

impl Front for Sharded<'_> {
    fn submit(&mut self, sql: &str) -> Result<(), QdbError> {
        self.server.submit(sql).map(|_| ())
    }
    fn drain(&mut self) -> Drained {
        let r = self.server.drain();
        Drained {
            reads: r
                .queries
                .iter()
                .map(|q| Served {
                    ids: q.ids.clone(),
                    sim_ms: q.latency.millis(),
                    error: q.error.as_ref().map(|e| e.to_string()),
                })
                .collect(),
            makespan_ms: r.makespan.millis(),
            hits: r.resilience.cache_hits,
            refreshes: r.resilience.cache_refreshes,
            misses: r.resilience.cache_misses,
            failovers: r.resilience.failovers,
            rebuilds: r.resilience.rebuilds,
            breaker_trips: r.resilience.breaker_trips,
            servers: r.shard_reports.iter().map(ServerLayer::of).collect(),
        }
    }
    fn append(&self, batch: &TweetTable) -> Result<(f64, usize), QdbError> {
        let r = self.table.append_batch(self.cluster, batch)?;
        Ok((0.0, r.skipped_replicas))
    }
    fn refresh(&self, v: &TopKView) -> Result<ViewRefresh, QdbError> {
        v.refresh_sharded(self.cluster, self.table, self.retries)
    }
    fn epoch(&self) -> u64 {
        self.table.epoch()
    }
    fn devices(&self) -> Vec<&Device> {
        self.cluster.devices().iter().collect()
    }
    fn transfers_len(&self) -> usize {
        self.cluster.transfers_len()
    }
    fn transfers(&self) -> Vec<Transfer> {
        self.cluster.transfers()
    }
    fn lose_device(&self) {
        self.cluster
            .device(LOST_DEVICE)
            .set_fault_plan(FaultPlan::down_at(SimTime::ZERO));
    }
}

fn config() -> ServerConfig {
    ServerConfig {
        result_cache: true,
        ..ServerConfig::default()
    }
}

fn register_views() -> Vec<TopKView> {
    VIEWS
        .iter()
        .map(|s| {
            TopKView::register(&s.sql(), Strategy::StageBitonic, ViewConfig::default())
                .expect("view shapes are supported")
        })
        .collect()
}

/// The read schedule. Per append window (`APPEND_EVERY` rounds) the
/// pool's popularity fixes how often each query is sent, and the reads
/// are dealt round-robin across the window's rounds in popularity order,
/// so every window sends the same rounds. The seed shuffles the order
/// within each round (it decides which query goes first, and with it
/// stream assignment and batch layout); the data it generates does the
/// rest.
fn schedule(mix: &Mix, windows: usize, rng: &mut Rng) -> Vec<Vec<usize>> {
    let per_window = APPEND_EVERY * CLIENTS;
    let total: u32 = mix.pool.iter().map(|p| p.1).sum();
    // largest-remainder apportionment of the window's reads
    let mut counts: Vec<(usize, f64)> = mix
        .pool
        .iter()
        .map(|p| {
            let exact = per_window as f64 * p.1 as f64 / total as f64;
            (exact.floor() as usize, exact - exact.floor())
        })
        .collect();
    let mut by_rem: Vec<usize> = (0..counts.len()).collect();
    by_rem.sort_by(|&a, &b| counts[b].1.total_cmp(&counts[a].1).then(a.cmp(&b)));
    let left = per_window - counts.iter().map(|c| c.0).sum::<usize>();
    for &i in by_rem.iter().take(left) {
        counts[i].0 += 1;
    }
    let reads: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &(c, _))| std::iter::repeat_n(i, c))
        .collect();
    let mut out = Vec::with_capacity(windows * APPEND_EVERY);
    for _ in 0..windows {
        for r in 0..APPEND_EVERY {
            let mut round: Vec<usize> = reads
                .iter()
                .skip(r)
                .step_by(APPEND_EVERY)
                .copied()
                .collect();
            rng.shuffle(&mut round);
            out.push(round);
        }
    }
    out
}

/// Launch-log positions on every device, for windows read after the run.
type Marks = Vec<usize>;

fn marks(f: &dyn Front) -> Marks {
    f.devices().iter().map(|d| d.log_len()).collect()
}

/// Aggregates the launches between two mark sets.
fn window(logs: &[Vec<simt::LaunchReport>], a: &Marks, b: &Marks) -> LaunchWindow {
    let reports: Vec<simt::LaunchReport> = logs
        .iter()
        .zip(a.iter().zip(b))
        .flat_map(|(log, (&x, &y))| log[x..y].iter().cloned())
        .collect();
    LaunchWindow::from_reports(&reports)
}

/// Elapsed link time of a run of transfers: first start to last end.
fn link_span_ms(ts: &[Transfer]) -> f64 {
    let start = ts.iter().map(|t| t.start.0).fold(f64::INFINITY, f64::min);
    let end = ts.iter().map(|t| t.end.0).fold(0.0, f64::max);
    if ts.is_empty() {
        0.0
    } else {
        (end - start) * 1e3
    }
}

/// The oracle's state: the benchmark's own copy of the rows and the
/// memoised references.
struct Checker<'s> {
    mix: &'s Mix,
    rows: TweetTable,
    memo: Memo,
}

impl Checker<'_> {
    /// Checks one drain's reads (submitted pool indices `sent`).
    fn reads(&mut self, p: &mut Pass, sent: &[usize], d: &Drained, epoch: u64) {
        if d.reads.len() != sent.len() {
            p.fail(format!(
                "drain returned {} reads for {} submitted",
                d.reads.len(),
                sent.len()
            ));
            return;
        }
        for (&i, r) in sent.iter().zip(&d.reads) {
            let shape = self.mix.pool[i].0;
            if let Some(e) = &r.error {
                p.fail(format!("{}: {e}", shape.sql()));
            } else if r.ids != self.memo.get(i, epoch, &shape, &self.rows) {
                p.fail(format!("{} at epoch {epoch}: wrong answer", shape.sql()));
            }
        }
    }

    /// Checks a view's standing result at `epoch`.
    fn view(&mut self, p: &mut Pass, v: usize, ids: &[u32], epoch: u64) {
        let shape = VIEWS[v];
        let key = self.mix.pool.len() + v;
        if ids != self.memo.get(key, epoch, &shape, &self.rows) {
            p.fail(format!(
                "view {} at epoch {epoch}: wrong answer",
                shape.sql()
            ));
        }
    }
}

/// One pass over either stack: set-up (`SETUP_REPS` times), one
/// warm-up round, then the timed rounds.
pub fn pass(sharded: bool, seed: u64, seconds: f64, trace: bool) -> Pass {
    let mix = Mix::new(sharded);
    let n = 1usize << LOG2N;
    let windows = (seconds * ROUNDS_PER_SECOND / APPEND_EVERY as f64)
        .ceil()
        .max(2.0) as usize;
    let batch_rows = n / APPEND_DIV;
    // input generation, excluded from set-up: the table, and every
    // append batch, drawn from the same authors with ids continuing the
    // table's
    let host = TweetTable::generate_with_users(n, USERS, seed);
    let batches: Vec<TweetTable> = (0..windows)
        .map(|w| {
            let mut b =
                TweetTable::generate_with_users(batch_rows, USERS, seed ^ (0xa11 + w as u64));
            let first = (n + w * batch_rows) as u32;
            for id in &mut b.id {
                *id += first;
            }
            b
        })
        .collect();
    let cap = n + windows * batch_rows;
    let (mut setup_raw, mut setup_probes) = (Vec::new(), Vec::new());
    let mut probe = Probe::default();

    if sharded {
        let build = || {
            let cluster = Cluster::new(ClusterSpec::pcie_node(DEVICES));
            let table = ShardedTable::partition_replicated_with_capacity(
                &cluster,
                &host,
                PartitionPolicy::Hash,
                ReplicationFactor(REPLICATION),
                cap,
            )
            .expect("the node has room for every replica");
            (cluster, table)
        };
        for rep in 0..SETUP_REPS {
            let views = register_views();
            setup_probes.push(probe.sample_ms());
            let t0 = Instant::now();
            let (cluster, table) = build();
            let built: Result<Vec<_>, _> = views
                .iter()
                .map(|v| v.refresh_sharded(&cluster, &table, config().max_retries))
                .collect();
            let server = ShardedServer::new(&cluster, &table, config());
            setup_raw.push(t0.elapsed().as_secs_f64());
            if rep + 1 < SETUP_REPS {
                continue;
            }
            let mut front = Sharded {
                cluster: &cluster,
                table: &table,
                server,
                retries: config().max_retries,
            };
            let setup_s = rescale(&setup_raw, &setup_probes);
            return serve(
                &mix, seed, windows, trace, &host, &batches, views, built, setup_s, &mut front,
            );
        }
    } else {
        for rep in 0..SETUP_REPS {
            let views = register_views();
            setup_probes.push(probe.sample_ms());
            let t0 = Instant::now();
            let dev = Device::titan_x();
            let table = GpuTweetTable::upload_with_capacity(&dev, &host, cap);
            let built: Result<Vec<_>, _> = views.iter().map(|v| v.refresh(&dev, &table)).collect();
            let server = Server::new(&dev, &table, config());
            setup_raw.push(t0.elapsed().as_secs_f64());
            if rep + 1 < SETUP_REPS {
                continue;
            }
            let mut front = Single {
                dev: &dev,
                table: &table,
                server,
            };
            let setup_s = rescale(&setup_raw, &setup_probes);
            return serve(
                &mix, seed, windows, trace, &host, &batches, views, built, setup_s, &mut front,
            );
        }
    }
    unreachable!("the last set-up serves")
}

/// The warm-up round and the timed rounds over a built stack.
#[allow(clippy::too_many_arguments)]
fn serve(
    mix: &Mix,
    seed: u64,
    windows: usize,
    trace: bool,
    host: &TweetTable,
    batches: &[TweetTable],
    views: Vec<TopKView>,
    built: Result<Vec<ViewRefresh>, QdbError>,
    setup_s: Vec<f64>,
    front: &mut dyn Front,
) -> Pass {
    let mut p = Pass::new(setup_s);
    let mut ck = Checker {
        mix,
        rows: host.clone(),
        memo: Memo::default(),
    };
    p.attempted += views.len() as u64;
    match built {
        Ok(_) => {
            for (v, view) in views.iter().enumerate() {
                ck.view(&mut p, v, &view.ids(), 0);
            }
        }
        Err(e) => p.fail(format!("first view build: {e}")),
    }

    let mut rng = Rng::new(seed);
    let warm = schedule(mix, 1, &mut rng);
    let rounds = schedule(mix, windows, &mut rng);
    let lose_at = if mix.sharded {
        rounds.len() / 2
    } else {
        usize::MAX
    };

    // warm-up: the first round of a throwaway window, untimed
    let mut ok = Vec::new();
    for &i in &warm[0] {
        p.attempted += 1;
        match front.submit(&mix.pool[i].0.sql()) {
            Ok(()) => ok.push(i),
            Err(e) => p.fail(format!("warm-up submit: {e}")),
        }
    }
    let d = front.drain();
    ck.reads(&mut p, &ok, &d, front.epoch());

    let mut tr = Tracer::new(trace);
    let mut probe = Probe::default();
    let mut drain_marks: Vec<(Marks, Marks)> = Vec::new();
    let mut drain_transfers: Vec<(usize, usize)> = Vec::new();
    let mut refresh_marks: Vec<(Marks, Marks)> = Vec::new();
    let mut append_transfers: Vec<(usize, usize)> = Vec::new();
    let mut refresh_sim_ms = Vec::new();
    let mut refresh_spans = Vec::new();
    let mut append_spans = Vec::new();
    let mut write_refresh_sim = Vec::new();
    let mut ingest_ms = Vec::new();
    let mut drain_spans = Vec::new();
    let mut rebuild_spans = Vec::new();
    let mut slowest_ms = Vec::new();
    let mut skew = Vec::new();
    let (mut hits, mut refreshes, mut misses) = (0usize, 0usize, 0usize);
    let (mut failovers, mut rebuilds, mut trips, mut skipped) = (0usize, 0usize, 0usize, 0usize);
    // per-device server reports, with the section of the drain they served
    let mut servers: Vec<(usize, ServerLayer)> = Vec::new();
    let views_before: Vec<_> = views.iter().map(TopKView::stats).collect();

    for (r, sent) in rounds.iter().enumerate() {
        let req = r as u64 + 1;
        // every window opens with its write: one append, then every
        // standing view brought current
        if r % APPEND_EVERY == 0 {
            let w = r / APPEND_EVERY;
            let batch = &batches[w];
            let wreq = WRITE_KEY | w as u64;
            let probe_ms = probe.sample_ms();
            let root = tr.begin("write", SpanId::NONE, wreq);
            let wall = Instant::now();
            let a0 = front.transfers_len();
            p.attempted += 1;
            let aspan = tr.begin("append_batch", root, wreq);
            let appended = front.append(batch);
            tr.end(aspan);
            let a1 = front.transfers_len();
            let mut refreshed = Vec::with_capacity(views.len());
            let rm0 = marks(front);
            for v in &views {
                p.attempted += 1;
                let s = tr.begin("refresh", root, wreq);
                refreshed.push(front.refresh(v));
                tr.end(s);
                refresh_spans.push(s);
            }
            let host_ms = wall.elapsed().as_secs_f64() * 1e3;
            tr.end(root);
            p.sections.push(Section {
                key: wreq,
                write: true,
                req: wreq,
                raw_ms: host_ms,
                probe_ms,
            });
            refresh_marks.push((rm0, marks(front)));
            append_spans.push(aspan);
            append_transfers.push((a0, a1));

            // outside the timed section: the oracle
            match appended {
                Ok((ingest, skip)) => {
                    ingest_ms.push(ingest);
                    skipped += skip;
                    ck.rows.extend_from(batch);
                }
                Err(e) => p.fail(format!("append: {e}")),
            }
            let epoch = front.epoch();
            let mut sim = 0.0;
            for (v, res) in refreshed.into_iter().enumerate() {
                match res {
                    Ok(vr) => {
                        sim += vr.kernel_time.millis();
                        if vr.mode != ViewMode::Current {
                            refresh_sim_ms.push(vr.kernel_time.millis());
                        }
                        ck.view(&mut p, v, &vr.ids, epoch);
                    }
                    Err(e) => p.fail(format!("refresh {}: {e}", VIEWS[v].sql())),
                }
            }
            write_refresh_sim.push(sim);
        }

        let m0 = marks(front);
        let t0 = front.transfers_len();
        let probe_ms = probe.sample_ms();
        let root = tr.begin("round", SpanId::NONE, req);
        let wall = Instant::now();
        let mut ok = Vec::with_capacity(sent.len());
        for &i in sent {
            p.attempted += 1;
            let sql = mix.pool[i].0.sql();
            match tr.scoped("submit", root, req, || front.submit(&sql)) {
                Ok(()) => ok.push(i),
                Err(e) => p.fail(format!("submit {sql}: {e}")),
            }
        }
        if r == lose_at {
            front.lose_device();
        }
        let dspan = tr.begin("drain", root, req);
        let d = front.drain();
        tr.end(dspan);
        let host_ms = wall.elapsed().as_secs_f64() * 1e3;
        tr.end(root);
        p.sections.push(Section {
            key: req,
            write: false,
            req,
            raw_ms: host_ms,
            probe_ms,
        });
        drain_marks.push((m0, marks(front)));
        drain_transfers.push((t0, front.transfers_len()));
        drain_spans.push(dspan);
        if d.rebuilds > 0 {
            rebuild_spans.push(dspan);
        }

        // outside the timed section: bookkeeping and the oracle
        p.reads += d.reads.len();
        p.sim_read_ms.extend(d.reads.iter().map(|s| s.sim_ms));
        p.sim_read_total_s += d.makespan_ms / 1e3;
        hits += d.hits;
        refreshes += d.refreshes;
        misses += d.misses;
        failovers += d.failovers;
        rebuilds += d.rebuilds;
        trips += d.breaker_trips;
        let live: Vec<f64> = d
            .servers
            .iter()
            .map(|s| s.makespan_ms)
            .filter(|&m| m > 0.0)
            .collect();
        if !live.is_empty() {
            let max = live.iter().copied().fold(0.0, f64::max);
            slowest_ms.push(max);
            skew.push(max / (live.iter().sum::<f64>() / live.len() as f64));
        }
        ck.reads(&mut p, &ok, &d, front.epoch());
        let section = p.sections.len() - 1;
        servers.extend(d.servers.into_iter().map(|s| (section, s)));
    }
    p.peak_rss_mib = peak_rss_mib();
    p.rescale_spans(&mut tr);
    let span_ms = |ids: &[SpanId]| -> Vec<f64> { ids.iter().map(|&s| tr.dur_ms(s)).collect() };
    let refresh_host_ms = span_ms(&refresh_spans);
    let append_host_ms = span_ms(&append_spans);
    let drain_ms = span_ms(&drain_spans);
    let rebuild_drain_ms = span_ms(&rebuild_spans);

    // --- after the run: read the program's logs once ---
    let logs: Vec<Vec<simt::LaunchReport>> =
        front.devices().iter().map(|d| d.launch_log()).collect();
    let transfers = front.transfers();
    let mut c = SimCounters::default();
    for (a, b) in &drain_marks {
        c.add_window(&window(&logs, a, b));
    }
    let refresh_mb: Vec<f64> = refresh_marks
        .iter()
        .map(|(a, b)| window(&logs, a, b).stats.global_bytes() as f64 / 1e6 / views.len() as f64)
        .collect();
    for &(a, b) in &drain_transfers {
        for t in &transfers[a..b] {
            c.link_bytes += t.bytes as f64;
            c.link_ms += t
                .legs
                .iter()
                .map(|l| (l.end.0 - l.start.0) * 1e3)
                .sum::<f64>();
        }
    }
    let append_link: Vec<f64> = append_transfers
        .iter()
        .map(|&(a, b)| link_span_ms(&transfers[a..b]))
        .collect();
    p.sim_write_ms = write_refresh_sim
        .iter()
        .zip(ingest_ms.iter().zip(&append_link))
        .map(|(r, (i, l))| r + i + l)
        .collect();
    // the drains' launches are the ones counted, so only drains' host time
    c.kernel_host_ms = drain_ms.iter().sum();
    c.ingest_ms = ingest_ms.iter().sum();
    c.writes = ingest_ms.len();
    c.retained_launches = logs.iter().map(Vec::len).sum();
    c.retained_transfers = transfers.len();
    c.device_highwater_bytes = front.devices().iter().map(|d| d.memory_highwater()).sum();

    let speed = p.speed_factors();
    let l = &mut p.layers;
    c.emit(l, p.reads);
    let reads = p.reads as f64;
    // the front the benchmark calls: the server, or the sharded server
    // (whose per-device servers report their own drain times)
    let front_layer = if mix.sharded {
        "qdb.shard"
    } else {
        "qdb.server"
    };
    l.push(
        format!("{front_layer}.submit_us_p50"),
        median(&tr.durations_ms("submit")) * 1e3,
        "us",
    );
    l.push(
        format!("{front_layer}.drain_host_ms_p50"),
        median(&drain_ms),
        "ms",
    );
    if mix.sharded {
        let per_server: Vec<f64> = servers.iter().map(|(i, s)| s.host_ms * speed[*i]).collect();
        l.push("qdb.server.drain_host_ms_p50", median(&per_server), "ms");
    }
    let servers: Vec<&ServerLayer> = servers.iter().map(|(_, s)| s).collect();
    l.push("qdb.server.cache_hit_frac", ratio(hits as f64, reads), "1");
    l.push(
        "qdb.server.cache_refresh_frac",
        ratio(refreshes as f64, reads),
        "1",
    );
    l.push(
        "qdb.server.cache_miss_frac",
        ratio(misses as f64, reads),
        "1",
    );
    let device_reads: usize = servers.iter().map(|s| s.device_reads).sum();
    let coalesced: usize = servers.iter().map(|s| s.coalesced).sum();
    l.push(
        "qdb.server.coalesced_frac",
        ratio(coalesced as f64, device_reads as f64),
        "1",
    );
    l.push(
        "qdb.server.overlap_speedup",
        ratio(
            servers.iter().map(|s| s.serial_ms).sum(),
            servers.iter().map(|s| s.makespan_ms).sum(),
        ),
        "1",
    );
    let queued: Vec<f64> = servers.iter().flat_map(|s| s.queued_ms.clone()).collect();
    let exec: Vec<f64> = servers.iter().flat_map(|s| s.exec_ms.clone()).collect();
    l.push("qdb.server.queue_wait_p50_ms", median(&queued), "ms");
    l.push("qdb.server.exec_p50_ms", median(&exec), "ms");
    l.push(
        "qdb.stream.append_host_ms_p50",
        median(&append_host_ms),
        "ms",
    );
    l.push(
        "qdb.stream.refresh_host_ms_p50",
        median(&refresh_host_ms),
        "ms",
    );
    l.push(
        "qdb.stream.refresh_sim_ms_p50",
        median(&refresh_sim_ms),
        "ms",
    );
    l.push("qdb.stream.refresh_mb_p50", median(&refresh_mb), "MB");
    let mut merges = 0usize;
    let mut rescans = 0usize;
    for (v, before) in views.iter().zip(&views_before) {
        let s = v.stats();
        merges += s.delta_merges - before.delta_merges;
        rescans += s.rescans - before.rescans;
    }
    let maint = (merges + rescans) as f64;
    l.push(
        "qdb.stream.delta_merge_frac",
        ratio(merges as f64, maint),
        "1",
    );
    l.push("qdb.stream.rescan_frac", ratio(rescans as f64, maint), "1");
    if mix.sharded {
        l.push(
            "qdb.shard.rebuild_drain_host_ms",
            median(&rebuild_drain_ms),
            "ms",
        );
        l.push("qdb.shard.slowest_shard_ms_p50", median(&slowest_ms), "ms");
        l.push("qdb.shard.shard_skew", median(&skew), "1");
        l.push("qdb.shard.failovers", failovers as f64, "count");
        l.push("qdb.shard.rebuilds", rebuilds as f64, "count");
        l.push("qdb.shard.breaker_trips", trips as f64, "count");
        l.push("qdb.shard.skipped_replicas", skipped as f64, "count");
        l.push("qdb.shard.append_link_ms_p50", median(&append_link), "ms");
    }
    p.classes.push(format!(
        "cache hit/refresh/miss {hits}/{refreshes}/{misses} of {} reads",
        p.reads
    ));
    p.classes
        .push(format!("view delta-merge/rescan {merges}/{rescans}"));
    if mix.sharded {
        p.classes.push(format!(
            "failovers {failovers}, rebuilds {rebuilds}, breaker trips {trips}, skipped replicas {skipped}"
        ));
    }
    p.tracer = tr;
    p
}
