//! Concurrent query serving: a batching scheduler over simt streams,
//! hardened against device faults.
//!
//! The paper's integration argument (Section 5) is that top-k belongs
//! *inside* the database as a physical operator. A real database does not
//! run one query at a time, though — it serves a queue of concurrent
//! queries, and a single small top-k query comes nowhere near filling the
//! device (a `k = 50` query over a few tens of thousands of rows runs a
//! handful of one- and few-block kernels). This module closes that gap
//! with the two classic GPU serving tricks:
//!
//! * **streams** — each admitted query issues its kernels on its own simt
//!   stream, so independent queries overlap on the device timeline and
//!   small kernels fill SMs that one query would leave idle;
//! * **batch coalescing** — compatible small queries (plain
//!   `ORDER BY retweet_count DESC` shapes) have their filter outputs
//!   packed into one `rows × cols` matrix and their ORDER BY/LIMIT stages
//!   replaced by a *single* [`batched_bitonic_topk`] launch, one block
//!   per query, amortizing launch overhead across the whole batch.
//!
//! # One core, two faces
//!
//! Both servers are built from the same two crate-private parts:
//!
//! * the admission **front**: the queue bound and shedding, parse and
//!   validation, [`QueryTicket`]s, the epoch-tagged result cache, and the
//!   shed and cache counts of the ledger;
//! * the device **lane**: one device-resident table's [`STREAMS`]
//!   streams, coalescing, retries with backoff, the degradation ladder,
//!   the ECC audit and the drain's [`LoadReport`].
//!
//! [`Server`] is a front plus one lane. [`crate::ShardedServer`] is a
//! front plus one lane per (shard, replica), with routing, the breaker,
//! failover, rebuild and the delegate gather on top. Both count their
//! outcomes into [`ResilienceStats`] through the same tally.
//!
//! Every lane serves every query with [`DEFAULT_STRATEGY`]; a submission
//! chooses only its deadline ([`SubmitOptions`]). A statement therefore
//! has one answer per table epoch, which is what the result cache, keyed
//! by SQL text, stores.
//!
//! # Result cache
//!
//! A cached answer is a standing result, like a [`crate::TopKView`]'s.
//! An append makes every entry stale. On the single-device [`Server`] a
//! stale entry whose runs merge ([`Shape::runs_merge`]) is brought
//! current the way a view refresh does it, by the same crossover rule
//! and the same device delta step (`qdb::stream`): the lane scans only
//! the rows appended since the entry was computed and run-merges their
//! top-k into the stored ids, on the query's stream, under the retries,
//! the deadline, the ladder and the audit below. GROUP BY entries,
//! deltas past the crossover and every stale entry of a
//! [`crate::ShardedServer`] re-execute.
//!
//! # Resilience
//!
//! The serving path never panics; every failure is a typed
//! [`QdbError`]. Against a faulty device (see [`simt::fault`]) the
//! server:
//!
//! * **sheds** — the submit queue is bounded
//!   ([`ServerConfig::max_queue`]); beyond it, [`Server::submit`] returns
//!   [`QdbError::Overloaded`] instead of growing without bound;
//! * **retries** — faults classified transient (injected launch
//!   failures, allocation pressure) are retried up to
//!   [`ServerConfig::max_retries`] times through qdb's one retry helper,
//!   which every sharded scan, merge and transfer uses too; the lane adds
//!   only its exponential backoff ([`BACKOFF_BASE`] · 2^attempt, charged
//!   as simulated time against the query's deadline) and the deadline
//!   check;
//! * **cancels** — a query submitted with a deadline
//!   ([`SubmitOptions::with_deadline`]) is cancelled with
//!   [`QdbError::Timeout`] once its accumulated simulated time (kernel
//!   time plus backoff penalties) exceeds it;
//! * **degrades** — when retries are exhausted a query falls down a
//!   ladder: the batched/streamed bitonic path first re-runs as serial
//!   `StageBitonic` on the default stream, and ultimately on the CPU
//!   engine on one thread, which cannot fault. The rung a query ended
//!   on is reported in [`ServedQuery::degrade`] and aggregated in
//!   [`LoadReport::resilience`];
//! * **audits** — serving-layer intermediate buffers are tagged for
//!   ECC-corruption injection ([`simt::GpuBuffer::tag_ecc`]); after the
//!   device work completes, any query whose buffers show up in the fault
//!   log is transparently re-executed from the pristine resident table
//!   over untagged buffers, so a completed query's result always equals
//!   the fault-free oracle.
//!
//! [`Server::submit`] parses and admits a SQL query; [`Server::drain`]
//! executes everything admitted since the last drain and returns a
//! [`LoadReport`] with per-query results, queue/execution/total latency
//! per query, percentile summaries, achieved queries/sec, resilience
//! counters, and a multi-stream chrome trace of the whole drain.

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};

use datagen::{Kv, TopKItem};
use simt::{
    chrome_trace_streams, AccessSpec, BlockCtx, BufferDecl, BulkAccess, Device, GpuBuffer, Kernel,
    LaunchReport, SimTime, Stream, StreamId, StreamSchedule,
};
use sortnet::next_pow2;
use topk::batched::{batched_bitonic_topk, max_single_launch_row};

use crate::cpu_engine::execute_cpu;
use crate::engine::{run_topk_stage, FilterKernel, FilterOp, TopKStrategy};
use crate::error::{retry, QdbError};
use crate::queries::{QueryResult, Strategy};
use crate::sql::{execute, parse, Query, Shape};
use crate::stream::{delta_merge, maintenance_mode, ViewConfig, ViewMode};
use crate::table::GpuTweetTable;

/// Number of device streams a lane's queries round-robin onto.
pub const STREAMS: usize = 8;

/// Maximum queries folded into one batched launch.
pub const MAX_BATCH: usize = 64;

/// The strategy every lane serves queries with.
pub const DEFAULT_STRATEGY: Strategy = Strategy::StageBitonic;

/// First retry's backoff; doubles every subsequent retry. Charged as
/// simulated time against the query's deadline.
pub const BACKOFF_BASE: SimTime = SimTime(50e-6);

/// Serving-layer knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Coalesce compatible small queries into one batched launch.
    pub coalesce: bool,
    /// Admission bound: submissions beyond this many pending queries are
    /// shed with [`QdbError::Overloaded`].
    pub max_queue: usize,
    /// Deadline applied to queries submitted without an explicit one
    /// (`None` = no deadline).
    pub default_deadline: Option<SimTime>,
    /// Transient-fault retries per degradation rung before falling to
    /// the next rung.
    pub max_retries: usize,
    /// Serve repeated identical SQL from an epoch-tagged result cache:
    /// a hit returns the stored ids with zero device work. Any append
    /// bumps the table epoch and makes every entry stale; a
    /// single-device [`Server`] brings a stale entry current with the
    /// views' delta step (only the appended rows are scanned) while the
    /// query's runs merge and the delta is within the views' crossover,
    /// and re-executes it otherwise. Off by default so existing replay
    /// workloads keep their exact launch sequences.
    pub result_cache: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            coalesce: true,
            max_queue: 256,
            default_deadline: None,
            max_retries: 2,
            result_cache: false,
        }
    }
}

/// Per-query submission options for [`Server::submit`], builder-style.
///
/// The default value takes [`ServerConfig::default_deadline`]; a query
/// can set its own:
///
/// ```
/// # use qdb::SubmitOptions;
/// # use simt::SimTime;
/// let opts = SubmitOptions::default().with_deadline(SimTime(5e-3));
/// assert_eq!(opts.deadline, Some(SimTime(5e-3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SubmitOptions {
    /// Per-query deadline; `None` uses [`ServerConfig::default_deadline`].
    pub deadline: Option<SimTime>,
}

impl SubmitOptions {
    /// Sets a per-query deadline: the query is cancelled with
    /// [`QdbError::Timeout`] once its simulated execution time exceeds
    /// it.
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Handle for a submitted query, from either server; indexes into the
/// drain's results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryTicket(pub usize);

/// Per-query latency breakdown on the drain's shared timeline
/// (times are relative to the start of the drain).
#[derive(Debug, Clone, Copy)]
pub struct QueryTiming {
    /// Time the query spent queued before its first kernel started.
    pub queued: SimTime,
    /// Time from its first kernel's start to its last kernel's end,
    /// including any retry-backoff penalty.
    pub exec: SimTime,
    /// End-to-end latency: when its last kernel finished (plus backoff
    /// penalty).
    pub total: SimTime,
}

/// How far down the degradation ladder a query ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// Served by the normal batched/streamed path.
    None,
    /// Fell back to serial `StageBitonic` on the default stream.
    SerialBitonic,
    /// Fell back to the CPU engine on one thread (cannot fault).
    CpuHeap,
}

impl DegradeLevel {
    /// Stable name for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            DegradeLevel::None => "none",
            DegradeLevel::SerialBitonic => "serial-bitonic",
            DegradeLevel::CpuHeap => "cpu-heap",
        }
    }
}

/// One query's outcome from a drain.
#[derive(Debug, Clone)]
pub struct ServedQuery {
    /// The ticket [`Server::submit`] returned for it (in a sharded
    /// drain's shard reports, the one [`crate::ShardedServer::submit`]
    /// returned).
    pub ticket: QueryTicket,
    /// The original SQL text.
    pub sql: String,
    /// Result ids and solo kernel-time breakdown. Empty when
    /// [`ServedQuery::error`] is set.
    pub result: QueryResult,
    /// Latency on the shared timeline. For coalesced queries the shared
    /// pack/batch launches count fully towards every member — latency is
    /// about when *this* query's answer was ready.
    pub timing: QueryTiming,
    /// True when the query's ORDER BY/LIMIT ran inside a shared batched
    /// launch instead of its own pipeline.
    pub coalesced: bool,
    /// Why the query did not complete (`None` = completed).
    pub error: Option<QdbError>,
    /// Transient-fault retries this query consumed.
    pub retries: usize,
    /// The degradation rung the query's final answer came from.
    pub degrade: DegradeLevel,
    /// True when the answer came from the epoch-tagged result cache
    /// (zero device work; the stored ids were computed at the same
    /// table epoch, so they are bit-identical to a re-execution).
    pub cached: bool,
}

impl ServedQuery {
    /// True when the query produced a result (no typed error).
    pub fn completed(&self) -> bool {
        self.error.is_none()
    }
}

/// Resilience counters for one drain (plus submissions shed since the
/// previous drain).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Queries that produced a result.
    pub completed: usize,
    /// Submissions shed by admission control since the last drain.
    pub shed: usize,
    /// Queries cancelled on their deadline.
    pub timed_out: usize,
    /// Queries that failed with any other typed error.
    pub failed: usize,
    /// Transient-fault retries across all queries (batch retries
    /// included).
    pub retries: usize,
    /// Queries that fell back to serial `StageBitonic`.
    pub degraded_serial: usize,
    /// Queries that fell all the way to the CPU engine.
    pub degraded_cpu: usize,
    /// Faults the device injected during the drain.
    pub faults_injected: usize,
    /// Per-shard executions served by a non-primary replica after the
    /// routed device failed (sharded serving only; always 0 on a
    /// single-device [`Server`]).
    pub failovers: usize,
    /// Lost partitions re-materialized onto a surviving device (sharded
    /// serving only).
    pub rebuilds: usize,
    /// Circuit-breaker transitions to the open state (sharded serving
    /// only).
    pub breaker_trips: usize,
    /// Queries served from the epoch-tagged result cache (zero device
    /// work). Only counted when [`ServerConfig::result_cache`] is on.
    pub cache_hits: usize,
    /// Cache lookups that found no entry for the SQL text.
    pub cache_misses: usize,
    /// Cache lookups that found an entry made stale by an append (the
    /// stored epoch no longer matches the table's). The query comes back
    /// current and replaces the entry: on a single-device [`Server`] by
    /// folding the appended rows into the stored ids when the views'
    /// crossover allows it, otherwise by re-executing.
    pub cache_refreshes: usize,
}

impl ResilienceStats {
    /// One-line summary for logs and examples.
    pub fn render(&self) -> String {
        let mut line = format!(
            "completed {} | shed {} | timed-out {} | failed {} | retries {} | degraded serial {} / cpu {} | faults {}",
            self.completed,
            self.shed,
            self.timed_out,
            self.failed,
            self.retries,
            self.degraded_serial,
            self.degraded_cpu,
            self.faults_injected
        );
        // replication counters only appear where replication exists, so
        // single-device renders stay byte-identical to previous releases
        if self.failovers + self.rebuilds + self.breaker_trips > 0 {
            line.push_str(&format!(
                " | failovers {} | rebuilds {} | breaker trips {}",
                self.failovers, self.rebuilds, self.breaker_trips
            ));
        }
        // cache counters only appear where the result cache is on, so
        // cache-less renders stay byte-identical to previous releases
        if self.cache_hits + self.cache_misses + self.cache_refreshes > 0 {
            line.push_str(&format!(
                " | cache hits {} / misses {} / refreshes {}",
                self.cache_hits, self.cache_misses, self.cache_refreshes
            ));
        }
        line
    }

    /// Counts one query's outcome: completed, timed out or failed, and
    /// the rung its answer came from. Both servers tally through here.
    pub(crate) fn tally(&mut self, error: Option<&QdbError>, degrade: DegradeLevel) {
        match error {
            None => self.completed += 1,
            Some(QdbError::Timeout { .. }) => self.timed_out += 1,
            Some(_) => self.failed += 1,
        }
        match degrade {
            DegradeLevel::None => {}
            DegradeLevel::SerialBitonic => self.degraded_serial += 1,
            DegradeLevel::CpuHeap => self.degraded_cpu += 1,
        }
    }
}

/// Everything one lane's drain produced: a [`Server::drain`], or one
/// of a sharded drain's [`crate::ShardedLoadReport::shard_reports`].
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Per-query outcomes, in submission order.
    pub queries: Vec<ServedQuery>,
    /// Completion time of the whole drain on the shared timeline.
    pub makespan: SimTime,
    /// What the same kernels would take back-to-back on one stream.
    pub serial_time: SimTime,
    /// Achieved throughput: completed queries divided by makespan.
    pub queries_per_sec: f64,
    /// Median end-to-end latency over completed queries.
    pub p50: SimTime,
    /// 95th-percentile end-to-end latency over completed queries.
    pub p95: SimTime,
    /// 99th-percentile end-to-end latency over completed queries.
    pub p99: SimTime,
    /// Retry/shed/degradation counters for the drain.
    pub resilience: ResilienceStats,
    /// The drain's launches placed on the shared device timeline.
    pub schedule: StreamSchedule,
    /// Host wall-clock time the drain took — the simulator executes
    /// kernels functionally on the host, so this measures harness cost,
    /// not modeled device time (that is [`LoadReport::makespan`]).
    pub host_wall: std::time::Duration,
    /// The drain's window of the device launch log; `log[0]` sits at
    /// absolute log position `window`.
    log: Vec<LaunchReport>,
    window: usize,
    /// [`LoadReport::chrome_trace`], rendered on its first call.
    trace: OnceCell<String>,
}

impl LoadReport {
    /// `serial_time / makespan` — the throughput multiplier the streams
    /// plus coalescing bought over one-at-a-time execution.
    pub fn speedup(&self) -> f64 {
        self.schedule.speedup()
    }

    /// Chrome `chrome://tracing` JSON of the drain, one track per stream,
    /// rendered from the drain's own log window on the first call.
    pub fn chrome_trace(&self) -> &str {
        self.trace.get_or_init(|| {
            // the schedule's indices are absolute log positions, so they
            // are rebased onto the window
            let mut windowed = self.schedule.clone();
            for l in &mut windowed.launches {
                l.index -= self.window;
            }
            chrome_trace_streams(&windowed, &self.log)
        })
    }

    /// Host-side throughput: queries divided by [`LoadReport::host_wall`]
    /// (0 when the drain was too fast to measure).
    pub fn host_queries_per_sec(&self) -> f64 {
        let secs = self.host_wall.as_secs_f64();
        if secs > 0.0 {
            self.queries.len() as f64 / secs
        } else {
            0.0
        }
    }
}

/// Packs each query's filtered candidate buffer into one row of a
/// `rows × cols` matrix (padded with MIN sentinels) so a single
/// [`batched_bitonic_topk`] launch can serve the whole batch.
struct PackKernel {
    sources: Vec<(GpuBuffer<Kv<u32>>, usize)>,
    out: GpuBuffer<Kv<u32>>,
    cols: usize,
}

impl Kernel for PackKernel {
    fn name(&self) -> &'static str {
        "qdb_pack_batch"
    }
    fn block_dim(&self) -> usize {
        256
    }
    fn grid_dim(&self) -> usize {
        self.sources.len()
    }
    fn access_spec(&self) -> Option<AccessSpec> {
        let mut bulk: Vec<BulkAccess> = self
            .sources
            .iter()
            .map(|(src, m)| BulkAccess {
                buf: BufferDecl::of("source", src),
                elems: *m,
                write: false,
            })
            .collect();
        bulk.push(BulkAccess {
            buf: BufferDecl::of("out", &self.out),
            elems: self.sources.len() * self.cols,
            write: true,
        });
        Some(AccessSpec::bulk("pack", bulk))
    }
    fn run_block(&self, blk: &mut BlockCtx) {
        let row = blk.block_idx;
        let (src, m) = &self.sources[row];
        self.out
            .write_range(row * self.cols, &src.host_view()[..*m]);
        let bytes = (*m * Kv::<u32>::SIZE_BYTES) as u64;
        blk.bulk_global_read(bytes);
        blk.bulk_global_write(bytes);
        blk.bulk_ops(*m as u64);
    }
}

/// What the result cache handed a pending query at admission.
pub(crate) enum Cached {
    /// The stored ids, computed at the table's current epoch: the lane
    /// serves them without touching the device.
    Hit(Vec<u32>),
    /// A stale entry the delta step brings current: `ids` is the
    /// query's answer over the table's first `rows` rows.
    Stale { ids: Vec<u32>, rows: usize },
}

/// A query the front admitted and a lane has yet to drain.
pub(crate) struct Pending {
    pub(crate) ticket: QueryTicket,
    pub(crate) sql: String,
    pub(crate) query: Query,
    pub(crate) deadline: Option<SimTime>,
    pub(crate) cached: Option<Cached>,
}

/// One result-cache entry: a query's ids over the table's first `rows`
/// rows, computed at table epoch `epoch`.
struct Entry {
    epoch: u64,
    rows: usize,
    ids: Vec<u32>,
}

/// The admission front both servers share: the queue bound and
/// shedding, parse and validation, tickets, and the epoch-tagged result
/// cache, SQL text → [`Entry`]. An entry is current exactly while the
/// table is still at its epoch, so one append makes every entry stale.
/// Each lookup is classified at admission as a hit, a refresh (stale
/// entry) or a miss; a cache that is off ([`ServerConfig::result_cache`])
/// classifies and stores nothing. A stale entry rides to a
/// single-device lane as [`Cached::Stale`] when the query's runs merge
/// and the views' crossover rule ([`maintenance_mode`], at
/// [`ViewConfig::default`]'s fraction) picks a delta merge; every other
/// refresh re-executes.
#[derive(Default)]
pub(crate) struct Front {
    cfg: ServerConfig,
    /// Queries admitted since the last drain, in ticket order.
    pub(crate) pending: Vec<Pending>,
    next_ticket: usize,
    cache: HashMap<String, Entry>,
    /// Shed and cache-lookup counts since the last drain.
    counts: ResilienceStats,
}

impl Front {
    pub(crate) fn new(cfg: ServerConfig) -> Self {
        Front {
            cfg,
            ..Front::default()
        }
    }

    /// Admits one SQL query against a table of `rows` rows at `epoch`:
    /// the queue bound first, then parse (`sharded` also refuses a shape
    /// whose per-shard runs do not merge), the LIMIT, the deadline, and
    /// last the cache lookup. A sharded stale entry always re-executes.
    /// Nothing is queued on error.
    pub(crate) fn admit(
        &mut self,
        sql: &str,
        opts: SubmitOptions,
        rows: usize,
        epoch: u64,
        sharded: bool,
    ) -> Result<&Pending, QdbError> {
        let max_queue = self.cfg.max_queue;
        if self.pending.len() >= max_queue {
            self.counts.shed += 1;
            return Err(QdbError::Overloaded {
                queue_len: self.pending.len(),
                max_queue,
            });
        }
        let query = parse(sql)?;
        if sharded {
            query.shape.runs_merge()?;
        }
        query.check_limit(rows)?;
        let deadline = opts.deadline.or(self.cfg.default_deadline);
        if let Some(d) = deadline.filter(|d| d.0 <= 0.0) {
            return Err(QdbError::DeadlineExpired { deadline: d });
        }
        let cached = match self.cache.get(sql) {
            _ if !self.cfg.result_cache => None,
            Some(e) if e.epoch == epoch => {
                self.counts.cache_hits += 1;
                Some(Cached::Hit(e.ids.clone()))
            }
            Some(e) => {
                self.counts.cache_refreshes += 1;
                let fraction = ViewConfig::default().refresh_fraction;
                let merges = !sharded
                    && query.shape.runs_merge().is_ok()
                    && maintenance_mode((e.rows, e.epoch), (rows, epoch), fraction)
                        == ViewMode::DeltaMerge;
                merges.then(|| Cached::Stale {
                    ids: e.ids.clone(),
                    rows: e.rows,
                })
            }
            None => {
                self.counts.cache_misses += 1;
                None
            }
        };
        self.pending.push(Pending {
            ticket: QueryTicket(self.next_ticket),
            sql: sql.to_string(),
            query,
            deadline,
            cached,
        });
        self.next_ticket += 1;
        Ok(&self.pending[self.pending.len() - 1])
    }

    /// Closes a drain: caches every fresh `(sql, ids)` answer as the
    /// query's answer over a table of `rows` rows at `epoch` (the next
    /// append makes them all stale at once) and moves the shed and
    /// cache-lookup counts since the last drain into `ledger`.
    pub(crate) fn settle<'q>(
        &mut self,
        epoch: u64,
        rows: usize,
        fresh: impl Iterator<Item = (&'q str, &'q [u32])>,
        ledger: &mut ResilienceStats,
    ) {
        if self.cfg.result_cache {
            for (sql, ids) in fresh {
                let ids = ids.to_vec();
                self.cache
                    .insert(sql.to_string(), Entry { epoch, rows, ids });
            }
        }
        let counts = std::mem::take(&mut self.counts);
        ledger.shed = counts.shed;
        ledger.cache_hits = counts.cache_hits;
        ledger.cache_misses = counts.cache_misses;
        ledger.cache_refreshes = counts.cache_refreshes;
    }
}

/// What a pending query turned into while draining.
struct Executed {
    p: Pending,
    /// The answer so far (a cache hit's stored ids from the start).
    ids: Vec<u32>,
    /// Absolute launch-log indices of this query's own kernels.
    own: Vec<usize>,
    /// Absolute indices of shared (batch) kernels it rode along in.
    shared: Vec<usize>,
    coalesced: bool,
    error: Option<QdbError>,
    retries: usize,
    degrade: DegradeLevel,
    /// True when the ids came from the result cache.
    from_cache: bool,
    /// Accumulated backoff penalty, added to the query's latency.
    penalty: SimTime,
    /// Simulated time charged against the deadline so far.
    spent: SimTime,
    /// ECC tags of the buffers this query's device result depended on.
    labels: Vec<String>,
}

impl Executed {
    fn new(p: Pending) -> Self {
        Executed {
            p,
            from_cache: false,
            ids: Vec::new(),
            own: Vec::new(),
            shared: Vec::new(),
            coalesced: false,
            error: None,
            retries: 0,
            degrade: DegradeLevel::None,
            penalty: SimTime::ZERO,
            spent: SimTime::ZERO,
            labels: Vec::new(),
        }
    }
}

/// One device lane: a device-resident table, its [`STREAMS`] streams,
/// coalescing, retries with backoff, the degradation ladder and the ECC
/// audit. A drain serves one list of admitted queries in order — a
/// query's position in the list picks its stream — and reports it as
/// one [`LoadReport`].
pub(crate) struct Lane<'a> {
    dev: &'a Device,
    table: &'a GpuTweetTable,
    coalesce: bool,
    max_retries: usize,
    streams: Vec<Stream>,
}

impl<'a> Lane<'a> {
    pub(crate) fn new(dev: &'a Device, table: &'a GpuTweetTable, cfg: &ServerConfig) -> Self {
        Lane {
            dev,
            table,
            coalesce: cfg.coalesce,
            max_retries: cfg.max_retries,
            streams: (0..STREAMS).map(|_| dev.create_stream()).collect(),
        }
    }

    /// The stream of the query at drain position `slot`.
    fn stream(&self, slot: usize) -> &Stream {
        &self.streams[slot % STREAMS]
    }

    /// The filter of a query that can fold into a shared batched launch:
    /// a plain descending `retweet_count` top-k (the batched kernel
    /// computes exactly that shape). `None` for every other query.
    fn coalescable(&self, e: &Executed) -> Option<FilterOp> {
        if !self.coalesce {
            return None;
        }
        match &e.p.query.shape {
            Shape::Top(f) => Some(FilterOp::or_every_row(f).clone()),
            Shape::Bottom(_) | Shape::Ranked | Shape::GroupCount => None,
        }
    }

    /// Runs `f` under the one retry helper, adding the lane's policy:
    /// each retry's exponential backoff is charged to `penalty`, kernel
    /// time and backoff to `spent`, and an attempt that would start past
    /// the deadline cancels the query.
    fn with_retries<T>(
        &self,
        deadline: Option<SimTime>,
        spent: &mut SimTime,
        retries: &mut usize,
        penalty: &mut SimTime,
        mut f: impl FnMut() -> Result<T, QdbError>,
    ) -> Result<T, QdbError> {
        retry(self.max_retries, retries, |n| {
            if n > 0 {
                let backoff = SimTime(BACKOFF_BASE.0 * (1u64 << (n - 1).min(20)) as f64);
                *penalty += backoff;
                *spent += backoff;
            }
            if let Some(d) = deadline.filter(|d| spent.0 >= d.0) {
                return Err(QdbError::Timeout {
                    deadline: d,
                    spent: *spent,
                });
            }
            let log0 = self.dev.log_len();
            let r = f();
            *spent += self.dev.window_since(log0).time;
            r
        })
    }

    /// One rung for `e`: runs `f` over its query with the retry policy
    /// and charges the launches to it. `None` when the rung is defeated;
    /// a timeout is final and lands in `e.error`.
    fn attempt<T>(
        &self,
        e: &mut Executed,
        mut f: impl FnMut(&Query) -> Result<T, QdbError>,
    ) -> Option<T> {
        let before = self.dev.log_len();
        let (q, deadline) = (&e.p.query, e.p.deadline);
        let r = self.with_retries(
            deadline,
            &mut e.spent,
            &mut e.retries,
            &mut e.penalty,
            || f(q),
        );
        e.own.extend(before..self.dev.log_len());
        match r {
            Ok(v) => Some(v),
            Err(err @ QdbError::Timeout { .. }) => {
                e.error = Some(err);
                None
            }
            Err(_) => None,
        }
    }

    /// Runs one query down the degradation ladder from rung `from`:
    /// [`DEFAULT_STRATEGY`] on `stream`, then serial `StageBitonic` on
    /// the default stream, then the CPU engine on one thread over the
    /// resident columns in place, which cannot fault. Only a
    /// [`QdbError::Timeout`] ends the descent early.
    fn run_ladder(&self, e: &mut Executed, stream: Option<StreamId>, from: DegradeLevel) {
        let (dev, table) = (self.dev, self.table);
        for rung in [DegradeLevel::None, DegradeLevel::SerialBitonic] {
            if rung < from {
                continue;
            }
            e.degrade = rung;
            let (strategy, stream) = match rung {
                DegradeLevel::None => (DEFAULT_STRATEGY, stream),
                _ => (Strategy::StageBitonic, None),
            };
            let run = |q: &Query| match stream {
                Some(id) => dev.stream_scope(id, || execute(dev, table, q, strategy)),
                None => execute(dev, table, q, strategy),
            };
            if let Some(res) = self.attempt(e, run) {
                e.ids = res.ids;
                return;
            }
            if e.error.is_some() {
                return;
            }
        }
        e.degrade = DegradeLevel::CpuHeap;
        match execute_cpu(table, &e.p.query, Strategy::StageBitonic, 1) {
            Ok(out) => e.ids = out.ids,
            Err(err) => e.error = Some(err),
        }
    }

    /// Executes `list` and returns its load report.
    ///
    /// A stale cache entry runs the delta step ([`delta_merge`]) on its
    /// round-robin stream. Coalescable queries run their filters
    /// concurrently (round-robin over the lane's streams), then share one
    /// pack + one batched top-k launch per [`MAX_BATCH`] chunk; everything
    /// else runs its normal pipeline on its round-robin stream. A cache
    /// hit keeps its position, so it still counts in the round-robin.
    /// Faults are retried/degraded per the module docs; with no fault
    /// plan the drain's launch sequence is identical to a fault-unaware
    /// one.
    pub(crate) fn drain(&self, list: Vec<Pending>) -> LoadReport {
        let wall_start = std::time::Instant::now();
        let (dev, table) = (self.dev, self.table);
        let window = dev.log_len();
        let fault_start = dev.fault_events_len();
        let mut batch_retries = 0usize;

        let mut executed: Vec<Executed> = Vec::with_capacity(list.len());
        // coalescable queries whose filter already ran: (candidates,
        // matched count, executed slot)
        let mut filtered: Vec<(GpuBuffer<Kv<u32>>, usize, usize)> = Vec::new();

        for (i, p) in list.into_iter().enumerate() {
            let mut e = Executed::new(p);
            let stream_id = self.stream(i).id();
            let cached = e.p.cached.take();
            if let Some(Cached::Hit(ids)) = cached {
                // resolved at admission from the epoch-tagged cache:
                // zero launches, zero simulated latency
                e.ids = ids;
                e.from_cache = true;
            } else if let Some(Cached::Stale { ids, rows }) = cached {
                self.fold_delta(&mut e, stream_id, ids, rows);
            } else if let Some(op) = self.coalescable(&e) {
                let label = format!("qdb:candidates:t{}", e.p.ticket.0);
                let r = self.attempt(&mut e, |_| {
                    let out = dev.try_alloc::<Kv<u32>>(table.len())?;
                    out.tag_ecc(label.clone());
                    let cnt = dev.try_alloc::<u32>(1)?;
                    dev.stream_scope(stream_id, || {
                        dev.launch(&FilterKernel {
                            table,
                            op: &op,
                            out: out.clone(),
                            out_count: cnt.clone(),
                        })
                    })?;
                    Ok((out, cnt.get(0) as usize))
                });
                match r {
                    Some((out, m)) => {
                        e.labels.push(label);
                        filtered.push((out, m, executed.len()));
                    }
                    // streamed filter defeated: straight to the serial rungs
                    None if e.error.is_none() => {
                        self.run_ladder(&mut e, None, DegradeLevel::SerialBitonic)
                    }
                    None => {}
                }
            } else {
                self.run_ladder(&mut e, Some(stream_id), DegradeLevel::None);
            }
            executed.push(e);
        }

        // split the filtered queries into batchable and oversized
        let max_row = max_single_launch_row::<Kv<u32>>(dev.spec());
        let mut batchable: Vec<(GpuBuffer<Kv<u32>>, usize, usize)> = Vec::new();
        for (out, m, slot) in filtered {
            if m == 0 {
                continue; // empty result, already recorded
            }
            if next_pow2(m) <= max_row {
                batchable.push((out, m, slot));
            } else {
                // too big for the fused batch row: finish on its own stream
                self.finish_serially(&mut executed[slot], slot, &out, m);
            }
        }

        // each chunk shares one pack + one batched top-k launch
        for chunk in batchable.chunks(MAX_BATCH) {
            if chunk.len() < 2 {
                // a lone query gains nothing from the batch detour
                let (out, m, slot) = &chunk[0];
                self.finish_serially(&mut executed[*slot], *slot, out, *m);
                continue;
            }
            let rows = chunk.len();
            let cols = chunk
                .iter()
                .map(|(_, m, _)| next_pow2(*m))
                .max()
                .unwrap_or(1);
            let k_max = chunk
                .iter()
                .map(|(_, _, slot)| executed[*slot].p.query.limit)
                .max()
                .unwrap();
            let batch_label = format!("qdb:batch:c{}", chunk[0].2);

            let batch_stream = dev.create_stream();
            // the pack must see every member's filter output
            for (_, _, slot) in chunk {
                let ev = self.stream(*slot).record_event();
                batch_stream.wait_event(&ev);
            }
            let before = dev.log_len();
            // the shared batch carries no single deadline; per-member
            // deadlines are enforced on the solo rungs
            let mut batch_spent = SimTime::ZERO;
            let mut batch_penalty = SimTime::ZERO;
            let batched = self.with_retries(
                None,
                &mut batch_spent,
                &mut batch_retries,
                &mut batch_penalty,
                || {
                    let matrix =
                        dev.try_alloc_filled::<Kv<u32>>(rows * cols, Kv::<u32>::min_sentinel())?;
                    matrix.tag_ecc(batch_label.clone());
                    dev.stream_scope(batch_stream.id(), || {
                        dev.launch(&PackKernel {
                            sources: chunk.iter().map(|(out, m, _)| (out.clone(), *m)).collect(),
                            out: matrix.clone(),
                            cols,
                        })?;
                        batched_bitonic_topk(dev, &matrix, rows, cols, k_max.min(cols))
                            .map_err(QdbError::from)
                    })
                },
            );
            match batched {
                Ok(batched) => {
                    let shared: Vec<usize> = (before..dev.log_len()).collect();
                    for (row, (_, m, slot)) in chunk.iter().enumerate() {
                        let e = &mut executed[*slot];
                        let mut ids: Vec<u32> =
                            batched.rows[row].iter().map(|kv| kv.value).collect();
                        ids.truncate(e.p.query.limit.min(*m));
                        e.ids = ids;
                        e.shared.extend(shared.iter().copied());
                        e.coalesced = true;
                        e.labels.push(batch_label.clone());
                    }
                }
                Err(_) => {
                    // the shared batch is defeated: every member finishes
                    // serially from its own candidates
                    for (out, m, slot) in chunk {
                        self.finish_serially(&mut executed[*slot], *slot, out, *m);
                    }
                }
            }
        }

        // integrity audit: a completed query whose tagged buffers show up
        // in the fault log as corruption targets re-executes from the
        // pristine (untagged) resident table, so completed results always
        // match the fault-free oracle
        let hit_labels: HashSet<String> = dev.fault_events()[fault_start..]
            .iter()
            .filter(|ev| ev.kind == simt::FaultKind::MemoryCorruption)
            .filter_map(|ev| ev.target.clone())
            .collect();
        for e in &mut executed {
            if e.error.is_none() && e.labels.iter().any(|l| hit_labels.contains(l)) {
                self.run_ladder(e, None, DegradeLevel::SerialBitonic);
            }
        }

        let mut report = self.finish(window, fault_start, batch_retries, executed);
        report.host_wall = wall_start.elapsed();
        report
    }

    /// Reports every query of `list` failed with `err` without running
    /// any of it: a sharded lane whose device is already down when the
    /// drain starts, whose sub-queries the sharded face re-serves from a
    /// healthy replica.
    pub(crate) fn refuse(&self, list: Vec<Pending>, err: &QdbError) -> LoadReport {
        let (window, fault_start) = (self.dev.log_len(), self.dev.fault_events_len());
        let executed = list
            .into_iter()
            .map(|p| Executed {
                error: Some(err.clone()),
                ..Executed::new(p)
            })
            .collect();
        self.finish(window, fault_start, 0, executed)
    }

    /// Brings a stale cache entry current: `ids` is the query's answer
    /// over the table's first `rows` rows, and the delta step
    /// ([`delta_merge`]) folds in the rows appended since, on the
    /// query's stream, with its slice tagged for the audit. A defeated
    /// step descends the whole ladder from the top, so the answer never
    /// depends on the delta path.
    fn fold_delta(&self, e: &mut Executed, stream_id: StreamId, ids: Vec<u32>, rows: usize) {
        let (dev, table) = (self.dev, self.table);
        let label = format!("qdb:delta:t{}", e.p.ticket.0);
        let r = self.attempt(e, |q| {
            dev.stream_scope(stream_id, || {
                delta_merge(
                    dev,
                    table,
                    q,
                    DEFAULT_STRATEGY,
                    ids.clone(),
                    rows,
                    Some(&label),
                )
            })
        });
        match r {
            Some(merged) => {
                e.ids = merged;
                e.labels.push(label);
            }
            None if e.error.is_none() => self.run_ladder(e, Some(stream_id), DegradeLevel::None),
            None => {}
        }
    }

    /// Finishes one coalescable query from its candidate buffer: bitonic
    /// top-k on the query's stream, then (on failure) the ladder's serial
    /// rungs.
    fn finish_serially(&self, e: &mut Executed, slot: usize, out: &GpuBuffer<Kv<u32>>, m: usize) {
        let dev = self.dev;
        let stream_id = self.stream(slot).id();
        let r = self.attempt(e, |q| {
            dev.stream_scope(stream_id, || {
                run_topk_stage(dev, out, m, q.limit.min(m), TopKStrategy::Bitonic)
            })
        });
        match r {
            Some(res) => e.ids = res.items.iter().map(|kv| kv.value).collect(),
            None if e.error.is_none() => self.run_ladder(e, None, DegradeLevel::SerialBitonic),
            None => {}
        }
    }

    /// Replays the drain's launches onto the shared timeline and builds
    /// the per-query and aggregate report.
    fn finish(
        &self,
        window: usize,
        fault_start: usize,
        batch_retries: usize,
        executed: Vec<Executed>,
    ) -> LoadReport {
        let dev = self.dev;
        let schedule = dev.schedule_since(window);
        // this drain's launches only
        let log = dev.log_since(window);
        let placed: HashMap<usize, (SimTime, SimTime)> = schedule
            .launches
            .iter()
            .map(|l| (l.index, (l.start, l.end)))
            .collect();

        let mut queries: Vec<ServedQuery> = executed
            .into_iter()
            .map(|e| {
                let spans: Vec<(SimTime, SimTime)> = e
                    .own
                    .iter()
                    .chain(e.shared.iter())
                    .filter_map(|i| placed.get(i).copied())
                    .collect();
                let first = spans
                    .iter()
                    .map(|s| s.0)
                    .reduce(|a, b| if b.0 < a.0 { b } else { a })
                    .unwrap_or(SimTime::ZERO);
                let last =
                    spans
                        .iter()
                        .map(|s| s.1)
                        .fold(SimTime::ZERO, |a, b| if b.0 > a.0 { b } else { a });
                let reports: Vec<_> = e
                    .own
                    .iter()
                    .chain(e.shared.iter())
                    .map(|&i| log[i - window].clone())
                    .collect();
                let mut timing = QueryTiming {
                    queued: first,
                    exec: SimTime(last.0 - first.0),
                    total: last,
                };
                if e.penalty.0 > 0.0 {
                    timing.exec += e.penalty;
                    timing.total += e.penalty;
                }
                ServedQuery {
                    ticket: e.p.ticket,
                    sql: e.p.sql,
                    result: QueryResult {
                        ids: e.ids,
                        kernel_time: reports.iter().map(|r| r.time).sum(),
                        breakdown: reports
                            .iter()
                            .map(|r| (r.name.to_string(), r.time))
                            .collect(),
                    },
                    timing,
                    coalesced: e.coalesced,
                    error: e.error,
                    retries: e.retries,
                    degrade: e.degrade,
                    cached: e.from_cache,
                }
            })
            .collect();
        queries.sort_by_key(|q| q.ticket.0);

        let mut totals: Vec<f64> = queries
            .iter()
            .filter(|q| q.completed())
            .map(|q| q.timing.total.0)
            .collect();
        totals.sort_by(f64::total_cmp);
        let pct = |p: f64| -> SimTime {
            if totals.is_empty() {
                return SimTime::ZERO;
            }
            let idx = ((totals.len() - 1) as f64 * p).round() as usize;
            SimTime(totals[idx])
        };

        // replication and the cache live above the lane: its ledger has
        // the device's share (the front adds shed and cache counts)
        let mut resilience = ResilienceStats {
            retries: batch_retries + queries.iter().map(|q| q.retries).sum::<usize>(),
            faults_injected: dev.fault_events_len() - fault_start,
            ..ResilienceStats::default()
        };
        for q in &queries {
            resilience.tally(q.error.as_ref(), q.degrade);
        }

        let makespan = schedule.makespan;
        let queries_per_sec = if makespan.0 > 0.0 {
            resilience.completed as f64 / makespan.0
        } else {
            0.0
        };

        LoadReport {
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            makespan,
            serial_time: schedule.serial_time,
            queries_per_sec,
            resilience,
            queries,
            schedule,
            host_wall: std::time::Duration::ZERO,
            log,
            window,
            trace: OnceCell::new(),
        }
    }
}

/// A serving front-end over one device and one resident table: an
/// admission front plus one device lane.
///
/// ```
/// # use simt::Device;
/// # use datagen::twitter::TweetTable;
/// # use qdb::{GpuTweetTable, Server, ServerConfig, SubmitOptions};
/// let dev = Device::titan_x();
/// let host = TweetTable::generate(10_000, 1);
/// let table = GpuTweetTable::upload(&dev, &host);
/// let mut server = Server::new(&dev, &table, ServerConfig::default());
/// let t = server
///     .submit("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 10", SubmitOptions::default())
///     .unwrap();
/// let report = server.drain();
/// assert_eq!(report.queries[t.0].result.ids.len(), 10);
/// ```
pub struct Server<'a> {
    table: &'a GpuTweetTable,
    front: Front,
    lane: Lane<'a>,
}

impl<'a> Server<'a> {
    /// Creates a server over a device-resident table.
    pub fn new(dev: &'a Device, table: &'a GpuTweetTable, cfg: ServerConfig) -> Self {
        Server {
            table,
            lane: Lane::new(dev, table, &cfg),
            front: Front::new(cfg),
        }
    }

    /// Parses, validates and admits one SQL query. Unsupported shapes,
    /// unusable LIMITs and a full queue are rejected here, not at drain
    /// time. Every query runs [`DEFAULT_STRATEGY`]; its deadline travels
    /// in [`SubmitOptions`] (`SubmitOptions::default()` takes
    /// [`ServerConfig::default_deadline`]).
    ///
    /// An explicit deadline cancels the query with [`QdbError::Timeout`]
    /// once its simulated execution time (kernel time plus retry
    /// backoff) exceeds it; a deadline that is already non-positive is
    /// rejected as [`QdbError::DeadlineExpired`].
    pub fn submit(&mut self, sql: &str, opts: SubmitOptions) -> Result<QueryTicket, QdbError> {
        let (rows, epoch) = (self.table.len(), self.table.epoch());
        self.front
            .admit(sql, opts, rows, epoch, false)
            .map(|p| p.ticket)
    }

    /// Number of queries admitted and not yet drained.
    pub fn pending_len(&self) -> usize {
        self.front.pending.len()
    }

    /// Executes every admitted query on the lane (see the module docs)
    /// and returns the load report; completed answers enter the result
    /// cache.
    pub fn drain(&mut self) -> LoadReport {
        let mut report = self.lane.drain(std::mem::take(&mut self.front.pending));
        let fresh = report.queries.iter().filter(|q| q.completed() && !q.cached);
        self.front.settle(
            self.table.epoch(),
            self.table.len(),
            fresh.map(|q| (q.sql.as_str(), q.result.ids.as_slice())),
            &mut report.resilience,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::SqlError;
    use datagen::twitter::TweetTable;
    use simt::FaultPlan;

    fn setup(n: usize) -> (Device, TweetTable) {
        (Device::titan_x(), TweetTable::generate(n, 31))
    }

    /// Keys (not ids) of a result — batched and per-query pipelines may
    /// break exact-tie key duplicates differently, but the returned key
    /// sequence must be identical.
    fn keys(host: &TweetTable, ids: &[u32]) -> Vec<u32> {
        ids.iter()
            .map(|&id| host.retweet_count[id as usize])
            .collect()
    }

    /// The epoch-tagged result cache: warm hits are bit-identical and
    /// free (zero launches, zero simulated time), appends invalidate at
    /// the epoch granularity, and the counters/render track all of it.
    #[test]
    fn result_cache_serves_hits_and_appends_invalidate() {
        let (dev, host) = setup(8_000);
        let table = GpuTweetTable::upload_with_capacity(&dev, &host, 10_000);
        let sql = "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 10";
        let mut server = Server::new(
            &dev,
            &table,
            ServerConfig {
                result_cache: true,
                ..ServerConfig::default()
            },
        );
        server.submit(sql, SubmitOptions::default()).unwrap();
        let a = server.drain();
        assert!(!a.queries[0].cached, "cold submission computes");
        assert_eq!(a.resilience.cache_misses, 1);

        let log0 = dev.log_len();
        server.submit(sql, SubmitOptions::default()).unwrap();
        let b = server.drain();
        assert!(b.queries[0].cached);
        assert_eq!(b.queries[0].result.ids, a.queries[0].result.ids);
        assert_eq!(b.queries[0].result.kernel_time, SimTime::ZERO);
        assert_eq!(b.resilience.cache_hits, 1);
        assert_eq!(dev.log_len(), log0, "a cache hit launches nothing");
        assert!(b.resilience.render().contains("cache hits 1"));

        // an append bumps the epoch: the stale entry refreshes and the
        // recomputed result matches a from-scratch execution
        let batch = TweetTable::generate_at(500, 5, host.len() as u32);
        table.append_batch(&dev, &batch).unwrap();
        server.submit(sql, SubmitOptions::default()).unwrap();
        let c = server.drain();
        assert!(!c.queries[0].cached);
        assert_eq!(c.resilience.cache_refreshes, 1);
        let oracle = execute(&dev, &table, &parse(sql).unwrap(), Strategy::StageBitonic).unwrap();
        assert_eq!(c.queries[0].result.ids, oracle.ids);
        // the refreshed entry serves the new epoch
        server.submit(sql, SubmitOptions::default()).unwrap();
        assert_eq!(server.drain().resilience.cache_hits, 1);
        // cache off (the default): counters stay zero and the render is
        // byte-identical to previous releases
        let mut plain = Server::new(&dev, &table, ServerConfig::default());
        plain.submit(sql, SubmitOptions::default()).unwrap();
        let p = plain.drain();
        assert!(!p.resilience.render().contains("cache"));
    }

    #[test]
    fn mixed_queries_agree_with_serial_execution() {
        let (dev, host) = setup(10_000);
        let table = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.3);
        let sqls = [
            format!("SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 10"),
            "SELECT id FROM tweets WHERE lang='ja' ORDER BY retweet_count DESC LIMIT 25".to_string(),
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 8".to_string(),
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 12".to_string(),
            "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 5".to_string(),
            format!("SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 3"),
        ];
        let mut server = Server::new(&dev, &table, ServerConfig::default());
        let tickets: Vec<QueryTicket> = sqls
            .iter()
            .map(|s| server.submit(s, SubmitOptions::default()).expect("submit"))
            .collect();
        let report = server.drain();
        assert_eq!(report.queries.len(), sqls.len());

        for (sql, t) in sqls.iter().zip(&tickets) {
            let served = &report.queries[t.0];
            assert_eq!(&served.sql, sql);
            assert!(served.completed(), "{sql}: {:?}", served.error);
            assert_eq!(served.degrade, DegradeLevel::None);
            let q = parse(sql).unwrap();
            let serial = execute(&dev, &table, &q, Strategy::StageBitonic).unwrap();
            if q.shape == Shape::GroupCount {
                // uids map to counts; compare count sequences
                let mut counts = std::collections::HashMap::new();
                for &u in &host.uid {
                    *counts.entry(u).or_insert(0u32) += 1;
                }
                let got: Vec<u32> = served.result.ids.iter().map(|u| counts[u]).collect();
                let want: Vec<u32> = serial.ids.iter().map(|u| counts[u]).collect();
                assert_eq!(got, want, "{sql}");
            } else if q.shape == Shape::Ranked {
                let rank = |id: u32| {
                    host.retweet_count[id as usize] as f32
                        + 0.5 * host.likes_count[id as usize] as f32
                };
                let got: Vec<f32> = served.result.ids.iter().map(|&i| rank(i)).collect();
                let want: Vec<f32> = serial.ids.iter().map(|&i| rank(i)).collect();
                assert_eq!(got, want, "{sql}");
            } else {
                assert_eq!(
                    keys(&host, &served.result.ids),
                    keys(&host, &serial.ids),
                    "{sql}"
                );
            }
            assert!(served.timing.total.0 >= served.timing.exec.0);
        }
        // the two plain DESC retweet_count queries coalesced, the rest not
        assert!(report.queries[0].coalesced);
        assert!(report.queries[1].coalesced);
        assert!(!report.queries[2].coalesced);
        assert!(!report.queries[3].coalesced);
        assert!(!report.queries[4].coalesced);
        assert!(report.makespan.0 > 0.0);
        assert!(report.queries_per_sec > 0.0);
        assert!(report.p50.0 <= report.p95.0 && report.p95.0 <= report.p99.0);
        // a fault-free drain reports a clean resilience ledger
        assert_eq!(report.resilience.completed, sqls.len());
        assert_eq!(report.resilience.retries, 0);
        assert_eq!(report.resilience.shed, 0);
        assert_eq!(report.resilience.faults_injected, 0);
        // the drain ran on the host, so wall-clock capture must be live
        assert!(report.host_wall > std::time::Duration::ZERO);
        assert!(report.host_queries_per_sec() > 0.0);
    }

    /// A lone query's first kernel starts at the drain's t = 0: it waited
    /// for nothing, and its execution spans every kernel it ran.
    #[test]
    fn a_query_whose_first_kernel_starts_at_zero_reports_no_queue_wait() {
        let (dev, host) = setup(8_000);
        let table = GpuTweetTable::upload(&dev, &host);
        let cfg = ServerConfig {
            coalesce: false,
            ..ServerConfig::default()
        };
        let mut server = Server::new(&dev, &table, cfg);
        let sql = "SELECT id FROM tweets WHERE tweet_time < 1500000 \
                   ORDER BY retweet_count DESC LIMIT 10";
        server.submit(sql, SubmitOptions::default()).unwrap();
        let report = server.drain();
        let launches = &report.schedule.launches;
        assert!(launches.len() >= 2, "filter plus top-k: {launches:?}");
        assert_eq!(launches[0].start, SimTime::ZERO);
        assert!(launches[1].start > SimTime::ZERO);
        let timing = report.queries[0].timing;
        assert_eq!(timing.queued, SimTime::ZERO);
        assert_eq!(timing.exec, timing.total);
        assert_eq!(timing.total, report.makespan);
    }

    #[test]
    fn sanitizer_clean_across_batched_and_streamed_serving() {
        // the ISSUE-level acceptance check for the serving layer: the
        // whole drain — pack kernel, batched top-k, and every per-stream
        // pipeline — runs under the sanitizer with zero findings
        let (dev, host) = setup(10_000);
        let table = GpuTweetTable::upload(&dev, &host);
        dev.enable_sanitizer();
        let cutoff = host.time_cutoff_for_selectivity(0.3);
        let mut server = Server::new(&dev, &table, ServerConfig::default());
        let sqls = [
            format!("SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 10"),
            format!("SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 4"),
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 8".to_string(),
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 12".to_string(),
            "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 5".to_string(),
        ];
        for s in &sqls {
            server.submit(s, SubmitOptions::default()).expect("submit");
        }
        let report = server.drain();
        assert_eq!(report.queries.len(), sqls.len());
        assert!(
            report.queries[0].coalesced,
            "batched path must be exercised"
        );

        let reports = dev.take_analysis();
        assert!(!reports.is_empty(), "no serving launches were sanitized");
        assert!(
            reports.iter().any(|r| r.kernel == "batched_bitonic_row"),
            "batched top-k launch missing from sanitizer coverage"
        );
        assert!(
            reports.iter().any(|r| r.stream != 0),
            "streamed launches missing from sanitizer coverage"
        );
        for rep in &reports {
            assert!(rep.is_clean(), "serving-layer findings\n{}", rep.render());
        }
    }

    #[test]
    fn coalescing_matches_uncoalesced_results() {
        let (dev, host) = setup(12_000);
        let table = GpuTweetTable::upload(&dev, &host);
        let sqls: Vec<String> = (0..12)
            .map(|i| {
                let cutoff = host.time_cutoff_for_selectivity(0.05 + 0.03 * (i % 8) as f64);
                let k = 1 + 7 * (i % 5);
                format!("SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT {k}")
            })
            .collect();

        let run = |coalesce: bool| {
            let mut server = Server::new(
                &dev,
                &table,
                ServerConfig {
                    coalesce,
                    ..ServerConfig::default()
                },
            );
            for s in &sqls {
                server.submit(s, SubmitOptions::default()).unwrap();
            }
            server.drain()
        };
        let on = run(true);
        let off = run(false);
        for (a, b) in on.queries.iter().zip(&off.queries) {
            assert_eq!(
                keys(&host, &a.result.ids),
                keys(&host, &b.result.ids),
                "{}",
                a.sql
            );
            assert!(a.coalesced);
            assert!(!b.coalesced);
        }
    }

    #[test]
    fn concurrent_serving_beats_serial() {
        let (dev, host) = setup(1 << 15);
        let table = GpuTweetTable::upload(&dev, &host);
        let mut server = Server::new(&dev, &table, ServerConfig::default());
        for i in 0..32 {
            let cutoff = host.time_cutoff_for_selectivity(0.05 + 0.002 * i as f64);
            server
                .submit(&format!(
                    "SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 16"
                ), SubmitOptions::default())
                .unwrap();
        }
        let report = server.drain();
        assert!(
            report.speedup() >= 2.0,
            "32 coalesced small queries should serve ≥2× faster than serial, got {:.2}×",
            report.speedup()
        );
        assert!(report.queries.iter().all(|q| q.coalesced));
    }

    #[test]
    fn drain_trace_has_a_track_per_active_stream() {
        let (dev, host) = setup(3_000);
        let table = GpuTweetTable::upload(&dev, &host);
        let mut server = Server::new(&dev, &table, ServerConfig::default());
        for k in [5usize, 9, 13] {
            server
                .submit(
                    &format!("SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT {k}"),
                    SubmitOptions::default(),
                )
                .unwrap();
        }
        let report = server.drain();
        let trace = report.chrome_trace();
        assert!(trace.starts_with('['));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("thread_name"));
        assert!(trace.contains("qdb_filter"));
        assert!(trace.contains("batched_bitonic_row"));
    }

    /// A drain renders its trace and per-query breakdowns from its own
    /// window of the launch log: after many drains the trace is
    /// byte-identical to one rendered from the whole log, every breakdown
    /// to that of the same batch served first on a fresh device, and a
    /// query served on its own stream breaks down as its serial plan does.
    #[test]
    fn late_drains_render_from_their_own_log_window() {
        let (_, host) = setup(6_000);
        let cutoff = host.time_cutoff_for_selectivity(0.3);
        let sqls = [
            format!("SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 10"),
            format!("SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 3"),
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 8".to_string(),
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 12".to_string(),
            "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 5".to_string(),
        ];
        let serve = |dev: &Device, drains: usize| -> Vec<LoadReport> {
            let table = GpuTweetTable::upload(dev, &host);
            let mut server = Server::new(dev, &table, ServerConfig::default());
            (0..drains)
                .map(|_| {
                    for sql in &sqls {
                        server.submit(sql, SubmitOptions::default()).unwrap();
                    }
                    server.drain()
                })
                .collect()
        };
        let bits = |r: &QueryResult| -> Vec<(String, u64)> {
            let b = &r.breakdown;
            b.iter()
                .map(|(name, t)| (name.clone(), t.0.to_bits()))
                .collect()
        };
        let breakdowns =
            |r: &LoadReport| -> Vec<_> { r.queries.iter().map(|q| bits(&q.result)).collect() };
        let dev = Device::titan_x();
        let reports = serve(&dev, 6);
        let fresh = serve(&Device::titan_x(), 1);
        let serial_dev = Device::titan_x();
        let serial_table = GpuTweetTable::upload(&serial_dev, &host);
        let full_log = dev.log_since(0);
        assert!(full_log.len() > 5 * reports[0].schedule.launches.len());
        for r in &reports {
            assert_eq!(
                r.chrome_trace(),
                chrome_trace_streams(&r.schedule, &full_log)
            );
            assert_eq!(breakdowns(r), breakdowns(&fresh[0]));
            let solo: Vec<&ServedQuery> = r.queries.iter().filter(|q| !q.coalesced).collect();
            assert_eq!(solo.len(), 3, "ranked, ASC and GROUP BY run alone");
            for q in solo {
                let plan = parse(&q.sql).unwrap();
                let serial =
                    execute(&serial_dev, &serial_table, &plan, Strategy::StageBitonic).unwrap();
                assert_eq!(bits(&q.result), bits(&serial), "{}", q.sql);
            }
        }
    }

    #[test]
    fn server_is_reusable_across_drains() {
        let (dev, host) = setup(5_000);
        let table = GpuTweetTable::upload(&dev, &host);
        let mut server = Server::new(&dev, &table, ServerConfig::default());
        let t0 = server
            .submit(
                "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 4",
                SubmitOptions::default(),
            )
            .unwrap();
        let r0 = server.drain();
        assert_eq!(r0.queries.len(), 1);
        assert_eq!(r0.queries[0].ticket, t0);
        assert_eq!(server.pending_len(), 0);

        let t1 = server
            .submit(
                "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 4",
                SubmitOptions::default(),
            )
            .unwrap();
        let r1 = server.drain();
        assert_eq!(r1.queries.len(), 1);
        assert_eq!(r1.queries[0].ticket, t1);
        // tickets keep counting across drains
        assert_eq!(t1.0, t0.0 + 1);
    }

    #[test]
    fn submit_rejects_bad_sql_eagerly() {
        let (dev, host) = setup(1_000);
        let table = GpuTweetTable::upload(&dev, &host);
        let mut server = Server::new(&dev, &table, ServerConfig::default());
        assert!(matches!(
            server.submit("DROP TABLE tweets", SubmitOptions::default()),
            Err(QdbError::Parse(_))
        ));
        assert!(matches!(
            server.submit(
                "SELECT id FROM tweets ORDER BY retweet_count + 0.9 * likes_count DESC LIMIT 5",
                SubmitOptions::default()
            ),
            Err(QdbError::Parse(SqlError::Unsupported(_)))
        ));
        assert_eq!(server.pending_len(), 0);
    }

    #[test]
    fn submit_validation_returns_typed_errors() {
        let (dev, host) = setup(100);
        let table = GpuTweetTable::upload(&dev, &host);
        let mut server = Server::new(&dev, &table, ServerConfig::default());
        // k = 0 dies in the parser, typed, no panic
        assert!(matches!(
            server.submit(
                "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 0",
                SubmitOptions::default()
            ),
            Err(QdbError::Parse(SqlError::BadLimit(_)))
        ));
        // k > n is rejected against the resident table
        assert!(matches!(
            server.submit(
                "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 200",
                SubmitOptions::default()
            ),
            Err(QdbError::InvalidK { k: 200, n: 100 })
        ));
        // a dead-on-arrival deadline is rejected at submission
        assert!(matches!(
            server.submit(
                "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 5",
                SubmitOptions::default().with_deadline(SimTime(0.0))
            ),
            Err(QdbError::DeadlineExpired { .. })
        ));
        assert_eq!(server.pending_len(), 0);
    }

    #[test]
    fn overload_sheds_with_typed_error() {
        let (dev, host) = setup(1_000);
        let table = GpuTweetTable::upload(&dev, &host);
        let cfg = ServerConfig {
            max_queue: 2,
            ..ServerConfig::default()
        };
        let mut server = Server::new(&dev, &table, cfg);
        let sql = "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 5";
        server.submit(sql, SubmitOptions::default()).unwrap();
        server.submit(sql, SubmitOptions::default()).unwrap();
        let shed = server.submit(sql, SubmitOptions::default());
        assert!(matches!(
            shed,
            Err(QdbError::Overloaded {
                queue_len: 2,
                max_queue: 2
            })
        ));
        let report = server.drain();
        assert_eq!(report.resilience.shed, 1);
        assert_eq!(report.resilience.completed, 2);
        // the shed counter resets between drains
        server.submit(sql, SubmitOptions::default()).unwrap();
        assert_eq!(server.drain().resilience.shed, 0);
    }

    #[test]
    fn persistent_launch_faults_degrade_to_cpu_with_oracle_results() {
        let (dev, host) = setup(4_000);
        let table = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.4);
        let sqls = [
            format!("SELECT id FROM tweets WHERE tweet_time < {cutoff} ORDER BY retweet_count DESC LIMIT 10"),
            "SELECT id FROM tweets ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 8".to_string(),
            "SELECT id FROM tweets ORDER BY retweet_count ASC LIMIT 6".to_string(),
            "SELECT uid, COUNT(*) FROM tweets GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 5".to_string(),
        ];
        // fault-free oracle first, on the same device
        let oracles: Vec<Vec<u32>> = sqls
            .iter()
            .map(|s| {
                execute(&dev, &table, &parse(s).unwrap(), Strategy::StageBitonic)
                    .unwrap()
                    .ids
            })
            .collect();
        // now every launch fails: nothing on the device can complete
        dev.set_fault_plan(FaultPlan {
            launch_failure_rate: 1.0,
            max_faults: usize::MAX,
            ..FaultPlan::none()
        });
        let mut server = Server::new(&dev, &table, ServerConfig::default());
        for s in &sqls {
            server.submit(s, SubmitOptions::default()).unwrap();
        }
        let report = server.drain();
        dev.clear_fault_plan();
        assert_eq!(report.resilience.completed, sqls.len());
        assert_eq!(report.resilience.degraded_cpu, sqls.len());
        assert!(report.resilience.retries > 0);
        assert!(report.resilience.faults_injected > 0);
        for (i, served) in report.queries.iter().enumerate() {
            assert_eq!(served.degrade, DegradeLevel::CpuHeap, "{}", served.sql);
            assert!(served.retries > 0, "{}", served.sql);
            // CPU answers must match the fault-free device oracle by key
            let q = parse(&sqls[i]).unwrap();
            if q.shape == Shape::GroupCount {
                let mut counts = std::collections::HashMap::new();
                for &u in &host.uid {
                    *counts.entry(u).or_insert(0u32) += 1;
                }
                let got: Vec<u32> = served.result.ids.iter().map(|u| counts[u]).collect();
                let want: Vec<u32> = oracles[i].iter().map(|u| counts[u]).collect();
                assert_eq!(got, want, "{}", served.sql);
            } else if q.shape == Shape::Ranked {
                let rank = |id: u32| {
                    host.retweet_count[id as usize] as f32
                        + 0.5 * host.likes_count[id as usize] as f32
                };
                let got: Vec<f32> = served.result.ids.iter().map(|&x| rank(x)).collect();
                let want: Vec<f32> = oracles[i].iter().map(|&x| rank(x)).collect();
                assert_eq!(got, want, "{}", served.sql);
            } else if matches!(q.shape, Shape::Bottom(_)) {
                let got = keys(&host, &served.result.ids);
                let want = keys(&host, &oracles[i]);
                assert_eq!(got, want, "{}", served.sql);
            } else {
                assert_eq!(
                    keys(&host, &served.result.ids),
                    keys(&host, &oracles[i]),
                    "{}",
                    served.sql
                );
            }
        }
    }

    #[test]
    fn tight_deadline_times_out_under_faults_and_reports_typed_error() {
        let (dev, host) = setup(2_000);
        let table = GpuTweetTable::upload(&dev, &host);
        dev.set_fault_plan(FaultPlan {
            launch_failure_rate: 1.0,
            max_faults: usize::MAX,
            ..FaultPlan::none()
        });
        let mut server = Server::new(&dev, &table, ServerConfig::default());
        let t = server
            .submit(
                "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 5",
                SubmitOptions::default().with_deadline(SimTime(1e-9)),
            )
            .unwrap();
        let report = server.drain();
        dev.clear_fault_plan();
        let served = &report.queries[t.0];
        assert!(!served.completed());
        assert!(
            matches!(served.error, Some(QdbError::Timeout { .. })),
            "expected timeout, got {:?}",
            served.error
        );
        assert_eq!(report.resilience.timed_out, 1);
        assert_eq!(report.resilience.completed, 0);
    }

    #[test]
    fn generous_deadline_completes_without_faults() {
        let (dev, host) = setup(2_000);
        let table = GpuTweetTable::upload(&dev, &host);
        let mut server = Server::new(&dev, &table, ServerConfig::default());
        let t = server
            .submit(
                "SELECT id FROM tweets ORDER BY retweet_count DESC LIMIT 5",
                SubmitOptions::default().with_deadline(SimTime(1.0)),
            )
            .unwrap();
        let report = server.drain();
        let served = &report.queries[t.0];
        assert!(served.completed());
        assert_eq!(served.result.ids.len(), 5);
        assert_eq!(report.resilience.timed_out, 0);
    }

    #[test]
    fn corrupted_candidate_buffers_are_audited_and_rerun() {
        let (dev, host) = setup(6_000);
        let table = GpuTweetTable::upload(&dev, &host);
        let cutoff = host.time_cutoff_for_selectivity(0.3);
        let sqls: Vec<String> = (0..6)
            .map(|i| {
                format!(
                    "SELECT id FROM tweets WHERE tweet_time < {cutoff} \
                     ORDER BY retweet_count DESC LIMIT {}",
                    4 + i
                )
            })
            .collect();
        let oracles: Vec<Vec<u32>> = sqls
            .iter()
            .map(|s| {
                execute(&dev, &table, &parse(s).unwrap(), Strategy::StageBitonic)
                    .unwrap()
                    .ids
            })
            .collect();
        // every launch flips one element of some live tagged buffer
        dev.set_fault_plan(FaultPlan {
            corruption_rate: 1.0,
            max_faults: usize::MAX,
            ..FaultPlan::none()
        });
        let mut server = Server::new(&dev, &table, ServerConfig::default());
        for s in &sqls {
            server.submit(s, SubmitOptions::default()).unwrap();
        }
        let report = server.drain();
        dev.clear_fault_plan();
        assert!(report.resilience.faults_injected > 0);
        assert_eq!(report.resilience.completed, sqls.len());
        // the audit must have re-derived at least one tainted query
        assert!(
            report
                .queries
                .iter()
                .any(|q| q.degrade != DegradeLevel::None),
            "corruption fired but no query was re-derived"
        );
        for (i, served) in report.queries.iter().enumerate() {
            assert_eq!(
                keys(&host, &served.result.ids),
                keys(&host, &oracles[i]),
                "{}",
                served.sql
            );
        }
    }
}
