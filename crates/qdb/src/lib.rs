#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! A columnar mini query engine on the simulated GPU — the reproduction's
//! stand-in for MapD (paper Sections 5 and 6.8).
//!
//! The engine implements exactly the physical operators the paper's
//! integration experiments exercise:
//!
//! * columnar **scan + filter** producing `(key, id)` candidate pairs,
//! * **projection** of a custom ranking function,
//! * hash **group-by count**,
//! * **order-by/limit** with a pluggable top-k operator (full sort or
//!   bitonic top-k),
//! * the two Section 5 **fusions**: filter-as-buffer-filler inside the
//!   SortReducer (`FusedFilterTopK`) and ranking-function evaluation
//!   inside the SortReducer (`FusedProjectTopK`).
//!
//! [`queries`] wires these into the paper's four Twitter queries
//! (Figure 16) with per-strategy kernel-time breakdowns, and [`server`]
//! turns the engine into a concurrent serving layer: a [`Server`] admits
//! a queue of SQL queries, overlaps them on simt streams, and coalesces
//! compatible small queries into one batched top-k launch.
//!
//! Two engines run the same plans over one resident [`GpuTweetTable`],
//! chosen by the function a caller invokes: [`execute_sql`] on the
//! simulated device (modeled, bit-exact time) and [`execute_cpu`] on real
//! CPU cores (wall-clock), with the same winners; a view refreshes
//! through [`TopKView::refresh`] or [`TopKView::refresh_cpu`] likewise.

pub(crate) mod cpu_engine;
pub mod engine;
pub mod error;
pub mod explain;
pub mod queries;
pub mod server;
pub mod shard;
pub mod sql;
pub mod stream;
pub mod table;

pub use cpu_engine::{execute_cpu, CpuQueryResult};
pub use engine::{FilterOp, TopKStrategy};
pub use error::QdbError;
pub use explain::{
    explain_delegate_topk, explain_filtered_topk, explain_view, DelegatePlan, QueryPlan,
    TableStats, ViewPlan,
};
pub use queries::{QueryResult, Strategy};
pub use server::{
    DegradeLevel, LoadReport, QueryTicket, QueryTiming, ResilienceStats, ServedQuery, Server,
    ServerConfig, SubmitOptions,
};
pub use shard::{
    execute_sharded, partition_indices, sharded_delegate_topk, sharded_topk, BreakerState,
    DeviceHealth, PartitionPolicy, Replica, ReplicationFactor, Shard, ShardedAppendReceipt,
    ShardedLoadReport, ShardedServed, ShardedServer, ShardedTable, ShardedTopK,
};
pub use sql::{
    execute as execute_sql, explain_analysis, parse as parse_sql, parse_statement, AnalyzedQuery,
    Query, Shape, SqlError, Statement,
};
pub use stream::{TopKView, ViewConfig, ViewMode, ViewRefresh, ViewStats};
pub use table::{AppendReceipt, GpuTweetTable, ROW_BYTES};
