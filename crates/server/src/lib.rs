//! `gc_server` — the networked front-end over
//! [`gc_core::ShardedGraphCache`]: ROADMAP item 1's deployment story.
//!
//! Std-TCP only (no async runtime, no registry deps), organised as:
//!
//! * [`protocol`] — length-prefixed binary frames; requests carry their
//!   own deadline so a slow shard degrades instead of hanging the line;
//! * [`service`] — admission control (bounded per-shard in-flight with
//!   explicit `Overloaded` shedding), deadline materialization into
//!   [`gc_core::QueryBudget`], updates/health/audit, and the table of
//!   decoded graphs that lets a repeated query frame skip its decode;
//! * [`server`] — accept loop + per-connection threads, plus the network
//!   fault hooks (`drop-conn@N`, `delay-conn@N:ms`, `stall-shard@N`) of
//!   [`gc_core::FaultPlan`];
//! * [`client`] — lazy-reconnecting blocking client with exponential
//!   backoff + jitter, retrying only what is provably safe to retry.
//!
//! Soundness contract, end to end: every request resolves as a success,
//! an explicitly `degraded`-tagged sound partial, or an explicit error —
//! never a silent divergence from cache-less Method M, never a hang. The
//! `experiments chaos --net` driver (in `gc_bench`) enforces this against
//! a fault-free oracle under injected network faults.

pub mod client;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::{CacheClient, ClientError, QueryReply, RetryPolicy};
pub use protocol::{Request, Response, ServiceStats, WireError};
pub use server::{serve, ServerHandle};
pub use service::CacheService;
