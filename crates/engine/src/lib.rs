//! `fairsel-engine` — the CI-test execution subsystem.
//!
//! Every algorithm in the paper (SeqSel, GrpSel, PC / Fair-PC) bottoms out
//! in conditional-independence queries; the paper's entire complexity
//! story is counted in CI-test invocations. The seed code had each caller
//! invoking testers directly — no reuse, no batching, no parallelism. This
//! crate centralizes execution the way a throughput-oriented query engine
//! would:
//!
//! * [`CiSession`] wraps any [`fairsel_ci::CiTest`] behind canonicalized
//!   [`QueryKey`]s (symmetric `x`/`y` normalization, sorted `Z`) and a memo
//!   cache, so a repeated or reordered query is answered without touching
//!   the tester;
//! * two batch executors evaluate a batch of independent queries —
//!   deduplicated against the cache and against each other — with
//!   deterministic result ordering:
//!   - [`CiSession::run_batch`], the reference path, evaluates the misses
//!     one query at a time through any [`fairsel_ci::CiTest`];
//!   - [`CiSession::run_batch_grouped`], the production path, partitions
//!     the misses by *canonical conditioning set* and evaluates each
//!     group through [`fairsel_ci::CiTestBatch::eval_z_group`], so the
//!     per-`Z` scaffold (stratification, ridge factorization,
//!     standardized conditioning block) is built once per distinct set;
//!     with workers the groups become steal-able chunks on the session's
//!     persistent [`WorkerPool`]. The tester's encode-cache telemetry
//!     surfaces as `encode_cache_hits` / `encode_cache_misses` in
//!     [`EngineStats`];
//! * [`EngineStats`] tracks per-session and per-phase telemetry (queries
//!   requested, tests actually issued, cache hits, dedup rate, wall time)
//!   and serializes to JSON for the `BENCH_*.json` trajectories;
//! * [`HalvingPlanner`] / [`exists_certificate`] surface GrpSel's
//!   recursive halving as level-synchronous *frontiers* of independent
//!   group queries — the shape the batch scheduler can actually exploit —
//!   while issuing exactly the query set the depth-first recursion would.

pub mod exec;
pub mod key;
pub mod planner;
pub mod pool;
pub mod session;

pub use exec::default_workers;
pub use key::{CiQuery, QueryKey};
pub use planner::{exists_certificate, exists_with, FrontierOutcome, HalvingPlanner};
pub use pool::WorkerPool;
pub use session::{CiSession, EngineStats, PhaseStats};
