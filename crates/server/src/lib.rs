//! `fairsel-server` — the long-lived session service.
//!
//! PR 1 built the memoizing [`fairsel_engine::CiSession`] and PR 2 the
//! columnar `EncodedTable`, but both lived and died with a single process:
//! repeated workloads from many clients re-paid every encoding pass and
//! every CI test. This crate keeps them alive across requests — the
//! ROADMAP's "millions of users" direction:
//!
//! * [`registry`] — workload state sharded by *dataset fingerprint* (a
//!   stable hash of schema + column data): one shared `EncodedTable` and
//!   one memoizing `CiSession` per (dataset, split, tester) — LRU-bounded,
//!   with eviction counters;
//! * [`proto`] — the wire protocol: length-prefixed JSON frames carrying
//!   `select` / `methods` / `stats` / `ping` / `shutdown` requests, with
//!   per-dataset cache telemetry in every workload response;
//! * [`server`] — a std-only `TcpListener` accept loop (one thread per
//!   connection) plus the one-shot [`request`] client the CLI's
//!   `--remote` flag and the bench harness use;
//! * [`json`] — the minimal JSON value/parser backing all of it (the
//!   workspace is offline; no serde).
//!
//! The service's core guarantee, property-tested in `fairsel-tests` and
//! asserted again by the CI smoke step: a remote `select` body is
//! **byte-identical** to a local run of the same workload, and a warm
//! repeat reports nonzero shared-cache hits while issuing zero new CI
//! tests.

pub mod json;
pub mod prom;
pub mod proto;
pub mod registry;
pub mod server;

pub use json::{Json, JsonError, MAX_JSON_DEPTH};
pub use prom::render_prom;
pub use proto::{
    checked_workers, valid_alpha, valid_train_frac, CacheInfo, DatasetRef, MaxGroupSpec, Request,
    Response, WorkloadRequest, MAX_WORKERS,
};
pub use registry::{fingerprint_table, pipeline_config, Registry, RegistryConfig};
pub use server::{
    append_rows, default_conn_workers, put_dataset, request, request_raw, ServeConfig, Server,
    ServerHandle,
};
