//! The server's `select` path rebuilt in-process from each layer's public
//! functions, with a span around every call. The verification pass runs
//! it with spans off; the traced replay runs it with spans on. Either way
//! it must render the exact body the server returned for the same op.

use crate::trace::{Recorder, Timed};
use fairsel_ci::{CiTestBatch, FisherZ, GTest};
use fairsel_core::{
    grpsel_batched_in, render_pipeline_report, run_pipeline_batched_in, seqsel_in, PipelineConfig,
    Problem, SelectionAlgo,
};
use fairsel_engine::CiSession;
use fairsel_server::{pipeline_config, CacheInfo, Json, Response, WorkloadRequest};
use fairsel_table::{EncodedTable, StableSplit, Table, DEFAULT_CACHE_CAP};
use std::sync::Arc;

pub type Session = CiSession<Box<dyn CiTestBatch + Send + Sync>>;

/// One dataset's resident state, as the server's registry holds it.
pub struct Workload {
    pub train: Arc<Table>,
    pub test: Table,
    pub enc: Arc<EncodedTable>,
    pub session: Session,
    fallback: bool,
}

fn tester(
    enc: Arc<EncodedTable>,
    req: &WorkloadRequest,
    rec: &Arc<Recorder>,
) -> Result<Box<dyn CiTestBatch + Send + Sync>, String> {
    let rec = Arc::clone(rec);
    match req.tester.as_str() {
        "gtest" => Ok(Box::new(Timed::new(
            GTest::over(enc, req.alpha),
            rec,
            "citest.gtest",
        ))),
        "fisherz" => Ok(Box::new(Timed::new(
            FisherZ::over(enc, req.alpha),
            rec,
            "citest.fisherz",
        ))),
        other => Err(format!("unknown tester {other}")),
    }
}

fn split(table: &Table, req: &WorkloadRequest, rec: &Recorder) -> StableSplit {
    let _s = rec.span("table.split");
    table.split_rows_stable(req.seed, req.train_frac)
}

fn build_from_split(
    split: StableSplit,
    req: &WorkloadRequest,
    rec: &Arc<Recorder>,
) -> Result<Workload, String> {
    let train = Arc::new(split.train);
    let enc = {
        let _s = rec.span("table.encode");
        Arc::new(EncodedTable::from_arc_with_cap(
            Arc::clone(&train),
            DEFAULT_CACHE_CAP,
        ))
    };
    let session = {
        let _s = rec.span("engine.session");
        CiSession::new(tester(Arc::clone(&enc), req, rec)?)
    };
    Ok(Workload {
        train,
        test: split.test,
        enc,
        session,
        fallback: split.fallback,
    })
}

/// A workload built cold: split, encoding layer, fresh session.
pub fn build(
    table: &Table,
    req: &WorkloadRequest,
    rec: &Arc<Recorder>,
) -> Result<Workload, String> {
    build_from_split(split(table, req, rec), req, rec)
}

/// The workload of an appended child dataset, born warm from its parent
/// exactly when the server's registry would do so (otherwise cold).
pub fn build_child(
    parent: &Workload,
    child: &Table,
    req: &WorkloadRequest,
    rec: &Arc<Recorder>,
) -> Result<Workload, String> {
    let split = split(child, req, rec);
    let n_parent = parent.train.n_rows();
    if split.fallback || parent.fallback || split.train.n_rows() <= n_parent {
        return build_from_split(split, req, rec);
    }
    let enc = {
        let _s = rec.span("table.encode");
        let suffix: Vec<usize> = (n_parent..split.train.n_rows()).collect();
        let batch = split.train.take_rows(&suffix);
        Arc::new(
            parent
                .enc
                .extend(&batch)
                .map_err(|e| format!("extending encodings: {e}"))?,
        )
    };
    let session = {
        let _s = rec.span("engine.session");
        parent.session.extended_over(Arc::clone(&enc))
    };
    match session {
        Some(session) => Ok(Workload {
            train: Arc::clone(enc.table_arc()),
            test: split.test,
            enc,
            session,
            fallback: false,
        }),
        None => build_from_split(split, req, rec),
    }
}

/// The selection exactly as `run_pipeline_batched_in` runs it.
fn selection(w: &mut Workload, problem: &Problem, cfg: &PipelineConfig) {
    match cfg.algo {
        SelectionAlgo::SeqSel => {
            seqsel_in(&mut w.session, problem, &cfg.select);
        }
        SelectionAlgo::GrpSel { seed } => {
            grpsel_batched_in(
                &mut w.session,
                problem,
                &cfg.select,
                seed,
                cfg.workers.max(1),
            );
        }
    }
}

/// Serve one `select` against a resident workload and return the body.
///
/// The selection runs first under its own span (`core.seqsel` or
/// `core.grpsel`), so the tester calls it makes nest inside it; the
/// pipeline then finds every outcome memoized, and a memo-only replay of
/// the same selection measures what that costs, so training and scoring
/// are `core.pipeline − core.memo_replay`.
pub fn select(
    w: &mut Workload,
    req: &WorkloadRequest,
    fingerprint: u64,
    rec: &Recorder,
) -> Result<String, String> {
    let cfg = pipeline_config(req, w.train.n_rows())?;
    let problem = Problem::from_table(&w.train);
    {
        let _s = rec.span(match cfg.algo {
            SelectionAlgo::SeqSel => "core.seqsel",
            SelectionAlgo::GrpSel { .. } => "core.grpsel",
        });
        selection(w, &problem, &cfg);
    }
    let train = Arc::clone(&w.train);
    let out = {
        let _s = rec.span("core.pipeline");
        run_pipeline_batched_in(&mut w.session, &train, &w.test, &cfg)
    };
    {
        let _s = rec.span("core.memo_replay");
        selection(w, &problem, &cfg);
    }
    let body = {
        let _s = rec.span("core.render");
        render_pipeline_report(&out, &w.train, &cfg, w.test.n_rows())
    };
    {
        let _s = rec.span("server.respond");
        let enc = w.session.tester().encode_cache_stats();
        let response = Response::Ok {
            body: body.clone(),
            stats: Json::parse(&out.engine.to_json()).ok(),
            cache: Some(CacheInfo {
                fingerprint,
                sessions_served: 1,
                shared_hits: out.engine.cache_hits,
                encode_hits: enc.hits,
                encode_misses: enc.misses,
                encode_evictions: enc.evictions,
                dataset_evictions: 0,
            }),
        };
        std::hint::black_box(response.to_json().to_string());
    }
    Ok(body)
}
