//! The wire protocol: length-prefixed JSON frames and the typed
//! request/response vocabulary.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. One connection may carry any number of
//! request/response pairs; a clean EOF between frames ends the
//! conversation. Frames are capped at [`MAX_FRAME`] bytes so a corrupt
//! length prefix cannot make the server allocate unboundedly.
//!
//! Requests (`cmd` field selects the variant):
//!
//! ```text
//! {"cmd":"select", "csv":"..."|"fp":"<16-hex>", "algo":"grpsel",
//!  "tester":"gtest", "alpha":0.01, "workers":4, "max_group":"auto"|N|null,
//!  "train_frac":0.7, "seed":0, "classifier":"logistic"}
//! {"cmd":"methods", ...same workload fields...}
//!                      (`workers` must be an integer up to [`MAX_WORKERS`]
//!                      and `train_frac` and `alpha` numbers strictly
//!                      between 0 and 1; an absent field takes its
//!                      default, any other value gets an error reply)
//! {"cmd":"put"}        followed by ONE raw binary frame: the dataset in
//!                      the fairsel_table::codec column format; responds
//!                      with the dataset fingerprint (16 hex chars in
//!                      `body`), after which select/methods may address
//!                      the dataset as {"fp":"..."} — bytes instead of
//!                      megabytes on every warm request
//! {"cmd":"append", "fp":"<16-hex>"}
//!                      followed by ONE raw binary frame: a row batch in
//!                      the fairsel_table::codec append format (FSA1).
//!                      Extends the fingerprinted dataset into a *child*
//!                      dataset and responds with the child fingerprint in
//!                      `body`; the registry records the parent→child
//!                      lineage, so the first select/methods against the
//!                      child is born warm (parent session scaffolds are
//!                      extended instead of rebuilt) — only the appended
//!                      rows ever travel on the wire
//! {"cmd":"stats"}      server-wide registry + connection telemetry,
//!                      latency histograms, and spans_dropped
//! {"cmd":"trace", "last":64}
//!                      the last N completed trace spans as JSON (requires
//!                      the server's span sink, on by default for `serve`);
//!                      `last` must be an integer from 0 to 2^53, and an
//!                      answer holds at most `fairsel_obs::DEFAULT_SINK_CAP`
//!                      (4,096) spans, the most the sink keeps
//! {"cmd":"ping"}
//! {"cmd":"shutdown"}   stop accepting, drain in-flight, then exit
//! ```
//!
//! Responses: `{"ok":true, "body":..., "stats":..., "cache":...}`,
//! `{"ok":false, "error":"..."}`, or — when the server's `--max-conns`
//! admission cap sheds the connection — the structured busy error
//! `{"ok":false, "busy":true, "error":"..."}` so clients can tell
//! overload apart from a rejected request. The `body` of a `select` is
//! the deterministic selection + fairness report rendered by
//! `fairsel_core::render_pipeline_report` — byte-identical to a local run
//! of the same workload — and `cache` carries the per-dataset shared-cache
//! telemetry (fingerprint, sessions served, memo hits, encode
//! hits/misses/evictions).

use crate::json::Json;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload (64 MiB — a ~50 MB CSV still fits).
pub const MAX_FRAME: usize = 64 << 20;

/// Upper bound on a workload's `workers`. A session's worker pool grows to
/// the largest count any request asked for and keeps those OS threads for
/// the session's life, so the wire may not name an unbounded number.
/// Worker counts never change a selection, so the cap only bounds threads.
pub const MAX_WORKERS: usize = 64;
// The benchmarks drive workers 1/2/4/8.
const _: () = assert!(MAX_WORKERS >= 8);

/// Write one length-prefixed frame.
///
/// Header and payload leave in one write from one buffer. Sockets run
/// without `TCP_NODELAY`, so a separate 4-byte header write would hold the
/// payload back until the peer ACKs the header, and a peer that delays its
/// ACKs would stall ~40 ms on every frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame; `Ok(None)` on clean EOF before any length byte.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {n} exceeds MAX_FRAME"),
        ));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// Serialize and send one JSON frame.
pub fn write_json<W: Write>(w: &mut W, v: &Json) -> io::Result<()> {
    write_frame(w, v.to_string().as_bytes())
}

/// Parse one received frame: UTF-8 text holding one JSON document.
pub(crate) fn parse_json_frame(bytes: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("frame is not utf-8: {e}"))?;
    Json::parse(text).map_err(|e| e.to_string())
}

/// Receive and parse one JSON frame; `Ok(None)` on clean EOF.
pub fn read_json<R: Read>(r: &mut R) -> io::Result<Option<Json>> {
    read_frame(r)?
        .map(|bytes| parse_json_frame(&bytes))
        .transpose()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The GrpSel root-group width knob, mirroring the CLI's
/// `--max-group N|auto` (resolved server-side against the *train* split's
/// row count, exactly as a local run resolves it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaxGroupSpec {
    None,
    Auto,
    Width(usize),
}

impl MaxGroupSpec {
    fn to_json(self) -> Json {
        match self {
            MaxGroupSpec::None => Json::Null,
            MaxGroupSpec::Auto => Json::Str("auto".into()),
            MaxGroupSpec::Width(n) => Json::Num(n as f64),
        }
    }

    fn from_json(v: Option<&Json>) -> Result<Self, String> {
        match v {
            None | Some(Json::Null) => Ok(MaxGroupSpec::None),
            Some(Json::Str(s)) if s == "auto" => Ok(MaxGroupSpec::Auto),
            Some(Json::Num(n)) if *n >= 1.0 && n.fract() == 0.0 => {
                Ok(MaxGroupSpec::Width(*n as usize))
            }
            Some(other) => Err(format!("bad max_group: {other}")),
        }
    }
}

/// How a workload names its dataset: inline CSV text (the same bytes a
/// local run would read from disk — always works, ships the whole table)
/// or a fingerprint returned by a prior `put` (bytes instead of
/// megabytes; the server answers `unknown dataset fingerprint` if the
/// entry was evicted, and the client falls back to inline CSV).
#[derive(Clone, Debug, PartialEq)]
pub enum DatasetRef {
    Csv(String),
    Fp(u64),
}

impl DatasetRef {
    /// The inline CSV text, if that is how the dataset travels.
    pub fn as_csv(&self) -> Option<&str> {
        match self {
            DatasetRef::Csv(text) => Some(text),
            DatasetRef::Fp(_) => None,
        }
    }
}

/// One select/methods workload: the dataset reference plus every knob
/// that affects the deterministic output.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadRequest {
    pub dataset: DatasetRef,
    pub algo: String,
    pub tester: String,
    pub alpha: f64,
    pub workers: usize,
    pub max_group: MaxGroupSpec,
    pub train_frac: f64,
    pub seed: u64,
    pub classifier: String,
}

impl Default for WorkloadRequest {
    fn default() -> Self {
        Self {
            dataset: DatasetRef::Csv(String::new()),
            algo: "grpsel".into(),
            tester: "gtest".into(),
            alpha: 0.01,
            workers: 1,
            max_group: MaxGroupSpec::None,
            train_frac: 0.7,
            seed: 0,
            classifier: "logistic".into(),
        }
    }
}

impl WorkloadRequest {
    /// Workload over inline CSV text with default knobs — the common
    /// construction in tests and benches.
    pub fn with_csv(csv: impl Into<String>) -> Self {
        Self {
            dataset: DatasetRef::Csv(csv.into()),
            ..Default::default()
        }
    }

    fn to_json_fields(&self, cmd: &str) -> Json {
        let dataset = match &self.dataset {
            DatasetRef::Csv(text) => ("csv", Json::Str(text.clone())),
            // Like the response fingerprint: a full u64 travels as hex
            // text, never as a (lossy) JSON number.
            DatasetRef::Fp(fp) => ("fp", Json::Str(format!("{fp:016x}"))),
        };
        Json::obj(vec![
            ("cmd", Json::Str(cmd.into())),
            dataset,
            ("algo", Json::Str(self.algo.clone())),
            ("tester", Json::Str(self.tester.clone())),
            ("alpha", Json::Num(self.alpha)),
            ("workers", Json::Num(self.workers as f64)),
            ("max_group", self.max_group.to_json()),
            ("train_frac", Json::Num(self.train_frac)),
            // Seeds are full u64s; JSON numbers are f64 and would silently
            // round seeds above 2^53 — travel as a decimal string instead,
            // like the fingerprint.
            ("seed", Json::Str(self.seed.to_string())),
            ("classifier", Json::Str(self.classifier.clone())),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let d = WorkloadRequest::default();
        let seed = match v.get("seed") {
            None => d.seed,
            Some(Json::Str(s)) => s.parse::<u64>().map_err(|_| format!("bad seed: {s:?}"))?,
            // Tolerate small integer seeds from hand-written clients.
            Some(Json::Num(_)) => v.get_u64("seed").ok_or("bad seed: not a u64")?,
            Some(other) => return Err(format!("bad seed: {other}")),
        };
        let dataset = match (v.get_str("fp"), v.get_str("csv")) {
            (Some(hex), _) => DatasetRef::Fp(
                u64::from_str_radix(hex, 16).map_err(|_| format!("bad fp: {hex:?}"))?,
            ),
            (None, Some(text)) => DatasetRef::Csv(text.to_owned()),
            (None, None) => return Err("missing csv or fp".into()),
        };
        let workers = field(
            v,
            "workers",
            d.workers as u64,
            Json::get_u64,
            "a non-negative integer",
        )?;
        let workers = checked_workers(workers)?;
        let train_frac = field(v, "train_frac", d.train_frac, Json::get_num, "a number")?;
        if !valid_train_frac(train_frac) {
            return Err(format!(
                "train_frac must lie strictly between 0 and 1, got {train_frac}"
            ));
        }
        let alpha = field(v, "alpha", d.alpha, Json::get_num, "a number")?;
        if !valid_alpha(alpha) {
            return Err(format!(
                "alpha must lie strictly between 0 and 1, got {alpha}"
            ));
        }
        Ok(WorkloadRequest {
            dataset,
            algo: v.get_str("algo").unwrap_or(&d.algo).to_owned(),
            tester: v.get_str("tester").unwrap_or(&d.tester).to_owned(),
            alpha,
            workers,
            max_group: MaxGroupSpec::from_json(v.get("max_group"))?,
            train_frac,
            seed,
            classifier: v.get_str("classifier").unwrap_or(&d.classifier).to_owned(),
        })
    }
}

/// Field `key` as `read` takes it, `default` when absent; a present value
/// `read` refuses is an error naming the field, never the default.
fn field<T>(
    v: &Json,
    key: &str,
    default: T,
    read: fn(&Json, &str) -> Option<T>,
    what: &str,
) -> Result<T, String> {
    match v.get(key) {
        None => Ok(default),
        Some(raw) => read(v, key).ok_or_else(|| format!("{key} must be {what}, got {raw}")),
    }
}

/// `workers` unless it exceeds [`MAX_WORKERS`]. Shared by the wire decoder
/// and the CLI, so both refuse it in the same words before any work.
pub fn checked_workers(workers: u64) -> Result<usize, String> {
    (workers <= MAX_WORKERS as u64)
        .then_some(workers as usize)
        .ok_or_else(|| format!("workers {workers} exceeds the cap of {MAX_WORKERS}"))
}

/// Whether `f` can split a table: finite and strictly inside (0, 1), the
/// range `Table::split_rows_stable` asserts. Shared by the wire decoder and
/// the CLI so both reject what the split would panic on.
pub fn valid_train_frac(f: f64) -> bool {
    f > 0.0 && f < 1.0
}

/// Whether `a` is a usable significance level: finite and strictly inside
/// (0, 1), the range the data testers assert. Shared by the wire decoder
/// and the CLI so both reject what a tester would panic on.
pub fn valid_alpha(a: f64) -> bool {
    a > 0.0 && a < 1.0
}

/// A parsed request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Select(WorkloadRequest),
    Methods(WorkloadRequest),
    /// Dataset upload announcement. On the wire the `{"cmd":"put"}` frame
    /// is immediately followed by one **raw binary frame** holding the
    /// `fairsel_table::codec` payload — the payload is never JSON-encoded.
    Put,
    /// Streaming append: extend the dataset fingerprinted `fp` with a row
    /// batch. Like [`Request::Put`], the JSON frame is immediately
    /// followed by one **raw binary frame** — the `FSA1` append payload
    /// (`fairsel_table::codec::encode_row_batch`). Responds with the
    /// child dataset's fingerprint.
    Append {
        fp: u64,
    },
    Stats,
    /// The last `last` completed trace spans, most recent last. The
    /// response's `stats` object carries `spans` (an array of span
    /// objects) and `spans_dropped`.
    Trace {
        last: usize,
    },
    Ping,
    Shutdown,
}

/// Default span count for `{"cmd":"trace"}` without a `last` field.
pub const DEFAULT_TRACE_LAST: usize = 64;

impl Request {
    pub fn to_json(&self) -> Json {
        match self {
            Request::Select(w) => w.to_json_fields("select"),
            Request::Methods(w) => w.to_json_fields("methods"),
            Request::Put => Json::obj(vec![("cmd", Json::Str("put".into()))]),
            Request::Append { fp } => Json::obj(vec![
                ("cmd", Json::Str("append".into())),
                ("fp", Json::Str(format!("{fp:016x}"))),
            ]),
            Request::Stats => Json::obj(vec![("cmd", Json::Str("stats".into()))]),
            Request::Trace { last } => Json::obj(vec![
                ("cmd", Json::Str("trace".into())),
                ("last", Json::Num(*last as f64)),
            ]),
            Request::Ping => Json::obj(vec![("cmd", Json::Str("ping".into()))]),
            Request::Shutdown => Json::obj(vec![("cmd", Json::Str("shutdown".into()))]),
        }
    }

    pub fn from_json(v: &Json) -> Result<Request, String> {
        match v.get_str("cmd") {
            Some("select") => Ok(Request::Select(WorkloadRequest::from_json(v)?)),
            Some("methods") => Ok(Request::Methods(WorkloadRequest::from_json(v)?)),
            Some("put") => Ok(Request::Put),
            Some("append") => {
                let hex = v.get_str("fp").ok_or("append missing fp")?;
                let fp = u64::from_str_radix(hex, 16).map_err(|_| format!("bad fp: {hex:?}"))?;
                Ok(Request::Append { fp })
            }
            Some("stats") => Ok(Request::Stats),
            Some("trace") => Ok(Request::Trace {
                last: field(
                    v,
                    "last",
                    DEFAULT_TRACE_LAST as u64,
                    Json::get_u64,
                    "an integer from 0 to 2^53",
                )? as usize,
            }),
            Some("ping") => Ok(Request::Ping),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(format!("unknown cmd: {other}")),
            None => Err("missing cmd".into()),
        }
    }
}

/// Per-dataset shared-cache telemetry attached to a workload response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheInfo {
    /// Dataset fingerprint (hash of schema + column data).
    pub fingerprint: u64,
    /// Requests this dataset entry has served (including this one).
    pub sessions_served: u64,
    /// Cumulative CI outcomes answered from the shared session memo.
    pub shared_hits: u64,
    /// Cumulative encoding-layer cache hits.
    pub encode_hits: u64,
    /// Cumulative encoding-layer cache misses.
    pub encode_misses: u64,
    /// Cumulative encoding-layer evictions (LRU bound).
    pub encode_evictions: u64,
    /// Dataset entries evicted from the registry since startup.
    pub dataset_evictions: u64,
}

impl CacheInfo {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "fingerprint",
                Json::Str(format!("{:016x}", self.fingerprint)),
            ),
            ("sessions_served", Json::Num(self.sessions_served as f64)),
            ("shared_hits", Json::Num(self.shared_hits as f64)),
            ("encode_hits", Json::Num(self.encode_hits as f64)),
            ("encode_misses", Json::Num(self.encode_misses as f64)),
            ("encode_evictions", Json::Num(self.encode_evictions as f64)),
            (
                "dataset_evictions",
                Json::Num(self.dataset_evictions as f64),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Option<CacheInfo> {
        Some(CacheInfo {
            fingerprint: u64::from_str_radix(v.get_str("fingerprint")?, 16).ok()?,
            sessions_served: v.get_u64("sessions_served")?,
            shared_hits: v.get_u64("shared_hits")?,
            encode_hits: v.get_u64("encode_hits")?,
            encode_misses: v.get_u64("encode_misses")?,
            encode_evictions: v.get_u64("encode_evictions")?,
            dataset_evictions: v.get_u64("dataset_evictions")?,
        })
    }
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    Ok {
        /// Rendered text body (deterministic part of the output).
        body: String,
        /// Engine/server telemetry object (request-dependent).
        stats: Option<Json>,
        /// Shared-cache telemetry for workload requests.
        cache: Option<CacheInfo>,
    },
    /// The `--max-conns` admission cap shed this connection before any
    /// request was read: the workload was not rejected, the server is
    /// full — retry later or fall back to local execution.
    Busy,
    Err(String),
}

impl Response {
    pub fn ok(body: impl Into<String>) -> Response {
        Response::Ok {
            body: body.into(),
            stats: None,
            cache: None,
        }
    }

    pub fn to_json(&self) -> Json {
        match self {
            Response::Ok { body, stats, cache } => {
                let mut pairs = vec![("ok", Json::Bool(true)), ("body", Json::Str(body.clone()))];
                if let Some(s) = stats {
                    pairs.push(("stats", s.clone()));
                }
                if let Some(c) = cache {
                    pairs.push(("cache", c.to_json()));
                }
                Json::obj(pairs)
            }
            Response::Busy => Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("busy", Json::Bool(true)),
                (
                    "error",
                    Json::Str("server busy: connection limit reached".into()),
                ),
            ]),
            Response::Err(e) => Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::Str(e.clone())),
            ]),
        }
    }

    pub fn from_json(v: &Json) -> Result<Response, String> {
        match v.get_bool("ok") {
            Some(true) => Ok(Response::Ok {
                body: v.get_str("body").unwrap_or("").to_owned(),
                stats: v.get("stats").cloned(),
                cache: v.get("cache").and_then(CacheInfo::from_json),
            }),
            Some(false) if v.get_bool("busy") == Some(true) => Ok(Response::Busy),
            Some(false) => Ok(Response::Err(
                v.get_str("error").unwrap_or("unknown error").to_owned(),
            )),
            None => Err("response missing ok field".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    /// Records the length of every `write` call.
    struct WriteLog(Vec<usize>, Vec<u8>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.len());
            self.1.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_leaves_in_one_write() {
        for payload in [&b""[..], b"hello", &[7u8; 70_000]] {
            let mut log = WriteLog(Vec::new(), Vec::new());
            write_frame(&mut log, payload).unwrap();
            assert_eq!(log.0, vec![4 + payload.len()], "one write per frame");
            let mut r = io::Cursor::new(log.1);
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn truncated_frame_is_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err(), "mid-frame EOF is not clean");
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Select(WorkloadRequest {
                dataset: DatasetRef::Csv("s:cat2[sensitive],y:cat2[target]\n0,1\n".into()),
                algo: "seqsel".into(),
                tester: "fisherz".into(),
                alpha: 0.05,
                workers: 4,
                max_group: MaxGroupSpec::Auto,
                train_frac: 0.8,
                // Above 2^53: would corrupt silently if sent as a JSON
                // number.
                seed: u64::MAX - 12345,
                classifier: "tree".into(),
            }),
            // A fingerprint-addressed workload: a full u64 fingerprint
            // (high bit set) travels as hex text.
            Request::Select(WorkloadRequest {
                dataset: DatasetRef::Fp(0xfeed_beef_8000_0001),
                ..Default::default()
            }),
            Request::Methods(WorkloadRequest {
                dataset: DatasetRef::Csv("x".into()),
                max_group: MaxGroupSpec::Width(6),
                ..Default::default()
            }),
            Request::Put,
            // A full-u64 fingerprint (high bit set) must survive the hex
            // round trip on append too.
            Request::Append {
                fp: 0xfeed_beef_8000_0001,
            },
            Request::Stats,
            Request::Trace { last: 200 },
            Request::Ping,
            Request::Shutdown,
        ];
        for req in reqs {
            let j = req.to_json();
            let text = j.to_string();
            let back = Request::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(req, back);
        }
    }

    /// Older clients send `"speculate"` in every select frame. The
    /// decoder ignores keys it does not read, so that frame — and one
    /// with any other unknown key — decodes to exactly the request the
    /// frame without them does.
    #[test]
    fn select_frames_with_unread_keys_decode_unchanged() {
        let req = Request::Select(WorkloadRequest {
            dataset: DatasetRef::Fp(0x00c0_ffee_0000_0001),
            workers: 2,
            max_group: MaxGroupSpec::Auto,
            ..Default::default()
        });
        let plain = req.to_json().to_string();
        assert!(!plain.contains("speculate"), "{plain}");
        let older = format!(
            "{},\"speculate\":true,\"frobnicate\":[1,2]}}",
            plain.strip_suffix('}').expect("object frame")
        );
        let decode = |text: &str| Request::from_json(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(decode(&older), decode(&plain));
        assert_eq!(decode(&older), req);
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Ok {
                body: "== selection ==\nline\n".into(),
                stats: Some(Json::obj(vec![("issued", Json::Num(7.0))])),
                cache: Some(CacheInfo {
                    fingerprint: 0xdead_beef_0123_4567,
                    sessions_served: 2,
                    shared_hits: 41,
                    encode_hits: 10,
                    encode_misses: 3,
                    encode_evictions: 1,
                    dataset_evictions: 0,
                }),
            },
            Response::ok("pong"),
            Response::Busy,
            Response::Err("bad csv".into()),
        ];
        for resp in resps {
            let text = resp.to_json().to_string();
            let back = Response::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(resp, back);
        }
    }

    #[test]
    fn out_of_range_train_frac_and_workers_rejected() {
        let select = |fields: &str| {
            let text = format!(r#"{{"cmd":"select","fp":"00000000000000ff",{fields}}}"#);
            Request::from_json(&Json::parse(&text).unwrap())
        };
        for bad in ["0", "1", "1.5", "-0.2", "1e400"] {
            let err = select(&format!(r#""train_frac":{bad}"#)).unwrap_err();
            assert!(err.contains("train_frac"), "train_frac {bad}: {err}");
        }
        for bad in ["0", "1", "1.5", "-0.1", "1e400"] {
            let err = select(&format!(r#""alpha":{bad}"#)).unwrap_err();
            assert!(err.contains("alpha"), "alpha {bad}: {err}");
        }
        let err = select(&format!(r#""workers":{}"#, MAX_WORKERS + 1)).unwrap_err();
        assert!(err.contains("workers"), "{err}");
        // The bounds themselves are accepted.
        assert!(select(&format!(r#""workers":{MAX_WORKERS},"train_frac":0.5"#)).is_ok());
        assert!(select(r#""train_frac":0.999"#).is_ok());
        assert!(select(r#""alpha":0.999"#).is_ok());
        assert!(select(r#""alpha":1e-300"#).is_ok());
    }

    #[test]
    fn trace_without_last_uses_default() {
        let v = Json::parse(r#"{"cmd":"trace"}"#).unwrap();
        assert_eq!(
            Request::from_json(&v).unwrap(),
            Request::Trace {
                last: DEFAULT_TRACE_LAST
            }
        );
    }

    #[test]
    fn unknown_cmd_rejected() {
        let v = Json::parse(r#"{"cmd":"explode"}"#).unwrap();
        assert!(Request::from_json(&v).is_err());
        let v = Json::parse(r#"{"cmd":"select"}"#).unwrap();
        assert!(
            Request::from_json(&v).is_err(),
            "select without csv and fp must be rejected"
        );
        let v = Json::parse(r#"{"cmd":"select","fp":"not hex"}"#).unwrap();
        assert!(Request::from_json(&v).is_err(), "malformed fp rejected");
        let v = Json::parse(r#"{"cmd":"append"}"#).unwrap();
        assert!(
            Request::from_json(&v).is_err(),
            "append without fp must be rejected"
        );
        let v = Json::parse(r#"{"cmd":"append","fp":"zz"}"#).unwrap();
        assert!(Request::from_json(&v).is_err(), "malformed append fp");
    }

    /// The busy response is structurally distinguishable from a plain
    /// error: clients must be able to tell "server full, retry later"
    /// apart from "request rejected".
    #[test]
    fn busy_response_is_structured() {
        let text = Response::Busy.to_json().to_string();
        assert!(text.contains("\"busy\":true"), "{text}");
        assert!(text.contains("\"ok\":false"), "{text}");
        let back = Response::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, Response::Busy);
        // A plain error without the busy marker stays an Err.
        let plain = Response::Err("busy".into()).to_json().to_string();
        let back = Response::from_json(&Json::parse(&plain).unwrap()).unwrap();
        assert_eq!(back, Response::Err("busy".into()));
    }

    /// A warm fingerprint-addressed `select` frame must stay tiny — the
    /// point of `put` is that repeat requests ship bytes, not megabytes.
    #[test]
    fn fp_addressed_select_frame_is_under_1_kib() {
        let req = Request::Select(WorkloadRequest {
            dataset: DatasetRef::Fp(u64::MAX),
            max_group: MaxGroupSpec::Auto,
            ..Default::default()
        });
        let frame_bytes = req.to_json().to_string().len() + 4;
        assert!(frame_bytes < 1024, "fp select frame is {frame_bytes} bytes");
    }
}
