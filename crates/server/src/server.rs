//! The TCP server and the one-shot client.
//!
//! `fairsel serve` runs a **bounded acceptor**: a fixed pool of handler
//! threads (`--conn-workers`, default `max(4, cores)`) pulls accepted
//! sockets from a queue, and a hard admission cap (`--max-conns`,
//! default 2 × the pool) sheds every connection past it with a
//! structured `busy` error the moment it is accepted. Admitted
//! connections may briefly wait for a free handler — a bounded burst
//! buffer of at most `max_conns - conn_workers` sockets — but nothing
//! ever queues past the cap, and the shed client learns immediately
//! instead of hanging. Each admitted connection may issue any number of
//! length-prefixed JSON requests (see [`crate::proto`]); all workload
//! state lives in the shared [`Registry`], so every connection — and
//! every request within one — sees the same fingerprint-sharded
//! sessions.
//!
//! Shutdown is a graceful drain: stop accepting, finish in-flight
//! requests (each handler closes its connection after the request it is
//! currently serving), then join the pool. Persistent accept errors
//! (e.g. EMFILE under fd exhaustion) back off exponentially instead of
//! busy-spinning, and a consecutive-error cap turns a dead listener into
//! a clean error exit.

use crate::json::Json;
use crate::proto::{parse_json_frame, read_frame, read_json, write_json, Request, Response};
use crate::registry::{Registry, RegistryConfig};
use fairsel_obs::TrackedMutex;
use fairsel_obs::{CompletedSpan, HistSnapshot, Histogram};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// Per-connection I/O timeout: a stalled client cannot pin a handler
/// thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Consecutive accept failures tolerated before the accept loop gives up
/// and exits with the error (a listener that only ever errors is dead;
/// spinning on it burns a core forever).
const MAX_CONSECUTIVE_ACCEPT_ERRORS: u32 = 64;

/// Default handler-pool size: `max(4, cores)`.
pub fn default_conn_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(4)
}

/// Bounded backoff before retrying a failed `accept`: exponential from
/// 1 ms, capped at 128 ms; `None` once [`MAX_CONSECUTIVE_ACCEPT_ERRORS`]
/// is exceeded (caller must exit the loop). `consecutive` is 1-based.
fn accept_backoff(consecutive: u32) -> Option<Duration> {
    if consecutive > MAX_CONSECUTIVE_ACCEPT_ERRORS {
        return None;
    }
    let exp = consecutive.saturating_sub(1).min(7);
    Some(Duration::from_millis(1u64 << exp))
}

/// The address the server can reach *itself* at. Binding `0.0.0.0:p` (or
/// `[::]:p`) yields an unspecified local address; connecting to it is
/// platform-dependent (it fails outright on some systems), so the
/// shutdown wake-up and the handle's control requests go to the loopback
/// of the same family instead.
fn self_addr(bound: &SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        let ip: IpAddr = match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        };
        SocketAddr::new(ip, bound.port())
    } else {
        *bound
    }
}

/// Server configuration (see [`RegistryConfig`] for the cache knobs).
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    pub registry: RegistryConfig,
    /// Handler threads serving admitted connections; `0` means
    /// [`default_conn_workers`].
    pub conn_workers: usize,
    /// Hard cap on concurrently admitted connections; one past the cap
    /// is shed with [`Response::Busy`]. `0` means twice the handler
    /// pool — every admitted connection is at worst one handler
    /// turnaround away from service, so the cap never degenerates into
    /// a long silent queue.
    pub max_conns: usize,
    /// Enable the process-wide span sink at bind time, so
    /// `{"cmd":"trace"}` returns request/engine spans. On by default;
    /// binding never *disables* an already-enabled sink (selections and
    /// counters are byte-identical either way — tracing only records
    /// timing). Latency histograms are exact counters and always on.
    pub trace_spans: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            registry: RegistryConfig::default(),
            conn_workers: 0,
            max_conns: 0,
            trace_spans: true,
        }
    }
}

/// Accepted sockets waiting for a handler, each stamped with its accept
/// time so queue wait (accept → handler pickup) is measured separately
/// from handler time.
struct ConnQueue {
    // analyze: bounded-by admission cap max_conns sheds before enqueue
    queue: TrackedMutex<VecDeque<(TcpStream, Instant)>>,
    ready: Condvar,
}

/// Request-latency histograms: one per command, one aggregate, and the
/// admission queue wait. All values are recorded in microseconds;
/// exposition converts to ms. Owned by the server (not the process-wide
/// registry) so concurrent servers in one process don't mix counts.
struct CmdHists {
    select: Histogram,
    methods: Histogram,
    put: Histogram,
    append: Histogram,
    stats: Histogram,
    trace: Histogram,
    ping: Histogram,
    shutdown: Histogram,
    error: Histogram,
    all: Histogram,
    queue_wait: Histogram,
}

impl CmdHists {
    fn new() -> Self {
        Self {
            select: Histogram::new(),
            methods: Histogram::new(),
            put: Histogram::new(),
            append: Histogram::new(),
            stats: Histogram::new(),
            trace: Histogram::new(),
            ping: Histogram::new(),
            shutdown: Histogram::new(),
            error: Histogram::new(),
            all: Histogram::new(),
            queue_wait: Histogram::new(),
        }
    }

    fn for_cmd(&self, cmd: &str) -> &Histogram {
        match cmd {
            "select" => &self.select,
            "methods" => &self.methods,
            "put" => &self.put,
            "append" => &self.append,
            "stats" => &self.stats,
            "trace" => &self.trace,
            "ping" => &self.ping,
            "shutdown" => &self.shutdown,
            _ => &self.error,
        }
    }

    /// Every histogram with its exposition name (`base/label`; the
    /// Prometheus renderer maps the label to `{cmd="..."}`).
    fn named(&self) -> [(&'static str, &Histogram); 11] {
        [
            ("request_wall/select", &self.select),
            ("request_wall/methods", &self.methods),
            ("request_wall/put", &self.put),
            ("request_wall/append", &self.append),
            ("request_wall/stats", &self.stats),
            ("request_wall/trace", &self.trace),
            ("request_wall/ping", &self.ping),
            ("request_wall/shutdown", &self.shutdown),
            ("request_wall/error", &self.error),
            ("request_wall/all", &self.all),
            ("queue_wait", &self.queue_wait),
        ]
    }
}

struct ServerState {
    registry: Registry,
    stop: AtomicBool,
    addr: SocketAddr,
    conns: ConnQueue,
    max_conns: u64,
    /// Admitted connections not yet finished (queued or being served).
    active_conns: AtomicU64,
    /// Connections refused by the admission cap.
    shed_conns: AtomicU64,
    /// Connections admitted since startup.
    accepted_conns: AtomicU64,
    /// Request frames handled (every command, including ping/stats).
    requests_handled: AtomicU64,
    /// Cumulative request handling wall time, microseconds.
    request_wall_us: AtomicU64,
    /// Cumulative admission queue wait (accept → handler pickup), µs.
    queue_wait_us: AtomicU64,
    /// Per-command and queue-wait latency distributions.
    hists: CmdHists,
    /// Bytes read from / written to clients (frame headers included).
    bytes_rx: AtomicU64,
    bytes_tx: AtomicU64,
    /// Duplicated handles of connections currently being served, so the
    /// drain can wake handlers parked in `read` on idle keep-alive
    /// clients (shut the read side ⇒ EOF) instead of waiting out
    /// [`IO_TIMEOUT`]. Keyed by a serial id; entries live exactly as
    /// long as `handle_connection` runs.
    // analyze: bounded-by at most conn_workers live entries; removed when the handler returns
    serving: TrackedMutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

/// A [`Read`]+[`Write`] view of a connection that feeds the server-wide
/// byte counters — `bytes_rx`/`bytes_tx` in `stats` measure real traffic,
/// frame headers included.
struct Metered<'a> {
    stream: &'a TcpStream,
    state: &'a ServerState,
}

impl Read for Metered<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.state.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl Write for Metered<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.stream.write(buf)?;
        self.state.bytes_tx.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    conn_workers: usize,
}

impl Server {
    /// Bind an address (`127.0.0.1:0` picks an ephemeral port — how tests
    /// and benches run hermetically).
    pub fn bind(addr: &str, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let conn_workers = if cfg.conn_workers == 0 {
            default_conn_workers()
        } else {
            cfg.conn_workers
        };
        let max_conns = if cfg.max_conns == 0 {
            conn_workers * 2
        } else {
            cfg.max_conns
        };
        if cfg.trace_spans {
            fairsel_obs::set_enabled(true);
        }
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                registry: Registry::new(cfg.registry),
                stop: AtomicBool::new(false),
                addr,
                conns: ConnQueue {
                    queue: TrackedMutex::new("server.conn_queue", VecDeque::new()),
                    ready: Condvar::new(),
                },
                max_conns: max_conns.max(1) as u64,
                active_conns: AtomicU64::new(0),
                shed_conns: AtomicU64::new(0),
                accepted_conns: AtomicU64::new(0),
                requests_handled: AtomicU64::new(0),
                request_wall_us: AtomicU64::new(0),
                queue_wait_us: AtomicU64::new(0),
                hists: CmdHists::new(),
                bytes_rx: AtomicU64::new(0),
                bytes_tx: AtomicU64::new(0),
                serving: TrackedMutex::new("server.serving", HashMap::new()),
                next_conn_id: AtomicU64::new(0),
            }),
            conn_workers,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The effective handler-pool size (after defaulting).
    pub fn conn_workers(&self) -> usize {
        self.conn_workers
    }

    /// The effective admission cap (after defaulting).
    pub fn max_conns(&self) -> usize {
        self.state.max_conns as usize
    }

    /// Accept-and-dispatch loop; returns after a `shutdown` request has
    /// drained, or with an error after persistent accept failures.
    pub fn run(self) -> io::Result<()> {
        let handlers: Vec<_> = (0..self.conn_workers)
            .map(|_| {
                let state = Arc::clone(&self.state);
                std::thread::spawn(move || handler_loop(&state))
            })
            .collect();

        let mut accept_result = Ok(());
        let mut consecutive_errors = 0u32;
        for stream in self.listener.incoming() {
            if self.state.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => {
                    consecutive_errors = 0;
                    s
                }
                Err(e) => {
                    consecutive_errors += 1;
                    match accept_backoff(consecutive_errors) {
                        Some(delay) => {
                            std::thread::sleep(delay);
                            continue;
                        }
                        None => {
                            // The listener is persistently broken; stop
                            // serving rather than spin at 100% CPU.
                            self.state.stop.store(true, Ordering::SeqCst);
                            accept_result = Err(e);
                            break;
                        }
                    }
                }
            };
            // Admission control: shed instead of queueing past the cap.
            // Only this thread admits, so load-then-add cannot overshoot.
            if self.state.active_conns.load(Ordering::SeqCst) >= self.state.max_conns {
                shed(stream, &self.state);
                continue;
            }
            self.state.active_conns.fetch_add(1, Ordering::SeqCst);
            self.state.accepted_conns.fetch_add(1, Ordering::Relaxed);
            let mut q = self.state.conns.queue.lock();
            q.push_back((stream, Instant::now()));
            drop(q);
            self.state.conns.ready.notify_one();
        }

        // Graceful drain: stop accepting (release the port first so
        // clients see refusals, not hangs), wake handlers parked on idle
        // keep-alive connections by shutting the read side (their next
        // read sees EOF; in-flight responses still write), let every
        // in-flight request finish, then join the pool.
        self.state.stop.store(true, Ordering::SeqCst);
        drop(self.listener);
        for conn in self.state.serving.lock().values() {
            let _ = conn.shutdown(std::net::Shutdown::Read);
        }
        self.state.conns.ready.notify_all();
        for h in handlers {
            let _ = h.join();
        }
        accept_result
    }

    /// Run on a background thread; the handle shuts the server down
    /// cleanly on request (used by tests and the bench harness).
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let state = Arc::clone(&self.state);
        let thread = std::thread::spawn(move || {
            let _ = self.run();
        });
        ServerHandle {
            addr,
            state,
            thread,
        }
    }
}

/// Handle to a background server.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the server and join the accept loop. Sets the stop flag
    /// directly rather than sending a `shutdown` request: a wire request
    /// is an ordinary connection subject to the `--max-conns` admission
    /// cap, and a saturated server would shed it — deadlocking the join.
    /// The loopback connect (which also works on a `0.0.0.0` bind) only
    /// wakes the blocked `accept`; being shed is fine, the wake happened.
    pub fn shutdown(self) {
        self.state.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self_addr(&self.addr), Duration::from_secs(1));
        let _ = self.thread.join();
    }
}

/// One handler thread: pull admitted sockets off the queue until the
/// server drains. Sockets admitted before shutdown but not yet served
/// when it begins are closed unserved (the drain contract is to finish
/// *in-flight requests*, not to start new conversations).
fn handler_loop(state: &Arc<ServerState>) {
    loop {
        let stream = {
            let mut q = state.conns.queue.lock();
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if state.stop.load(Ordering::SeqCst) {
                    break None;
                }
                q = state.conns.queue.wait(&state.conns.ready, q);
            }
        };
        let Some((stream, accepted_at)) = stream else {
            return;
        };
        // Queue wait = accept → this pickup, the signal for tuning
        // `--max-conns` against handler-pool saturation. Distinct from
        // handler time, which starts below.
        let wait_us = accepted_at.elapsed().as_micros() as u64;
        state.queue_wait_us.fetch_add(wait_us, Ordering::Relaxed);
        state.hists.queue_wait.record(wait_us);
        if fairsel_obs::enabled() {
            fairsel_obs::record_span_at(
                "server.queue_wait",
                fairsel_obs::now_us().saturating_sub(wait_us),
                wait_us,
                Vec::new(),
            );
        }
        if !state.stop.load(Ordering::SeqCst) {
            serve_connection(stream, state);
        }
        state.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serve one connection to completion, registered in the drain set and
/// shielded against panics: a request that panics costs this connection
/// only, never the handler thread or the `active_conns` accounting (with
/// a thread-per-connection design a panic was naturally confined; the
/// pool must confine it explicitly).
fn serve_connection(stream: TcpStream, state: &Arc<ServerState>) {
    let id = state.next_conn_id.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        state.serving.lock().insert(id, clone);
    }
    // Close the race with the drain sweep: if stop landed between the
    // handler's check and this registration, the sweep may have already
    // run — shut our own read side so the first read sees EOF.
    if state.stop.load(Ordering::SeqCst) {
        let _ = stream.shutdown(std::net::Shutdown::Read);
    }
    // A panic is already reported by the panic hook; the connection dies
    // with it, the server keeps serving.
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = handle_connection(stream, state);
    }));
    state.serving.lock().remove(&id);
}

/// Refuse a connection at the admission cap: one structured `busy` frame,
/// then close. The short write timeout keeps a slow client from pinning
/// the acceptor thread.
fn shed(stream: TcpStream, state: &ServerState) {
    state.shed_conns.fetch_add(1, Ordering::SeqCst);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut io = Metered {
        stream: &stream,
        state,
    };
    let _ = write_json(&mut io, &Response::Busy.to_json());
}

fn handle_connection(stream: TcpStream, state: &ServerState) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut io = Metered {
        stream: &stream,
        state,
    };
    while let Some(frame) = read_frame(&mut io)? {
        let t0 = Instant::now();
        // A frame that is not UTF-8 JSON is answered like any other bad
        // request; only I/O errors end the connection.
        let value = parse_json_frame(&frame);
        // Label from the raw frame so the request span and histogram
        // bucket are right even when full parsing fails.
        let cmd = cmd_label(value.as_ref().ok().and_then(|v| v.get_str("cmd")));
        let _req_span = fairsel_obs::span_kv("server.request", || vec![("cmd", cmd.into())]);
        let parsed = {
            let _sp = fairsel_obs::span("server.parse");
            value
                .map_err(|e| format!("malformed request frame: {e}"))
                .and_then(|v| Request::from_json(&v))
        };
        let (response, stop) = match parsed {
            Err(e) => (Response::Err(e), false),
            Ok(Request::Ping) => (Response::ok("pong"), false),
            Ok(Request::Stats) => (stats_response(state), false),
            Ok(Request::Trace { last }) => (trace_response(last), false),
            Ok(Request::Shutdown) => (Response::ok("shutting down"), true),
            Ok(Request::Put) => match read_frame(&mut io)? {
                // EOF where the payload frame belongs: client hung up.
                None => return Ok(()),
                Some(bytes) => (put_response(&bytes, state), false),
            },
            Ok(Request::Append { fp }) => match read_frame(&mut io)? {
                None => return Ok(()),
                Some(bytes) => (append_response(fp, &bytes, state), false),
            },
            Ok(Request::Select(req)) => (
                match state.registry.select(&req) {
                    Ok((body, stats_json, cache)) => {
                        let stats = Json::parse(&stats_json).ok();
                        Response::Ok {
                            body,
                            stats,
                            cache: Some(cache),
                        }
                    }
                    Err(e) => Response::Err(e),
                },
                false,
            ),
            Ok(Request::Methods(req)) => (
                match state.registry.methods(&req) {
                    Ok((body, stats_json, cache)) => {
                        let stats = Json::parse(&stats_json).ok();
                        Response::Ok {
                            body,
                            stats,
                            cache: Some(cache),
                        }
                    }
                    Err(e) => Response::Err(e),
                },
                false,
            ),
        };
        {
            let _sp = fairsel_obs::span("server.respond");
            write_json(&mut io, &response.to_json())?;
        }
        let wall_us = t0.elapsed().as_micros() as u64;
        state.request_wall_us.fetch_add(wall_us, Ordering::Relaxed);
        state.hists.for_cmd(cmd).record(wall_us);
        state.hists.all.record(wall_us);
        state.requests_handled.fetch_add(1, Ordering::Relaxed);
        drop(_req_span);
        if stop {
            state.stop.store(true, Ordering::SeqCst);
            // Wake the blocked accept with a throwaway loopback
            // connection so the loop observes the flag and exits (the
            // bound address itself may be unspecified — `0.0.0.0`).
            let _ = TcpStream::connect_timeout(&self_addr(&state.addr), Duration::from_secs(1));
            break;
        }
        if state.stop.load(Ordering::SeqCst) {
            // Draining: this request was in flight and finished; do not
            // start another conversation on this connection.
            break;
        }
    }
    Ok(())
}

fn put_response(bytes: &[u8], state: &ServerState) -> Response {
    let table = match fairsel_table::decode_table(bytes) {
        Ok(t) => t,
        Err(e) => return Response::Err(format!("decoding dataset: {e}")),
    };
    match state.registry.put(table) {
        Ok(fp) => Response::Ok {
            body: format!("{fp:016x}"),
            stats: Some(Json::obj(vec![
                ("fingerprint", Json::Str(format!("{fp:016x}"))),
                ("bytes", Json::Num(bytes.len() as f64)),
                (
                    "resident_puts",
                    Json::Num(state.registry.resident_puts() as f64),
                ),
            ])),
            cache: None,
        },
        Err(e) => Response::Err(e),
    }
}

/// `{"cmd":"append","fp":...}` + one raw batch frame: extend the
/// fingerprinted dataset with the decoded rows. Only the appended rows
/// travel; the response body is the *child* fingerprint, and the
/// recorded lineage means the first select on the child is born warm
/// from the parent's session.
fn append_response(fp: u64, bytes: &[u8], state: &ServerState) -> Response {
    // Append payloads carry the dedicated `FSA1` row-batch magic — a
    // `put` table frame sent here (or vice versa) fails the magic check
    // instead of being silently interpreted as the wrong thing.
    let batch = match fairsel_table::decode_row_batch(bytes) {
        Ok(t) => t,
        Err(e) => return Response::Err(format!("decoding append batch: {e}")),
    };
    let batch_rows = batch.n_rows();
    match state.registry.append(fp, batch) {
        Ok((child_fp, rows)) => Response::Ok {
            body: format!("{child_fp:016x}"),
            stats: Some(Json::obj(vec![
                ("fingerprint", Json::Str(format!("{child_fp:016x}"))),
                ("parent", Json::Str(format!("{fp:016x}"))),
                ("bytes", Json::Num(bytes.len() as f64)),
                ("batch_rows", Json::Num(batch_rows as f64)),
                ("rows", Json::Num(rows as f64)),
                (
                    "resident_puts",
                    Json::Num(state.registry.resident_puts() as f64),
                ),
            ])),
            cache: None,
        },
        Err(e) => Response::Err(e),
    }
}

/// Static command label for spans and histogram routing; unknown or
/// missing commands land in the `error` bucket.
fn cmd_label(cmd: Option<&str>) -> &'static str {
    match cmd {
        Some("select") => "select",
        Some("methods") => "methods",
        Some("put") => "put",
        Some("append") => "append",
        Some("stats") => "stats",
        Some("trace") => "trace",
        Some("ping") => "ping",
        Some("shutdown") => "shutdown",
        _ => "error",
    }
}

/// One completed span as a JSON object (kv omitted when empty).
fn span_json(s: &CompletedSpan) -> Json {
    let mut pairs = vec![
        ("id", Json::Num(s.id as f64)),
        ("parent", Json::Num(s.parent as f64)),
        ("thread", Json::Num(s.thread as f64)),
        ("name", Json::Str(s.name.into())),
        ("start_us", Json::Num(s.start_us as f64)),
        ("dur_us", Json::Num(s.dur_us as f64)),
    ];
    if !s.kv.is_empty() {
        pairs.push((
            "kv",
            Json::obj(
                s.kv.iter()
                    .map(|(k, v)| (*k, Json::Str(v.clone())))
                    .collect(),
            ),
        ));
    }
    Json::obj(pairs)
}

/// `{"cmd":"trace"}`: the last `last` completed spans from the global
/// sink, ordered by start time, plus the exact eviction count.
fn trace_response(last: usize) -> Response {
    let sink = fairsel_obs::sink();
    let spans: Vec<Json> = sink
        .recent(last.min(fairsel_obs::DEFAULT_SINK_CAP))
        .iter()
        .map(span_json)
        .collect();
    Response::Ok {
        body: String::new(),
        stats: Some(Json::obj(vec![
            ("spans", Json::Arr(spans)),
            ("spans_dropped", Json::Num(sink.dropped() as f64)),
            ("trace_enabled", Json::Bool(sink.enabled())),
        ])),
        cache: None,
    }
}

/// One histogram snapshot as JSON: exact count/sum/max (µs), the
/// percentile edges, and the non-empty buckets as `[upper_edge_us,
/// count]` pairs in ascending order.
fn hist_json(s: &HistSnapshot) -> Json {
    Json::obj(vec![
        ("count", Json::Num(s.count as f64)),
        ("sum_us", Json::Num(s.sum as f64)),
        ("max_us", Json::Num(s.max as f64)),
        ("p50_us", Json::Num(s.p50() as f64)),
        ("p95_us", Json::Num(s.p95() as f64)),
        ("p99_us", Json::Num(s.p99() as f64)),
        (
            "buckets",
            Json::Arr(
                s.nonzero_buckets()
                    .into_iter()
                    .map(|(le, c)| Json::Arr(vec![Json::Num(le as f64), Json::Num(c as f64)]))
                    .collect(),
            ),
        ),
    ])
}

/// Every latency histogram by name: this server's per-command and
/// queue-wait distributions plus the process-wide registry (engine batch
/// kinds), name-sorted.
fn histograms_json(state: &ServerState) -> Json {
    let mut items: Vec<(String, HistSnapshot)> = state
        .hists
        .named()
        .iter()
        .map(|(name, h)| (name.to_string(), h.snapshot()))
        .collect();
    items.extend(fairsel_obs::histograms_snapshot());
    items.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Obj(
        items
            .into_iter()
            .map(|(name, snap)| (name, hist_json(&snap)))
            .collect(),
    )
}

fn stats_response(state: &ServerState) -> Response {
    let r = &state.registry;
    let handled = state.requests_handled.load(Ordering::Relaxed);
    let wall_ms = state.request_wall_us.load(Ordering::Relaxed) as f64 / 1e3;
    let wall = state.hists.all.snapshot();
    let qwait = state.hists.queue_wait.snapshot();
    Response::Ok {
        body: String::new(),
        stats: Some(Json::obj(vec![
            ("resident_datasets", Json::Num(r.resident() as f64)),
            ("resident_puts", Json::Num(r.resident_puts() as f64)),
            ("requests", Json::Num(r.requests() as f64)),
            ("dataset_evictions", Json::Num(r.evictions() as f64)),
            ("put_evictions", Json::Num(r.put_evictions() as f64)),
            ("warm_children", Json::Num(r.warm_children() as f64)),
            ("memo_patched_total", Json::Num(r.memo_patched() as f64)),
            (
                "memo_invalidated_total",
                Json::Num(r.memo_invalidated() as f64),
            ),
            ("report_memo_hits", Json::Num(r.report_memo_hits() as f64)),
            (
                "report_memo_misses",
                Json::Num(r.report_memo_misses() as f64),
            ),
            (
                "report_memo_evictions",
                Json::Num(r.report_memo_evictions() as f64),
            ),
            (
                "active_conns",
                Json::Num(state.active_conns.load(Ordering::SeqCst) as f64),
            ),
            (
                "shed_conns",
                Json::Num(state.shed_conns.load(Ordering::SeqCst) as f64),
            ),
            (
                "accepted_conns",
                Json::Num(state.accepted_conns.load(Ordering::Relaxed) as f64),
            ),
            ("max_conns", Json::Num(state.max_conns as f64)),
            (
                "bytes_rx",
                Json::Num(state.bytes_rx.load(Ordering::Relaxed) as f64),
            ),
            (
                "bytes_tx",
                Json::Num(state.bytes_tx.load(Ordering::Relaxed) as f64),
            ),
            ("requests_handled", Json::Num(handled as f64)),
            ("request_wall_ms", Json::Num(wall_ms)),
            // Lifetime-cumulative mean, kept for compatibility; it hides
            // tail latency — prefer the histogram percentiles below.
            (
                "avg_request_wall_ms",
                Json::Num(if handled == 0 {
                    0.0
                } else {
                    wall_ms / handled as f64
                }),
            ),
            ("request_wall_p50_ms", Json::Num(wall.p50() as f64 / 1e3)),
            ("request_wall_p95_ms", Json::Num(wall.p95() as f64 / 1e3)),
            ("request_wall_p99_ms", Json::Num(wall.p99() as f64 / 1e3)),
            ("request_wall_max_ms", Json::Num(wall.max as f64 / 1e3)),
            // Admission queue wait (accept → handler pickup), separate
            // from handler time: the `--max-conns` tuning signal.
            (
                "queue_wait_ms",
                Json::Num(state.queue_wait_us.load(Ordering::Relaxed) as f64 / 1e3),
            ),
            ("queue_wait_p50_ms", Json::Num(qwait.p50() as f64 / 1e3)),
            ("queue_wait_p95_ms", Json::Num(qwait.p95() as f64 / 1e3)),
            ("queue_wait_p99_ms", Json::Num(qwait.p99() as f64 / 1e3)),
            ("queue_wait_max_ms", Json::Num(qwait.max as f64 / 1e3)),
            (
                "pool_busy_ms",
                Json::Num(fairsel_obs::counter("engine_pool_busy_us").get() as f64 / 1e3),
            ),
            (
                "spans_dropped",
                Json::Num(fairsel_obs::sink().dropped() as f64),
            ),
            ("trace_enabled", Json::Bool(fairsel_obs::enabled())),
            ("histograms", histograms_json(state)),
        ])),
        cache: None,
    }
}

/// One-shot client: connect, send one request, read one response. The
/// CLI's `--remote` path and the bench harness both use this; a connect
/// failure surfaces as `Err`, which the CLI treats as "fall back to local
/// execution".
pub fn request(addr: &str, req: &Request) -> io::Result<Response> {
    request_raw(addr, req.to_json().to_string().as_bytes())
}

/// [`request`] over an already-serialized request payload — for callers
/// that measured or cached the frame bytes and should not pay a second
/// serialization (the CLI's transport telemetry does).
pub fn request_raw(addr: &str, payload: &[u8]) -> io::Result<Response> {
    let mut stream = connect(addr)?;
    crate::proto::write_frame(&mut stream, payload)?;
    read_response(&mut stream)
}

/// One-shot dataset upload: send `put` plus the raw
/// [`fairsel_table::codec`] payload, and return the server's response
/// (`body` is the dataset fingerprint as 16 hex chars on success).
pub fn put_dataset(addr: &str, codec_bytes: &[u8]) -> io::Result<Response> {
    let mut stream = connect(addr)?;
    write_json(&mut stream, &Request::Put.to_json())?;
    crate::proto::write_frame(&mut stream, codec_bytes)?;
    read_response(&mut stream)
}

/// One-shot streaming append: send `{"cmd":"append","fp":...}` plus the
/// raw codec payload of the row batch, and return the server's response
/// (`body` is the *child* dataset fingerprint as 16 hex chars on
/// success). Only the appended rows travel the wire.
pub fn append_rows(addr: &str, fp: u64, codec_bytes: &[u8]) -> io::Result<Response> {
    let mut stream = connect(addr)?;
    write_json(&mut stream, &Request::Append { fp }.to_json())?;
    crate::proto::write_frame(&mut stream, codec_bytes)?;
    read_response(&mut stream)
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let stream = TcpStream::connect_timeout(&sock, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

fn read_response(stream: &mut TcpStream) -> io::Result<Response> {
    match read_json(stream)? {
        Some(v) => {
            Response::from_json(&v).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
        }
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed without responding",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{DatasetRef, WorkloadRequest};
    use fairsel_table::{codec, csv, Column, Role, Table};

    fn small_table(rows: usize) -> Table {
        Table::new(vec![
            Column::cat(
                "s",
                Role::Sensitive,
                (0..rows).map(|i| (i % 2) as u32).collect(),
                2,
            ),
            Column::cat(
                "x1",
                Role::Feature,
                (0..rows).map(|i| ((i / 2) % 2) as u32).collect(),
                2,
            ),
            Column::cat(
                "y",
                Role::Target,
                (0..rows).map(|i| ((i / 4) % 2) as u32).collect(),
                2,
            ),
        ])
        .unwrap()
    }

    fn csv_text(rows: usize) -> String {
        csv::to_csv_string(&small_table(rows))
    }

    #[test]
    fn ping_select_stats_shutdown_over_tcp() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.spawn();

        let pong = request(&addr, &Request::Ping).unwrap();
        assert_eq!(pong, Response::ok("pong"));

        let req = Request::Select(WorkloadRequest::with_csv(csv_text(200)));
        let first = request(&addr, &req).unwrap();
        let Response::Ok { body, stats, cache } = first else {
            panic!("select failed: {first:?}");
        };
        assert!(body.contains("== selection"), "{body}");
        assert!(stats.is_some());
        let cache = cache.expect("select carries cache info");
        assert_eq!(cache.sessions_served, 1);

        // Warm repeat: byte-identical body, shared hits reported.
        let second = request(&addr, &req).unwrap();
        let Response::Ok {
            body: body2,
            cache: cache2,
            ..
        } = second
        else {
            panic!("warm select failed");
        };
        assert_eq!(body, body2);
        let cache2 = cache2.unwrap();
        assert_eq!(cache2.sessions_served, 2);
        assert!(cache2.shared_hits > cache.shared_hits);

        let stats = request(&addr, &Request::Stats).unwrap();
        let Response::Ok { stats: Some(s), .. } = stats else {
            panic!("stats failed");
        };
        assert_eq!(s.get_u64("requests"), Some(2));
        assert_eq!(s.get_u64("resident_datasets"), Some(1));
        // Connection telemetry: every request above was its own admitted
        // connection; nothing was shed; real bytes moved both ways; the
        // request clock ticked.
        assert_eq!(s.get_u64("shed_conns"), Some(0));
        // At least the stats connection itself is active; earlier
        // one-shot connections may linger until their handler sees EOF.
        let active = s.get_u64("active_conns").unwrap();
        assert!((1..=4).contains(&active), "active_conns = {active}");
        assert!(s.get_u64("accepted_conns").unwrap() >= 4);
        assert!(s.get_u64("bytes_rx").unwrap() > 0);
        assert!(s.get_u64("bytes_tx").unwrap() > 0);
        assert!(s.get_num("request_wall_ms").unwrap() > 0.0);
        // The repeat took its report from the workload's report memo.
        assert_eq!(s.get_u64("report_memo_hits"), Some(1));
        assert_eq!(s.get_u64("report_memo_misses"), Some(1));
        assert_eq!(s.get_u64("report_memo_evictions"), Some(0));
        assert!(crate::render_prom(&s).contains("\nfairsel_report_memo_hits 1\n"));

        handle.shutdown();
        // The port is released: further requests fail to connect.
        assert!(request(&addr, &Request::Ping).is_err());
    }

    /// The Prometheus `le` edges are the histogram's own bucket edges: a
    /// 100 µs observation counts under 0.111 ms, the top of its
    /// quarter-octave sub-bucket, not under the whole octave's 0.127 ms.
    #[test]
    fn prom_le_edges_follow_the_histogram_buckets() {
        let h = Histogram::new();
        h.record(100);
        h.record(5000);
        let stats = Json::obj(vec![(
            "histograms",
            Json::obj(vec![("queue_wait", hist_json(&h.snapshot()))]),
        )]);
        let text = crate::render_prom(&stats);
        assert!(
            text.contains("fairsel_queue_wait_ms_bucket{le=\"0.111\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("fairsel_queue_wait_ms_bucket{le=\"5.119\"} 2\n"),
            "{text}"
        );
    }

    #[test]
    fn malformed_requests_get_error_responses() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.spawn();

        let bad = request(
            &addr,
            &Request::Select(WorkloadRequest::with_csv("garbage")),
        )
        .unwrap();
        assert!(matches!(bad, Response::Err(_)));

        // A raw frame that is not a valid request object.
        let sock = addr.parse().unwrap();
        let mut stream = TcpStream::connect_timeout(&sock, Duration::from_secs(5)).unwrap();
        write_json(&mut stream, &Json::obj(vec![("nope", Json::Null)])).unwrap();
        let resp = read_json(&mut stream).unwrap().unwrap();
        assert_eq!(resp.get_bool("ok"), Some(false));
        drop(stream);

        handle.shutdown();
    }

    #[test]
    fn methods_request_served_through_shared_session() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.spawn();
        let req = Request::Methods(WorkloadRequest::with_csv(csv_text(240)));
        let resp = request(&addr, &req).unwrap();
        let Response::Ok { body, cache, .. } = resp else {
            panic!("methods failed: {resp:?}");
        };
        for m in ["a-only", "all", "seqsel", "grpsel", "fair-pc"] {
            assert!(body.contains(m), "missing {m} in {body}");
        }
        let cache = cache.expect("methods response carries cache info");
        assert_eq!(cache.sessions_served, 1);
        // Even a cold sweep dedups across methods (Fair-PC's marginal
        // layer overlaps SeqSel's ∅-subset queries).
        assert!(cache.shared_hits > 0, "cross-method dedup expected");

        // Warm repeat: the sweep runs inside the same registry session,
        // so the replay is (almost) entirely shared-memo hits.
        let resp = request(&addr, &req).unwrap();
        let Response::Ok {
            body: body2,
            cache: cache2,
            ..
        } = resp
        else {
            panic!("warm methods failed");
        };
        assert_eq!(body2.lines().next(), body.lines().next());
        let cache2 = cache2.unwrap();
        assert_eq!(cache2.sessions_served, 2);
        assert!(
            cache2.shared_hits > cache.shared_hits,
            "warm methods call must hit the shared session memo ({} !> {})",
            cache2.shared_hits,
            cache.shared_hits
        );

        // A `select` on the same dataset shares the very same session:
        // it is answered from the sweep's warmed cache.
        let sel = request(
            &addr,
            &Request::Select(WorkloadRequest::with_csv(csv_text(240))),
        )
        .unwrap();
        let Response::Ok {
            cache: sel_cache, ..
        } = sel
        else {
            panic!("select after methods failed");
        };
        let sel_cache = sel_cache.unwrap();
        assert_eq!(sel_cache.sessions_served, 3, "one session serves all three");
        handle.shutdown();
    }

    /// `put` + fingerprint-addressed `select` over real TCP: the warm
    /// request ships a few hundred bytes, resolves against the uploaded
    /// table, and returns a body byte-identical to the inline-CSV path.
    #[test]
    fn put_then_select_by_fp_over_tcp() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.spawn();

        let table = small_table(200);
        let resp = put_dataset(&addr, &codec::encode_table(&table)).unwrap();
        let Response::Ok { body: fp_hex, .. } = resp else {
            panic!("put failed: {resp:?}");
        };
        let fp = u64::from_str_radix(&fp_hex, 16).expect("hex fingerprint");

        let by_fp = Request::Select(WorkloadRequest {
            dataset: DatasetRef::Fp(fp),
            ..Default::default()
        });
        let Response::Ok { body, cache, .. } = request(&addr, &by_fp).unwrap() else {
            panic!("select by fp failed");
        };
        assert_eq!(cache.unwrap().fingerprint, fp);

        let by_csv = Request::Select(WorkloadRequest::with_csv(csv_text(200)));
        let Response::Ok { body: body2, .. } = request(&addr, &by_csv).unwrap() else {
            panic!("select by csv failed");
        };
        assert_eq!(body, body2, "fp and csv spellings must agree byte-for-byte");

        // An unknown fingerprint is a clean error, not a hang or crash.
        let unknown = Request::Select(WorkloadRequest {
            dataset: DatasetRef::Fp(fp ^ 1),
            ..Default::default()
        });
        let Response::Err(e) = request(&addr, &unknown).unwrap() else {
            panic!("unknown fp must error");
        };
        assert!(e.contains("unknown dataset fingerprint"), "{e}");

        // Corrupt codec bytes are rejected with a decode error.
        let Response::Err(e) = put_dataset(&addr, b"not a table").unwrap() else {
            panic!("bad put must error");
        };
        assert!(e.contains("decoding dataset"), "{e}");

        handle.shutdown();
    }

    /// Streaming append over real TCP: `put` the base, `append` a batch
    /// (only the batch travels), then select the child fingerprint —
    /// served warm from the parent session and byte-identical to a cold
    /// run on the full concatenated table.
    #[test]
    fn put_append_then_warm_child_select_over_tcp() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.spawn();

        let base = small_table(200);
        let full = small_table(248);
        let suffix: Vec<usize> = (200..248).collect();
        let batch = full.take_rows(&suffix);

        let resp = put_dataset(&addr, &codec::encode_table(&base)).unwrap();
        let Response::Ok { body: fp_hex, .. } = resp else {
            panic!("put failed: {resp:?}");
        };
        let fp = u64::from_str_radix(&fp_hex, 16).unwrap();

        // Warm the parent session, then extend it.
        let parent_req = Request::Select(WorkloadRequest {
            dataset: DatasetRef::Fp(fp),
            ..Default::default()
        });
        assert!(matches!(
            request(&addr, &parent_req).unwrap(),
            Response::Ok { .. }
        ));

        // A put-style table frame must be rejected at the magic check —
        // the append wire carries the dedicated FSA1 row-batch frame.
        let wrong_magic = append_rows(&addr, fp, &codec::encode_table(&batch)).unwrap();
        let Response::Err(e) = wrong_magic else {
            panic!("table-framed append accepted: {wrong_magic:?}");
        };
        assert!(e.contains("bad magic"), "unexpected error: {e}");

        let batch_bytes = codec::encode_row_batch(&batch);
        let resp = append_rows(&addr, fp, &batch_bytes).unwrap();
        let Response::Ok {
            body: child_hex,
            stats: Some(stats),
            ..
        } = resp
        else {
            panic!("append failed: {resp:?}");
        };
        let child_fp = u64::from_str_radix(&child_hex, 16).unwrap();
        assert_ne!(child_fp, fp);
        assert_eq!(stats.get_u64("batch_rows"), Some(48));
        assert_eq!(stats.get_u64("rows"), Some(248));
        assert_eq!(
            child_fp,
            crate::registry::fingerprint_table(&full),
            "append child must fingerprint as the concatenated table"
        );

        // Child select: born warm, with the extend ledger in the engine
        // stats, and byte-identical to a cold run on the full table.
        let child_req = Request::Select(WorkloadRequest {
            dataset: DatasetRef::Fp(child_fp),
            ..Default::default()
        });
        let Response::Ok {
            body: warm_body,
            stats: Some(warm_stats),
            ..
        } = request(&addr, &child_req).unwrap()
        else {
            panic!("child select failed");
        };
        assert!(
            warm_stats.get_u64("extended_encodings").unwrap_or(0) > 0,
            "warm child must report extended encodings: {warm_stats:?}"
        );
        assert!(warm_stats.get_u64("append_rows").unwrap_or(0) > 0);

        let Response::Ok {
            body: cold_body, ..
        } = request(
            &addr,
            &Request::Select(WorkloadRequest::with_csv(csv::to_csv_string(&full))),
        )
        .unwrap()
        else {
            panic!("cold select failed");
        };
        assert_eq!(warm_body, cold_body, "warm child must match cold run");

        // Appending to a bogus fingerprint fails clean over the wire.
        let resp = append_rows(&addr, fp ^ 0x5555, &batch_bytes).unwrap();
        let Response::Err(e) = resp else {
            panic!("append to unknown fp must error: {resp:?}");
        };
        assert!(e.contains("unknown dataset fingerprint"), "{e}");

        handle.shutdown();
    }

    /// Regression: the shutdown wake-up used to connect to the bound
    /// address verbatim; bound to `0.0.0.0:0` that connect targets the
    /// unspecified address (platform-dependent, fails on some systems)
    /// and the accept loop hangs until the next organic connection.
    /// `shutdown` must return promptly on a wildcard bind.
    #[test]
    fn shutdown_drains_promptly_on_wildcard_bind() {
        let server = Server::bind("0.0.0.0:0", ServeConfig::default()).unwrap();
        let bound = server.local_addr();
        assert!(bound.ip().is_unspecified());
        let reach = self_addr(&bound).to_string();
        let handle = server.spawn();
        let pong = request(&reach, &Request::Ping).unwrap();
        assert_eq!(pong, Response::ok("pong"));

        let t0 = Instant::now();
        handle.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "wildcard-bind shutdown hung for {:?}",
            t0.elapsed()
        );
        assert!(request(&reach, &Request::Ping).is_err(), "port released");
    }

    /// The admission cap sheds excess connections with the structured
    /// busy response while admitted connections keep working.
    #[test]
    fn admission_cap_sheds_with_busy() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                conn_workers: 2,
                max_conns: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let sock: SocketAddr = addr.parse().unwrap();
        let handle = server.spawn();

        // Two held connections occupy the cap…
        let mut held: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut s = TcpStream::connect_timeout(&sock, Duration::from_secs(5)).unwrap();
                write_json(&mut s, &Request::Ping.to_json()).unwrap();
                let resp = Response::from_json(&read_json(&mut s).unwrap().unwrap()).unwrap();
                assert_eq!(resp, Response::ok("pong"));
                s
            })
            .collect();
        // …so the third is shed with `busy`.
        let mut extra = TcpStream::connect_timeout(&sock, Duration::from_secs(5)).unwrap();
        let resp = Response::from_json(&read_json(&mut extra).unwrap().unwrap()).unwrap();
        assert_eq!(resp, Response::Busy);
        drop(extra);

        // Held connections still serve requests — including exact
        // telemetry: both admitted slots live, exactly one connection
        // shed so far.
        for s in &mut held {
            write_json(s, &Request::Ping.to_json()).unwrap();
            let resp = Response::from_json(&read_json(s).unwrap().unwrap()).unwrap();
            assert_eq!(resp, Response::ok("pong"));
        }
        write_json(&mut held[0], &Request::Stats.to_json()).unwrap();
        let resp = Response::from_json(&read_json(&mut held[0]).unwrap().unwrap()).unwrap();
        let Response::Ok { stats: Some(s), .. } = resp else {
            panic!("stats on a held connection failed");
        };
        assert_eq!(s.get_u64("shed_conns"), Some(1));
        assert_eq!(s.get_u64("active_conns"), Some(2));
        drop(held);

        // Once the held connections close, new ones are admitted again.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match request(&addr, &Request::Ping) {
                Ok(Response::Ok { .. }) => break,
                Ok(Response::Busy) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                other => panic!("ping after drain: {other:?}"),
            }
        }
        handle.shutdown();
    }

    /// Regression: graceful drain must not wait out `IO_TIMEOUT` on
    /// handlers parked reading an idle keep-alive connection — the drain
    /// shuts their read side so they observe EOF immediately.
    #[test]
    fn shutdown_is_prompt_with_idle_connection_held_open() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let handle = server.spawn();

        // Park a handler: complete one ping, then hold the socket open.
        let mut idle = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).unwrap();
        write_json(&mut idle, &Request::Ping.to_json()).unwrap();
        assert!(read_json(&mut idle).unwrap().is_some());

        let t0 = Instant::now();
        handle.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "drain hung {:?} on an idle connection",
            t0.elapsed()
        );
        drop(idle);
    }

    #[test]
    fn accept_backoff_is_bounded_and_capped() {
        // First failure: smallest delay; growth is monotone and capped.
        let mut last = Duration::ZERO;
        for k in 1..=MAX_CONSECUTIVE_ACCEPT_ERRORS {
            let d = accept_backoff(k).expect("within cap");
            assert!(d >= last, "backoff must not shrink");
            assert!(d <= Duration::from_millis(128), "backoff must stay bounded");
            last = d;
        }
        assert_eq!(accept_backoff(1), Some(Duration::from_millis(1)));
        assert_eq!(
            accept_backoff(MAX_CONSECUTIVE_ACCEPT_ERRORS + 1),
            None,
            "past the cap the loop must exit with an error"
        );
    }

    #[test]
    fn self_addr_maps_wildcards_to_loopback() {
        let v4: SocketAddr = "0.0.0.0:4990".parse().unwrap();
        assert_eq!(self_addr(&v4), "127.0.0.1:4990".parse().unwrap());
        let v6: SocketAddr = "[::]:4990".parse().unwrap();
        assert_eq!(self_addr(&v6), "[::1]:4990".parse().unwrap());
        let concrete: SocketAddr = "127.0.0.1:7".parse().unwrap();
        assert_eq!(self_addr(&concrete), concrete);
    }
}
