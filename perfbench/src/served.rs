//! The served binary as a child process, and a persistent-connection
//! client speaking its length-prefixed JSON protocol.

use fairsel_server::proto::read_frame;
use fairsel_server::{Json, Response};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `fairsel serve --trace false` child. Dropping it kills and
/// reaps the process if it is still running.
pub struct ServerProc {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    /// Start the server on an ephemeral loopback port (otherwise default
    /// flags) and wait until it reports that it is listening.
    pub fn start(bin: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--trace", "false"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_owned);
        let mut proc = ServerProc {
            child,
            _stdout: stdout,
            addr: String::new(),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                proc.addr = addr;
                Ok(proc)
            }
            _ => Err(format!("server did not report its address: {line:?}")),
        }
    }

    /// Peak resident set size of the server process (`VmHWM`), MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        vm_hwm_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Ask the server to drain and exit, then reap it (killing it if it
    /// has not exited within ten seconds).
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut conn) = Conn::connect(&self.addr) {
            let _ = conn.call(br#"{"cmd":"shutdown"}"#, None);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for server: {e}")),
            }
        }
        Err("server did not exit after shutdown".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mib(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kib: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {status_path}"))?;
    Ok(kib / 1024.0)
}

/// One answered request as the client saw it.
pub struct Reply {
    pub resp: Response,
    /// Send of the first byte to receipt of the last, seconds.
    pub latency_s: f64,
    /// Size of the response frame, header included.
    frame_bytes: usize,
}

impl Reply {
    /// The body of an `ok` response, or why there is none.
    pub fn body(&self) -> Result<&str, String> {
        match &self.resp {
            Response::Ok { body, .. } => Ok(body),
            Response::Busy => Err("server busy".into()),
            Response::Err(e) => Err(e.clone()),
        }
    }

    /// The `stats` object of an `ok` response.
    pub fn stats(&self) -> Result<&Json, String> {
        match &self.resp {
            Response::Ok { stats: Some(s), .. } => Ok(s),
            _ => Err(format!(
                "response carries no stats: {:?}",
                self.body().err()
            )),
        }
    }
}

/// A persistent client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(120))))
            .map_err(|e| format!("configure socket: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Send one JSON request frame (and, for `put`/`append`, the binary
    /// payload frame that follows it) in a single write, then read the
    /// response frame.
    pub fn call(&mut self, request: &[u8], payload: Option<&[u8]>) -> Result<Reply, String> {
        self.buf.clear();
        for frame in std::iter::once(request).chain(payload) {
            self.buf
                .extend_from_slice(&(frame.len() as u32).to_be_bytes());
            self.buf.extend_from_slice(frame);
        }
        let t0 = Instant::now();
        self.stream
            .write_all(&self.buf)
            .map_err(|e| format!("send: {e}"))?;
        let frame = read_frame(&mut AckEach(&self.stream))
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("server closed the connection")?;
        let latency_s = t0.elapsed().as_secs_f64();
        let frame_bytes = frame.len() + 4;
        let text = String::from_utf8(frame).map_err(|e| format!("response is not UTF-8: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("response is not JSON: {e}"))?;
        let resp = Response::from_json(&json)?;
        Ok(Reply {
            resp,
            latency_s,
            frame_bytes,
        })
    }
}

/// Reads from the socket and acknowledges each read's bytes at once.
///
/// The server writes a reply's 4-byte length header and its body in two
/// writes without `TCP_NODELAY`, so the body leaves only once the header is
/// acknowledged. A fresh connection acknowledges its first segments at
/// once, which is what the one-shot `fairsel … --remote` client gets; a
/// persistent connection soon delays its ACKs by 40 ms or more, in steps
/// of the kernel's timer tick, and that stall would swamp the server's own
/// time in every latency reported here.
struct AckEach<'a>(&'a TcpStream);

impl Read for AckEach<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut stream = self.0;
        let n = stream.read(buf)?;
        quickack(stream)?;
        Ok(n)
    }
}

/// Send any delayed ACK now and leave delayed-ACK mode (`TCP_QUICKACK`).
#[cfg(target_os = "linux")]
fn quickack(stream: &TcpStream) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: the descriptor is open for as long as `stream` is borrowed,
    // and `value` points at an `i32` of the length passed.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
fn quickack(_: &TcpStream) -> std::io::Result<()> {
    Ok(())
}

/// The server-wide counters the per-layer metrics are deltas of.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Handler wall time and count of `select`, `put` and `append`
    /// requests (exact histogram sums, microseconds).
    pub op_wall_us: f64,
    pub op_requests: f64,
    pub queue_wait_ms: f64,
    pub accepted_conns: f64,
    pub bytes_rx: f64,
    pub bytes_tx: f64,
    pub shed_conns: f64,
    pub warm_children: f64,
    pub dataset_evictions: f64,
    pub pool_busy_ms: f64,
    /// Size of the stats response that carried this snapshot: the server
    /// counts it as sent only after taking the snapshot.
    pub reply_bytes: f64,
}

/// The stats request payload.
const STATS_REQUEST: &[u8] = br#"{"cmd":"stats"}"#;

impl ServerStats {
    pub fn fetch(conn: &mut Conn) -> Result<ServerStats, String> {
        let reply = conn.call(STATS_REQUEST, None)?;
        let s = reply.stats()?;
        let num = |k: &str| s.get_num(k).ok_or_else(|| format!("stats lacks {k}"));
        let hist = |cmd: &str, field: &str| -> Result<f64, String> {
            s.get("histograms")
                .and_then(|h| h.get(&format!("request_wall/{cmd}")))
                .and_then(|h| h.get_num(field))
                .ok_or_else(|| format!("stats lacks request_wall/{cmd}.{field}"))
        };
        let mut op_wall_us = 0.0;
        let mut op_requests = 0.0;
        for cmd in ["select", "put", "append"] {
            op_wall_us += hist(cmd, "sum_us")?;
            op_requests += hist(cmd, "count")?;
        }
        Ok(ServerStats {
            op_wall_us,
            op_requests,
            queue_wait_ms: num("queue_wait_ms")?,
            accepted_conns: num("accepted_conns")?,
            bytes_rx: num("bytes_rx")?,
            bytes_tx: num("bytes_tx")?,
            shed_conns: num("shed_conns")?,
            warm_children: num("warm_children")?,
            dataset_evictions: num("dataset_evictions")?,
            pool_busy_ms: num("pool_busy_ms")?,
            reply_bytes: reply.frame_bytes as f64,
        })
    }

    /// Counter deltas since `before` once the server has booked `requests`
    /// op requests. The server books a request only after writing its
    /// reply, so the last one can trail the client; `stats` is polled until
    /// it catches up (or ten seconds pass, which the caller's count check
    /// then reports).
    pub fn settled(
        conn: &mut Conn,
        before: &ServerStats,
        requests: usize,
    ) -> Result<ServerStats, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let (mut polls, mut earlier_replies) = (0.0, 0.0);
        loop {
            polls += 1.0;
            let now = ServerStats::fetch(conn)?;
            if now.op_requests - before.op_requests >= requests as f64 || Instant::now() > deadline
            {
                return Ok(now.since(before, polls, earlier_replies));
            }
            earlier_replies += now.reply_bytes;
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Counter deltas since `before`, net of the stats exchanges' own
    /// traffic: `polls` requests and, before this snapshot, the reply to
    /// `before` and `earlier_replies` bytes of replies to earlier polls.
    fn since(&self, before: &ServerStats, polls: f64, earlier_replies: f64) -> ServerStats {
        ServerStats {
            op_wall_us: self.op_wall_us - before.op_wall_us,
            op_requests: self.op_requests - before.op_requests,
            queue_wait_ms: self.queue_wait_ms - before.queue_wait_ms,
            accepted_conns: self.accepted_conns - before.accepted_conns,
            bytes_rx: self.bytes_rx - before.bytes_rx - polls * (STATS_REQUEST.len() + 4) as f64,
            bytes_tx: self.bytes_tx - before.bytes_tx - before.reply_bytes - earlier_replies,
            shed_conns: self.shed_conns - before.shed_conns,
            warm_children: self.warm_children - before.warm_children,
            dataset_evictions: self.dataset_evictions - before.dataset_evictions,
            pool_busy_ms: self.pool_busy_ms - before.pool_busy_ms,
            reply_bytes: 0.0,
        }
    }
}
