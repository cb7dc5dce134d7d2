//! Wire front ends: the JSON-lines protocol over stdio and TCP.
//!
//! # TCP — one reactor thread
//!
//! [`serve_tcp_with`] runs the accept loop *and all connection I/O* on
//! a single [`pchls_net::Reactor`] thread: nonblocking sockets,
//! level-triggered readiness and capped [`LineCodec`] framing per
//! connection. A request's `deadline_ms` is enforced by the worker's
//! progress hook, measured from the moment the request was accepted, so
//! a job that expired while queued answers `deadline exceeded` at its
//! first iteration. Synthesis happens on the service's sharded worker pools; finished
//! responses come back over a completion channel paired with the
//! reactor's waker, so the I/O thread sleeps in `poll` until there is
//! something to do.
//!
//! The front end is the admission layer:
//!
//! * requests are submitted with shedding admission — a
//!   saturated shard answers `overloaded` immediately instead of
//!   blocking the reactor or dropping the connection;
//! * each connection gets a token bucket (when the service configures a
//!   rate) — excess `synth` requests answer `rate_limited`;
//! * request lines longer than the configured cap answer a structured
//!   error and are discarded without unbounded buffering, and a
//!   connection whose unread output exceeds [`MAX_OUTPUT_BUFFER`] is
//!   dropped (a reader that slow is indistinguishable from hostile).
//!
//! Shutdown is a first-class path: [`ShutdownHandle::request_stop`]
//! flips a flag and wakes the reactor, which closes every connection
//! and returns — no `unreachable!`, no leaked accept loop.
//!
//! # Stdio — one blocking connection
//!
//! [`serve_stdio`] serves stdin/stdout as a single trusted local
//! connection: same framing and line cap, but blocking
//! [`Service::submit`] backpressure instead of shedding, with a
//! dedicated writer thread so out-of-order worker replies interleave
//! safely.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use pchls_net::{Backend, Frame, Interest, LineCodec, Reactor, Token, Waker, WriteBuffer};

use crate::admission::TokenBucket;
use crate::protocol::{SubmitRequest, SubmitResponse};
use crate::service::{ReplySink, Service, SubmitOutcome};
use crate::stats::render_serve_stats;

/// The reactor token of the TCP listener; connections use `slot + 1`.
const LISTENER_TOKEN: Token = Token(0);

/// Hard cap on unread response bytes buffered per connection before the
/// peer is declared dead-or-hostile and dropped.
const MAX_OUTPUT_BUFFER: usize = 4 << 20;

/// Cooperative stop signal for [`serve_tcp_with`].
///
/// Share one handle between the serving thread and whoever decides to
/// stop (a signal handler, a test, a supervisor). `request_stop` flips
/// the flag and wakes the reactor, so the serve loop observes it
/// immediately even while blocked in `poll` with no traffic.
#[derive(Default)]
pub struct ShutdownHandle {
    stop: AtomicBool,
    waker: Mutex<Option<Waker>>,
}

impl ShutdownHandle {
    /// A handle in the running state.
    #[must_use]
    pub fn new() -> ShutdownHandle {
        ShutdownHandle::default()
    }

    /// Asks the serve loop to stop: closes every connection, returns
    /// `Ok(())` from [`serve_tcp_with`]. Idempotent; safe from any
    /// thread (and from before the loop even starts).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(waker) = &*self.waker.lock().expect("shutdown waker lock") {
            let _ = waker.wake();
        }
    }

    /// Whether a stop has been requested.
    #[must_use]
    pub(crate) fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn attach(&self, waker: Waker) {
        *self.waker.lock().expect("shutdown waker lock") = Some(waker);
    }

    fn detach(&self) {
        self.waker.lock().expect("shutdown waker lock").take();
    }
}

impl std::fmt::Debug for ShutdownHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShutdownHandle")
            .field("stopped", &self.is_stopped())
            .finish()
    }
}

/// One reactor-managed connection.
struct Conn {
    stream: TcpStream,
    token: Token,
    conn_id: u64,
    codec: LineCodec,
    out: WriteBuffer,
    bucket: Option<TokenBucket>,
    /// In-flight cancellation flags by request id.
    cancels: HashMap<u64, Arc<AtomicBool>>,
    /// Responses still owed to this connection (accepted jobs *and*
    /// already-answered refusals riding the completion channel).
    in_flight: usize,
    read_closed: bool,
    interest: Interest,
}

impl Conn {
    /// Serializes `response` onto the connection's output buffer.
    fn queue_response(&mut self, response: &SubmitResponse) {
        if let Ok(line) = serde_json::to_string(response) {
            self.out.queue(line.as_bytes());
            self.out.queue(b"\n");
        }
    }
}

/// What [`route_frame`] leaves to the transport.
// One value per request line, moved straight to the transport — boxing
// the (stats-bearing) reply would only add an allocation.
#[allow(clippy::large_enum_variant)]
enum Routed {
    /// A blank line, or a `cancel` already applied: nothing to send.
    Skip,
    /// Answered inline: send this reply.
    Reply(SubmitResponse),
    /// A `synth` request, for the transport's own admission.
    Synth(SubmitRequest),
}

/// The request router both transports share. Skips blank lines;
/// answers framing errors, `bad request`, `stats`, `metrics` and
/// `unknown op` inline; applies `cancel` to the connection's in-flight
/// flags; and hands `synth` requests back for admission.
fn route_frame(
    service: &Service,
    cancels: &mut HashMap<u64, Arc<AtomicBool>>,
    frame: Frame,
) -> Routed {
    let line = match frame {
        Ok(line) => line,
        // The oversized line was discarded by the codec — answer with a
        // parseable error instead of letting the buffer grow without
        // bound.
        Err(e) => {
            service.note_bad_request();
            return Routed::Reply(SubmitResponse::error(0, e.to_string()));
        }
    };
    if line.iter().all(u8::is_ascii_whitespace) {
        return Routed::Skip;
    }
    let request: SubmitRequest = match serde_json::from_slice(&line) {
        Ok(r) => r,
        Err(e) => {
            service.note_bad_request();
            return Routed::Reply(SubmitResponse::error(
                salvaged_id(&line),
                format!("bad request: {e}"),
            ));
        }
    };
    match request.op.as_str() {
        "" | "synth" => {
            // Lazily prune flags of finished requests (the worker
            // dropped its clone, leaving ours the only one) so a
            // long-lived connection's map stays bounded by its
            // in-flight window, not its lifetime request count.
            if cancels.len() >= 64 {
                cancels.retain(|_, flag| Arc::strong_count(flag) > 1);
            }
            Routed::Synth(request)
        }
        "cancel" => {
            // Best effort: unknown or finished ids are a no-op; the
            // cancelled request sends its own reply.
            if let Some(flag) = cancels.get(&request.id) {
                flag.store(true, Ordering::Relaxed);
            }
            Routed::Skip
        }
        // `stats` and `metrics` are served inline — never queued behind
        // synthesis, and exempt from rate limits: a scraper must see the
        // overload it is diagnosing, not be shed by it.
        "stats" => Routed::Reply(SubmitResponse::stats(request.id, service.stats())),
        "metrics" => Routed::Reply(SubmitResponse::metrics(request.id, service.metrics_text())),
        other => {
            service.note_bad_request();
            Routed::Reply(SubmitResponse::error(
                request.id,
                format!("unknown op `{other}`"),
            ))
        }
    }
}

/// The id of a line that failed typed parsing: its integer `id` field
/// when the line is still a JSON object, so a pipelining client can tell
/// which request was bad; 0 for anything else.
fn salvaged_id(line: &[u8]) -> u64 {
    let value = std::str::from_utf8(line)
        .ok()
        .and_then(|text| serde_json::parse(text).ok());
    match value.as_ref().and_then(|v| v.get("id")) {
        Some(serde_json::Value::Int(id)) => u64::try_from(*id).unwrap_or(0),
        _ => 0,
    }
}

/// The reactor serve loop's state.
struct Server<'a> {
    service: &'a Service,
    reactor: Reactor,
    waker: Waker,
    done_tx: mpsc::Sender<(u64, SubmitResponse)>,
    done_rx: mpsc::Receiver<(u64, SubmitResponse)>,
    conns: Vec<Option<Conn>>,
    /// conn_id → slot (connections are also addressed by the stable id
    /// riding the completion channel, which outlives slot reuse).
    by_id: HashMap<u64, usize>,
    next_conn_id: u64,
}

impl<'a> Server<'a> {
    fn new(service: &'a Service) -> io::Result<Server<'a>> {
        let reactor = Reactor::new(Backend::Auto)?;
        let waker = reactor.waker();
        let (done_tx, done_rx) = mpsc::channel();
        Ok(Server {
            service,
            reactor,
            waker,
            done_tx,
            done_rx,
            conns: Vec::new(),
            by_id: HashMap::new(),
            next_conn_id: 0,
        })
    }

    /// Accepts every pending connection (level-triggered: drain until
    /// `WouldBlock`).
    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => self.add_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept failures (ECONNABORTED and friends):
                // the listener stays registered, retry on the next
                // readiness.
                Err(_) => break,
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return; // connection died before its first byte
        }
        let slot = match self.conns.iter().position(Option::is_none) {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let token = Token(slot + 1);
        if self
            .reactor
            .register(stream.as_raw_fd(), token, Interest::READABLE)
            .is_err()
        {
            return;
        }
        let limits = self.service.limits();
        let conn_id = self.next_conn_id;
        self.next_conn_id += 1;
        let bucket = (limits.rate_per_sec > 0.0)
            .then(|| TokenBucket::new(limits.rate_per_sec, limits.burst, Instant::now()));
        self.by_id.insert(conn_id, slot);
        self.conns[slot] = Some(Conn {
            stream,
            token,
            conn_id,
            codec: LineCodec::new(limits.max_line_bytes),
            out: WriteBuffer::new(),
            bucket,
            cancels: HashMap::new(),
            in_flight: 0,
            read_closed: false,
            interest: Interest::READABLE,
        });
    }

    /// Handles one readiness event for the connection in `slot`.
    fn conn_event(&mut self, slot: usize, readable: bool, writable: bool, error: bool) {
        let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return; // spurious event for an already-dropped connection
        };
        let mut alive = !error;
        if alive && readable {
            alive = self.read_ready(&mut conn);
        }
        // Writable readiness and freshly queued responses share one
        // flush path.
        if alive && (writable || !conn.out.is_empty()) {
            alive = self.flush_and_update(&mut conn);
        }
        self.settle(slot, conn, alive);
    }

    /// Drains readable bytes into the codec and dispatches every
    /// complete frame. Returns `false` when the connection must drop.
    fn read_ready(&mut self, conn: &mut Conn) -> bool {
        let mut scratch = [0u8; 8192];
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => conn.codec.push(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        while let Some(frame) = conn.codec.next_frame() {
            match route_frame(self.service, &mut conn.cancels, frame) {
                Routed::Skip => {}
                Routed::Reply(response) => conn.queue_response(&response),
                Routed::Synth(request) => self.dispatch_synth(conn, request),
            }
        }
        true
    }

    /// The reactor's admission for one routed `synth` request: the
    /// connection's token bucket and non-blocking submission.
    fn dispatch_synth(&mut self, conn: &mut Conn, request: SubmitRequest) {
        if let Some(bucket) = &mut conn.bucket {
            if !bucket.try_take(Instant::now()) {
                self.service.note_rate_limited();
                conn.queue_response(&SubmitResponse::error(request.id, "rate_limited"));
                return;
            }
        }
        let id = request.id;
        let sink = ReplySink::Conn {
            conn: conn.conn_id,
            tx: self.done_tx.clone(),
            waker: self.waker.clone(),
        };
        // Whatever happens next, exactly one response rides the
        // completion channel (accepted jobs reply from a worker;
        // refusals were answered inside `submit_sink`).
        conn.in_flight += 1;
        if let SubmitOutcome::Accepted(cancel) = self.service.submit_sink(request, sink) {
            conn.cancels.insert(id, cancel);
        }
    }

    /// Delivers every finished response waiting on the completion
    /// channel to its connection's output buffer.
    fn deliver_completions(&mut self) {
        while let Ok((conn_id, response)) = self.done_rx.try_recv() {
            let Some(&slot) = self.by_id.get(&conn_id) else {
                continue; // connection dropped before its reply landed
            };
            let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
                continue;
            };
            conn.in_flight = conn.in_flight.saturating_sub(1);
            conn.cancels.remove(&response.id);
            conn.queue_response(&response);
            let alive = self.flush_and_update(&mut conn);
            self.settle(slot, conn, alive);
        }
    }

    /// Flushes the output buffer and reconciles the registered
    /// interest. Returns `false` when the connection must drop (write
    /// failure or a pathologically slow reader).
    fn flush_and_update(&mut self, conn: &mut Conn) -> bool {
        if !conn.out.is_empty() && conn.out.write_to(&mut conn.stream).is_err() {
            return false;
        }
        if conn.out.pending() > MAX_OUTPUT_BUFFER {
            return false;
        }
        let want = Interest {
            readable: !conn.read_closed,
            writable: !conn.out.is_empty(),
        };
        if want != conn.interest {
            if self
                .reactor
                .modify(conn.stream.as_raw_fd(), conn.token, want)
                .is_err()
            {
                return false;
            }
            conn.interest = want;
        }
        true
    }

    /// Puts a live connection back in its slot — or retires it: a
    /// half-closed peer that has been answered everything it asked for
    /// is done.
    fn settle(&mut self, slot: usize, conn: Conn, alive: bool) {
        let finished = conn.read_closed && conn.in_flight == 0 && conn.out.is_empty();
        if alive && !finished {
            self.conns[slot] = Some(conn);
        } else {
            self.retire(conn);
        }
    }

    /// Tears one connection down: abandoned in-flight work is
    /// cancelled, the socket deregistered.
    fn retire(&mut self, conn: Conn) {
        for flag in conn.cancels.values() {
            flag.store(true, Ordering::Relaxed);
        }
        self.reactor.deregister(conn.stream.as_raw_fd());
        self.by_id.remove(&conn.conn_id);
        // Dropping the stream closes the socket; late completions for
        // this conn_id fall through `deliver_completions` harmlessly.
    }

    fn close_all(&mut self) {
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].take() {
                self.retire(conn);
            }
        }
    }
}

/// Accepts and serves connections on one reactor thread until
/// `shutdown` requests a stop (see the module docs for the admission
/// behaviour). Returns `Ok(())` after a requested stop with every
/// connection closed.
///
/// # Errors
///
/// Setting up the reactor, registering the listener, or a failed
/// `poll` — per-connection errors never end the loop.
pub fn serve_tcp_with(
    service: &Service,
    listener: &TcpListener,
    shutdown: &ShutdownHandle,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut server = Server::new(service)?;
    server
        .reactor
        .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
    shutdown.attach(server.waker.clone());
    // Periodic in-flight stats line: `poll` returns by `next_stats` at
    // the latest, so an idle server still reports on schedule.
    let stats_every = (service.limits().stats_interval > 0)
        .then(|| Duration::from_secs(service.limits().stats_interval));
    let mut next_stats = stats_every.map(|every| Instant::now() + every);
    let mut events = Vec::new();
    while !shutdown.is_stopped() {
        server.reactor.poll(&mut events, next_stats)?;
        if shutdown.is_stopped() {
            break;
        }
        if let (Some(every), Some(due)) = (stats_every, next_stats) {
            if Instant::now() >= due {
                eprintln!("{}", render_serve_stats(&service.stats()));
                next_stats = Some(Instant::now() + every);
            }
        }
        server.deliver_completions();
        for &ev in &events {
            if ev.token == LISTENER_TOKEN {
                server.accept_ready(listener);
            } else {
                server.conn_event(ev.token.0 - 1, ev.readable, ev.writable, ev.error);
            }
        }
    }
    shutdown.detach();
    server.reactor.deregister(listener.as_raw_fd());
    server.close_all();
    Ok(())
}

/// [`serve_tcp_with`] with no stop signal: serves until the process
/// exits or the reactor itself fails. The `pchls serve` CLI uses this
/// for its foreground mode.
///
/// # Errors
///
/// As [`serve_tcp_with`].
pub fn serve_tcp(service: &Service, listener: &TcpListener) -> io::Result<()> {
    serve_tcp_with(service, listener, &ShutdownHandle::new())
}

/// Serves one already-connected peer over blocking byte streams:
/// `reader` supplies request lines (framed and length-capped by
/// [`LineCodec`]), `writer` receives response lines. Requests are
/// submitted with blocking backpressure — a trusted local client waits
/// instead of being shed. Returns when the peer closes its half and
/// every accepted job has been answered.
///
/// # Errors
///
/// Propagates read errors from `reader`; write errors end the writer
/// thread (the remaining replies are dropped, like a peer that hung
/// up).
pub(crate) fn handle_connection<R, W>(service: &Service, mut reader: R, writer: W) -> io::Result<()>
where
    R: Read,
    W: Write + Send + 'static,
{
    let (tx, rx) = mpsc::channel::<SubmitResponse>();
    let writer_thread = std::thread::Builder::new()
        .name("pchls-serve-writer".to_owned())
        .spawn(move || {
            let mut writer = writer;
            while let Ok(response) = rx.recv() {
                let line = match serde_json::to_string(&response) {
                    Ok(line) => line,
                    Err(_) => continue, // unserializable replies don't exist
                };
                if writeln!(writer, "{line}")
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    break; // peer hung up; drain and drop the rest
                }
            }
        })
        .expect("spawn connection writer");

    // In-flight cancellation flags of this connection, by request id.
    let mut cancels: HashMap<u64, Arc<AtomicBool>> = HashMap::new();
    let mut codec = LineCodec::new(service.limits().max_line_bytes);
    let mut scratch = [0u8; 8192];
    'read: loop {
        let n = match reader.read(&mut scratch) {
            Ok(0) => break 'read,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        codec.push(&scratch[..n]);
        while let Some(frame) = codec.next_frame() {
            match route_frame(service, &mut cancels, frame) {
                Routed::Skip => {}
                Routed::Reply(response) => {
                    let _ = tx.send(response);
                }
                Routed::Synth(request) => {
                    let id = request.id;
                    match service.submit(request, tx.clone()) {
                        Ok(cancel) => {
                            cancels.insert(id, cancel);
                        }
                        Err(_) => {
                            let _ = tx.send(SubmitResponse::error(id, "service is shutting down"));
                        }
                    }
                }
            }
        }
    }

    // EOF: drop our sender; the writer exits after the last in-flight
    // job (each holds its own clone) delivers its reply.
    drop(tx);
    let _ = writer_thread.join();
    Ok(())
}

/// Serves the process's stdin/stdout as one connection — the `pchls
/// serve --stdio` mode. Returns at stdin EOF, after every accepted job
/// answered.
///
/// # Errors
///
/// As `handle_connection`.
pub fn serve_stdio(service: &Service) -> io::Result<()> {
    handle_connection(service, io::stdin().lock(), io::stdout())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use pchls_core::Engine;
    use pchls_fulib::paper_library;
    use std::io::{BufRead, BufReader};

    /// Runs a full scripted connection over in-memory pipes and returns
    /// the parsed response lines.
    fn drive(service: &Service, script: &str) -> Vec<SubmitResponse> {
        let (mut read_half, write_half) = io_pipe();
        handle_connection(service, script.as_bytes(), write_half).unwrap();
        let mut out = String::new();
        read_half.read_to_string(&mut out).unwrap();
        out.lines()
            .map(|l| serde_json::from_str(l).expect("well-formed response line"))
            .collect()
    }

    /// A tiny in-memory pipe: the writer half is `Write + Send`, the
    /// reader half collects everything written.
    fn io_pipe() -> (SharedBuf, SharedBuf) {
        let buf = Arc::new(std::sync::Mutex::new(Vec::new()));
        (SharedBuf(Arc::clone(&buf)), SharedBuf(buf))
    }

    #[derive(Clone)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn read_to_string(&mut self, out: &mut String) -> io::Result<()> {
            out.push_str(std::str::from_utf8(&self.0.lock().unwrap()).unwrap());
            Ok(())
        }
    }

    fn service() -> Service {
        Service::start(
            Engine::new(paper_library()),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn scripted_connection_answers_every_line() {
        let service = service();
        let script = concat!(
            r#"{"op":"synth","id":1,"graph":"hal","latency":17,"power":25}"#,
            "\n",
            "\n", // blank lines are ignored
            r#"{"op":"stats","id":2}"#,
            "\n",
            r#"{"op":"frobnicate","id":3}"#,
            "\n",
            "this is not json\n",
            // Well-formed JSON that fails typed parsing keeps its id.
            r#"{"op":"synth","id":5,"graph":"hal","latency":"x","power":25}"#,
            "\n",
        );
        let mut responses = drive(&service, script);
        assert_eq!(responses.len(), 5);
        // Synthesis replies may arrive out of order; sort by id.
        responses.sort_by_key(|r| r.id);
        let synth = responses.iter().find(|r| r.id == 1).unwrap();
        assert!(synth.ok && synth.point.is_some());
        let stats = responses.iter().find(|r| r.id == 2).unwrap();
        assert!(stats.ok && stats.stats.is_some());
        let unknown = responses.iter().find(|r| r.id == 3).unwrap();
        assert!(!unknown.ok);
        assert!(unknown.error.as_ref().unwrap().contains("frobnicate"));
        let bad = responses.iter().find(|r| r.id == 0).unwrap();
        assert!(!bad.ok);
        assert!(bad.error.as_ref().unwrap().contains("bad request"));
        let mistyped = responses.iter().find(|r| r.id == 5).unwrap();
        assert!(!mistyped.ok);
        assert!(mistyped.error.as_ref().unwrap().contains("bad request"));
    }

    #[test]
    fn unparseable_lines_count_as_failed_requests() {
        let service = Service::start(
            Engine::new(paper_library()),
            ServiceConfig {
                workers: 2,
                max_line_bytes: 128,
                ..ServiceConfig::default()
            },
        );
        let script = format!(
            "this is not json\n{}\n{}\n{}\n",
            r#"{"op":"frobnicate","id":3}"#,
            "x".repeat(256),
            r#"{"op":"synth","id":2,"graph":"hal","latency":17,"power":-1}"#,
        );
        let responses = drive(&service, &script);
        assert_eq!(responses.len(), 4);
        assert!(responses.iter().all(|r| !r.ok));
        assert_eq!(service.stats().failed, 4);
        assert!(
            service
                .metrics_text()
                .lines()
                .any(|l| l == "pchls_requests_failed_total 4"),
            "the scrape agrees with stats"
        );
    }

    #[test]
    fn eof_waits_for_in_flight_jobs() {
        let service = service();
        // Three jobs, then immediate EOF: all three must still answer.
        let script = concat!(
            r#"{"id":1,"graph":"hal","latency":17,"power":25}"#,
            "\n",
            r#"{"id":2,"graph":"hal","latency":17,"power":40}"#,
            "\n",
            r#"{"id":3,"graph":"cosine","latency":15,"power":40}"#,
            "\n",
        );
        let responses = drive(&service, script);
        let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(responses.iter().all(|r| r.ok));
    }

    #[test]
    fn oversized_lines_answer_a_structured_error_not_a_hangup() {
        let service = Service::start(
            Engine::new(paper_library()),
            ServiceConfig {
                workers: 1,
                max_line_bytes: 128,
                ..ServiceConfig::default()
            },
        );
        let flood = "x".repeat(4096);
        let script = format!(
            "{flood}\n{}\n",
            r#"{"op":"synth","id":7,"graph":"hal","latency":17,"power":25}"#
        );
        let responses = drive(&service, &script);
        assert_eq!(responses.len(), 2);
        let err = responses.iter().find(|r| r.id == 0).unwrap();
        assert!(!err.ok);
        assert!(
            err.error.as_ref().unwrap().contains("128"),
            "error names the cap: {:?}",
            err.error
        );
        // The connection survived and the next request still answers.
        let ok = responses.iter().find(|r| r.id == 7).unwrap();
        assert!(ok.ok && ok.point.is_some());
    }

    /// One scripted client over real TCP against the reactor loop.
    fn tcp_exchange(stream: &mut TcpStream, line: &str) -> SubmitResponse {
        writeln!(stream, "{line}").unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        serde_json::from_str(&response).expect("well-formed response line")
    }

    #[test]
    fn reactor_tcp_round_trips_and_stops_cleanly() {
        let service = service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = ShutdownHandle::new();
        std::thread::scope(|scope| {
            let loop_thread = scope.spawn(|| serve_tcp_with(&service, &listener, &shutdown));
            let mut stream = TcpStream::connect(addr).unwrap();
            let synth = tcp_exchange(
                &mut stream,
                r#"{"id":1,"graph":"hal","latency":17,"power":25}"#,
            );
            assert!(synth.ok, "{:?}", synth.error);
            assert!(synth.point.is_some());
            let stats = tcp_exchange(&mut stream, r#"{"op":"stats","id":2}"#);
            assert_eq!(stats.stats.unwrap().completed, 1);
            // A second connection shares the same reactor.
            let mut second = TcpStream::connect(addr).unwrap();
            let warm = tcp_exchange(
                &mut second,
                r#"{"id":3,"graph":"hal","latency":17,"power":25}"#,
            );
            assert!(warm.ok);
            // The fixed shutdown path: request a stop, the loop returns.
            shutdown.request_stop();
            loop_thread.join().unwrap().unwrap();
        });
        // The service survives the front end stopping.
        assert!(service.call(SubmitRequest::synth(9, "hal", 17, 25.0)).ok);
    }

    #[test]
    fn stop_before_any_connection_returns_immediately() {
        let service = service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let shutdown = ShutdownHandle::new();
        shutdown.request_stop();
        // Requested before the loop starts: it must still observe it.
        serve_tcp_with(&service, &listener, &shutdown).unwrap();
    }

    #[test]
    fn rate_limited_connections_get_structured_refusals() {
        let service = Service::start(
            Engine::new(paper_library()),
            ServiceConfig {
                workers: 1,
                rate_per_sec: 0.001, // effectively: the burst, then nothing
                burst: 2.0,
                ..ServiceConfig::default()
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = ShutdownHandle::new();
        std::thread::scope(|scope| {
            let loop_thread = scope.spawn(|| serve_tcp_with(&service, &listener, &shutdown));
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut limited = 0;
            for id in 0..5 {
                let resp = tcp_exchange(
                    &mut stream,
                    &format!(r#"{{"id":{id},"graph":"hal","latency":17,"power":25}}"#),
                );
                if resp.error.as_deref() == Some("rate_limited") {
                    limited += 1;
                } else {
                    assert!(resp.ok, "{:?}", resp.error);
                }
            }
            assert_eq!(limited, 3, "burst of 2 admitted, the rest clipped");
            // Stats ops are exempt from the synth bucket.
            let stats = tcp_exchange(&mut stream, r#"{"op":"stats","id":99}"#);
            assert_eq!(stats.stats.unwrap().rate_limited, 3);
            shutdown.request_stop();
            loop_thread.join().unwrap().unwrap();
        });
    }
}
