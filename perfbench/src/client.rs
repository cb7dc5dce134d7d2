//! The wire client: JSON-lines requests over loopback TCP, in an open
//! loop (one connection, sent on a precomputed schedule by one thread
//! and received by another, timed from each request's due time) or a
//! closed loop (a bounded in-flight window, or one request at a time,
//! one thread per connection).

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pchls_obs::Arg;
use pchls_serve::{SubmitRequest, SubmitResponse};

use crate::tracing::REQUEST_SPAN;

/// A connection gives up on replies after this long without one — a
/// hung service fails the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The open loop's sender sleeps until this long before a request is
/// due and spins the rest of the way, so the timer's slack and the
/// thread's wake-up stay out of the request's latency.
const SPIN: Duration = Duration::from_micros(200);

/// One request ready to send.
#[derive(Debug, Clone)]
pub struct Req {
    pub id: u64,
    /// Offset of the due time from the phase start (open loop only).
    pub due: Duration,
    line: String,
}

impl Req {
    pub fn new(request: &SubmitRequest, due: Duration) -> Req {
        let mut line = serde_json::to_string(request).expect("requests serialize");
        line.push('\n');
        Req {
            id: request.id,
            due,
            line,
        }
    }

    /// The same request with its due time counted from `origin` instead.
    pub fn due_from(&self, origin: Duration) -> Req {
        Req {
            due: self.due.saturating_sub(origin),
            ..self.clone()
        }
    }
}

/// One answered request.
#[derive(Debug)]
pub struct Reply {
    pub id: u64,
    /// From due time (open loop) or send time (closed loop) to reply.
    pub latency: Duration,
    /// How late the request left relative to its due time.
    pub lag: Duration,
    pub response: SubmitResponse,
}

/// Splits complete lines off `buf` and decodes each as a response.
fn take_lines(buf: &mut Vec<u8>, mut on_reply: impl FnMut(SubmitResponse)) -> io::Result<()> {
    while let Some(end) = buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = buf.drain(..=end).collect();
        let text = std::str::from_utf8(&line[..end])
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
        let response: SubmitResponse = serde_json::from_str(text)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        on_reply(response);
    }
    Ok(())
}

/// Asks the kernel to acknowledge what `stream` receives at once rather
/// than after the delayed-acknowledgement timer. The kernel drops back to
/// delayed acknowledgements on its own, so this is set again after every
/// read.
fn quick_ack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    let on: i32 = 1;
    // SAFETY: the descriptor is open for the whole call and `on` is a
    // readable int of the length passed.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            &on,
            std::mem::size_of::<i32>() as u32,
        )
    };
    debug_assert_eq!(rc, 0, "setsockopt(TCP_QUICKACK) failed");
}

fn record_request_span(traced: bool, id: u64, from: Instant, to: Instant) {
    if traced {
        pchls_obs::record_span(REQUEST_SPAN, from, to, &[("id", Arg::U64(id))]);
    }
}

/// Sends `reqs` (sorted by due time) on one connection at their due
/// times relative to `start`: a sender thread sleeps until each due
/// time and writes, a receiver thread blocks on replies, so neither
/// clock waits on the other. Returns once every request is answered.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Req],
    start: Instant,
    traced: bool,
) -> io::Result<Vec<Reply>> {
    let mut writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    let mut reader = writer.try_clone()?;
    reader.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let index: HashMap<u64, usize> = reqs.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    // Send instants as nanoseconds after `start`, written by the sender
    // before the request leaves, read by the receiver after its reply.
    let sent: Vec<AtomicU64> = reqs.iter().map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        let sender = s.spawn(|| -> io::Result<()> {
            for (i, req) in reqs.iter().enumerate() {
                let due = start + req.due;
                let now = Instant::now();
                if due > now + SPIN {
                    std::thread::sleep(due - now - SPIN);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                let at = start.elapsed().as_nanos() as u64;
                sent[i].store(at.max(1), Ordering::Release);
                writer.write_all(req.line.as_bytes())?;
            }
            Ok(())
        });
        let mut replies = Vec::with_capacity(reqs.len());
        let mut buf = Vec::new();
        let mut chunk = vec![0u8; 1 << 16];
        let received = loop {
            if replies.len() == reqs.len() {
                break Ok(replies);
            }
            quick_ack(&reader);
            let k = match reader.read(&mut chunk) {
                Ok(0) => break Err(ErrorKind::UnexpectedEof.into()),
                Ok(k) => k,
                Err(e) => break Err(e),
            };
            let at = Instant::now();
            buf.extend_from_slice(&chunk[..k]);
            let decoded = take_lines(&mut buf, |response| {
                let Some(&i) = index.get(&response.id) else {
                    return;
                };
                let due = start + reqs[i].due;
                let sent_at = start + Duration::from_nanos(sent[i].load(Ordering::Acquire));
                record_request_span(traced, response.id, due, at);
                replies.push(Reply {
                    id: response.id,
                    latency: at - due,
                    lag: sent_at.saturating_duration_since(due),
                    response,
                });
            });
            if let Err(e) = decoded {
                break Err(e);
            }
        };
        if received.is_err() {
            // Unblock a sender still writing into a dead connection.
            let _ = reader.shutdown(std::net::Shutdown::Both);
        }
        let sent = sender.join().expect("sender thread panicked");
        let replies = received?;
        sent.map(|()| replies)
    })
}

/// Sends `reqs` on one connection keeping at most `window` in flight;
/// latency runs from send to reply.
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &[Req],
    window: usize,
    traced: bool,
) -> io::Result<Vec<Reply>> {
    let mut writer = TcpStream::connect(addr)?;
    writer.set_nodelay(true)?;
    let mut reader = writer.try_clone()?;
    reader.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let mut sent: HashMap<u64, Instant> = HashMap::with_capacity(window);
    let mut replies = Vec::with_capacity(reqs.len());
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0;
    while replies.len() < reqs.len() {
        while next < reqs.len() && sent.len() < window {
            sent.insert(reqs[next].id, Instant::now());
            writer.write_all(reqs[next].line.as_bytes())?;
            next += 1;
        }
        let k = reader.read(&mut chunk)?;
        if k == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        let at = Instant::now();
        buf.extend_from_slice(&chunk[..k]);
        take_lines(&mut buf, |response| {
            if let Some(sent_at) = sent.remove(&response.id) {
                record_request_span(traced, response.id, sent_at, at);
                replies.push(Reply {
                    id: response.id,
                    latency: at - sent_at,
                    lag: Duration::ZERO,
                    response,
                });
            }
        })?;
    }
    Ok(replies)
}

/// A blocking one-request-at-a-time connection (the designer's edit
/// loop).
pub struct Caller {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Caller {
    pub fn connect(addr: SocketAddr) -> io::Result<Caller> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = writer.try_clone()?;
        reader.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Caller {
            writer,
            reader: BufReader::new(reader),
            line: String::new(),
        })
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, req: &Req, traced: bool) -> io::Result<Reply> {
        let sent_at = Instant::now();
        self.writer.write_all(req.line.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        let at = Instant::now();
        let response: SubmitResponse = serde_json::from_str(self.line.trim_end())
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        record_request_span(traced, req.id, sent_at, at);
        Ok(Reply {
            id: response.id,
            latency: at - sent_at,
            lag: Duration::ZERO,
            response,
        })
    }
}
