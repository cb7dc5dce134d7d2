//! Line framing with bounded buffering, and a cursor-tracked write
//! buffer — the two halves of a connection's byte handling.
//!
//! [`LineCodec`] accumulates arbitrary byte chunks and yields complete
//! newline-terminated frames. Memory is bounded: once an unterminated
//! line crosses the configured cap the codec reports
//! [`FrameError::TooLong`] exactly once, drops what it buffered, and
//! silently discards until the next newline — so one hostile client
//! cannot balloon the process or wedge the framing for its own later,
//! well-behaved lines.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};

/// Framing failure for one line; the stream itself stays usable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// An unterminated line exceeded the cap; bytes up to the next
    /// newline are discarded. Carries the configured cap.
    TooLong(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLong(cap) => {
                write!(f, "line exceeds maximum length of {cap} bytes")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// One item produced by [`LineCodec::next_frame`].
pub type Frame = Result<Vec<u8>, FrameError>;

/// Incremental newline framing with a hard per-line byte cap.
#[derive(Debug)]
pub struct LineCodec {
    buf: Vec<u8>,
    /// Complete frames (or errors) ready to hand out.
    ready: VecDeque<Frame>,
    max_line: usize,
    /// Inside an oversized line: drop bytes until the next newline.
    discarding: bool,
}

impl LineCodec {
    /// Creates a codec that rejects lines longer than `max_line` bytes
    /// (exclusive of the terminating newline).
    #[must_use]
    pub fn new(max_line: usize) -> LineCodec {
        LineCodec {
            buf: Vec::new(),
            ready: VecDeque::new(),
            max_line: max_line.max(1),
            discarding: false,
        }
    }

    /// Feeds a chunk of received bytes. Split points are arbitrary —
    /// a line may arrive one byte at a time or many lines in one chunk.
    pub fn push(&mut self, mut chunk: &[u8]) {
        while !chunk.is_empty() {
            match chunk.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    if self.discarding {
                        // Tail of an oversized line: drop through the
                        // newline, then resume normal framing.
                        self.discarding = false;
                    } else {
                        let mut line = std::mem::take(&mut self.buf);
                        line.extend_from_slice(&chunk[..nl]);
                        if line.last() == Some(&b'\r') {
                            line.pop();
                        }
                        if line.len() > self.max_line {
                            self.ready
                                .push_back(Err(FrameError::TooLong(self.max_line)));
                        } else {
                            self.ready.push_back(Ok(line));
                        }
                    }
                    chunk = &chunk[nl + 1..];
                }
                None => {
                    if !self.discarding {
                        self.buf.extend_from_slice(chunk);
                        if self.buf.len() > self.max_line {
                            // Report once at the crossing, free the
                            // memory, and discard the rest of the line.
                            self.buf = Vec::new();
                            self.discarding = true;
                            self.ready
                                .push_back(Err(FrameError::TooLong(self.max_line)));
                        }
                    }
                    return;
                }
            }
        }
    }

    /// Next complete frame, if one is buffered. `Err` frames mark a
    /// single rejected line; keep calling — later lines still arrive.
    pub fn next_frame(&mut self) -> Option<Frame> {
        self.ready.pop_front()
    }

    /// Bytes of an unterminated trailing line (useful at EOF: a final
    /// line without a newline is still meaningful on stdio).
    #[must_use]
    pub fn partial(&self) -> &[u8] {
        &self.buf
    }
}

/// Outbound bytes with a write cursor, so partial kernel writes resume
/// where they left off instead of re-queuing.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> WriteBuffer {
        WriteBuffer::default()
    }

    /// Unsent byte count.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether everything queued has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Queues bytes for sending.
    pub fn queue(&mut self, bytes: &[u8]) {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Writes as much pending data as `w` accepts without blocking.
    /// Returns `Ok(true)` once the buffer is fully drained, `Ok(false)`
    /// if the sink applied backpressure (`WouldBlock`).
    pub fn write_to<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "connection sink accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.pos += n;
                    // Reclaim memory once a large burst fully drains.
                    if self.pos == self.buf.len() {
                        self.buf.clear();
                        self.pos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(codec: &mut LineCodec) -> Vec<Frame> {
        std::iter::from_fn(|| codec.next_frame()).collect()
    }

    #[test]
    fn frames_split_at_arbitrary_boundaries() {
        let mut codec = LineCodec::new(64);
        codec.push(b"hel");
        codec.push(b"lo\nwor");
        assert_eq!(codec.next_frame(), Some(Ok(b"hello".to_vec())));
        assert_eq!(codec.next_frame(), None);
        codec.push(b"ld\n");
        assert_eq!(codec.next_frame(), Some(Ok(b"world".to_vec())));
    }

    #[test]
    fn crlf_is_stripped() {
        let mut codec = LineCodec::new(64);
        codec.push(b"abc\r\ndef\n");
        assert_eq!(
            lines(&mut codec),
            vec![Ok(b"abc".to_vec()), Ok(b"def".to_vec())]
        );
    }

    #[test]
    fn oversized_line_reports_once_then_recovers() {
        let mut codec = LineCodec::new(8);
        codec.push(b"0123456789"); // crosses the cap mid-line
        assert_eq!(codec.next_frame(), Some(Err(FrameError::TooLong(8))));
        assert_eq!(codec.next_frame(), None, "reported once, not per chunk");
        codec.push(b"more-junk-still-the-same-line");
        assert_eq!(codec.next_frame(), None);
        codec.push(b"tail\nok\n");
        // "tail" belongs to the oversized line and is discarded.
        assert_eq!(lines(&mut codec), vec![Ok(b"ok".to_vec())]);
    }

    #[test]
    fn oversized_complete_line_in_one_chunk_is_rejected() {
        let mut codec = LineCodec::new(4);
        codec.push(b"toolong\nok\n");
        assert_eq!(
            lines(&mut codec),
            vec![Err(FrameError::TooLong(4)), Ok(b"ok".to_vec())]
        );
    }

    #[test]
    fn discard_mode_memory_stays_bounded() {
        let mut codec = LineCodec::new(16);
        for _ in 0..1000 {
            codec.push(&[b'x'; 1024]);
        }
        assert!(codec.partial().len() <= 16, "buffer freed while discarding");
        assert_eq!(codec.next_frame(), Some(Err(FrameError::TooLong(16))));
        assert_eq!(codec.next_frame(), None);
    }

    #[test]
    fn partial_tail_is_retrievable_at_eof() {
        let mut codec = LineCodec::new(64);
        codec.push(b"complete\nunfinished");
        assert_eq!(codec.next_frame(), Some(Ok(b"complete".to_vec())));
        assert_eq!(codec.partial(), b"unfinished");
    }

    /// A sink that accepts at most `cap` bytes per write and applies
    /// backpressure every other call.
    struct Throttled {
        out: Vec<u8>,
        cap: usize,
        tick: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.tick += 1;
            if self.tick.is_multiple_of(2) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buffer_resumes_after_partial_writes() {
        let mut wb = WriteBuffer::new();
        wb.queue(b"abcdefghij");
        let mut sink = Throttled {
            out: Vec::new(),
            cap: 3,
            tick: 0,
        };
        let mut drained = false;
        for _ in 0..16 {
            drained = wb.write_to(&mut sink).unwrap();
            if drained {
                break;
            }
            wb.queue(b""); // no-op between attempts
        }
        assert!(drained);
        assert_eq!(sink.out, b"abcdefghij");
        assert!(wb.is_empty());
    }

    #[test]
    fn queue_while_partially_drained_preserves_order() {
        let mut wb = WriteBuffer::new();
        wb.queue(b"first|");
        let mut sink = Throttled {
            out: Vec::new(),
            cap: 4,
            tick: 0,
        };
        let _ = wb.write_to(&mut sink); // partial progress
        wb.queue(b"second");
        while !wb.write_to(&mut sink).unwrap() {}
        assert_eq!(sink.out, b"first|second");
    }
}
