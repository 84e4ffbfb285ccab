//! The std-only TCP front-end and its pipelined client.
//!
//! Transport is the [`wire`] framing (`tag u64 BE · length u64 BE ·
//! payload`); the payloads are the sealed [`codec`] envelopes.  One frame
//! carries one request batch; the reply frame echoes the request tag so a
//! client can match responses to submissions (and pipeline several).
//!
//! [`PlanServer`] drives every connection from a small fixed pool of epoll
//! event-loop threads through nonblocking state machines (see
//! [`reactor`](super::reactor)), so throughput scales with connections, not
//! OS threads.  Serving needs epoll: off Linux, [`PlanServer::bind_with`]
//! fails with [`io::ErrorKind::Unsupported`].  Error containment is
//! per-layer:
//!
//! * A **frame** violation (oversized length, truncated header, I/O error)
//!   drops the connection — framing is the resynchronization boundary, and
//!   a stream that lied about a length cannot be trusted about the next
//!   header.  The server itself stays up.
//! * A **codec** violation (bad magic, bad seal, malformed body) is
//!   answered with a single [`Response::Error`] batch and the connection
//!   *stays open* — the frame boundary was intact, so the next frame is
//!   still well-delimited.
//! * A **semantic** error (infeasible workload) is a normal, typed answer.
//! * A peer that stalls **mid-frame** (or refuses to read its responses)
//!   beyond [`ServeConfig::idle_timeout`] is dropped — the slow-loris
//!   guard.  A connection idle *between* frames is left alone.
//!
//! Shutdown is wire-level: any client may send the
//! [`RequestEnvelope::Shutdown`](super::RequestEnvelope::Shutdown)
//! envelope; the server answers `Bye`, stops accepting, and
//! [`PlanServer::wait`] returns.  (A std-only binary cannot install signal
//! handlers without extra dependencies, so the protocol owns clean shutdown
//! — the `plan_server` binary documents this.)

use super::codec::{self, Request, Response, ResponseEnvelope, WireCodecError, MAX_SERVE_FRAME};
use super::PlanService;
use crate::wire::{self, FrameError};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

#[cfg(target_os = "linux")]
use super::reactor::spawn as spawn_event_loops;

/// How connections are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadModel {
    /// A pool of epoll event loops sharing the listener.
    Reactor {
        /// Event-loop threads sharing the listener (clamped to ≥ 1).
        event_loops: usize,
    },
}

/// Server knobs beyond the bind address.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Event-loop pool size (see [`ThreadModel`]).
    pub threads: ThreadModel,
    /// Drop a connection stalled mid-frame (or with unread responses) for
    /// longer than this; `None` disables the guard.  Idle-but-between-frames
    /// connections are never dropped, so keep-alive clients survive.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    /// One event loop per core, capped at 4 — plan serving is I/O-light, so
    /// a few loops saturate well before the core count on big hosts, and a
    /// single loop avoids pointless context switching on small ones — and a
    /// 10 s idle timeout.
    fn default() -> Self {
        let cores = thread::available_parallelism().map_or(2, NonZeroUsize::get);
        Self {
            threads: ThreadModel::Reactor {
                event_loops: cores.clamp(1, 4),
            },
            idle_timeout: Some(Duration::from_secs(10)),
        }
    }
}

/// A running plan server: a pool of epoll event loops answering out of one
/// shared [`PlanService`].
#[derive(Debug)]
pub struct PlanServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    service: Arc<PlanService>,
}

impl PlanServer {
    /// Binds an ephemeral loopback port and serves with default config.
    pub fn bind(service: PlanService) -> io::Result<Self> {
        Self::bind_addr("127.0.0.1:0", service)
    }

    /// Binds `addr` and serves with default config.
    pub fn bind_addr(addr: impl ToSocketAddrs, service: PlanService) -> io::Result<Self> {
        Self::bind_with(addr, service, ServeConfig::default())
    }

    /// Binds `addr` and serves with explicit [`ServeConfig`].
    ///
    /// # Errors
    /// The bind or thread-spawn failure; [`io::ErrorKind::Unsupported`] off
    /// Linux, where there is no epoll.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        service: PlanService,
        config: ServeConfig,
    ) -> io::Result<Self> {
        let ThreadModel::Reactor { event_loops } = config.threads;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let service = Arc::new(service);
        let workers =
            spawn_event_loops(&listener, &service, &stop, event_loops, config.idle_timeout)?;
        Ok(Self {
            addr,
            stop,
            workers,
            service,
        })
    }

    /// The bound address (useful after an ephemeral bind).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (for counter snapshots).
    #[must_use]
    pub fn service(&self) -> &PlanService {
        &self.service
    }

    /// Blocks until a client-initiated shutdown stops the workers, then
    /// returns the service for a final counter snapshot.
    pub fn wait(mut self) -> Arc<PlanService> {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        Arc::clone(&self.service)
    }

    /// Stops the server from the owning side (idempotent; also run by
    /// `Drop`).  The event loops flush what they owe before they exit, so
    /// in-flight answers are never truncated.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if self.workers.is_empty() {
            return;
        }
        // Every loop watches the listener, so a probe connection wakes the
        // loops' `epoll_wait` now instead of leaving them to see the flag
        // at their next 20 ms tick.  The loop that accepts it drops it.
        let _ = TcpStream::connect(self.addr);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for PlanServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serving needs epoll, so off Linux every bind fails.
#[cfg(not(target_os = "linux"))]
fn spawn_event_loops(
    _listener: &TcpListener,
    _service: &Arc<PlanService>,
    _stop: &Arc<AtomicBool>,
    _event_loops: usize,
    _idle_timeout: Option<Duration>,
) -> io::Result<Vec<JoinHandle<()>>> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "plan serving needs epoll, which only Linux has",
    ))
}

/// A client-side protocol violation.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (I/O error, oversized or truncated frame).
    Frame(FrameError),
    /// The server's payload failed to decode.
    Codec(WireCodecError),
    /// The server answered with a well-formed but unexpected envelope, or
    /// the pipeline was misused (full, undrained, unknown tag).
    Protocol(&'static str),
    /// A configured client deadline ([`PlanClient::with_timeout`]) expired
    /// while waiting on the socket — the server died or stalled with replies
    /// outstanding.  Without a timeout the client would block forever.
    Timeout,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Frame(error) => write!(f, "transport: {error}"),
            Self::Codec(error) => write!(f, "codec: {error}"),
            Self::Protocol(message) => write!(f, "protocol: {message}"),
            Self::Timeout => write!(f, "timed out waiting for the server"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(error: FrameError) -> Self {
        match error {
            FrameError::Io(io_error) => io_error.into(),
            other => Self::Frame(other),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(error: io::Error) -> Self {
        // With socket timeouts set, a stalled read/write surfaces as
        // WouldBlock (Unix) or TimedOut (Windows); both mean the configured
        // deadline expired, not a broken transport.
        if matches!(
            error.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            return Self::Timeout;
        }
        Self::Frame(FrameError::Io(error))
    }
}

impl From<WireCodecError> for ClientError {
    fn from(error: WireCodecError) -> Self {
        Self::Codec(error)
    }
}

/// Default bound on a client's in-flight request frames.
const DEFAULT_PIPELINE: usize = 32;

/// A blocking, pipelined plan-server client over one TCP connection.
///
/// Two usage styles share the connection state:
///
/// * **One-shot** ([`query`](Self::query) / [`ask`](Self::ask)) — submit,
///   wait, return: exactly the PR 7 API, preserved unchanged.
/// * **Pipelined** ([`submit`](Self::submit) / [`recv`](Self::recv) /
///   [`take`](Self::take)) — up to K tagged request frames ride the socket
///   before the first reply is consumed, amortising syscalls and flight
///   time.  Submissions are buffered and flushed lazily (on
///   [`flush`](Self::flush) or first receive), so a burst of submissions
///   leaves as one write.  Replies are matched by echoed tag:
///   [`take`](Self::take) consumes a *specific* submission's answer
///   regardless of consumption order, stashing any replies that arrive
///   ahead of it — out-of-order completion is safe by construction.
#[derive(Debug)]
pub struct PlanClient {
    stream: TcpStream,
    next_tag: u64,
    /// Buffered request frames not yet written to the socket.
    out: Vec<u8>,
    /// `(tag, expected answer count)` of every unconsumed submission, in
    /// submission order.  A linear scan: the pipeline is bounded and
    /// shallow, so this beats hashing on the per-frame hot path.
    inflight: Vec<(u64, usize)>,
    /// Replies read off the wire but not yet consumed, in arrival order.
    ready: VecDeque<(u64, Vec<Response>)>,
    max_inflight: usize,
    /// Incremental reassembly of reply frames from buffered socket reads.
    decoder: wire::FrameDecoder,
    /// Reply frames reassembled but not yet matched to a submission.
    frames: VecDeque<(u64, Vec<u8>)>,
    /// Reusable socket read buffer: one `read` drains every reply the
    /// kernel has queued, so a deep pipeline costs ~one syscall per burst
    /// rather than two per frame.
    scratch: Vec<u8>,
}

impl PlanClient {
    /// Connects to a running [`PlanServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            next_tag: 1,
            out: Vec::new(),
            inflight: Vec::new(),
            ready: VecDeque::new(),
            max_inflight: DEFAULT_PIPELINE,
            decoder: wire::FrameDecoder::new(MAX_SERVE_FRAME),
            frames: VecDeque::new(),
            scratch: vec![0u8; 16 * 1024],
        })
    }

    /// Caps the pipeline at `depth` in-flight submissions (clamped to ≥ 1;
    /// default 32).
    #[must_use]
    pub fn with_pipeline(mut self, depth: usize) -> Self {
        self.max_inflight = depth.max(1);
        self
    }

    /// Bounds every socket read and write by `timeout` (clamped to ≥ 1 ms).
    /// A server that dies or stalls with replies outstanding then surfaces
    /// as [`ClientError::Timeout`] instead of blocking
    /// [`recv`](Self::recv) / [`take`](Self::take) forever.  By default no
    /// deadline is set (the PR 7/8 behaviour: reads block indefinitely).
    ///
    /// # Errors
    /// The socket-option failure, as [`io::Error`].
    pub fn with_timeout(self, timeout: Duration) -> io::Result<Self> {
        let timeout = timeout.max(Duration::from_millis(1));
        self.stream.set_read_timeout(Some(timeout))?;
        self.stream.set_write_timeout(Some(timeout))?;
        Ok(self)
    }

    /// Unconsumed submissions (including replies already stashed).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.inflight.len() + self.ready.len()
    }

    /// Queues one request batch, returning its tag for [`take`](Self::take).
    /// The frame is buffered; it reaches the socket on [`flush`](Self::flush)
    /// or the next receive.
    ///
    /// # Errors
    /// [`ClientError::Protocol`] when the pipeline is full.
    pub fn submit(&mut self, requests: &[Request]) -> Result<u64, ClientError> {
        if self.in_flight() >= self.max_inflight {
            return Err(ClientError::Protocol("pipeline full"));
        }
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1);
        wire::append_frame(&mut self.out, tag, &codec::encode_requests(requests));
        self.inflight.push((tag, requests.len()));
        Ok(tag)
    }

    /// Writes every buffered submission to the socket in one write.
    ///
    /// # Errors
    /// The socket write failure, as [`ClientError::Frame`].
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if !self.out.is_empty() {
            self.stream.write_all(&self.out)?;
            self.out.clear();
        }
        Ok(())
    }

    /// The next reply frame off the wire, via buffered reads: blocks until
    /// at least one frame completes, reassembling through the same
    /// [`wire::FrameDecoder`] the reactor uses (identical cap and typed
    /// errors to the blocking [`wire::read_frame`] path).
    fn next_frame(&mut self) -> Result<(u64, Vec<u8>), ClientError> {
        loop {
            if let Some(frame) = self.frames.pop_front() {
                return Ok(frame);
            }
            let got = self.stream.read(&mut self.scratch)?;
            if got == 0 {
                return Err(ClientError::Frame(wire::FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed mid-reply",
                ))));
            }
            let mut batch = Vec::new();
            self.decoder.feed(&self.scratch[..got], &mut batch)?;
            self.frames.extend(batch);
        }
    }

    /// Reads one reply frame into `(tag, answers)`, validating the tag and
    /// answer count against the matching submission.
    fn read_reply(&mut self) -> Result<(u64, Vec<Response>), ClientError> {
        self.flush()?;
        let (tag, payload) = self.next_frame()?;
        let Some(position) = self.inflight.iter().position(|(flying, _)| *flying == tag) else {
            return Err(ClientError::Protocol("reply tag not in flight"));
        };
        let (_, expected) = self.inflight.swap_remove(position);
        match codec::decode_response(&payload)? {
            ResponseEnvelope::Answers(answers) if answers.len() == expected => Ok((tag, answers)),
            ResponseEnvelope::Answers(_) => Err(ClientError::Protocol("answer count mismatch")),
            ResponseEnvelope::Bye => Err(ClientError::Protocol("unsolicited bye")),
        }
    }

    /// The next completed submission in arrival order, as `(tag, answers)`.
    /// Flushes buffered submissions first, so `submit*N` then `recv*N`
    /// cannot deadlock.
    ///
    /// # Errors
    /// [`ClientError::Protocol`] when nothing is in flight; otherwise any
    /// transport/codec failure.
    pub fn recv(&mut self) -> Result<(u64, Vec<Response>), ClientError> {
        if let Some(front) = self.ready.pop_front() {
            return Ok(front);
        }
        if self.inflight.is_empty() {
            return Err(ClientError::Protocol("nothing in flight"));
        }
        self.read_reply()
    }

    /// The answers for one *specific* submission, regardless of the order
    /// replies are consumed in: replies for other tags that arrive first
    /// are stashed and later returned by [`recv`](Self::recv)/`take`.
    ///
    /// # Errors
    /// [`ClientError::Protocol`] when `tag` was never submitted (or already
    /// consumed); otherwise any transport/codec failure.
    pub fn take(&mut self, tag: u64) -> Result<Vec<Response>, ClientError> {
        loop {
            if let Some(position) = self.ready.iter().position(|(ready, _)| *ready == tag) {
                return Ok(self.ready.remove(position).expect("position is valid").1);
            }
            if !self.inflight.iter().any(|(flying, _)| *flying == tag) {
                return Err(ClientError::Protocol("tag not in flight"));
            }
            let reply = self.read_reply()?;
            self.ready.push_back(reply);
        }
    }

    /// Sends one request batch and returns the positional answers (the
    /// one-shot API; requires a drained pipeline).
    ///
    /// # Errors
    /// [`ClientError::Protocol`] on an undrained pipeline or a server
    /// protocol violation; otherwise any transport/codec failure.
    pub fn query(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        if self.in_flight() > 0 {
            return Err(ClientError::Protocol("pipeline not drained"));
        }
        let tag = self.submit(requests)?;
        self.take(tag)
    }

    /// Sends one query (a batch of one).
    ///
    /// # Errors
    /// As [`query`](Self::query).
    pub fn ask(&mut self, request: Request) -> Result<Response, ClientError> {
        Ok(self
            .query(std::slice::from_ref(&request))?
            .pop()
            .expect("one answer per query"))
    }

    /// Requests a server shutdown and consumes the connection; returns once
    /// the server acknowledged with `Bye`.  Undrained pipelined replies are
    /// read and discarded on the way (the server answers earlier frames
    /// before the `Bye`) — drain with [`recv`](Self::recv) first if they
    /// matter.
    ///
    /// # Errors
    /// Any transport/codec failure, or [`ClientError::Protocol`] when the
    /// server answers something other than the expected `Bye`.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        let tag = self.next_tag;
        self.next_tag = self.next_tag.wrapping_add(1);
        wire::append_frame(&mut self.out, tag, &codec::encode_shutdown());
        self.flush()?;
        loop {
            let (reply_tag, payload) = self.next_frame()?;
            match codec::decode_response(&payload)? {
                ResponseEnvelope::Bye if reply_tag == tag => return Ok(()),
                ResponseEnvelope::Bye => return Err(ClientError::Protocol("bye to a stale tag")),
                ResponseEnvelope::Answers(_) => {
                    // A pipelined reply outrunning the Bye: discard.
                    let Some(position) = self
                        .inflight
                        .iter()
                        .position(|(flying, _)| *flying == reply_tag)
                    else {
                        return Err(ClientError::Protocol("answers to a shutdown request"));
                    };
                    self.inflight.swap_remove(position);
                }
            }
        }
    }
}
