//! The readiness-driven serving core: every connection multiplexed over a
//! small fixed pool of epoll event loops (Linux only).
//!
//! A thread per connection would spend one OS thread per live client, so
//! its ceiling would be the scheduler, not the hardware.  The reactor
//! inverts that: each of N event-loop threads owns one epoll instance and
//! drives every connection assigned to it through a nonblocking state
//! machine —
//!
//! * **accept** — the shared nonblocking listener is registered in *every*
//!   loop (level-triggered); whichever loop wakes first accepts until
//!   `WouldBlock` and keeps the connection on its own epoll, so there is no
//!   cross-thread handoff and no wake-pipe plumbing.  Any other accept
//!   error (`EMFILE` under fd exhaustion) leaves the listener readable, so
//!   the loop drops listener interest until the next tick instead of
//!   spinning on it.
//! * **read** — readable connections are drained to `WouldBlock`; the bytes
//!   feed the incremental [`FrameDecoder`], and every completed frame is
//!   answered through `handle_frame`, with the response frames accumulated
//!   in a per-connection write buffer (a burst of pipelined requests leaves
//!   as one `write`).
//! * **write / interest re-arming** — the buffer is flushed opportunistically;
//!   when the socket fills, `EPOLLOUT` interest is armed and dropped again
//!   the moment the buffer drains (level-triggered `EPOLLOUT` with nothing
//!   to write would busy-spin the loop).
//! * **timeouts** — once per tick (the `epoll_wait` timeout), however many
//!   readiness events arrive in between, each loop sweeps its connections:
//!   one that is stalled *mid-frame* (slow loris) or with *unread
//!   responses* for longer than the configured deadline is dropped; a
//!   connection idle between frames is left alone, so keep-alive clients
//!   survive.
//! * **shutdown** — the stop flag (set by a wire-level `Shutdown` envelope
//!   on any connection, or by the owning [`PlanServer`](super::PlanServer))
//!   is observed at the next tick; loops deregister the listener, flush
//!   what remains (bounded by a short drain grace), and exit.
//!
//! Determinism note: connection scheduling is OS-driven and therefore not
//! deterministic, but every *answer* is — responses are a pure function of
//! the canonical query (see [`super::PlanService`]), so every client gets
//! the bytes a serial linked-in service would answer, at any event-loop
//! count, which the serve test suite asserts.

use super::codec::{self, RequestEnvelope, Response};
use super::sys::{self, Epoll, EpollEvent};
use super::PlanService;
use crate::wire::{self, FrameDecoder};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token the shared listener is registered under in every loop.
const LISTENER_TOKEN: u64 = u64::MAX;

/// `epoll_wait` timeout: the granularity of timeout sweeps and stop-flag
/// observation.
const TICK_MS: i32 = 20;

/// One tick as a duration: how often a loop sweeps its connections for
/// idle deadlines, however many readiness events arrive in between.
const TICK: Duration = Duration::from_millis(TICK_MS as u64);

/// How long a loop ignores the listener after a failed accept.
const ACCEPT_PAUSE: Duration = TICK;

/// How long a stopping loop keeps pumping to flush pending responses.
const DRAIN_GRACE: Duration = Duration::from_millis(500);

/// Read scratch size; also the upper bound on bytes decoded per `read`.
const SCRATCH: usize = 64 * 1024;

/// One nonblocking connection's state.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded response frames not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Last moment the connection made read or write progress.
    last_progress: Instant,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// Close once `out` drains (set by a `Shutdown` frame's `Bye`).
    closing: bool,
}

impl Conn {
    fn pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// Spawns `event_loops` reactor threads sharing `listener`.  Each loop owns
/// its own epoll instance (created here so a failure surfaces at bind time).
pub(crate) fn spawn(
    listener: &TcpListener,
    service: &Arc<PlanService>,
    stop: &Arc<AtomicBool>,
    event_loops: usize,
    idle_timeout: Option<Duration>,
) -> std::io::Result<Vec<JoinHandle<()>>> {
    listener.set_nonblocking(true)?;
    let mut workers = Vec::new();
    for index in 0..event_loops.max(1) {
        let epoll = Epoll::new()?;
        let listener = listener.try_clone()?;
        epoll.add(listener.as_raw_fd(), sys::EPOLLIN, LISTENER_TOKEN)?;
        let service = Arc::clone(service);
        let stop = Arc::clone(stop);
        workers.push(
            std::thread::Builder::new()
                .name(format!("serve-reactor-{index}"))
                .spawn(move || event_loop(&epoll, &listener, &service, &stop, idle_timeout))?,
        );
    }
    Ok(workers)
}

/// One event-loop thread: wait → dispatch readiness → sweep, until stopped.
fn event_loop(
    epoll: &Epoll,
    listener: &TcpListener,
    service: &PlanService,
    stop: &AtomicBool,
    idle_timeout: Option<Duration>,
) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = vec![EpollEvent::zeroed(); 128];
    let mut scratch = vec![0u8; SCRATCH];
    let mut frames: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut draining = false;
    let mut drain_deadline = Instant::now();
    let mut accept_paused_until: Option<Instant> = None;
    let mut next_sweep = Instant::now() + TICK;

    loop {
        let Ok(ready) = epoll.wait(&mut events, TICK_MS) else {
            return;
        };
        for event in &events[..ready] {
            // Copy the packed fields out before use.
            let (token, bits) = (event.data, event.events);
            if token == LISTENER_TOKEN {
                if !draining
                    && !accept_all(epoll, listener, &mut conns, &mut free)
                    && epoll.delete(listener.as_raw_fd()).is_ok()
                {
                    accept_paused_until = Some(Instant::now() + ACCEPT_PAUSE);
                }
                continue;
            }
            let slot = token as usize;
            // The slot may have been closed earlier in this batch.
            let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            let mut keep = bits & sys::EPOLLERR == 0;
            if keep && bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0 {
                keep = on_readable(conn, service, stop, &mut scratch, &mut frames);
            }
            if keep {
                keep = try_flush(conn);
            }
            if keep && conn.closing && !conn.pending_out() {
                keep = false;
            }
            if keep {
                rearm(epoll, conn, slot);
            } else {
                close_slot(epoll, &mut conns, &mut free, slot);
            }
        }

        let now = Instant::now();
        if !draining
            && accept_paused_until.is_some_and(|until| now >= until)
            && epoll
                .add(listener.as_raw_fd(), sys::EPOLLIN, LISTENER_TOKEN)
                .is_ok()
        {
            accept_paused_until = None;
        }
        if let Some(deadline) = idle_timeout.filter(|_| now >= next_sweep) {
            next_sweep = now + TICK;
            for slot in 0..conns.len() {
                let stalled = conns[slot].as_ref().is_some_and(|conn| {
                    (conn.decoder.mid_frame() || conn.pending_out())
                        && now.duration_since(conn.last_progress) > deadline
                });
                if stalled {
                    close_slot(epoll, &mut conns, &mut free, slot);
                }
            }
        }

        if stop.load(Ordering::SeqCst) {
            if !draining {
                draining = true;
                drain_deadline = now + DRAIN_GRACE;
                let _ = epoll.delete(listener.as_raw_fd());
            }
            for slot in 0..conns.len() {
                if conns[slot].as_ref().is_some_and(|conn| !conn.pending_out()) {
                    close_slot(epoll, &mut conns, &mut free, slot);
                }
            }
            if conns.iter().all(Option::is_none) || now >= drain_deadline {
                return;
            }
        }
    }
}

/// Accepts until `WouldBlock`; every new connection is nonblocking, Nagle
/// is off, and read interest is registered on this loop's epoll.  Returns
/// `false` when accepting failed for another reason (`EMFILE`, `ENFILE`,
/// …), which leaves the listener readable.
fn accept_all(
    epoll: &Epoll,
    listener: &TcpListener,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
) -> bool {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue; // drop the connection, keep accepting
                }
                let slot = free.pop().unwrap_or_else(|| {
                    conns.push(None);
                    conns.len() - 1
                });
                let interest = sys::EPOLLIN | sys::EPOLLRDHUP;
                if epoll
                    .add(stream.as_raw_fd(), interest, slot as u64)
                    .is_err()
                {
                    free.push(slot);
                    continue;
                }
                conns[slot] = Some(Conn {
                    stream,
                    decoder: FrameDecoder::new(codec::MAX_SERVE_FRAME),
                    out: Vec::new(),
                    out_pos: 0,
                    last_progress: Instant::now(),
                    interest,
                    closing: false,
                });
            }
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// What a handled frame means for the connection's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameDisposition {
    /// Keep answering frames.
    KeepOpen,
    /// Flush the appended reply (`Bye`), then close.
    CloseAfterFlush,
}

/// The protocol step: decode one frame's payload, append the tagged reply
/// frame to `out`, report what happens to the connection next.
fn handle_frame(
    service: &PlanService,
    stop: &AtomicBool,
    tag: u64,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> FrameDisposition {
    match codec::decode_request(payload) {
        Ok(RequestEnvelope::Queries(requests)) => {
            let answers = service.answer_batch(&requests);
            wire::append_frame(out, tag, &codec::encode_responses(&answers));
            FrameDisposition::KeepOpen
        }
        Ok(RequestEnvelope::Shutdown) => {
            wire::append_frame(out, tag, &codec::encode_bye());
            stop.store(true, Ordering::SeqCst);
            FrameDisposition::CloseAfterFlush
        }
        Err(error) => {
            // The frame was well-delimited, so the stream is still in
            // sync: answer with a typed error and keep the connection.
            let reply =
                codec::encode_responses(&[Response::Error(format!("bad request: {error}"))]);
            wire::append_frame(out, tag, &reply);
            FrameDisposition::KeepOpen
        }
    }
}

/// Drains the socket to `WouldBlock`, feeding the decoder and answering
/// every completed frame into the write buffer.  Returns `false` when the
/// connection must close (EOF, I/O error, framing violation).
fn on_readable(
    conn: &mut Conn,
    service: &PlanService,
    stop: &AtomicBool,
    scratch: &mut [u8],
    frames: &mut Vec<(u64, Vec<u8>)>,
) -> bool {
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => return false, // peer EOF
            Ok(got) => {
                conn.last_progress = Instant::now();
                frames.clear();
                if conn.decoder.feed(&scratch[..got], frames).is_err() {
                    // Framing violation: no way to find the next boundary.
                    return false;
                }
                for (tag, payload) in frames.drain(..) {
                    match handle_frame(service, stop, tag, &payload, &mut conn.out) {
                        FrameDisposition::KeepOpen => {}
                        FrameDisposition::CloseAfterFlush => {
                            conn.closing = true;
                            return true; // stop reading; flush the Bye
                        }
                    }
                }
            }
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Writes as much pending output as the socket accepts.  Returns `false`
/// on a fatal write error.
fn try_flush(conn: &mut Conn) -> bool {
    while conn.pending_out() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return false,
            Ok(wrote) => {
                conn.out_pos += wrote;
                conn.last_progress = Instant::now();
            }
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if !conn.pending_out() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    true
}

/// Re-arms interest: write interest exactly while output is pending.
fn rearm(epoll: &Epoll, conn: &mut Conn, slot: usize) {
    let mut want = sys::EPOLLIN | sys::EPOLLRDHUP;
    if conn.pending_out() {
        want |= sys::EPOLLOUT;
    }
    if want != conn.interest
        && epoll
            .modify(conn.stream.as_raw_fd(), want, slot as u64)
            .is_ok()
    {
        conn.interest = want;
    }
}

/// Deregisters and drops a connection, recycling its slab slot.
fn close_slot(epoll: &Epoll, conns: &mut [Option<Conn>], free: &mut Vec<usize>, slot: usize) {
    if let Some(conn) = conns[slot].take() {
        let _ = epoll.delete(conn.stream.as_raw_fd());
        free.push(slot);
    }
}
