//! The parked helper threads behind a parallel
//! [`SweepRunner`](super::SweepRunner).
//!
//! A runner `threads` wide owns one [`Pool`] of `threads − 1` named helpers,
//! shared by its clones.  The helpers start on the first [`Pool::run`], park
//! on a condvar between runs, and are joined when the pool drops with the
//! runner's last clone.  A run posts one job with a number of seats; each
//! seat is taken by a parked helper, which calls the job once and leaves the
//! seat.  While the job is posted the pool is busy, and a second run (from
//! another thread, or nested in the job or the caller's part) returns at once
//! without running anything.
//!
//! The job borrows the caller's stack, yet the helpers are `'static`
//! threads, so [`Pool::run`] erases the job reference's lifetime: the one
//! `unsafe` step of the runner, and the reason this module is the second one
//! of the crate to opt out of `deny(unsafe_code)` (after `serve::sys`).  It
//! is sound because `run` neither returns nor unwinds before every seat of
//! the job has been left, and it retires the job before it returns.
#![allow(unsafe_code)]

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A posted job, its borrow's lifetime erased (see [`Pool::run`]).
type Job = &'static (dyn Fn() + Sync);

/// A panic payload caught on a helper.
type Payload = Box<dyn Any + Send>;

/// `size` helper threads and the state they park on.
pub(super) struct Pool {
    size: usize,
    shared: Arc<Shared>,
}

struct Shared {
    state: Mutex<State>,
    /// Parked helpers wait here for a seat, or for shutdown.
    wake: Condvar,
    /// The running caller waits here for its job's seats to be left.
    done: Condvar,
}

#[derive(Default)]
struct State {
    /// The posted job, from its post until the caller retires it; `Some`
    /// means busy.
    job: Option<Job>,
    /// Seats of `job` no helper has taken yet.
    open: usize,
    /// Seats of `job` a helper has taken and not yet left.
    taken: usize,
    /// The first panic a helper caught in `job`.
    panic: Option<Payload>,
    /// The started helpers, joined on drop.
    helpers: Vec<JoinHandle<()>>,
    shutdown: bool,
}

impl Pool {
    /// A pool of `size` helpers, none started yet.
    pub(super) fn new(size: usize) -> Self {
        Self {
            size,
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                wake: Condvar::new(),
                done: Condvar::new(),
            }),
        }
    }

    /// Calls `job` once per seat, each on a helper, while `lead` runs on the
    /// calling thread, and returns `lead`'s result once every seat has been
    /// left.  Returns `None`, running neither, when the pool is busy with
    /// another run's job.
    ///
    /// # Panics
    /// Panics if `seats` exceeds the pool's size, or if a helper cannot be
    /// started.  A panic in `lead`, or else the first one in `job`,
    /// propagates once every seat has been left.
    pub(super) fn run<R>(
        &self,
        seats: usize,
        job: &(dyn Fn() + Sync),
        lead: impl FnOnce() -> R,
    ) -> Option<R> {
        assert!(seats <= self.size, "a job has at most one seat per helper");
        let mut state = self.shared.lock();
        if state.job.is_some() {
            return None;
        }
        while state.helpers.len() < self.size {
            let shared = Arc::clone(&self.shared);
            let helper = std::thread::Builder::new()
                .name(format!("sweep-helper-{}", state.helpers.len() + 1))
                .spawn(move || shared.park())
                .expect("cannot start a sweep helper thread");
            state.helpers.push(helper);
        }
        // SAFETY: only the layout-identical lifetime changes.  A helper
        // dereferences the erased reference only between taking a seat and
        // leaving it, `retire` below waits until every seat of this job has
        // been left and then clears `state.job`, and nothing between here
        // and that wait can return or unwind (`lead`'s panic is caught), so
        // the reference is neither used nor kept past this call's borrow.
        let job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
        state.job = Some(job);
        state.open = seats;
        drop(state);
        for _ in 0..seats {
            self.shared.wake.notify_one();
        }
        let lead = panic::catch_unwind(AssertUnwindSafe(lead));
        let helper_panic = self.shared.retire();
        match (lead, helper_panic) {
            (Err(payload), _) | (Ok(_), Some(payload)) => panic::resume_unwind(payload),
            (Ok(result), None) => Some(result),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let helpers = {
            let mut state = self.shared.lock();
            state.shutdown = true;
            std::mem::take(&mut state.helpers)
        };
        self.shared.wake.notify_all();
        for helper in helpers {
            // A helper catches every panic of a job, so none ends in one.
            let _ = helper.join();
        }
    }
}

impl Shared {
    /// Locks the state.  Every critical section leaves the state valid at
    /// each step, so a lock poisoned by a panic inside one (a helper that
    /// cannot be started) still guards valid state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper's life: take a seat of the posted job, call it, leave the
    /// seat; park while no seat is open; return on shutdown.
    fn park(&self) {
        let mut state = self.lock();
        loop {
            if state.shutdown {
                return;
            }
            let job = match state.job {
                Some(job) if state.open > 0 => job,
                _ => {
                    state = self
                        .wake
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
            };
            state.open -= 1;
            state.taken += 1;
            drop(state);
            let outcome = panic::catch_unwind(AssertUnwindSafe(job));
            state = self.lock();
            if let Err(payload) = outcome {
                state.panic.get_or_insert(payload);
            }
            state.taken -= 1;
            if state.open + state.taken == 0 {
                self.done.notify_one();
            }
        }
    }

    /// Waits until every seat of the posted job has been taken and left,
    /// then retires the job, which frees the pool for the next run.
    /// Returns the first panic a helper caught in it.
    fn retire(&self) -> Option<Payload> {
        let mut state = self.lock();
        while state.open + state.taken > 0 {
            state = self
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
        state.panic.take()
    }
}
