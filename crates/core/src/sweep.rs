//! Parallel sweep execution for figure-scale workloads.
//!
//! Every quantitative figure in the paper is a grid: partition optimisation
//! over (model × context × objective), network simulation over
//! (technology × MAC policy × leaf count × seed), ablations over
//! (workload × parameter step).  [`SweepRunner`] fans such grids out across
//! OS threads and returns results **in deterministic input order**, so a
//! parallel sweep produces byte-identical output to the serial loop it
//! replaces.
//!
//! # Implementation notes
//!
//! The workspace builds offline, so `rayon` cannot be a dependency; the
//! runner ships one primitive of its own, [`SweepRunner::fold_ordered`],
//! built on `std::thread::scope`.  The calling thread and `threads − 1`
//! helpers claim indices in order from an atomic counter; no claim runs more
//! than a *window* past the oldest unconsumed index, so at most `window`
//! results wait in a ring of slots; and the calling thread hands each result
//! to the consumer in index order as soon as every earlier one has been
//! consumed.  [`SweepRunner::map`] is that fold with a window of the whole
//! input, pushing into a `Vec`; its shape matches `rayon`'s indexed
//! `par_iter().map().collect()`.
//!
//! A panic in any participant aborts the fold and propagates to the caller
//! (no thread stays parked on the window), and the thread count is capped by
//! `available_parallelism`, overridable with the `HIDWA_SWEEP_THREADS`
//! environment variable (`1` forces serial execution, e.g. when profiling).

use crate::partition::{Objective, PartitionContext, PartitionOptimizer, PartitionPlan};
use hidwa_isa::models::WearableModel;
use hidwa_netsim::sim::{Simulation, SimulationReport};
use hidwa_units::TimeSpan;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One (model × context × objective) cell of a partition sweep.
#[derive(Debug, Clone)]
pub struct PartitionCell {
    /// Index into the sweep's model list.
    pub model_index: usize,
    /// Index into the sweep's context list.
    pub context_index: usize,
    /// Objective this cell optimised for.
    pub objective: Objective,
    /// Interned model name.
    pub model: Arc<str>,
    /// Interned context label.
    pub context: Arc<str>,
    /// Every cut of the model evaluated in this context, in cut order.
    pub plans: Vec<PartitionPlan>,
    /// The streaming optimum (`None` when no cut is feasible).
    pub best: Option<PartitionPlan>,
}

impl PartitionCell {
    /// Cut index of the optimum, if any cut is feasible.
    #[must_use]
    pub fn best_cut(&self) -> Option<usize> {
        self.best.as_ref().map(|p| p.cut_index)
    }
}

/// Deterministic parallel map over sweep grids.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// Runner using every available core (or `HIDWA_SWEEP_THREADS` if set).
    #[must_use]
    pub fn new() -> Self {
        let threads = std::env::var("HIDWA_SWEEP_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        Self { threads }
    }

    /// Runner that executes everything on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// Runner with an explicit thread count (minimum 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Number of worker threads this runner will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning results in item
    /// order.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.map_indexed(items, |_, item| f(item))
    }

    /// [`SweepRunner::map`] with the item index passed to the closure.
    ///
    /// # Panics
    /// Propagates panics from `f` (workers are joined before returning).
    pub fn map_indexed<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let mut results = Vec::with_capacity(items.len());
        self.fold_ordered(
            0..items.len(),
            items.len(),
            |index| f(index, &items[index]),
            |value| results.push(value),
        );
        results
    }

    /// Streams `produce(i)` for every `i` in `range` into `consume`, in
    /// index order, with at most `window` (minimum 1) results produced but
    /// not yet consumed.
    ///
    /// The calling thread and up to `threads − 1` helpers claim indices in
    /// order; a claim more than `window` past the oldest unconsumed index
    /// waits until the consumer catches up.  `consume` runs on the calling
    /// thread, on each result as soon as every earlier one has been
    /// consumed, so its calls are exactly those of the serial loop
    /// `for i in range { consume(produce(i)) }` — which is what a width-1
    /// runner (or a window of 1) runs, inline, with no thread and no lock.
    ///
    /// # Panics
    /// Propagates the first panic from `produce` or `consume`, on any
    /// thread; the other participants stop at their next claim or deposit.
    pub fn fold_ordered<T, P, C>(
        &self,
        range: Range<usize>,
        window: usize,
        produce: P,
        mut consume: C,
    ) where
        T: Send,
        P: Fn(usize) -> T + Sync,
        C: FnMut(T),
    {
        let window = window.clamp(1, range.len().max(1));
        let helpers = self.threads.min(window) - 1;
        if helpers == 0 {
            for index in range {
                consume(produce(index));
            }
            return;
        }

        let shared = Window::new(&range, window);
        let next = AtomicUsize::new(range.start);
        std::thread::scope(|scope| {
            let (shared, next, produce) = (&shared, &next, &produce);
            let handles: Vec<_> = (0..helpers)
                .map(|_| scope.spawn(move || shared.help(next, produce)))
                .collect();
            shared.lead(next, produce, &mut consume);
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// Evaluates the full (model × context × objective) partition grid.
    ///
    /// Cells are returned model-major, then context, then objective — the
    /// same order as the equivalent triple-nested serial loop.
    #[must_use]
    pub fn partition_grid(
        &self,
        models: &[WearableModel],
        contexts: &[PartitionContext],
        objectives: &[Objective],
    ) -> Vec<PartitionCell> {
        let combos: Vec<(usize, usize, usize)> = (0..models.len())
            .flat_map(|m| {
                (0..contexts.len()).flat_map(move |c| (0..objectives.len()).map(move |o| (m, c, o)))
            })
            .collect();
        self.map(&combos, |&(m, c, o)| {
            let model = &models[m];
            let context = &contexts[c];
            let objective = objectives[o];
            let optimizer = PartitionOptimizer::new(context.clone());
            let plans = optimizer
                .evaluate_all(model)
                .expect("cached cut points are always enumerable");
            // `plans` already holds every evaluated cut, so the optimum is a
            // scan over it (same first-minimum/NaN semantics as the streaming
            // `optimize`) rather than a second evaluation pass.
            let key = |p: &PartitionPlan| match objective {
                Objective::LeafEnergy => p.leaf_energy.as_joules(),
                Objective::Latency => p.latency.as_seconds(),
                Objective::EnergyDelayProduct => p.energy_delay_product(),
            };
            let best = plans
                .iter()
                .filter(|p| p.feasible)
                .min_by(|a, b| {
                    key(a)
                        .partial_cmp(&key(b))
                        .unwrap_or(core::cmp::Ordering::Equal)
                })
                .cloned();
            PartitionCell {
                model_index: m,
                context_index: c,
                objective,
                model: Arc::clone(model.interned_name()),
                context: Arc::clone(context.interned_label()),
                plans,
                best,
            }
        })
    }

    /// Runs one simulation per seed, in parallel, reports in seed order.
    ///
    /// `build` constructs a fresh [`Simulation`] for a seed (typically
    /// `scenario::body_network(...).with_seed(seed)`); each worker runs its
    /// own instance for `horizon` of simulated time.
    pub fn simulate_seeds<B>(
        &self,
        seeds: &[u64],
        horizon: TimeSpan,
        build: B,
    ) -> Vec<SimulationReport>
    where
        B: Fn(u64) -> Simulation + Sync,
    {
        self.map(seeds, |&seed| {
            let mut sim = build(seed);
            sim.run(horizon)
        })
    }
}

/// How many times a waiter yields before it parks.  Waits are usually one
/// body long; and a parked thread's wake-up can move it onto its waker's
/// core, after which the two take turns on one core while the other idles.
const SPINS: usize = 64;

const POISONED: &str = "fold window lock poisoned: no user code runs under it";

/// The shared state of one parallel [`SweepRunner::fold_ordered`] call.
struct Window<T> {
    end: usize,
    /// Ring length: result `i` waits in slot `i % width`.
    width: usize,
    /// Oldest unconsumed index.  Only the calling thread advances it, and
    /// only while holding `state`'s lock, so a helper that checks it under
    /// the lock cannot miss an advance.  The `Release` store pairs with the
    /// helpers' lock-free `Acquire` load: an index below `head + width`
    /// means its slot has been emptied.
    head: AtomicUsize,
    state: Mutex<WindowState<T>>,
    /// Helpers whose claim lies past the window sleep here.
    room: Condvar,
    /// The calling thread sleeps here while the head result is in flight.
    ready: Condvar,
}

struct WindowState<T> {
    slots: Vec<Option<T>>,
    /// Set, under this lock, when a participant panics: every sleeper wakes
    /// and leaves.
    aborted: bool,
    /// Head index at which the calling thread wakes the helpers sleeping
    /// on `room` (`usize::MAX` while none sleeps).
    wake_helpers_at: usize,
    lead_waiting: bool,
}

/// Aborts the fold if its owner unwinds, so no other participant sleeps
/// forever on a result or a slot that will never come.
struct AbortOnUnwind<'a, T>(&'a Window<T>);

impl<T> Drop for AbortOnUnwind<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.aborted = true;
            self.0.room.notify_all();
            self.0.ready.notify_all();
        }
    }
}

impl<T> Window<T> {
    fn new(range: &Range<usize>, width: usize) -> Self {
        Self {
            end: range.end,
            width,
            head: AtomicUsize::new(range.start),
            state: Mutex::new(WindowState {
                slots: (0..width).map(|_| None).collect(),
                aborted: false,
                wake_helpers_at: usize::MAX,
                lead_waiting: false,
            }),
            room: Condvar::new(),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, WindowState<T>> {
        self.state.lock().expect(POISONED)
    }

    /// A helper's loop: claim, wait for room, produce, deposit.
    fn help(&self, next: &AtomicUsize, produce: &impl Fn(usize) -> T) {
        let _abort = AbortOnUnwind(self);
        loop {
            // The counter only hands out tickets; it publishes no data.
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= self.end || !self.wait_for_room(index) {
                return;
            }
            let value = produce(index);
            let mut state = self.lock();
            if state.aborted {
                return;
            }
            state.slots[index % self.width] = Some(value);
            if state.lead_waiting && index == self.head.load(Ordering::Acquire) {
                self.ready.notify_one();
            }
        }
    }

    /// Waits until `index` (claimed, so not yet consumed) lies inside the
    /// window.  Returns `false` if the fold was aborted.
    fn wait_for_room(&self, index: usize) -> bool {
        for _ in 0..SPINS {
            if index - self.head.load(Ordering::Acquire) < self.width {
                return true;
            }
            std::thread::yield_now();
        }
        let mut state = self.lock();
        loop {
            if state.aborted {
                return false;
            }
            if index - self.head.load(Ordering::Acquire) < self.width {
                return true;
            }
            // Sleep until half the window ahead of this claim has drained,
            // so a helper wakes to a run of free slots, not one per body.
            let wake_at = index + 1 - self.width + self.width / 2;
            state.wake_helpers_at = state.wake_helpers_at.min(wake_at);
            state = self.room.wait(state).expect(POISONED);
        }
    }

    /// The calling thread's loop: consume the head result whenever it is
    /// ready; otherwise produce its own claim if that lies inside the
    /// window; otherwise sleep until the head result lands.
    fn lead(&self, next: &AtomicUsize, produce: &impl Fn(usize) -> T, consume: &mut impl FnMut(T)) {
        let _abort = AbortOnUnwind(self);
        let mut head = self.head.load(Ordering::Acquire);
        let mut claim = None;
        let mut spins = 0;
        let mut state = self.lock();
        while head < self.end && !state.aborted {
            if let Some(value) = state.slots[head % self.width].take() {
                drop(state);
                consume(value);
                head += 1;
                spins = 0;
                state = self.lock();
                self.head.store(head, Ordering::Release);
                if head >= state.wake_helpers_at {
                    state.wake_helpers_at = usize::MAX;
                    self.room.notify_all();
                }
                continue;
            }
            let index = *claim.get_or_insert_with(|| next.fetch_add(1, Ordering::Relaxed));
            if index < self.end && index - head < self.width {
                claim = None;
                drop(state);
                let value = produce(index);
                state = self.lock();
                state.slots[index % self.width] = Some(value);
            } else if spins < SPINS {
                spins += 1;
                drop(state);
                std::thread::yield_now();
                state = self.lock();
            } else {
                state.lead_waiting = true;
                state = self.ready.wait(state).expect(POISONED);
                state.lead_waiting = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use hidwa_isa::models;
    use hidwa_netsim::mac::MacPolicy;
    use hidwa_phy::RadioTechnology;

    #[test]
    fn map_preserves_order_at_any_width() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for runner in [
            SweepRunner::serial(),
            SweepRunner::with_threads(3),
            SweepRunner::new(),
        ] {
            assert_eq!(runner.map(&items, |&x| x * 3 + 1), expected);
        }
        assert_eq!(SweepRunner::with_threads(0).threads(), 1);
        assert!(SweepRunner::new().threads() >= 1);
    }

    #[test]
    fn map_indexed_passes_true_indices() {
        let items = ["a", "b", "c", "d"];
        let tagged = SweepRunner::with_threads(4).map_indexed(&items, |i, s| format!("{i}{s}"));
        assert_eq!(tagged, vec!["0a", "1b", "2c", "3d"]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let empty: Vec<u32> = Vec::new();
        assert!(SweepRunner::new().map(&empty, |&x| x).is_empty());
    }

    /// A few microseconds of index-dependent work, so helpers and the
    /// calling thread interleave differently from item to item.
    fn jitter(index: usize) -> usize {
        (0..(index * 7919) % 500).fold(index, |acc, k| std::hint::black_box(acc ^ k))
    }

    #[test]
    fn fold_ordered_consumes_in_index_order() {
        for range in [5..5, 3..4, 3..40] {
            let len = range.len();
            let expected: Vec<usize> = range.clone().map(|i| i * 2 + 1).collect();
            for threads in [1, 2, 4] {
                for window in [1, 2, 7, len] {
                    let mut seen = Vec::new();
                    SweepRunner::with_threads(threads).fold_ordered(
                        range.clone(),
                        window,
                        |i| {
                            std::hint::black_box(jitter(i));
                            i * 2 + 1
                        },
                        |value| seen.push(value),
                    );
                    assert_eq!(
                        seen, expected,
                        "{range:?} at width {threads}, window {window}"
                    );
                }
            }
        }
    }

    #[test]
    fn fold_ordered_never_runs_past_the_window() {
        for threads in [2, 4] {
            for window in [1, 2, 7] {
                let produced = AtomicUsize::new(0);
                let consumed = AtomicUsize::new(0);
                let most_ahead = AtomicUsize::new(0);
                SweepRunner::with_threads(threads).fold_ordered(
                    0..200,
                    window,
                    |i| {
                        let done = produced.fetch_add(1, Ordering::SeqCst) + 1;
                        let ahead = done - consumed.load(Ordering::SeqCst);
                        most_ahead.fetch_max(ahead, Ordering::SeqCst);
                        i
                    },
                    |i| {
                        // A slow consumer, so producers press on the window.
                        std::hint::black_box(jitter(i * 3));
                        consumed.fetch_add(1, Ordering::SeqCst);
                    },
                );
                let most_ahead = most_ahead.into_inner();
                assert!(
                    (1..=window).contains(&most_ahead),
                    "{most_ahead} results unconsumed at width {threads}, window {window}"
                );
            }
        }
    }

    /// Runs `fold` on its own thread and returns the message of the panic
    /// it must end with, failing if it has not ended within 10 s.
    fn panic_message_within_deadline(fold: impl FnOnce() + Send + 'static) -> String {
        let handle = std::thread::spawn(fold);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !handle.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "fold still running after 10 s"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let payload = handle.join().expect_err("fold must panic");
        payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("string panic payload")
    }

    /// Spins until `done` holds (with a deadline, so a broken fold fails
    /// instead of hanging).
    fn await_until(done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !done() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    #[test]
    fn fold_ordered_propagates_a_helper_panic_in_produce() {
        let message = panic_message_within_deadline(|| {
            let lead = std::thread::current().id();
            let helper_started = std::sync::atomic::AtomicBool::new(false);
            SweepRunner::with_threads(2).fold_ordered(
                0..100,
                4,
                |i| {
                    if std::thread::current().id() == lead {
                        // Hold the calling thread until a helper has
                        // claimed a body, so the panic is the helper's.
                        await_until(|| helper_started.load(Ordering::SeqCst));
                        return i;
                    }
                    helper_started.store(true, Ordering::SeqCst);
                    panic!("helper produce failed");
                },
                drop,
            );
        });
        assert_eq!(message, "helper produce failed");
    }

    #[test]
    fn fold_ordered_propagates_a_calling_thread_panic_in_produce() {
        let message = panic_message_within_deadline(|| {
            let lead = std::thread::current().id();
            let lead_started = std::sync::atomic::AtomicBool::new(false);
            SweepRunner::with_threads(4).fold_ordered(
                0..100,
                3,
                |i| {
                    if std::thread::current().id() == lead {
                        lead_started.store(true, Ordering::SeqCst);
                        panic!("lead produce failed");
                    }
                    // Helpers stall until the calling thread has claimed a
                    // body, so it must produce one.
                    await_until(|| lead_started.load(Ordering::SeqCst));
                    i
                },
                drop,
            );
        });
        assert_eq!(message, "lead produce failed");
    }

    #[test]
    fn fold_ordered_propagates_a_panic_in_consume() {
        for window in [1, 2, 64] {
            let message = panic_message_within_deadline(move || {
                let produced = AtomicUsize::new(0);
                SweepRunner::with_threads(4).fold_ordered(
                    0..100,
                    window,
                    |i| {
                        produced.fetch_add(1, Ordering::SeqCst);
                        i
                    },
                    |i| {
                        if i == 5 {
                            // Fail only once the helpers have filled the
                            // window and had time to park on it.
                            await_until(|| produced.load(Ordering::SeqCst) >= 5 + window);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            panic!("consume failed");
                        }
                    },
                );
            });
            assert_eq!(message, "consume failed");
        }
    }

    #[test]
    fn partition_grid_matches_serial_optimizer() {
        let models = models::all_models();
        let contexts = [
            PartitionContext::wir_default(),
            PartitionContext::ble_default(),
        ];
        let objectives = [Objective::LeafEnergy, Objective::Latency];
        let cells = SweepRunner::new().partition_grid(&models, &contexts, &objectives);
        assert_eq!(
            cells.len(),
            models.len() * contexts.len() * objectives.len()
        );

        let mut iter = cells.iter();
        for (m, model) in models.iter().enumerate() {
            for (c, context) in contexts.iter().enumerate() {
                let optimizer = PartitionOptimizer::new(context.clone());
                for &objective in &objectives {
                    let cell = iter.next().unwrap();
                    assert_eq!((cell.model_index, cell.context_index), (m, c));
                    assert_eq!(cell.objective, objective);
                    assert_eq!(&*cell.model, model.name());
                    assert_eq!(&*cell.context, context.label());
                    assert_eq!(cell.plans.len(), model.cut_points().len());
                    let serial_best = optimizer.optimize(model, objective).ok();
                    assert_eq!(cell.best_cut(), serial_best.map(|p| p.cut_index));
                }
            }
        }
    }

    #[test]
    fn simulate_seeds_is_deterministic_per_seed() {
        let runner = SweepRunner::new();
        let seeds = [1u64, 2, 3, 1];
        let horizon = TimeSpan::from_seconds(3.0);
        let reports = runner.simulate_seeds(&seeds, horizon, |seed| {
            let mut sim = scenario::standard_body_network(RadioTechnology::WiR);
            sim = sim.with_seed(seed);
            sim
        });
        assert_eq!(reports.len(), 4);
        // Same seed, same result — including across different worker threads.
        assert_eq!(
            reports[0].node_stats()[0].delivered_bytes,
            reports[3].node_stats()[0].delivered_bytes
        );
        for report in &reports {
            assert!(report.delivery_ratio() > 0.9);
        }
        let _ = MacPolicy::Polling; // scenario default; referenced for clarity
    }
}
