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
//! runner ships one primitive of its own, [`SweepRunner::fold`].  A runner
//! `threads` wide keeps `threads − 1` helper threads for its lifetime
//! (`with_threads(64)` keeps 63): they start on its first parallel fold, are
//! shared by its clones, park on a condvar between folds, and are joined
//! when its last clone drops.  A width-1 runner starts and allocates
//! nothing.  A fold hands the parked helpers one job; the calling thread and
//! the helpers claim blocks of consecutive indices from one atomic counter
//! (up to 16 per claim, while every thread still gets at least 16 claims),
//! one atomic add per block, and each folds its claims into a partial
//! accumulator of its own.  The caller waits until
//! every helper has left the job, then merges the helpers' partials into
//! its own.  No thread waits on another before that, and no result waits to
//! be folded, so memory is `O(threads × partial)`.  [`SweepRunner::map`] is
//! that fold collecting `(index, value)` pairs, ordered by index afterwards;
//! its shape matches `rayon`'s indexed `par_iter().map().collect()`.
//!
//! A runner's helpers serve one fold at a time.  A fold that finds them
//! busy — another thread folding on the same runner or a clone, or a fold
//! nested in a fold closure — runs inline on its own thread, as a width-1
//! runner does, so no fold waits for another and none can deadlock.
//!
//! A panic in any participant stops the others before their next index,
//! and propagates to the caller once every helper has left the job; the
//! helpers stay parked for the next fold.  [`SweepRunner::new`] takes its
//! width from `available_parallelism`, or from the `HIDWA_SWEEP_THREADS`
//! environment variable when it holds a whole number ≥ 1 (`1` forces serial
//! execution, e.g. when profiling).  Every width, asked for either way or
//! through [`SweepRunner::with_threads`], is clamped to [`MAX_THREADS`], so
//! a mistyped setting cannot start thousands of helpers.

use crate::partition::{Objective, PartitionContext, PartitionOptimizer, PartitionPlan};
use hidwa_isa::models::WearableModel;
use pool::Pool;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

mod pool;

/// The widest a runner gets: [`SweepRunner::with_threads`] clamps every
/// width to it.
pub const MAX_THREADS: usize = 256;

/// The most consecutive indices one claim of a fold hands out.
const MAX_BLOCK: usize = 16;

/// The fewest claims a fold's range is cut into per thread, so a short
/// range still spreads across every thread.
const MIN_CLAIMS: usize = 16;

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
///
/// A runner wider than one keeps its `threads − 1` helper threads parked
/// from its first parallel fold until its last clone drops (see the module
/// docs).
#[derive(Clone)]
pub struct SweepRunner {
    threads: usize,
    /// The helpers, shared by every clone; `None` at width 1.
    pool: Option<Arc<Pool>>,
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// Runner using every available core (or `HIDWA_SWEEP_THREADS` if set),
    /// at most [`MAX_THREADS`] wide.
    #[must_use]
    pub fn new() -> Self {
        let threads = requested_width(std::env::var("HIDWA_SWEEP_THREADS").ok().as_deref())
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        Self::with_threads(threads)
    }

    /// Runner that executes everything on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// Runner with an explicit thread count, clamped to `1..=`[`MAX_THREADS`].
    /// No thread starts until its first parallel fold.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        Self {
            threads,
            pool: (threads > 1).then(|| Arc::new(Pool::new(threads - 1))),
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
    /// Propagates panics from `f` (once every helper has left the fold).
    pub fn map_indexed<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let mut pairs = Vec::with_capacity(items.len());
        self.fold(
            0..items.len(),
            &mut pairs,
            Vec::new,
            |pairs, index| pairs.push((index, f(index, &items[index]))),
            |pairs, mut partial| pairs.append(&mut partial),
        );
        pairs.sort_unstable_by_key(|&(index, _)| index);
        pairs.into_iter().map(|(_, value)| value).collect()
    }

    /// Folds every index of `range` into `acc`, in parallel.
    ///
    /// The calling thread folds its claims into `acc`; each of up to
    /// `threads − 1` of the runner's parked helpers folds its claims into its
    /// own `init()`, and once every helper has left the fold, each helper's
    /// accumulator is merged into `acc`.  Indices come in blocks of
    /// consecutive ones from one atomic counter, so each accumulator sees
    /// its indices in increasing order, but which indices land in which
    /// accumulator varies from run to run.
    /// The result is therefore independent of the width exactly when
    /// folding any partition of `range` into index-ordered subsets and
    /// merging the parts gives what the serial loop
    /// `for i in range { fold(acc, i) }` gives — which is what a width-1
    /// runner runs, inline, with no thread, and what any fold runs when it
    /// finds the runner's helpers busy with another fold (on another thread,
    /// or the one this fold is nested in).
    ///
    /// # Panics
    /// Propagates a panic from `fold` or `merge`, on any thread, once every
    /// helper has left the fold: a panicking thread raises a stop flag, so
    /// the others stop before their next index.  The runner folds normally
    /// afterwards.
    pub fn fold<A, N, F, M>(&self, range: Range<usize>, acc: &mut A, init: N, fold: F, mut merge: M)
    where
        A: Send,
        N: Fn() -> A + Sync,
        F: Fn(&mut A, usize) + Sync,
        M: FnMut(&mut A, A),
    {
        let helpers = self.threads.min(range.len()).saturating_sub(1);
        let block = (range.len() / ((helpers + 1) * MIN_CLAIMS)).clamp(1, MAX_BLOCK);
        let next = AtomicUsize::new(range.start);
        let stopped = AtomicBool::new(false);
        let claim_into = |acc: &mut A| {
            let _stop = StopOnUnwind(&stopped);
            loop {
                // The counter and the flag only hand out tickets; they
                // publish no data.
                let start = next.fetch_add(block, Ordering::Relaxed);
                if start >= range.end {
                    return;
                }
                for index in start..range.end.min(start + block) {
                    if stopped.load(Ordering::Relaxed) {
                        return;
                    }
                    fold(acc, index);
                }
            }
        };
        let partials = Mutex::new(Vec::with_capacity(helpers));
        let helper = || {
            let mut partial = init();
            claim_into(&mut partial);
            partials
                .lock()
                .expect("no thread panics while pushing a partial")
                .push(partial);
        };
        let pooled = match &self.pool {
            Some(pool) if helpers > 0 => pool.run(helpers, &helper, || claim_into(acc)),
            _ => None,
        };
        if pooled.is_none() {
            for index in range {
                fold(acc, index);
            }
            return;
        }
        let partials = partials
            .into_inner()
            .expect("no thread panics while pushing a partial");
        for partial in partials {
            merge(acc, partial);
        }
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
}

/// The width `HIDWA_SWEEP_THREADS` asks for, given its value: a whole
/// number ≥ 1, or `None` (unset, malformed or 0) for the default.
fn requested_width(setting: Option<&str>) -> Option<usize> {
    setting.and_then(|v| v.parse().ok()).filter(|&n| n >= 1)
}

/// Raises a fold's stop flag if its thread unwinds, so every other
/// participant stops before its next index.
struct StopOnUnwind<'a>(&'a AtomicBool);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hidwa_isa::models;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::thread::ThreadId;

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
    fn widths_are_clamped_to_max_threads() {
        // No thread starts: a runner starts none before its first parallel
        // fold.
        assert_eq!(SweepRunner::with_threads(1_000_000).threads(), MAX_THREADS);
        assert_eq!(SweepRunner::with_threads(MAX_THREADS).threads(), 256);
        assert_eq!(SweepRunner::with_threads(MAX_THREADS - 1).threads(), 255);
        assert_eq!(SweepRunner::with_threads(0).threads(), 1);
    }

    #[test]
    fn the_width_setting_parses_as_a_pure_function() {
        assert_eq!(requested_width(Some("3")), Some(3));
        // A typo asks for a huge width, which `with_threads` then clamps.
        assert_eq!(requested_width(Some("100000")), Some(100_000));
        for setting in [
            None,
            Some(""),
            Some("0"),
            Some("-2"),
            Some("two"),
            Some(" 3"),
        ] {
            assert_eq!(requested_width(setting), None, "{setting:?}");
        }
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

    /// Folds `range` at `threads` into per-accumulator runs of indices:
    /// each accumulator starts as one empty run, `fold` appends to it, and
    /// `merge` appends the partial's runs.  Returns the runs, calling
    /// thread's first, and how often `merge` ran.
    fn fold_runs(threads: usize, range: Range<usize>) -> (Vec<Vec<usize>>, usize) {
        let mut runs = vec![Vec::new()];
        let mut merges = 0;
        SweepRunner::with_threads(threads).fold(
            range,
            &mut runs,
            || vec![Vec::new()],
            |runs, i| {
                std::hint::black_box(jitter(i));
                runs[0].push(i);
            },
            |runs, partial| {
                merges += 1;
                runs.extend(partial);
            },
        );
        (runs, merges)
    }

    #[test]
    fn fold_visits_every_index_exactly_once() {
        for range in [5..5, 3..4, 3..40] {
            for threads in [1, 2, 4, 64] {
                let (runs, _) = fold_runs(threads, range.clone());
                let mut seen: Vec<usize> = runs.concat();
                seen.sort_unstable();
                let expected: Vec<usize> = range.clone().collect();
                assert_eq!(seen, expected, "{range:?} at width {threads}");
            }
        }
    }

    #[test]
    fn fold_partials_see_increasing_indices_and_merge_once_per_helper() {
        for range in [5..5, 3..4, 3..40, 0..500] {
            for threads in [1, 2, 4, 64] {
                let (runs, merges) = fold_runs(threads, range.clone());
                let helpers = threads.min(range.len()).max(1) - 1;
                assert_eq!(merges, helpers, "{range:?} at width {threads}");
                assert_eq!(runs.len(), 1 + helpers, "{range:?} at width {threads}");
                for run in &runs {
                    assert!(
                        run.windows(2).all(|pair| pair[0] < pair[1]),
                        "{range:?} at width {threads}: {run:?} not increasing"
                    );
                }
            }
        }
    }

    /// Runs `body` on its own thread and returns how it ended, failing if
    /// it has not ended within 10 s.
    fn join_within_deadline<T: Send + 'static>(
        body: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        let handle = std::thread::spawn(body);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !handle.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "fold still running after 10 s"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        handle.join()
    }

    /// Runs `fold` on its own thread and returns the message of the panic
    /// it must end with, failing if it has not ended within 10 s.
    fn panic_message_within_deadline(fold: impl FnOnce() + Send + 'static) -> String {
        let payload = join_within_deadline(fold).expect_err("fold must panic");
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

    /// Sets its flag when dropped.
    struct SetOnDrop<'a>(&'a std::sync::atomic::AtomicBool);

    impl Drop for SetOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn fold_propagates_a_helper_panic_in_fold() {
        let lead_folds = Arc::new(AtomicUsize::new(0));
        let folds = Arc::clone(&lead_folds);
        let message = panic_message_within_deadline(move || {
            let lead = std::thread::current().id();
            let helper_unwound = std::sync::atomic::AtomicBool::new(false);
            SweepRunner::with_threads(2).fold(
                0..100,
                &mut None,
                || Some(SetOnDrop(&helper_unwound)),
                |_, _| {
                    if std::thread::current().id() == lead {
                        // Hold the calling thread until the helper has
                        // panicked and dropped its partial, so the panic is
                        // the helper's and has exhausted the counter.
                        folds.fetch_add(1, Ordering::SeqCst);
                        await_until(|| helper_unwound.load(Ordering::SeqCst));
                        return;
                    }
                    panic!("helper fold failed");
                },
                |_, _| {},
            );
        });
        assert_eq!(message, "helper fold failed");
        // The calling thread stopped at its next claim.
        assert!(lead_folds.load(Ordering::SeqCst) <= 1);
    }

    #[test]
    fn fold_propagates_a_calling_thread_panic_in_fold() {
        let message = panic_message_within_deadline(|| {
            let lead = std::thread::current().id();
            let lead_started = std::sync::atomic::AtomicBool::new(false);
            SweepRunner::with_threads(4).fold(
                0..100,
                &mut (),
                || (),
                |(), _| {
                    if std::thread::current().id() == lead {
                        lead_started.store(true, Ordering::SeqCst);
                        panic!("lead fold failed");
                    }
                    // Helpers stall until the calling thread has claimed an
                    // index, so it must fold one.
                    await_until(|| lead_started.load(Ordering::SeqCst));
                },
                |(), ()| {},
            );
        });
        assert_eq!(message, "lead fold failed");
    }

    #[test]
    fn fold_propagates_a_panic_in_merge() {
        let message = panic_message_within_deadline(|| {
            let mut total = 0;
            SweepRunner::with_threads(4).fold(
                0..100,
                &mut total,
                || 0,
                |total, i| *total += i,
                |_, _| panic!("merge failed"),
            );
        });
        assert_eq!(message, "merge failed");
    }

    /// Sums `range` on `runner`, holding the calling thread's claims until
    /// a helper has claimed an index, so every fold runs helper claims; each
    /// helper claim also calls `on_helper_claim`.  Returns the sum and the
    /// threads that folded into helper partials.
    fn sum_with_helpers(
        runner: &SweepRunner,
        range: Range<usize>,
        on_helper_claim: &(dyn Fn() + Sync),
    ) -> (usize, HashSet<ThreadId>) {
        let helper_claimed = AtomicBool::new(false);
        let helper_threads = Mutex::new(HashSet::new());
        // (sum, whether this is a helper's partial)
        let mut acc = (0, false);
        runner.fold(
            range,
            &mut acc,
            || (0, true),
            |(sum, helper), i| {
                if *helper {
                    let thread = std::thread::current().id();
                    helper_threads.lock().unwrap().insert(thread);
                    on_helper_claim();
                    helper_claimed.store(true, Ordering::SeqCst);
                } else {
                    await_until(|| helper_claimed.load(Ordering::SeqCst));
                }
                *sum += i;
            },
            |(sum, _), (partial, _)| *sum += partial,
        );
        (acc.0, helper_threads.into_inner().unwrap())
    }

    #[test]
    fn helpers_stay_parked_between_folds() {
        join_within_deadline(|| {
            let runner = SweepRunner::with_threads(3);
            let mut helper_threads = HashSet::new();
            for _ in 0..100 {
                let (sum, threads) = sum_with_helpers(&runner, 0..64, &|| {});
                assert_eq!(sum, (0..64).sum());
                helper_threads.extend(threads);
            }
            assert!(!helper_threads.contains(&std::thread::current().id()));
            assert!(
                (1..=2).contains(&helper_threads.len()),
                "helper claims ran on {} threads",
                helper_threads.len()
            );
        })
        .expect("folds must not panic");
    }

    #[test]
    fn clones_folding_at_once_each_return_the_serial_result() {
        join_within_deadline(|| {
            let runner = SweepRunner::with_threads(2);
            let (entered, met) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let fold_on = |runner: &SweepRunner| {
                let mut seen = Vec::new();
                runner.fold(
                    0..200,
                    &mut seen,
                    Vec::new,
                    |seen, i| {
                        if i == 0 {
                            // Hold each fold's first index until both folds
                            // have begun, so that they overlap.
                            entered.fetch_add(1, Ordering::SeqCst);
                            await_until(|| entered.load(Ordering::SeqCst) == 2);
                            if entered.load(Ordering::SeqCst) == 2 {
                                met.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        seen.push(i);
                    },
                    |seen, partial| seen.extend(partial),
                );
                seen.sort_unstable();
                seen
            };
            let clone = runner.clone();
            let (first, second) = std::thread::scope(|scope| {
                let other = scope.spawn(|| fold_on(&clone));
                (fold_on(&runner), other.join().unwrap())
            });
            assert_eq!(met.load(Ordering::SeqCst), 2, "the folds did not overlap");
            let serial: Vec<usize> = (0..200).collect();
            assert_eq!(first, serial);
            assert_eq!(second, serial);
        })
        .expect("folds must not panic");
    }

    #[test]
    fn a_fold_nested_in_a_fold_closure_returns_the_serial_result() {
        join_within_deadline(|| {
            let runner = SweepRunner::with_threads(2);
            let helper_claimed = AtomicBool::new(false);
            let strays = AtomicUsize::new(0);
            // (per-index inner sums, whether this is a helper's partial)
            let mut acc = (Vec::new(), false);
            runner.fold(
                0..16,
                &mut acc,
                || (Vec::new(), true),
                |(sums, helper), i| {
                    // Hold the calling thread until the helper has claimed an
                    // index, so both run nested folds.
                    if *helper {
                        helper_claimed.store(true, Ordering::SeqCst);
                    } else {
                        await_until(|| helper_claimed.load(Ordering::SeqCst));
                    }
                    let outer = std::thread::current().id();
                    let mut inner = 0;
                    runner.fold(
                        0..100,
                        &mut inner,
                        || 0,
                        |inner, j| {
                            if std::thread::current().id() != outer {
                                strays.fetch_add(1, Ordering::SeqCst);
                            }
                            *inner += i * j;
                        },
                        |inner, partial| *inner += partial,
                    );
                    sums.push((i, inner));
                },
                |(sums, _), (partial, _)| sums.extend(partial),
            );
            let mut sums = acc.0;
            sums.sort_unstable();
            let serial: Vec<(usize, usize)> = (0..16).map(|i| (i, i * 4950)).collect();
            assert_eq!(sums, serial);
            assert_eq!(
                strays.load(Ordering::SeqCst),
                0,
                "a nested fold ran claims off its own thread"
            );
        })
        .expect("folds must not panic");
    }

    /// Counts its drop, after lingering for its duration; as a
    /// thread-local value, its thread's exit.
    struct CountOnDrop(Arc<AtomicUsize>, std::time::Duration);

    impl Drop for CountOnDrop {
        fn drop(&mut self) {
            std::thread::sleep(self.1);
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_calling_thread_panic_waits_for_the_helpers() {
        join_within_deadline(|| {
            let runner = SweepRunner::with_threads(3);
            let lead = std::thread::current().id();
            let lead_failed = AtomicBool::new(false);
            let partials_dropped = Arc::new(AtomicUsize::new(0));
            let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                runner.fold(
                    0..100,
                    &mut None,
                    || {
                        let linger = std::time::Duration::ZERO;
                        Some(CountOnDrop(Arc::clone(&partials_dropped), linger))
                    },
                    |_, _| {
                        if std::thread::current().id() == lead {
                            lead_failed.store(true, Ordering::SeqCst);
                            panic!("lead fold failed");
                        }
                        // Helpers stay in the fold well past the panic.
                        await_until(|| lead_failed.load(Ordering::SeqCst));
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    },
                    |_, _| {},
                );
            }));
            assert!(failed.is_err());
            // Both helper partials were handed back, and dropped as the
            // fold unwound, before the panic reached this frame.
            assert_eq!(partials_dropped.load(Ordering::SeqCst), 2);
        })
        .expect("the panic is caught inside");
    }

    #[test]
    fn a_runner_folds_again_after_a_helper_panic() {
        join_within_deadline(|| {
            let runner = SweepRunner::with_threads(2);
            let lead = std::thread::current().id();
            let helper_failed = AtomicBool::new(false);
            let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                runner.fold(
                    0..100,
                    &mut (),
                    || (),
                    |(), _| {
                        if std::thread::current().id() == lead {
                            await_until(|| helper_failed.load(Ordering::SeqCst));
                            return;
                        }
                        helper_failed.store(true, Ordering::SeqCst);
                        panic!("helper fold failed");
                    },
                    |(), ()| {},
                );
            }));
            assert!(failed.is_err());
            let (sum, helper_threads) = sum_with_helpers(&runner, 0..100, &|| {});
            assert_eq!(sum, 4950);
            assert!(!helper_threads.is_empty());
        })
        .expect("the second fold must not panic");
    }

    thread_local! {
        static ON_EXIT: std::cell::RefCell<Option<CountOnDrop>> =
            const { std::cell::RefCell::new(None) };
    }

    #[test]
    fn dropping_the_last_clone_ends_the_helpers() {
        join_within_deadline(|| {
            let exited = Arc::new(AtomicUsize::new(0));
            let count_exit = || {
                // A helper's exit lingers, so only a drop that joins the
                // helpers sees every exit counted.
                let linger = std::time::Duration::from_millis(20);
                ON_EXIT.with(|slot| {
                    slot.borrow_mut()
                        .get_or_insert_with(|| CountOnDrop(Arc::clone(&exited), linger));
                });
            };
            let runner = SweepRunner::with_threads(3);
            let (_, mut helper_threads) = sum_with_helpers(&runner, 0..64, &count_exit);
            let clone = runner.clone();
            drop(runner);
            let (sum, threads) = sum_with_helpers(&clone, 0..64, &count_exit);
            assert_eq!(sum, (0..64).sum());
            helper_threads.extend(threads);
            assert_eq!(exited.load(Ordering::SeqCst), 0, "a helper ended early");
            drop(clone);
            assert_eq!(exited.load(Ordering::SeqCst), helper_threads.len());
        })
        .expect("folds must not panic");
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
}
