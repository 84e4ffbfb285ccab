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
//! runner ships one primitive of its own, [`SweepRunner::fold`], built on
//! `std::thread::scope`.  The calling thread and `threads − 1` helpers claim
//! indices from one atomic counter, and each folds its claims into a partial
//! accumulator of its own; after the join the helpers' partials are merged
//! into the caller's.  No thread waits on another before the join, and no
//! result waits to be folded, so memory is `O(threads × partial)`.
//! [`SweepRunner::map`] is that fold collecting `(index, value)` pairs,
//! ordered by index afterwards; its shape matches `rayon`'s indexed
//! `par_iter().map().collect()`.
//!
//! A panic in any participant exhausts the claim counter, so the others stop
//! at their next claim, and propagates to the caller after the join.  The
//! thread count is capped by `available_parallelism`, overridable with the
//! `HIDWA_SWEEP_THREADS` environment variable (`1` forces serial execution,
//! e.g. when profiling).

use crate::partition::{Objective, PartitionContext, PartitionOptimizer, PartitionPlan};
use hidwa_isa::models::WearableModel;
use hidwa_netsim::sim::{Simulation, SimulationReport};
use hidwa_units::TimeSpan;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
    /// `threads − 1` helpers folds its claims into its own `init()`, and
    /// after the join every helper's accumulator is merged into `acc`.
    /// Indices come from one atomic counter, so each accumulator sees its
    /// indices in increasing order, but which indices land in which
    /// accumulator varies from run to run.  The result is therefore
    /// independent of the width exactly when folding any partition of
    /// `range` into index-ordered subsets and merging the parts gives what
    /// the serial loop `for i in range { fold(acc, i) }` gives — which is
    /// what a width-1 runner runs, inline, with no thread.
    ///
    /// # Panics
    /// Propagates a panic from `fold` or `merge`, on any thread, once every
    /// thread has stopped: a panicking thread exhausts the claim counter, so
    /// the others stop at their next claim.
    pub fn fold<A, N, F, M>(&self, range: Range<usize>, acc: &mut A, init: N, fold: F, mut merge: M)
    where
        A: Send,
        N: Fn() -> A + Sync,
        F: Fn(&mut A, usize) + Sync,
        M: FnMut(&mut A, A),
    {
        let helpers = self.threads.min(range.len()).saturating_sub(1);
        if helpers == 0 {
            for index in range {
                fold(acc, index);
            }
            return;
        }

        let next = AtomicUsize::new(range.start);
        let claim_into = |acc: &mut A| {
            let _stop = StopOnUnwind(&next, range.end);
            loop {
                // The counter only hands out tickets; it publishes no data.
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= range.end {
                    return;
                }
                fold(acc, index);
            }
        };
        std::thread::scope(|scope| {
            let (init, claim_into) = (&init, &claim_into);
            let handles: Vec<_> = (0..helpers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut partial = init();
                        claim_into(&mut partial);
                        partial
                    })
                })
                .collect();
            claim_into(acc);
            for handle in handles {
                match handle.join() {
                    Ok(partial) => merge(acc, partial),
                    Err(payload) => std::panic::resume_unwind(payload),
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

/// Exhausts a fold's claim counter if its thread unwinds, so every other
/// participant stops at its next claim.
struct StopOnUnwind<'a>(&'a AtomicUsize, usize);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(self.1, Ordering::Relaxed);
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
