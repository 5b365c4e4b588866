//! The configuration-optimization driver of Problem 1 (paper §III):
//! given a filter method and a recall threshold τ, fine-tune its parameters
//! so the resulting candidate set maximizes PQ subject to PC ≥ τ.
//!
//! The driver is holistic (all parameters of a workflow are swept jointly,
//! §II) and supports the two grid-traversal idioms the paper uses:
//!
//! * [`Optimizer::grid`] — exhaustive sweep keeping the PQ-best feasible
//!   configuration (and, as a fallback, the PC-best infeasible one, which
//!   the paper reports in red for the baselines),
//! * [`Optimizer::first_feasible`] — ordered sweep that stops at the first
//!   configuration meeting τ; correct whenever the order enumerates
//!   *increasing candidate volume* (kNN-Join's K, FAISS/SCANN's K, ε-Join's
//!   descending threshold), because under that monotonicity the first
//!   feasible configuration is also the PQ-best feasible one.
//!
//! Sweeps can additionally run **guarded** (see [`crate::guard`]): when
//! the optimizer carries non-trivial [`Limits`], every configuration is
//! evaluated under `catch_unwind` with a cooperative deadline and
//! candidate budget, and a failing grid point becomes a structured
//! [`Failure`] row in the [`OptimizationOutcome`] instead of aborting the
//! sweep. Failed configurations are treated as infeasible and never
//! become champions. With default (disabled) limits the guarded paths
//! compile down to the plain calls — behavior is unchanged.

use crate::artifacts::{ArtifactCache, ArtifactKey};
use crate::filter::Prepared;
use crate::guard::{self, FailReason, Limits, RunOutcome};
use crate::hash::FastMap;
use crate::metrics::Effectiveness;
use crate::parallel::{self, Threads};
use crate::timing::PhaseBreakdown;
use std::time::Duration;

/// Grid resolution shared by every method's configuration space: the
/// paper's exhaustive grids, a representative pruned subset for
/// laptop-scale sweeps, or a minimal smoke grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridResolution {
    /// The exact paper domains (Tables III–V; thousands of configurations).
    Full,
    /// A representative subset (tens to hundreds of configurations).
    Pruned,
    /// A minimal smoke grid (a handful of configurations).
    Quick,
}

/// The recall target τ of Problem 1. The paper uses τ = 0.9 throughout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetRecall(pub f64);

impl Default for TargetRecall {
    fn default() -> Self {
        Self(0.9)
    }
}

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct Evaluated<C> {
    /// The configuration.
    pub config: C,
    /// Its PC/PQ outcome.
    pub eff: Effectiveness,
    /// Its phase timings.
    pub breakdown: PhaseBreakdown,
}

/// One grid point that failed under guard (panicked, timed out, or blew
/// its candidate budget). Recorded in configuration order, so the list is
/// identical for every thread count.
#[derive(Debug, Clone)]
pub struct Failure<C> {
    /// The failing configuration.
    pub config: C,
    /// Why it failed.
    pub reason: FailReason,
    /// Wall-clock time spent before the failure.
    pub elapsed: Duration,
}

/// Result of an optimization sweep.
#[derive(Debug, Clone)]
pub struct OptimizationOutcome<C> {
    /// PQ-best configuration with PC ≥ τ, if any.
    pub best_feasible: Option<Evaluated<C>>,
    /// PC-best configuration overall — reported when nothing reaches τ
    /// (the paper marks such entries in red).
    pub best_fallback: Option<Evaluated<C>>,
    /// Number of configurations evaluated successfully.
    pub evaluated: usize,
    /// Grid points that failed under guard, in configuration order.
    pub failures: Vec<Failure<C>>,
}

impl<C> Default for OptimizationOutcome<C> {
    fn default() -> Self {
        Self {
            best_feasible: None,
            best_fallback: None,
            evaluated: 0,
            failures: Vec::new(),
        }
    }
}

impl<C> OptimizationOutcome<C> {
    /// The configuration to report: feasible if one exists, else fallback.
    pub fn best(&self) -> Option<&Evaluated<C>> {
        self.best_feasible.as_ref().or(self.best_fallback.as_ref())
    }

    /// True if some configuration met the recall target.
    pub fn is_feasible(&self) -> bool {
        self.best_feasible.is_some()
    }

    /// Configurations attempted: successful evaluations plus guarded
    /// failures. This is what the evaluation budget counts.
    pub fn attempted(&self) -> usize {
        self.evaluated + self.failures.len()
    }

    /// Accounts one evaluated configuration, updating the feasible and
    /// fallback champions. Exposed so callers with custom sweep structure
    /// (e.g. shared intermediate results) can drive the same selection
    /// logic the built-in sweeps use.
    pub fn consider(&mut self, cand: Evaluated<C>, target: f64)
    where
        C: Clone,
    {
        self.evaluated += 1;
        if cand.eff.pc >= target {
            let better = match &self.best_feasible {
                None => true,
                Some(cur) => {
                    cand.eff.pq > cur.eff.pq
                        || (cand.eff.pq == cur.eff.pq && cand.eff.candidates < cur.eff.candidates)
                }
            };
            if better {
                self.best_feasible = Some(cand.clone());
            }
        }
        let better_fallback = match &self.best_fallback {
            None => true,
            Some(cur) => {
                cand.eff.pc > cur.eff.pc || (cand.eff.pc == cur.eff.pc && cand.eff.pq > cur.eff.pq)
            }
        };
        if better_fallback {
            self.best_fallback = Some(cand);
        }
    }
}

/// The optimization driver. Holds the recall target, an optional budget
/// on the number of evaluated configurations, and the per-configuration
/// fault-isolation limits.
#[derive(Debug, Clone, Copy)]
pub struct Optimizer {
    /// Recall target τ.
    pub target: TargetRecall,
    /// Hard cap on attempted configurations (`usize::MAX` = unbounded).
    /// Lets the harness run pruned grids at small scales.
    pub max_evaluations: usize,
    /// Per-configuration guard limits (disabled by default: evaluations
    /// run unguarded and panics propagate, exactly as before).
    pub limits: Limits,
}

impl Default for Optimizer {
    fn default() -> Self {
        Self {
            target: TargetRecall::default(),
            max_evaluations: usize::MAX,
            limits: Limits::none(),
        }
    }
}

impl Optimizer {
    /// Creates an optimizer with target τ.
    pub fn new(target_pc: f64) -> Self {
        Self {
            target: TargetRecall(target_pc),
            ..Default::default()
        }
    }

    /// Caps the number of evaluated configurations.
    pub fn with_budget(mut self, max_evaluations: usize) -> Self {
        self.max_evaluations = max_evaluations;
        self
    }

    /// Sets the per-configuration guard limits.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Exhaustive grid sweep: evaluate every configuration, keep the
    /// PQ-best feasible one. With guard limits armed, a failing grid
    /// point becomes a [`Failure`] row and the sweep continues.
    pub fn grid<C: Clone>(
        &self,
        configs: impl IntoIterator<Item = C>,
        mut eval: impl FnMut(&C) -> (Effectiveness, PhaseBreakdown),
    ) -> OptimizationOutcome<C> {
        let mut out = OptimizationOutcome::default();
        for config in configs {
            if out.attempted() >= self.max_evaluations {
                break;
            }
            match guard::run_guarded(self.limits, || eval(&config)) {
                RunOutcome::Ok((eff, breakdown)) => out.consider(
                    Evaluated {
                        config,
                        eff,
                        breakdown,
                    },
                    self.target.0,
                ),
                RunOutcome::Failed { reason, elapsed } => out.failures.push(Failure {
                    config,
                    reason,
                    elapsed,
                }),
            }
        }
        out
    }

    /// Ordered sweep stopping at the first feasible configuration.
    ///
    /// `configs` must be ordered by non-decreasing candidate volume (e.g.
    /// ascending K, descending similarity threshold): PC is then
    /// non-decreasing along the sweep and the first feasible configuration
    /// maximizes PQ among the feasible ones.
    pub fn first_feasible<C: Clone>(
        &self,
        configs: impl IntoIterator<Item = C>,
        mut eval: impl FnMut(&C) -> (Effectiveness, PhaseBreakdown),
    ) -> OptimizationOutcome<C> {
        let mut out = OptimizationOutcome::default();
        for config in configs {
            if out.attempted() >= self.max_evaluations {
                break;
            }
            match guard::run_guarded(self.limits, || eval(&config)) {
                RunOutcome::Ok((eff, breakdown)) => {
                    let feasible = eff.pc >= self.target.0;
                    out.consider(
                        Evaluated {
                            config,
                            eff,
                            breakdown,
                        },
                        self.target.0,
                    );
                    if feasible {
                        break;
                    }
                }
                // A failed point is infeasible: record it and keep
                // sweeping.
                RunOutcome::Failed { reason, elapsed } => out.failures.push(Failure {
                    config,
                    reason,
                    elapsed,
                }),
            }
        }
        out
    }

    /// Parallel [`Optimizer::grid`] over an explicit worker count.
    ///
    /// Evaluations run on the [`crate::parallel`] pool (one configuration
    /// per chunk — grid evaluations dominate scheduling overhead) and are
    /// merged through [`OptimizationOutcome::consider`] in configuration
    /// order, so the champion, every tie-break, and `evaluated` are
    /// identical to the serial sweep for any `threads`.
    ///
    /// `eval` must be a pure function of the configuration; it may run on
    /// any worker thread.
    pub fn grid_par_with<C>(
        &self,
        threads: usize,
        configs: impl IntoIterator<Item = C>,
        eval: impl Fn(&C) -> (Effectiveness, PhaseBreakdown) + Sync,
    ) -> OptimizationOutcome<C>
    where
        C: Clone + Send + Sync,
    {
        if threads <= 1 {
            return self.grid(configs, eval);
        }
        // The serial sweep stops once `attempted` hits the budget, so it
        // sees exactly the first `max_evaluations` configurations (every
        // attempted configuration either succeeds or fails).
        let configs: Vec<C> = configs.into_iter().take(self.max_evaluations).collect();
        // The guard frame is installed inside the worker closure, so each
        // evaluation is guarded on the thread that runs it.
        let results = parallel::par_map_chunks_with(threads, &configs, 1, |_, c| {
            guard::run_guarded(self.limits, || eval(&c[0]))
        });
        let mut out = OptimizationOutcome::default();
        for (config, result) in configs.into_iter().zip(results) {
            match result {
                RunOutcome::Ok((eff, breakdown)) => out.consider(
                    Evaluated {
                        config,
                        eff,
                        breakdown,
                    },
                    self.target.0,
                ),
                RunOutcome::Failed { reason, elapsed } => out.failures.push(Failure {
                    config,
                    reason,
                    elapsed,
                }),
            }
        }
        out
    }

    /// [`Optimizer::grid_par_with`] using the global [`Threads`] count.
    pub fn grid_par<C>(
        &self,
        configs: impl IntoIterator<Item = C>,
        eval: impl Fn(&C) -> (Effectiveness, PhaseBreakdown) + Sync,
    ) -> OptimizationOutcome<C>
    where
        C: Clone + Send + Sync,
    {
        self.grid_par_with(Threads::get(), configs, eval)
    }

    /// Grouped grid sweep behind a shared [`ArtifactCache`].
    ///
    /// Configurations are grouped by their representation key (`repr_of`);
    /// each group's prepare-stage artifact is built **exactly once** — or
    /// fetched from `cache` if an earlier sweep over the same dataset
    /// already built it — and every member is then evaluated against the
    /// shared [`Prepared`] via `eval`. Groups are processed in
    /// first-occurrence order and members in configuration order, so for a
    /// repr-major grid (the harness convention) the champion, tie-breaks,
    /// and failure rows are identical to an ungrouped sweep.
    ///
    /// All cache mutations (lookup, insert, poison) happen serially on the
    /// calling thread; only the query-stage evaluations fan out, sharing
    /// the artifact by reference. The merged outcome is therefore
    /// byte-identical for any `threads`.
    ///
    /// Fault isolation covers the prepare stage: a failing prepare poisons
    /// the cache entry, records the original [`Failure`] for the group's
    /// first member, and marks every remaining member (and every member of
    /// any later group hitting the poisoned entry) as
    /// [`FailReason::Poisoned`] with zero elapsed time — the sweep never
    /// dies, and never re-runs a prepare known to fail.
    ///
    /// Each evaluated row's breakdown is the prepare breakdown merged with
    /// the query breakdown, with the amortized prepare share
    /// (`prepare_total / group size`) recorded via
    /// [`PhaseBreakdown::set_amortized_prepare`].
    // Three closures mirror the three Filter stages (repr_key / prepare /
    // query); folding them into a trait object would cost more than the
    // argument count saves.
    #[allow(clippy::too_many_arguments)]
    pub fn grid_grouped_with<C>(
        &self,
        threads: usize,
        cache: &ArtifactCache,
        dataset_fp: u64,
        configs: impl IntoIterator<Item = C>,
        repr_of: impl Fn(&C) -> String,
        prepare: impl Fn(&C) -> Prepared,
        eval: impl Fn(&C, &Prepared) -> (Effectiveness, PhaseBreakdown) + Sync,
    ) -> OptimizationOutcome<C>
    where
        C: Clone + Send + Sync,
    {
        // Every attempted configuration either evaluates or fails, so
        // truncating upfront is budget-equivalent to the serial stop.
        let configs: Vec<C> = configs.into_iter().take(self.max_evaluations).collect();

        // Group indices by representation key, preserving first-occurrence
        // order of groups and configuration order within each group.
        let mut group_order: Vec<String> = Vec::new();
        let mut groups: FastMap<String, Vec<usize>> = FastMap::default();
        for (i, config) in configs.iter().enumerate() {
            let repr = repr_of(config);
            let members = groups.entry(repr.clone()).or_default();
            if members.is_empty() {
                group_order.push(repr);
            }
            members.push(i);
        }

        let mut out = OptimizationOutcome::default();
        for repr in group_order {
            let members = &groups[&repr];
            let key = ArtifactKey::new(dataset_fp, repr.clone());
            let prepared = match cache.lookup(&key) {
                Some(Ok(prepared)) => prepared,
                Some(Err(reason)) => {
                    // Poisoned by an earlier sweep: replay the structured
                    // failure for every member without re-running prepare.
                    for &m in members {
                        out.failures.push(Failure {
                            config: configs[m].clone(),
                            reason: FailReason::Poisoned {
                                repr: repr.clone(),
                                reason: reason.clone(),
                            },
                            elapsed: Duration::ZERO,
                        });
                    }
                    continue;
                }
                None => match guard::run_guarded(self.limits, || prepare(&configs[members[0]])) {
                    RunOutcome::Ok(prepared) => {
                        cache.insert(key.clone(), prepared.clone());
                        prepared
                    }
                    RunOutcome::Failed { reason, elapsed } => {
                        let msg = reason.to_string();
                        cache.poison(key.clone(), msg.clone());
                        let mut iter = members.iter();
                        if let Some(&first) = iter.next() {
                            out.failures.push(Failure {
                                config: configs[first].clone(),
                                reason,
                                elapsed,
                            });
                        }
                        for &m in iter {
                            out.failures.push(Failure {
                                config: configs[m].clone(),
                                reason: FailReason::Poisoned {
                                    repr: repr.clone(),
                                    reason: msg.clone(),
                                },
                                elapsed: Duration::ZERO,
                            });
                        }
                        continue;
                    }
                },
            };

            let amortized = prepared.breakdown().prepare_total() / members.len() as u32;
            let member_configs: Vec<&C> = members.iter().map(|&m| &configs[m]).collect();
            let results = if threads <= 1 {
                member_configs
                    .iter()
                    .map(|c| guard::run_guarded(self.limits, || eval(c, &prepared)))
                    .collect::<Vec<_>>()
            } else {
                parallel::par_map_chunks_with(threads, &member_configs, 1, |_, c| {
                    guard::run_guarded(self.limits, || eval(c[0], &prepared))
                })
            };
            for (&m, result) in members.iter().zip(results) {
                match result {
                    RunOutcome::Ok((eff, query_breakdown)) => {
                        let mut breakdown = prepared.breakdown().clone();
                        breakdown.merge(&query_breakdown);
                        breakdown.set_amortized_prepare(amortized);
                        out.consider(
                            Evaluated {
                                config: configs[m].clone(),
                                eff,
                                breakdown,
                            },
                            self.target.0,
                        );
                    }
                    RunOutcome::Failed { reason, elapsed } => out.failures.push(Failure {
                        config: configs[m].clone(),
                        reason,
                        elapsed,
                    }),
                }
            }
        }
        out
    }

    /// [`Optimizer::grid_grouped_with`] using the global [`Threads`]
    /// count.
    pub fn grid_grouped<C>(
        &self,
        cache: &ArtifactCache,
        dataset_fp: u64,
        configs: impl IntoIterator<Item = C>,
        repr_of: impl Fn(&C) -> String,
        prepare: impl Fn(&C) -> Prepared,
        eval: impl Fn(&C, &Prepared) -> (Effectiveness, PhaseBreakdown) + Sync,
    ) -> OptimizationOutcome<C>
    where
        C: Clone + Send + Sync,
    {
        self.grid_grouped_with(
            Threads::get(),
            cache,
            dataset_fp,
            configs,
            repr_of,
            prepare,
            eval,
        )
    }

    /// Parallel [`Optimizer::first_feasible`] over an explicit worker
    /// count.
    ///
    /// Configurations are evaluated speculatively in waves of
    /// `threads × 2`, but only the in-order prefix up to (and including)
    /// the first feasible configuration reaches
    /// [`OptimizationOutcome::consider`]; speculative evaluations past the
    /// stopping point are discarded. The outcome — champions, tie-breaks,
    /// and the `evaluated` count — is therefore identical to the serial
    /// sweep for any `threads`, provided `eval` is a pure function of the
    /// configuration.
    pub fn first_feasible_par_with<C>(
        &self,
        threads: usize,
        configs: impl IntoIterator<Item = C>,
        eval: impl Fn(&C) -> (Effectiveness, PhaseBreakdown) + Sync,
    ) -> OptimizationOutcome<C>
    where
        C: Clone + Send + Sync,
    {
        if threads <= 1 {
            return self.first_feasible(configs, eval);
        }
        let configs: Vec<C> = configs.into_iter().take(self.max_evaluations).collect();
        let mut out = OptimizationOutcome::default();
        let wave = threads * 2;
        let mut start = 0;
        while start < configs.len() {
            let end = (start + wave).min(configs.len());
            let results =
                parallel::par_map_chunks_with(threads, &configs[start..end], 1, |_, c| {
                    guard::run_guarded(self.limits, || eval(&c[0]))
                });
            for (offset, result) in results.into_iter().enumerate() {
                let config = configs[start + offset].clone();
                match result {
                    RunOutcome::Ok((eff, breakdown)) => {
                        let feasible = eff.pc >= self.target.0;
                        out.consider(
                            Evaluated {
                                config,
                                eff,
                                breakdown,
                            },
                            self.target.0,
                        );
                        if feasible {
                            return out;
                        }
                    }
                    RunOutcome::Failed { reason, elapsed } => out.failures.push(Failure {
                        config,
                        reason,
                        elapsed,
                    }),
                }
            }
            start = end;
        }
        out
    }

    /// [`Optimizer::first_feasible_par_with`] using the global
    /// [`Threads`] count.
    pub fn first_feasible_par<C>(
        &self,
        configs: impl IntoIterator<Item = C>,
        eval: impl Fn(&C) -> (Effectiveness, PhaseBreakdown) + Sync,
    ) -> OptimizationOutcome<C>
    where
        C: Clone + Send + Sync,
    {
        self.first_feasible_par_with(Threads::get(), configs, eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eff(pc: f64, pq: f64, candidates: usize) -> Effectiveness {
        Effectiveness {
            pc,
            pq,
            candidates,
            duplicates_found: 0,
        }
    }

    #[test]
    fn grid_picks_pq_best_feasible() {
        let opt = Optimizer::new(0.9);
        let outcomes = [
            (0.95, 0.10, 100),
            (0.92, 0.30, 50),
            (0.70, 0.90, 5),
            (0.91, 0.25, 60),
        ];
        let out = opt.grid(0..outcomes.len(), |&i| {
            (
                eff(outcomes[i].0, outcomes[i].1, outcomes[i].2),
                PhaseBreakdown::new(),
            )
        });
        let best = out.best().expect("has best");
        assert_eq!(best.config, 1, "0.92/0.30 should win");
        assert!(out.is_feasible());
        assert_eq!(out.evaluated, 4);
    }

    #[test]
    fn grid_falls_back_to_max_pc() {
        let opt = Optimizer::new(0.9);
        let outcomes = [(0.5, 0.9), (0.8, 0.2), (0.6, 0.8)];
        let out = opt.grid(0..3usize, |&i| {
            (eff(outcomes[i].0, outcomes[i].1, 10), PhaseBreakdown::new())
        });
        assert!(!out.is_feasible());
        assert_eq!(out.best().expect("fallback").config, 1, "max PC wins");
    }

    #[test]
    fn grid_tie_breaks_on_fewer_candidates() {
        let opt = Optimizer::new(0.9);
        let outcomes = [(0.95, 0.3, 100), (0.95, 0.3, 40)];
        let out = opt.grid(0..2usize, |&i| {
            (
                eff(outcomes[i].0, outcomes[i].1, outcomes[i].2),
                PhaseBreakdown::new(),
            )
        });
        assert_eq!(out.best().expect("best").config, 1);
    }

    #[test]
    fn first_feasible_stops_early() {
        let opt = Optimizer::new(0.75);
        let mut calls = 0;
        let out = opt.first_feasible(1..=100usize, |&k| {
            calls += 1;
            // PC grows with k (binary-exact steps): feasible from k = 3.
            (
                eff(0.25 * k as f64, 1.0 / k as f64, k),
                PhaseBreakdown::new(),
            )
        });
        assert_eq!(calls, 3);
        assert_eq!(out.best().expect("best").config, 3);
        assert!(out.is_feasible());
    }

    #[test]
    fn first_feasible_exhausts_when_infeasible() {
        let opt = Optimizer::new(0.9);
        let out = opt.first_feasible(1..=5usize, |&k| (eff(0.1, 0.5, k), PhaseBreakdown::new()));
        assert_eq!(out.evaluated, 5);
        assert!(!out.is_feasible());
        assert!(out.best().is_some());
    }

    #[test]
    fn budget_caps_evaluations() {
        let opt = Optimizer::new(0.9).with_budget(2);
        let out = opt.grid(0..100usize, |_| (eff(0.95, 0.5, 10), PhaseBreakdown::new()));
        assert_eq!(out.evaluated, 2);
    }

    /// Pseudo-random but pure configuration outcomes, exercising feasible
    /// and infeasible regions plus exact PQ ties.
    fn synth_eval(&i: &usize) -> (Effectiveness, PhaseBreakdown) {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let pc = (h % 1000) as f64 / 999.0;
        let pq = ((h >> 10) % 8) as f64 / 8.0; // coarse → ties happen
        (eff(pc, pq, (h % 77) as usize), PhaseBreakdown::new())
    }

    fn assert_outcome_eq(a: &OptimizationOutcome<usize>, b: &OptimizationOutcome<usize>) {
        assert_eq!(a.evaluated, b.evaluated);
        for (x, y) in [
            (&a.best_feasible, &b.best_feasible),
            (&a.best_fallback, &b.best_fallback),
        ] {
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.config, y.config);
                    assert_eq!(x.eff.pc.to_bits(), y.eff.pc.to_bits());
                    assert_eq!(x.eff.pq.to_bits(), y.eff.pq.to_bits());
                    assert_eq!(x.eff.candidates, y.eff.candidates);
                }
                _ => panic!("feasible/fallback presence differs"),
            }
        }
    }

    #[test]
    fn grid_par_is_serial_identical() {
        for target in [0.5, 0.9, 1.1] {
            for budget in [usize::MAX, 37] {
                let opt = Optimizer::new(target).with_budget(budget);
                let serial = opt.grid(0..100usize, synth_eval);
                for threads in [1, 2, 3, 8] {
                    let par = opt.grid_par_with(threads, 0..100usize, synth_eval);
                    assert_outcome_eq(&par, &serial);
                }
            }
        }
    }

    #[test]
    fn first_feasible_par_is_serial_identical() {
        // Monotone PC sweep: feasibility boundary lands mid-wave for some
        // thread counts, exactly on a wave boundary for others.
        for boundary in [1usize, 4, 7, 16, 31, 200] {
            let eval = move |&k: &usize| {
                let pc = (k as f64 / boundary as f64).min(1.0);
                (eff(pc, 1.0 / k as f64, k), PhaseBreakdown::new())
            };
            let opt = Optimizer::new(0.999);
            let serial = opt.first_feasible(1..=100usize, eval);
            for threads in [1, 2, 3, 8] {
                let par = opt.first_feasible_par_with(threads, 1..=100usize, eval);
                assert_outcome_eq(&par, &serial);
            }
        }
    }

    /// Eval that panics on configs divisible by 10 (pure, thread-safe).
    fn faulty_eval(&i: &usize) -> (Effectiveness, PhaseBreakdown) {
        if i % 10 == 0 {
            panic!("config {i} exploded");
        }
        synth_eval(&i)
    }

    #[test]
    fn guarded_grid_records_failures_and_continues() {
        let opt = Optimizer::new(0.5).with_limits(Limits::catching());
        let out = opt.grid(0..30usize, faulty_eval);
        assert_eq!(out.evaluated, 27);
        assert_eq!(out.failures.len(), 3);
        assert_eq!(
            out.failures.iter().map(|f| f.config).collect::<Vec<_>>(),
            vec![0, 10, 20]
        );
        for f in &out.failures {
            match &f.reason {
                FailReason::Panicked(msg) => assert!(msg.contains("exploded"), "{msg}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(out.best().is_some(), "surviving configs still optimized");
    }

    #[test]
    #[should_panic(expected = "exploded")]
    fn unguarded_grid_still_propagates_panics() {
        let opt = Optimizer::new(0.5);
        let _ = opt.grid(0..30usize, faulty_eval);
    }

    #[test]
    fn guarded_grid_par_matches_guarded_serial() {
        for budget in [usize::MAX, 17] {
            let opt = Optimizer::new(0.9)
                .with_budget(budget)
                .with_limits(Limits::catching());
            let serial = opt.grid(0..60usize, faulty_eval);
            for threads in [2, 3, 8] {
                let par = opt.grid_par_with(threads, 0..60usize, faulty_eval);
                assert_outcome_eq(&par, &serial);
                assert_eq!(par.failures.len(), serial.failures.len());
                assert_eq!(
                    par.failures.iter().map(|f| f.config).collect::<Vec<_>>(),
                    serial.failures.iter().map(|f| f.config).collect::<Vec<_>>(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn guarded_first_feasible_skips_failed_points() {
        // PC reaches the target at config 12, but 10 panics first; the
        // sweep must record the failure and still stop at 12.
        let eval = |&k: &usize| {
            if k == 10 {
                panic!("boom at 10");
            }
            (
                eff(k as f64 / 12.0, 1.0 / (k + 1) as f64, k),
                PhaseBreakdown::new(),
            )
        };
        let opt = Optimizer::new(0.999).with_limits(Limits::catching());
        let serial = opt.first_feasible(0..100usize, eval);
        assert_eq!(serial.failures.len(), 1);
        assert_eq!(serial.best().expect("best").config, 12);
        for threads in [2, 8] {
            let par = opt.first_feasible_par_with(threads, 0..100usize, eval);
            assert_outcome_eq(&par, &serial);
            assert_eq!(par.failures.len(), 1);
            assert_eq!(par.failures[0].config, 10);
        }
    }

    #[test]
    fn budget_counts_failed_attempts() {
        let opt = Optimizer::new(0.9)
            .with_budget(15)
            .with_limits(Limits::catching());
        let out = opt.grid(0..100usize, faulty_eval);
        assert_eq!(out.attempted(), 15);
        assert_eq!(out.failures.len(), 2, "configs 0 and 10 fail");
        assert_eq!(out.evaluated, 13);
    }

    #[test]
    fn first_feasible_par_respects_budget() {
        let opt = Optimizer::new(0.9).with_budget(5);
        let serial = opt.first_feasible(0..100usize, synth_eval);
        for threads in [2, 8] {
            let par = opt.first_feasible_par_with(threads, 0..100usize, synth_eval);
            assert_outcome_eq(&par, &serial);
            assert!(par.evaluated <= 5);
        }
    }

    // ---- grouped sweeps behind the artifact cache -----------------------

    use crate::timing::Stage;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Repr-major grid: 4 representation groups × 5 query params each.
    fn grouped_configs() -> Vec<(usize, usize)> {
        (0..4usize)
            .flat_map(|g| (0..5usize).map(move |p| (g, p)))
            .collect()
    }

    fn grouped_repr(c: &(usize, usize)) -> String {
        format!("g{}", c.0)
    }

    /// Prepare builds an artifact carrying the group id; the counter
    /// observes how many times it actually runs.
    fn grouped_prepare(c: &(usize, usize), calls: &AtomicUsize) -> Prepared {
        calls.fetch_add(1, Ordering::SeqCst);
        let mut breakdown = PhaseBreakdown::new();
        let artifact = breakdown.time_in(Stage::Prepare, "build", || c.0 * 1000);
        Prepared::new(artifact, 64, breakdown)
    }

    fn grouped_eval(c: &(usize, usize), prepared: &Prepared) -> (Effectiveness, PhaseBreakdown) {
        let base = *prepared.downcast::<usize>();
        synth_eval(&(base + c.1))
    }

    /// The grouped sweep must select exactly the champion an ungrouped
    /// sweep over the same (group, param) outcomes selects.
    fn ungrouped_reference(opt: &Optimizer) -> OptimizationOutcome<(usize, usize)> {
        opt.grid(grouped_configs(), |c| synth_eval(&(c.0 * 1000 + c.1)))
    }

    #[test]
    fn grouped_prepares_exactly_once_per_repr() {
        let cache = ArtifactCache::new();
        let calls = AtomicUsize::new(0);
        let opt = Optimizer::new(0.5);
        let out = opt.grid_grouped_with(
            1,
            &cache,
            7,
            grouped_configs(),
            grouped_repr,
            |c| grouped_prepare(c, &calls),
            grouped_eval,
        );
        assert_eq!(out.evaluated, 20);
        assert_eq!(calls.load(Ordering::SeqCst), 4, "one prepare per group");
        assert_eq!(cache.stats().misses, 4);
        assert_eq!(cache.stats().hits, 0);

        // A second sweep over the same dataset reuses every artifact.
        let again = opt.grid_grouped_with(
            1,
            &cache,
            7,
            grouped_configs(),
            grouped_repr,
            |c| grouped_prepare(c, &calls),
            grouped_eval,
        );
        assert_eq!(
            calls.load(Ordering::SeqCst),
            4,
            "warm sweep prepares nothing"
        );
        assert_eq!(cache.stats().hits, 4);
        assert_outcome_eq_pairs(&again, &out);
    }

    fn assert_outcome_eq_pairs(
        a: &OptimizationOutcome<(usize, usize)>,
        b: &OptimizationOutcome<(usize, usize)>,
    ) {
        assert_eq!(a.evaluated, b.evaluated);
        assert_eq!(a.failures.len(), b.failures.len());
        for (x, y) in a.failures.iter().zip(&b.failures) {
            assert_eq!(x.config, y.config);
        }
        for (x, y) in [
            (&a.best_feasible, &b.best_feasible),
            (&a.best_fallback, &b.best_fallback),
        ] {
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.config, y.config);
                    assert_eq!(x.eff.pc.to_bits(), y.eff.pc.to_bits());
                    assert_eq!(x.eff.pq.to_bits(), y.eff.pq.to_bits());
                    assert_eq!(x.eff.candidates, y.eff.candidates);
                }
                _ => panic!("feasible/fallback presence differs"),
            }
        }
    }

    #[test]
    fn grouped_matches_ungrouped_grid() {
        for target in [0.5, 0.9, 1.1] {
            let opt = Optimizer::new(target);
            let reference = ungrouped_reference(&opt);
            let cache = ArtifactCache::new();
            let calls = AtomicUsize::new(0);
            let grouped = opt.grid_grouped_with(
                1,
                &cache,
                3,
                grouped_configs(),
                grouped_repr,
                |c| grouped_prepare(c, &calls),
                grouped_eval,
            );
            assert_outcome_eq_pairs(&grouped, &reference);
        }
    }

    #[test]
    fn grouped_is_serial_identical_across_threads() {
        let opt = Optimizer::new(0.9);
        let serial_cache = ArtifactCache::new();
        let calls = AtomicUsize::new(0);
        let serial = opt.grid_grouped_with(
            1,
            &serial_cache,
            11,
            grouped_configs(),
            grouped_repr,
            |c| grouped_prepare(c, &calls),
            grouped_eval,
        );
        for threads in [2, 3, 8] {
            let cache = ArtifactCache::new();
            let par = opt.grid_grouped_with(
                threads,
                &cache,
                11,
                grouped_configs(),
                grouped_repr,
                |c| grouped_prepare(c, &calls),
                grouped_eval,
            );
            assert_outcome_eq_pairs(&par, &serial);
            assert_eq!(cache.stats().misses, 4, "threads={threads}");
        }
    }

    #[test]
    fn grouped_poisons_failed_prepare_and_replays_it() {
        let cache = ArtifactCache::new();
        let calls = AtomicUsize::new(0);
        let opt = Optimizer::new(0.5).with_limits(Limits::catching());
        let prepare = |c: &(usize, usize)| {
            if c.0 == 1 {
                panic!("prepare of group 1 exploded");
            }
            grouped_prepare(c, &calls)
        };
        let out = opt.grid_grouped_with(
            1,
            &cache,
            5,
            grouped_configs(),
            grouped_repr,
            prepare,
            grouped_eval,
        );
        assert_eq!(out.evaluated, 15, "three healthy groups evaluate fully");
        assert_eq!(out.failures.len(), 5, "all five members of group 1 fail");
        match &out.failures[0].reason {
            FailReason::Panicked(msg) => assert!(msg.contains("exploded"), "{msg}"),
            other => panic!("first member carries the original reason, got {other:?}"),
        }
        for f in &out.failures[1..] {
            match &f.reason {
                FailReason::Poisoned { repr, reason } => {
                    assert_eq!(repr, "g1");
                    assert!(reason.contains("exploded"), "{reason}");
                }
                other => panic!("unexpected {other:?}"),
            }
            assert_eq!(f.elapsed, Duration::ZERO);
        }
        assert_eq!(cache.stats().poisoned, 1);

        // A later sweep hits the poisoned entry: the prepare never re-runs
        // and every member replays a structured Poisoned failure.
        let before = calls.load(Ordering::SeqCst);
        let replay = opt.grid_grouped_with(
            1,
            &cache,
            5,
            grouped_configs(),
            grouped_repr,
            prepare,
            grouped_eval,
        );
        assert_eq!(
            calls.load(Ordering::SeqCst),
            before,
            "no healthy re-prepare"
        );
        assert_eq!(replay.failures.len(), 5);
        for f in &replay.failures {
            assert!(matches!(&f.reason, FailReason::Poisoned { repr, .. } if repr == "g1"));
        }
    }

    #[test]
    fn grouped_respects_budget() {
        let cache = ArtifactCache::new();
        let calls = AtomicUsize::new(0);
        let opt = Optimizer::new(0.5).with_budget(7);
        let out = opt.grid_grouped_with(
            1,
            &cache,
            9,
            grouped_configs(),
            grouped_repr,
            |c| grouped_prepare(c, &calls),
            grouped_eval,
        );
        assert_eq!(out.attempted(), 7);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            2,
            "7 configs span groups 0 and 1 only"
        );
    }

    #[test]
    fn grouped_rows_carry_amortized_prepare() {
        let cache = ArtifactCache::new();
        let calls = AtomicUsize::new(0);
        let opt = Optimizer::new(0.0);
        let out = opt.grid_grouped_with(
            1,
            &cache,
            13,
            grouped_configs(),
            grouped_repr,
            |c| grouped_prepare(c, &calls),
            grouped_eval,
        );
        let best = out.best().expect("has best");
        let amortized = best
            .breakdown
            .amortized_prepare()
            .expect("grouped rows record the amortized share");
        assert!(amortized <= best.breakdown.prepare_total());
    }
}
