//! One validated place to assemble a sampling pipeline.
//!
//! The framework has three orthogonal axes — *parameter estimation*
//! (exact / histogram / random walk), *sampling strategy* (Algorithm 1
//! rejection, Algorithm 2 online, Bernoulli union trick, disjoint
//! union), and *predicate handling* (push-down / reject) — that every
//! caller previously hand-wired. [`SamplerBuilder`] owns the whole
//! pipeline:
//!
//! ```
//! use std::sync::Arc;
//! use suj_core::prelude::*;
//! use suj_stats::SujRng;
//! use suj_storage::{Relation, Schema, Tuple, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let rel = |name: &str, attrs: [&str; 2], rows: &[(i64, i64)]| {
//! #     let tuples = rows.iter()
//! #         .map(|&(x, y)| Tuple::new(vec![Value::int(x), Value::int(y)]))
//! #         .collect();
//! #     Arc::new(Relation::new(name, Schema::new(attrs).unwrap(), tuples).unwrap())
//! # };
//! # let j1 = suj_join::JoinSpec::chain("j1", vec![
//! #     rel("r1", ["a", "b"], &[(1, 10), (2, 20)]),
//! #     rel("s1", ["b", "c"], &[(10, 100), (20, 200)]),
//! # ])?;
//! # let j2 = suj_join::JoinSpec::chain("j2", vec![
//! #     rel("r2", ["a", "b"], &[(1, 10), (3, 30)]),
//! #     rel("s2", ["b", "c"], &[(10, 100), (30, 300)]),
//! # ])?;
//! # let workload = Arc::new(UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)])?);
//! let mut sampler = SamplerBuilder::for_workload(workload)
//!     .estimator(Estimator::Exact)
//!     .strategy(Strategy::Rejection)
//!     .cover_policy(CoverPolicy::MembershipOracle)
//!     .build()?;
//! let mut rng = SujRng::seed_from_u64(7);
//! let (samples, _report) = sampler.sample(5, &mut rng)?;
//! assert_eq!(samples.len(), 5);
//! # Ok(())
//! # }
//! ```
//!
//! `build()` returns a `Box<dyn UnionSampler + Send>`, so every
//! strategy is interchangeable behind one type: batch via
//! [`UnionSampler::sample`], incremental via
//! [`SampleStream`](crate::stream::SampleStream). For serving, split
//! the pipeline with [`SamplerBuilder::freeze`]: the frozen
//! [`PreparedSampler`] pays estimation and per-join precomputation
//! once, is `Send + Sync`, and mints an independent `Send` handle per
//! thread via [`PreparedSampler::instantiate`].

use crate::algorithm1::{CoverPolicy, SetUnionSampler, UnionSamplerConfig};
use crate::algorithm2::{OnlineConfig, OnlineUnionSampler};
use crate::bernoulli::{BernoulliUnionSampler, DesignationPolicy};
use crate::cover::CoverStrategy;
use crate::disjoint::DisjointUnionSampler;
use crate::error::CoreError;
use crate::hist_estimator::DegreeMode;
use crate::overlap::OverlapMap;
use crate::params::{derive_params, Params, Provenance};
use crate::planner::{cover_label, predicate_label, weights_label, Plan, Planner};
use crate::predicate_mode::{push_down, PredicateMode, PredicateSampler};
use crate::query::UnionSemantics;
use crate::report::PlanSummary;
use crate::sampler::UnionSampler;
use crate::walk_estimator::WalkEstimatorConfig;
use crate::workload::UnionWorkload;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use suj_join::{JoinSampler, JoinSpec, WeightKind};
use suj_storage::Predicate;

/// Histogram-estimator options for the builder.
#[derive(Debug, Clone, Copy)]
pub struct HistogramOptions {
    /// Degree statistic driving the Theorem 4 multipliers.
    pub degree_mode: DegreeMode,
    /// §8.1.2 alternating-score hyper-parameter (0.0 = plain scores).
    pub zero_weight: f64,
    /// Use exact (EW) join sizes as hints instead of extended-Olken
    /// bounds (§9's hist+EW vs hist+EO configurations).
    pub exact_size_hints: bool,
}

impl Default for HistogramOptions {
    fn default() -> Self {
        Self {
            degree_mode: DegreeMode::Max,
            zero_weight: 0.0,
            exact_size_hints: false,
        }
    }
}

/// How union/overlap parameters are obtained before sampling.
#[derive(Debug, Clone, Copy)]
pub enum Estimator {
    /// Ground truth via `FullJoinUnion` (§9 baseline — expensive but
    /// exact; the right choice for tests and small data).
    Exact,
    /// Histogram-based bounds (§5, §8): statistics only, no data
    /// access — the decentralized / data-market configuration.
    Histogram(HistogramOptions),
    /// Random-walk warm-up estimation (§6): centralized configuration.
    /// Walks consume the builder's estimation RNG (see
    /// [`SamplerBuilder::estimation_seed`]).
    Walk(WalkEstimatorConfig),
}

/// Which sampling algorithm runs over the estimated parameters.
#[derive(Debug, Clone, Copy)]
pub enum Strategy {
    /// Algorithm 1: non-Bernoulli cover selection with rejection and
    /// revision. Tune with [`SamplerBuilder::cover_policy`],
    /// [`SamplerBuilder::cover_strategy`], and
    /// [`SamplerBuilder::weights`].
    Rejection,
    /// Algorithm 2: online estimation while sampling, with sample reuse
    /// and backtracking. Pairs with [`Estimator::Walk`] (which then
    /// configures the warm-up) or no explicit estimator.
    Online(OnlineConfig),
    /// The §3 Bernoulli union trick with the given designation policy.
    Bernoulli(DesignationPolicy),
    /// Disjoint-union sampling (Definition 1).
    Disjoint,
    /// Let the [`Planner`] pick the strategy
    /// (and any estimator / weights / cover left unset) from cheap
    /// workload statistics. The planned configuration — including the
    /// rule that fired — is recorded in the sampler's
    /// [`RunReport::config`](crate::report::RunReport::config).
    Auto,
}

impl fmt::Display for Estimator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Estimator::Exact => write!(f, "exact"),
            Estimator::Histogram(opts) if opts.exact_size_hints => write!(f, "histogram(EW)"),
            Estimator::Histogram(_) => write!(f, "histogram(EO)"),
            Estimator::Walk(_) => write!(f, "walk"),
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Rejection => write!(f, "rejection"),
            Strategy::Online(_) => write!(f, "online"),
            Strategy::Bernoulli(DesignationPolicy::Oracle) => write!(f, "bernoulli(oracle)"),
            Strategy::Bernoulli(DesignationPolicy::Record) => write!(f, "bernoulli(record)"),
            Strategy::Disjoint => write!(f, "disjoint"),
            Strategy::Auto => write!(f, "auto"),
        }
    }
}

/// Fluent assembly of a union sampling pipeline.
///
/// Defaults: histogram estimation with extended-Olken hints,
/// [`Strategy::Rejection`] with the paper's record policy, exact
/// weights, workload cover order, no predicate.
pub struct SamplerBuilder {
    workload: Arc<UnionWorkload>,
    estimator: Option<Estimator>,
    strategy: Strategy,
    weights: Option<WeightKind>,
    cover_policy: Option<CoverPolicy>,
    cover_strategy: Option<CoverStrategy>,
    predicate: Option<(Predicate, PredicateMode)>,
    estimation_seed: u64,
    max_join_tries: Option<u64>,
    max_cover_retries: Option<u64>,
}

impl SamplerBuilder {
    /// Starts a pipeline over a validated workload.
    pub fn for_workload(workload: Arc<UnionWorkload>) -> Self {
        Self {
            workload,
            estimator: None,
            strategy: Strategy::Rejection,
            weights: None,
            cover_policy: None,
            cover_strategy: None,
            predicate: None,
            estimation_seed: 0x5eed,
            max_join_tries: None,
            max_cover_retries: None,
        }
    }

    /// Builds the workload from join specs first, then starts the
    /// pipeline.
    pub fn for_joins(joins: Vec<Arc<JoinSpec>>) -> Result<Self, CoreError> {
        Ok(Self::for_workload(Arc::new(UnionWorkload::new(joins)?)))
    }

    /// Selects the parameter estimator (default:
    /// `Estimator::Histogram(HistogramOptions::default())`).
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn estimator(mut self, estimator: Estimator) -> Self {
        self.estimator = Some(estimator);
        self
    }

    /// Selects the sampling strategy (default: `Strategy::Rejection`).
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Weight instantiation for the per-join subroutine (§3.2; default
    /// exact weights).
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn weights(mut self, weights: WeightKind) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Cover ownership policy for [`Strategy::Rejection`] (default: the
    /// paper's record policy).
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn cover_policy(mut self, policy: CoverPolicy) -> Self {
        self.cover_policy = Some(policy);
        self
    }

    /// Cover ordering strategy (default: workload order).
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn cover_strategy(mut self, strategy: CoverStrategy) -> Self {
        self.cover_strategy = Some(strategy);
        self
    }

    /// Applies a selection predicate in the given mode.
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn predicate(mut self, predicate: Predicate, mode: PredicateMode) -> Self {
        self.predicate = Some((predicate, mode));
        self
    }

    /// Seed of the RNG used by build-time estimation
    /// ([`Estimator::Walk`]); sampling itself always uses the RNG the
    /// caller passes to `draw` / `sample`. Doubles as the root of the
    /// per-handle stream derivation of
    /// [`PreparedQuery::sample`](crate::catalog::PreparedQuery::sample).
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn estimation_seed(mut self, seed: u64) -> Self {
        self.estimation_seed = seed;
        self
    }

    /// Attempt budget inside the join-sampling subroutine per draw
    /// (defaults to the strategy config's own default when unset).
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn max_join_tries(mut self, tries: u64) -> Self {
        self.max_join_tries = Some(tries);
        self
    }

    /// Cover-rejection retry cap per join selection (defaults to the
    /// strategy config's own default when unset).
    #[must_use = "builder methods return the updated builder; dropping it discards the configuration"]
    pub fn max_cover_retries(mut self, retries: u64) -> Self {
        self.max_cover_retries = Some(retries);
        self
    }

    /// Rejects the first set knob: `strategy` cannot honor it, and
    /// silently ignoring it would hide the caller's mistake.
    fn reject_knobs(strategy: &str, knobs: &[(bool, &str)]) -> Result<(), CoreError> {
        match knobs.iter().find(|(set, _)| *set) {
            Some((_, knob)) => Err(CoreError::Invalid(format!(
                "`{knob}` does not apply to {strategy}; remove the call or pick a \
                 strategy that uses it"
            ))),
            None => Ok(()),
        }
    }

    /// Validates the configuration, pays parameter estimation and
    /// per-join precomputation once, and returns the frozen
    /// [`PreparedSampler`] — a `Send + Sync` artifact that mints any
    /// number of independent sampler handles via
    /// [`instantiate`](PreparedSampler::instantiate).
    ///
    /// Under [`Strategy::Auto`] the default [`Planner`] fills every
    /// knob left unset, then the same path freezes the result, so an
    /// `Auto` build is seed-for-seed identical to the explicit
    /// configuration the planner selected.
    pub fn freeze(self) -> Result<PreparedSampler, CoreError> {
        let Strategy::Auto = self.strategy else {
            return self.freeze_plan(None);
        };
        let plan = Planner::default().plan(&self.workload, UnionSemantics::Set);
        self.freeze_plan(Some(&plan)).map_err(|e| match e {
            // A knob the caller pinned can be incompatible with the
            // strategy the planner picked for *this data*; say so
            // instead of blaming a strategy the caller never chose.
            CoreError::Invalid(msg) => CoreError::Invalid(format!(
                "Strategy::Auto planned `{}` (rule {}): {msg}",
                plan.strategy,
                plan.rule.name()
            )),
            other => other,
        })
    }

    /// The one plan → prepared path. `plan` (the planner's, or one
    /// rebuilt from a snapshot) fills every knob the caller left unset,
    /// names its rule, and lends its [`Params`]; without a plan, unset
    /// knobs take their defaults and every parameter is derived fresh.
    pub(crate) fn freeze_plan(self, plan: Option<&Plan>) -> Result<PreparedSampler, CoreError> {
        let strategy = plan.map_or(self.strategy, |p| p.strategy);
        let estimator = self.estimator.or(plan.and_then(|p| p.estimator));
        let weights = self.weights.or(plan.and_then(|p| p.weights));
        let cover_strategy = self.cover_strategy.or(plan.and_then(|p| p.cover_strategy));
        let predicate_mode = match &self.predicate {
            Some((_, mode)) => Some(*mode),
            None => plan.and_then(|p| p.predicate_mode),
        };

        // Push-down rewrites the workload first; the plan's params
        // describe the workload as given, so the rewrite discards them.
        let (workload, reuse) = match &self.predicate {
            Some((p, PredicateMode::PushDown)) => (push_down_workload(&self.workload, p)?, None),
            _ => (self.workload.clone(), plan.map(|p| p.params.clone())),
        };
        let est = estimator.unwrap_or(Estimator::Histogram(HistogramOptions::default()));
        let seed = self.estimation_seed;
        let knob_weights = (weights.is_some(), "weights");
        let knob_policy = (self.cover_policy.is_some(), "cover_policy");
        let knob_cover = (cover_strategy.is_some(), "cover_strategy");
        let knob_tries = (self.max_join_tries.is_some(), "max_join_tries");
        let knob_retries = (self.max_cover_retries.is_some(), "max_cover_retries");

        let (kind, params, estimation_passes) = match strategy {
            Strategy::Rejection => {
                let defaults = UnionSamplerConfig::default();
                let config = UnionSamplerConfig {
                    weights: weights.unwrap_or(defaults.weights),
                    policy: self.cover_policy.unwrap_or(defaults.policy),
                    strategy: cover_strategy.unwrap_or(defaults.strategy),
                    max_join_tries: self.max_join_tries.unwrap_or(defaults.max_join_tries),
                    max_cover_retries: self.max_cover_retries.unwrap_or(defaults.max_cover_retries),
                };
                let (params, passes) =
                    derive_params(&workload, &est, config.weights, false, seed, reuse)?;
                let kind = PreparedKind::Rejection {
                    samplers: params.samplers.clone(),
                    map: params.overlap()?.clone(),
                    config,
                };
                (kind, params, passes)
            }
            Strategy::Online(mut config) => {
                // Algorithm 2 always uses wander-join walks with the
                // record policy.
                let knobs = [knob_weights, knob_policy, knob_tries];
                Self::reject_knobs("Strategy::Online", &knobs)?;
                // An explicit Walk estimator configures its warm-up,
                // anything else is a contradiction worth surfacing.
                match estimator {
                    None => {}
                    Some(Estimator::Walk(warmup)) => config.warmup = warmup,
                    Some(_) => {
                        return Err(CoreError::Invalid(
                            "Strategy::Online estimates parameters online; combine it \
                             with Estimator::Walk (warm-up configuration) or no \
                             estimator"
                                .into(),
                        ));
                    }
                }
                // Only an explicit builder-level override touches the
                // caller's OnlineConfig.
                if let Some(retries) = self.max_cover_retries {
                    config.max_cover_retries = retries;
                }
                let kind = PreparedKind::Online {
                    config,
                    cover_strategy: cover_strategy.unwrap_or(CoverStrategy::AsGiven),
                };
                // Each handle estimates online, by walks: nothing to
                // derive up front.
                (kind, Params::new(Provenance::Walk, None, Vec::new()), 0)
            }
            Strategy::Bernoulli(policy) => {
                let knobs = [knob_policy, knob_cover, knob_retries];
                Self::reject_knobs("Strategy::Bernoulli", &knobs)?;
                let weights = weights.unwrap_or(WeightKind::Exact);
                let (params, passes) = derive_params(&workload, &est, weights, false, seed, reuse)?;
                let kind = PreparedKind::Bernoulli {
                    samplers: params.samplers.clone(),
                    sizes: params.join_sizes()?,
                    union_size: params.overlap()?.union_size(),
                    policy,
                    max_join_tries: self
                        .max_join_tries
                        .unwrap_or(UnionSamplerConfig::default().max_join_tries),
                };
                (kind, params, passes)
            }
            Strategy::Disjoint => {
                let knobs = [knob_policy, knob_cover, knob_tries, knob_retries];
                Self::reject_knobs("Strategy::Disjoint", &knobs)?;
                let weights = weights.unwrap_or(WeightKind::Exact);
                let (params, passes) = derive_params(&workload, &est, weights, true, seed, reuse)?;
                let kind = PreparedKind::Disjoint {
                    samplers: params.samplers.clone(),
                    sizes: params.join_sizes()?,
                };
                (kind, params, passes)
            }
            Strategy::Auto => {
                return Err(CoreError::Invalid(
                    "Strategy::Auto needs a plan; freeze() supplies one".into(),
                ))
            }
        };

        let online = matches!(strategy, Strategy::Online(_));
        let summary = PlanSummary {
            strategy: strategy.to_string(),
            estimator: if online {
                "online".to_string()
            } else {
                est.to_string()
            },
            weights: (!online).then(|| weights_label(weights.unwrap_or(WeightKind::Exact))),
            cover: matches!(strategy, Strategy::Rejection | Strategy::Online(_))
                .then(|| cover_label(cover_strategy.unwrap_or(CoverStrategy::AsGiven))),
            predicate: predicate_mode.map(|m| predicate_label(m).to_string()),
            sizing: params.sizing().map(|p| p.label().to_string()),
            rule: plan.map(|p| p.rule.name().to_string()),
        };
        // Resident footprint of the frozen pipeline: base relations
        // plus everything the per-join samplers precomputed (hash
        // indexes, count tables, alias arenas).
        let prepared_bytes = workload.memory_bytes() as u64
            + params
                .samplers
                .iter()
                .map(|s| s.memory_bytes() as u64)
                .sum::<u64>();
        Ok(PreparedSampler {
            workload,
            kind,
            reject_predicate: match self.predicate {
                Some((p, PredicateMode::Reject)) => Some(p),
                _ => None,
            },
            summary,
            root_seed: seed,
            estimation_passes,
            prepared_bytes,
            params,
            snapshot_bytes: 0,
            restore_time: Duration::ZERO,
            minted: AtomicU64::new(0),
        })
    }

    /// Validates the configuration and assembles one sampler — the
    /// single-handle convenience over [`freeze`](Self::freeze) +
    /// [`instantiate`](PreparedSampler::instantiate). The returned
    /// trait object is `Send`, so it can be built on one thread and
    /// driven on another.
    pub fn build(self) -> Result<Box<dyn UnionSampler + Send>, CoreError> {
        self.freeze()?.instantiate()
    }
}

/// The workload with a push-down predicate folded into every join's
/// base relations (§8.3); joins are renamed `<name>__σ`.
pub(crate) fn push_down_workload(
    workload: &UnionWorkload,
    predicate: &Predicate,
) -> Result<Arc<UnionWorkload>, CoreError> {
    let filtered: Vec<Arc<JoinSpec>> = workload
        .joins()
        .iter()
        .map(|j| push_down(j, predicate, &format!("{}__σ", j.name())).map(Arc::new))
        .collect::<Result<_, _>>()?;
    Ok(Arc::new(UnionWorkload::new(filtered)?))
}

/// What a frozen pipeline needs to mint a handle: the estimated
/// parameters plus the shared per-join samplers (everything immutable);
/// per-handle record/report state is created fresh at
/// [`instantiate`](PreparedSampler::instantiate) time.
enum PreparedKind {
    /// Algorithm 1 (rejection + revision).
    Rejection {
        samplers: Vec<Arc<dyn JoinSampler>>,
        map: OverlapMap,
        config: UnionSamplerConfig,
    },
    /// Algorithm 2: estimates online, so each handle owns its own
    /// estimation state (warm-up consumes the handle's RNG).
    Online {
        config: OnlineConfig,
        cover_strategy: CoverStrategy,
    },
    /// The §3 Bernoulli union trick.
    Bernoulli {
        samplers: Vec<Arc<dyn JoinSampler>>,
        sizes: Vec<f64>,
        union_size: f64,
        policy: DesignationPolicy,
        max_join_tries: u64,
    },
    /// Disjoint-union sampling (Definition 1).
    Disjoint {
        samplers: Vec<Arc<dyn JoinSampler>>,
        sizes: Vec<f64>,
    },
}

/// A frozen, estimation-complete sampling pipeline.
///
/// Produced by [`SamplerBuilder::freeze`]: parameter estimation and the
/// per-join weight precomputation ran exactly once, and the result is
/// immutable — `PreparedSampler` is `Send + Sync`, so one instance
/// (typically inside an
/// [`Arc<PreparedQuery>`](crate::catalog::PreparedQuery)) serves any
/// number of threads. Each [`instantiate`](Self::instantiate) call
/// mints an independent sampler handle over the shared parts: handles
/// start with fresh record/report state, making every handle its own
/// i.i.d. sampling process whose output depends only on the RNG it is
/// driven with — the determinism contract concurrent serving relies
/// on.
pub struct PreparedSampler {
    workload: Arc<UnionWorkload>,
    kind: PreparedKind,
    /// Reject-mode predicate, compiled per handle (push-down
    /// predicates were already folded into `workload` at freeze time).
    reject_predicate: Option<Predicate>,
    summary: PlanSummary,
    root_seed: u64,
    estimation_passes: u64,
    /// Resident bytes of the frozen pipeline — the workload's base
    /// relations plus every per-join sampler's precomputation (hash
    /// indexes, count tables, alias arenas) — stamped into every minted
    /// handle's report.
    prepared_bytes: u64,
    /// The parameters the freeze consumed, retained so snapshots can
    /// persist them (see
    /// [`Engine::save_snapshot`](crate::catalog::Engine::save_snapshot)).
    params: Params,
    /// Size of the snapshot this pipeline was restored from (0 when it
    /// was frozen in-process); stamped into every handle's report.
    snapshot_bytes: u64,
    /// Wall time of the snapshot restore that produced this pipeline
    /// (zero when frozen in-process); stamped into every handle's
    /// report for load-vs-prepare comparisons.
    restore_time: Duration,
    minted: AtomicU64,
}

impl PreparedSampler {
    /// Mints an independent sampler handle over the frozen state.
    ///
    /// Cheap by construction: no estimation, no weight precomputation —
    /// only fresh per-handle record/report state (plus, for
    /// [`Strategy::Online`], the lazily-initialized online estimation
    /// state, which by design is per-handle). The handle is `Send` and
    /// exclusively owned; drive it with any RNG — same RNG stream, same
    /// samples, regardless of which thread runs it.
    pub fn instantiate(&self) -> Result<Box<dyn UnionSampler + Send>, CoreError> {
        let base: Box<dyn UnionSampler + Send> = match &self.kind {
            PreparedKind::Rejection {
                samplers,
                map,
                config,
            } => Box::new(SetUnionSampler::with_shared(
                self.workload.clone(),
                map,
                *config,
                samplers.clone(),
            )?),
            PreparedKind::Online {
                config,
                cover_strategy,
            } => Box::new(OnlineUnionSampler::new(
                self.workload.clone(),
                *config,
                *cover_strategy,
            )),
            PreparedKind::Bernoulli {
                samplers,
                sizes,
                union_size,
                policy,
                max_join_tries,
            } => Box::new(BernoulliUnionSampler::with_shared(
                self.workload.clone(),
                sizes,
                *union_size,
                samplers.clone(),
                *policy,
                *max_join_tries,
            )?),
            PreparedKind::Disjoint { samplers, sizes } => Box::new(
                DisjointUnionSampler::with_shared(self.workload.clone(), sizes, samplers.clone())?,
            ),
        };
        let mut sampler: Box<dyn UnionSampler + Send> = match &self.reject_predicate {
            Some(p) => Box::new(PredicateSampler::new(base, p)?),
            None => base,
        };
        let report = sampler.report_mut();
        report.config = Some(self.summary.clone());
        report.prepared_bytes = self.prepared_bytes;
        report.snapshot_bytes = self.snapshot_bytes;
        report.restore_time = self.restore_time;
        self.minted.fetch_add(1, Ordering::Relaxed);
        Ok(sampler)
    }

    /// Approximate resident bytes of the frozen pipeline: the
    /// workload's base relations plus every per-join sampler's
    /// `memory_bytes()` — hash indexes, count tables, and alias arenas
    /// (the number stamped into every handle's report).
    pub fn prepared_bytes(&self) -> u64 {
        self.prepared_bytes
    }

    /// The parameters the freeze consumed (snapshot serialization).
    pub(crate) fn params(&self) -> &Params {
        &self.params
    }

    /// Stamps the cost of the snapshot restore that produced this
    /// pipeline; every subsequently minted handle's report carries it.
    pub(crate) fn set_restore_cost(&mut self, snapshot_bytes: u64, restore_time: Duration) {
        self.snapshot_bytes = snapshot_bytes;
        self.restore_time = restore_time;
    }

    /// Size of the snapshot this pipeline was restored from; 0 when it
    /// was frozen in-process.
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes
    }

    /// Wall time of the snapshot restore that produced this pipeline;
    /// zero when it was frozen in-process.
    pub fn restore_time(&self) -> Duration {
        self.restore_time
    }

    /// The workload handles sample (after any push-down rewrite).
    pub fn workload(&self) -> &Arc<UnionWorkload> {
        &self.workload
    }

    /// The resolved configuration stamped into every handle's report.
    pub fn summary(&self) -> &PlanSummary {
        &self.summary
    }

    /// The root of per-handle RNG stream derivation (the builder's
    /// [`estimation_seed`](SamplerBuilder::estimation_seed)).
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// Estimation passes paid at freeze time: 1 normally, 0 when the
    /// plan's params already held the map (the planner's probe or a
    /// snapshot paid for it). Never grows afterwards — minting handles re-estimates
    /// nothing, which served workloads assert.
    pub fn estimation_passes(&self) -> u64 {
        self.estimation_passes
    }

    /// Handles minted so far.
    pub fn minted(&self) -> u64 {
        self.minted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::Draw;
    use suj_stats::SujRng;
    use suj_storage::{CompareOp, Relation, Schema, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    fn workload() -> Arc<UnionWorkload> {
        let j1 = suj_join::JoinSpec::chain(
            "j1",
            vec![
                rel(
                    "r1",
                    &["a", "b"],
                    vec![vec![1, 10], vec![2, 10], vec![3, 20]],
                ),
                rel("s1", &["b", "c"], vec![vec![10, 100], vec![20, 200]]),
            ],
        )
        .unwrap();
        let j2 = suj_join::JoinSpec::chain(
            "j2",
            vec![
                rel("r2", &["a", "b"], vec![vec![1, 10], vec![9, 90]]),
                rel("s2", &["b", "c"], vec![vec![10, 100], vec![90, 900]]),
            ],
        )
        .unwrap();
        Arc::new(UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap())
    }

    #[test]
    fn every_strategy_builds_and_samples() {
        let w = workload();
        let exact = crate::exact::full_join_union(&w).unwrap();
        let strategies = [
            Strategy::Rejection,
            Strategy::Online(OnlineConfig {
                warmup: WalkEstimatorConfig {
                    max_walks_per_join: 100,
                    min_walks_per_join: 32,
                    ..Default::default()
                },
                ..Default::default()
            }),
            Strategy::Bernoulli(DesignationPolicy::Oracle),
            Strategy::Disjoint,
        ];
        for (i, strategy) in strategies.into_iter().enumerate() {
            let builder = SamplerBuilder::for_workload(w.clone()).strategy(strategy);
            let builder = match strategy {
                Strategy::Online(_) => builder,
                _ => builder.estimator(Estimator::Exact),
            };
            let mut sampler = builder.build().unwrap();
            let mut rng = SujRng::seed_from_u64(100 + i as u64);
            let (samples, report) = sampler.sample(40, &mut rng).unwrap();
            assert_eq!(samples.len(), 40, "strategy #{i}");
            assert!(report.accepted >= 40);
            for t in &samples {
                assert!(exact.union_set.contains(t), "strategy #{i}: non-member");
            }
        }
    }

    #[test]
    fn histogram_and_walk_estimators_build() {
        let w = workload();
        for estimator in [
            Estimator::Histogram(HistogramOptions::default()),
            Estimator::Histogram(HistogramOptions {
                exact_size_hints: true,
                ..Default::default()
            }),
            Estimator::Walk(WalkEstimatorConfig {
                max_walks_per_join: 200,
                ..Default::default()
            }),
        ] {
            let mut sampler = SamplerBuilder::for_workload(w.clone())
                .estimator(estimator)
                .cover_policy(CoverPolicy::MembershipOracle)
                .build()
                .unwrap();
            let mut rng = SujRng::seed_from_u64(5);
            let (samples, _) = sampler.sample(25, &mut rng).unwrap();
            assert_eq!(samples.len(), 25);
        }
    }

    #[test]
    fn prepared_bytes_accounts_sampler_footprint() {
        let w = workload();
        // Exact weights build count tables + alias arenas per join, so
        // the frozen footprint must exceed the bare workload's bytes…
        let prepared = SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Exact)
            .strategy(Strategy::Rejection)
            .weights(WeightKind::Exact)
            .freeze()
            .unwrap();
        let workload_bytes = w.memory_bytes() as u64;
        assert!(
            prepared.prepared_bytes() > workload_bytes,
            "prepared_bytes ({}) must include the samplers' count \
             tables and arenas on top of the workload ({workload_bytes})",
            prepared.prepared_bytes()
        );
        // …and exactly by the samplers' own accounting.
        let artifacts = prepared.params().ew_artifacts().expect("EW pipeline");
        assert_eq!(artifacts.len(), w.n_joins());

        // Online builds no per-join samplers: workload bytes only.
        let online = SamplerBuilder::for_workload(w.clone())
            .strategy(Strategy::Online(OnlineConfig::default()))
            .freeze()
            .unwrap();
        assert_eq!(online.prepared_bytes(), workload_bytes);
        assert!(online.params().ew_artifacts().is_none());
    }

    #[test]
    fn online_rejects_incompatible_estimator() {
        let w = workload();
        let err = SamplerBuilder::for_workload(w)
            .estimator(Estimator::Exact)
            .strategy(Strategy::Online(OnlineConfig::default()))
            .build();
        assert!(err.is_err());
    }

    #[test]
    fn inapplicable_knobs_are_rejected_not_ignored() {
        let w = workload();
        // Online honors neither per-join weights nor a cover policy.
        assert!(SamplerBuilder::for_workload(w.clone())
            .strategy(Strategy::Online(OnlineConfig::default()))
            .weights(WeightKind::ExtendedOlken)
            .build()
            .is_err());
        assert!(SamplerBuilder::for_workload(w.clone())
            .strategy(Strategy::Online(OnlineConfig::default()))
            .cover_policy(CoverPolicy::MembershipOracle)
            .build()
            .is_err());
        // Bernoulli and Disjoint have no cover.
        assert!(SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Exact)
            .strategy(Strategy::Bernoulli(DesignationPolicy::Oracle))
            .cover_strategy(CoverStrategy::DescendingSize)
            .build()
            .is_err());
        assert!(SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Exact)
            .strategy(Strategy::Disjoint)
            .max_cover_retries(5)
            .build()
            .is_err());
        // Applicable knobs still work.
        assert!(SamplerBuilder::for_workload(w)
            .estimator(Estimator::Exact)
            .strategy(Strategy::Bernoulli(DesignationPolicy::Oracle))
            .weights(WeightKind::Exact)
            .max_join_tries(500_000)
            .build()
            .is_ok());
    }

    #[test]
    fn predicate_reject_mode_filters_output() {
        let w = workload();
        let p = Predicate::cmp("c", CompareOp::Le, Value::int(200));
        let mut sampler = SamplerBuilder::for_workload(w)
            .estimator(Estimator::Exact)
            .predicate(p.clone(), PredicateMode::Reject)
            .build()
            .unwrap();
        let compiled = p.compile(sampler.workload().canonical_schema()).unwrap();
        let mut rng = SujRng::seed_from_u64(6);
        let (samples, report) = sampler.sample(60, &mut rng).unwrap();
        assert_eq!(samples.len(), 60);
        for t in &samples {
            assert!(compiled.eval(t));
        }
        // (9, 90, 900) fails the predicate and must have been rejected
        // at least once in 60 accepted draws.
        assert!(report.rejected_predicate > 0);
    }

    #[test]
    fn predicate_pushdown_mode_rewrites_workload() {
        let w = workload();
        let p = Predicate::cmp("c", CompareOp::Le, Value::int(200));
        let mut sampler = SamplerBuilder::for_workload(w)
            .estimator(Estimator::Exact)
            .predicate(p.clone(), PredicateMode::PushDown)
            .build()
            .unwrap();
        let compiled = p.compile(sampler.workload().canonical_schema()).unwrap();
        let mut rng = SujRng::seed_from_u64(7);
        let (samples, report) = sampler.sample(60, &mut rng).unwrap();
        for t in &samples {
            assert!(compiled.eval(t));
        }
        // Push-down filters at the base relations: no predicate-phase
        // rejections.
        assert_eq!(report.rejected_predicate, 0);
    }

    #[test]
    fn built_samplers_are_trait_objects() {
        let w = workload();
        let mut samplers: Vec<Box<dyn UnionSampler>> = vec![
            SamplerBuilder::for_workload(w.clone())
                .estimator(Estimator::Exact)
                .build()
                .unwrap(),
            SamplerBuilder::for_workload(w.clone())
                .estimator(Estimator::Exact)
                .strategy(Strategy::Disjoint)
                .build()
                .unwrap(),
            SamplerBuilder::for_workload(w)
                .estimator(Estimator::Exact)
                .strategy(Strategy::Bernoulli(DesignationPolicy::Record))
                .build()
                .unwrap(),
        ];
        let mut rng = SujRng::seed_from_u64(8);
        for sampler in &mut samplers {
            let mut seen = 0;
            while seen < 10 {
                if let Draw::Tuple(..) = sampler.draw(&mut rng).unwrap() {
                    seen += 1;
                }
            }
            assert!(sampler.emitted() >= 10);
        }
    }

    #[test]
    fn for_joins_validates_schemas() {
        let j1 = suj_join::JoinSpec::chain(
            "j1",
            vec![
                rel("r", &["a", "b"], vec![vec![1, 10]]),
                rel("s", &["b", "c"], vec![vec![10, 100]]),
            ],
        )
        .unwrap();
        let j_bad = suj_join::JoinSpec::chain(
            "bad",
            vec![
                rel("x", &["a", "d"], vec![vec![1, 10]]),
                rel("y", &["d", "e"], vec![vec![10, 100]]),
            ],
        )
        .unwrap();
        assert!(SamplerBuilder::for_joins(vec![Arc::new(j1), Arc::new(j_bad)]).is_err());
    }

    /// The builder path must be byte-identical to constructing the
    /// sampler by hand over the same estimator inputs (same seed).
    #[test]
    fn builder_matches_direct_construction() {
        let w = workload();
        let exact = crate::exact::full_join_union(&w).unwrap();
        let config = UnionSamplerConfig::default();
        let samplers = crate::params::build_samplers(&w, config.weights).unwrap();
        let mut direct =
            SetUnionSampler::with_shared(w.clone(), &exact.overlap, config, samplers).unwrap();
        let mut built = SamplerBuilder::for_workload(w)
            .estimator(Estimator::Exact)
            .build()
            .unwrap();
        let mut rng_a = SujRng::seed_from_u64(9);
        let mut rng_b = SujRng::seed_from_u64(9);
        let (a, _) = direct.sample(120, &mut rng_a).unwrap();
        let (b, _) = built.sample(120, &mut rng_b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn workload_accessor_exposes_schema() {
        let w = workload();
        let sampler = SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Exact)
            .build()
            .unwrap();
        assert_eq!(sampler.workload().canonical_schema(), w.canonical_schema());
    }
}
