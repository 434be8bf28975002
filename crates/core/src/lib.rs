//! Sampling over the union of joins — the paper's primary contribution.
//!
//! Given joins `S = {J_1 … J_n}` with a common output schema, this crate
//! returns independent uniform samples from `J_1 ∪ … ∪ J_n` (set union)
//! or `J_1 ⊎ … ⊎ J_n` (disjoint union) without materializing any join:
//!
//! * [`workload`] — a validated union workload: joins canonicalized to a
//!   shared attribute order, with membership oracles.
//! * [`overlap`] — the `OverlapMap` over all join subsets, k-overlap
//!   decomposition `A_j^k` (Theorem 3), union size (Eq. 1), and
//!   inclusion–exclusion cover sizes (§3.1).
//! * [`exact`] — the `FullJoinUnion` ground-truth baseline (§9).
//! * [`hist_estimator`] — the histogram-based overlap estimator
//!   (Theorem 4 over split joins; §5, §8).
//! * [`walk_estimator`] — the random-walk overlap estimator with the
//!   Eq. 3 confidence interval (§6), producing the reuse pools.
//! * [`cover`] — cover construction over join orderings.
//! * [`disjoint`] — sampling the disjoint union (Definition 1).
//! * [`bernoulli`] — the Bernoulli "union trick" sampler (§3).
//! * [`algorithm1`] — non-Bernoulli union sampling with rejection and
//!   revision (Algorithm 1).
//! * [`algorithm2`] — online union sampling with sample reuse and
//!   backtracking (Algorithm 2, §7).
//! * [`predicate_mode`] — selection predicates: push-down and
//!   reject-during-sampling (§8.3).
//! * [`report`] — run reports: acceptance/rejection/revision counters
//!   and phase timing breakdowns (Fig. 5f–h).
//! * [`sampler`] — the unified [`UnionSampler`] trait (a `Send`
//!   object-safe surface) and its incremental [`Draw`] event model.
//! * [`session`] — the fluent [`SamplerBuilder`]: estimator selection,
//!   strategy selection, predicate push-down, all in one validated
//!   place; [`SamplerBuilder::freeze`] yields the `Send + Sync`
//!   [`PreparedSampler`] that mints independent per-thread handles.
//!   It holds the one plan → prepared path: explicit builds,
//!   `Strategy::Auto`, [`Engine::prepare`], [`PreparedQuery::auto`],
//!   and snapshot restore all freeze through it, consuming a single
//!   parameter value (overlap map, exact join sizes, shared per-join
//!   samplers, provenance) that the planner's probe or a snapshot
//!   supplies and estimation completes.
//! * [`serve`] — [`SamplingService`]: a bounded-queue `std::thread`
//!   worker pool serving deterministic sampling requests over a shared
//!   engine.
//! * [`snapshot`] — engine snapshot persistence: save/restore the
//!   catalog and every cached prepared query with the parameters its
//!   freeze consumed, so a cold replica serves without re-estimating.
//! * [`stream`] — [`SampleStream`], lazy iteration over any built
//!   sampler.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use suj_core::prelude::*;
//! use suj_join::JoinSpec;
//! use suj_stats::SujRng;
//! use suj_storage::{Relation, Schema, Tuple, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let rel = |name: &str, attrs: [&str; 2], rows: &[(i64, i64)]| {
//!     let tuples = rows.iter()
//!         .map(|&(x, y)| Tuple::new(vec![Value::int(x), Value::int(y)]))
//!         .collect();
//!     Arc::new(Relation::new(name, Schema::new(attrs).unwrap(), tuples).unwrap())
//! };
//! // Two joins with one shared result tuple.
//! let j1 = JoinSpec::chain("j1", vec![
//!     rel("r1", ["a", "b"], &[(1, 10), (2, 20)]),
//!     rel("s1", ["b", "c"], &[(10, 100), (20, 200)]),
//! ])?;
//! let j2 = JoinSpec::chain("j2", vec![
//!     rel("r2", ["a", "b"], &[(1, 10), (3, 30)]),
//!     rel("s2", ["b", "c"], &[(10, 100), (30, 300)]),
//! ])?;
//!
//! // One validated pipeline: estimator → strategy → sampler.
//! let mut sampler = SamplerBuilder::for_joins(vec![Arc::new(j1), Arc::new(j2)])?
//!     .estimator(Estimator::Exact)
//!     .strategy(Strategy::Rejection)
//!     .build()?;
//! let mut rng = SujRng::seed_from_u64(7);
//!
//! // Batch…
//! let (samples, _report) = sampler.sample(5, &mut rng)?;
//! assert_eq!(samples.len(), 5);
//!
//! // …or lazy streaming with early stop.
//! let trickle: Vec<Tuple> = SampleStream::over(&mut sampler, &mut rng)
//!     .take(2)
//!     .collect::<Result<_, _>>()?;
//! assert_eq!(trickle.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm1;
pub mod algorithm2;
pub mod bernoulli;
pub mod catalog;
pub mod cover;
pub mod disjoint;
pub mod error;
pub mod exact;
pub mod hist_estimator;
pub mod overlap;
mod params;
pub mod planner;
pub mod predicate_mode;
pub mod query;
pub mod report;
pub mod rows;
pub mod sampler;
pub mod serve;
pub mod session;
pub mod snapshot;
pub mod stream;
pub mod walk_estimator;
pub mod workload;

pub use algorithm1::CoverPolicy;
pub use algorithm2::OnlineConfig;
pub use bernoulli::DesignationPolicy;
pub use catalog::{Catalog, Engine, PreparedQuery};
pub use cover::{Cover, CoverStrategy};
pub use error::CoreError;
pub use exact::{full_join_union, ExactUnion};
pub use hist_estimator::{DegreeMode, HistogramEstimator};
pub use overlap::OverlapMap;
pub use planner::{Plan, PlanRule, Planner, PlannerConfig, WorkloadStats};
pub use predicate_mode::{can_push_down, push_down, PredicateMode};
pub use query::{JoinDef, ResolvedQuery, UnionQuery, UnionSemantics};
pub use report::{LatencyHistogram, PlanSummary, RunReport};
pub use rows::{DrawnBatch, RowBatch};
pub use sampler::{Draw, UnionSampler};
pub use serve::{
    BatchResponse, RequestTarget, SampleRequest, SampleResponse, SamplingService, ServiceConfig,
    ServiceStats, SubmitError, Ticket,
};
pub use session::{Estimator, HistogramOptions, PreparedSampler, SamplerBuilder, Strategy};
pub use stream::SampleStream;
pub use walk_estimator::{WalkEstimate, WalkEstimatorConfig};
pub use workload::{UnionWorkload, MAX_JOINS};

/// Commonly used items.
pub mod prelude {
    pub use crate::algorithm1::CoverPolicy;
    pub use crate::algorithm2::OnlineConfig;
    pub use crate::bernoulli::DesignationPolicy;
    pub use crate::catalog::{Catalog, Engine, PreparedQuery};
    pub use crate::cover::{Cover, CoverStrategy};
    pub use crate::error::CoreError;
    pub use crate::exact::{full_join_union, ExactUnion};
    pub use crate::hist_estimator::{DegreeMode, HistogramEstimator};
    pub use crate::overlap::OverlapMap;
    pub use crate::planner::{Plan, PlanRule, Planner, PlannerConfig, WorkloadStats};
    pub use crate::predicate_mode::{can_push_down, push_down, PredicateMode};
    pub use crate::query::{JoinDef, ResolvedQuery, UnionQuery, UnionSemantics};
    pub use crate::report::{LatencyHistogram, PlanSummary, RunReport};
    pub use crate::rows::{DrawnBatch, RowBatch};
    pub use crate::sampler::{Draw, UnionSampler};
    pub use crate::serve::{
        BatchResponse, RequestTarget, SampleRequest, SampleResponse, SamplingService,
        ServiceConfig, ServiceStats, SubmitError, Ticket,
    };
    pub use crate::session::{
        Estimator, HistogramOptions, PreparedSampler, SamplerBuilder, Strategy,
    };
    pub use crate::stream::SampleStream;
    pub use crate::walk_estimator::{WalkEstimate, WalkEstimatorConfig};
    pub use crate::workload::{UnionWorkload, MAX_JOINS};
}
