//! One source of truth for the parameters a sampling strategy consumes.
//!
//! Every strategy is driven by the same numbers: `|Jᵢ|`, `|∪Jᵢ|`, the
//! overlap map, and the cover sizes derived from it (§3.1, §5–§7).
//! [`Params`] carries them together with the per-join samplers they
//! were measured with and a [`Provenance`] tag naming the estimator
//! behind the map. The planner's probe produces one, [`derive_params`]
//! refines it into what a freeze consumes, and a snapshot persists
//! exactly that value, so a restore has nothing left to estimate.

use crate::error::CoreError;
use crate::exact::full_join_union;
use crate::hist_estimator::{DegreeMode, HistogramEstimator};
use crate::overlap::OverlapMap;
use crate::session::Estimator;
use crate::walk_estimator::walk_warmup;
use crate::workload::UnionWorkload;
use std::fmt;
use std::sync::Arc;
use suj_join::weights::build_sampler;
use suj_join::{EwArtifacts, JoinSampler, WeightKind};
use suj_stats::SujRng;

/// Where an overlap map's figures came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Provenance {
    /// Ground truth: the full join union, or the measured per-join
    /// sizes of a disjoint union.
    Exact,
    /// §5 histogram bounds.
    Histogram,
    /// §6 random-walk estimates (also Algorithm 2's online estimation).
    Walk,
}

impl Provenance {
    /// Stable label (`sizing=` in summaries).
    pub(crate) fn label(self) -> &'static str {
        match self {
            Provenance::Exact => "exact",
            Provenance::Histogram => "histogram",
            Provenance::Walk => "walk",
        }
    }

    fn of(estimator: &Estimator) -> Self {
        match estimator {
            Estimator::Exact => Provenance::Exact,
            Estimator::Histogram(_) => Provenance::Histogram,
            Estimator::Walk(_) => Provenance::Walk,
        }
    }

    /// Whether a map of this provenance is what `estimator` would
    /// recompute. Histogram maps are only made (by the planner's probe)
    /// under the default options; walk maps only come from snapshots,
    /// whose restore keeps the root seed that drove the walks.
    fn reproduces(self, estimator: &Estimator) -> bool {
        match (self, estimator) {
            (Provenance::Exact, Estimator::Exact) | (Provenance::Walk, Estimator::Walk(_)) => true,
            (Provenance::Histogram, Estimator::Histogram(o)) => {
                !o.exact_size_hints && o.zero_weight == 0.0 && o.degree_mode == DegreeMode::Max
            }
            _ => false,
        }
    }
}

/// Every estimated or exact parameter behind a plan or a prepared
/// sampler.
#[derive(Clone)]
pub(crate) struct Params {
    /// The estimator behind `map`.
    pub(crate) provenance: Provenance,
    /// `|O_Δ|` for every join subset: the source of `|Jᵢ|`, `|∪Jᵢ|`,
    /// k-overlaps, and cover sizes. `None` when nothing was estimated
    /// (online sampling, or statistics unavailable).
    pub(crate) map: Option<OverlapMap>,
    /// Exact `|Jᵢ|` from the count tables, when every member sampler is
    /// exact-weight and unsaturated.
    pub(crate) exact_sizes: Option<Vec<u64>>,
    /// Per-join samplers, shared by every handle; empty when none were
    /// built.
    pub(crate) samplers: Vec<Arc<dyn JoinSampler>>,
}

impl fmt::Debug for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Params")
            .field("provenance", &self.provenance)
            .field("map", &self.map)
            .field("exact_sizes", &self.exact_sizes)
            .field("samplers", &self.samplers.len())
            .finish()
    }
}

impl Params {
    /// Assembles params, reading exact sizes off the samplers.
    pub(crate) fn new(
        provenance: Provenance,
        map: Option<OverlapMap>,
        samplers: Vec<Arc<dyn JoinSampler>>,
    ) -> Self {
        let exact_sizes = if samplers.is_empty() {
            None
        } else {
            samplers.iter().map(|s| s.size_info().exact).collect()
        };
        Self {
            provenance,
            map,
            exact_sizes,
            samplers,
        }
    }

    /// The planner's cheap probe: the §5 histogram map (Olken hints,
    /// max degrees) when `histogram`, plus the exact-weight samplers
    /// whose count tables give every `|Jᵢ|` exactly when
    /// `exact_weights`. A part that fails to build stays empty: planning
    /// must always succeed.
    pub(crate) fn probe(workload: &UnionWorkload, histogram: bool, exact_weights: bool) -> Self {
        let map = histogram
            .then(|| {
                HistogramEstimator::with_olken(workload, DegreeMode::Max)
                    .and_then(|est| est.overlap_map())
                    .ok()
            })
            .flatten();
        let samplers = if exact_weights {
            build_samplers(workload, WeightKind::Exact).unwrap_or_default()
        } else {
            Vec::new()
        };
        Self::new(Provenance::Histogram, map, samplers)
    }

    /// Provenance of the join sizes: exact when the count tables give
    /// every `|Jᵢ|`, else the map's; `None` without a map.
    pub(crate) fn sizing(&self) -> Option<Provenance> {
        self.map.as_ref()?;
        Some(match self.exact_sizes {
            Some(_) => Provenance::Exact,
            None => self.provenance,
        })
    }

    /// The overlap map a non-online strategy consumes.
    pub(crate) fn overlap(&self) -> Result<&OverlapMap, CoreError> {
        self.map
            .as_ref()
            .ok_or_else(|| CoreError::Invalid("no overlap parameters were derived".into()))
    }

    /// `|Jᵢ|` as the map states them.
    pub(crate) fn join_sizes(&self) -> Result<Vec<f64>, CoreError> {
        let map = self.overlap()?;
        Ok((0..map.n()).map(|j| map.join_size(j)).collect())
    }

    /// Count tables and alias arenas of every member sampler, when all
    /// of them are exact-weight (what a snapshot persists so a restore
    /// rebuilds neither).
    pub(crate) fn ew_artifacts(&self) -> Option<Vec<EwArtifacts>> {
        if self.samplers.is_empty() {
            return None;
        }
        self.samplers
            .iter()
            .map(|s| s.as_exact().map(|e| e.artifacts()))
            .collect()
    }
}

/// Derives the parameters a strategy consumes on `workload`, paying
/// only for what `reuse` (the planner's probe, or a snapshot) does not
/// already hold: its map when `estimator` would reproduce it, its
/// samplers when they are the exact-weight samplers `weights` asks for.
/// `disjoint` sampling under exact estimation needs no overlaps, only
/// each join's size. Returns the params and the estimation passes paid
/// (0 or 1).
pub(crate) fn derive_params(
    workload: &UnionWorkload,
    estimator: &Estimator,
    weights: WeightKind,
    disjoint: bool,
    seed: u64,
    reuse: Option<Params>,
) -> Result<(Params, u64), CoreError> {
    let (map, samplers) = match reuse {
        Some(p) => (
            p.map.filter(|_| p.provenance.reproduces(estimator)),
            p.samplers,
        ),
        None => (None, Vec::new()),
    };
    let samplers = if weights == WeightKind::Exact && samplers.len() == workload.n_joins() {
        samplers
    } else {
        build_samplers(workload, weights)?
    };
    let (map, passes) = match map {
        Some(map) => (map, 0),
        None if disjoint && matches!(estimator, Estimator::Exact) => {
            (disjoint_map(workload, &samplers)?, 1)
        }
        None => (estimate(workload, estimator, seed)?, 1),
    };
    Ok((
        Params::new(Provenance::of(estimator), Some(map), samplers),
        passes,
    ))
}

/// One sampler per join, built with `weights`.
pub(crate) fn build_samplers(
    workload: &UnionWorkload,
    weights: WeightKind,
) -> Result<Vec<Arc<dyn JoinSampler>>, CoreError> {
    workload
        .joins()
        .iter()
        .map(|j| build_sampler(j.clone(), weights).map(Arc::from))
        .collect::<Result<Vec<_>, _>>()
        .map_err(CoreError::Join)
}

/// Estimates an overlap map with `estimator` (walks seeded by `seed`).
fn estimate(
    workload: &UnionWorkload,
    estimator: &Estimator,
    seed: u64,
) -> Result<OverlapMap, CoreError> {
    match estimator {
        Estimator::Exact => Ok(full_join_union(workload)?.overlap),
        Estimator::Histogram(opts) => {
            let est = if opts.exact_size_hints {
                let sizes = workload.exact_join_sizes()?;
                HistogramEstimator::new(workload, opts.degree_mode, sizes, opts.zero_weight)?
            } else if opts.zero_weight != 0.0 {
                let hints = workload
                    .joins()
                    .iter()
                    .map(|j| suj_join::bounds::olken_bound(j))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(CoreError::Join)?;
                HistogramEstimator::new(workload, opts.degree_mode, hints, opts.zero_weight)?
            } else {
                HistogramEstimator::with_olken(workload, opts.degree_mode)?
            };
            est.overlap_map()
        }
        Estimator::Walk(cfg) => {
            let mut rng = SujRng::seed_from_u64(seed);
            walk_warmup(workload, cfg, &mut rng)?.overlap_map()
        }
    }
}

/// The overlap map of a disjoint union (Definition 1 keeps every
/// join's tuples apart, so all overlaps are empty): exact per-join
/// sizes, read off the exact-weight count tables when every member has
/// them, else measured.
fn disjoint_map(
    workload: &UnionWorkload,
    samplers: &[Arc<dyn JoinSampler>],
) -> Result<OverlapMap, CoreError> {
    let sizes = match samplers
        .iter()
        .map(|s| s.as_exact().map(|e| e.exact_size()))
        .collect::<Option<Vec<f64>>>()
    {
        Some(sizes) => sizes,
        None => workload.exact_join_sizes()?,
    };
    let mut table = vec![0.0; 1 << sizes.len()];
    for (j, size) in sizes.into_iter().enumerate() {
        table[1 << j] = size;
    }
    OverlapMap::new(workload.n_joins(), table)
}
