//! Sampling the disjoint union (Definition 1).
//!
//! `V = J_1 ⊎ … ⊎ J_n` keeps duplicates, so sampling is a two-level
//! categorical draw: pick join `J_j` with probability `|J_j| / Σ|J_i|`,
//! then a uniform tuple from `J_j`. Every sample lands with probability
//! `1/|V|`; independence is immediate since draws never interact — the
//! paper evaluates no baseline here because "it has no extra delays".
//!
//! The sampler implements [`UnionSampler`], is reached through
//! [`SamplerBuilder`](crate::session::SamplerBuilder) with
//! [`Strategy::Disjoint`](crate::session::Strategy), and never emits
//! [`Draw::Retract`](crate::sampler::Draw), so its
//! [`SampleStream`](crate::stream::SampleStream) is exactly i.i.d.

use crate::error::CoreError;
use crate::report::RunReport;
use crate::rows::{self, DrawnBatch, RowBatch, RowStrategy};
use crate::sampler::{Draw, UnionSampler};
use crate::workload::UnionWorkload;
use std::sync::Arc;
use std::time::Instant;
use suj_join::JoinSampler;
use suj_stats::{Categorical, SujRng};
use suj_storage::Tuple;

/// Sampler over the disjoint union of a workload's joins.
pub(crate) struct DisjointUnionSampler {
    workload: Arc<UnionWorkload>,
    /// Shared per-join samplers (see `SetUnionSampler::with_shared`).
    samplers: Vec<Arc<dyn JoinSampler>>,
    selection: Option<Categorical>,
    report: RunReport,
    emitted: u64,
    /// Reusable row-id draw scratch: rejected attempts allocate
    /// nothing.
    draw: suj_join::RowDraw,
    /// Reusable one-draw batch behind `draw`.
    scratch: Option<RowBatch>,
}

impl DisjointUnionSampler {
    /// Builds the sampler over pre-built per-join samplers (shared with
    /// other handles of the same prepared query). `join_sizes` drive
    /// join selection — exact EW sizes give exactly `1/|V|` per tuple.
    pub(crate) fn with_shared(
        workload: Arc<UnionWorkload>,
        join_sizes: &[f64],
        samplers: Vec<Arc<dyn JoinSampler>>,
    ) -> Result<Self, CoreError> {
        if join_sizes.len() != workload.n_joins() {
            return Err(CoreError::Invalid(format!(
                "expected {} join sizes, got {}",
                workload.n_joins(),
                join_sizes.len()
            )));
        }
        if samplers.len() != workload.n_joins() {
            return Err(CoreError::Invalid(format!(
                "{} join samplers for {} joins",
                samplers.len(),
                workload.n_joins()
            )));
        }
        let selection = Categorical::new(join_sizes);
        let n_joins = workload.n_joins();
        Ok(Self {
            workload,
            samplers,
            selection,
            report: RunReport::new(n_joins),
            emitted: 0,
            draw: suj_join::RowDraw::new(),
            scratch: None,
        })
    }
}

impl RowStrategy for DisjointUnionSampler {
    fn next_rows(
        &mut self,
        want: usize,
        rng: &mut SujRng,
        out: &mut RowBatch,
    ) -> Result<(), CoreError> {
        let Some(selection) = &self.selection else {
            return Err(CoreError::Invalid(
                "cannot sample from an empty disjoint union".into(),
            ));
        };
        let mut accepted = 0;
        while accepted < want {
            let j = selection.draw(rng);
            self.report.join_draws[j] += 1;
            if self.samplers[j].sample_rows(rng, &mut self.draw) {
                out.push(j, self.draw.rows());
                accepted += 1;
            } else {
                self.report.rejected_join += 1;
            }
        }
        self.emitted += want as u64;
        self.report.accepted += want as u64;
        Ok(())
    }

    fn scratch(&mut self) -> &mut Option<RowBatch> {
        &mut self.scratch
    }
}

impl UnionSampler for DisjointUnionSampler {
    fn draw(&mut self, rng: &mut SujRng) -> Result<Draw, CoreError> {
        rows::draw(self, rng)
    }

    fn report(&self) -> &RunReport {
        &self.report
    }

    fn report_mut(&mut self) -> &mut RunReport {
        &mut self.report
    }

    fn emitted(&self) -> u64 {
        self.emitted
    }

    fn workload(&self) -> &Arc<UnionWorkload> {
        &self.workload
    }

    fn may_retract(&self) -> bool {
        false // draws never interact (Definition 1)
    }

    fn sample_within(
        &mut self,
        n: usize,
        rng: &mut SujRng,
        deadline: Option<Instant>,
    ) -> Result<(Vec<Tuple>, RunReport), CoreError> {
        let (batch, report) = rows::sample_batch(self, n, rng, deadline)?;
        Ok((batch.to_tuples(), report))
    }

    fn sample_batch_within(
        &mut self,
        n: usize,
        rng: &mut SujRng,
        deadline: Option<Instant>,
    ) -> Result<(DrawnBatch, RunReport), CoreError> {
        let (batch, report) = rows::sample_batch(self, n, rng, deadline)?;
        Ok((DrawnBatch::Rows(batch), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::full_join_union;
    use crate::params::build_samplers;
    use suj_join::WeightKind;
    use suj_storage::{FxHashMap, Relation, Schema, Value};

    /// The sampler over exact (EW) join sizes.
    fn disjoint(
        workload: Arc<UnionWorkload>,
        weights: WeightKind,
    ) -> Result<DisjointUnionSampler, CoreError> {
        let sizes = workload.exact_join_sizes()?;
        let samplers = build_samplers(&workload, weights)?;
        DisjointUnionSampler::with_shared(workload, &sizes, samplers)
    }

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
    fn disjoint_distribution_counts_duplicates_twice() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let mut sampler = disjoint(w.clone(), WeightKind::Exact).unwrap();
        let v = (exact.join_size(0) + exact.join_size(1)) as f64;

        let mut rng = SujRng::seed_from_u64(7);
        let (samples, report) = sampler.sample(25_000, &mut rng).unwrap();
        assert_eq!(samples.len(), 25_000);
        assert_eq!(report.accepted, 25_000);

        // (1,10,100) lives in BOTH joins → expected frequency 2/|V|;
        // single-join tuples get 1/|V|.
        let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
        for t in &samples {
            *counts.entry(t.clone()).or_insert(0) += 1;
        }
        let shared = suj_storage::tuple![1i64, 10i64, 100i64];
        let single = suj_storage::tuple![3i64, 20i64, 200i64];
        let f_shared = counts[&shared] as f64 / 25_000.0;
        let f_single = counts[&single] as f64 / 25_000.0;
        assert!((f_shared - 2.0 / v).abs() < 0.02, "shared freq {f_shared}");
        assert!((f_single - 1.0 / v).abs() < 0.02, "single freq {f_single}");
    }

    #[test]
    fn all_samples_are_members() {
        let w = workload();
        let mut sampler = disjoint(w.clone(), WeightKind::Exact).unwrap();
        let mut rng = SujRng::seed_from_u64(9);
        let (samples, _) = sampler.sample(500, &mut rng).unwrap();
        for t in samples {
            assert!(w.contains(0, &t) || w.contains(1, &t));
        }
    }

    #[test]
    fn works_with_olken_weights() {
        let w = workload();
        let mut sampler = disjoint(w, WeightKind::ExtendedOlken).unwrap();
        let mut rng = SujRng::seed_from_u64(10);
        let (samples, report) = sampler.sample(200, &mut rng).unwrap();
        assert_eq!(samples.len(), 200);
        // EO must have rejected at least occasionally on this skew.
        assert!(report.attempts() >= 200);
    }

    #[test]
    fn wrong_size_vector_rejected() {
        let w = workload();
        let samplers = build_samplers(&w, WeightKind::Exact).unwrap();
        assert!(DisjointUnionSampler::with_shared(w, &[1.0], samplers).is_err());
    }

    #[test]
    fn draw_never_retracts() {
        let w = workload();
        let mut sampler = disjoint(w, WeightKind::Exact).unwrap();
        let mut rng = SujRng::seed_from_u64(11);
        for _ in 0..500 {
            assert!(matches!(sampler.draw(&mut rng).unwrap(), Draw::Tuple(..)));
        }
        assert_eq!(sampler.emitted(), 500);
    }
}
