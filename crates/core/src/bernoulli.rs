//! The Bernoulli "union trick" sampler (§3).
//!
//! Each round iterates all joins, selecting join `J_j` with Bernoulli
//! probability `|J_j|/|U|` (several joins can fire in one round). A
//! selected join contributes one uniform tuple, which is *kept only if
//! `J_j` is the tuple's designated join* — the first join containing it.
//! Every value `u` is then returned with probability
//! `(|J_{f(u)}|/|U|) · (1/|J_{f(u)}|) = 1/|U|`.
//!
//! Two designation mechanisms are provided: the membership oracle
//! computes `f(u)` exactly (first join in workload order containing
//! `u`); the paper's record variant designates the first join `u` was
//! *sampled from*, which converges to the oracle assignment as the
//! record fills in (see Algorithm 1). This sampler exists as the
//! simple baseline the non-Bernoulli cover selection improves upon —
//! "this algorithm has a high rejection ratio for highly overlapping
//! joins".
//!
//! The sampler implements [`UnionSampler`] and is reached through
//! [`SamplerBuilder`](crate::session::SamplerBuilder) with
//! [`Strategy::Bernoulli`](crate::session::Strategy). Designation
//! rejections are plain rejections (no sample is ever withdrawn), so
//! both policies stream without retractions.

use crate::error::CoreError;
use crate::report::RunReport;
use crate::rows::{self, DrawnBatch, RowBatch, RowStrategy};
use crate::sampler::{Draw, UnionSampler};
use crate::workload::UnionWorkload;
use std::sync::Arc;
use std::time::Instant;
use suj_join::membership::first_containing;
use suj_join::{JoinSampler, RowDraw};
use suj_stats::SujRng;
use suj_storage::{hash_cells, FxHashMap, Tuple};

/// How the Bernoulli sampler designates each value's owning join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignationPolicy {
    /// Exact: `f(u)` = first join (workload order) containing `u`,
    /// decided by the membership oracle.
    Oracle,
    /// The paper's §3 description: `u` is owned by the first join it
    /// was *sampled from*; converges to the oracle assignment as the
    /// record fills in.
    Record,
}

/// End of a [`Record`] collision chain.
const NO_ENTRY: u32 = u32::MAX;

/// The Record policy's memory: the first join each canonical value was
/// sampled from, keyed on cells rather than tuples.
///
/// A value is identified by the first draw `(join, rows)` that produced
/// it. Lookups hash the canonical cells ([`hash_cells`]) and confirm
/// every hit by comparing cells against the stored draw, so two values
/// whose hashes collide keep separate entries, and equality is exactly
/// [`Value`](suj_storage::Value) equality: strings by content across
/// different dictionaries, NULL equal to NULL, floats by total order.
struct Record {
    /// Row ids stored per entry: the most relations of any join.
    stride: usize,
    /// Cell hash → newest entry with that hash.
    heads: FxHashMap<u64, u32>,
    /// Per entry: the join it was first sampled from, and the next
    /// (older) entry with the same hash.
    entries: Vec<(u32, u32)>,
    /// Per entry, `stride` row ids of its first draw.
    rows: Vec<u32>,
}

impl Record {
    fn new(stride: usize) -> Self {
        Self {
            stride,
            heads: FxHashMap::default(),
            entries: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Room for `n` more distinct values.
    fn reserve(&mut self, n: usize) {
        self.heads.reserve(n);
        self.entries.reserve(n);
        self.rows.reserve(n * self.stride);
    }

    /// The join owning the value of draw `(j, rows)`, whose canonical
    /// cells hash to `hash` ([`hash_cells`]): the join the value was
    /// first sampled from, recording `j` when the value is new.
    fn designate(&mut self, workload: &UnionWorkload, hash: u64, j: usize, rows: &[u32]) -> usize {
        let stride = self.stride;
        let arity = workload.canonical_schema().arity();
        let head = self.heads.get(&hash).copied().unwrap_or(NO_ENTRY);
        let mut e = head;
        while e != NO_ENTRY {
            let (owner, next) = self.entries[e as usize];
            let seen = &self.rows[e as usize * stride..(e as usize + 1) * stride];
            if (0..arity)
                .all(|k| workload.cell(owner as usize, seen, k) == workload.cell(j, rows, k))
            {
                return owner as usize;
            }
            e = next;
        }
        let Ok(entry) = u32::try_from(self.entries.len()) else {
            return j; // 2^32 distinct values: stop recording, own by the draw
        };
        self.entries.push((j as u32, head));
        self.rows.extend_from_slice(rows);
        self.rows.resize(self.entries.len() * stride, 0);
        self.heads.insert(hash, entry);
        j
    }
}

/// Bernoulli union-trick sampler.
pub(crate) struct BernoulliUnionSampler {
    workload: Arc<UnionWorkload>,
    /// Shared per-join samplers (see `SetUnionSampler::with_shared`).
    samplers: Vec<Arc<dyn JoinSampler>>,
    /// Selection probability per join: `|J_j| / |U|`.
    probabilities: Vec<f64>,
    policy: DesignationPolicy,
    max_join_tries: u64,
    /// First join each value was SAMPLED from (Record policy).
    record: Record,
    /// Round-robin cursor into the joins of the current round.
    cursor: usize,
    fired_this_round: bool,
    stall_rounds: u64,
    report: RunReport,
    emitted: u64,
    /// Reusable row-id draw scratch.
    draw: RowDraw,
    /// Reusable one-draw batch behind `draw`.
    scratch: Option<RowBatch>,
    /// Draws of the current chunk awaiting designation, and their cell
    /// hashes (Record policy).
    pending: RowBatch,
    hashes: Vec<u64>,
}

impl BernoulliUnionSampler {
    /// Builds the sampler over pre-built per-join samplers (shared with
    /// other handles of the same prepared query); record state starts
    /// fresh per handle. `max_join_tries` is the per-draw attempt
    /// budget of the join-sampling subroutine.
    pub(crate) fn with_shared(
        workload: Arc<UnionWorkload>,
        join_sizes: &[f64],
        union_size: f64,
        samplers: Vec<Arc<dyn JoinSampler>>,
        policy: DesignationPolicy,
        max_join_tries: u64,
    ) -> Result<Self, CoreError> {
        let n = workload.n_joins();
        if join_sizes.len() != n {
            return Err(CoreError::Invalid(format!(
                "expected {n} join sizes, got {}",
                join_sizes.len()
            )));
        }
        if union_size <= 0.0 {
            return Err(CoreError::Invalid("union size must be positive".into()));
        }
        if samplers.len() != n {
            return Err(CoreError::Invalid(format!(
                "{} join samplers for {n} joins",
                samplers.len()
            )));
        }
        let probabilities = join_sizes
            .iter()
            .map(|&s| (s / union_size).clamp(0.0, 1.0))
            .collect();
        let pending = RowBatch::new(workload.clone());
        Ok(Self {
            workload: workload.clone(),
            samplers,
            probabilities,
            policy,
            max_join_tries,
            record: Record::new(pending.stride()),
            cursor: 0,
            fired_this_round: false,
            stall_rounds: 0,
            report: RunReport::new(n),
            emitted: 0,
            draw: RowDraw::new(),
            scratch: None,
            pending,
            hashes: Vec::new(),
        })
    }
}

impl BernoulliUnionSampler {
    /// Runs selection rounds until a selected join yields a row
    /// combination (left in `self.draw`) and returns that join: one
    /// draw up to its designation check.
    fn next_candidate(&mut self, rng: &mut SujRng) -> Result<usize, CoreError> {
        let n_joins = self.workload.n_joins();
        loop {
            if self.cursor >= n_joins {
                self.stall_rounds = if self.fired_this_round {
                    0
                } else {
                    self.stall_rounds + 1
                };
                if self.stall_rounds > 1_000_000 {
                    return Err(CoreError::Invalid(
                        "Bernoulli sampler stalled: all selection probabilities ~ 0".into(),
                    ));
                }
                self.cursor = 0;
                self.fired_this_round = false;
            }
            let j = self.cursor;
            self.cursor += 1;
            if !rng.bernoulli(self.probabilities[j]) {
                continue;
            }
            self.fired_this_round = true;
            self.report.join_draws[j] += 1;
            // One uniform tuple of J_j: up to `max_join_tries` join
            // attempts.
            let mut tries = 0u64;
            let mut drawn = false;
            while tries < self.max_join_tries {
                tries += 1;
                if self.samplers[j].sample_rows(rng, &mut self.draw) {
                    drawn = true;
                    break;
                }
            }
            self.report.rejected_join += tries.saturating_sub(1);
            if drawn {
                return Ok(j);
            }
            // Join empty or pathological: next selection.
        }
    }
}

impl RowStrategy for BernoulliUnionSampler {
    fn next_rows(
        &mut self,
        want: usize,
        rng: &mut SujRng,
        out: &mut RowBatch,
    ) -> Result<(), CoreError> {
        // Draw `want` candidates ahead of designation. Each yields at
        // most one acceptance, so a draw-by-draw loop would draw every
        // one of them too; designation never touches the RNG, so
        // deciding them afterwards, in order, changes nothing but the
        // memory access pattern (the cell reads of a whole chunk
        // overlap).
        self.pending.clear();
        let mut stalled = Ok(());
        for _ in 0..want {
            match self.next_candidate(rng) {
                Ok(j) => self.pending.push(j, self.draw.rows()),
                Err(e) => {
                    stalled = Err(e);
                    break;
                }
            }
        }
        let workload = &self.workload;
        let pending = &self.pending;
        if self.policy == DesignationPolicy::Record {
            let arity = workload.canonical_schema().arity();
            self.hashes.clear();
            self.hashes.extend(
                (0..pending.len()).map(|i| hash_cells((0..arity).map(|k| pending.cell(i, k)))),
            );
        }
        for i in 0..pending.len() {
            let (j, rows) = (pending.join(i), pending.rows(i));
            let accept = match self.policy {
                // Designated join: first (workload order) containing
                // the value.
                DesignationPolicy::Oracle => {
                    let t = workload.canonical_tuple(j, rows);
                    first_containing(workload.oracles(), &t) == Some(j)
                }
                // "retained only if it is sampled from the first join
                // where u was observed" (§3).
                DesignationPolicy::Record => {
                    self.record.designate(workload, self.hashes[i], j, rows) == j
                }
            };
            if accept {
                out.push(j, rows);
                self.emitted += 1;
                self.report.accepted += 1;
            } else {
                self.report.rejected_cover += 1;
            }
        }
        stalled
    }

    fn scratch(&mut self) -> &mut Option<RowBatch> {
        &mut self.scratch
    }

    fn reserve(&mut self, draws: usize) {
        if self.policy == DesignationPolicy::Record {
            self.record.reserve(draws);
        }
    }
}

impl UnionSampler for BernoulliUnionSampler {
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
        false // designation rejects new draws, never withdraws old ones
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
    use suj_storage::{CellRef, FxHashMap, Relation, Schema, Value};

    fn bernoulli(
        workload: Arc<UnionWorkload>,
        join_sizes: &[f64],
        union_size: f64,
        policy: DesignationPolicy,
    ) -> Result<BernoulliUnionSampler, CoreError> {
        let samplers = build_samplers(&workload, WeightKind::Exact)?;
        BernoulliUnionSampler::with_shared(
            workload, join_sizes, union_size, samplers, policy, 1_000_000,
        )
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
                    vec![vec![1, 10], vec![2, 10], vec![3, 20], vec![4, 20]],
                ),
                rel("s1", &["b", "c"], vec![vec![10, 100], vec![20, 200]]),
            ],
        )
        .unwrap();
        let j2 = suj_join::JoinSpec::chain(
            "j2",
            vec![
                rel(
                    "r2",
                    &["a", "b"],
                    vec![vec![1, 10], vec![9, 90], vec![8, 90]],
                ),
                rel("s2", &["b", "c"], vec![vec![10, 100], vec![90, 900]]),
            ],
        )
        .unwrap();
        Arc::new(UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap())
    }

    #[test]
    fn uniform_over_set_union() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let sizes: Vec<f64> = (0..2).map(|j| exact.join_size(j) as f64).collect();
        let mut sampler = bernoulli(
            w.clone(),
            &sizes,
            exact.union_size() as f64,
            DesignationPolicy::Oracle,
        )
        .unwrap();
        let mut rng = SujRng::seed_from_u64(55);
        let universe: Vec<Tuple> = exact.union_set.iter().cloned().collect();
        let n = 3_000 * universe.len();
        let (samples, report) = sampler.sample(n, &mut rng).unwrap();
        assert_eq!(samples.len(), n);
        assert!(report.rejected_cover > 0, "overlap must cause rejections");

        let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
        for t in &samples {
            assert!(exact.union_set.contains(t));
            *counts.entry(t.clone()).or_insert(0) += 1;
        }
        let observed: Vec<u64> = universe
            .iter()
            .map(|t| counts.get(t).copied().unwrap_or(0))
            .collect();
        let outcome = suj_stats::chi_square_test(&observed).unwrap();
        assert!(outcome.p_value > 0.001, "p = {}", outcome.p_value);
    }

    #[test]
    fn rejection_rate_grows_with_overlap() {
        // Compare a disjoint workload with a fully-overlapping one.
        let w_overlap = {
            let mk = |n: &str| {
                suj_join::JoinSpec::chain(
                    n,
                    vec![
                        rel(
                            &format!("{n}_r"),
                            &["a", "b"],
                            vec![vec![1, 10], vec![2, 10]],
                        ),
                        rel(&format!("{n}_s"), &["b", "c"], vec![vec![10, 100]]),
                    ],
                )
                .unwrap()
            };
            Arc::new(UnionWorkload::new(vec![Arc::new(mk("x")), Arc::new(mk("y"))]).unwrap())
        };
        let exact = full_join_union(&w_overlap).unwrap();
        let sizes: Vec<f64> = (0..2).map(|j| exact.join_size(j) as f64).collect();
        let mut sampler = bernoulli(
            w_overlap,
            &sizes,
            exact.union_size() as f64,
            DesignationPolicy::Oracle,
        )
        .unwrap();
        let mut rng = SujRng::seed_from_u64(66);
        let (_, report) = sampler.sample(2_000, &mut rng).unwrap();
        // Fully-overlapping joins: half of all selections hit the
        // non-designated join.
        let ratio = report.rejected_cover as f64 / (report.rejected_cover + report.accepted) as f64;
        assert!(ratio > 0.3, "expected heavy rejection, got {ratio}");
    }

    #[test]
    fn record_policy_samples_members_and_rejects_duplicates() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let sizes: Vec<f64> = (0..2).map(|j| exact.join_size(j) as f64).collect();
        let mut sampler = bernoulli(
            w,
            &sizes,
            exact.union_size() as f64,
            DesignationPolicy::Record,
        )
        .unwrap();
        let mut rng = SujRng::seed_from_u64(77);
        let (samples, report) = sampler.sample(5_000, &mut rng).unwrap();
        assert_eq!(samples.len(), 5_000);
        for t in &samples {
            assert!(exact.union_set.contains(t));
        }
        // The shared tuple must trigger record-based rejections from the
        // non-owning join.
        assert!(report.rejected_cover > 0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let w = workload();
        assert!(bernoulli(w.clone(), &[1.0], 2.0, DesignationPolicy::Oracle).is_err());
        assert!(bernoulli(w, &[1.0, 1.0], 0.0, DesignationPolicy::Oracle).is_err());
    }

    #[test]
    fn per_call_reports_are_deltas() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let sizes: Vec<f64> = (0..2).map(|j| exact.join_size(j) as f64).collect();
        let mut sampler = bernoulli(
            w,
            &sizes,
            exact.union_size() as f64,
            DesignationPolicy::Oracle,
        )
        .unwrap();
        let mut rng = SujRng::seed_from_u64(88);
        let (_, first) = sampler.sample(100, &mut rng).unwrap();
        let (_, second) = sampler.sample(100, &mut rng).unwrap();
        assert_eq!(first.accepted, 100);
        assert_eq!(second.accepted, 100);
        assert_eq!(sampler.report().accepted, 200);
    }

    /// The tuple-keyed draw loop the row loop must reproduce: every
    /// draw materialized through the join sampler, canonicalized, and
    /// designated through a record keyed on whole tuples.
    struct TupleReference {
        workload: Arc<UnionWorkload>,
        samplers: Vec<Arc<dyn JoinSampler>>,
        probabilities: Vec<f64>,
        policy: DesignationPolicy,
        record: FxHashMap<Tuple, usize>,
        cursor: usize,
        report: RunReport,
    }

    impl TupleReference {
        fn new(
            workload: Arc<UnionWorkload>,
            sizes: &[f64],
            union_size: f64,
            policy: DesignationPolicy,
        ) -> Self {
            let samplers = build_samplers(&workload, WeightKind::Exact).unwrap();
            let n = workload.n_joins();
            Self {
                probabilities: sizes
                    .iter()
                    .map(|&s| (s / union_size).clamp(0.0, 1.0))
                    .collect(),
                workload,
                samplers,
                policy,
                record: FxHashMap::default(),
                cursor: 0,
                report: RunReport::new(n),
            }
        }

        fn sample(&mut self, n: usize, rng: &mut SujRng) -> Vec<Tuple> {
            let mut out = Vec::new();
            while out.len() < n {
                if self.cursor >= self.workload.n_joins() {
                    self.cursor = 0;
                }
                let j = self.cursor;
                self.cursor += 1;
                if !rng.bernoulli(self.probabilities[j]) {
                    continue;
                }
                self.report.join_draws[j] += 1;
                let (local, tries) = self.samplers[j].sample_until_accepted(rng, 1_000_000);
                self.report.rejected_join += tries.saturating_sub(1);
                let Some(local) = local else { continue };
                let t = self.workload.to_canonical(j, &local);
                let accept = match self.policy {
                    DesignationPolicy::Oracle => {
                        first_containing(self.workload.oracles(), &t) == Some(j)
                    }
                    DesignationPolicy::Record => *self.record.entry(t.clone()).or_insert(j) == j,
                };
                if accept {
                    self.report.accepted += 1;
                    out.push(t);
                } else {
                    self.report.rejected_cover += 1;
                }
            }
            out
        }
    }

    /// Row-loop samples and counters equal the tuple reference's over
    /// several consecutive batches (the record persists across calls).
    fn assert_matches_reference(w: Arc<UnionWorkload>, policy: DesignationPolicy, seed: u64) {
        let exact = full_join_union(&w).unwrap();
        let sizes: Vec<f64> = (0..w.n_joins())
            .map(|j| exact.join_size(j) as f64)
            .collect();
        let union = exact.union_size() as f64;
        let mut sampler = bernoulli(w.clone(), &sizes, union, policy).unwrap();
        let mut reference = TupleReference::new(w, &sizes, union, policy);
        let mut rng = SujRng::seed_from_u64(seed);
        let mut ref_rng = SujRng::seed_from_u64(seed);
        for n in [1, 7, 64, 65, 300] {
            let (samples, _) = sampler.sample(n, &mut rng).unwrap();
            assert_eq!(
                samples,
                reference.sample(n, &mut ref_rng),
                "{policy:?} seed {seed}"
            );
            let (got, want) = (sampler.report(), &reference.report);
            assert_eq!(got.accepted, want.accepted);
            assert_eq!(got.rejected_cover, want.rejected_cover);
            assert_eq!(got.rejected_join, want.rejected_join);
            assert_eq!(got.join_draws, want.join_draws);
        }
        assert_eq!(rng.next_u64(), ref_rng.next_u64(), "RNG streams diverged");
    }

    /// FxHasher's multiplier (`suj_storage::hash`).
    const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn fx_step(h: u64, word: u64) -> u64 {
        (h.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
    }

    /// `(a', b')` whose two-integer cells hash like `(a, b)`: cell
    /// hashing writes `rank 1, a, rank 1, b`, and the last step
    /// `(rotl(h, 5) ^ b) · SEED` is a bijection of `rotl(h, 5) ^ b`,
    /// so choosing `b' = b ^ rotl(h, 5) ^ rotl(h', 5)` for the state
    /// `h'` after `a'` collides.
    fn colliding_pair(a: i64, b: i64, a2: i64) -> i64 {
        let state = |a: i64| fx_step(fx_step(fx_step(0, 1), a as u64), 1);
        (b as u64 ^ state(a).rotate_left(5) ^ state(a2).rotate_left(5)) as i64
    }

    /// Two joins over `(a, b)` holding two distinct values whose cell
    /// hashes collide, each join in a different order.
    fn colliding_workload() -> (Arc<UnionWorkload>, [(i64, i64); 2]) {
        let (a, b, a2) = (1, 2, 3);
        let b2 = colliding_pair(a, b, a2);
        let x = rel("x", &["a", "b"], vec![vec![a, b], vec![a2, b2], vec![5, 6]]);
        let y = rel("y", &["a", "b"], vec![vec![a2, b2], vec![a, b], vec![7, 8]]);
        let j1 = suj_join::JoinSpec::chain("j1", vec![x]).unwrap();
        let j2 = suj_join::JoinSpec::chain("j2", vec![y]).unwrap();
        let w = UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap();
        (Arc::new(w), [(a, b), (a2, b2)])
    }

    #[test]
    fn record_separates_colliding_values() {
        let (w, [(a, b), (a2, b2)]) = colliding_workload();
        let cells = |a: i64, b: i64| hash_cells([CellRef::Int(a), CellRef::Int(b)]);
        assert_ne!((a, b), (a2, b2));
        assert_eq!(cells(a, b), cells(a2, b2), "fixture must collide");
        assert_eq!(
            cells(a, b),
            hash_cells((0..2).map(|k| w.cell(0, &[0], k))),
            "canonical cells hash like the pair"
        );

        let mut record = Record::new(1);
        let hash = |j: usize, row: u32| hash_cells((0..2).map(|k| w.cell(j, &[row], k)));
        // (a, b) first seen in join 0; its collision partner first in
        // join 1: two entries under one hash.
        assert_eq!(record.designate(&w, hash(0, 0), 0, &[0]), 0);
        assert_eq!(record.designate(&w, hash(1, 0), 1, &[0]), 1);
        assert_eq!(record.entries.len(), 2);
        assert_eq!(record.heads.len(), 1);
        // Each value keeps its own owner, whichever join re-draws it.
        assert_eq!(record.designate(&w, hash(1, 1), 1, &[1]), 0);
        assert_eq!(record.designate(&w, hash(0, 1), 0, &[1]), 1);
        assert_eq!(record.designate(&w, hash(0, 0), 0, &[0]), 0);
        assert_eq!(record.entries.len(), 2);

        for seed in [1, 2, 3] {
            assert_matches_reference(w.clone(), DesignationPolicy::Record, seed);
        }
    }

    /// Strings compare by content across dictionaries: "p" has code 0
    /// in one join and code 1 in the other, and NULL equals NULL.
    #[test]
    fn record_compares_strings_by_content_across_pools() {
        let mk = |name: &str, rows: Vec<(i64, Option<&str>)>| {
            let schema = Schema::new(["k", "s"]).unwrap();
            let tuples = rows
                .into_iter()
                .map(|(k, s)| Tuple::new(vec![Value::int(k), s.map_or(Value::Null, Value::str)]))
                .collect();
            Arc::new(Relation::new(name, schema, tuples).unwrap())
        };
        let x = mk("x", vec![(1, Some("p")), (2, Some("q")), (3, None)]);
        let y = mk(
            "y",
            vec![(2, Some("q")), (1, Some("p")), (3, None), (4, Some("p"))],
        );
        let code = |r: &Relation, s: &str| match r.column(1) {
            suj_storage::Column::Str { pool, .. } => pool.code_of(s).unwrap(),
            other => panic!("expected a string column, got {}", other.kind()),
        };
        assert_ne!(code(&x, "p"), code(&y, "p"));
        let j1 = suj_join::JoinSpec::chain("j1", vec![x]).unwrap();
        let j2 = suj_join::JoinSpec::chain("j2", vec![y]).unwrap();
        let w = Arc::new(UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap());

        let mut record = Record::new(1);
        let hash = |j: usize, row: u32| hash_cells((0..2).map(|k| w.cell(j, &[row], k)));
        assert_eq!(record.designate(&w, hash(0, 0), 0, &[0]), 0); // (1, p)
        assert_eq!(record.designate(&w, hash(1, 1), 1, &[1]), 0); // (1, p) again
        assert_eq!(record.designate(&w, hash(1, 2), 1, &[2]), 1); // (3, NULL)
        assert_eq!(record.designate(&w, hash(0, 2), 0, &[2]), 1); // NULL = NULL
        assert_eq!(record.designate(&w, hash(1, 3), 1, &[3]), 1); // (4, p) is new
        assert_eq!(record.entries.len(), 3);

        for seed in [4, 5] {
            assert_matches_reference(w.clone(), DesignationPolicy::Record, seed);
        }
    }

    /// Both policies on the overlapping fixture match the tuple
    /// reference draw for draw.
    #[test]
    fn row_loop_matches_tuple_reference() {
        for policy in [DesignationPolicy::Record, DesignationPolicy::Oracle] {
            for seed in [11, 12] {
                assert_matches_reference(workload(), policy, seed);
            }
        }
    }

    /// A deadline already past aborts before the first draw and
    /// consumes no randomness.
    #[test]
    fn past_deadline_draws_nothing() {
        let w = workload();
        let exact = full_join_union(&w).unwrap();
        let sizes: Vec<f64> = (0..2).map(|j| exact.join_size(j) as f64).collect();
        let mut sampler = bernoulli(
            w,
            &sizes,
            exact.union_size() as f64,
            DesignationPolicy::Record,
        )
        .unwrap();
        let mut rng = SujRng::seed_from_u64(3);
        let before = rng.clone().next_u64();
        let err = sampler.sample_within(10, &mut rng, Some(Instant::now()));
        assert!(matches!(err, Err(CoreError::DeadlineExceeded)));
        assert_eq!(rng.next_u64(), before);
        assert_eq!(sampler.report().join_draws, vec![0, 0]);
    }
}
