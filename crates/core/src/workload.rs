//! Union workloads.
//!
//! A [`UnionWorkload`] validates the paper's §2 contract — every join
//! produces "the same output schema … in terms of the number and name of
//! attributes" — and canonicalizes tuple identity across joins: all
//! sampled tuples are re-ordered to the first join's attribute order so
//! that `t.val` comparisons (set-union semantics, Example 3) are
//! positional.
//!
//! The workload also composes each join's output fill plan
//! ([`JoinSpec::output_sources`]) with that reordering, so a row-id
//! draw `(j, rows)` reads any canonical cell straight out of the base
//! columns ([`UnionWorkload::cell`]) — the access path of row-id union
//! batches ([`RowBatch`](crate::rows::RowBatch)).

use crate::error::CoreError;
use std::sync::Arc;
use suj_join::{JoinSpec, MembershipOracle};
use suj_storage::{CellRef, Column, Schema, Tuple, Value};

/// Maximum number of joins in one workload.
///
/// [`UnionWorkload::membership_mask`] packs membership into a `u32`
/// and [`OverlapMap`](crate::overlap::OverlapMap) allocates `2^n`
/// subset entries; beyond this cap masks would silently truncate and
/// the allocation would overflow, so construction rejects larger
/// workloads with [`CoreError::TooManyJoins`].
pub const MAX_JOINS: usize = 29;

/// A set of joins with a common output schema, canonicalized.
#[derive(Debug, Clone)]
pub struct UnionWorkload {
    joins: Vec<Arc<JoinSpec>>,
    canonical: Schema,
    /// Per join: `projections[j][k]` = local output position of canonical
    /// attribute `k`.
    projections: Vec<Vec<usize>>,
    /// Per join: `sources[j][k]` = `(relation, column)` of join `j`
    /// that canonical attribute `k` is read from — `projections[j]`
    /// composed with the join's output fill plan.
    sources: Vec<Vec<(u32, u32)>>,
    oracles: Vec<Arc<MembershipOracle>>,
}

impl UnionWorkload {
    /// Builds a workload; all joins must cover the same attribute set.
    /// The canonical order is the first join's output order.
    pub fn new(joins: Vec<Arc<JoinSpec>>) -> Result<Self, CoreError> {
        if joins.is_empty() {
            return Err(CoreError::NoJoins);
        }
        if joins.len() > MAX_JOINS {
            return Err(CoreError::TooManyJoins {
                got: joins.len(),
                max: MAX_JOINS,
            });
        }
        let canonical = joins[0].output_schema().clone();
        let mut projections = Vec::with_capacity(joins.len());
        let mut oracles = Vec::with_capacity(joins.len());
        for j in &joins {
            let proj = j
                .projection_from(&canonical)
                .map_err(|_| CoreError::SchemaMismatch {
                    join: j.name().to_string(),
                })?;
            projections.push(proj);
            oracles.push(Arc::new(
                MembershipOracle::new(j, &canonical).map_err(CoreError::Join)?,
            ));
        }
        let sources = joins
            .iter()
            .zip(&projections)
            .map(|(j, proj)| {
                let out_src = j.output_sources();
                proj.iter().map(|&p| out_src[p]).collect()
            })
            .collect();
        Ok(Self {
            joins,
            canonical,
            projections,
            sources,
            oracles,
        })
    }

    /// Number of joins.
    pub fn n_joins(&self) -> usize {
        self.joins.len()
    }

    /// All joins.
    pub fn joins(&self) -> &[Arc<JoinSpec>] {
        &self.joins
    }

    /// Join `j`.
    pub fn join(&self, j: usize) -> &Arc<JoinSpec> {
        &self.joins[j]
    }

    /// The canonical output schema (the first join's order).
    pub fn canonical_schema(&self) -> &Schema {
        &self.canonical
    }

    /// Re-orders a tuple produced by join `j` (in that join's local
    /// output order) into canonical order. Join 0's tuples pass through
    /// a copy with identical order.
    pub fn to_canonical(&self, j: usize, local: &Tuple) -> Tuple {
        local.project(&self.projections[j])
    }

    /// [`UnionWorkload::to_canonical`] through a reusable scratch
    /// buffer: repeated canonicalizations (one per accepted draw) pay
    /// only the tuple's own allocation.
    pub fn to_canonical_into(&self, j: usize, local: &Tuple, scratch: &mut Vec<Value>) -> Tuple {
        local.project_into(&self.projections[j], scratch)
    }

    /// The base column canonical position `k` of join `j` is read
    /// from, and the relation whose row id selects the cell.
    #[inline]
    pub fn source_column(&self, j: usize, k: usize) -> (&Column, usize) {
        let (r, c) = self.sources[j][k];
        (
            self.joins[j].relation(r as usize).column(c as usize),
            r as usize,
        )
    }

    /// Canonical cell `k` of the row combination `rows` (indexed by
    /// relation) drawn from join `j`, read in place — no allocation.
    #[inline]
    pub fn cell(&self, j: usize, rows: &[u32], k: usize) -> CellRef<'_> {
        let (column, r) = self.source_column(j, k);
        column.cell(rows[r] as usize)
    }

    /// The canonical tuple of the row combination `rows` drawn from
    /// join `j`: equal to `to_canonical(j, join_sampler.materialize(..))`
    /// but built with one allocation, straight from the base columns.
    pub fn canonical_tuple(&self, j: usize, rows: &[u32]) -> Tuple {
        let mut vals: Vec<Value> = Vec::with_capacity(self.sources[j].len());
        vals.extend((0..self.sources[j].len()).map(|k| {
            let (column, r) = self.source_column(j, k);
            column.value(rows[r] as usize)
        }));
        Tuple::new(vals)
    }

    /// Membership oracle of join `j` over canonical tuples.
    pub fn oracle(&self, j: usize) -> &Arc<MembershipOracle> {
        &self.oracles[j]
    }

    /// All membership oracles.
    pub fn oracles(&self) -> &[Arc<MembershipOracle>] {
        &self.oracles
    }

    /// Whether canonical tuple `t` belongs to join `j`.
    pub fn contains(&self, j: usize, t: &Tuple) -> bool {
        self.oracles[j].contains(t)
    }

    /// Membership bitmask of a canonical tuple over all joins. Sound
    /// for every constructible workload: `new` caps join counts at
    /// [`MAX_JOINS`], so bit `j` never leaves the `u32`.
    pub fn membership_mask(&self, t: &Tuple) -> u32 {
        let mut mask = 0u32;
        for (j, oracle) in self.oracles.iter().enumerate() {
            if oracle.contains(t) {
                mask |= 1 << j;
            }
        }
        mask
    }

    /// Approximate resident bytes of the workload's base relations
    /// (columns, dictionaries, validity bitmaps). Relations shared by
    /// several joins count once (`Arc` identity deduplicates) — the
    /// prepared-footprint number stamped into
    /// [`RunReport`](crate::report::RunReport)s.
    pub fn memory_bytes(&self) -> usize {
        let mut seen = suj_storage::FxHashSet::default();
        self.joins
            .iter()
            .flat_map(|j| j.relations())
            .filter(|r| seen.insert(Arc::as_ptr(r) as usize))
            .map(|r| r.memory_bytes())
            .sum()
    }

    /// Exact sizes of every join (EW dynamic program; cyclic joins fall
    /// back to full execution). Ground-truth path used by tests and the
    /// EW-instantiated configurations of §9.
    pub fn exact_join_sizes(&self) -> Result<Vec<f64>, CoreError> {
        self.joins
            .iter()
            .map(|j| suj_join::weights::exact_join_size(j).map_err(CoreError::Join))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suj_storage::{tuple, Relation, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    /// Two 2-relation joins over (a,b,c) with overlapping data.
    fn two_joins() -> Vec<Arc<JoinSpec>> {
        let j1 = JoinSpec::chain(
            "j1",
            vec![
                rel("r1", &["a", "b"], vec![vec![1, 10], vec![2, 20]]),
                rel("s1", &["b", "c"], vec![vec![10, 100], vec![20, 200]]),
            ],
        )
        .unwrap();
        // Same attribute set, different relation split order.
        let j2 = JoinSpec::chain(
            "j2",
            vec![
                rel("s2", &["c", "b"], vec![vec![100, 10], vec![300, 30]]),
                rel("r2", &["b", "a"], vec![vec![10, 1], vec![30, 3]]),
            ],
        )
        .unwrap();
        vec![Arc::new(j1), Arc::new(j2)]
    }

    #[test]
    fn builds_and_canonicalizes() {
        let w = UnionWorkload::new(two_joins()).unwrap();
        assert_eq!(w.n_joins(), 2);
        // Canonical = j1's order: (a, b, c).
        assert_eq!(
            w.canonical_schema()
                .attrs()
                .iter()
                .map(|a| a.as_ref())
                .collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        // j2's local order is (c, b, a); reprojection must flip it.
        let local = tuple![100i64, 10i64, 1i64];
        let canonical = w.to_canonical(1, &local);
        assert_eq!(canonical, tuple![1i64, 10i64, 100i64]);
    }

    #[test]
    fn membership_and_masks() {
        let w = UnionWorkload::new(two_joins()).unwrap();
        // (1,10,100) is in both joins.
        let both = tuple![1i64, 10i64, 100i64];
        assert!(w.contains(0, &both));
        assert!(w.contains(1, &both));
        assert_eq!(w.membership_mask(&both), 0b11);
        // (2,20,200) only in j1.
        let only1 = tuple![2i64, 20i64, 200i64];
        assert_eq!(w.membership_mask(&only1), 0b01);
        // (3,30,300) only in j2.
        let only2 = tuple![3i64, 30i64, 300i64];
        assert_eq!(w.membership_mask(&only2), 0b10);
        // Absent tuple.
        assert_eq!(w.membership_mask(&tuple![9i64, 9i64, 9i64]), 0);
    }

    #[test]
    fn exact_join_sizes() {
        let w = UnionWorkload::new(two_joins()).unwrap();
        assert_eq!(w.exact_join_sizes().unwrap(), vec![2.0, 2.0]);
    }

    #[test]
    fn rejects_schema_mismatch() {
        let j1 = JoinSpec::natural("a", vec![rel("r", &["x", "y"], vec![])]).unwrap();
        let j2 = JoinSpec::natural("b", vec![rel("s", &["x", "z"], vec![])]).unwrap();
        let err = UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]);
        assert!(matches!(err, Err(CoreError::SchemaMismatch { .. })));
    }

    #[test]
    fn rejects_more_than_max_joins() {
        // One shared relation, MAX_JOINS + 1 single-relation joins:
        // legal schemas, illegal cardinality.
        let r = rel("r", &["a"], vec![vec![1]]);
        let joins: Vec<Arc<JoinSpec>> = (0..=MAX_JOINS)
            .map(|i| Arc::new(JoinSpec::natural(format!("j{i}"), vec![r.clone()]).unwrap()))
            .collect();
        assert!(matches!(
            UnionWorkload::new(joins.clone()),
            Err(CoreError::TooManyJoins {
                got,
                max: MAX_JOINS,
            }) if got == MAX_JOINS + 1
        ));
        // Exactly MAX_JOINS still builds, and masks stay sound.
        let w = UnionWorkload::new(joins[..MAX_JOINS].to_vec()).unwrap();
        assert_eq!(w.membership_mask(&tuple![1i64]), (1u32 << MAX_JOINS) - 1);
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            UnionWorkload::new(vec![]),
            Err(CoreError::NoJoins)
        ));
    }
}
