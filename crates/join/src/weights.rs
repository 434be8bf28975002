//! Random sampling over a single join (the Zhao et al. framework, §3.2).
//!
//! Each tuple of each relation carries a *weight*: an upper bound on the
//! number of join results it can yield. Sampling walks the join tree
//! root→leaves, choosing tuples proportionally to weights, and rejects
//! to flatten any over-estimation — uniformity over the join result is
//! guaranteed for any valid weight function. Two instantiations:
//!
//! * **Exact Weight (EW)** — bottom-up dynamic program computing every
//!   tuple's exact result count. Zero rejections on acyclic joins; the
//!   root's total weight is the exact join size (used as ground truth
//!   throughout §9).
//! * **Extended Olken (EO)** — weights from maximum degrees
//!   (`M_{A_i}(R_{i+1})` products). Cheap to set up, rejects at rate
//!   `1 − |J|/bound`. Following §3.2 we additionally zero the weights of
//!   dangling tuples ("an extra linear search in the hash tables"):
//!   root tuples with no match in some child are excluded up front.
//!
//! Cyclic joins are sampled over a BFS *spanning tree* of the join graph
//! with the dropped cycle-closing equalities enforced by consistency
//! rejection on the chosen rows — the cycle-breaking mechanism of Zhao
//! et al. that §8.2 adopts. Uniformity is preserved because each result
//! tuple of the cyclic join corresponds to exactly one spanning-join row
//! combination.
//!
//! # The allocation-free draw hot path
//!
//! A sampling attempt never touches tuple values: every join edge's
//! probe keys are dictionary encoded at build time (the prepared
//! structure's edge-key table maps each parent row id straight to the
//! child index's key id), so one walk step is two integer array reads
//! (key id → CSR postings) plus the RNG draw. Attempts produce row ids
//! only ([`JoinSampler::sample_rows`] into a caller-held [`RowDraw`]);
//! the output [`Tuple`] is materialized *after* acceptance
//! ([`JoinSampler::materialize`]), so rejected attempts perform zero
//! heap allocations — pinned by the counting-allocator test in
//! `tests/alloc_free.rs`.
//!
//! # The alias cascade
//!
//! The EW sampler compiles its count tables into per-key alias tables
//! at build time (one [`AliasArena`] segment per dictionary key id,
//! congruent with the CSR postings): a draw is then a root alias pick
//! plus exactly one O(1) alias lookup per join edge — O(tree depth)
//! total, zero rejection, no per-candidate scan. The count DP itself
//! runs in u64 with checked arithmetic, so the root total is the
//! *exact* integer join size on acyclic specs (no f64 drift), reported
//! through [`JoinSampler::size_info`] and consumed by the planner's
//! Bernoulli rule.

use crate::error::JoinError;
use crate::exec::execute;
use crate::graph::has_graph_cycle;
use crate::spec::JoinSpec;
use crate::tree::JoinTree;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use suj_stats::{AliasArena, AliasArenaBuilder, SujRng};
use suj_storage::{HashIndex, Tuple, NO_KEY};

/// Weight instantiation for the join-sampling subroutine (§3.2 lists
/// all three: "extended Olken's, exact, and Wander Join").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightKind {
    /// Exact per-tuple result counts (ground-truth weights, no rejection
    /// on acyclic joins).
    Exact,
    /// Extended Olken max-degree bounds (cheap setup, accept/reject).
    ExtendedOlken,
    /// Wander-join walks uniformized against the Olken bound (zero
    /// setup beyond indexes; rejection rate `1 − |J|/bound`).
    WanderJoin,
    /// AGM-bound box splitting over sorted-index range oracles (the
    /// structurally cyclic path — see [`crate::cyclic`]). On acyclic
    /// specs this degrades to exact weights, which dominate there.
    AgmBox,
}

/// Join-size information implied by a sampler's weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeInfo {
    /// An upper bound on the join size (always valid; equal to the
    /// true size when `exact` is set).
    pub bound: f64,
    /// The exact integer join size, when the sampler knows it: EW on
    /// an acyclic spec whose count DP did not saturate.
    pub exact: Option<u64>,
}

static ALIAS_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of Exact-Weight alias-arena builds. Snapshot
/// restore must *deserialize* arenas ([`ExactWeightSampler::from_artifacts`])
/// rather than rebuild them; the restore tests pin that by watching
/// this counter.
pub fn alias_builds() -> u64 {
    ALIAS_BUILDS.load(Ordering::Relaxed)
}

/// Outcome of one sampling attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleOutcome {
    /// A uniform result tuple (in the spec's output schema order).
    Accepted(Tuple),
    /// The attempt was rejected (dead end, failed acceptance test, or a
    /// cycle-consistency violation).
    Rejected,
}

/// Reusable scratch for allocation-free row-id draws: the chosen row id
/// per relation of the join. Callers on a hot path hold one `RowDraw`
/// across many [`JoinSampler::sample_rows`] attempts; after the first
/// attempt resizes it, no further allocation occurs.
#[derive(Debug, Clone, Default)]
pub struct RowDraw {
    pub(crate) rows: Vec<u32>,
}

impl RowDraw {
    /// Creates an empty scratch (sized lazily by the first draw).
    pub fn new() -> Self {
        Self::default()
    }

    /// The chosen row ids, indexed by relation, after a successful
    /// draw.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    #[inline]
    pub(crate) fn reset(&mut self, n: usize) {
        self.rows.clear();
        self.rows.resize(n, 0);
    }
}

thread_local! {
    /// Per-thread scratch backing the provided tuple-level
    /// [`JoinSampler`] methods, so callers that never hold a [`RowDraw`]
    /// still get allocation-free rejected attempts.
    static DRAW_SCRATCH: RefCell<RowDraw> = RefCell::new(RowDraw::new());
}

/// Runs `f` with this thread's shared draw scratch.
pub(crate) fn with_draw_scratch<R>(f: impl FnOnce(&mut RowDraw) -> R) -> R {
    DRAW_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// A uniform sampler over one join's result.
///
/// The required surface is the row-id hot path:
/// [`sample_rows`](JoinSampler::sample_rows) performs one attempt
/// without allocating, and [`materialize`](JoinSampler::materialize)
/// builds the output tuple for an accepted draw. The tuple-level
/// methods ([`sample`](JoinSampler::sample),
/// [`sample_until_accepted`](JoinSampler::sample_until_accepted),
/// [`sample_batch`](JoinSampler::sample_batch)) are provided on top and
/// only materialize on acceptance.
pub trait JoinSampler: Send + Sync {
    /// The join being sampled.
    fn spec(&self) -> &JoinSpec;

    /// One allocation-free sampling attempt over row ids. On `true`,
    /// `draw.rows()` holds a uniform result row combination; on
    /// `false` the attempt was rejected (dead end, failed acceptance
    /// test, or a cycle-consistency violation).
    fn sample_rows(&self, rng: &mut SujRng, draw: &mut RowDraw) -> bool;

    /// Materializes an accepted draw into a tuple in the spec's output
    /// schema order.
    fn materialize(&self, draw: &RowDraw) -> Tuple;

    /// Size information implied by the weights: the exact join size for
    /// EW on acyclic joins, an upper bound otherwise.
    fn join_size_hint(&self) -> f64;

    /// Structured size report: the bound plus the exact integer size
    /// when the sampler knows it. The default reports no exact size.
    fn size_info(&self) -> SizeInfo {
        SizeInfo {
            bound: self.join_size_hint(),
            exact: None,
        }
    }

    /// Heap bytes owned by the sampler's prepared structures (hash
    /// indexes, encoded edge keys, count tables, alias arenas). Base
    /// relation storage is accounted separately by the workload; the
    /// default reports zero for samplers that keep no auxiliary state.
    fn memory_bytes(&self) -> usize {
        0
    }

    /// Downcast hook: the EW sampler returns itself so the snapshot
    /// writer can extract its count-table/alias-arena artifacts.
    fn as_exact(&self) -> Option<&ExactWeightSampler> {
        None
    }

    /// One sampling attempt, materializing the tuple only on
    /// acceptance.
    fn sample(&self, rng: &mut SujRng) -> SampleOutcome {
        with_draw_scratch(|draw| {
            if self.sample_rows(rng, draw) {
                SampleOutcome::Accepted(self.materialize(draw))
            } else {
                SampleOutcome::Rejected
            }
        })
    }

    /// Draws until acceptance (or `max_tries`); returns the tuple and the
    /// number of attempts consumed. Rejected attempts allocate nothing.
    fn sample_until_accepted(&self, rng: &mut SujRng, max_tries: u64) -> (Option<Tuple>, u64) {
        with_draw_scratch(|draw| {
            for attempt in 1..=max_tries {
                if self.sample_rows(rng, draw) {
                    return (Some(self.materialize(draw)), attempt);
                }
            }
            (None, max_tries)
        })
    }

    /// Batched entry point: draws until `n` tuples are accepted (or
    /// `max_tries` total attempts are spent), appending them to `out`.
    /// Returns the attempts consumed. One thread-local scratch access
    /// and one pre-sized output reservation are amortized across the
    /// whole batch of draws on one RNG stream — the cheapest way to
    /// pull many samples from a single join (measured by the
    /// `join-batch` rows of `benches/hot_path.rs`).
    fn sample_batch(
        &self,
        n: usize,
        max_tries: u64,
        rng: &mut SujRng,
        out: &mut Vec<Tuple>,
    ) -> u64 {
        out.reserve(n);
        with_draw_scratch(|draw| {
            let mut attempts = 0u64;
            let mut accepted = 0usize;
            while accepted < n && attempts < max_tries {
                attempts += 1;
                if self.sample_rows(rng, draw) {
                    out.push(self.materialize(draw));
                    accepted += 1;
                }
            }
            attempts
        })
    }
}

/// Shared prepared structure: spanning-tree order, child hash indexes,
/// and the build-time dictionary encoding of every edge's probe keys.
#[derive(Debug)]
pub(crate) struct Prepared {
    pub(crate) spec: Arc<JoinSpec>,
    pub(crate) tree: JoinTree,
    /// Per relation: index on its probe attributes (None for the root).
    pub(crate) indexes: Vec<Option<HashIndex>>,
    /// Per non-root relation `c`: for every row id of `c`'s parent, the
    /// dictionary key id of that row's probe key in `c`'s index
    /// ([`NO_KEY`] when the child holds no matching rows). This is the
    /// encoded-join-key table that turns a walk step into two integer
    /// array reads.
    pub(crate) edge_keys: Vec<Vec<u32>>,
    /// Whether the join graph was already a tree (no dropped equalities
    /// to re-check).
    pub(crate) exact_tree: bool,
    /// Equality constraints dropped by the spanning tree (cyclic specs
    /// only): `(rel_a, k_a, rel_b, k_b)` pairs whose values must agree
    /// in an accepted row combination.
    consistency: Vec<(u32, u32, u32, u32)>,
}

impl Prepared {
    pub(crate) fn new(spec: Arc<JoinSpec>) -> Result<Self, JoinError> {
        let exact_tree = !has_graph_cycle(&spec);
        let tree = JoinTree::spanning(&spec, 0)?;
        let n = spec.n_relations();
        let mut indexes: Vec<Option<HashIndex>> = (0..n).map(|_| None).collect();
        let mut edge_keys: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &v in tree.order() {
            if let Some(p) = tree.parent(v) {
                let attrs = tree.probe_attrs(v).to_vec();
                let index = HashIndex::build(spec.relation(v), &attrs);
                let positions: Vec<usize> = attrs
                    .iter()
                    .map(|a| {
                        spec.relation(p)
                            .schema()
                            .position(a)
                            .expect("probe attr shared with parent")
                    })
                    .collect();
                // Dictionary-encode the edge: one hash probe per parent
                // row now buys hash-free walk steps forever after. The
                // probe reads the parent's columns in place — no row is
                // materialized.
                let parent = spec.relation(p);
                edge_keys[v] = (0..parent.len())
                    .map(|ri| index.key_id_at(parent, &positions, ri).unwrap_or(NO_KEY))
                    .collect();
                indexes[v] = Some(index);
            }
        }

        // Dropped-equality checks: on a cyclic spec every other
        // claimant of an output position must agree with the one the
        // output is read from (`JoinSpec::output_sources`).
        let mut consistency = Vec::new();
        if !exact_tree {
            let out_src = spec.output_sources();
            for &v in tree.order() {
                for (k, &p) in spec.out_positions(v).iter().enumerate() {
                    let (r0, k0) = out_src[p];
                    if (r0, k0) != (v as u32, k as u32) {
                        consistency.push((r0, k0, v as u32, k as u32));
                    }
                }
            }
        }

        Ok(Self {
            spec,
            tree,
            indexes,
            edge_keys,
            exact_tree,
            consistency,
        })
    }

    /// Whether the chosen rows satisfy the equality constraints the
    /// spanning tree dropped (always true for acyclic specs). Compares
    /// column cells in place — no allocation.
    #[inline]
    pub(crate) fn consistent(&self, rows: &[u32]) -> bool {
        self.consistency.iter().all(|&(ra, ka, rb, kb)| {
            let a = self
                .spec
                .relation(ra as usize)
                .column(ka as usize)
                .cell(rows[ra as usize] as usize);
            let b = self
                .spec
                .relation(rb as usize)
                .column(kb as usize)
                .cell(rows[rb as usize] as usize);
            a == b
        })
    }

    /// Heap bytes of the prepared structures: child hash indexes plus
    /// the encoded edge-key tables and output/consistency plans.
    pub(crate) fn memory_bytes(&self) -> usize {
        let indexes: usize = self
            .indexes
            .iter()
            .flatten()
            .map(HashIndex::memory_bytes)
            .sum();
        let edges: usize = self.edge_keys.iter().map(|e| e.len() * 4).sum();
        indexes
            + edges
            + std::mem::size_of_val(self.spec.output_sources())
            + self.consistency.len() * std::mem::size_of::<(u32, u32, u32, u32)>()
    }
}

/// The freeze-time artifacts of an [`ExactWeightSampler`]: the u64
/// count tables and the compiled alias arenas. Extracted via
/// [`ExactWeightSampler::artifacts`] for snapshot persistence and
/// re-installed by [`ExactWeightSampler::from_artifacts`] *without* an
/// alias rebuild (pinned by [`alias_builds`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EwArtifacts {
    /// Per relation: exact result count of each row.
    pub counts: Vec<Vec<u64>>,
    /// Per non-root relation: total count of each dictionary key's
    /// postings (empty for the root).
    pub key_counts: Vec<Vec<u64>>,
    /// Per non-root relation: the per-key alias arena, segment `k`
    /// congruent with postings list `k` (`None` for the root).
    pub arenas: Vec<Option<AliasArena>>,
    /// Single-segment arena over the root relation's counts.
    pub root_arena: AliasArena,
    /// Exact spanning-join size (saturating at `u64::MAX`).
    pub total: u64,
    /// Whether `total` is the exact join size (acyclic spec, no
    /// counter saturation).
    pub exact: bool,
}

/// Exact-weight sampler: zero rejections on acyclic joins, exact size.
///
/// Per-row result counts are computed bottom-up as u64 integers with
/// checked arithmetic (saturating to `u64::MAX` and clearing the exact
/// flag on overflow), then compiled into flat [`AliasArena`]s — one
/// alias table per dictionary key id per join edge plus one over the
/// root — so a draw is an O(tree depth) alias cascade with zero
/// rejection and zero allocation. Counts above 2⁵³ lose precision only
/// in the draw *probabilities* (the arena weights pass through f64);
/// the reported sizes stay integer-exact until u64 saturation.
#[derive(Debug)]
pub struct ExactWeightSampler {
    prepared: Prepared,
    /// Per relation: exact result count of each row (number of
    /// spanning-join results through that row's subtree).
    counts: Vec<Vec<u64>>,
    /// Per non-root relation: total count of each dictionary key's
    /// postings — the per-probe count sum, precomputed per key id.
    key_counts: Vec<Vec<u64>>,
    /// Per non-root relation: per-key alias tables over the postings.
    arenas: Vec<Option<AliasArena>>,
    /// Single-segment arena over the root relation's counts.
    root_arena: AliasArena,
    /// Exact spanning-join size (saturating at `u64::MAX`).
    total: u64,
    /// Whether `total` is the exact join size: acyclic spec and no
    /// counter saturation.
    exact: bool,
}

impl ExactWeightSampler {
    /// Builds the sampler for any join shape.
    pub fn new(spec: Arc<JoinSpec>) -> Result<Self, JoinError> {
        let prepared = Prepared::new(spec)?;
        let (counts, key_counts, total, saturated) = Self::count_tables(&prepared);
        let (root_arena, arenas) = Self::build_arenas(&prepared, &counts);
        let exact = prepared.exact_tree && !saturated;
        Ok(Self {
            prepared,
            counts,
            key_counts,
            arenas,
            root_arena,
            total,
            exact,
        })
    }

    /// Bottom-up count DP in u64: count(row) = Π_child Σ_matching
    /// count(child row). Children are finalized first, so each child's
    /// per-key count sums are ready when the parent consults them —
    /// the per-row probe is a single encoded-key array read. All
    /// arithmetic is checked; overflow saturates to `u64::MAX` and
    /// flags the result inexact.
    fn count_tables(prepared: &Prepared) -> (Vec<Vec<u64>>, Vec<Vec<u64>>, u64, bool) {
        let spec = &prepared.spec;
        let n = spec.n_relations();
        let mut counts: Vec<Vec<u64>> =
            (0..n).map(|i| vec![1u64; spec.relation(i).len()]).collect();
        let mut key_counts: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut saturated = false;

        for v in prepared.tree.bottom_up() {
            let children = prepared.tree.children(v);
            if !children.is_empty() {
                for (ri, slot) in counts[v].iter_mut().enumerate() {
                    let mut w = 1u64;
                    for &c in children {
                        let s = match prepared.edge_keys[c][ri] {
                            NO_KEY => 0,
                            kid => key_counts[c][kid as usize],
                        };
                        w = w.checked_mul(s).unwrap_or_else(|| {
                            saturated = true;
                            u64::MAX
                        });
                        if w == 0 {
                            break;
                        }
                    }
                    *slot = w;
                }
            }
            if let Some(index) = prepared.indexes[v].as_ref() {
                key_counts[v] = (0..index.n_keys() as u32)
                    .map(|kid| {
                        index.postings(kid).iter().fold(0u64, |acc, &rid| {
                            acc.checked_add(counts[v][rid as usize]).unwrap_or_else(|| {
                                saturated = true;
                                u64::MAX
                            })
                        })
                    })
                    .collect();
            }
        }

        let root = prepared.tree.root();
        let total = counts[root].iter().fold(0u64, |acc, &c| {
            acc.checked_add(c).unwrap_or_else(|| {
                saturated = true;
                u64::MAX
            })
        });
        (counts, key_counts, total, saturated)
    }

    /// Compiles the count tables into alias arenas: one segment per
    /// key id per edge (congruent with the CSR postings) plus a
    /// single-segment arena over the root rows. Bumps the
    /// [`alias_builds`] counter — the snapshot-restore path must go
    /// through [`ExactWeightSampler::from_artifacts`] instead.
    fn build_arenas(
        prepared: &Prepared,
        counts: &[Vec<u64>],
    ) -> (AliasArena, Vec<Option<AliasArena>>) {
        let root = prepared.tree.root();
        let mut rb = AliasArenaBuilder::with_capacity(1, counts[root].len());
        rb.push_segment_with(counts[root].len(), |i| counts[root][i] as f64);
        let root_arena = rb.finish();

        let arenas = prepared
            .indexes
            .iter()
            .enumerate()
            .map(|(v, index)| {
                index.as_ref().map(|index| {
                    let n_keys = index.n_keys();
                    let mut b = AliasArenaBuilder::with_capacity(n_keys, counts[v].len());
                    for kid in 0..n_keys as u32 {
                        let posts = index.postings(kid);
                        b.push_segment_with(posts.len(), |i| counts[v][posts[i] as usize] as f64);
                    }
                    b.finish()
                })
            })
            .collect();
        ALIAS_BUILDS.fetch_add(1, Ordering::Relaxed);
        (root_arena, arenas)
    }

    /// Reassembles a sampler from snapshot artifacts without rebuilding
    /// any alias arena. The hash indexes and edge encodings are rebuilt
    /// from the relations (they are derived data); the count tables and
    /// arenas are validated structurally against them — shape mismatch
    /// is a [`JoinError::Invalid`], never a panic.
    pub fn from_artifacts(spec: Arc<JoinSpec>, artifacts: EwArtifacts) -> Result<Self, JoinError> {
        let prepared = Prepared::new(spec)?;
        let EwArtifacts {
            counts,
            key_counts,
            arenas,
            root_arena,
            total,
            exact,
        } = artifacts;
        let invalid = |what: &str| JoinError::Invalid(format!("EW artifacts: {what}"));
        let n = prepared.spec.n_relations();
        if counts.len() != n || key_counts.len() != n || arenas.len() != n {
            return Err(invalid("table count disagrees with relations"));
        }
        for v in 0..n {
            if counts[v].len() != prepared.spec.relation(v).len() {
                return Err(invalid("count column length disagrees with relation"));
            }
            match (prepared.indexes[v].as_ref(), arenas[v].as_ref()) {
                (Some(index), Some(arena)) => {
                    let n_keys = index.n_keys();
                    if key_counts[v].len() != n_keys || arena.segments() != n_keys {
                        return Err(invalid("key table shape disagrees with index"));
                    }
                    for kid in 0..n_keys {
                        if arena.segment_len(kid) != index.postings(kid as u32).len() {
                            return Err(invalid("arena segment incongruent with postings"));
                        }
                    }
                }
                (None, None) => {
                    if !key_counts[v].is_empty() {
                        return Err(invalid("root key table must be empty"));
                    }
                }
                _ => return Err(invalid("arena/index presence mismatch")),
            }
        }
        let root = prepared.tree.root();
        if root_arena.segments() != 1 || root_arena.segment_len(0) != counts[root].len() {
            return Err(invalid("root arena incongruent with root relation"));
        }
        let sum = counts[root]
            .iter()
            .fold(0u64, |acc, &c| acc.saturating_add(c));
        if sum != total {
            return Err(invalid("total disagrees with root counts"));
        }
        if exact && !prepared.exact_tree {
            return Err(invalid("exact flag set on a cyclic spec"));
        }
        Ok(Self {
            prepared,
            counts,
            key_counts,
            arenas,
            root_arena,
            total,
            exact,
        })
    }

    /// Extracts the freeze-time artifacts for snapshot persistence.
    pub fn artifacts(&self) -> EwArtifacts {
        EwArtifacts {
            counts: self.counts.clone(),
            key_counts: self.key_counts.clone(),
            arenas: self.arenas.clone(),
            root_arena: self.root_arena.clone(),
            total: self.total,
            exact: self.exact,
        }
    }

    /// The exact join size for acyclic joins; for cyclic joins this is
    /// the spanning-join size, an upper bound on the true size.
    pub fn exact_size(&self) -> f64 {
        self.total as f64
    }

    /// The exact integer join size, when known (acyclic spec, no u64
    /// saturation in the count DP).
    pub fn exact_size_u64(&self) -> Option<u64> {
        self.exact.then_some(self.total)
    }

    /// Whether [`ExactWeightSampler::exact_size`] is the true join size
    /// (acyclic specs, no saturation) rather than an upper bound.
    pub fn size_is_exact(&self) -> bool {
        self.exact
    }

    /// Per-row result counts of relation `i` (exposed for tests and
    /// the EO comparison benches).
    pub fn counts_of(&self, i: usize) -> &[u64] {
        &self.counts[i]
    }

    /// Draws the root row (shared by the cascade and linear paths).
    /// Returns `None` when the join is empty or the alias residue
    /// landed on a dead row.
    #[inline]
    fn draw_root(&self, rng: &mut SujRng, draw: &mut RowDraw) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let prepared = &self.prepared;
        let root = prepared.tree.root();
        draw.reset(prepared.spec.n_relations());
        let root_row = self.root_arena.draw(0, rng);
        // Alias tables cannot express zero-probability rows exactly in
        // the presence of FP residue; guard against picking a dead row.
        if self.counts[root][root_row as usize] == 0 {
            return None;
        }
        draw.rows[root] = root_row;
        Some(root)
    }

    /// The pre-arena reference draw path: root alias pick plus a
    /// linear scan of each key's postings weighted by the exact
    /// counts. Retained for the `alias_path` bench comparison and the
    /// distribution-equivalence proptests; per-tuple marginals are
    /// identical to [`JoinSampler::sample_rows`] (RNG consumption
    /// differs). Allocation-free like the cascade.
    pub fn sample_rows_linear(&self, rng: &mut SujRng, draw: &mut RowDraw) -> bool {
        if self.draw_root(rng, draw).is_none() {
            return false;
        }
        let prepared = &self.prepared;
        for &v in &prepared.tree.order()[1..] {
            let p = prepared.tree.parent(v).expect("non-root has parent");
            let kid = prepared.edge_keys[v][draw.rows[p] as usize];
            if kid == NO_KEY {
                return false; // impossible when counts are exact; defensive
            }
            let total = self.key_counts[v][kid as usize];
            if total == 0 {
                return false; // likewise defensive
            }
            let index = prepared.indexes[v].as_ref().expect("child index");
            let cands = index.postings(kid);
            // Integer inversion: x ∈ [0, total) lands in exactly one
            // row's count interval — no FP fallback needed.
            let mut x = rng.range_u64(0, total);
            let mut picked = None;
            for &rid in cands {
                let c = self.counts[v][rid as usize];
                if x < c {
                    picked = Some(rid);
                    break;
                }
                x -= c;
            }
            match picked {
                Some(rid) => draw.rows[v] = rid,
                // Unreachable unless the counts saturated; reject.
                None => return false,
            }
        }
        prepared.consistent(&draw.rows)
    }
}

impl JoinSampler for ExactWeightSampler {
    fn spec(&self) -> &JoinSpec {
        &self.prepared.spec
    }

    fn sample_rows(&self, rng: &mut SujRng, draw: &mut RowDraw) -> bool {
        if self.draw_root(rng, draw).is_none() {
            return false;
        }
        let prepared = &self.prepared;

        // Top-down over the tree order (parents precede children): the
        // alias cascade — one encoded-key read plus one O(1) alias
        // lookup per edge, no candidate scan.
        for &v in &prepared.tree.order()[1..] {
            let p = prepared.tree.parent(v).expect("non-root has parent");
            let kid = prepared.edge_keys[v][draw.rows[p] as usize];
            if kid == NO_KEY {
                return false; // impossible when counts are exact; defensive
            }
            if self.key_counts[v][kid as usize] == 0 {
                return false; // likewise defensive
            }
            let local = self.arenas[v].as_ref().expect("child arena").draw(kid, rng);
            let rid = prepared.indexes[v]
                .as_ref()
                .expect("child index")
                .postings(kid)[local as usize];
            // FP residue guard, same as the root pick.
            if self.counts[v][rid as usize] == 0 {
                return false;
            }
            draw.rows[v] = rid;
        }
        prepared.consistent(&draw.rows)
    }

    fn materialize(&self, draw: &RowDraw) -> Tuple {
        self.prepared.spec.materialize(&draw.rows)
    }

    fn join_size_hint(&self) -> f64 {
        self.total as f64
    }

    fn size_info(&self) -> SizeInfo {
        SizeInfo {
            bound: self.total as f64,
            exact: self.exact.then_some(self.total),
        }
    }

    fn memory_bytes(&self) -> usize {
        let counts: usize = self.counts.iter().map(|c| c.len() * 8).sum();
        let key_counts: usize = self.key_counts.iter().map(|c| c.len() * 8).sum();
        let arenas: usize = self
            .arenas
            .iter()
            .flatten()
            .map(AliasArena::memory_bytes)
            .sum::<usize>()
            + self.root_arena.memory_bytes();
        self.prepared.memory_bytes() + counts + key_counts + arenas
    }

    fn as_exact(&self) -> Option<&ExactWeightSampler> {
        Some(self)
    }
}

/// Extended-Olken sampler: max-degree weights plus dangling elimination.
#[derive(Debug)]
pub struct OlkenSampler {
    prepared: Prepared,
    /// Per relation: `M(probe attrs)` (1 for the root).
    max_degrees: Vec<f64>,
    /// Root rows that survive the one-level dangling check.
    live_roots: Vec<u32>,
    /// `|live_roots| · Π M` — the sampler's size upper bound.
    bound: f64,
}

impl OlkenSampler {
    /// Builds the sampler for any join shape.
    pub fn new(spec: Arc<JoinSpec>) -> Result<Self, JoinError> {
        let prepared = Prepared::new(spec)?;
        let spec = &prepared.spec;
        let n = spec.n_relations();
        let mut max_degrees = vec![1.0f64; n];
        for (v, index) in prepared.indexes.iter().enumerate() {
            if let Some(idx) = index.as_ref() {
                max_degrees[v] = idx.max_degree() as f64;
            }
        }

        // One-level dangling elimination at the root (§3.2's linear
        // search): root rows with an empty candidate list in any child
        // can never yield a result. A row is live iff every child edge
        // encoded its key — one integer read per (row, child).
        let root = prepared.tree.root();
        let root_children: Vec<usize> = prepared.tree.children(root).to_vec();
        let live_roots: Vec<u32> = (0..spec.relation(root).len())
            .filter(|&ri| {
                root_children
                    .iter()
                    .all(|&c| prepared.edge_keys[c][ri] != NO_KEY)
            })
            .map(|ri| ri as u32)
            .collect();

        let degree_product: f64 = (0..n)
            .filter(|&v| v != root)
            .map(|v| max_degrees[v])
            .product();
        let bound = live_roots.len() as f64 * degree_product;

        Ok(Self {
            prepared,
            max_degrees,
            live_roots,
            bound,
        })
    }

    /// The sampler's join-size upper bound (`|live roots| · Π M`).
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// Number of root rows surviving dangling elimination.
    pub fn live_root_count(&self) -> usize {
        self.live_roots.len()
    }
}

impl JoinSampler for OlkenSampler {
    fn spec(&self) -> &JoinSpec {
        &self.prepared.spec
    }

    fn sample_rows(&self, rng: &mut SujRng, draw: &mut RowDraw) -> bool {
        if self.live_roots.is_empty() || self.bound <= 0.0 {
            return false;
        }
        let prepared = &self.prepared;
        let root = prepared.tree.root();
        draw.reset(prepared.spec.n_relations());
        draw.rows[root] = self.live_roots[rng.index(self.live_roots.len())];

        for &v in &prepared.tree.order()[1..] {
            let p = prepared.tree.parent(v).expect("non-root has parent");
            let kid = prepared.edge_keys[v][draw.rows[p] as usize];
            if kid == NO_KEY {
                return false; // dead end
            }
            let index = prepared.indexes[v].as_ref().expect("child index");
            let degree = index.degree_of(kid);
            // Uniform candidate + accept with d/M keeps the overall
            // path probability constant: (1/d)·(d/M) = 1/M.
            if !rng.bernoulli(degree as f64 / self.max_degrees[v]) {
                return false;
            }
            draw.rows[v] = index.postings(kid)[rng.index(degree)];
        }
        prepared.consistent(&draw.rows)
    }

    fn materialize(&self, draw: &RowDraw) -> Tuple {
        self.prepared.spec.materialize(&draw.rows)
    }

    fn join_size_hint(&self) -> f64 {
        self.bound
    }

    fn memory_bytes(&self) -> usize {
        self.prepared.memory_bytes() + self.max_degrees.len() * 8 + self.live_roots.len() * 4
    }
}

/// Builds a uniform sampler for any join shape with the requested weight
/// instantiation.
pub fn build_sampler(
    spec: Arc<JoinSpec>,
    kind: WeightKind,
) -> Result<Box<dyn JoinSampler>, JoinError> {
    Ok(match kind {
        WeightKind::Exact => Box::new(ExactWeightSampler::new(spec)?),
        WeightKind::ExtendedOlken => Box::new(OlkenSampler::new(spec)?),
        WeightKind::WanderJoin => Box::new(crate::wander::WanderSampler::new(spec)?),
        // Per-join routing: in a union whose plan asks for AGM boxes,
        // any *acyclic* member join still gets the (strictly better)
        // tree walk; only the genuinely cyclic members pay for boxes.
        WeightKind::AgmBox => {
            if has_graph_cycle(&spec) {
                Box::new(crate::cyclic::CyclicJoinSampler::new(spec)?)
            } else {
                Box::new(ExactWeightSampler::new(spec)?)
            }
        }
    })
}

/// The exact size of any join: EW total weight for acyclic specs; full
/// execution for cyclic specs (ground-truth path only).
pub fn exact_join_size(spec: &JoinSpec) -> Result<f64, JoinError> {
    if has_graph_cycle(spec) {
        Ok(execute(spec).len() as f64)
    } else {
        Ok(ExactWeightSampler::new(Arc::new(spec.clone()))?.exact_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use suj_storage::{FxHashMap, Relation, Schema, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Arc<Relation> {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Arc::new(Relation::new(name, schema, tuples).unwrap())
    }

    fn skewed_chain() -> Arc<JoinSpec> {
        // Skewed degrees so EO rejects and EW must weight properly.
        let r = rel(
            "r",
            &["a", "b"],
            vec![vec![1, 10], vec![2, 10], vec![3, 20], vec![4, 30]],
        );
        let s = rel(
            "s",
            &["b", "c"],
            vec![
                vec![10, 100],
                vec![10, 101],
                vec![10, 102],
                vec![20, 200],
                vec![40, 400],
            ],
        );
        let t = rel(
            "t",
            &["c", "d"],
            vec![vec![100, 1], vec![100, 2], vec![101, 3], vec![200, 4]],
        );
        Arc::new(JoinSpec::chain("skew", vec![r, s, t]).unwrap())
    }

    #[test]
    fn ew_total_matches_execution() {
        let spec = skewed_chain();
        let sampler = ExactWeightSampler::new(spec.clone()).unwrap();
        let actual = execute(&spec).len() as f64;
        assert_eq!(sampler.exact_size(), actual);
        assert_eq!(sampler.join_size_hint(), actual);
        assert!(sampler.size_is_exact());
    }

    #[test]
    fn ew_never_rejects_on_nonempty_acyclic_join() {
        let spec = skewed_chain();
        let sampler = ExactWeightSampler::new(spec).unwrap();
        let mut rng = SujRng::seed_from_u64(1);
        for _ in 0..200 {
            assert!(matches!(
                sampler.sample(&mut rng),
                SampleOutcome::Accepted(_)
            ));
        }
    }

    fn empirical_counts(
        sampler: &dyn JoinSampler,
        draws: usize,
        seed: u64,
    ) -> FxHashMap<Tuple, u64> {
        let mut rng = SujRng::seed_from_u64(seed);
        let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
        let mut accepted = 0usize;
        while accepted < draws {
            if let SampleOutcome::Accepted(t) = sampler.sample(&mut rng) {
                *counts.entry(t).or_insert(0) += 1;
                accepted += 1;
            }
        }
        counts
    }

    fn assert_uniform(sampler: &dyn JoinSampler, seed: u64) {
        let result = execute(sampler.spec());
        let universe = result.distinct_set();
        let k = universe.len();
        assert!(k >= 2, "need a multi-tuple join for the test");
        let draws = 2_000 * k;
        let counts = empirical_counts(sampler, draws, seed);
        // Every sampled tuple must be a real result tuple.
        for t in counts.keys() {
            assert!(universe.contains(t), "sampled non-member {t}");
        }
        let observed: Vec<u64> = result
            .tuples()
            .iter()
            .map(|t| counts.get(t).copied().unwrap_or(0))
            .collect();
        let outcome = suj_stats::chi_square_test(&observed).unwrap();
        assert!(
            outcome.p_value > 0.001,
            "sampler not uniform: chi2={} p={}",
            outcome.statistic,
            outcome.p_value
        );
    }

    #[test]
    fn ew_samples_uniformly() {
        let sampler = ExactWeightSampler::new(skewed_chain()).unwrap();
        assert_uniform(&sampler, 42);
    }

    #[test]
    fn eo_samples_uniformly() {
        let sampler = OlkenSampler::new(skewed_chain()).unwrap();
        assert_uniform(&sampler, 43);
    }

    #[test]
    fn eo_bound_dominates_exact_size() {
        let spec = skewed_chain();
        let eo = OlkenSampler::new(spec.clone()).unwrap();
        let ew = ExactWeightSampler::new(spec).unwrap();
        assert!(eo.bound() >= ew.exact_size());
    }

    #[test]
    fn eo_dangling_elimination_shrinks_bound() {
        // Root row with b=30 has no match in s: live roots = 3 of 4.
        let spec = skewed_chain();
        let eo = OlkenSampler::new(spec).unwrap();
        assert_eq!(eo.live_root_count(), 3);
    }

    #[test]
    fn star_join_sampling_uniform() {
        let spec = Arc::new(
            JoinSpec::natural(
                "star",
                vec![
                    rel("c", &["a", "b"], vec![vec![1, 2], vec![3, 2], vec![1, 4]]),
                    rel(
                        "l1",
                        &["a", "x"],
                        vec![vec![1, 10], vec![1, 11], vec![3, 12]],
                    ),
                    rel(
                        "l2",
                        &["b", "y"],
                        vec![vec![2, 20], vec![2, 21], vec![4, 22]],
                    ),
                ],
            )
            .unwrap(),
        );
        let ew = ExactWeightSampler::new(spec.clone()).unwrap();
        assert_uniform(&ew, 7);
        let eo = OlkenSampler::new(spec).unwrap();
        assert_uniform(&eo, 8);
    }

    fn triangle_spec() -> Arc<JoinSpec> {
        Arc::new(
            JoinSpec::natural(
                "tri",
                vec![
                    rel(
                        "x",
                        &["a", "b"],
                        vec![vec![1, 2], vec![1, 9], vec![5, 2], vec![5, 6]],
                    ),
                    rel(
                        "y",
                        &["b", "c"],
                        vec![vec![2, 3], vec![2, 4], vec![9, 4], vec![6, 3]],
                    ),
                    rel(
                        "z",
                        &["c", "a"],
                        vec![vec![3, 1], vec![4, 5], vec![4, 1], vec![3, 5]],
                    ),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn cyclic_join_sampling_uniform() {
        let spec = triangle_spec();
        assert!(execute(&spec).len() >= 2);
        let ew = build_sampler(spec.clone(), WeightKind::Exact).unwrap();
        assert_uniform(ew.as_ref(), 11);
        let eo = build_sampler(spec.clone(), WeightKind::ExtendedOlken).unwrap();
        assert_uniform(eo.as_ref(), 12);
        let wj = build_sampler(spec.clone(), WeightKind::WanderJoin).unwrap();
        assert_uniform(wj.as_ref(), 13);
    }

    #[test]
    fn wander_kind_samples_uniformly_on_chains() {
        let sampler = build_sampler(skewed_chain(), WeightKind::WanderJoin).unwrap();
        assert_uniform(sampler.as_ref(), 14);
    }

    #[test]
    fn cyclic_sizes_and_hints() {
        let spec = triangle_spec();
        let actual = execute(&spec).len() as f64;
        assert_eq!(exact_join_size(&spec).unwrap(), actual);
        // The EW hint on a cyclic spec is the spanning-join size — an
        // upper bound, flagged as inexact.
        let ew = ExactWeightSampler::new(spec).unwrap();
        assert!(!ew.size_is_exact());
        assert!(ew.join_size_hint() >= actual);
    }

    #[test]
    fn cyclic_samples_satisfy_all_edges() {
        let spec = triangle_spec();
        let universe = execute(&spec).distinct_set();
        let sampler = build_sampler(spec, WeightKind::Exact).unwrap();
        let mut rng = SujRng::seed_from_u64(19);
        let mut accepted = 0;
        for _ in 0..2000 {
            if let SampleOutcome::Accepted(t) = sampler.sample(&mut rng) {
                assert!(universe.contains(&t), "inconsistent cyclic sample {t}");
                accepted += 1;
            }
        }
        assert!(accepted > 0, "sampler never accepted");
    }

    #[test]
    fn sample_batch_matches_sequential_draws() {
        // One batched call is seed-for-seed identical to a loop of
        // sample_until_accepted — the batch only amortizes scratch.
        let sampler = OlkenSampler::new(skewed_chain()).unwrap();
        let mut rng_a = SujRng::seed_from_u64(9);
        let mut rng_b = SujRng::seed_from_u64(9);
        let mut batch = Vec::new();
        let attempts = sampler.sample_batch(50, 1_000_000, &mut rng_a, &mut batch);
        let mut sequential = Vec::new();
        let mut seq_attempts = 0u64;
        while sequential.len() < 50 {
            let (t, tries) = sampler.sample_until_accepted(&mut rng_b, 1_000_000);
            seq_attempts += tries;
            sequential.push(t.expect("nonempty join accepts"));
        }
        assert_eq!(batch, sequential);
        assert_eq!(attempts, seq_attempts);
    }

    #[test]
    fn sample_batch_respects_attempt_budget() {
        let spec = Arc::new(
            JoinSpec::chain(
                "empty",
                vec![
                    rel("r", &["a", "b"], vec![vec![1, 10]]),
                    rel("s", &["b", "c"], vec![vec![99, 1]]),
                ],
            )
            .unwrap(),
        );
        let sampler = OlkenSampler::new(spec).unwrap();
        let mut rng = SujRng::seed_from_u64(1);
        let mut out = Vec::new();
        let attempts = sampler.sample_batch(10, 25, &mut rng, &mut out);
        assert!(out.is_empty());
        assert_eq!(attempts, 25);
    }

    #[test]
    fn row_draws_materialize_to_result_tuples() {
        // sample_rows + materialize is the same accept set as sample().
        let spec = skewed_chain();
        let universe = execute(&spec).distinct_set();
        let sampler = ExactWeightSampler::new(spec).unwrap();
        let mut rng = SujRng::seed_from_u64(12);
        let mut draw = RowDraw::new();
        for _ in 0..200 {
            assert!(sampler.sample_rows(&mut rng, &mut draw));
            let t = sampler.materialize(&draw);
            assert!(universe.contains(&t), "materialized non-member {t}");
            assert_eq!(draw.rows().len(), 3);
        }
    }

    #[test]
    fn empty_join_always_rejects() {
        let spec = Arc::new(
            JoinSpec::chain(
                "empty",
                vec![
                    rel("r", &["a", "b"], vec![vec![1, 10]]),
                    rel("s", &["b", "c"], vec![vec![99, 1]]),
                ],
            )
            .unwrap(),
        );
        let ew = ExactWeightSampler::new(spec.clone()).unwrap();
        let eo = OlkenSampler::new(spec).unwrap();
        let mut rng = SujRng::seed_from_u64(3);
        for _ in 0..50 {
            assert_eq!(ew.sample(&mut rng), SampleOutcome::Rejected);
            assert_eq!(eo.sample(&mut rng), SampleOutcome::Rejected);
        }
        let (t, tries) = ew.sample_until_accepted(&mut rng, 10);
        assert!(t.is_none());
        assert_eq!(tries, 10);
    }

    #[test]
    fn single_relation_sampling() {
        let spec = Arc::new(
            JoinSpec::natural(
                "one",
                vec![rel("r", &["a"], vec![vec![1], vec![2], vec![3]])],
            )
            .unwrap(),
        );
        let sampler = ExactWeightSampler::new(spec).unwrap();
        assert_eq!(sampler.exact_size(), 3.0);
        assert_uniform(&sampler, 5);
    }

    #[test]
    fn weights_expose_per_row_counts() {
        let spec = skewed_chain();
        let sampler = ExactWeightSampler::new(spec.clone()).unwrap();
        // Row (1,10) of r joins s-rows {100,101,102}; t matches:
        // 100→2, 101→1, 102→0 → count 3.
        assert_eq!(sampler.counts_of(0)[0], 3);
        // Row (4,30) is dangling → 0.
        assert_eq!(sampler.counts_of(0)[3], 0);
    }

    /// Chi²-checks the linear-scan reference path the same way
    /// `assert_uniform` checks the cascade.
    fn assert_uniform_linear(sampler: &ExactWeightSampler, seed: u64) {
        let result = execute(sampler.spec());
        let universe = result.distinct_set();
        let k = universe.len();
        assert!(k >= 2, "need a multi-tuple join for the test");
        let mut rng = SujRng::seed_from_u64(seed);
        let mut draw = RowDraw::new();
        let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
        let mut accepted = 0usize;
        while accepted < 2_000 * k {
            if sampler.sample_rows_linear(&mut rng, &mut draw) {
                let t = sampler.materialize(&draw);
                assert!(universe.contains(&t), "sampled non-member {t}");
                *counts.entry(t).or_insert(0) += 1;
                accepted += 1;
            }
        }
        let observed: Vec<u64> = result
            .tuples()
            .iter()
            .map(|t| counts.get(t).copied().unwrap_or(0))
            .collect();
        let outcome = suj_stats::chi_square_test(&observed).unwrap();
        assert!(
            outcome.p_value > 0.001,
            "linear path not uniform: chi2={} p={}",
            outcome.statistic,
            outcome.p_value
        );
    }

    #[test]
    fn linear_scan_path_samples_uniformly() {
        let sampler = ExactWeightSampler::new(skewed_chain()).unwrap();
        assert_uniform_linear(&sampler, 51);
    }

    /// A chain where most rows are dangling: only one s-row and one
    /// t-row survive, so the cascade must route around heavy dead mass.
    fn dangling_heavy_chain() -> Arc<JoinSpec> {
        let r = rel(
            "r",
            &["a", "b"],
            (0..12).map(|i| vec![i, 10 + (i % 4)]).collect(),
        );
        let s = rel(
            "s",
            &["b", "c"],
            vec![
                vec![10, 100],
                vec![10, 777], // dangling in t
                vec![11, 777],
                vec![12, 777],
                vec![13, 100],
            ],
        );
        let t = rel("t", &["c", "d"], vec![vec![100, 1], vec![100, 2]]);
        Arc::new(JoinSpec::chain("dangling", vec![r, s, t]).unwrap())
    }

    #[test]
    fn dangling_heavy_cascade_samples_uniformly() {
        let spec = dangling_heavy_chain();
        let sampler = ExactWeightSampler::new(spec.clone()).unwrap();
        assert_eq!(sampler.exact_size_u64(), Some(execute(&spec).len() as u64));
        assert_uniform(&sampler, 52);
        assert_uniform_linear(&sampler, 53);
    }

    #[test]
    fn cascade_and_linear_marginals_agree() {
        let sampler = ExactWeightSampler::new(skewed_chain()).unwrap();
        let result = execute(sampler.spec());
        let draws = 3_000 * result.tuples().len();
        let freq = |linear: bool, seed: u64| -> FxHashMap<Tuple, f64> {
            let mut rng = SujRng::seed_from_u64(seed);
            let mut draw = RowDraw::new();
            let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
            for _ in 0..draws {
                let ok = if linear {
                    sampler.sample_rows_linear(&mut rng, &mut draw)
                } else {
                    sampler.sample_rows(&mut rng, &mut draw)
                };
                if ok {
                    *counts.entry(sampler.materialize(&draw)).or_insert(0) += 1;
                }
            }
            counts
                .into_iter()
                .map(|(t, c)| (t, c as f64 / draws as f64))
                .collect()
        };
        let fa = freq(false, 61);
        let fl = freq(true, 62);
        for (t, &p) in &fa {
            let q = fl.get(t).copied().unwrap_or(0.0);
            assert!((p - q).abs() < 0.02, "{t}: cascade {p} vs linear {q}");
        }
    }

    #[test]
    fn exact_size_matches_brute_force_on_randomized_joins() {
        // Randomized chain/star/natural joins: the u64 count DP must
        // agree with materialized execution *exactly*, not up to ULPs.
        let mut rng = SujRng::seed_from_u64(0xE0E0);
        for trial in 0..12 {
            let n_rel = 2 + rng.index(3); // 2..=4 relations
            let shape = trial % 3;
            let mut relations = Vec::new();
            if shape == 1 {
                // Star: hub(h1..h_{n-1}), leaf i joins on its own h_i.
                let hub_attrs: Vec<String> = (1..n_rel).map(|i| format!("h{i}")).collect();
                let n_rows = 3 + rng.index(15);
                let hub_tuples: Vec<Tuple> = (0..n_rows)
                    .map(|_| {
                        Tuple::new(
                            (1..n_rel)
                                .map(|_| Value::int(rng.range_i64(0, 6)))
                                .collect(),
                        )
                    })
                    .collect();
                let schema = Schema::new(hub_attrs.iter().map(String::as_str)).unwrap();
                relations.push(Arc::new(
                    Relation::new(format!("hub{trial}"), schema, hub_tuples).unwrap(),
                ));
                for i in 1..n_rel {
                    let n_rows = 3 + rng.index(15);
                    let schema =
                        Schema::new([format!("h{i}").as_str(), format!("x{i}").as_str()]).unwrap();
                    let tuples = (0..n_rows)
                        .map(|_| {
                            Tuple::new(vec![
                                Value::int(rng.range_i64(0, 6)),
                                Value::int(rng.range_i64(0, 6)),
                            ])
                        })
                        .collect();
                    relations.push(Arc::new(
                        Relation::new(format!("leaf{trial}_{i}"), schema, tuples).unwrap(),
                    ));
                }
            } else {
                for i in 0..n_rel {
                    let n_rows = 3 + rng.index(15);
                    let (a, b) = if shape == 0 {
                        // Chain: r_i(c_i, c_{i+1}).
                        (format!("c{i}"), format!("c{}", i + 1))
                    } else {
                        // Natural: overlapping pairs, some repeated attrs.
                        (format!("c{}", i / 2), format!("c{}", i / 2 + 1))
                    };
                    let schema = Schema::new([a.as_str(), b.as_str()]).unwrap();
                    let tuples = (0..n_rows)
                        .map(|_| {
                            Tuple::new(vec![
                                Value::int(rng.range_i64(0, 6)),
                                Value::int(rng.range_i64(0, 6)),
                            ])
                        })
                        .collect();
                    relations.push(Arc::new(
                        Relation::new(format!("r{trial}_{i}"), schema, tuples).unwrap(),
                    ));
                }
            }
            let spec = Arc::new(JoinSpec::natural(format!("rand{trial}"), relations).unwrap());
            if has_graph_cycle(&spec) {
                continue;
            }
            let sampler = ExactWeightSampler::new(spec.clone()).unwrap();
            let actual = execute(&spec).len() as u64;
            assert_eq!(
                sampler.exact_size_u64(),
                Some(actual),
                "trial {trial}: DP size disagrees with brute force"
            );
            assert_eq!(sampler.size_info().exact, Some(actual));
            assert_eq!(sampler.size_info().bound, actual as f64);
        }
    }

    #[test]
    fn count_overflow_saturates_and_clears_exact_flag() {
        // 9-relation chain, 256 rows each, all matching: join size is
        // 256⁹ = 2⁷² — past u64. The DP must saturate, not wrap, and
        // the sampler must still produce draws.
        let relations: Vec<Arc<Relation>> = (0..9)
            .map(|i| {
                let attrs = [format!("c{i}"), format!("c{}", i + 1), format!("u{i}")];
                let schema = Schema::new(attrs.iter().map(String::as_str)).unwrap();
                let tuples = (0..256)
                    .map(|v| Tuple::new(vec![Value::int(1), Value::int(1), Value::int(v)]))
                    .collect();
                Arc::new(Relation::new(format!("w{i}"), schema, tuples).unwrap())
            })
            .collect();
        let spec = Arc::new(JoinSpec::chain("wide", relations).unwrap());
        let sampler = ExactWeightSampler::new(spec).unwrap();
        assert!(!sampler.size_is_exact());
        assert_eq!(sampler.exact_size_u64(), None);
        assert_eq!(sampler.size_info().exact, None);
        assert_eq!(sampler.counts_of(0)[0], u64::MAX, "saturate, not wrap");
        let mut rng = SujRng::seed_from_u64(4);
        let mut draw = RowDraw::new();
        let accepted = (0..64)
            .filter(|_| sampler.sample_rows(&mut rng, &mut draw))
            .count();
        assert!(accepted > 0, "saturated sampler must still draw");
    }

    #[test]
    fn artifacts_round_trip_bit_identically() {
        // The "no alias rebuild" half of this guarantee is pinned by
        // `tests/artifact_restore.rs` (its own binary: the global
        // `alias_builds` counter cannot be asserted race-free amid
        // parallel lib tests).
        let spec = skewed_chain();
        let sampler = ExactWeightSampler::new(spec.clone()).unwrap();
        let artifacts = sampler.artifacts();
        let restored = ExactWeightSampler::from_artifacts(spec.clone(), artifacts).unwrap();
        assert_eq!(restored.exact_size_u64(), sampler.exact_size_u64());
        // Same artifacts ⇒ bit-identical draw streams.
        let mut ra = SujRng::seed_from_u64(33);
        let mut rb = SujRng::seed_from_u64(33);
        let mut da = RowDraw::new();
        let mut db = RowDraw::new();
        for _ in 0..200 {
            assert_eq!(
                sampler.sample_rows(&mut ra, &mut da),
                restored.sample_rows(&mut rb, &mut db)
            );
            assert_eq!(da.rows(), db.rows());
        }
    }

    #[test]
    fn from_artifacts_rejects_mismatched_shapes() {
        let spec = skewed_chain();
        let sampler = ExactWeightSampler::new(spec.clone()).unwrap();
        let good = sampler.artifacts();

        let mut short_counts = good.clone();
        short_counts.counts[0].pop();
        assert!(ExactWeightSampler::from_artifacts(spec.clone(), short_counts).is_err());

        let mut bad_total = good.clone();
        bad_total.total += 1;
        assert!(ExactWeightSampler::from_artifacts(spec.clone(), bad_total).is_err());

        let mut missing_arena = good.clone();
        let slot = missing_arena
            .arenas
            .iter()
            .position(Option::is_some)
            .unwrap();
        missing_arena.arenas[slot] = None;
        assert!(ExactWeightSampler::from_artifacts(spec.clone(), missing_arena).is_err());

        let mut wrong_exact = good;
        wrong_exact.exact = true; // fine: spec is acyclic
        assert!(ExactWeightSampler::from_artifacts(spec, wrong_exact).is_ok());
    }

    #[test]
    fn ew_memory_bytes_accounts_counts_and_arenas() {
        let sampler = ExactWeightSampler::new(skewed_chain()).unwrap();
        let total = JoinSampler::memory_bytes(&sampler);
        let counts: usize = (0..3).map(|i| sampler.counts_of(i).len() * 8).sum();
        assert!(
            total > counts,
            "memory_bytes ({total}) must cover more than the raw count \
             columns ({counts}): key tables, arenas, indexes"
        );
        // And the trait default stays zero for samplers without state.
        let eo = OlkenSampler::new(skewed_chain()).unwrap();
        assert!(JoinSampler::memory_bytes(&eo) > 0);
    }
}
