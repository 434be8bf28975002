//! Row-id union batches.
//!
//! The union trick (§3) needs two facts per draw: the join it came from
//! and whether that join is the draw's designated join. Neither needs a
//! materialized tuple. The Bernoulli and disjoint strategies therefore
//! draw into a [`RowBatch`] — per accepted draw, the join index and the
//! chosen row id of each of that join's relations — and decide
//! designation on column cells read in place
//! ([`UnionWorkload::cell`]). Values are materialized once per batch:
//! as tuples ([`RowBatch::to_tuples`]) or column by column, straight
//! into the wire's columnar form ([`RowBatch::encode_columns`]).
//!
//! [`DrawnBatch`] carries a batch from either kind of strategy: row ids
//! from the two above, tuples from Algorithms 1 and 2 and the predicate
//! wrappers, whose retraction bookkeeping is keyed on tuples.

use crate::error::CoreError;
use crate::report::RunReport;
use crate::sampler::{Draw, UnionSampler};
use crate::workload::UnionWorkload;
use std::sync::Arc;
use std::time::Instant;
use suj_stats::SujRng;
use suj_storage::snapshot::{encode_column, ByteWriter};
use suj_storage::{CellRef, Column, ColumnBuilder, StrPool, Tuple};

/// Accepted draws of a row strategy, as row ids.
///
/// Draw `i` came from one join of the workload and chose one row in
/// each of that join's relations. The batch holds the workload, so
/// every canonical cell ([`cell`](Self::cell)) stays readable for as
/// long as the batch lives.
#[derive(Debug, Clone)]
pub struct RowBatch {
    workload: Arc<UnionWorkload>,
    /// Row ids per draw: the most relations of any join (shorter joins
    /// leave their tail slots zero).
    stride: usize,
    joins: Vec<u32>,
    rows: Vec<u32>,
}

impl RowBatch {
    /// An empty batch over `workload`.
    pub fn new(workload: Arc<UnionWorkload>) -> Self {
        let stride = workload
            .joins()
            .iter()
            .map(|j| j.n_relations())
            .max()
            .unwrap_or(0);
        Self {
            workload,
            stride,
            joins: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Number of draws in the batch.
    pub fn len(&self) -> usize {
        self.joins.len()
    }

    /// Whether the batch holds no draws.
    pub fn is_empty(&self) -> bool {
        self.joins.is_empty()
    }

    /// Reserves room for `n` more draws.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.joins.reserve(n);
        self.rows.reserve(n * self.stride);
    }

    /// Row ids stored per draw: the most relations of any join.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Removes every draw, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.joins.clear();
        self.rows.clear();
    }

    /// The join draw `i` came from.
    pub(crate) fn join(&self, i: usize) -> usize {
        self.joins[i] as usize
    }

    /// The row ids of draw `i`, indexed by relation of its join.
    pub(crate) fn rows(&self, i: usize) -> &[u32] {
        let n = self.workload.join(self.join(i)).n_relations();
        &self.rows[i * self.stride..i * self.stride + n]
    }

    /// Appends a draw from join `j` (`rows` indexed by relation).
    pub(crate) fn push(&mut self, j: usize, rows: &[u32]) {
        self.joins.push(j as u32);
        let start = self.rows.len();
        self.rows.extend_from_slice(rows);
        self.rows.resize(start + self.stride, 0);
    }

    /// Canonical cell `k` of draw `i`, read in place.
    pub fn cell(&self, i: usize, k: usize) -> CellRef<'_> {
        self.workload.cell(self.join(i), self.rows(i), k)
    }

    /// Draw `i` as a canonical tuple.
    pub(crate) fn tuple(&self, i: usize) -> Tuple {
        self.workload.canonical_tuple(self.join(i), self.rows(i))
    }

    /// Every draw as a canonical tuple, in draw order.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        (0..self.len()).map(|i| self.tuple(i)).collect()
    }

    /// Canonical column `k` of the batch: the column
    /// [`ColumnBuilder::push_ref`] builds from the tuples'
    /// `k`-th values, without building them. Dictionary strings go in
    /// by `(pool, code)`, so a repeated string is neither re-hashed nor
    /// `Arc`-bumped.
    pub(crate) fn column(&self, k: usize) -> Column {
        /// A gathered cell: dictionary strings stay `(pool, code)`.
        enum Gathered<'a> {
            Cell(CellRef<'a>),
            Pooled(&'a Arc<StrPool>, u32),
        }
        let sources: Vec<(&Column, usize)> = (0..self.workload.n_joins())
            .map(|j| self.workload.source_column(j, k))
            .collect();
        // Two passes: the gather's reads of random base rows are
        // independent of one another and overlap; the builder's pushes
        // then run over a dense buffer.
        let cells: Vec<Gathered<'_>> = self
            .joins
            .iter()
            .enumerate()
            .map(|(i, &j)| {
                let (column, r) = sources[j as usize];
                let row = self.rows[i * self.stride + r] as usize;
                match column {
                    Column::Str {
                        codes,
                        pool,
                        validity,
                    } if validity.is_valid(row) => Gathered::Pooled(pool, codes[row]),
                    _ => Gathered::Cell(column.cell(row)),
                }
            })
            .collect();
        let mut builder = ColumnBuilder::new();
        for cell in cells {
            match cell {
                Gathered::Pooled(pool, code) => builder.push_pooled_str(pool, code),
                Gathered::Cell(CellRef::Null) => builder.push_null(),
                Gathered::Cell(CellRef::Int(v)) => builder.push_i64(v),
                Gathered::Cell(CellRef::Float(v)) => builder.push_f64(v),
                Gathered::Cell(CellRef::Str(s)) => builder.push_str(s),
            }
        }
        builder.finish()
    }

    /// Writes every canonical column, in canonical order, in the
    /// storage column codec ([`encode_column`]) — the column section of
    /// the wire's `Batch` payload, byte for byte what encoding
    /// [`to_tuples`](Self::to_tuples) column by column writes.
    pub fn encode_columns(&self, w: &mut ByteWriter) {
        for k in 0..self.workload.canonical_schema().arity() {
            encode_column(&self.column(k), w);
        }
    }
}

/// One batch of samples as a strategy produced it.
#[derive(Debug, Clone)]
pub enum DrawnBatch {
    /// Row ids (Bernoulli and disjoint strategies).
    Rows(RowBatch),
    /// Materialized canonical tuples (Algorithms 1 and 2, predicate
    /// wrappers).
    Tuples(Vec<Tuple>),
}

impl DrawnBatch {
    /// Number of samples.
    pub fn len(&self) -> usize {
        match self {
            DrawnBatch::Rows(rows) => rows.len(),
            DrawnBatch::Tuples(tuples) => tuples.len(),
        }
    }

    /// Whether the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The samples as canonical tuples, in draw order.
    pub fn into_tuples(self) -> Vec<Tuple> {
        match self {
            DrawnBatch::Rows(rows) => rows.to_tuples(),
            DrawnBatch::Tuples(tuples) => tuples,
        }
    }
}

/// Row loops run in chunks of at most this many draws and check the
/// deadline before each chunk: before the first draw, then at least
/// every 64 draws.
const CHUNK: usize = 64;

/// A strategy that draws row ids. Its [`UnionSampler`] surface —
/// `draw`, `sample_within`, `sample_batch_within` — is built on
/// [`next_rows`](Self::next_rows) by the functions below, so one row
/// loop serves every entry point.
pub(crate) trait RowStrategy: UnionSampler {
    /// Appends at most `want` (≥ 1) more accepted draws to `out`,
    /// counting each (`emitted`, `accepted`) and every rejection on
    /// the way. Consumes the RNG exactly as a draw-by-draw loop
    /// stopping at the `want`-th acceptance would, and stops early
    /// only where such a loop would have to go on, so a call may
    /// append fewer draws (even none) than `want`. Reads no clock.
    fn next_rows(
        &mut self,
        want: usize,
        rng: &mut SujRng,
        out: &mut RowBatch,
    ) -> Result<(), CoreError>;

    /// The reusable one-draw batch behind `draw`.
    fn scratch(&mut self) -> &mut Option<RowBatch>;

    /// Prepares per-draw state for about `draws` more accepted draws.
    fn reserve(&mut self, _draws: usize) {}
}

fn selections(report: &RunReport) -> u64 {
    report.join_draws.iter().sum()
}

/// Appends `n` accepted draws to `out`, then books the loop's wall
/// time once (see [`RunReport::book_batch`]). Returns that time.
fn fill<S: RowStrategy + ?Sized>(
    sampler: &mut S,
    n: usize,
    rng: &mut SujRng,
    deadline: Option<Instant>,
    out: &mut RowBatch,
) -> Result<std::time::Duration, CoreError> {
    let start = Instant::now();
    let accepted = sampler.report().accepted;
    let selected = selections(sampler.report());
    let target = out.len() + n;
    let mut result = Ok(());
    while out.len() < target {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            result = Err(CoreError::DeadlineExceeded);
            break;
        }
        let want = (target - out.len()).min(CHUNK);
        if let Err(e) = sampler.next_rows(want, rng, out) {
            result = Err(e);
            break;
        }
    }
    let elapsed = start.elapsed();
    let report = sampler.report_mut();
    let accepted = report.accepted - accepted;
    let rejected = (selections(report) - selected).saturating_sub(accepted);
    report.book_batch(elapsed, accepted, rejected);
    result.map(|()| elapsed)
}

/// `UnionSampler::draw` of a row strategy: one accepted draw through
/// the row loop, materialized.
pub(crate) fn draw<S: RowStrategy + ?Sized>(
    sampler: &mut S,
    rng: &mut SujRng,
) -> Result<Draw, CoreError> {
    let mut batch = sampler
        .scratch()
        .take()
        .unwrap_or_else(|| RowBatch::new(sampler.workload().clone()));
    batch.clear();
    let result = fill(sampler, 1, rng, None, &mut batch);
    let event = result.map(|_| Draw::Tuple(sampler.emitted() - 1, batch.tuple(0)));
    *sampler.scratch() = Some(batch);
    event
}

/// `UnionSampler::sample_batch_within` of a row strategy.
pub(crate) fn sample_batch<S: RowStrategy + ?Sized>(
    sampler: &mut S,
    n: usize,
    rng: &mut SujRng,
    deadline: Option<Instant>,
) -> Result<(RowBatch, RunReport), CoreError> {
    let baseline = sampler.report().clone();
    let mut batch = RowBatch::new(sampler.workload().clone());
    batch.reserve(n);
    sampler.reserve(n);
    let elapsed = fill(sampler, n, rng, deadline, &mut batch)?;
    sampler
        .report_mut()
        .draw_latency
        .record_batch(elapsed, n as u64);
    Ok((batch, sampler.report().delta_since(&baseline)))
}
