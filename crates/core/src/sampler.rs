//! The unified sampler abstraction every union sampler implements.
//!
//! The paper presents one problem — i.i.d. sampling from a union of
//! joins — realized by four algorithms (Algorithm 1 rejection sampling,
//! Algorithm 2 online sampling, the Bernoulli union trick, and disjoint
//! union sampling) plus predicate wrappers. [`UnionSampler`] is the
//! object-safe common surface: an incremental [`draw`](UnionSampler::draw)
//! producing one [`Draw`] event at a time, a cumulative
//! [`report`](UnionSampler::report), and a provided batch
//! [`sample`](UnionSampler::sample) built on top of `draw`.
//!
//! # The event model
//!
//! Uniformity devices in Algorithms 1 and 2 occasionally *remove*
//! previously produced samples: Algorithm 1's revision purges every
//! copy of a tuple whose cover ownership moves (lines 10–12), and
//! Algorithm 2's backtracking thins returned samples as parameter
//! estimates shift (§7). An incremental API must surface those
//! removals, so `draw` yields either
//!
//! * [`Draw::Tuple`] — the next accepted sample, or
//! * [`Draw::Retract`] — the *emission index* of an earlier
//!   `Draw::Tuple` that the algorithm has withdrawn.
//!
//! Batch consumers (the provided [`sample`](UnionSampler::sample))
//! honor retractions exactly, preserving the batch semantics of the
//! paper's algorithms (the equivalence suite pins the builder, trait,
//! and stream paths to one another seed-for-seed). Streaming consumers
//! ([`SampleStream`](crate::stream::SampleStream)) cannot unconsume an
//! already-yielded tuple; they count retractions instead, which leaves
//! the stream asymptotically uniform (the same guarantee the paper
//! proves for the record policy). Samplers that never retract —
//! disjoint union, Bernoulli designation, Algorithm 1 under
//! [`CoverPolicy::MembershipOracle`](crate::algorithm1::CoverPolicy) —
//! stream exactly i.i.d.

use crate::error::CoreError;
use crate::report::RunReport;
use crate::rows::DrawnBatch;
use crate::workload::UnionWorkload;
use std::sync::Arc;
use suj_stats::SujRng;
use suj_storage::{FxHashMap, Tuple};

/// One step of an incremental sampling run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Draw {
    /// The next accepted sample, tagged with its emission index
    /// (indices are assigned in order of acceptance; burst copies
    /// queued inside the sampler keep the indices they were assigned
    /// at acceptance time, so a consumer can resolve any later
    /// [`Draw::Retract`] unambiguously).
    Tuple(u64, Tuple),
    /// Withdraws the sample with the given emission index (revision /
    /// backtracking). Consumers maintaining a sample set should drop
    /// that element; consumers that already released it may count the
    /// retraction instead.
    Retract(u64),
}

/// An incremental i.i.d. sampler over a union of joins.
///
/// Object safe: every built sampler is usable as
/// `Box<dyn UnionSampler>`, which is what
/// [`SamplerBuilder`](crate::session::SamplerBuilder) returns.
///
/// # Concurrency
///
/// `Send` is a supertrait: every sampler can move to a worker thread,
/// so `Box<dyn UnionSampler + Send>` handles minted by
/// [`PreparedQuery::sampler`](crate::catalog::PreparedQuery::sampler)
/// can be served from a [`SamplingService`](crate::serve::SamplingService)
/// pool. A sampler handle itself stays single-threaded (`draw` takes
/// `&mut self`); concurrency comes from minting one independent handle
/// per thread over shared frozen state, never from sharing a handle.
pub trait UnionSampler: Send {
    /// Advances the sampler until the next event.
    ///
    /// Returns [`Draw::Tuple`] for each accepted sample and
    /// [`Draw::Retract`] for each withdrawn one. Errors are
    /// non-recoverable for the current run (e.g. the union is
    /// estimated positive but every join is empty).
    fn draw(&mut self, rng: &mut SujRng) -> Result<Draw, CoreError>;

    /// Cumulative counters and timings since construction.
    fn report(&self) -> &RunReport;

    /// Mutable access to the cumulative report. Exists so the builder
    /// and engine can stamp the resolved configuration
    /// ([`RunReport::config`]) into the sampler they assembled; not
    /// intended for mutating counters.
    fn report_mut(&mut self) -> &mut RunReport;

    /// Total `Draw::Tuple` events emitted so far (the next tuple's
    /// emission index).
    fn emitted(&self) -> u64;

    /// The workload being sampled.
    fn workload(&self) -> &Arc<UnionWorkload>;

    /// Whether this sampler can ever emit [`Draw::Retract`]. Samplers
    /// returning `false` (disjoint union, Bernoulli designation,
    /// Algorithm 1 under the membership-oracle policy) stream exactly
    /// i.i.d. and let wrappers skip retraction bookkeeping.
    fn may_retract(&self) -> bool {
        true
    }

    /// Draws until `n` samples are *live* (emitted and not retracted),
    /// returning them with the report delta for this call.
    ///
    /// This reproduces the batch semantics of the paper's algorithms:
    /// retractions arriving during the batch remove their tuples from
    /// the batch (matched by emission index, so surplus copies queued
    /// across batch boundaries resolve correctly), and the loop
    /// continues until `n` live samples remain. Retractions of tuples
    /// returned by earlier calls are already out of reach; they are
    /// counted in the report only.
    fn sample(&mut self, n: usize, rng: &mut SujRng) -> Result<(Vec<Tuple>, RunReport), CoreError> {
        self.sample_within(n, rng, None)
    }

    /// [`sample`](UnionSampler::sample) with an optional deadline:
    /// once `deadline` passes the run aborts with
    /// [`CoreError::DeadlineExceeded`] instead of running unbounded.
    ///
    /// Tuple strategies check before every draw, on the per-draw
    /// latency timestamp. Row strategies (Bernoulli, disjoint) time
    /// whole batches and read the clock for the deadline alone, before
    /// the first draw and then at least every 64 draws. Either way the
    /// check never alters the draw sequence — a run that finishes
    /// before the deadline is bit-identical to
    /// [`sample`](UnionSampler::sample) with no deadline at all (the
    /// serving tier's determinism contract depends on this).
    fn sample_within(
        &mut self,
        n: usize,
        rng: &mut SujRng,
        deadline: Option<std::time::Instant>,
    ) -> Result<(Vec<Tuple>, RunReport), CoreError> {
        let baseline = self.report().clone();
        let mut out: Vec<Tuple> = Vec::with_capacity(n);
        let mut removed: Vec<bool> = Vec::with_capacity(n);
        // Emission index → position in `out` for this batch.
        let mut position: FxHashMap<u64, usize> = FxHashMap::default();
        let mut live = 0usize;
        while live < n {
            let draw_start = std::time::Instant::now();
            if deadline.is_some_and(|d| draw_start >= d) {
                return Err(CoreError::DeadlineExceeded);
            }
            let event = self.draw(rng);
            self.report_mut().draw_latency.record(draw_start.elapsed());
            match event? {
                Draw::Tuple(idx, t) => {
                    position.insert(idx, out.len());
                    out.push(t);
                    removed.push(false);
                    live += 1;
                }
                Draw::Retract(idx) => {
                    // Indices absent from the map belong to earlier
                    // batches the caller already consumed.
                    if let Some(&i) = position.get(&idx) {
                        if !removed[i] {
                            removed[i] = true;
                            live -= 1;
                        }
                    }
                }
            }
        }
        let result = out
            .into_iter()
            .zip(removed)
            .filter(|(_, dead)| !dead)
            .map(|(t, _)| t)
            .collect();
        Ok((result, self.report().delta_since(&baseline)))
    }

    /// [`sample_within`](UnionSampler::sample_within), returning the
    /// batch in the form the strategy produced it: row ids
    /// ([`DrawnBatch::Rows`]) from the Bernoulli and disjoint
    /// strategies, tuples otherwise. Same draws, same counters; the
    /// serving tier encodes row batches straight into wire columns
    /// without building a tuple.
    fn sample_batch_within(
        &mut self,
        n: usize,
        rng: &mut SujRng,
        deadline: Option<std::time::Instant>,
    ) -> Result<(DrawnBatch, RunReport), CoreError> {
        let (tuples, report) = self.sample_within(n, rng, deadline)?;
        Ok((DrawnBatch::Tuples(tuples), report))
    }
}

impl<S: UnionSampler + ?Sized> UnionSampler for Box<S> {
    fn draw(&mut self, rng: &mut SujRng) -> Result<Draw, CoreError> {
        (**self).draw(rng)
    }

    fn report(&self) -> &RunReport {
        (**self).report()
    }

    fn report_mut(&mut self) -> &mut RunReport {
        (**self).report_mut()
    }

    fn emitted(&self) -> u64 {
        (**self).emitted()
    }

    fn workload(&self) -> &Arc<UnionWorkload> {
        (**self).workload()
    }

    fn may_retract(&self) -> bool {
        (**self).may_retract()
    }

    fn sample(&mut self, n: usize, rng: &mut SujRng) -> Result<(Vec<Tuple>, RunReport), CoreError> {
        (**self).sample(n, rng)
    }

    fn sample_within(
        &mut self,
        n: usize,
        rng: &mut SujRng,
        deadline: Option<std::time::Instant>,
    ) -> Result<(Vec<Tuple>, RunReport), CoreError> {
        (**self).sample_within(n, rng, deadline)
    }

    fn sample_batch_within(
        &mut self,
        n: usize,
        rng: &mut SujRng,
        deadline: Option<std::time::Instant>,
    ) -> Result<(DrawnBatch, RunReport), CoreError> {
        (**self).sample_batch_within(n, rng, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::UnionWorkload;
    use std::collections::VecDeque;
    use suj_storage::{Relation, Schema, Value};

    /// Scripted sampler: replays a fixed event sequence, mimicking a
    /// sampler whose queued burst copies straddle batch boundaries.
    struct Scripted {
        events: VecDeque<Draw>,
        emitted: u64,
        report: RunReport,
        workload: Arc<UnionWorkload>,
    }

    impl Scripted {
        fn new(events: Vec<Draw>) -> Self {
            let rel = Arc::new(
                Relation::new(
                    "r",
                    Schema::new(["a"]).unwrap(),
                    vec![Tuple::new(vec![Value::int(1)])],
                )
                .unwrap(),
            );
            let spec = suj_join::JoinSpec::chain("j", vec![rel]).unwrap();
            let workload = Arc::new(UnionWorkload::new(vec![Arc::new(spec)]).unwrap());
            Self {
                events: events.into(),
                emitted: 0,
                report: RunReport::new(1),
                workload,
            }
        }
    }

    impl UnionSampler for Scripted {
        fn draw(&mut self, _rng: &mut SujRng) -> Result<Draw, CoreError> {
            let event = self.events.pop_front().expect("script exhausted");
            if let Draw::Tuple(..) = &event {
                self.emitted += 1;
                self.report.accepted += 1;
            }
            self.events
                .push_back(Draw::Tuple(u64::MAX, Tuple::new(vec![Value::int(-1)]))); // padding so scripts never run dry mid-test
            Ok(event)
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
    }

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::int(v)])
    }

    /// `Send` is a supertrait, so boxed trait objects cross threads —
    /// the contract the serving layer builds on (compile-time check).
    #[test]
    fn union_sampler_trait_objects_are_send() {
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<dyn UnionSampler>();
        assert_send::<Box<dyn UnionSampler>>();
        assert_send::<Box<dyn UnionSampler + Send>>();
    }

    /// A retraction arriving in batch 2 that targets an emission queued
    /// during batch 1 (a surplus burst copy) must remove that exact
    /// tuple from batch 2 — not a mis-mapped neighbor, and not be
    /// dropped.
    #[test]
    fn batch_retractions_resolve_across_queue_boundaries() {
        let mut sampler = Scripted::new(vec![
            // Batch 1 consumes one tuple; emission 1 was queued at the
            // same time (burst) and spills into batch 2.
            Draw::Tuple(0, t(10)),
            Draw::Tuple(1, t(11)),
            // Batch 2: retract the spilled emission #1 mid-batch, then
            // continue.
            Draw::Retract(1),
            Draw::Tuple(2, t(12)),
            Draw::Tuple(3, t(13)),
        ]);
        let mut rng = SujRng::seed_from_u64(0);
        let (batch1, _) = sampler.sample(1, &mut rng).unwrap();
        assert_eq!(batch1, vec![t(10)]);
        let (batch2, _) = sampler.sample(2, &mut rng).unwrap();
        // Emission #1 (tuple 11) was retracted mid-batch; #2 and #3
        // survive.
        assert_eq!(batch2, vec![t(12), t(13)]);
    }

    /// Retractions of emissions returned by *earlier* batches are out
    /// of reach and must be ignored without disturbing the current
    /// batch.
    #[test]
    fn batch_ignores_retractions_of_prior_batches() {
        let mut sampler = Scripted::new(vec![
            Draw::Tuple(0, t(20)),
            Draw::Retract(0), // targets batch 1's tuple
            Draw::Tuple(1, t(21)),
            Draw::Tuple(2, t(22)),
        ]);
        let mut rng = SujRng::seed_from_u64(0);
        let (batch1, _) = sampler.sample(1, &mut rng).unwrap();
        assert_eq!(batch1, vec![t(20)]);
        let (batch2, _) = sampler.sample(2, &mut rng).unwrap();
        assert_eq!(batch2, vec![t(21), t(22)]);
    }
}
