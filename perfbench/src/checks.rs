//! Output checks applied to every response the benchmark receives.
//!
//! A request fails when it returns a typed error or when any check on
//! its output fails: wrong tuple count, wrong schema, a tuple outside
//! the union (`UnionWorkload::membership_mask == 0`), or a replayed
//! response that is not bit-identical to the in-process reference.
//! Failures are counted, never skipped.

use std::collections::BTreeMap;
use std::sync::Arc;
use suj_core::exact::full_join_union;
use suj_core::workload::UnionWorkload;
use suj_stats::SujRng;
use suj_storage::{FxHashMap, Tuple};

/// Per-tuple counts over the exact union, plus whether each distinct
/// tuple's membership mask has been verified.
#[derive(Clone)]
struct UnionCounts {
    counts: FxHashMap<Tuple, (u64, bool)>,
}

#[derive(Clone)]
pub struct Checker {
    workload: Arc<UnionWorkload>,
    attrs: Vec<String>,
    union: Option<UnionCounts>,
    pub attempted: u64,
    pub failed: u64,
    /// Failures caused by wrong output (a subset of `failed`).
    pub incorrect: u64,
    pub checked_tuples: u64,
    pub replays_compared: u64,
    reasons: BTreeMap<String, u64>,
}

impl Checker {
    /// A checker that tests membership through the workload's oracles.
    pub fn new(workload: Arc<UnionWorkload>) -> Self {
        let attrs = workload
            .canonical_schema()
            .attrs()
            .iter()
            .map(|a| a.to_string())
            .collect();
        Self {
            workload,
            attrs,
            union: None,
            attempted: 0,
            failed: 0,
            incorrect: 0,
            checked_tuples: 0,
            replays_compared: 0,
            reasons: BTreeMap::new(),
        }
    }

    /// Additionally materializes the exact union (`full_join_union`), so
    /// every served tuple is counted for `sample_tv`. Only for small
    /// unions; call outside any timed section.
    pub fn with_ground_truth(mut self) -> Result<Self, String> {
        let exact = full_join_union(&self.workload).map_err(|e| e.to_string())?;
        let counts = exact
            .union_set
            .into_iter()
            .map(|t| (t, (0, false)))
            .collect();
        self.union = Some(UnionCounts { counts });
        Ok(self)
    }

    pub fn union_size(&self) -> Option<usize> {
        self.union.as_ref().map(|u| u.counts.len())
    }

    fn fail(&mut self, reason: &str, incorrect: bool) {
        self.failed += 1;
        if incorrect {
            self.incorrect += 1;
        }
        *self.reasons.entry(reason.to_string()).or_insert(0) += 1;
    }

    /// Counts a request that returned a typed error.
    pub fn error(&mut self, error: &dyn std::fmt::Display) {
        self.attempted += 1;
        let text = error.to_string();
        let kind = text.split(':').next().unwrap_or("error").trim().to_string();
        self.fail(&format!("error: {kind}"), false);
    }

    /// Checks one response of a request for `n` tuples; `attrs` is the
    /// schema the response declared (`None` for in-process results,
    /// whose schema is the workload's). Returns whether it passed.
    pub fn response(&mut self, n: usize, attrs: Option<&[String]>, tuples: &[Tuple]) -> bool {
        self.attempted += 1;
        if tuples.len() != n {
            self.fail("wrong tuple count", true);
            return false;
        }
        if attrs.is_some_and(|a| a != self.attrs.as_slice()) {
            self.fail("wrong schema", true);
            return false;
        }
        let arity = self.attrs.len();
        let mut members = true;
        for t in tuples {
            if t.arity() != arity {
                members = false;
                break;
            }
            members &= match &mut self.union {
                Some(union) => match union.counts.get_mut(t) {
                    None => false,
                    Some((count, verified)) => {
                        // First sight of a tuple: confirm it with the
                        // oracles as well; equal tuples share the mask.
                        if !*verified {
                            *verified = self.workload.membership_mask(t) != 0;
                        }
                        *count += u64::from(*verified);
                        *verified
                    }
                },
                None => self.workload.membership_mask(t) != 0,
            };
            if !members {
                break;
            }
        }
        if !members {
            self.fail("tuple outside the union", true);
            return false;
        }
        self.checked_tuples += n as u64;
        true
    }

    /// Compares a served response with the in-process reference for the
    /// same request seed. A mismatch turns an already counted request
    /// into a failure.
    pub fn replay(&mut self, served: &[Tuple], reference: &[Tuple]) {
        self.replays_compared += 1;
        if served != reference {
            self.fail("not bit-identical to in-process sample", true);
        }
    }

    /// Folds another checker of the same workload into this one.
    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.incorrect += other.incorrect;
        self.checked_tuples += other.checked_tuples;
        self.replays_compared += other.replays_compared;
        for (reason, count) in other.reasons {
            *self.reasons.entry(reason).or_insert(0) += count;
        }
        if let (Some(mine), Some(theirs)) = (&mut self.union, other.union) {
            for (t, (count, verified)) in theirs.counts {
                if let Some(entry) = mine.counts.get_mut(&t) {
                    entry.0 += count;
                    entry.1 |= verified;
                }
            }
        }
    }

    /// An empty checker for the same workload and ground truth: zero
    /// counters, zero per-tuple counts.
    pub fn fresh(&self) -> Self {
        let mut out = Self::new(self.workload.clone());
        out.union = self.union.as_ref().map(|u| UnionCounts {
            counts: u.counts.keys().map(|t| (t.clone(), (0, false))).collect(),
        });
        out
    }

    /// Total-variation distance between the counted tuples and uniform
    /// over the exact union, with the count it rests on.
    pub fn sample_tv(&self) -> Option<(f64, u64)> {
        let union = self.union.as_ref()?;
        let counts: Vec<u64> = union.counts.values().map(|c| c.0).collect();
        Some((tv_from_counts(&counts), counts.iter().sum()))
    }

    /// One-line failure breakdown, e.g. `none` or `error: deadline=2`.
    pub fn reasons(&self) -> String {
        if self.reasons.is_empty() {
            return "none".into();
        }
        self.reasons
            .iter()
            .map(|(r, c)| format!("{r}={c}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Folds per-instance checkers into one (counters and failure reasons;
/// per-tuple counts stay with their instance).
pub fn merge_all(checkers: Vec<Checker>) -> Checker {
    let mut iter = checkers.into_iter();
    let mut total = iter.next().expect("at least one checker");
    for c in iter {
        total.merge(c);
    }
    total
}

fn tv_from_counts(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 || counts.is_empty() {
        return f64::NAN;
    }
    let uniform = 1.0 / counts.len() as f64;
    0.5 * counts
        .iter()
        .map(|&c| (c as f64 / total as f64 - uniform).abs())
        .sum::<f64>()
}

/// The TV distance a perfectly uniform sampler shows with `draws`
/// samples over `support` tuples: the sampling-noise floor of
/// `sample_tv`, simulated with a fixed seed.
pub fn tv_noise_floor(support: usize, draws: u64, seed: u64) -> f64 {
    let mut rng = SujRng::seed_from_u64(seed);
    let mut counts = vec![0u64; support];
    for _ in 0..draws {
        counts[rng.index(support)] += 1;
    }
    tv_from_counts(&counts)
}
