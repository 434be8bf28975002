//! Determinism / equivalence suite for the unified API.
//!
//! For a fixed `SujRng` seed, every sampler reached through
//! `SamplerBuilder` (and consumed through the `UnionSampler` trait or a
//! `SampleStream`) must reproduce, byte for byte, the tuples the
//! original direct-constructor path produced. Those outputs are pinned
//! as golden digests (`digest`: FNV-1a over each tuple's `Display`
//! line), recorded from the constructors before the builder became the
//! only way to build a sampler. Samplers that never retract also get
//! stream-vs-batch parity; the suite closes with a chi-squared
//! uniformity check run entirely through `Box<dyn UnionSampler>`.

use sample_union_joins::prelude::*;
use std::sync::Arc;
use suj_core::walk_estimator::WalkEstimatorConfig;
use suj_storage::{CompareOp, FxHashMap, Predicate, Value};

fn workload() -> Arc<UnionWorkload> {
    Arc::new(uq3(&UqOptions::new(1, 61, 0.3)).expect("uq3"))
}

/// FNV-1a (64-bit) over each tuple's `Display` form plus a newline: a
/// stable fingerprint of a sample sequence, order included.
fn digest(tuples: &[Tuple]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tuples {
        for byte in format!("{t}\n").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn batch(sampler: &mut dyn UnionSampler, n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = SujRng::seed_from_u64(seed);
    sampler.sample(n, &mut rng).expect("sampling").0
}

fn streamed(sampler: &mut dyn UnionSampler, n: usize, seed: u64) -> Vec<Tuple> {
    let mut rng = SujRng::seed_from_u64(seed);
    SampleStream::over(sampler, &mut rng)
        .take(n)
        .collect::<Result<_, _>>()
        .expect("stream")
}

/// Asserts `out` is the `n`-tuple sequence the golden digest pins.
fn assert_golden(out: &[Tuple], n: usize, golden: u64) {
    assert_eq!(out.len(), n);
    assert_eq!(
        digest(out),
        golden,
        "sample sequence drifted from the recorded output"
    );
}

#[test]
fn algorithm1_oracle_builder_and_stream_match_legacy() {
    // Recorded from `SetUnionSampler::new` with the oracle policy over
    // the exact overlap map.
    const GOLDEN: u64 = 0x97ad_587e_d2dc_72fc;
    let w = workload();
    let build = || {
        SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Exact)
            .cover_policy(CoverPolicy::MembershipOracle)
            .build()
            .unwrap()
    };
    let mut via_builder = build();
    assert_golden(&batch(&mut via_builder, 300, 7), 300, GOLDEN);

    // The oracle policy never retracts → streaming is byte-identical
    // too.
    let mut via_stream = build();
    assert_golden(&streamed(&mut via_stream, 300, 7), 300, GOLDEN);
}

#[test]
fn algorithm1_record_builder_matches_legacy() {
    // Recorded from `SetUnionSampler::new` with the default (record)
    // configuration over the exact overlap map.
    const GOLDEN: u64 = 0xf0ff_823e_1fb2_d447;
    // UQ2 is the high-overlap workload: the record machinery (cover
    // rejections and revisions) actually fires here.
    let w = Arc::new(uq2(&UqOptions::new(1, 62, 0.2)).expect("uq2"));
    let mut via_builder = SamplerBuilder::for_workload(w)
        .estimator(Estimator::Exact)
        .cover_policy(CoverPolicy::Record)
        .build()
        .unwrap();
    assert_golden(&batch(&mut via_builder, 300, 8), 300, GOLDEN);
    assert!(
        via_builder.report().revised > 0 || via_builder.report().rejected_cover > 0,
        "workload must exercise the record machinery"
    );
}

#[test]
fn algorithm1_walk_estimator_builder_matches_legacy() {
    // Recorded from `SetUnionSampler::new` (oracle policy) over the map
    // of a hand-wired `walk_warmup` seeded with 123.
    const GOLDEN: u64 = 0x22cb_82aa_6925_cdb5;
    let w = workload();
    let walk_cfg = WalkEstimatorConfig {
        max_walks_per_join: 300,
        ..Default::default()
    };
    let mut via_builder = SamplerBuilder::for_workload(w)
        .estimator(Estimator::Walk(walk_cfg))
        .estimation_seed(123)
        .cover_policy(CoverPolicy::MembershipOracle)
        .build()
        .unwrap();
    assert_golden(&batch(&mut via_builder, 200, 9), 200, GOLDEN);
}

#[test]
fn online_builder_matches_legacy() {
    // Recorded from `OnlineUnionSampler::new` in workload cover order.
    const GOLDEN: u64 = 0x4dc6_a353_4d71_d45d;
    let w = workload();
    let cfg = OnlineConfig {
        phi: 64,
        warmup: WalkEstimatorConfig {
            max_walks_per_join: 200,
            min_walks_per_join: 64,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut via_builder = SamplerBuilder::for_workload(w)
        .strategy(Strategy::Online(cfg))
        .build()
        .unwrap();
    assert_golden(&batch(&mut via_builder, 250, 10), 250, GOLDEN);
}

#[test]
fn bernoulli_builder_and_stream_match_legacy() {
    // Recorded from `BernoulliUnionSampler::new` (oracle designation)
    // fed the exact overlap map's join and union sizes.
    const GOLDEN: u64 = 0x1fa1_1267_cf44_bd55;
    let w = workload();
    let build = || {
        SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Exact)
            .strategy(Strategy::Bernoulli(DesignationPolicy::Oracle))
            .build()
            .unwrap()
    };
    let mut via_builder = build();
    assert_golden(&batch(&mut via_builder, 300, 11), 300, GOLDEN);
    let mut via_stream = build();
    assert_golden(&streamed(&mut via_stream, 300, 11), 300, GOLDEN);
}

#[test]
fn disjoint_builder_and_stream_match_legacy() {
    // Recorded from `DisjointUnionSampler::with_exact_sizes` with
    // exact weights.
    const GOLDEN: u64 = 0xf7a6_b3e3_8ac8_1d3f;
    let w = workload();
    let build = || {
        SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Exact)
            .strategy(Strategy::Disjoint)
            .build()
            .unwrap()
    };
    let mut via_builder = build();
    assert_golden(&batch(&mut via_builder, 300, 12), 300, GOLDEN);
    let mut via_stream = build();
    assert_golden(&streamed(&mut via_stream, 300, 12), 300, GOLDEN);
}

#[test]
fn predicate_wrapper_matches_hand_wrapped_sampler() {
    // Recorded from an oracle-policy `SetUnionSampler::new` wrapped by
    // hand in `PredicateSampler::new`.
    const GOLDEN: u64 = 0xf90d_5c6d_f430_d2b4;
    let w = workload();
    let pred = Predicate::cmp(
        w.canonical_schema().attrs()[0].as_ref(),
        CompareOp::Ge,
        Value::int(0),
    );
    let mut via_builder = SamplerBuilder::for_workload(w)
        .estimator(Estimator::Exact)
        .cover_policy(CoverPolicy::MembershipOracle)
        .predicate(pred, PredicateMode::Reject)
        .build()
        .unwrap();
    assert_golden(&batch(&mut via_builder, 200, 13), 200, GOLDEN);
}

#[test]
fn repeated_batches_continue_deterministically() {
    // Two half-size batches over one sampler equal one full batch over
    // a fresh sampler for never-retracting strategies: state persists
    // and the RNG stream is the only source of randomness.
    let w = workload();
    let build = || {
        SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Exact)
            .cover_policy(CoverPolicy::MembershipOracle)
            .build()
            .unwrap()
    };
    let mut whole = build();
    let whole_out = batch(&mut whole, 200, 14);

    let mut split = build();
    let mut rng = SujRng::seed_from_u64(14);
    let (mut first, _) = split.sample(100, &mut rng).unwrap();
    let (second, _) = split.sample(100, &mut rng).unwrap();
    first.extend(second);
    assert_eq!(first, whole_out);
}

#[test]
fn chi_squared_uniformity_through_trait_object() {
    let w = workload();
    let exact = full_join_union(&w).unwrap();
    let universe: Vec<Tuple> = exact.union_set.iter().cloned().collect();
    let mut sampler: Box<dyn UnionSampler> = SamplerBuilder::for_workload(w)
        .estimator(Estimator::Exact)
        .cover_policy(CoverPolicy::MembershipOracle)
        .build()
        .unwrap();
    let mut rng = SujRng::seed_from_u64(15);
    let n = 500 * universe.len();
    let (samples, _) = sampler.sample(n, &mut rng).unwrap();
    let mut counts: FxHashMap<Tuple, u64> = FxHashMap::default();
    for t in &samples {
        *counts.entry(t.clone()).or_insert(0) += 1;
    }
    let observed: Vec<u64> = universe
        .iter()
        .map(|t| counts.get(t).copied().unwrap_or(0))
        .collect();
    let outcome = suj_stats::chi_square_test(&observed).expect("chi2");
    assert!(
        outcome.p_value > 1e-3,
        "not uniform through the trait object: p = {:e}",
        outcome.p_value
    );
}
