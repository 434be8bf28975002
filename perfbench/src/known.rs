//! `--check-known-failures`: two cyclic defects, recorded rather than
//! hidden. Each request runs under a deadline, so the check ends in
//! bounded time and prints `failed/attempted` per case. These cases are
//! outside every timed workload.
//!
//! 1. UQ4 (cyclic TPC-H) under `PreparedQuery::auto` at scales 1, 2, 4
//!    and 8: requests fail with `Invalid("all joins are empty but the
//!    union estimate is positive")` after millions of AGM-box attempts.
//! 2. The `examples/triangle.rs` shape at 64 vertices (all triangles ∪
//!    hub triangles): the hub join's cover region is empty while its
//!    histogram estimate is positive, so 20,000 tuples do not finish.

use crate::inputs;
use std::sync::Arc;
use std::time::{Duration, Instant};
use suj_core::catalog::{Engine, PreparedQuery};

const SEED: u64 = 1;
const UQ4_SCALES: [usize; 4] = [1, 2, 4, 8];
const UQ4_REQUESTS: u64 = 2;
const UQ4_N: usize = 100;
const UQ4_DEADLINE: Duration = Duration::from_secs(3);
const HUB_N: usize = 20_000;
const HUB_DEADLINE: Duration = Duration::from_secs(10);

pub fn check() -> Result<(), String> {
    for scale in UQ4_SCALES {
        let t = Instant::now();
        let workload = inputs::uq4_workload(scale, SEED)?;
        let prepared = PreparedQuery::auto(Arc::new(workload)).map_err(|e| e.to_string());
        let prepare_s = t.elapsed().as_secs_f64();
        let (failed, attempted, last) = match &prepared {
            Ok(prepared) => requests(prepared, UQ4_REQUESTS, UQ4_N, UQ4_DEADLINE),
            Err(e) => (1, 1, format!("prepare failed: {e}")),
        };
        println!(
            "known failure uq4@scale{scale} (PreparedQuery::auto, n={UQ4_N}, deadline {UQ4_DEADLINE:?}): failed/attempted = {failed}/{attempted}; prepare {prepare_s:.2} s; last: {last}"
        );
    }

    let inputs = inputs::hub_triangle(SEED)?;
    let engine = Engine::new(inputs.catalog);
    let (failed, attempted, last) = match engine.prepare(&inputs.queries[0]) {
        Ok(prepared) => requests(&prepared, 1, HUB_N, HUB_DEADLINE),
        Err(e) => (1, 1, format!("prepare failed: {e}")),
    };
    println!(
        "known failure hub_triangle@64 vertices (Engine::prepare, n={HUB_N}, deadline {HUB_DEADLINE:?}): failed/attempted = {failed}/{attempted}; last: {last}"
    );
    Ok(())
}

/// Issues `count` requests of `n` tuples, each under `deadline`.
fn requests(
    prepared: &PreparedQuery,
    count: u64,
    n: usize,
    deadline: Duration,
) -> (u64, u64, String) {
    let mut failed = 0;
    let mut last = String::from("ok");
    for seed in 0..count {
        let t = Instant::now();
        let outcome = prepared.sampler(seed).and_then(|mut handle| {
            let mut rng = prepared.rng(seed);
            handle.sample_within(n, &mut rng, Some(t + deadline))
        });
        let secs = t.elapsed().as_secs_f64();
        match outcome {
            Ok((tuples, _)) if tuples.len() == n => last = format!("ok in {secs:.2} s"),
            Ok((tuples, _)) => {
                failed += 1;
                last = format!("{} of {n} tuples after {secs:.2} s", tuples.len());
            }
            Err(e) => {
                failed += 1;
                last = format!("{e} after {secs:.2} s");
            }
        }
    }
    (failed, count, last)
}
