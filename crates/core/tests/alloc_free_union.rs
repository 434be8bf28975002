//! Row-id union batches allocate per batch, not per draw.
//!
//! A counting global allocator wraps the system allocator. After a
//! warm-up batch (which sizes every reusable scratch), a 4,096-draw
//! row batch from the disjoint and the Bernoulli (record) strategies
//! must make a constant number of allocations — the batch's own
//! buffers and the report delta — however many draws it holds. The
//! tuple entry point, which builds one `Tuple` per draw, is counted as
//! the contrast that shows the counter sees per-draw allocations. This
//! file deliberately holds a single `#[test]` so no concurrent test
//! thread can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use suj_core::bernoulli::DesignationPolicy;
use suj_core::rows::DrawnBatch;
use suj_core::session::{Estimator, SamplerBuilder, Strategy};
use suj_core::workload::UnionWorkload;
use suj_join::JoinSpec;
use suj_stats::SujRng;
use suj_storage::{Relation, Schema, Tuple, Value};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Draws per counted batch.
const DRAWS: usize = 4_096;
/// Allocations one batch may make, whatever its size: the batch's
/// join-id and row-id buffers plus the cloned and delta reports.
const PER_BATCH: u64 = 32;

/// Two overlapping chain joins with a string column, so the Bernoulli
/// record both accepts and rejects, over enough rows that 4,096 draws
/// revisit values.
fn workload() -> Arc<UnionWorkload> {
    let rel = |name: &str, attrs: [&str; 2], rows: Vec<Tuple>| {
        Arc::new(Relation::new(name, Schema::new(attrs).unwrap(), rows).unwrap())
    };
    let left = |shift: i64| {
        (0..64)
            .map(|i| Tuple::new(vec![Value::int(i + shift), Value::int(i % 8)]))
            .collect::<Vec<_>>()
    };
    let right: Vec<Tuple> = (0..8)
        .flat_map(|b| {
            (0..4).map(move |c| Tuple::new(vec![Value::int(b), Value::str(format!("s{c}"))]))
        })
        .collect();
    let j1 = JoinSpec::chain(
        "j1",
        vec![
            rel("r1", ["a", "b"], left(0)),
            rel("s1", ["b", "c"], right.clone()),
        ],
    )
    .unwrap();
    let j2 = JoinSpec::chain(
        "j2",
        vec![
            rel("r2", ["a", "b"], left(32)),
            rel("s2", ["b", "c"], right),
        ],
    )
    .unwrap();
    Arc::new(UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap())
}

/// Runs `f` and returns the number of allocations it performed.
fn counting<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}

#[test]
fn row_batches_allocate_per_batch_not_per_draw() {
    let w = workload();
    for strategy in [
        Strategy::Disjoint,
        Strategy::Bernoulli(DesignationPolicy::Record),
    ] {
        let prepared = SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Exact)
            .strategy(strategy)
            .freeze()
            .unwrap();
        let mut handle = prepared.instantiate().unwrap();
        let mut rng = SujRng::seed_from_u64(9);
        // Warm-up: sizes the row scratch, the chunk buffers, and the
        // record's table for a batch of this size.
        let (warm, _) = handle.sample_batch_within(DRAWS, &mut rng, None).unwrap();
        assert_eq!(warm.len(), DRAWS);
        drop(warm);

        let ((batch, report), allocs) =
            counting(|| handle.sample_batch_within(DRAWS, &mut rng, None).unwrap());
        assert!(matches!(batch, DrawnBatch::Rows(_)), "{strategy}");
        assert_eq!(batch.len(), DRAWS);
        assert_eq!(report.accepted, DRAWS as u64);
        assert!(
            allocs <= PER_BATCH,
            "{strategy}: {allocs} allocations for one {DRAWS}-draw row batch"
        );
        drop(batch);

        // Contrast: the tuple entry point materializes every draw.
        let (tuples, allocs) = counting(|| handle.sample(DRAWS, &mut rng).unwrap());
        assert_eq!(tuples.0.len(), DRAWS);
        assert!(
            allocs >= DRAWS as u64,
            "{strategy}: the tuple path made only {allocs} allocations"
        );
    }
}
