//! Row-id union batches on the wire: the Bernoulli and disjoint
//! strategies serve row-id batches that the server encodes straight
//! from the base columns, and those payloads must be byte-identical to
//! encoding the materialized tuples. The workload mixes NULLs, floats
//! (with `-0.0`), a heterogeneous column, and string columns whose
//! dictionaries code equal strings differently in each join.

use sample_union_joins::core::rows::{DrawnBatch, RowBatch};
use sample_union_joins::prelude::*;
use sample_union_joins::{Client, Server, ServiceConfig};
use std::sync::Arc;
use suj_net::protocol::{decode_batch, encode_batch, encode_drawn, encode_rows};

fn relation(name: &str, attrs: &[&str], rows: Vec<Vec<Value>>) -> Relation {
    let schema = Schema::new(attrs.iter().copied()).unwrap();
    Relation::new(name, schema, rows.into_iter().map(Tuple::new).collect()).unwrap()
}

fn s(v: &str) -> Value {
    Value::str(v)
}

/// Two joins `p ⋈ q` over `(k, name, price, tag, m)`. The `p` sides
/// list their strings in different orders (so "alpha" has a different
/// dictionary code in each join), `price` is a float column with a
/// NULL and a negative zero, `name` holds a NULL, and `m` mixes
/// integers and strings.
fn relations() -> Vec<Relation> {
    vec![
        relation(
            "p1",
            &["k", "name", "price"],
            vec![
                vec![Value::int(1), s("alpha"), Value::float(1.5)],
                vec![Value::int(2), s("beta"), Value::Null],
                vec![Value::int(3), Value::Null, Value::float(2.25)],
                vec![Value::int(4), s("gamma"), Value::float(-0.0)],
            ],
        ),
        relation(
            "q1",
            &["k", "tag", "m"],
            vec![
                vec![Value::int(1), s("x"), Value::int(7)],
                vec![Value::int(2), s("y"), s("seven")],
                vec![Value::int(3), s("x"), Value::Null],
                vec![Value::int(4), s("z"), Value::int(8)],
                vec![Value::int(1), s("y"), s("eight")],
            ],
        ),
        relation(
            "p2",
            &["k", "name", "price"],
            vec![
                vec![Value::int(4), s("gamma"), Value::float(-0.0)],
                vec![Value::int(3), Value::Null, Value::float(2.25)],
                vec![Value::int(2), s("beta"), Value::Null],
                vec![Value::int(5), s("delta"), Value::float(9.0)],
                vec![Value::int(1), s("alpha"), Value::float(1.5)],
            ],
        ),
        relation(
            "q2",
            &["k", "tag", "m"],
            vec![
                vec![Value::int(5), s("z"), Value::int(9)],
                vec![Value::int(1), s("y"), s("eight")],
                vec![Value::int(2), s("y"), s("seven")],
                vec![Value::int(4), s("z"), Value::int(8)],
                vec![Value::int(3), s("w"), Value::Null],
            ],
        ),
    ]
}

fn workload() -> Arc<UnionWorkload> {
    let rels: Vec<Arc<Relation>> = relations().into_iter().map(Arc::new).collect();
    let j1 = JoinSpec::chain("j1", vec![rels[0].clone(), rels[1].clone()]).unwrap();
    let j2 = JoinSpec::chain("j2", vec![rels[2].clone(), rels[3].clone()]).unwrap();
    Arc::new(UnionWorkload::new(vec![Arc::new(j1), Arc::new(j2)]).unwrap())
}

fn engine(config: PlannerConfig) -> Engine {
    let mut catalog = Catalog::new();
    for r in relations() {
        catalog.register(r).unwrap();
    }
    Engine::with_planner(catalog, Planner::new(config))
}

fn set_union() -> UnionQuery {
    UnionQuery::set_union()
        .chain("j1", ["p1", "q1"])
        .unwrap()
        .chain("j2", ["p2", "q2"])
        .unwrap()
}

fn disjoint_union() -> UnionQuery {
    UnionQuery::disjoint_union()
        .chain("j1", ["p1", "q1"])
        .unwrap()
        .chain("j2", ["p2", "q2"])
        .unwrap()
}

fn attrs(w: &UnionWorkload) -> Vec<Arc<str>> {
    w.canonical_schema().attrs().to_vec()
}

/// The fixture is what it claims: equal strings, different codes.
#[test]
fn fixture_codes_equal_strings_differently() {
    let w = workload();
    let code = |j: usize| {
        let (column, _) = w.source_column(j, 1);
        let Column::Str { pool, .. } = column else {
            panic!("name must be dictionary coded, got {}", column.kind());
        };
        pool.code_of("alpha").unwrap()
    };
    assert_ne!(code(0), code(1));
    assert_eq!(
        w.source_column(0, 2).0.kind(),
        w.source_column(1, 2).0.kind()
    );
    assert!(w.source_column(0, 2).0.null_count() > 0);
}

/// For each row strategy: the row batch materializes to exactly the
/// tuples the tuple entry point returns for the same seed, with the
/// same counters, and its direct encoding is byte-identical to
/// encoding those tuples (and decodes back to them).
#[test]
fn row_payloads_match_tuple_payloads_byte_for_byte() {
    let w = workload();
    let attrs = attrs(&w);
    for strategy in [
        Strategy::Bernoulli(DesignationPolicy::Record),
        Strategy::Bernoulli(DesignationPolicy::Oracle),
        Strategy::Disjoint,
    ] {
        let prepared = SamplerBuilder::for_workload(w.clone())
            .estimator(Estimator::Exact)
            .strategy(strategy)
            .freeze()
            .unwrap();
        for seed in [1u64, 2, 3] {
            let mut rows_handle = prepared.instantiate().unwrap();
            let mut rng = SujRng::seed_from_u64(seed);
            let (batch, rows_report) = rows_handle
                .sample_batch_within(300, &mut rng, None)
                .unwrap();
            let DrawnBatch::Rows(rows) = batch else {
                panic!("{strategy}: expected a row batch");
            };
            let mut tuple_handle = prepared.instantiate().unwrap();
            let mut rng = SujRng::seed_from_u64(seed);
            let (tuples, tuple_report) = tuple_handle.sample(300, &mut rng).unwrap();

            assert_eq!(rows.len(), 300);
            assert_eq!(rows.to_tuples(), tuples, "{strategy} seed {seed}");
            for (i, t) in tuples.iter().enumerate() {
                for k in 0..attrs.len() {
                    assert!(rows.cell(i, k).eq_value(t.get(k)));
                }
            }
            assert_eq!(rows_report.accepted, tuple_report.accepted);
            assert_eq!(rows_report.rejected_cover, tuple_report.rejected_cover);
            assert_eq!(rows_report.rejected_join, tuple_report.rejected_join);
            assert_eq!(rows_report.join_draws, tuple_report.join_draws);
            assert_eq!(rows_report.draw_latency.count(), 300);

            let direct = encode_rows(&attrs, &rows);
            assert_eq!(
                direct,
                encode_batch(&attrs, &tuples),
                "{strategy} seed {seed}: row payload differs from tuple payload"
            );
            let (names, decoded) = decode_batch(&direct).unwrap();
            assert_eq!(names.len(), attrs.len());
            assert_eq!(decoded, tuples);
        }
    }
}

/// An empty row batch encodes like an empty tuple batch.
#[test]
fn empty_row_batch_encodes_like_empty_tuples() {
    let w = workload();
    let attrs = attrs(&w);
    let rows = RowBatch::new(w);
    assert!(rows.is_empty());
    assert_eq!(encode_rows(&attrs, &rows), encode_batch(&attrs, &[]));
}

/// Served end to end: the planner's Bernoulli (record) and disjoint
/// plans hand the server row batches, Algorithm 1 still hands it
/// tuples, and in every case the served payload equals the encoding
/// of the in-process samples — over the service and over TCP.
#[test]
fn served_payloads_match_in_process_samples() {
    let low_overlap = PlannerConfig {
        bernoulli_max_overlap_ratio: f64::INFINITY,
        ..PlannerConfig::default()
    };
    let high_overlap = PlannerConfig {
        bernoulli_max_overlap_ratio: 0.0,
        ..PlannerConfig::default()
    };
    let cases = [
        (low_overlap, set_union(), "bernoulli(record)", true),
        (high_overlap, set_union(), "rejection", false),
        (low_overlap, disjoint_union(), "disjoint", true),
    ];
    for (config, query, strategy, rows_expected) in cases {
        let engine = engine(config);
        let prepared = engine.prepare(&query).unwrap();
        assert_eq!(prepared.summary().strategy, strategy);
        let attrs = attrs(prepared.workload());

        let service = SamplingService::start(engine.clone(), ServiceConfig::default());
        for seed in [5u64, 6] {
            let (local, _) = prepared.sample(64, seed).unwrap();
            let response = service
                .submit(SampleRequest::prepared(seed, 64, &prepared).with_seed(seed))
                .unwrap()
                .wait_batch()
                .unwrap();
            assert_eq!(
                matches!(response.batch, DrawnBatch::Rows(_)),
                rows_expected,
                "{strategy}: unexpected batch form"
            );
            assert_eq!(
                encode_drawn(&attrs, &response.batch),
                encode_batch(&attrs, &local),
                "{strategy} seed {seed}"
            );
            let response = service
                .submit(SampleRequest::prepared(seed, 64, &prepared).with_seed(seed))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(response.tuples, local);
        }
        let stats = service.shutdown();
        assert_eq!(stats.tuples_served, 4 * 64);

        let server = Server::bind(engine, "127.0.0.1:0", ServiceConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let remote = client.prepare(&query).unwrap();
        for seed in [5u64, 6] {
            let (local, _) = prepared.sample(64, seed).unwrap();
            let batch = client.sample(&remote, 64, seed).unwrap();
            assert_eq!(batch.tuples, local, "{strategy}: wire vs in-process");
        }
        client.shutdown().unwrap();
        server.join().unwrap();
    }
}
