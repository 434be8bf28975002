//! Seeded workload inputs: a relation catalog plus the declarative
//! union query that the engine, the service and the wire all serve.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use suj_core::catalog::Catalog;
use suj_core::query::{JoinDef, UnionQuery};
use suj_core::workload::UnionWorkload;
use suj_stats::SujRng;
use suj_storage::{Relation, Schema, Tuple, Value};
use suj_tpch::{uq1, uq2, uq4_cyclic, UqOptions};

/// UQ1 scale for `uq1_bulk`: 563k base rows, ~14M tuples per join.
pub const UQ1_SCALE: usize = 512;
/// UQ1 overlap scale.
pub const UQ1_OVERLAP: f64 = 0.2;
/// UQ2 scale for `uq2_serve`: above the planner's 512-row exact cut-off.
pub const UQ2_SCALE: usize = 8;
/// Independent UQ2 databases per `uq2_serve` run, served side by side.
/// At 804 rows one database's per-request cost shifts by up to 15%
/// from seed to seed; requests spread round-robin over 8 keep a run's
/// figures steady.
pub const UQ2_INSTANCES: u64 = 8;
/// Vertices of each `triangle_union` graph.
pub const TRIANGLE_VERTICES: i64 = 64;
/// Independent graph pairs per `triangle_union` run. One pair's
/// acceptance (OUT/AGM) swings by about 30% from seed to seed; requests
/// spread round-robin over 32 pairs keep a run's figures steady.
pub const TRIANGLE_INSTANCES: u64 = 32;

/// A generated catalog and the union queries over it (one per
/// workload instance).
pub struct Inputs {
    pub catalog: Catalog,
    pub queries: Vec<UnionQuery>,
    /// Wall time of data generation, catalog registration included.
    pub gen_ms: f64,
}

impl Inputs {
    pub fn base_rows(&self) -> usize {
        self.catalog.total_rows()
    }
}

type BuildResult<T> = Result<T, String>;

/// A directed edge list.
type EdgeList = Vec<(i64, i64)>;

fn timed(build: impl FnOnce() -> BuildResult<(Catalog, Vec<UnionQuery>)>) -> BuildResult<Inputs> {
    let t0 = Instant::now();
    let (catalog, queries) = build()?;
    Ok(Inputs {
        catalog,
        queries,
        gen_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

/// `uq1_bulk`: UQ1 at scale 512, overlap 0.2.
pub fn uq1_bulk(seed: u64) -> BuildResult<Inputs> {
    timed(|| {
        let opts = UqOptions::new(UQ1_SCALE, seed, UQ1_OVERLAP);
        let mut catalog = Catalog::new();
        let query = query_over(&mut catalog, &uq1(&opts).map_err(|e| e.to_string())?, "")?;
        Ok((catalog, vec![query]))
    })
}

/// `uq2_serve`: UQ2 at scale 8 (three predicate variants, pushed down),
/// over `UQ2_INSTANCES` independently generated databases.
pub fn uq2_serve(seed: u64) -> BuildResult<Inputs> {
    timed(|| {
        let mut catalog = Catalog::new();
        let mut queries = Vec::new();
        for k in 0..UQ2_INSTANCES {
            let data_seed = SujRng::derive(seed, k).next_u64();
            let opts = UqOptions::new(UQ2_SCALE, data_seed, 1.0);
            let workload = uq2(&opts).map_err(|e| e.to_string())?;
            queries.push(query_over(&mut catalog, &workload, &format!("#{k}"))?);
        }
        Ok((catalog, queries))
    })
}

/// `triangle_union`: the set union of two natural triangle joins over
/// two correlated seeded random graphs, in `TRIANGLE_INSTANCES`
/// independent instances.
pub fn triangle_union(seed: u64) -> BuildResult<Inputs> {
    timed(|| {
        let mut catalog = Catalog::new();
        let mut queries = Vec::new();
        for k in 0..TRIANGLE_INSTANCES {
            let (first, second) =
                correlated_graphs(SujRng::derive(seed, k), TRIANGLE_VERTICES, 0.15, 0.5, 0.075);
            let mut query = UnionQuery::set_union();
            for (g, edges) in [(1, &first), (2, &second)] {
                let names = register_triangle_sides(&mut catalog, &format!("{g}_{k}"), edges)?;
                query = query
                    .join(JoinDef::natural(format!("tri_g{g}"), names))
                    .map_err(|e| e.to_string())?;
            }
            queries.push(query);
        }
        Ok((catalog, queries))
    })
}

/// UQ4 (cyclic TPC-H) as a bare workload, for the known-failure check.
pub fn uq4_workload(scale: usize, seed: u64) -> BuildResult<UnionWorkload> {
    uq4_cyclic(&UqOptions::new(scale, seed, 0.2)).map_err(|e| e.to_string())
}

/// The `examples/triangle.rs` shape at 64 vertices: all triangles of
/// one graph (edge probability 1/4) united with the triangles whose
/// closing edge stays inside the first half of the vertices.
pub fn hub_triangle(seed: u64) -> BuildResult<Inputs> {
    timed(|| {
        let edges = random_graph(&mut SujRng::seed_from_u64(seed), TRIANGLE_VERTICES, 0.25);
        let hub: Vec<(i64, i64)> = edges
            .iter()
            .copied()
            .filter(|&(u, v)| u < TRIANGLE_VERTICES / 2 && v < TRIANGLE_VERTICES / 2)
            .collect();
        let mut catalog = Catalog::new();
        for (name, attrs, rows) in [
            ("e_ab", ["a", "b"], &edges),
            ("e_bc", ["b", "c"], &edges),
            ("e_ca", ["c", "a"], &edges),
            ("e_ca_hub", ["c", "a"], &hub),
        ] {
            catalog
                .register(edge_relation(name, attrs, rows)?)
                .map_err(|e| e.to_string())?;
        }
        let query = UnionQuery::set_union()
            .join(JoinDef::natural("triangles", ["e_ab", "e_bc", "e_ca"]))
            .and_then(|q| {
                q.join(JoinDef::natural(
                    "hub_triangles",
                    ["e_ab", "e_bc", "e_ca_hub"],
                ))
            })
            .map_err(|e| e.to_string())?;
        Ok((catalog, vec![query]))
    })
}

/// Registers every distinct base relation of `workload` in `catalog`
/// (shared relations once; names get `tag` appended, and clashes the
/// join's name) and rebuilds the union as a declarative query with the
/// same relations and join edges, so the engine resolves it to the
/// same joins.
fn query_over(
    catalog: &mut Catalog,
    workload: &UnionWorkload,
    tag: &str,
) -> BuildResult<UnionQuery> {
    let mut names: HashMap<*const Relation, String> = HashMap::new();
    let mut query = UnionQuery::set_union();
    for spec in workload.joins() {
        let mut relation_names = Vec::with_capacity(spec.n_relations());
        for rel in spec.relations() {
            let key = Arc::as_ptr(rel);
            let name = match names.get(&key) {
                Some(name) => name.clone(),
                None => {
                    let mut name = format!("{}{tag}", rel.name());
                    if catalog.contains(&name) {
                        name = format!("{name}@{}", spec.name());
                    }
                    let relation = if name == rel.name() {
                        rel.clone()
                    } else {
                        Arc::new(
                            rel.rename_attrs(&name, str::to_string)
                                .map_err(|e| e.to_string())?,
                        )
                    };
                    catalog.register_arc(relation).map_err(|e| e.to_string())?;
                    names.insert(key, name.clone());
                    name
                }
            };
            relation_names.push(name);
        }
        query = query
            .join(JoinDef::with_edges(
                spec.name(),
                relation_names,
                spec.edges().to_vec(),
            ))
            .map_err(|e| e.to_string())?;
    }
    Ok(query)
}

/// A symmetric edge list: each unordered pair `u < v` is an edge with
/// probability `p`, stored in both directions.
fn random_graph(rng: &mut SujRng, vertices: i64, p: f64) -> EdgeList {
    let mut edges = Vec::new();
    for u in 0..vertices {
        for v in (u + 1)..vertices {
            if rng.bernoulli(p) {
                edges.push((u, v));
                edges.push((v, u));
            }
        }
    }
    edges
}

/// Two symmetric graphs: the first has edge probability `p`; the second
/// keeps each edge of the first with probability `keep` and adds each
/// non-edge with probability `fresh`.
fn correlated_graphs(
    mut rng: SujRng,
    vertices: i64,
    p: f64,
    keep: f64,
    fresh: f64,
) -> (EdgeList, EdgeList) {
    let first = random_graph(&mut rng, vertices, p);
    let present: std::collections::HashSet<(i64, i64)> = first.iter().copied().collect();
    let mut second = Vec::new();
    for u in 0..vertices {
        for v in (u + 1)..vertices {
            let p_edge = if present.contains(&(u, v)) {
                keep
            } else {
                fresh
            };
            if rng.bernoulli(p_edge) {
                second.push((u, v));
                second.push((v, u));
            }
        }
    }
    (first, second)
}

/// Registers `x<tag>(a,b)`, `y<tag>(b,c)`, `z<tag>(c,a)` over one edge
/// list and returns their names.
fn register_triangle_sides(
    catalog: &mut Catalog,
    tag: &str,
    edges: &[(i64, i64)],
) -> BuildResult<Vec<String>> {
    let mut names = Vec::new();
    for (side, attrs) in [("x", ["a", "b"]), ("y", ["b", "c"]), ("z", ["c", "a"])] {
        let name = format!("{side}{tag}");
        catalog
            .register(edge_relation(&name, attrs, edges)?)
            .map_err(|e| e.to_string())?;
        names.push(name);
    }
    Ok(names)
}

fn edge_relation(name: &str, attrs: [&str; 2], edges: &[(i64, i64)]) -> BuildResult<Relation> {
    let schema = Schema::new(attrs).map_err(|e| e.to_string())?;
    let tuples = edges
        .iter()
        .map(|&(u, v)| Tuple::new(vec![Value::int(u), Value::int(v)]))
        .collect();
    Relation::new(name, schema, tuples).map_err(|e| e.to_string())
}
