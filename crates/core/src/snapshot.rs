//! Engine snapshot persistence: save and restore prepared artifacts.
//!
//! A cold replica should serve the first request without re-running
//! parameter estimation. [`Engine::save_snapshot`] persists the
//! catalog plus every cached prepared query — its declarative query,
//! plan tags, root seed, and the *parameters* its freeze consumed —
//! into the storage layer's sectioned, checksummed container
//! ([`suj_storage::snapshot`]). [`Engine::load_snapshot`] rebuilds the
//! catalog, re-resolves each query, and freezes each plan through the
//! ordinary plan → prepared path **with the restored parameters in
//! place of estimation**: after a restore,
//! [`PreparedQuery::estimations`] is 0 and samples are bit-identical
//! to the donor engine's for the same root seed and request seed.
//!
//! # File format
//!
//! The container is the storage layer's: magic `SUJSNAP\0`, version,
//! section count, then per section a 16-byte header (`kind: u32`,
//! `len: u64`, `crc: u32`) and an 8-aligned payload. This module adds
//! two section kinds on top of [`SECTION_RELATION`]:
//!
//! | kind | payload |
//! |------|---------|
//! | 16 ([`SECTION_ENGINE_META`]) | engine format version `u32`, planner config (`f64`, `u64`, `f64`, `u8`) |
//! | 1 ([`SECTION_RELATION`]) | one relation, in catalog registration order |
//! | 17 ([`SECTION_PREPARED`]) | one prepared entry: query, root seed `u64`, plan tags, parameters |
//!
//! Plans are stored as *tags* (strategy / estimator / weights / cover
//! / predicate mode / rule discriminants), not full configurations:
//! the engine's planner only ever emits default-configured variants,
//! so the tags reconstruct the plan exactly. Prepared entries that did
//! not come through the engine (no source query, e.g.
//! [`PreparedQuery::auto`]) are not persisted.
//!
//! The parameters are one encoded value: the map's provenance tag
//! (`exact` / `histogram` / `walk`), the overlap map when one was
//! derived, and — when every member sampler is exact-weight — each
//! join's factorized count tables and alias arenas. They were captured
//! *after* any predicate push-down rewrite, so a restore replays the
//! rewrite deterministically first and decodes them against the
//! rewritten workload. Samplers revive from the persisted artifacts,
//! validated slab-by-slab, so a restored replica performs **zero**
//! alias builds ([`suj_join::alias_builds`] is flat across a restore),
//! serves draw streams bit-identical to the donor's, and stamps the
//! same summary (size provenance included, since it is derived from
//! the same parameters).

use crate::bernoulli::DesignationPolicy;
use crate::catalog::{Catalog, Engine, PreparedQuery};
use crate::error::CoreError;
use crate::overlap::OverlapMap;
use crate::params::{Params, Provenance};
use crate::planner::{Plan, PlanRule, Planner, PlannerConfig, WorkloadStats};
use crate::predicate_mode::PredicateMode;
use crate::query::{JoinDef, Topology, UnionQuery, UnionSemantics};
use crate::session::{push_down_workload, Estimator, HistogramOptions, SamplerBuilder, Strategy};
use crate::walk_estimator::WalkEstimatorConfig;
use crate::workload::UnionWorkload;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use suj_join::JoinEdge;
use suj_storage::snapshot::{
    decode_predicate, decode_relation, encode_predicate, encode_relation, read_sections,
    write_sections, ByteReader, ByteWriter, SECTION_RELATION,
};
use suj_storage::SnapshotError;

/// Section kind: engine metadata (format version + planner config).
pub const SECTION_ENGINE_META: u32 = 16;
/// Section kind: one serialized prepared-query entry.
pub const SECTION_PREPARED: u32 = 17;
/// Version of the engine sections' encoding (independent of the
/// container version). Version 2 persists each prepared entry's
/// parameters as one encoded value.
pub const ENGINE_FORMAT_VERSION: u32 = 2;

fn corrupt(what: &str, got: impl std::fmt::Display) -> SnapshotError {
    SnapshotError::Corrupt(format!("{what}: unexpected value {got}"))
}

// ---------------------------------------------------------------------
// Query codec
// ---------------------------------------------------------------------

/// Serializes a declarative [`UnionQuery`] — semantics, joins
/// (name, relation names, topology), optional predicate, optional
/// pinned predicate mode. Shared by the snapshot format and the wire
/// protocol's `Prepare` payload.
pub fn encode_query(q: &UnionQuery, w: &mut ByteWriter) {
    w.put_u8(match q.semantics() {
        UnionSemantics::Set => 0,
        UnionSemantics::Disjoint => 1,
    });
    w.put_u32(q.joins().len() as u32);
    for def in q.joins() {
        w.put_str(def.name());
        w.put_u32(def.relations().len() as u32);
        for rel in def.relations() {
            w.put_str(rel);
        }
        match def.topology() {
            Topology::Chain => w.put_u8(0),
            Topology::Natural => w.put_u8(1),
            Topology::Edges(edges) => {
                w.put_u8(2);
                w.put_u32(edges.len() as u32);
                for e in edges {
                    w.put_u64(e.left as u64);
                    w.put_u64(e.right as u64);
                    w.put_u32(e.attrs.len() as u32);
                    for a in &e.attrs {
                        w.put_str(a);
                    }
                }
            }
        }
    }
    match q.predicate_ref() {
        None => w.put_u8(0),
        Some(p) => {
            w.put_u8(1);
            encode_predicate(p, w);
        }
    }
    w.put_u8(match q.predicate_mode_ref() {
        None => 0,
        Some(PredicateMode::PushDown) => 1,
        Some(PredicateMode::Reject) => 2,
    });
}

/// Inverse of [`encode_query`]. The restored query is
/// `Debug`-identical to the original, so engine fingerprints (and
/// therefore prepared-query cache hits) coincide across a round trip.
pub fn decode_query(r: &mut ByteReader<'_>) -> Result<UnionQuery, SnapshotError> {
    let semantics = match r.get_u8()? {
        0 => UnionSemantics::Set,
        1 => UnionSemantics::Disjoint,
        other => return Err(corrupt("union semantics tag", other)),
    };
    let n_joins = r.get_u32()? as usize;
    let mut joins = Vec::with_capacity(n_joins.min(1024));
    for _ in 0..n_joins {
        let name = r.get_str()?.to_string();
        let n_rels = r.get_u32()? as usize;
        let mut relations = Vec::with_capacity(n_rels.min(1024));
        for _ in 0..n_rels {
            relations.push(r.get_str()?.to_string());
        }
        let topology = match r.get_u8()? {
            0 => Topology::Chain,
            1 => Topology::Natural,
            2 => {
                let n_edges = r.get_u32()? as usize;
                let mut edges = Vec::with_capacity(n_edges.min(1024));
                for _ in 0..n_edges {
                    let left = r.get_u64()? as usize;
                    let right = r.get_u64()? as usize;
                    let n_attrs = r.get_u32()? as usize;
                    let mut attrs = Vec::with_capacity(n_attrs.min(1024));
                    for _ in 0..n_attrs {
                        attrs.push(Arc::<str>::from(r.get_str()?));
                    }
                    edges.push(JoinEdge { left, right, attrs });
                }
                Topology::Edges(edges)
            }
            other => return Err(corrupt("topology tag", other)),
        };
        joins.push(JoinDef::from_restored(name, relations, topology));
    }
    let predicate = match r.get_u8()? {
        0 => None,
        1 => Some(decode_predicate(r)?),
        other => return Err(corrupt("predicate option tag", other)),
    };
    let predicate_mode = predicate_mode_tag(r.get_u8()?, "predicate mode tag")?;
    Ok(UnionQuery::from_restored(
        semantics,
        joins,
        predicate,
        predicate_mode,
    ))
}

/// Inverse of the predicate-mode byte both codecs write: 0 none,
/// 1 push-down, 2 reject.
fn predicate_mode_tag(tag: u8, what: &str) -> Result<Option<PredicateMode>, SnapshotError> {
    match tag {
        0 => Ok(None),
        1 => Ok(Some(PredicateMode::PushDown)),
        2 => Ok(Some(PredicateMode::Reject)),
        other => Err(corrupt(what, other)),
    }
}

// ---------------------------------------------------------------------
// Plan codec (tags only — the planner emits default configurations)
// ---------------------------------------------------------------------

fn encode_plan(plan: &Plan, w: &mut ByteWriter) -> Result<(), SnapshotError> {
    let (strategy, policy) = match plan.strategy {
        Strategy::Rejection => (0u8, 0u8),
        Strategy::Online(_) => (1, 0),
        Strategy::Bernoulli(DesignationPolicy::Oracle) => (2, 0),
        Strategy::Bernoulli(DesignationPolicy::Record) => (2, 1),
        Strategy::Disjoint => (3, 0),
        Strategy::Auto => {
            return Err(SnapshotError::Corrupt(
                "cannot snapshot an unresolved Auto plan".into(),
            ))
        }
    };
    w.put_u8(strategy);
    w.put_u8(policy);
    w.put_u8(match plan.estimator {
        None => 0,
        Some(Estimator::Exact) => 1,
        Some(Estimator::Histogram(_)) => 2,
        Some(Estimator::Walk(_)) => 3,
    });
    w.put_u8(match plan.weights {
        None => 0,
        Some(suj_join::WeightKind::Exact) => 1,
        Some(suj_join::WeightKind::ExtendedOlken) => 2,
        Some(suj_join::WeightKind::WanderJoin) => 3,
        Some(suj_join::WeightKind::AgmBox) => 4,
    });
    w.put_u8(match plan.cover_strategy {
        None => 0,
        Some(crate::cover::CoverStrategy::AsGiven) => 1,
        Some(crate::cover::CoverStrategy::DescendingSize) => 2,
        Some(crate::cover::CoverStrategy::AscendingSize) => 3,
    });
    w.put_u8(match plan.predicate_mode {
        None => 0,
        Some(PredicateMode::PushDown) => 1,
        Some(PredicateMode::Reject) => 2,
    });
    w.put_u8(match plan.rule {
        PlanRule::DisjointSemantics => 0,
        PlanRule::SingleJoin => 1,
        PlanRule::NoStatistics => 2,
        PlanRule::LowOverlap => 3,
        PlanRule::HighOverlap => 4,
        PlanRule::CyclicJoin => 5,
    });
    Ok(())
}

/// Inverse of [`encode_plan`], against the freshly resolved workload.
/// Statistics and parameters stay empty until the restore decodes the
/// entry's parameters.
fn decode_plan(r: &mut ByteReader<'_>, workload: &UnionWorkload) -> Result<Plan, SnapshotError> {
    let strategy = match (r.get_u8()?, r.get_u8()?) {
        (0, _) => Strategy::Rejection,
        (1, _) => Strategy::Online(crate::algorithm2::OnlineConfig::default()),
        (2, 0) => Strategy::Bernoulli(DesignationPolicy::Oracle),
        (2, 1) => Strategy::Bernoulli(DesignationPolicy::Record),
        (3, _) => Strategy::Disjoint,
        (other, _) => return Err(corrupt("strategy tag", other)),
    };
    let estimator = match r.get_u8()? {
        0 => None,
        1 => Some(Estimator::Exact),
        2 => Some(Estimator::Histogram(HistogramOptions::default())),
        3 => Some(Estimator::Walk(WalkEstimatorConfig::default())),
        other => return Err(corrupt("estimator tag", other)),
    };
    let weights = match r.get_u8()? {
        0 => None,
        1 => Some(suj_join::WeightKind::Exact),
        2 => Some(suj_join::WeightKind::ExtendedOlken),
        3 => Some(suj_join::WeightKind::WanderJoin),
        4 => Some(suj_join::WeightKind::AgmBox),
        other => return Err(corrupt("weights tag", other)),
    };
    let cover_strategy = match r.get_u8()? {
        0 => None,
        1 => Some(crate::cover::CoverStrategy::AsGiven),
        2 => Some(crate::cover::CoverStrategy::DescendingSize),
        3 => Some(crate::cover::CoverStrategy::AscendingSize),
        other => return Err(corrupt("cover tag", other)),
    };
    let predicate_mode = predicate_mode_tag(r.get_u8()?, "plan predicate mode tag")?;
    let rule = match r.get_u8()? {
        0 => PlanRule::DisjointSemantics,
        1 => PlanRule::SingleJoin,
        2 => PlanRule::NoStatistics,
        3 => PlanRule::LowOverlap,
        4 => PlanRule::HighOverlap,
        5 => PlanRule::CyclicJoin,
        other => return Err(corrupt("rule tag", other)),
    };
    Ok(Plan {
        strategy,
        estimator,
        weights,
        cover_strategy,
        predicate_mode,
        rule,
        stats: WorkloadStats::unavailable(workload),
        params: Params::new(Provenance::Histogram, None, Vec::new()),
    })
}

// ---------------------------------------------------------------------
// Parameter codec
// ---------------------------------------------------------------------

fn encode_params(params: &Params, w: &mut ByteWriter) {
    w.put_u8(match params.provenance {
        Provenance::Exact => 0,
        Provenance::Histogram => 1,
        Provenance::Walk => 2,
    });
    match &params.map {
        None => w.put_u8(0),
        Some(map) => {
            w.put_u8(1);
            let n = map.n();
            w.put_u32(n as u32);
            // Entry 0 (the empty overlap) is identically 0; write the
            // full 2^n slab anyway so the decode is one validated call.
            let sizes: Vec<f64> = (0..(1usize << n))
                .map(|mask| {
                    if mask == 0 {
                        0.0
                    } else {
                        map.overlap_mask(mask as u32)
                    }
                })
                .collect();
            w.put_f64_slab(&sizes);
        }
    }
    match params.ew_artifacts() {
        None => w.put_u8(0),
        Some(artifacts) => {
            w.put_u8(1);
            encode_ew_artifacts(&artifacts, w);
        }
    }
}

/// Inverse of [`encode_params`], against the workload the parameters
/// were frozen on (after any push-down rewrite): persisted Exact-Weight
/// artifacts revive that workload's samplers through
/// [`ExactWeightSampler::from_artifacts`](suj_join::ExactWeightSampler::from_artifacts),
/// which validates every shape against the join spec.
fn decode_params(
    r: &mut ByteReader<'_>,
    workload: &UnionWorkload,
) -> Result<Params, SnapshotError> {
    let provenance = match r.get_u8()? {
        0 => Provenance::Exact,
        1 => Provenance::Histogram,
        2 => Provenance::Walk,
        other => return Err(corrupt("parameter provenance tag", other)),
    };
    let n_joins = workload.n_joins();
    let map = match r.get_u8()? {
        0 => None,
        1 => {
            let n = r.get_u32()? as usize;
            if n != n_joins {
                return Err(corrupt("overlap map join count", n));
            }
            let sizes = r.get_f64_slab()?;
            let map = OverlapMap::new(n, sizes)
                .map_err(|e| SnapshotError::Corrupt(format!("invalid overlap map: {e}")))?;
            Some(map)
        }
        other => return Err(corrupt("overlap map presence tag", other)),
    };
    let samplers = match r.get_u8()? {
        0 => Vec::new(),
        1 => {
            let artifacts = decode_ew_artifacts(r)?;
            if artifacts.len() != n_joins {
                return Err(corrupt("EW artifact join count", artifacts.len()));
            }
            workload
                .joins()
                .iter()
                .cloned()
                .zip(artifacts)
                .map(|(spec, art)| {
                    suj_join::ExactWeightSampler::from_artifacts(spec, art)
                        .map(|s| Arc::new(s) as Arc<dyn suj_join::JoinSampler>)
                        .map_err(|e| SnapshotError::Corrupt(e.to_string()))
                })
                .collect::<Result<Vec<_>, _>>()?
        }
        other => return Err(corrupt("EW artifacts presence tag", other)),
    };
    Ok(Params::new(provenance, map, samplers))
}

// ---------------------------------------------------------------------
// Exact-Weight artifact codec (count tables + alias arenas)
// ---------------------------------------------------------------------

fn encode_arena(a: &suj_stats::AliasArena, w: &mut ByteWriter) {
    w.put_u32_slab(a.offsets());
    w.put_f64_slab(a.prob());
    w.put_u32_slab(a.alias_slab());
}

fn decode_arena(r: &mut ByteReader<'_>) -> Result<suj_stats::AliasArena, SnapshotError> {
    let offsets = r.get_u32_slab()?;
    let prob = r.get_f64_slab()?;
    let alias = r.get_u32_slab()?;
    suj_stats::AliasArena::from_parts(offsets, prob, alias).ok_or_else(|| {
        SnapshotError::Corrupt("alias arena slabs violate a structural invariant".into())
    })
}

fn encode_ew_artifacts(artifacts: &[suj_join::EwArtifacts], w: &mut ByteWriter) {
    w.put_u32(artifacts.len() as u32);
    for a in artifacts {
        w.put_u64(a.total);
        w.put_u8(u8::from(a.exact));
        w.put_u32(a.counts.len() as u32);
        for counts in &a.counts {
            w.put_u64_slab(counts);
        }
        for key_counts in &a.key_counts {
            w.put_u64_slab(key_counts);
        }
        for arena in &a.arenas {
            match arena {
                None => w.put_u8(0),
                Some(arena) => {
                    w.put_u8(1);
                    encode_arena(arena, w);
                }
            }
        }
        encode_arena(&a.root_arena, w);
    }
}

/// Inverse of [`encode_ew_artifacts`]. Arena slabs are validated
/// structurally here ([`suj_stats::AliasArena::from_parts`]); the
/// cross-checks against the join spec (column lengths, key-table
/// shapes, total consistency) happen in
/// [`suj_join::ExactWeightSampler::from_artifacts`], in
/// [`decode_params`].
fn decode_ew_artifacts(
    r: &mut ByteReader<'_>,
) -> Result<Vec<suj_join::EwArtifacts>, SnapshotError> {
    let n_joins = r.get_u32()? as usize;
    let mut artifacts = Vec::with_capacity(n_joins.min(1024));
    for _ in 0..n_joins {
        let total = r.get_u64()?;
        let exact = match r.get_u8()? {
            0 => false,
            1 => true,
            other => return Err(corrupt("EW exact flag", other)),
        };
        let n_rels = r.get_u32()? as usize;
        let mut counts = Vec::with_capacity(n_rels.min(1024));
        for _ in 0..n_rels {
            counts.push(r.get_u64_slab()?);
        }
        let mut key_counts = Vec::with_capacity(n_rels.min(1024));
        for _ in 0..n_rels {
            key_counts.push(r.get_u64_slab()?);
        }
        let mut arenas = Vec::with_capacity(n_rels.min(1024));
        for _ in 0..n_rels {
            arenas.push(match r.get_u8()? {
                0 => None,
                1 => Some(decode_arena(r)?),
                other => return Err(corrupt("EW arena presence tag", other)),
            });
        }
        let root_arena = decode_arena(r)?;
        artifacts.push(suj_join::EwArtifacts {
            counts,
            key_counts,
            arenas,
            root_arena,
            total,
            exact,
        });
    }
    Ok(artifacts)
}

// ---------------------------------------------------------------------
// Engine save / load
// ---------------------------------------------------------------------

/// Whether a failed load should try the `.prev` fallback: exactly the
/// storage layer's crash modes
/// ([`fallback_eligible`](suj_storage::snapshot::fallback_eligible)).
/// Non-snapshot errors (e.g. a query that no longer resolves) mean the
/// file decoded fine and the problem is semantic — fallback would only
/// mask it.
fn snapshot_fallback_eligible(e: &CoreError) -> bool {
    matches!(e, CoreError::Snapshot(s) if suj_storage::snapshot::fallback_eligible(s))
}

impl Engine {
    /// Serializes this engine — catalog relations plus every cached
    /// prepared query with its frozen estimated parameters — into the
    /// sectioned snapshot container.
    ///
    /// Prepared entries that did not come through the engine (no
    /// source query) are skipped; everything else restores via
    /// [`load_snapshot_bytes`](Self::load_snapshot_bytes) without
    /// re-estimating. Cache entries are written in fingerprint order,
    /// so the same engine state always produces the same bytes.
    pub fn snapshot_to_bytes(&self) -> Result<Vec<u8>, CoreError> {
        let mut sections: Vec<(u32, Vec<u8>)> = Vec::new();

        let mut meta = ByteWriter::new();
        meta.put_u32(ENGINE_FORMAT_VERSION);
        let config = self.planner().config();
        meta.put_f64(config.bernoulli_max_overlap_ratio);
        meta.put_u64(config.exact_max_base_rows as u64);
        meta.put_f64(config.skewed_cover_ratio);
        meta.put_u8(u8::from(config.use_statistics));
        sections.push((SECTION_ENGINE_META, meta.into_bytes()));

        for name in self.catalog().names() {
            let rel = self.catalog().get(name)?;
            let mut w = ByteWriter::new();
            encode_relation(&rel, &mut w);
            sections.push((SECTION_RELATION, w.into_bytes()));
        }

        for (_fingerprint, prepared) in self.cached_entries() {
            let Some(query) = prepared.source_query() else {
                continue;
            };
            let mut w = ByteWriter::new();
            encode_query(query, &mut w);
            w.put_u64(prepared.prepared().root_seed());
            encode_plan(prepared.plan(), &mut w)?;
            encode_params(prepared.prepared().params(), &mut w);
            sections.push((SECTION_PREPARED, w.into_bytes()));
        }

        Ok(write_sections(&sections))
    }

    /// [`snapshot_to_bytes`](Self::snapshot_to_bytes) written to a
    /// file; returns the bytes written.
    ///
    /// The write is crash-safe
    /// ([`atomic_replace`](suj_storage::snapshot::atomic_replace)):
    /// the bytes are staged at a temp path, fsynced, and atomically
    /// renamed into place, with the previous good snapshot preserved
    /// at `<path>.prev` — a kill at any instant leaves a loadable
    /// snapshot behind ([`load_snapshot`](Self::load_snapshot) falls
    /// back to `.prev` when the newest file is torn).
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<u64, CoreError> {
        let bytes = self.snapshot_to_bytes()?;
        suj_storage::snapshot::atomic_replace(path, &bytes).map_err(CoreError::Snapshot)
    }

    /// Restores an engine from a snapshot file: catalog, planner
    /// config, and every persisted prepared query — **without
    /// re-running parameter estimation** (each restored query reports
    /// [`PreparedQuery::estimations`]` == 0`). The measured restore
    /// cost (snapshot size + wall time) is stamped into every report
    /// the restored queries mint.
    /// When the newest snapshot is missing, truncated, or corrupt, the
    /// load falls back to the previous good snapshot that
    /// [`save_snapshot`](Self::save_snapshot) preserved at
    /// `<path>.prev` (an unsupported format version does *not* fall
    /// back — serving stale data would mask a deployment mismatch).
    /// Only if both fail is the original error returned.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Engine, CoreError> {
        let start = Instant::now();
        let path = path.as_ref();
        let primary = std::fs::read(path)
            .map_err(|e| CoreError::Snapshot(SnapshotError::Io(e.to_string())))
            .and_then(|bytes| Self::load_snapshot_bytes_from(&bytes, start));
        match primary {
            Ok(engine) => Ok(engine),
            Err(e) if snapshot_fallback_eligible(&e) => {
                let prev = suj_storage::snapshot::snapshot_prev_path(path);
                match std::fs::read(prev)
                    .ok()
                    .and_then(|bytes| Self::load_snapshot_bytes_from(&bytes, start).ok())
                {
                    Some(engine) => Ok(engine),
                    None => Err(e),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// [`load_snapshot`](Self::load_snapshot) over an in-memory buffer.
    pub fn load_snapshot_bytes(bytes: &[u8]) -> Result<Engine, CoreError> {
        Self::load_snapshot_bytes_from(bytes, Instant::now())
    }

    /// [`load_snapshot`](Self::load_snapshot) over an in-memory
    /// buffer, with the restore clock started at `start`.
    fn load_snapshot_bytes_from(bytes: &[u8], start: Instant) -> Result<Engine, CoreError> {
        let sections = read_sections(bytes)?;
        let mut iter = sections.into_iter();

        let Some((SECTION_ENGINE_META, meta)) = iter.next() else {
            return Err(CoreError::Snapshot(SnapshotError::Corrupt(
                "engine snapshot must start with a meta section".into(),
            )));
        };
        let mut r = ByteReader::new(meta);
        let format = r.get_u32()?;
        if format != ENGINE_FORMAT_VERSION {
            return Err(CoreError::Snapshot(SnapshotError::UnsupportedVersion(
                format,
            )));
        }
        let planner_config = PlannerConfig {
            bernoulli_max_overlap_ratio: r.get_f64()?,
            exact_max_base_rows: usize::try_from(r.get_u64()?)
                .map_err(|_| SnapshotError::Corrupt("exact_max_base_rows overflow".into()))?,
            skewed_cover_ratio: r.get_f64()?,
            use_statistics: r.get_u8()? != 0,
        };

        let mut catalog = Catalog::new();
        let mut prepared_payloads: Vec<&[u8]> = Vec::new();
        for (kind, payload) in iter {
            match kind {
                SECTION_RELATION => {
                    let mut r = ByteReader::new(payload);
                    catalog.register_arc(Arc::new(decode_relation(&mut r)?))?;
                }
                SECTION_PREPARED => prepared_payloads.push(payload),
                other => {
                    return Err(CoreError::Snapshot(SnapshotError::Corrupt(format!(
                        "unknown engine section kind {other}"
                    ))))
                }
            }
        }

        let engine = Engine::with_planner(catalog, Planner::new(planner_config));
        let snapshot_bytes = bytes.len() as u64;
        for payload in prepared_payloads {
            let mut r = ByteReader::new(payload);
            let query = decode_query(&mut r)?;
            let root_seed = r.get_u64()?;
            let resolved = query.resolve(engine.catalog())?;
            let mut plan = decode_plan(&mut r, &resolved.workload)?;

            // The parameters describe the workload as sampled: replay
            // the push-down rewrite first; a reject-mode predicate goes
            // to the freeze.
            let mut builder_predicate = None;
            let workload = match (resolved.predicate, plan.predicate_mode) {
                (Some(p), Some(PredicateMode::PushDown)) => {
                    push_down_workload(&resolved.workload, &p)?
                }
                (Some(p), Some(mode)) => {
                    builder_predicate = Some((p, mode));
                    resolved.workload.clone()
                }
                _ => resolved.workload.clone(),
            };
            plan.params = decode_params(&mut r, &workload)?;
            if !r.is_empty() {
                return Err(CoreError::Snapshot(SnapshotError::Corrupt(format!(
                    "{} trailing bytes after a prepared entry",
                    r.remaining()
                ))));
            }
            plan.stats = WorkloadStats::of(&resolved.workload, &plan.params);
            let mut builder = SamplerBuilder::for_workload(workload).estimation_seed(root_seed);
            if let Some((p, mode)) = builder_predicate {
                builder = builder.predicate(p, mode);
            }
            let mut prepared = builder.freeze_plan(Some(&plan))?;
            prepared.set_restore_cost(snapshot_bytes, start.elapsed());
            let restored = Arc::new(PreparedQuery::from_query_parts(
                query.clone(),
                plan,
                prepared,
            ));
            engine.install_prepared(&query, restored);
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suj_storage::{CompareOp, Predicate, Relation, Schema, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Relation {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Relation::new(name, schema, tuples).unwrap()
    }

    fn shop_engine() -> Engine {
        let mut c = Catalog::new();
        c.register(rel(
            "a_items",
            &["sku", "cat"],
            vec![vec![1, 7], vec![2, 7], vec![3, 9]],
        ))
        .unwrap();
        c.register(rel(
            "a_sales",
            &["sale", "sku"],
            vec![vec![100, 1], vec![101, 1], vec![102, 2]],
        ))
        .unwrap();
        c.register(rel(
            "b_items",
            &["sku", "cat"],
            vec![vec![1, 7], vec![5, 9]],
        ))
        .unwrap();
        c.register(rel(
            "b_sales",
            &["sale", "sku"],
            vec![vec![100, 1], vec![200, 5]],
        ))
        .unwrap();
        Engine::new(c)
    }

    fn shop_query() -> UnionQuery {
        UnionQuery::set_union()
            .chain("shop_a", ["a_items", "a_sales"])
            .unwrap()
            .chain("shop_b", ["b_items", "b_sales"])
            .unwrap()
    }

    #[test]
    fn query_codec_round_trip_preserves_debug_identity() {
        let queries = vec![
            shop_query(),
            UnionQuery::disjoint_union()
                .chain("only_a", ["a_items", "a_sales"])
                .unwrap(),
            shop_query().predicate(Predicate::cmp("cat", CompareOp::Le, Value::int(7))),
            shop_query()
                .predicate(Predicate::cmp("cat", CompareOp::Gt, Value::int(1)))
                .predicate_mode(PredicateMode::Reject),
        ];
        for q in queries {
            let mut w = ByteWriter::new();
            encode_query(&q, &mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let restored = decode_query(&mut r).unwrap();
            assert!(r.is_empty());
            // Fingerprint stability: Debug formatting must coincide.
            assert_eq!(format!("{q:?}"), format!("{restored:?}"));
        }
    }

    #[test]
    fn engine_round_trip_restores_catalog_and_planner() {
        let engine = shop_engine();
        engine.prepare(&shop_query()).unwrap();
        let bytes = engine.snapshot_to_bytes().unwrap();
        let restored = Engine::load_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.catalog().len(), engine.catalog().len());
        let names: Vec<&str> = restored.catalog().names().collect();
        assert_eq!(names, vec!["a_items", "a_sales", "b_items", "b_sales"]);
        assert_eq!(
            restored.catalog().total_rows(),
            engine.catalog().total_rows()
        );
        assert_eq!(restored.cached_queries(), 1);
    }

    #[test]
    fn restored_queries_skip_estimation_and_replay_samples() {
        let engine = shop_engine();
        let original = engine.prepare(&shop_query()).unwrap();
        let bytes = engine.snapshot_to_bytes().unwrap();
        let restored_engine = Engine::load_snapshot_bytes(&bytes).unwrap();
        let restored = restored_engine.prepare(&shop_query()).unwrap();
        // The restore installed the entry in the cache: prepare() was a
        // cache hit and paid no estimation.
        assert_eq!(
            restored.estimations(),
            0,
            "restore must not re-run estimation"
        );
        for seed in [0u64, 7, 41] {
            let (a, _) = original.sample(10, seed).unwrap();
            let (b, _) = restored.sample(10, seed).unwrap();
            assert_eq!(a, b, "seed {seed} diverged after restore");
        }
        // Restore cost is stamped into reports.
        let report = restored.report();
        assert_eq!(report.snapshot_bytes, bytes.len() as u64);
        assert!(report.restore_time > std::time::Duration::ZERO);
        assert!(report.summary().contains("snapshot_bytes="));
        // The donor never carried a restore cost.
        assert_eq!(original.report().snapshot_bytes, 0);
    }

    #[test]
    fn pushed_down_predicate_survives_restore() {
        let engine = shop_engine();
        let q = shop_query().predicate(Predicate::cmp("cat", CompareOp::Le, Value::int(7)));
        let original = engine.prepare(&q).unwrap();
        let bytes = engine.snapshot_to_bytes().unwrap();
        let restored_engine = Engine::load_snapshot_bytes(&bytes).unwrap();
        let restored = restored_engine.prepare(&q).unwrap();
        assert_eq!(restored.estimations(), 0);
        let (a, _) = original.sample(12, 3).unwrap();
        let (b, _) = restored.sample(12, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn disjoint_semantics_survive_restore() {
        let engine = shop_engine();
        let q = UnionQuery::disjoint_union()
            .chain("shop_a", ["a_items", "a_sales"])
            .unwrap()
            .chain("shop_b", ["b_items", "b_sales"])
            .unwrap();
        let original = engine.prepare(&q).unwrap();
        let bytes = engine.snapshot_to_bytes().unwrap();
        let restored_engine = Engine::load_snapshot_bytes(&bytes).unwrap();
        let restored = restored_engine.prepare(&q).unwrap();
        assert_eq!(restored.estimations(), 0);
        let (a, _) = original.sample(9, 5).unwrap();
        let (b, _) = restored.sample(9, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn save_and_load_via_file() {
        let engine = shop_engine();
        engine.prepare(&shop_query()).unwrap();
        let dir = std::env::temp_dir().join("suj_core_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snap");
        let written = engine.save_snapshot(&path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let restored = Engine::load_snapshot(&path).unwrap();
        assert_eq!(restored.cached_queries(), 1);
        let prepared = restored.prepare(&shop_query()).unwrap();
        assert_eq!(prepared.estimations(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_newest_snapshot_falls_back_to_previous_good_one() {
        let dir = std::env::temp_dir().join("suj_core_snapshot_fallback_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snap");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(suj_storage::snapshot::snapshot_prev_path(&path)).ok();

        // Snapshot v1: one prepared query.
        let engine = shop_engine();
        engine.prepare(&shop_query()).unwrap();
        engine.save_snapshot(&path).unwrap();
        // Snapshot v2: two prepared queries; v1 survives as `.prev`.
        engine
            .prepare(
                &UnionQuery::set_union()
                    .chain("only_a", ["a_items", "a_sales"])
                    .unwrap(),
            )
            .unwrap();
        engine.save_snapshot(&path).unwrap();
        assert!(suj_storage::snapshot::snapshot_prev_path(&path).exists());
        assert_eq!(Engine::load_snapshot(&path).unwrap().cached_queries(), 2);

        // Kill-mid-write simulation: the newest file is torn.
        let v2 = std::fs::read(&path).unwrap();
        std::fs::write(&path, &v2[..v2.len() / 2]).unwrap();
        let fallback = Engine::load_snapshot(&path).unwrap();
        assert_eq!(
            fallback.cached_queries(),
            1,
            "torn newest snapshot must fall back to the previous good one"
        );
        // A torn staging file never affects the load.
        std::fs::write(suj_storage::snapshot::snapshot_tmp_path(&path), b"junk").unwrap();
        assert_eq!(Engine::load_snapshot(&path).unwrap().cached_queries(), 1);

        // Both generations bad: the original (primary) error surfaces.
        std::fs::write(suj_storage::snapshot::snapshot_prev_path(&path), b"junk").unwrap();
        assert!(matches!(
            Engine::load_snapshot(&path),
            Err(CoreError::Snapshot(_))
        ));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(suj_storage::snapshot::snapshot_prev_path(&path)).ok();
        std::fs::remove_file(suj_storage::snapshot::snapshot_tmp_path(&path)).ok();
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let make = || {
            let engine = shop_engine();
            engine.prepare(&shop_query()).unwrap();
            engine
                .prepare(
                    &UnionQuery::set_union()
                        .chain("only_a", ["a_items", "a_sales"])
                        .unwrap(),
                )
                .unwrap();
            engine.snapshot_to_bytes().unwrap()
        };
        assert_eq!(make(), make(), "same state must serialize identically");
    }

    #[test]
    fn corrupted_engine_snapshots_fail_with_named_errors() {
        let engine = shop_engine();
        engine.prepare(&shop_query()).unwrap();
        let bytes = engine.snapshot_to_bytes().unwrap();
        // Truncation at every prefix is a snapshot error, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    Engine::load_snapshot_bytes(&bytes[..cut]),
                    Err(CoreError::Snapshot(_))
                ),
                "truncation at {cut} must fail with a snapshot error"
            );
        }
        // A flipped payload byte breaks a checksum.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        match Engine::load_snapshot_bytes(&bad) {
            Err(CoreError::Snapshot(
                SnapshotError::ChecksumMismatch { .. } | SnapshotError::Truncated,
            )) => {}
            other => panic!("expected checksum/truncated error, got {other:?}"),
        }
        // A wrong magic is named.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Engine::load_snapshot_bytes(&bad),
            Err(CoreError::Snapshot(SnapshotError::BadMagic))
        ));

        // Locate the prepared entry's encoded parameters: everything
        // after its query, root seed, and plan tags.
        let sections = read_sections(&bytes).unwrap();
        let entry = sections
            .iter()
            .position(|(kind, _)| *kind == SECTION_PREPARED)
            .unwrap();
        let payload = sections[entry].1;
        let mut r = ByteReader::new(payload);
        let resolved = decode_query(&mut r)
            .unwrap()
            .resolve(engine.catalog())
            .unwrap();
        r.get_u64().unwrap();
        decode_plan(&mut r, &resolved.workload).unwrap();
        let head = payload.len() - r.remaining();
        let offset = payload.as_ptr() as usize - bytes.as_ptr() as usize;
        // A bit flip anywhere inside them trips the section checksum.
        for pos in offset + head..offset + payload.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                matches!(
                    Engine::load_snapshot_bytes(&bad),
                    Err(CoreError::Snapshot(SnapshotError::ChecksumMismatch { .. }))
                ),
                "flip at parameter byte {pos}"
            );
        }
        // Behind a re-forged checksum, every truncation of the
        // parameters (and any trailing garbage) is still a snapshot
        // error.
        let owned: Vec<(u32, Vec<u8>)> = sections.iter().map(|(k, p)| (*k, p.to_vec())).collect();
        let forged = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut sections = owned.clone();
            edit(&mut sections[entry].1);
            Engine::load_snapshot_bytes(&write_sections(&sections))
        };
        for cut in head..payload.len() {
            assert!(
                matches!(forged(&|p| p.truncate(cut)), Err(CoreError::Snapshot(_))),
                "parameters cut at {cut}"
            );
        }
        assert!(matches!(
            forged(&|p| p.push(0)),
            Err(CoreError::Snapshot(SnapshotError::Corrupt(_)))
        ));
    }

    #[test]
    fn empty_cache_snapshot_restores_catalog_only() {
        let engine = shop_engine();
        let bytes = engine.snapshot_to_bytes().unwrap();
        let restored = Engine::load_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.cached_queries(), 0);
        assert_eq!(restored.catalog().len(), 4);
        // The restored replica can still prepare from scratch.
        assert!(restored.prepare(&shop_query()).is_ok());
    }
}
