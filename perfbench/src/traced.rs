//! The traced run: per-layer costs measured from outside the program.
//!
//! Each request of the workload's own stream (same `n`, same seeds) is
//! replayed once per layer, top to bottom:
//!
//! ```text
//! wire     suj_net Client::sample over loopback TCP
//! service  SamplingService::submit -> Ticket::wait (in process)
//! query    PreparedQuery::sample            (mint + union + bookkeeping)
//! mint     PreparedQuery::sampler
//! union    UnionSampler::sample on the minted handle
//! join     JoinSampler::sample_rows + materialize, as many accepted
//!          draws per join as the union run's `join_draws`
//! ```
//!
//! Every call is wrapped in a span (name, start, end, parent, request
//! id). A span's parent is the layer above for the same request; the
//! layers run one after another, so a layer's self time is its span's
//! duration minus that of its child (the `query` span has two children,
//! `mint` and `union`). Spans stay in memory and are written to
//! `perfbench/out/` when the run ends. Spans inside the program are not
//! recorded.
//!
//! The tracing overhead is measured by running the workload's own loop
//! twice, untraced and with a span per request, and comparing the two.

use crate::checks::{merge_all, Checker};
use crate::e2e::SERVE_RATES;
use crate::setup::{ms, Served, Workload, WORKERS};
use crate::stats::{mean, median, quantile};
use crate::Outcome;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use suj_core::catalog::PreparedQuery;
use suj_core::serve::{SampleRequest, SamplingService, ServiceConfig};
use suj_join::weights::build_sampler;
use suj_join::{JoinSampler, RowDraw, WeightKind};
use suj_net::protocol::{decode_batch, encode_batch};
use suj_net::{Client, RemotePrepared};
use suj_stats::SujRng;
use suj_storage::Tuple;

/// Attempts allowed per accepted join draw before the replay gives up.
const MAX_JOIN_TRIES: u64 = 1_000_000;

struct Span {
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Reserves a span so children can name it before it runs.
    fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside span `id`.
    fn time<T>(&mut self, id: usize, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.close(id, start, end);
        out
    }

    fn close(&mut self, id: usize, start_ns: u64, end_ns: u64) {
        self.spans[id].start_ns = start_ns;
        self.spans[id].end_ns = end_ns;
    }

    fn secs(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 * 1e-9
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-request span ids of one replay.
struct Replay {
    wire: usize,
    service: usize,
    query: usize,
    mint: usize,
    union: usize,
    join: usize,
}

/// Sums over all replayed requests.
#[derive(Default)]
struct Totals {
    requests: u64,
    tuples: u64,
    join_accepted: u64,
    join_attempts: u64,
    union_accepted: u64,
    union_attempts: u64,
    encode_s: f64,
    decode_s: f64,
    wire_bytes: u64,
}

struct Layers<'a> {
    served: &'a mut Served,
    service: SamplingService,
    /// Join samplers per instance, built like the plan's.
    samplers: Vec<Vec<Box<dyn JoinSampler>>>,
    attrs: Vec<Arc<str>>,
    n: usize,
}

/// Runs the traced replay of `workload` for about `seconds`.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::new(workload, seed);
    let mut served = Served::setup(workload, seed, true)?;
    let mut checkers = served.checkers()?;
    out.metric("tpch.gen_ms", served.timing.gen_ms, "ms");
    out.metric("planner.prepare_ms", served.timing.prepare_ms, "ms");

    let t = Instant::now();
    let mut samplers = Vec::new();
    for prepared in &served.prepared {
        let kind = prepared.plan().weights.unwrap_or(WeightKind::Exact);
        let built = prepared
            .workload()
            .joins()
            .iter()
            .map(|spec| build_sampler(spec.clone(), kind).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        samplers.push(built);
    }
    out.metric("join.build_ms", ms(t), "ms");
    let attrs = served.prepared[0]
        .workload()
        .canonical_schema()
        .attrs()
        .to_vec();
    let service =
        SamplingService::start(served.engine.clone(), ServiceConfig::with_workers(WORKERS));
    let n = workload.request_n();
    let mut layers = Layers {
        served: &mut served,
        service,
        samplers,
        attrs,
        n,
    };

    let mut tracer = Tracer::new();
    let mut seeds = SujRng::seed_from_u64(seed ^ 0x0bad_5eed);
    let mut totals = Totals::default();
    let mut replays = Vec::new();
    let stop = Instant::now() + Duration::from_secs_f64(seconds * 0.6);
    while replays.len() < 3 || Instant::now() < stop {
        let request = replays.len() as u64;
        let instances = checkers.len();
        let checker = &mut checkers[request as usize % instances];
        let replay = layers.replay(&mut tracer, checker, &mut totals, request, seeds.next_u64())?;
        replays.push(replay);
    }
    layers.service.shutdown();

    let (overhead_pct, gen_late_ms) = overhead(
        layers.served,
        &mut tracer,
        &mut checkers,
        &mut seeds,
        seconds * 0.2,
    )?;
    report(
        &mut out,
        &tracer,
        &replays,
        &totals,
        overhead_pct,
        gen_late_ms,
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.line(format!(
        "{} spans written to {}",
        tracer.spans.len(),
        path.display()
    ));
    out.checker = Some(merge_all(checkers));
    served.close()?;
    Ok(out)
}

impl Layers<'_> {
    /// Replays one request through every layer. The order of the layer
    /// blocks rotates per request, so no layer always runs on caches
    /// the previous one warmed.
    fn replay(
        &mut self,
        tracer: &mut Tracer,
        checker: &mut Checker,
        totals: &mut Totals,
        request: u64,
        seed: u64,
    ) -> Result<Replay, String> {
        let n = self.n;
        let k = request as usize % self.served.instances();
        let wire = tracer.open("wire", request, None);
        let service = tracer.open("service", request, Some(wire));
        let query = tracer.open("query", request, Some(service));
        let mint = tracer.open("mint", request, Some(query));
        let union = tracer.open("union", request, Some(query));
        let join = tracer.open("join", request, Some(union));
        let ids = Replay {
            wire,
            service,
            query,
            mint,
            union,
            join,
        };
        let (mut wire_tuples, mut service_tuples, mut query_tuples) = (None, None, None);
        let mut union_tuples = None;
        for block in 0..4 {
            match (block + request) % 4 {
                0 => {
                    let remote = self.served.remote[k].clone();
                    let client = self.served.client.as_mut().ok_or("no client")?;
                    let batch = tracer.time(wire, || client.sample(&remote, n, seed));
                    match batch {
                        Ok(batch) => {
                            checker.response(n, Some(&batch.attrs), &batch.tuples);
                            self.codec(totals, &batch.tuples)?;
                            wire_tuples = Some(batch.tuples);
                        }
                        Err(e) => checker.error(&e),
                    }
                }
                1 => {
                    let req = SampleRequest::prepared(request, n, &self.served.prepared[k])
                        .with_seed(seed);
                    let svc = &self.service;
                    let response = tracer.time(service, || match svc.submit(req) {
                        Ok(ticket) => ticket.wait(),
                        Err(e) => Err(e.into()),
                    });
                    match response {
                        Ok(response) => service_tuples = Some(response.tuples),
                        Err(e) => checker.error(&e),
                    }
                }
                2 => {
                    let prepared = &self.served.prepared[k];
                    match tracer.time(query, || prepared.sample(n, seed)) {
                        Ok((tuples, _)) => query_tuples = Some(tuples),
                        Err(e) => checker.error(&e),
                    }
                }
                _ => {
                    union_tuples = Some(self.union_and_join(tracer, &ids, totals, k, seed)?);
                }
            }
        }
        // Every layer that answered must return the same tuples for the
        // same seed (a layer that errored is already counted).
        let answers: Vec<&Vec<Tuple>> =
            [&wire_tuples, &service_tuples, &query_tuples, &union_tuples]
                .into_iter()
                .flatten()
                .collect();
        for other in answers.iter().skip(1) {
            checker.replay(answers[0], other);
        }
        totals.requests += 1;
        totals.tuples += n as u64;
        Ok(ids)
    }

    /// The union layer on a freshly minted handle, then the join layer
    /// replaying as many accepted draws per join as the union made.
    fn union_and_join(
        &mut self,
        tracer: &mut Tracer,
        ids: &Replay,
        totals: &mut Totals,
        k: usize,
        seed: u64,
    ) -> Result<Vec<Tuple>, String> {
        let prepared: &PreparedQuery = &self.served.prepared[k];
        let mut handle = tracer
            .time(ids.mint, || prepared.sampler(seed))
            .map_err(|e| e.to_string())?;
        let mut rng = prepared.rng(seed);
        let n = self.n;
        let (tuples, report) = tracer
            .time(ids.union, || handle.sample(n, &mut rng))
            .map_err(|e| e.to_string())?;
        totals.union_accepted += report.accepted;
        totals.union_attempts += report.attempts();

        let samplers = &self.samplers[k];
        let mut join_rng = SujRng::derive(seed, 1);
        let (accepted, attempts) = tracer.time(ids.join, || {
            let mut draw = RowDraw::new();
            let (mut accepted, mut attempts) = (0u64, 0u64);
            for (sampler, &draws) in samplers.iter().zip(&report.join_draws) {
                for _ in 0..draws {
                    for _ in 0..MAX_JOIN_TRIES {
                        attempts += 1;
                        if sampler.sample_rows(&mut join_rng, &mut draw) {
                            std::hint::black_box(sampler.materialize(&draw));
                            accepted += 1;
                            break;
                        }
                    }
                }
            }
            (accepted, attempts)
        });
        totals.join_accepted += accepted;
        totals.join_attempts += attempts;
        Ok(tuples)
    }

    /// Re-encodes and decodes a real response with the wire codec.
    fn codec(&self, totals: &mut Totals, tuples: &[Tuple]) -> Result<(), String> {
        let t = Instant::now();
        let payload = encode_batch(&self.attrs, tuples);
        totals.encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let decoded = decode_batch(&payload).map_err(|e| e.to_string())?;
        totals.decode_s += t.elapsed().as_secs_f64();
        totals.wire_bytes += payload.len() as u64;
        if decoded.1 != tuples {
            return Err("wire codec round trip changed the tuples".into());
        }
        Ok(())
    }
}

/// Tracing overhead: the workload's own loop untraced and traced, in
/// alternating halves; returns the overhead in percent of the untraced
/// median latency, and how late the client sent (open loop: behind its
/// schedule; closed loop: gap after the previous response), in ms.
fn overhead(
    served: &mut Served,
    tracer: &mut Tracer,
    checkers: &mut [Checker],
    seeds: &mut SujRng,
    seconds: f64,
) -> Result<(f64, f64), String> {
    let workload = served.workload;
    let n = workload.request_n();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut gaps = Vec::new();
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    if workload == Workload::Uq2Serve {
        // Open loop on one connection at its share of the `mid` rate,
        // alternating untraced and traced halves.
        let rate = SERVE_RATES[1].1 / 2.0;
        let remote = served
            .remote
            .first()
            .cloned()
            .ok_or("no remote prepared query")?;
        let client = served.client.as_mut().ok_or("no client")?;
        for traced_half in [false, true, false, true] {
            let half = (seconds / 4.0).max(0.05);
            let checker = &mut checkers[0];
            let (lat, late) = open_loop_half(
                client,
                &remote,
                checker,
                tracer,
                traced_half,
                n,
                seeds.next_u64(),
                rate,
                half,
            );
            gaps.extend(late);
            if traced_half {
                traced.extend(lat)
            } else {
                plain.extend(lat)
            }
        }
    } else {
        let mut last_end: Option<Instant> = None;
        let mut i = 0u64;
        while i < 4 || Instant::now() < stop {
            let seed = seeds.next_u64();
            let sent = Instant::now();
            if let Some(end) = last_end {
                gaps.push((sent - end).as_secs_f64());
            }
            let with_span = i % 2 == 1;
            let id = with_span.then(|| tracer.open("request", 1_000_000 + i, None));
            let start_ns = tracer.now_ns();
            // Pairs of consecutive requests (one plain, one traced) hit
            // the same instance.
            let k = (i / 2) as usize % served.instances();
            let result = served.request(k, n, seed);
            let dt = sent.elapsed().as_secs_f64();
            if let Some(id) = id {
                let end_ns = tracer.now_ns();
                tracer.close(id, start_ns, end_ns);
                traced.push(dt);
            } else {
                plain.push(dt);
            }
            last_end = Some(Instant::now());
            match result {
                Ok((attrs, tuples)) => {
                    checkers[k].response(n, attrs.as_deref(), &tuples);
                }
                Err(e) => checkers[k].error(&e),
            }
            i += 1;
        }
    }
    let pct = (median(&traced) / median(&plain) - 1.0) * 100.0;
    Ok((pct, mean(&gaps) * 1e3))
}

/// One open-loop half on one connection; returns latencies from due time
/// and send lateness, both in seconds.
#[allow(clippy::too_many_arguments)]
fn open_loop_half(
    client: &mut Client,
    remote: &RemotePrepared,
    checker: &mut Checker,
    tracer: &mut Tracer,
    traced: bool,
    n: usize,
    seed: u64,
    rate: f64,
    seconds: f64,
) -> (Vec<f64>, Vec<f64>) {
    let mut seeds = SujRng::seed_from_u64(seed);
    let start = Instant::now() + Duration::from_millis(2);
    let (mut latencies, mut lateness) = (Vec::new(), Vec::new());
    for i in 0u64.. {
        let at = i as f64 / rate;
        if at >= seconds {
            break;
        }
        let due = start + Duration::from_secs_f64(at);
        while Instant::now() < due {
            std::thread::sleep(Duration::from_micros(20).min(due - Instant::now()));
        }
        lateness.push(due.elapsed().as_secs_f64());
        let id = traced.then(|| tracer.open("request", 2_000_000 + i, None));
        let start_ns = tracer.now_ns();
        let result = client.sample(remote, n, seeds.next_u64());
        if let Some(id) = id {
            let end_ns = tracer.now_ns();
            tracer.close(id, start_ns, end_ns);
        }
        latencies.push(due.elapsed().as_secs_f64());
        match result {
            Ok(batch) => {
                checker.response(n, Some(&batch.attrs), &batch.tuples);
            }
            Err(e) => checker.error(&e),
        }
    }
    (latencies, lateness)
}

/// Turns the spans and totals into per-layer metrics and a waterfall.
fn report(
    out: &mut Outcome,
    tracer: &Tracer,
    replays: &[Replay],
    totals: &Totals,
    overhead_pct: f64,
    gen_late_ms: f64,
) {
    let per_request = |f: &dyn Fn(&Replay) -> f64| -> f64 {
        replays.iter().map(f).sum::<f64>() / replays.len() as f64
    };
    let d = |id: usize| tracer.secs(id);
    let wire = per_request(&|r| d(r.wire));
    let service = per_request(&|r| d(r.service));
    let query = per_request(&|r| d(r.query));
    let mint = per_request(&|r| d(r.mint));
    let union = per_request(&|r| d(r.union));
    let join = per_request(&|r| d(r.join));
    let tuples_per_request = totals.tuples as f64 / totals.requests as f64;
    let per_tuple_ns = |secs: f64| secs * 1e9 / tuples_per_request;

    out.metric(
        "join.ns_per_tuple",
        join * totals.requests as f64 * 1e9 / totals.join_accepted.max(1) as f64,
        "ns",
    );
    out.metric(
        "join.accept_ratio",
        totals.join_accepted as f64 / totals.join_attempts.max(1) as f64,
        "ratio",
    );
    out.metric("union.ns_per_tuple", per_tuple_ns(union), "ns");
    out.metric("union.added_ns_per_tuple", per_tuple_ns(union - join), "ns");
    out.metric(
        "union.accept_ratio",
        totals.union_accepted as f64 / totals.union_attempts.max(1) as f64,
        "ratio",
    );
    out.metric("query.mint_us", mint * 1e6, "us");
    out.metric("query.ns_per_tuple", per_tuple_ns(query), "ns");
    let queue_waits: Vec<f64> = replays.iter().map(|r| d(r.service) - d(r.query)).collect();
    let wire_added: Vec<f64> = replays.iter().map(|r| d(r.wire) - d(r.service)).collect();
    out.metric("service.request_us", service * 1e6, "us");
    out.metric("service.queue_wait_us", median(&queue_waits) * 1e6, "us");
    out.metric("wire.request_us", wire * 1e6, "us");
    out.metric("wire.added_us", median(&wire_added) * 1e6, "us");
    out.metric(
        "wire.encode_ns_per_tuple",
        totals.encode_s * 1e9 / totals.tuples as f64,
        "ns",
    );
    out.metric(
        "wire.decode_ns_per_tuple",
        totals.decode_s * 1e9 / totals.tuples as f64,
        "ns",
    );
    out.metric(
        "wire.bytes_per_tuple",
        totals.wire_bytes as f64 / totals.tuples as f64,
        "B",
    );
    out.metric("client.gen_late_ms", gen_late_ms, "ms");

    // Waterfall: mean time per request at each layer and its self time.
    let rows = [
        ("wire", wire, wire - service),
        ("service", service, service - query),
        ("query", query, query - mint - union),
        ("mint", mint, mint),
        ("union", union, union - join),
        ("join", join, join),
    ];
    for (name, total, own) in rows {
        out.metric(&format!("self.{name}_us"), own * 1e6, "us");
        out.line(format!(
            "waterfall {name:<8} {:>12.1} us/request  self {:>12.1} us  ({:>5.1}% of wire)",
            total * 1e6,
            own * 1e6,
            own / wire * 100.0
        ));
    }
    let lat: Vec<f64> = replays.iter().map(|r| d(r.wire)).collect();
    out.line(format!(
        "replayed {} requests of {} tuples; wire p50 {:.1} us p90 {:.1} us",
        totals.requests,
        tuples_per_request,
        median(&lat) * 1e6,
        quantile(&lat, 0.9) * 1e6
    ));
    out.metric("trace.overhead_pct", overhead_pct, "%");
    out.line(format!(
        "workload={} tracing overhead={overhead_pct:.2}% (traced vs untraced median request latency, same run)",
        out.workload.name()
    ));
}
