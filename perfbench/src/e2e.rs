//! Untraced end-to-end runs: the numbers a user of the system sees.

use crate::checks::{merge_all, tv_noise_floor, Checker};
use crate::setup::{Served, Workload};
use crate::stats::{median, quantile, Latency};
use crate::{peak_rss_mb, Outcome};
use std::time::{Duration, Instant};
use suj_net::{Client, RemotePrepared};
use suj_stats::SujRng;
use suj_storage::Tuple;

/// Every `REPLAY_EVERY`-th response is compared with the in-process
/// `PreparedQuery::sample` for the same seed.
const REPLAY_EVERY: u64 = 8;
/// Windows a phase is cut into; timed figures are window medians.
const WINDOWS: usize = 9;

/// Open-loop rates of `uq2_serve` (requests per second over both
/// connections), with the share of the run each rung gets.
pub const SERVE_RATES: [(&str, f64, f64); 3] = [
    ("low", 1000.0, 0.20),
    ("mid", 2000.0, 0.30),
    ("high", 4000.0, 0.15),
];
/// Rungs above `high`, climbed while the latency limit holds.
const EXTRA_RATES: [f64; 2] = [6000.0, 8000.0];
const EXTRA_SHARE: f64 = 0.05;
/// Share of a `uq2_serve` run spent in the closed-loop capacity phase.
const SATURATION_SHARE: f64 = 0.20;
/// The serving latency limit: p99 at most 1 ms.
pub const P99_LIMIT_S: f64 = 1e-3;

/// Runs `workload` untraced for `seconds` of measurement.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut served = None;
    for i in 0..workload.setups() {
        let s = Served::setup(workload, seed, workload.over_tcp())?;
        setup_s.push(s.timing.total_s);
        if i + 1 < workload.setups() {
            s.close()?;
        } else {
            served = Some(s);
        }
    }
    let mut served = served.ok_or("no set-up ran")?;
    let mut checkers = served.checkers()?;
    let mut out = Outcome::new(workload, seed);
    out.line(format!(
        "plan: {} | instances={} base_rows={} union_size={}",
        served.prepared[0].summary(),
        served.instances(),
        served.base_rows,
        checkers[0]
            .union_size()
            .map_or("not materialized".into(), |n| n.to_string()),
    ));
    out.metric("setup_s", median(&setup_s), "s");
    out.line(format!(
        "setup_s samples={} median of {:?} (last: gen {:.1} ms, prepare {:.1} ms, bind {:.2} ms, remote prepare {:.2} ms)",
        setup_s.len(),
        setup_s.iter().map(|s| round3(*s)).collect::<Vec<_>>(),
        served.timing.gen_ms,
        served.timing.prepare_ms,
        served.timing.bind_ms,
        served.timing.remote_prepare_ms,
    ));

    let mut seeds = SujRng::seed_from_u64(seed ^ 0x0bad_5eed);
    let checker = match workload {
        Workload::Uq1Bulk | Workload::TriangleUnion => {
            closed_loop(&mut served, &mut checkers, &mut seeds, seconds, &mut out)?
        }
        Workload::Uq2Serve => serve_ladder(&mut served, &checkers, &mut seeds, seconds, &mut out)?,
    };

    out.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    out.metric("prepared_mb", served.prepared_mb()?, "MB");
    let fail_rate = checker.failed as f64 / checker.attempted.max(1) as f64;
    out.line(format!(
        "fail_rate={fail_rate} ({}/{} requests; replays compared={}; reasons: {})",
        checker.failed,
        checker.attempted,
        checker.replays_compared,
        checker.reasons()
    ));
    out.checker = Some(checker);
    served.close()?;
    Ok(out)
}

/// One closed-loop client: `uq1_bulk` over one TCP connection,
/// `triangle_union` in process on one thread, round-robin over the
/// workload's instances. Runs until the timed request time reaches
/// `seconds`; checks happen between requests, outside the timing.
/// Returns the merged checks.
fn closed_loop(
    served: &mut Served,
    checkers: &mut [Checker],
    seeds: &mut SujRng,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Checker, String> {
    let n = out.workload.request_n();
    let k = served.instances();
    // Warm-up: connections, caches, allocator.
    for i in 0..2.max(k) {
        served.request(i % k, n, seeds.next_u64())?;
    }
    let mut latencies = Vec::new();
    let mut delivered = Vec::new();
    let mut busy = 0.0;
    let mut index = 0u64;
    while busy < seconds {
        let seed = seeds.next_u64();
        let instance = index as usize % k;
        let checker = &mut checkers[instance];
        let t = Instant::now();
        let result = served.request(instance, n, seed);
        let dt = t.elapsed().as_secs_f64();
        busy += dt;
        latencies.push(dt);
        let before = checker.checked_tuples;
        match result {
            Err(e) => checker.error(&e),
            Ok((attrs, tuples)) => {
                if checker.response(n, attrs.as_deref(), &tuples)
                    && index.is_multiple_of(REPLAY_EVERY)
                {
                    let (reference, _) = served.prepared[instance]
                        .sample(n, seed)
                        .map_err(|e| e.to_string())?;
                    checker.replay(&tuples, &reference);
                }
            }
        }
        delivered.push((checker.checked_tuples - before) as f64);
        index += 1;
    }
    // Throughput per window of consecutive requests; the median window
    // is reported, so a short stall elsewhere on the machine does not
    // move it.
    let chunk = latencies.len().div_ceil(WINDOWS);
    let rates: Vec<f64> = latencies
        .chunks(chunk)
        .zip(delivered.chunks(chunk))
        .map(|(lat, tup)| tup.iter().sum::<f64>() / lat.iter().sum::<f64>())
        .collect();
    let lat = Latency::of(&latencies);
    out.metric("tuples_per_s", median(&rates), "1/s");
    out.metric("request_p50_ms", lat.p50 * 1e3, "ms");
    out.figure("request_p90_ms", lat.p90 * 1e3, "ms");
    out.line(format!(
        "closed loop, 1 {} over {k} instance(s): {} requests of {n} tuples, {busy:.2} s timed; tuples_per_s is the median of windows {:?}; p50/p90 over {} samples",
        if out.workload.over_tcp() { "TCP connection" } else { "thread" },
        lat.count,
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        lat.count
    ));
    Ok(merge_all(checkers.to_vec()))
}

/// `sample_tv`: the mean over instances of each instance's TV distance
/// from uniform, next to the mean noise floor at the same counts.
fn report_tv(out: &mut Outcome, checkers: &[Checker]) {
    let (mut tv, mut floor, mut draws) = (0.0, 0.0, 0);
    for c in checkers {
        let Some((t, d)) = c.sample_tv() else { return };
        tv += t / checkers.len() as f64;
        floor += tv_noise_floor(c.union_size().unwrap_or(0), d, 7) / checkers.len() as f64;
        draws += d;
    }
    out.line(format!(
        "sample_tv={tv} (mean over {} instances, {draws} served tuples; uniform noise floor at these counts={floor})",
        checkers.len()
    ));
}

/// Requests of one load phase on both connections.
struct Phase {
    /// `(offset of the request in the phase, latency)`, in seconds; the
    /// offset is the due time (open loop) or the completion time
    /// (closed loop).
    latencies: Vec<(f64, f64)>,
    lateness: Vec<f64>,
    backlogged: bool,
    /// One checker per workload instance.
    checkers: Vec<Checker>,
    /// `(instance, seed, tuples)` of responses kept for the replay check.
    replays: Vec<(usize, u64, Vec<Tuple>)>,
}

impl Phase {
    fn new(templates: &[Checker]) -> Self {
        Self {
            latencies: Vec::new(),
            lateness: Vec::new(),
            backlogged: false,
            checkers: templates.iter().map(Checker::fresh).collect(),
            replays: Vec::new(),
        }
    }

    fn absorb(&mut self, other: Phase) {
        self.latencies.extend(other.latencies);
        self.lateness.extend(other.lateness);
        self.backlogged |= other.backlogged;
        self.replays.extend(other.replays);
        for (mine, theirs) in self.checkers.iter_mut().zip(other.checkers) {
            mine.merge(theirs);
        }
    }

    fn failed(&self) -> u64 {
        self.checkers.iter().map(|c| c.failed).sum()
    }

    fn latency(&self) -> Latency {
        Latency::of(&self.latencies.iter().map(|l| l.1).collect::<Vec<_>>())
    }

    /// The latencies of each of `WINDOWS` equal time windows of a phase
    /// `seconds` long.
    fn windows(&self, seconds: f64) -> Vec<Vec<f64>> {
        let mut windows = vec![Vec::new(); WINDOWS];
        for &(at, latency) in &self.latencies {
            let w = ((at / seconds * WINDOWS as f64) as usize).min(WINDOWS - 1);
            windows[w].push(latency);
        }
        windows
    }

    /// `stat` of each non-empty window; the median over the windows.
    fn windowed(&self, seconds: f64, stat: impl Fn(&[f64]) -> f64) -> f64 {
        let values: Vec<f64> = self
            .windows(seconds)
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| stat(w))
            .collect();
        median(&values)
    }

    fn meets_limit(&self) -> bool {
        !self.backlogged && self.failed() == 0 && self.latency().p99 <= P99_LIMIT_S
    }
}

/// `uq2_serve`: a closed-loop capacity phase on both connections, then
/// open-loop rungs at fixed rates, each request timed from its due time.
/// Returns the merged checks.
fn serve_ladder(
    served: &mut Served,
    templates: &[Checker],
    seeds: &mut SujRng,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Checker, String> {
    let n = out.workload.request_n();
    let addr = served.addr().ok_or("no server")?;
    let remote = served.remote.clone();
    let first = served.client.take().ok_or("no client")?;
    let second = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut clients = [first, second];

    // Warm-up on both connections; not counted.
    saturate(&mut clients, &remote, templates, n, seeds.next_u64(), 0.2)?;

    let span = seconds * SATURATION_SHARE;
    let sat = saturate(&mut clients, &remote, templates, n, seeds.next_u64(), span)?;
    // Capacity and latency per time window (requests by completion
    // time), medians over the windows. The JSON figures come from this
    // closed loop; the open-loop rungs below are printed.
    let capacity = sat.windowed(span, |w| w.len() as f64) * n as f64 * WINDOWS as f64 / span;
    let sat_lat = sat.latency();
    out.metric("tuples_per_s", capacity, "1/s");
    out.metric(
        "request_p50_ms",
        sat.windowed(span, |w| quantile(w, 0.5)) * 1e3,
        "ms",
    );
    out.figure(
        "request_p90_ms",
        sat.windowed(span, |w| quantile(w, 0.9)) * 1e3,
        "ms",
    );
    out.line(format!(
        "closed loop, {} connection(s) round-robin over {} instances: {} requests of {n} tuples in {span:.2} s; figures are medians of {WINDOWS} time windows (requests per window {:?}); overall p50 {:.1} us p99 {:.1} us",
        clients.len(),
        remote.len(),
        sat_lat.count,
        sat.windows(span).iter().map(Vec::len).collect::<Vec<_>>(),
        sat_lat.p50 * 1e6,
        sat_lat.p99 * 1e6
    ));
    let mut total = Phase::new(templates);
    total.absorb(sat);
    // The served distribution is measured on the fixed-rate rungs only,
    // so its tuple count does not depend on the machine's speed.
    let mut distribution = Phase::new(templates);

    let mut max_rps = 0.0;
    let mut climbing = true;
    let fixed = SERVE_RATES
        .iter()
        .map(|&(name, rate, share)| (Some(name), rate, share));
    let extra = EXTRA_RATES.iter().map(|&rate| (None, rate, EXTRA_SHARE));
    for (name, rate, share) in fixed.chain(extra) {
        if name.is_none() && !climbing {
            break;
        }
        let span = seconds * share;
        let rung = open_loop(
            &mut clients,
            &remote,
            templates,
            n,
            seeds.next_u64(),
            rate,
            span,
        )?;
        for (instance, seed, tuples) in &rung.replays {
            let (reference, _) = served.prepared[*instance]
                .sample(n, *seed)
                .map_err(|e| e.to_string())?;
            total.checkers[*instance].replay(tuples, &reference);
        }
        let lat = rung.latency();
        let met = rung.meets_limit();
        if met && climbing {
            max_rps = rate;
        }
        climbing &= met;
        let verdict = if met { "met" } else { "missed" };
        let late = quantile(&rung.lateness, 0.5) * 1e3;
        match name {
            Some(name) => out.line(format!(
                "serve_p50_us.{name}={} us serve_p99_us.{name}={} us ({rate} req/s, {} requests, generator late p50 {late:.3} ms, limit {verdict})",
                lat.p50 * 1e6,
                lat.p99 * 1e6,
                lat.count,
            )),
            None => out.line(format!(
                "ladder rung {rate} req/s: p50 {:.1} us p99 {:.1} us, {} requests, limit {verdict}",
                lat.p50 * 1e6,
                lat.p99 * 1e6,
                lat.count,
            )),
        }
        if name.is_some() {
            for (d, c) in distribution.checkers.iter_mut().zip(&rung.checkers) {
                d.merge(c.clone());
            }
        }
        total.absorb(rung);
    }
    out.line(format!(
        "serve_max_rps={max_rps} req/s (ladder 1000,2000,4000,6000,8000; p99 <= 1 ms, no growing backlog)"
    ));
    report_tv(out, &distribution.checkers);
    let [first, _second] = clients;
    served.client = Some(first);
    Ok(merge_all(total.checkers))
}

/// Runs `body` on every given connection in its own thread and merges
/// the per-connection phases.
fn on_each<F>(clients: &mut [Client], templates: &[Checker], body: F) -> Result<Phase, String>
where
    F: Fn(usize, &mut Client, Phase) -> Phase + Sync,
{
    let body = &body;
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                let phase = Phase::new(templates);
                scope.spawn(move || body(k, client, phase))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join())
            .collect::<Result<_, _>>()
    })
    .map_err(|_| "client thread panicked".to_string())?;
    let mut merged = Phase::new(templates);
    for part in parts {
        merged.absorb(part);
    }
    Ok(merged)
}

/// Closed loop on the given connections for `seconds`; request `i` of
/// connection `k` goes to instance `(connections * i + k) mod instances`.
fn saturate(
    clients: &mut [Client],
    remotes: &[RemotePrepared],
    templates: &[Checker],
    n: usize,
    seed: u64,
    seconds: f64,
) -> Result<Phase, String> {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let conns = clients.len();
    on_each(clients, templates, |k, client, mut phase| {
        let mut seeds = SujRng::derive(seed, k as u64);
        for i in 0usize.. {
            if Instant::now() >= stop {
                break;
            }
            let instance = (conns * i + k) % remotes.len();
            let checker = &mut phase.checkers[instance];
            let t = Instant::now();
            let result = client.sample(&remotes[instance], n, seeds.next_u64());
            let end = Instant::now();
            let ok = match result {
                Ok(batch) => checker.response(n, Some(&batch.attrs), &batch.tuples),
                Err(e) => {
                    checker.error(&e);
                    false
                }
            };
            // Only checked responses count towards capacity.
            if ok {
                let at = (end - start).as_secs_f64();
                phase.latencies.push((at, (end - t).as_secs_f64()));
            }
        }
        phase
    })
}

/// Open loop at `rate` requests/s for `seconds`, split evenly and
/// interleaved over both connections; instances as in `saturate`.
fn open_loop(
    clients: &mut [Client],
    remotes: &[RemotePrepared],
    templates: &[Checker],
    n: usize,
    seed: u64,
    rate: f64,
    seconds: f64,
) -> Result<Phase, String> {
    let period = clients.len() as f64 / rate;
    let start = Instant::now() + Duration::from_millis(2);
    let conns = clients.len();
    on_each(clients, templates, |k, client, mut phase| {
        let mut seeds = SujRng::derive(seed, k as u64);
        let offset = k as f64 / rate;
        for i in 0u64.. {
            let at = offset + i as f64 * period;
            if at >= seconds {
                break;
            }
            let due = start + Duration::from_secs_f64(at);
            wait_until(due);
            let late = due.elapsed().as_secs_f64();
            if late > 1.0 {
                // A second behind schedule: the backlog is growing
                // without bound; stop this rung.
                phase.backlogged = true;
                break;
            }
            let instance = (conns * i as usize + k) % remotes.len();
            let request_seed = seeds.next_u64();
            let result = client.sample(&remotes[instance], n, request_seed);
            phase.latencies.push((at, due.elapsed().as_secs_f64()));
            phase.lateness.push(late);
            let checker = &mut phase.checkers[instance];
            match result {
                Ok(batch) => {
                    let ok = checker.response(n, Some(&batch.attrs), &batch.tuples);
                    if ok && i.is_multiple_of(4 * REPLAY_EVERY) {
                        phase.replays.push((instance, request_seed, batch.tuples));
                    }
                }
                Err(e) => checker.error(&e),
            }
        }
        // A growing backlog shows as the generator still running late
        // at the end of the rung.
        let tail = phase.lateness.len() - phase.lateness.len() / 10;
        if median(&phase.lateness[tail..]) > P99_LIMIT_S {
            phase.backlogged = true;
        }
        phase
    })
}

/// Sleeps until shortly before `due`, then yields until it passes.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(50);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}
