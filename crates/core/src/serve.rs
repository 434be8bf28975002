//! Multi-threaded sample serving: [`SamplingService`].
//!
//! The paper's use case — analysts repeatedly drawing i.i.d. samples
//! over a prepared union of joins — is a *serving* workload: many
//! small, independent requests against the same frozen plan. This
//! module turns the `Send + Sync` execution surface
//! ([`Engine`], [`Arc<PreparedQuery>`](PreparedQuery), `Send` sampler
//! handles) into an actual server:
//!
//! * a fixed pool of `std::thread` workers (the environment is
//!   offline, so no async runtime — plain threads),
//! * a bounded request queue ([`SamplingService::submit`] applies
//!   backpressure by blocking; [`try_submit`](SamplingService::try_submit)
//!   fails fast),
//! * graceful shutdown ([`SamplingService::shutdown`] drains the queue,
//!   then joins every worker),
//! * queue / throughput / latency counters
//!   ([`SamplingService::stats`]).
//!
//! # Determinism contract
//!
//! Every request carries a `seed` (defaulting to its `id`). A worker
//! serves it by minting a fresh handle from the prepared query and
//! driving it with `SujRng::derive(root_seed, request.seed)` — a pure
//! function of the service's root seed and the request. Therefore:
//! **same root seed + same request ids ⇒ bit-identical per-request
//! samples**, for any worker count, any thread interleaving, and any
//! submission order. A 4-worker service is sample-for-sample equal to a
//! 1-worker service; only wall time changes.
//!
//! ```
//! use suj_core::catalog::{Catalog, Engine};
//! use suj_core::query::UnionQuery;
//! use suj_core::serve::{SampleRequest, SamplingService, ServiceConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut catalog = Catalog::new();
//! catalog.register_csv("items", "sku,cat\n1,7\n2,9\n".as_bytes())?;
//! catalog.register_csv("sales", "sale,sku\n100,1\n101,2\n".as_bytes())?;
//! let engine = Engine::new(catalog);
//! let prepared = engine.prepare(
//!     &UnionQuery::set_union().chain("shop", ["items", "sales"])?,
//! )?;
//!
//! let service = SamplingService::start(engine, ServiceConfig::default());
//! let tickets: Vec<_> = (0..8)
//!     .map(|id| service.submit(SampleRequest::prepared(id, 5, &prepared)))
//!     .collect::<Result<_, _>>()?;
//! for ticket in tickets {
//!     let response = ticket.wait()?;
//!     assert_eq!(response.tuples.len(), 5);
//! }
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 8);
//! # Ok(())
//! # }
//! ```

use crate::catalog::{Engine, PreparedQuery};
use crate::error::CoreError;
use crate::query::UnionQuery;
use crate::report::RunReport;
use crate::rows::DrawnBatch;
use crate::sampler::UnionSampler;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};
use suj_stats::SujRng;
use suj_storage::Tuple;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Worker-pool and queue configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads. Defaults to the machine's available parallelism.
    pub workers: usize,
    /// Bounded request-queue capacity ([`SamplingService::submit`]
    /// blocks, [`SamplingService::try_submit`] fails fast when full).
    pub queue_capacity: usize,
    /// Root of the per-request RNG derivation (see the module-level
    /// determinism contract).
    pub root_seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
            queue_capacity: 1024,
            root_seed: 0x5eed,
        }
    }
}

impl ServiceConfig {
    /// A configuration with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            ..Self::default()
        }
    }

    /// Sets the root seed of the per-request RNG derivation.
    #[must_use = "builder methods return the updated configuration"]
    pub fn root_seed(mut self, seed: u64) -> Self {
        self.root_seed = seed;
        self
    }

    /// Sets the bounded queue capacity.
    #[must_use = "builder methods return the updated configuration"]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }
}

/// What a request samples: an already-prepared plan (the hot path —
/// zero per-request planning) or a declarative query resolved through
/// the engine's prepared-query cache (first request pays estimation,
/// the rest hit the cache).
#[derive(Clone)]
pub enum RequestTarget {
    /// Serve from a shared prepared query.
    Prepared(Arc<PreparedQuery>),
    /// Resolve and plan through the engine (cached by fingerprint).
    Query(UnionQuery),
}

impl fmt::Debug for RequestTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestTarget::Prepared(_) => f.write_str("Prepared(..)"),
            RequestTarget::Query(q) => write!(f, "Query({q:?})"),
        }
    }
}

/// One sampling request: draw `n` i.i.d. samples from `target`,
/// deterministically addressed by `seed`.
#[derive(Debug, Clone)]
pub struct SampleRequest {
    /// Caller-chosen request id, echoed in the response.
    pub id: u64,
    /// Number of samples to draw.
    pub n: usize,
    /// RNG stream of this request (mixed with the service root seed).
    /// The constructors default it to `id`, which yields the "same ids
    /// ⇒ same samples" contract.
    pub seed: u64,
    /// What to sample.
    pub target: RequestTarget,
    /// Optional deadline: the worker checks it at dequeue and before
    /// every draw, answering [`CoreError::DeadlineExceeded`] instead
    /// of running unbounded. `None` (the default) keeps the old
    /// run-to-completion behavior. A deadline never changes the draw
    /// sequence — a request that finishes in time is bit-identical to
    /// the same request without one.
    pub deadline: Option<Instant>,
    /// Fault-injection hook (chaos testing only): a worker panics
    /// instead of serving this request, exercising the pool's panic
    /// containment end-to-end.
    #[cfg(feature = "faults")]
    pub panic_for_test: bool,
}

impl SampleRequest {
    /// A request against a shared prepared query; `seed` defaults to
    /// `id`.
    pub fn prepared(id: u64, n: usize, prepared: &Arc<PreparedQuery>) -> Self {
        Self {
            id,
            n,
            seed: id,
            target: RequestTarget::Prepared(prepared.clone()),
            deadline: None,
            #[cfg(feature = "faults")]
            panic_for_test: false,
        }
    }

    /// A request against a declarative query (prepared through the
    /// engine's cache); `seed` defaults to `id`.
    pub fn query(id: u64, n: usize, query: UnionQuery) -> Self {
        Self {
            id,
            n,
            seed: id,
            target: RequestTarget::Query(query),
            deadline: None,
            #[cfg(feature = "faults")]
            panic_for_test: false,
        }
    }

    /// Overrides the request's RNG stream (decouple replay identity
    /// from the id).
    #[must_use = "builder methods return the updated request"]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets an absolute deadline; the worker answers
    /// [`CoreError::DeadlineExceeded`] once it passes.
    #[must_use = "builder methods return the updated request"]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline as a budget from now
    /// (`deadline = Instant::now() + budget`).
    #[must_use = "builder methods return the updated request"]
    pub fn with_budget(self, budget: Duration) -> Self {
        self.with_deadline(Instant::now() + budget)
    }

    /// Fault injection: the worker dequeuing this request panics
    /// instead of serving it, so tests can prove panic containment
    /// (the pool survives, the caller gets a typed error). Only
    /// compiled under the `faults` feature.
    #[cfg(feature = "faults")]
    #[must_use = "builder methods return the updated request"]
    pub fn with_panic_for_test(mut self) -> Self {
        self.panic_for_test = true;
        self
    }
}

/// A served response: the request's samples plus its per-request
/// counters (including draw-latency percentiles).
#[derive(Debug, Clone)]
pub struct SampleResponse {
    /// The request id this response answers.
    pub id: u64,
    /// The drawn samples (`request.n` of them).
    pub tuples: Vec<Tuple>,
    /// Counters and timings for this request only.
    pub report: RunReport,
}

/// A served response as the strategy produced it: row ids for the
/// Bernoulli and disjoint strategies, tuples otherwise (see
/// [`UnionSampler::sample_batch_within`]). The network tier encodes
/// row batches straight into wire columns.
#[derive(Debug, Clone)]
pub struct BatchResponse {
    /// The request id this response answers.
    pub id: u64,
    /// The drawn samples (`request.n` of them).
    pub batch: DrawnBatch,
    /// Counters and timings for this request only.
    pub report: RunReport,
}

impl From<BatchResponse> for SampleResponse {
    fn from(response: BatchResponse) -> Self {
        SampleResponse {
            id: response.id,
            tuples: response.batch.into_tuples(),
            report: response.report,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded queue is full ([`SamplingService::try_submit`]
    /// only); the request is handed back for retry, with a hint for
    /// how long to back off first. Distinct from
    /// [`ShutDown`](Self::ShutDown): a busy service will accept the
    /// request again once the queue drains, a stopped one never will.
    Busy {
        /// The rejected request, handed back to the caller.
        request: SampleRequest,
        /// Suggested back-off before retrying: roughly the time the
        /// pool needs to drain a full queue, derived from the observed
        /// median draw latency (see
        /// [`SamplingService::retry_after_hint`]).
        retry_after: Duration,
    },
    /// The service is shutting down; the request is handed back.
    ShutDown(SampleRequest),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Busy {
                request,
                retry_after,
            } => write!(
                f,
                "request {} rejected: queue full, retry after {retry_after:?}",
                request.id
            ),
            SubmitError::ShutDown(r) => write!(f, "request {} rejected: shutting down", r.id),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<SubmitError> for CoreError {
    fn from(e: SubmitError) -> Self {
        CoreError::Invalid(e.to_string())
    }
}

/// A pending response; [`wait`](Ticket::wait) blocks until the worker
/// replies.
pub struct Ticket {
    id: u64,
    rx: mpsc::Receiver<Result<BatchResponse, CoreError>>,
}

impl Ticket {
    /// The id of the request this ticket tracks.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request is served; row batches are
    /// materialized into tuples on the calling thread.
    pub fn wait(self) -> Result<SampleResponse, CoreError> {
        self.wait_batch().map(SampleResponse::from)
    }

    /// Blocks until the request is served, returning the batch as the
    /// strategy produced it.
    pub fn wait_batch(self) -> Result<BatchResponse, CoreError> {
        self.rx.recv().map_err(|_| {
            CoreError::Invalid(format!(
                "request {} lost: its worker terminated before replying",
                self.id
            ))
        })?
    }
}

struct Job {
    request: SampleRequest,
    reply: mpsc::SyncSender<Result<BatchResponse, CoreError>>,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    tuples_served: AtomicU64,
    /// Per-request reports folded together; its `draw_latency` is the
    /// service-wide latency histogram.
    aggregate: Mutex<RunReport>,
}

/// A point-in-time snapshot of service counters.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Requests accepted into the queue so far.
    pub submitted: u64,
    /// Requests served successfully.
    pub completed: u64,
    /// Requests that errored.
    pub failed: u64,
    /// Requests accepted but not yet finished (queued or in flight).
    pub in_flight: u64,
    /// Total tuples across all completed responses.
    pub tuples_served: u64,
    /// Median per-draw latency across all served requests.
    pub draw_p50: Option<Duration>,
    /// 99th-percentile per-draw latency across all served requests.
    pub draw_p99: Option<Duration>,
    /// Approximate resident bytes of the largest prepared artifact
    /// served so far: base relations plus per-join sampler structures
    /// (see
    /// [`PreparedSampler::prepared_bytes`](crate::session::PreparedSampler::prepared_bytes)).
    pub prepared_bytes: u64,
    /// Size of the snapshot the served prepared artifact was restored
    /// from; 0 when everything served so far was frozen in-process.
    pub snapshot_bytes: u64,
    /// Wall time of the snapshot restore behind the served artifact
    /// (zero when frozen in-process) — compare against the aggregate's
    /// `warmup_time` for load-vs-prepare.
    pub restore_time: Duration,
    /// Cumulative counters folded over every served request.
    pub aggregate: RunReport,
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "workers={} submitted={} completed={} failed={} in_flight={} tuples={}",
            self.workers,
            self.submitted,
            self.completed,
            self.failed,
            self.in_flight,
            self.tuples_served,
        )?;
        if let (Some(p50), Some(p99)) = (self.draw_p50, self.draw_p99) {
            write!(f, " draw_p50≤{p50:?} draw_p99≤{p99:?}")?;
        }
        if self.prepared_bytes > 0 {
            write!(f, " prepared_bytes={}", self.prepared_bytes)?;
        }
        if self.snapshot_bytes > 0 {
            write!(
                f,
                " snapshot_bytes={} restore_time={:?}",
                self.snapshot_bytes, self.restore_time
            )?;
        }
        Ok(())
    }
}

/// Serves one request: resolve the target (cached), mint a handle,
/// drive it with the derived stream. Pure in `(engine, root_seed,
/// request)` — the source of the cross-thread determinism guarantee.
fn serve_request(
    engine: &Engine,
    root_seed: u64,
    request: &SampleRequest,
) -> Result<BatchResponse, CoreError> {
    #[cfg(feature = "faults")]
    if request.panic_for_test {
        panic!(
            "fault injection: request {} is a panic pill (chaos testing)",
            request.id
        );
    }
    let prepared = match &request.target {
        RequestTarget::Prepared(p) => p.clone(),
        RequestTarget::Query(q) => engine.prepare(q)?,
    };
    let mut handle = prepared.sampler(request.seed)?;
    let mut rng = SujRng::derive(root_seed, request.seed);
    let (batch, report) = handle.sample_batch_within(request.n, &mut rng, request.deadline)?;
    Ok(BatchResponse {
        id: request.id,
        batch,
        report,
    })
}

/// A fixed worker pool serving sampling requests over a shared
/// [`Engine`].
///
/// See the [module docs](self) for queueing and determinism semantics.
/// Dropping the service shuts it down gracefully (queued requests are
/// still served).
pub struct SamplingService {
    tx: Option<mpsc::SyncSender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
    counters: Arc<Counters>,
    config: ServiceConfig,
}

impl SamplingService {
    /// Starts the worker pool.
    pub fn start(engine: Engine, config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let engine = Arc::new(engine);
        let counters = Arc::new(Counters::default());
        let root_seed = config.root_seed;
        let handles = (0..workers)
            .map(|_| {
                let rx = rx.clone();
                let engine = engine.clone();
                let counters = counters.clone();
                thread::spawn(move || loop {
                    // Hold the receiver lock only while dequeuing, so
                    // siblings serve in parallel.
                    let job = { lock(&rx).recv() };
                    let Ok(job) = job else { return }; // queue closed: graceful exit
                                                       // A request whose deadline passed while queued is
                                                       // answered without touching the engine at all.
                    let expired = job.request.deadline.is_some_and(|d| Instant::now() >= d);
                    // Contain panics from pathological requests: the
                    // worker must survive (a shrinking pool would
                    // eventually deadlock submit), the caller must get
                    // an error, and the counters must balance.
                    let result = if expired {
                        Err(CoreError::DeadlineExceeded)
                    } else {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            serve_request(&engine, root_seed, &job.request)
                        }))
                        .unwrap_or_else(|_| {
                            Err(CoreError::Invalid(format!(
                                "request {} panicked while sampling",
                                job.request.id
                            )))
                        })
                    };
                    match &result {
                        Ok(response) => {
                            counters.completed.fetch_add(1, Ordering::Relaxed);
                            counters
                                .tuples_served
                                .fetch_add(response.batch.len() as u64, Ordering::Relaxed);
                            lock(&counters.aggregate).merge(&response.report);
                        }
                        Err(_) => {
                            counters.failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // A caller that dropped its ticket is not an error.
                    let _ = job.reply.send(result);
                })
            })
            .collect();
        Self {
            tx: Some(tx),
            workers: handles,
            counters,
            config: ServiceConfig {
                workers,
                ..config.clone()
            },
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    fn make_job(request: SampleRequest) -> (Job, Ticket) {
        let (reply, rx) = mpsc::sync_channel(1);
        let id = request.id;
        (Job { request, reply }, Ticket { id, rx })
    }

    /// Enqueues a request, blocking while the bounded queue is full
    /// (backpressure). Returns a [`Ticket`] to wait on.
    // The error is as large as the request on purpose: rejection hands
    // the request back by value so the caller can retry it.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, request: SampleRequest) -> Result<Ticket, SubmitError> {
        let Some(tx) = &self.tx else {
            return Err(SubmitError::ShutDown(request));
        };
        let (job, ticket) = Self::make_job(request);
        match tx.send(job) {
            Ok(()) => {
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(ticket)
            }
            Err(mpsc::SendError(job)) => Err(SubmitError::ShutDown(job.request)),
        }
    }

    /// Enqueues a request without blocking; a full queue hands the
    /// request back as [`SubmitError::Busy`] with a
    /// [`retry_after_hint`](Self::retry_after_hint).
    #[allow(clippy::result_large_err)]
    pub fn try_submit(&self, request: SampleRequest) -> Result<Ticket, SubmitError> {
        let Some(tx) = &self.tx else {
            return Err(SubmitError::ShutDown(request));
        };
        let (job, ticket) = Self::make_job(request);
        match tx.try_send(job) {
            Ok(()) => {
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(ticket)
            }
            Err(mpsc::TrySendError::Full(job)) => Err(SubmitError::Busy {
                request: job.request,
                retry_after: self.retry_after_hint(),
            }),
            Err(mpsc::TrySendError::Disconnected(job)) => Err(SubmitError::ShutDown(job.request)),
        }
    }

    /// Suggested back-off when the queue is full: the observed median
    /// draw latency (10 µs until anything was measured) times the
    /// queue capacity — roughly how long the pool needs to drain a
    /// full queue — clamped to `[100 µs, 1 s]`.
    pub fn retry_after_hint(&self) -> Duration {
        const DEFAULT_DRAW: Duration = Duration::from_micros(10);
        const MIN_HINT: Duration = Duration::from_micros(100);
        const MAX_HINT: Duration = Duration::from_secs(1);
        let per_draw = lock(&self.counters.aggregate)
            .draw_latency
            .p50()
            .unwrap_or(DEFAULT_DRAW);
        let capacity = u32::try_from(self.config.queue_capacity).unwrap_or(u32::MAX);
        per_draw.saturating_mul(capacity).clamp(MIN_HINT, MAX_HINT)
    }

    /// Submits a batch and waits for every response, returned in
    /// request order. Individual failures surface as the first error
    /// after all tickets resolved.
    #[allow(clippy::result_large_err)]
    pub fn run_batch(
        &self,
        requests: Vec<SampleRequest>,
    ) -> Result<Vec<SampleResponse>, CoreError> {
        let tickets = requests
            .into_iter()
            .map(|r| self.submit(r))
            .collect::<Result<Vec<_>, _>>()
            .map_err(CoreError::from)?;
        let mut responses = Vec::with_capacity(tickets.len());
        let mut first_err = None;
        for ticket in tickets {
            match ticket.wait() {
                Ok(response) => responses.push(response),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(responses),
        }
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let submitted = self.counters.submitted.load(Ordering::Relaxed);
        let completed = self.counters.completed.load(Ordering::Relaxed);
        let failed = self.counters.failed.load(Ordering::Relaxed);
        let aggregate = lock(&self.counters.aggregate).clone();
        ServiceStats {
            workers: self.config.workers,
            submitted,
            completed,
            failed,
            in_flight: submitted.saturating_sub(completed + failed),
            tuples_served: self.counters.tuples_served.load(Ordering::Relaxed),
            draw_p50: aggregate.draw_latency.p50(),
            draw_p99: aggregate.draw_latency.p99(),
            prepared_bytes: aggregate.prepared_bytes,
            snapshot_bytes: aggregate.snapshot_bytes,
            restore_time: aggregate.restore_time,
            aggregate,
        }
    }

    /// Graceful shutdown: stops accepting requests, serves everything
    /// already queued, joins the workers, and returns the final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.close();
        self.stats()
    }

    fn close(&mut self) {
        // Dropping the sender closes the queue; workers drain the
        // buffered jobs and exit on the disconnect.
        self.tx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for SamplingService {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use suj_storage::{Relation, Schema, Value};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<i64>>) -> Relation {
        let schema = Schema::new(attrs.iter().copied()).unwrap();
        let tuples = rows
            .into_iter()
            .map(|vals| vals.into_iter().map(Value::int).collect())
            .collect();
        Relation::new(name, schema, tuples).unwrap()
    }

    fn engine() -> Engine {
        let mut c = Catalog::new();
        c.register(rel(
            "r",
            &["a", "b"],
            vec![vec![1, 10], vec![2, 10], vec![3, 20], vec![4, 30]],
        ))
        .unwrap();
        c.register(rel(
            "s",
            &["b", "c"],
            vec![vec![10, 100], vec![10, 101], vec![20, 200], vec![30, 300]],
        ))
        .unwrap();
        c.register(rel("r2", &["a", "b"], vec![vec![1, 10], vec![9, 90]]))
            .unwrap();
        c.register(rel("s2", &["b", "c"], vec![vec![10, 100], vec![90, 900]]))
            .unwrap();
        Engine::new(c)
    }

    fn union_query() -> UnionQuery {
        UnionQuery::set_union()
            .chain("j1", ["r", "s"])
            .unwrap()
            .chain("j2", ["r2", "s2"])
            .unwrap()
    }

    fn responses_by_id(engine: &Engine, workers: usize, requests: usize) -> Vec<SampleResponse> {
        let prepared = engine.prepare(&union_query()).unwrap();
        let service = SamplingService::start(
            engine.clone(),
            ServiceConfig::with_workers(workers).root_seed(77),
        );
        let batch = (0..requests as u64)
            .map(|id| SampleRequest::prepared(id, 6, &prepared))
            .collect();
        let mut responses = service.run_batch(batch).unwrap();
        responses.sort_by_key(|r| r.id);
        let stats = service.shutdown();
        assert_eq!(stats.completed, requests as u64);
        assert_eq!(stats.failed, 0);
        responses
    }

    #[test]
    fn serves_prepared_requests_and_counts() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let service = SamplingService::start(engine, ServiceConfig::with_workers(2).root_seed(1));
        let tickets: Vec<Ticket> = (0..10u64)
            .map(|id| {
                service
                    .submit(SampleRequest::prepared(id, 4, &prepared))
                    .unwrap()
            })
            .collect();
        for ticket in tickets {
            let response = ticket.wait().unwrap();
            assert_eq!(response.tuples.len(), 4);
            assert!(response.report.config.is_some());
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.tuples_served, 40);
        assert!(stats.draw_p50.is_some() && stats.draw_p99.is_some());
        assert!(stats.to_string().contains("completed=10"));
        let final_stats = service.shutdown();
        assert_eq!(final_stats.completed, 10);
    }

    #[test]
    fn worker_count_does_not_change_samples() {
        let engine = engine();
        let one = responses_by_id(&engine, 1, 12);
        let four = responses_by_id(&engine, 4, 12);
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.tuples, b.tuples, "request {} diverged", a.id);
        }
    }

    #[test]
    fn query_requests_share_the_prepared_cache() {
        let engine = engine();
        let service =
            SamplingService::start(engine.clone(), ServiceConfig::with_workers(3).root_seed(5));
        let batch = (0..9u64)
            .map(|id| SampleRequest::query(id, 3, union_query()))
            .collect();
        let responses = service.run_batch(batch).unwrap();
        assert_eq!(responses.len(), 9);
        service.shutdown();
        // All nine requests resolved to one cached prepared query,
        // estimated once, and only minted per-request handles.
        assert_eq!(engine.cached_queries(), 1);
        let prepared = engine.prepare(&union_query()).unwrap();
        assert_eq!(prepared.handles(), 9);
        assert!(prepared.estimations() <= 1);
    }

    #[test]
    fn failures_are_reported_not_fatal() {
        let engine = engine();
        let service = SamplingService::start(engine, ServiceConfig::with_workers(2));
        let bad = UnionQuery::set_union().chain("j", ["nope", "s"]).unwrap();
        let ticket = service.submit(SampleRequest::query(1, 3, bad)).unwrap();
        assert!(ticket.wait().is_err());
        let stats = service.stats();
        assert_eq!(stats.failed, 1);
        // The pool still serves good requests afterwards.
        let ok = service
            .submit(SampleRequest::query(2, 3, union_query()))
            .unwrap();
        assert_eq!(ok.wait().unwrap().tuples.len(), 3);
        service.shutdown();
    }

    #[test]
    fn try_submit_reports_busy_with_retry_hint() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        // Zero workers is clamped to one; use a tiny queue and a pile
        // of requests to race it full. A single worker with a
        // capacity-1 queue and slow-ish requests will reject at least
        // one try_submit in a burst.
        let service =
            SamplingService::start(engine, ServiceConfig::with_workers(1).queue_capacity(1));
        let mut rejected = 0;
        let mut tickets = Vec::new();
        for id in 0..64u64 {
            match service.try_submit(SampleRequest::prepared(id, 50, &prepared)) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::Busy {
                    request,
                    retry_after,
                }) => {
                    assert_eq!(request.id, id, "rejected request is handed back");
                    assert!(
                        retry_after >= Duration::from_micros(100)
                            && retry_after <= Duration::from_secs(1),
                        "hint out of bounds: {retry_after:?}"
                    );
                    rejected += 1;
                }
                Err(SubmitError::ShutDown(_)) => unreachable!("service is running"),
            }
        }
        for t in tickets {
            t.wait().unwrap();
        }
        assert!(
            rejected > 0,
            "a capacity-1 queue must reject some of 64 bursts"
        );
        // Busy and ShutDown are distinguishable: after close, the same
        // submission fails as ShutDown, not Busy.
        let mut service = service;
        service.close();
        assert!(matches!(
            service.try_submit(SampleRequest::prepared(99, 1, &prepared)),
            Err(SubmitError::ShutDown(_))
        ));
    }

    #[test]
    fn retry_after_hint_stays_clamped() {
        let engine = engine();
        // Cold service, enormous queue: the default per-draw estimate
        // times the capacity would exceed a second — clamped down.
        let service = SamplingService::start(
            engine.clone(),
            ServiceConfig::with_workers(1).queue_capacity(10_000_000),
        );
        assert_eq!(service.retry_after_hint(), Duration::from_secs(1));
        service.shutdown();
        // Tiny queue: the raw product underflows the floor — clamped up.
        let service =
            SamplingService::start(engine, ServiceConfig::with_workers(1).queue_capacity(1));
        assert_eq!(service.retry_after_hint(), Duration::from_micros(100));
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let service =
            SamplingService::start(engine, ServiceConfig::with_workers(1).queue_capacity(64));
        let tickets: Vec<Ticket> = (0..16u64)
            .map(|id| {
                service
                    .submit(SampleRequest::prepared(id, 8, &prepared))
                    .unwrap()
            })
            .collect();
        // Shut down immediately: everything queued must still be
        // served before the workers exit.
        let stats = service.shutdown();
        assert_eq!(stats.completed, 16);
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap().tuples.len(), 8);
        }
    }

    #[test]
    fn submit_after_shutdown_hands_request_back() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let mut service = SamplingService::start(engine, ServiceConfig::with_workers(1));
        service.close();
        match service.submit(SampleRequest::prepared(7, 3, &prepared)) {
            Err(SubmitError::ShutDown(r)) => assert_eq!(r.id, 7),
            Err(other) => panic!("expected ShutDown, got {other:?}"),
            Ok(_) => panic!("expected ShutDown, got a ticket"),
        }
    }

    #[test]
    fn expired_deadline_is_a_typed_error_and_pool_survives() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let service = SamplingService::start(engine, ServiceConfig::with_workers(1).root_seed(3));
        // A deadline already in the past: rejected at dequeue, typed.
        let late = SampleRequest::prepared(1, 4, &prepared)
            .with_deadline(Instant::now() - Duration::from_millis(1));
        let ticket = service.submit(late).unwrap();
        assert_eq!(ticket.wait().unwrap_err(), CoreError::DeadlineExceeded);
        // A zero budget expires between draws at the latest: also typed.
        let starved =
            SampleRequest::prepared(2, 1_000, &prepared).with_budget(Duration::from_nanos(0));
        let ticket = service.submit(starved).unwrap();
        assert_eq!(ticket.wait().unwrap_err(), CoreError::DeadlineExceeded);
        let stats = service.stats();
        assert_eq!(stats.failed, 2);
        // The worker survives and keeps serving.
        let ok = service
            .submit(SampleRequest::prepared(3, 4, &prepared))
            .unwrap();
        assert_eq!(ok.wait().unwrap().tuples.len(), 4);
        service.shutdown();
    }

    #[test]
    fn generous_deadline_does_not_change_samples() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let service = SamplingService::start(engine, ServiceConfig::with_workers(1).root_seed(9));
        let plain = service
            .submit(SampleRequest::prepared(5, 8, &prepared))
            .unwrap()
            .wait()
            .unwrap();
        let bounded = service
            .submit(
                SampleRequest::prepared(6, 8, &prepared)
                    .with_seed(5)
                    .with_budget(Duration::from_secs(60)),
            )
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            plain.tuples, bounded.tuples,
            "a deadline that never fires must not alter the draw sequence"
        );
        service.shutdown();
    }

    #[cfg(feature = "faults")]
    #[test]
    fn panic_pill_is_contained_and_typed() {
        let engine = engine();
        let prepared = engine.prepare(&union_query()).unwrap();
        let service = SamplingService::start(engine, ServiceConfig::with_workers(1));
        let pill = SampleRequest::prepared(1, 4, &prepared).with_panic_for_test();
        let ticket = service.submit(pill).unwrap();
        let err = ticket.wait().unwrap_err();
        assert!(err.to_string().contains("panicked"), "got: {err}");
        // The same (sole) worker still serves.
        let ok = service
            .submit(SampleRequest::prepared(2, 4, &prepared))
            .unwrap();
        assert_eq!(ok.wait().unwrap().tuples.len(), 4);
        let stats = service.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    /// Compile-time: the whole serving surface crosses threads.
    #[test]
    fn serving_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<PreparedQuery>();
        assert_send_sync::<SamplingService>();
        assert_send_sync::<SampleRequest>();
        assert_send_sync::<SampleResponse>();
    }
}
