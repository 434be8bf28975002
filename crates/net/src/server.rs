//! The TCP server: a thread-per-connection front-end over
//! [`Engine`] + [`SamplingService`].
//!
//! Each accepted connection gets a reader thread that decodes frames,
//! dispatches them, and writes the response back on the same socket —
//! requests on one connection are answered in order; connections are
//! independent and served concurrently by the shared worker pool.
//!
//! Backpressure is end-to-end: `Sample` requests go through
//! [`SamplingService::try_submit`], so a full worker queue surfaces as
//! a `Busy` frame (with the service's drain-time retry hint) instead
//! of unbounded buffering inside the server.
//!
//! Determinism is preserved across the wire: a `Sample` frame carries
//! an explicit seed, the worker derives its RNG stream from
//! `(root_seed, seed)` exactly as the in-process path does, so the
//! same prepared query + root seed + request seed yields bit-identical
//! samples whether sampled in-process, over TCP, or on a
//! snapshot-restored replica.
//!
//! # Failure containment
//!
//! The server assumes every peer and every request can misbehave:
//!
//! - **Deadlines** — a `Sample` frame may carry a budget; the worker
//!   pool checks it at dequeue and between draws, answering
//!   [`ERR_DEADLINE`] instead of running away.
//! - **Panic isolation** — frame handling runs under `catch_unwind`;
//!   a panicking request yields a typed [`ERR_ENGINE`] frame and the
//!   connection (and accept loop) keeps serving. Poisoned registry
//!   locks are recovered, never unwrapped.
//! - **Stalled peers** — once a frame's first byte arrives, the rest
//!   must make progress within [`ServerOptions::io_grace`]; writes get
//!   the same timeout. A peer that stalls past the grace is dropped
//!   instead of pinning its thread.
//! - **Graceful drain** — after [`Server::stop`] (or a `Shutdown`
//!   frame), connections keep reading for
//!   [`ServerOptions::drain_grace`] so queued frames are answered with
//!   typed [`ERR_SHUTTING_DOWN`] errors instead of a raw EOF.

use crate::faults::Conn;
#[cfg(any(test, feature = "faults"))]
use crate::faults::FaultPlan;
use crate::protocol::{
    decode_prepare, decode_sample, encode_busy, encode_drawn, encode_error, encode_prepared,
    encode_stats, parse_header, verify_payload, Frame, NetError, WireStats, ERR_BAD_REQUEST,
    ERR_DEADLINE, ERR_ENGINE, ERR_SHUTTING_DOWN, ERR_UNKNOWN_PREPARED, HEADER_LEN, OP_BATCH,
    OP_BUSY, OP_ERROR, OP_PREPARE, OP_PREPARED, OP_SAMPLE, OP_SHUTDOWN, OP_SHUTDOWN_ACK, OP_STATS,
    OP_STATS_REPLY,
};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use suj_core::catalog::{Engine, PreparedQuery};
use suj_core::error::CoreError;
use suj_core::serve::{SampleRequest, SamplingService, ServiceConfig, SubmitError};

/// How long a blocked connection read waits before re-checking the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Caps `Sample.n` so a single malicious frame cannot request an
/// unbounded draw.
const MAX_SAMPLE_N: u64 = 1 << 24;

/// Tuning knobs for the server's failure-containment behavior.
///
/// Defaults are production-ready; tests lower the graces to exercise
/// timeout paths quickly.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    io_grace: Duration,
    drain_grace: Duration,
    #[cfg(any(test, feature = "faults"))]
    fault_plan: Option<FaultPlan>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            io_grace: Duration::from_secs(5),
            drain_grace: Duration::from_millis(500),
            #[cfg(any(test, feature = "faults"))]
            fault_plan: None,
        }
    }
}

impl ServerOptions {
    /// Progress deadline for mid-frame reads and for response writes.
    /// A connection that stalls a transfer longer than this is
    /// dropped. Also used as the write timeout on every connection.
    #[must_use = "builder methods return the updated options"]
    pub fn with_io_grace(mut self, grace: Duration) -> Self {
        self.io_grace = grace;
        self
    }

    /// How long draining connections keep answering buffered frames
    /// (with typed `ShuttingDown` errors) after shutdown is requested.
    #[must_use = "builder methods return the updated options"]
    pub fn with_drain_grace(mut self, grace: Duration) -> Self {
        self.drain_grace = grace;
        self
    }

    /// The configured I/O grace.
    pub fn io_grace(&self) -> Duration {
        self.io_grace
    }

    /// The configured drain grace.
    pub fn drain_grace(&self) -> Duration {
        self.drain_grace
    }

    /// Installs a deterministic fault plan: every accepted connection
    /// reads and writes through an injector derived from
    /// `(plan seed, connection index)`. Chaos builds only.
    #[cfg(any(test, feature = "faults"))]
    #[must_use = "builder methods return the updated options"]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// Recovers a poisoned mutex instead of propagating the poison: the
/// registry holds plain data (id → prepared handle), which stays
/// consistent even if a holder panicked mid-insert.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Shared {
    engine: Engine,
    service: SamplingService,
    registry: Mutex<HashMap<u64, Arc<PreparedQuery>>>,
    next_prepared: AtomicU64,
    shutdown: AtomicBool,
    active_conns: AtomicU64,
    conn_seq: AtomicU64,
    options: ServerOptions,
}

/// Decrements the active-connection count when a connection thread
/// exits — normally or by unwinding.
struct ConnGuard {
    shared: Arc<Shared>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.shared.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running TCP sampling server.
///
/// Constructed with [`Server::bind`]; runs until a client sends
/// `Shutdown` or [`Server::stop`] is called, then [`Server::join`]
/// returns. Dropping the server also stops it.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and starts serving `engine` with a worker pool
    /// configured by `config` and default [`ServerOptions`]. Use port
    /// 0 to let the OS pick; the bound address is available via
    /// [`Server::addr`].
    pub fn bind(
        engine: Engine,
        addr: impl ToSocketAddrs,
        config: ServiceConfig,
    ) -> Result<Server, NetError> {
        Self::bind_with(engine, addr, config, ServerOptions::default())
    }

    /// Like [`Server::bind`] with explicit failure-containment
    /// options.
    pub fn bind_with(
        engine: Engine,
        addr: impl ToSocketAddrs,
        config: ServiceConfig,
        options: ServerOptions,
    ) -> Result<Server, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // The engine is cloned, not moved: both handles share the
        // catalog and the prepared-query cache, so queries prepared
        // over the wire are visible to the service workers and vice
        // versa.
        let service = SamplingService::start(engine.clone(), config);
        let shared = Arc::new(Shared {
            engine,
            service,
            registry: Mutex::new(HashMap::new()),
            next_prepared: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            active_conns: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
            options,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = thread::Builder::new()
            .name("suj-net-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(NetError::Io)?;
        Ok(Server {
            addr,
            shared,
            accept_handle: Some(accept_handle),
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a shutdown (wire or local) has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Open connections currently being served.
    pub fn active_connections(&self) -> u64 {
        self.shared.active_conns.load(Ordering::SeqCst)
    }

    /// Requests shutdown without a wire round-trip. Idempotent.
    /// Draining connections answer their buffered frames with typed
    /// `ShuttingDown` errors before closing.
    pub fn stop(&self) {
        request_shutdown(&self.shared, self.addr);
    }

    /// Blocks until the accept loop exits (after a `Shutdown` frame or
    /// [`Server::stop`]), then waits — bounded by the drain and I/O
    /// graces — for in-flight connections to finish draining.
    pub fn join(mut self) -> Result<(), NetError> {
        let result = if let Some(handle) = self.accept_handle.take() {
            handle
                .join()
                .map_err(|_| NetError::Protocol("accept thread panicked".into()))
        } else {
            Ok(())
        };
        wait_for_drain(&self.shared);
        result
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        wait_for_drain(&self.shared);
    }
}

/// Bounded wait for connection threads to drain after shutdown: the
/// drain grace (buffered frames) plus the I/O grace (a stalled final
/// write), plus scheduling slack.
fn wait_for_drain(shared: &Shared) {
    let deadline =
        Instant::now() + shared.options.drain_grace + shared.options.io_grace + POLL_INTERVAL;
    while shared.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
}

/// Flags shutdown and pokes the listener with a throwaway connection
/// so a blocking `accept` observes the flag.
fn request_shutdown(shared: &Shared, addr: SocketAddr) {
    if !shared.shutdown.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect(addr);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // The wake-up connection (or a late client): close
                    // it and exit.
                    drop(stream);
                    return;
                }
                let conn_shared = Arc::clone(&shared);
                shared.active_conns.fetch_add(1, Ordering::SeqCst);
                let spawned = thread::Builder::new()
                    .name("suj-net-conn".into())
                    .spawn(move || {
                        let guard = ConnGuard {
                            shared: Arc::clone(&conn_shared),
                        };
                        // A panicking connection must not take the
                        // server down: contain it, release the guard,
                        // keep accepting.
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            let _ = serve_connection(stream, &conn_shared);
                        }));
                        drop(guard);
                    });
                if spawned.is_err() {
                    // Thread spawn failed (resource exhaustion): undo
                    // the count and drop the connection.
                    shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failure: keep serving.
            }
        }
    }
}

/// Reads `buf.len()` bytes, looping over timeouts but only while the
/// peer makes progress: each received chunk renews the grace; a stall
/// longer than `grace` fails with `TimedOut` so a dead or glacial peer
/// cannot pin the connection thread forever.
fn read_full(conn: &mut Conn, buf: &mut [u8], grace: Duration) -> std::io::Result<()> {
    let mut off = 0;
    let mut stall_deadline = Instant::now() + grace;
    while off < buf.len() {
        match conn.read(&mut buf[off..]) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                off += n;
                stall_deadline = Instant::now() + grace;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                if Instant::now() >= stall_deadline {
                    return Err(ErrorKind::TimedOut.into());
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// What the connection loop should do with the bytes it just read.
enum Next {
    /// A complete frame arrived.
    Frame(Frame),
    /// A frame arrived but its payload failed the header CRC; answer
    /// with a typed error (the stream itself is still framed
    /// correctly, so the connection survives).
    Corrupt { request_id: u64 },
    /// Orderly end: peer closed, or the drain grace expired.
    Done,
}

/// Reads the next frame, polling the shutdown flag between timed-out
/// reads while idle. After shutdown is flagged, keeps reading for
/// `drain_grace` so frames already in flight get typed
/// `ShuttingDown` answers instead of a dropped connection.
fn read_frame(
    conn: &mut Conn,
    shared: &Shared,
    drain_deadline: &mut Option<Instant>,
) -> Result<Next, NetError> {
    let mut first = [0u8; 1];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + shared.options.drain_grace);
            if Instant::now() >= deadline {
                return Ok(Next::Done);
            }
        }
        match conn.read(&mut first) {
            Ok(0) => return Ok(Next::Done),
            Ok(_) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e.into()),
        }
    }
    let grace = shared.options.io_grace;
    let mut header = [0u8; HEADER_LEN];
    header[0] = first[0];
    read_full(conn, &mut header[1..], grace)?;
    let (opcode, request_id, len, expected_crc) = parse_header(&header)?;
    let mut payload = vec![0u8; len as usize];
    read_full(conn, &mut payload, grace)?;
    if verify_payload(&payload, expected_crc).is_err() {
        return Ok(Next::Corrupt { request_id });
    }
    Ok(Next::Frame(Frame {
        opcode,
        request_id,
        payload,
    }))
}

fn serve_connection(stream: TcpStream, shared: &Shared) -> Result<(), NetError> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(Some(shared.options.io_grace))?;
    stream.set_nodelay(true)?;
    let local_addr = stream.local_addr()?;
    let stream_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
    #[cfg(any(test, feature = "faults"))]
    let injector = shared
        .options
        .fault_plan
        .as_ref()
        .map(|plan| plan.injector(stream_id));
    #[cfg(not(any(test, feature = "faults")))]
    let injector = None;
    let _ = stream_id;
    let mut conn = Conn::new(stream, injector);
    let mut drain_deadline = None;
    loop {
        let response = match read_frame(&mut conn, shared, &mut drain_deadline)? {
            Next::Done => return Ok(()),
            Next::Corrupt { request_id } => error_frame(
                request_id,
                ERR_BAD_REQUEST,
                "payload checksum mismatch: frame corrupted in transit",
            ),
            Next::Frame(frame) => {
                let is_shutdown = frame.opcode == OP_SHUTDOWN;
                let response = dispatch(frame, shared);
                if is_shutdown {
                    response.write_to(&mut conn)?;
                    conn.flush()?;
                    request_shutdown(shared, local_addr);
                    return Ok(());
                }
                response
            }
        };
        response.write_to(&mut conn)?;
        conn.flush()?;
    }
}

/// Handles one frame with panic containment: a request that panics the
/// handler produces a typed `Error` frame, not a dead connection.
fn dispatch(frame: Frame, shared: &Shared) -> Frame {
    let id = frame.request_id;
    catch_unwind(AssertUnwindSafe(|| handle_frame(frame, shared))).unwrap_or_else(|payload| {
        let detail = panic_message(payload.as_ref());
        error_frame(id, ERR_ENGINE, &format!("request panicked: {detail}"))
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

fn handle_frame(frame: Frame, shared: &Shared) -> Frame {
    let id = frame.request_id;
    if shared.shutdown.load(Ordering::SeqCst) && frame.opcode != OP_SHUTDOWN {
        return error_frame(id, ERR_SHUTTING_DOWN, "server is shutting down");
    }
    match frame.opcode {
        OP_PREPARE => handle_prepare(id, &frame.payload, shared),
        OP_SAMPLE => handle_sample(id, &frame.payload, shared),
        OP_STATS => handle_stats(id, shared),
        OP_SHUTDOWN => Frame::empty(OP_SHUTDOWN_ACK, id),
        other => error_frame(id, ERR_BAD_REQUEST, &format!("unknown opcode {other:#06x}")),
    }
}

fn handle_prepare(id: u64, payload: &[u8], shared: &Shared) -> Frame {
    let query = match decode_prepare(payload) {
        Ok(q) => q,
        Err(e) => return error_frame(id, ERR_BAD_REQUEST, &e.to_string()),
    };
    let prepared = match shared.engine.prepare(&query) {
        Ok(p) => p,
        Err(e) => return error_frame(id, ERR_ENGINE, &e.to_string()),
    };
    let prepared_id = shared.next_prepared.fetch_add(1, Ordering::Relaxed);
    let estimations = prepared.estimations();
    // The freeze-time summary, not one recomputed from the plan: the
    // stamped copy preserves provenance (rule, sizing) across snapshot
    // restores, so donor and replica serve identical strings.
    let summary = prepared.summary().to_string();
    lock(&shared.registry).insert(prepared_id, prepared);
    Frame {
        opcode: OP_PREPARED,
        request_id: id,
        payload: encode_prepared(prepared_id, estimations, &summary),
    }
}

fn handle_sample(id: u64, payload: &[u8], shared: &Shared) -> Frame {
    let (prepared_id, n, seed, budget_ns) = match decode_sample(payload) {
        Ok(parts) => parts,
        Err(e) => return error_frame(id, ERR_BAD_REQUEST, &e.to_string()),
    };
    // Chaos builds: `n == u64::MAX` is a panic pill that exercises the
    // worker-pool panic containment end to end.
    #[cfg(feature = "faults")]
    let panic_pill = n == u64::MAX;
    #[cfg(not(feature = "faults"))]
    let panic_pill = false;
    if n > MAX_SAMPLE_N && !panic_pill {
        return error_frame(
            id,
            ERR_BAD_REQUEST,
            &format!("sample size {n} exceeds limit {MAX_SAMPLE_N}"),
        );
    }
    let prepared = {
        let registry = lock(&shared.registry);
        match registry.get(&prepared_id) {
            Some(p) => Arc::clone(p),
            None => {
                return error_frame(
                    id,
                    ERR_UNKNOWN_PREPARED,
                    &format!("no prepared query with id {prepared_id}"),
                )
            }
        }
    };
    let effective_n = if panic_pill { 1 } else { n as usize };
    let mut request = SampleRequest::prepared(id, effective_n, &prepared).with_seed(seed);
    if budget_ns > 0 {
        request = request.with_budget(Duration::from_nanos(budget_ns));
    }
    #[cfg(feature = "faults")]
    if panic_pill {
        request = request.with_panic_for_test();
    }
    let ticket = match shared.service.try_submit(request) {
        Ok(t) => t,
        Err(SubmitError::Busy { retry_after, .. }) => {
            return Frame {
                opcode: OP_BUSY,
                request_id: id,
                payload: encode_busy(retry_after),
            }
        }
        Err(SubmitError::ShutDown(_)) => {
            return error_frame(id, ERR_SHUTTING_DOWN, "worker pool is shut down")
        }
    };
    match ticket.wait_batch() {
        Ok(response) => {
            let attrs = prepared.workload().canonical_schema().attrs();
            Frame {
                opcode: OP_BATCH,
                request_id: id,
                payload: encode_drawn(attrs, &response.batch),
            }
        }
        Err(CoreError::DeadlineExceeded) => error_frame(
            id,
            ERR_DEADLINE,
            "deadline exceeded before the request finished",
        ),
        Err(e) => error_frame(id, ERR_ENGINE, &e.to_string()),
    }
}

fn handle_stats(id: u64, shared: &Shared) -> Frame {
    let stats = shared.service.stats();
    let wire = WireStats {
        workers: stats.workers as u64,
        submitted: stats.submitted,
        completed: stats.completed,
        failed: stats.failed,
        tuples_served: stats.tuples_served,
        prepared_bytes: stats.prepared_bytes,
        snapshot_bytes: stats.snapshot_bytes,
        restore_time_ns: u64::try_from(stats.restore_time.as_nanos()).unwrap_or(u64::MAX),
    };
    Frame {
        opcode: OP_STATS_REPLY,
        request_id: id,
        payload: encode_stats(&wire),
    }
}

fn error_frame(id: u64, code: u16, message: &str) -> Frame {
    Frame {
        opcode: OP_ERROR,
        request_id: id,
        payload: encode_error(code, message),
    }
}
