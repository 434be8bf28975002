//! Workload definitions and their set-up: generate the inputs, prepare
//! the query, and for served workloads bind a loopback server with two
//! workers and prepare the query remotely.

use crate::checks::Checker;
use crate::inputs::{self, Inputs};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;
use suj_core::catalog::{Engine, PreparedQuery};
use suj_core::serve::ServiceConfig;
use suj_net::{Client, RemotePrepared, Server};
use suj_storage::Tuple;

/// Service workers, on the server and on the in-process service.
pub const WORKERS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Uq1Bulk,
    Uq2Serve,
    TriangleUnion,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Uq1Bulk,
        Workload::Uq2Serve,
        Workload::TriangleUnion,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Uq1Bulk => "uq1_bulk",
            Workload::Uq2Serve => "uq2_serve",
            Workload::TriangleUnion => "triangle_union",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tuples per request.
    pub fn request_n(self) -> usize {
        match self {
            Workload::Uq1Bulk => 16_384,
            Workload::Uq2Serve => 64,
            Workload::TriangleUnion => 1_024,
        }
    }

    /// Whether the measured requests travel over loopback TCP.
    pub fn over_tcp(self) -> bool {
        !matches!(self, Workload::TriangleUnion)
    }

    /// Whether the exact union is materialized: for `sample_tv` on
    /// `uq2_serve`, and as the membership reference on `triangle_union`.
    pub fn has_ground_truth(self) -> bool {
        !matches!(self, Workload::Uq1Bulk)
    }

    /// Set-ups per run; `setup_s` is their median.
    pub fn setups(self) -> usize {
        match self {
            Workload::Uq1Bulk => 5,
            Workload::Uq2Serve => 15,
            Workload::TriangleUnion => 7,
        }
    }

    pub fn inputs(self, seed: u64) -> Result<Inputs, String> {
        match self {
            Workload::Uq1Bulk => inputs::uq1_bulk(seed),
            Workload::Uq2Serve => inputs::uq2_serve(seed),
            Workload::TriangleUnion => inputs::triangle_union(seed),
        }
    }
}

/// A response's declared schema (TCP only) and its tuples.
pub type Response = (Option<Vec<String>>, Vec<Tuple>);

/// Set-up cost, by stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTiming {
    pub gen_ms: f64,
    pub prepare_ms: f64,
    pub bind_ms: f64,
    pub remote_prepare_ms: f64,
    pub total_s: f64,
}

/// A prepared workload (one prepared query per instance), optionally
/// served over loopback TCP.
pub struct Served {
    pub workload: Workload,
    pub engine: Engine,
    pub prepared: Vec<Arc<PreparedQuery>>,
    pub base_rows: usize,
    pub server: Option<Server>,
    pub client: Option<Client>,
    /// The remote handle of each instance, when served.
    pub remote: Vec<RemotePrepared>,
    pub timing: SetupTiming,
}

impl Served {
    /// Runs the full set-up of `workload` for `seed`.
    pub fn setup(workload: Workload, seed: u64, serve: bool) -> Result<Self, String> {
        let t0 = Instant::now();
        let inputs = workload.inputs(seed)?;
        let base_rows = inputs.base_rows();
        let mut timing = SetupTiming {
            gen_ms: inputs.gen_ms,
            ..SetupTiming::default()
        };
        let t = Instant::now();
        let engine = Engine::new(inputs.catalog);
        let prepared = inputs
            .queries
            .iter()
            .map(|q| engine.prepare(q).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        timing.prepare_ms = ms(t);
        let (mut server, mut client, mut remote) = (None, None, Vec::new());
        if serve {
            let t = Instant::now();
            let bound = Server::bind(
                engine.clone(),
                "127.0.0.1:0",
                ServiceConfig::with_workers(WORKERS),
            )
            .map_err(|e| e.to_string())?;
            timing.bind_ms = ms(t);
            let t = Instant::now();
            let mut c = Client::connect(bound.addr()).map_err(|e| e.to_string())?;
            for query in &inputs.queries {
                remote.push(c.prepare(query).map_err(|e| e.to_string())?);
            }
            timing.remote_prepare_ms = ms(t);
            server = Some(bound);
            client = Some(c);
        }
        timing.total_s = t0.elapsed().as_secs_f64();
        Ok(Self {
            workload,
            engine,
            prepared,
            base_rows,
            server,
            client,
            remote,
            timing,
        })
    }

    /// Number of workload instances (prepared queries).
    pub fn instances(&self) -> usize {
        self.prepared.len()
    }

    /// One request to instance `k` of the workload's stream: over TCP
    /// when the workload is served, else `PreparedQuery::sample`.
    /// Returns the declared schema (TCP only) and the tuples.
    pub fn request(&mut self, k: usize, n: usize, seed: u64) -> Result<Response, String> {
        if self.workload.over_tcp() {
            let remote = self.remote.get(k).ok_or("no remote prepared query")?;
            let client = self.client.as_mut().ok_or("no client")?;
            let batch = client.sample(remote, n, seed).map_err(|e| e.to_string())?;
            Ok((Some(batch.attrs), batch.tuples))
        } else {
            let (tuples, _) = self.prepared[k]
                .sample(n, seed)
                .map_err(|e| e.to_string())?;
            Ok((None, tuples))
        }
    }

    pub fn addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(Server::addr)
    }

    /// Resident bytes of the prepared queries' base relations, in MB.
    pub fn prepared_mb(&self) -> Result<f64, String> {
        let mut bytes = 0;
        for prepared in &self.prepared {
            // Every minted handle's report carries the footprint stamp.
            let handle = prepared.sampler(0).map_err(|e| e.to_string())?;
            bytes += handle.report().prepared_bytes;
        }
        Ok(bytes as f64 / 1e6)
    }

    /// One output checker per instance, with the exact union
    /// materialized where `Workload::has_ground_truth` says so.
    pub fn checkers(&self) -> Result<Vec<Checker>, String> {
        self.prepared
            .iter()
            .map(|p| {
                let checker = Checker::new(p.workload().clone());
                if self.workload.has_ground_truth() {
                    checker.with_ground_truth()
                } else {
                    Ok(checker)
                }
            })
            .collect()
    }

    /// Closes the connection, stops the server, and waits for its
    /// threads and workers to end.
    pub fn close(mut self) -> Result<(), String> {
        drop(self.client.take());
        if let Some(server) = self.server.take() {
            server.stop();
            server.join().map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}
