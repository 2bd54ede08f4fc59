//! The GC+ client: lazy-connecting, with exponential-backoff retry.
//!
//! Retry discipline (the whole point of this module):
//!
//! * `Overloaded` / `Retryable` responses — the server vouches the request
//!   was **not executed**, so *any* request kind may be retried;
//! * transport errors (connect refused, connection dropped mid-call) —
//!   the client cannot know whether the server acted, so only
//!   **idempotent** requests (query / health / audit) are retried;
//!   updates surface the error to the caller;
//! * `degraded`-tagged answers are **successes** (sound partial results
//!   under a spent budget) and are never retried — retrying would spend
//!   the same budget again for the same partial answer.
//!
//! Backoff is exponential with multiplicative jitter (half to full of the
//! nominal delay, xorshift-generated) so colliding clients decorrelate.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use gc_core::{AuditReport, HealthSnapshot};
use gc_graph::LabeledGraph;
use gc_subiso::{Interrupt, QueryKind};

use crate::protocol::{read_frame, write_query, Request, Response, ServiceStats, WireError};

/// Retry/backoff knobs.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries beyond the first attempt (0 = never retry).
    pub max_retries: u32,
    /// Nominal backoff before the first retry; doubles per attempt.
    pub base: Duration,
    /// Ceiling on the nominal backoff.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
        }
    }
}

/// Why a call ultimately failed (after any retries).
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed and the request was not safe (or allowed) to
    /// retry further.
    Transport(String),
    /// The server shed the request and retries were exhausted.
    Overloaded,
    /// The server asked for a retry and retries were exhausted.
    Retryable(String),
    /// Terminal server-side failure; never retried.
    Server(String),
    /// The reply did not match the request (protocol bug).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(m) => write!(f, "transport: {m}"),
            ClientError::Overloaded => write!(f, "overloaded"),
            ClientError::Retryable(m) => write!(f, "retry exhausted: {m}"),
            ClientError::Server(m) => write!(f, "server: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A successful query reply plus the call's client-side accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Global ids of the answer graphs.
    pub ids: Vec<u64>,
    /// `Some` = sound partial answer (budget spent / worker lost); still a
    /// success, never retried.
    pub degraded: Option<Interrupt>,
    /// Shards served via cache-less baseline on the server.
    pub baseline_shards: u32,
    /// Retries this call performed.
    pub retries: u32,
    /// Wall time of the whole call including retries and backoff.
    pub elapsed: Duration,
}

/// Blocking GC+ client. Reconnects lazily; safe to keep across server
/// connection drops.
pub struct CacheClient {
    addr: SocketAddr,
    /// Reads are buffered, writes go to the socket; any bytes left in the
    /// buffer are dropped with the connection on a transport error.
    stream: Option<BufReader<TcpStream>>,
    policy: RetryPolicy,
    read_timeout: Duration,
    jitter: u64,
    retries_total: u64,
}

impl CacheClient {
    /// A client for the given server address with default policy.
    pub fn connect(addr: SocketAddr) -> Self {
        CacheClient {
            addr,
            stream: None,
            policy: RetryPolicy::default(),
            read_timeout: Duration::from_secs(10),
            jitter: 0x9E37_79B9_7F4A_7C15,
            retries_total: 0,
        }
    }

    /// Overrides the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Reseeds the jitter stream (deterministic tests / decorrelated load
    /// drivers).
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter = seed | 1; // xorshift must not start at 0
        self
    }

    /// Total retries performed over this client's lifetime.
    pub fn retries_total(&self) -> u64 {
        self.retries_total
    }

    /// Executes a query. `deadline` travels to the server and anchors at
    /// frame receipt there; `None` leaves the server's default budget.
    pub fn query(
        &mut self,
        graph: &LabeledGraph,
        kind: QueryKind,
        deadline: Option<Duration>,
    ) -> Result<QueryReply, ClientError> {
        let deadline_ms = deadline
            .map(|d| u32::try_from(d.as_millis()).unwrap_or(u32::MAX).max(1))
            .unwrap_or(0);
        let started = Instant::now();
        // a query is idempotent; it is framed from the borrowed graph
        let (rsp, retries) = self.call_with(true, |w| write_query(w, kind, deadline_ms, graph))?;
        match rsp {
            Response::Answer {
                ids,
                degraded,
                baseline_shards,
            } => Ok(QueryReply {
                ids,
                degraded,
                baseline_shards,
                retries,
                elapsed: started.elapsed(),
            }),
            other => Err(unexpected("Answer", &other)),
        }
    }

    /// Adds edge `(u, v)` to graph `id`.
    pub fn ua(&mut self, id: u64, u: u32, v: u32) -> Result<u64, ClientError> {
        self.update(Request::Ua { id, u, v })
    }

    /// Removes edge `(u, v)` from graph `id`.
    pub fn ur(&mut self, id: u64, u: u32, v: u32) -> Result<u64, ClientError> {
        self.update(Request::Ur { id, u, v })
    }

    fn update(&mut self, req: Request) -> Result<u64, ClientError> {
        match self.call(&req)?.0 {
            Response::Updated { id } => Ok(id),
            other => Err(unexpected("Updated", &other)),
        }
    }

    /// Fetches the deployment's health counters.
    pub fn health(&mut self) -> Result<HealthSnapshot, ClientError> {
        match self.call(&Request::Health)?.0 {
            Response::Health(snapshot) => Ok(snapshot),
            other => Err(unexpected("Health", &other)),
        }
    }

    /// Scrapes the server's full telemetry snapshot (request counters,
    /// health, per-shard stats, latency histogram, pipeline stage totals).
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        match self.call(&Request::Stats)?.0 {
            Response::Stats(stats) => Ok(*stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Runs the consistency auditor; returns its report.
    pub fn audit(&mut self, sample_rate: f64, seed: u64) -> Result<AuditReport, ClientError> {
        let sample_permille = (sample_rate.clamp(0.0, 1.0) * 1000.0).round() as u16;
        let req = Request::Audit {
            sample_permille,
            seed,
        };
        match self.call(&req)?.0 {
            Response::Audited(report) => Ok(report),
            other => Err(unexpected("Audited", &other)),
        }
    }

    /// One logical call: attempt, classify, maybe back off and retry.
    /// Returns the terminal response and how many retries it took.
    fn call(&mut self, req: &Request) -> Result<(Response, u32), ClientError> {
        self.call_with(req.idempotent(), |w| req.write_frame(w))
    }

    /// [`call`](Self::call) for a request that `send` writes as one frame;
    /// `idempotent` says whether a transport error may be retried.
    fn call_with(
        &mut self,
        idempotent: bool,
        send: impl Fn(&mut TcpStream) -> Result<(), WireError>,
    ) -> Result<(Response, u32), ClientError> {
        let mut retries = 0u32;
        loop {
            let failure = match self.attempt(&send) {
                Ok(Response::Overloaded) => ClientError::Overloaded,
                Ok(Response::Retryable(m)) => ClientError::Retryable(m),
                Ok(rsp) => return Ok((rsp, retries)),
                Err(e) => {
                    // the connection is suspect regardless of what we do next
                    self.stream = None;
                    if !idempotent {
                        // the server may have applied the update before the
                        // line died: replaying could double-apply
                        return Err(ClientError::Transport(e.to_string()));
                    }
                    ClientError::Transport(e.to_string())
                }
            };
            if retries >= self.policy.max_retries {
                return Err(failure);
            }
            std::thread::sleep(self.backoff(retries));
            retries += 1;
            self.retries_total += 1;
        }
    }

    /// One wire round-trip, connecting if needed.
    fn attempt(
        &mut self,
        send: impl Fn(&mut TcpStream) -> Result<(), WireError>,
    ) -> Result<Response, WireError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true).ok();
            stream
                .set_read_timeout(Some(self.read_timeout))
                .map_err(WireError::Io)?;
            self.stream = Some(BufReader::new(stream));
        }
        let stream = self.stream.as_mut().expect("just connected");
        send(stream.get_mut())?;
        Response::decode(&read_frame(stream)?)
    }

    /// Exponential backoff with multiplicative jitter in [½, 1] of the
    /// nominal delay.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let nominal = self
            .policy
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.policy.cap);
        // xorshift64: cheap, seedable, good enough to decorrelate clients
        let mut x = self.jitter;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        let half = nominal / 2;
        half + nominal.mul_f64((x % 1000) as f64 / 2000.0)
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    match got {
        Response::Error(m) => ClientError::Server(m.clone()),
        other => ClientError::Protocol(format!("expected {wanted}, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters() {
        let policy = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(80),
        };
        let mut c = CacheClient::connect("127.0.0.1:1".parse().unwrap())
            .with_policy(policy)
            .with_jitter_seed(7);
        let mut prev_nominal_hit_cap = false;
        for attempt in 0..8 {
            let d = c.backoff(attempt);
            let nominal = policy.base.saturating_mul(1 << attempt).min(policy.cap);
            assert!(d >= nominal / 2, "attempt {attempt}: {d:?} < half nominal");
            assert!(d <= nominal, "attempt {attempt}: {d:?} > nominal");
            if nominal == policy.cap {
                prev_nominal_hit_cap = true;
            }
        }
        assert!(prev_nominal_hit_cap, "cap must engage within 8 attempts");
        // jitter decorrelates consecutive draws
        let a = c.backoff(3);
        let b = c.backoff(3);
        assert_ne!(a, b, "two draws at the same attempt must differ");
    }

    #[test]
    fn connect_failure_is_transport_and_updates_do_not_retry() {
        // nothing listens on this port: every attempt is a transport error
        let policy = RetryPolicy {
            max_retries: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
        };
        let mut c = CacheClient::connect("127.0.0.1:9".parse().unwrap()).with_policy(policy);
        let err = c.ua(0, 0, 1).unwrap_err();
        assert!(matches!(err, ClientError::Transport(_)), "{err}");
        assert_eq!(c.retries_total(), 0, "updates never retry on transport");
        // idempotent requests do retry (and then fail)
        let err = c.health().unwrap_err();
        assert!(matches!(err, ClientError::Transport(_)), "{err}");
        assert_eq!(c.retries_total(), 2, "health retried max_retries times");
    }
}
