//! The GC+ wire protocol: length-prefixed binary frames over any
//! `Read`/`Write` byte stream (deployed over TCP, tested over loopback).
//!
//! Frame layout (all integers big-endian):
//!
//! ```text
//! +----------------+---------+-----------------------+
//! | len: u32       | tag: u8 | payload: len - 1 bytes|
//! +----------------+---------+-----------------------+
//! ```
//!
//! `len` counts everything after the length word (tag + payload) and is
//! capped at [`MAX_FRAME`] — a peer announcing more is a protocol error,
//! not an allocation request. Graphs travel as
//! `nv: u32, nv × label: u16, ne: u32, ne × (u: u32, v: u32)`. A graph
//! holds at most [`MAX_VERTICES`] = 65,536 vertices: the decoder answers a
//! larger `nv` with [`WireError::Malformed`] before it reads or allocates
//! anything sized by it, and an edge that `LabeledGraph::from_parts`
//! refuses (an id past `nv`, a loop, a duplicate) the same way.
//!
//! The request carries its *deadline* (`deadline_ms`, 0 = none) rather
//! than a timestamp: clocks on the two ends need not agree, and the
//! server re-anchors the budget at receipt, so queue wait inside the
//! server burns the deadline while network transit does not.
//!
//! Each message's bytes are handled once on each end:
//!
//! * **encoded once** — one private encoder per message type writes
//!   straight into the buffer that goes on the wire, behind a length word
//!   patched in place, and a query is encoded from the caller's borrowed
//!   graph (`write_query`); `encode()` runs the same encoder and returns
//!   the body alone;
//! * **read once** — both connection ends read through a `BufReader`, so
//!   a frame that arrived whole costs one `read` syscall for its length
//!   word and body together, and frames pipelined behind it wait in the
//!   buffer. [`read_frame`] sizes the body buffer as before: at most
//!   `EAGER_FRAME` up front, growing only with bytes actually received.

use std::io::{self, Read, Write};

use gc_core::{AuditReport, HealthCounter, HealthSnapshot, ShardStatsSnapshot};
use gc_graph::{LabeledGraph, MAX_VERTICES};
use gc_subiso::{Interrupt, QueryKind};
use gc_telemetry::{HistogramSnapshot, StageSpans, HISTOGRAM_BUCKETS, STAGES};

/// Upper bound on a frame body (tag + payload). Large enough for any
/// realistic query graph or answer set, small enough that a corrupt
/// length word cannot drive allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Everything that can go wrong on the wire.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed (includes clean EOF mid-frame).
    Io(io::Error),
    /// The peer sent bytes that do not decode as a valid message.
    Malformed(String),
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute a pattern query under a deadline (`deadline_ms` of 0 means
    /// the server's default budget applies unchanged).
    Query {
        kind: QueryKind,
        deadline_ms: u32,
        graph: LabeledGraph,
    },
    /// Edge addition (UA) on a live dataset graph.
    Ua { id: u64, u: u32, v: u32 },
    /// Edge removal (UR) on a live dataset graph.
    Ur { id: u64, u: u32, v: u32 },
    /// Fetch the deployment's health counters (a liveness ping: it takes
    /// no shard lock).
    Health,
    /// Run the consistency auditor (`sample_permille` of 1000 = audit
    /// every resident entry).
    Audit { sample_permille: u16, seed: u64 },
    /// Scrape the full telemetry snapshot (counters, per-shard stats,
    /// latency histogram, pipeline stage spans).
    Stats,
}

impl Request {
    /// Whether replaying this request can change server state. Only
    /// idempotent requests may be retried on a *transport* error, where
    /// the client cannot know if the server acted before the line died.
    pub fn idempotent(&self) -> bool {
        match self {
            Request::Query { .. } | Request::Health | Request::Audit { .. } | Request::Stats => {
                true
            }
            Request::Ua { .. } | Request::Ur { .. } => false,
        }
    }
}

/// Everything a `Stats` scrape returns — the service's full telemetry
/// snapshot. All counters are cumulative since server start; the
/// histogram/spans are all-zero when the server runs with recording off.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceStats {
    /// Query requests executed (shed requests not included).
    pub queries: u64,
    /// Update requests applied.
    pub updates: u64,
    /// The deployment's fault-tolerance counters (same as the health reply).
    pub health: HealthSnapshot,
    /// Per-shard hit/miss/eviction/quarantine/shed counters and retained
    /// log records.
    pub shards: Vec<ShardStatsSnapshot>,
    /// End-to-end request latency (recorded from frame receipt to reply,
    /// in microseconds) — only populated when metrics are enabled.
    pub latency: HistogramSnapshot,
    /// Pipeline stage spans summed across shards — only populated when
    /// tracing is enabled.
    pub stages: StageSpans,
    /// Resident bytes of the label-postings indexes, summed across shards
    /// (0 when the candidate source is the linear scan).
    pub index_bytes: u64,
    /// Incremental index syncs that actually replayed log records.
    pub index_syncs: u64,
    /// Cumulative wall time of those syncs, in nanoseconds.
    pub index_sync_nanos: u64,
    /// Query frames answered on a graph the service kept from an earlier
    /// frame with the same graph bytes, without decoding them again.
    pub decoded_query_hits: u64,
    /// Decoded query graphs the service keeps for repeated frames.
    pub decoded_queries: u64,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Query answer: global graph ids, plus how the answer was produced.
    /// `degraded = Some(..)` marks a *sound partial* answer (budget ran
    /// out, worker panicked); it is a success, never retried.
    Answer {
        ids: Vec<u64>,
        degraded: Option<Interrupt>,
        baseline_shards: u32,
    },
    /// Update applied to the given global id.
    Updated { id: u64 },
    /// The deployment's health counters, read without a shard lock. The
    /// per-shard cache counters travel with [`Response::Stats`] only.
    Health(HealthSnapshot),
    /// Auditor outcome (three u64s on the wire: sampled, clean,
    /// repaired).
    Audited(AuditReport),
    /// Shed at admission: the per-shard in-flight cap is exhausted. The
    /// request was *not* executed; any request kind may be retried.
    Overloaded,
    /// Failed before execution in a way worth retrying (any request
    /// kind): the server vouches no state changed.
    Retryable(String),
    /// Full telemetry snapshot.
    Stats(Box<ServiceStats>),
    /// Terminal failure; do not retry.
    Error(String),
}

// ---------------------------------------------------------------- tags --

const REQ_QUERY: u8 = 0x01;
const REQ_UA: u8 = 0x02;
const REQ_UR: u8 = 0x03;
const REQ_HEALTH: u8 = 0x04;
const REQ_AUDIT: u8 = 0x05;
const REQ_STATS: u8 = 0x06;

const RSP_ANSWER: u8 = 0x81;
const RSP_UPDATED: u8 = 0x82;
const RSP_HEALTH: u8 = 0x83;
const RSP_AUDITED: u8 = 0x84;
const RSP_OVERLOADED: u8 = 0x85;
const RSP_RETRYABLE: u8 = 0x86;
const RSP_ERROR: u8 = 0x87;
const RSP_STATS: u8 = 0x88;

fn kind_code(kind: QueryKind) -> u8 {
    match kind {
        QueryKind::Subgraph => 0,
        QueryKind::Supergraph => 1,
    }
}

fn decode_kind(code: u8) -> Result<QueryKind, WireError> {
    match code {
        0 => Ok(QueryKind::Subgraph),
        1 => Ok(QueryKind::Supergraph),
        c => Err(WireError::Malformed(format!("query kind {c}"))),
    }
}

fn interrupt_code(i: Option<Interrupt>) -> u8 {
    match i {
        None => 0,
        Some(Interrupt::Cancelled) => 1,
        Some(Interrupt::Deadline) => 2,
        Some(Interrupt::TestCap) => 3,
        Some(Interrupt::Panic) => 4,
    }
}

fn decode_interrupt(code: u8) -> Result<Option<Interrupt>, WireError> {
    Ok(match code {
        0 => None,
        1 => Some(Interrupt::Cancelled),
        2 => Some(Interrupt::Deadline),
        3 => Some(Interrupt::TestCap),
        4 => Some(Interrupt::Panic),
        c => return Err(WireError::Malformed(format!("interrupt code {c}"))),
    })
}

// ------------------------------------------------------------- encoding --

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
    fn query(&mut self, kind: QueryKind, deadline_ms: u32, g: &LabeledGraph) {
        self.0
            .reserve(14 + 2 * g.vertex_count() + 8 * g.edge_count());
        self.u8(REQ_QUERY);
        self.u8(kind_code(kind));
        self.u32(deadline_ms);
        self.u32(g.vertex_count() as u32);
        for &l in g.labels() {
            self.u16(l);
        }
        self.u32(g.edge_count() as u32);
        for (u, v) in g.edges() {
            self.u32(u);
            self.u32(v);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, at: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError::Malformed("truncated frame".into()))?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn string(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::Malformed("non-utf8 string".into()))
    }
    fn graph(&mut self) -> Result<LabeledGraph, WireError> {
        // each count is checked against the vertex cap and the bytes
        // actually present before anything is allocated, so a corrupt count
        // cannot drive allocation
        let nv = self.u32()? as usize;
        if nv > MAX_VERTICES {
            return Err(WireError::Malformed(format!(
                "vertex count {nv} above the cap of {MAX_VERTICES}"
            )));
        }
        let raw = self
            .take(nv.saturating_mul(2))
            .map_err(|_| WireError::Malformed("vertex count exceeds frame".into()))?;
        let labels = raw
            .chunks_exact(2)
            .map(|b| u16::from_be_bytes([b[0], b[1]]))
            .collect();
        let ne = self.u32()? as usize;
        let raw = self
            .take(ne.saturating_mul(8))
            .map_err(|_| WireError::Malformed("edge count exceeds frame".into()))?;
        let word = |b: &[u8]| u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        let edges: Vec<_> = raw
            .chunks_exact(8)
            .map(|b| (word(&b[..4]), word(&b[4..])))
            .collect();
        LabeledGraph::from_parts(labels, &edges)
            .map_err(|e| WireError::Malformed(format!("graph: {e}")))
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }
    fn done(&self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes",
                self.buf.len() - self.at
            )))
        }
    }
}

// ------------------------------------------------- telemetry encoding --

fn encode_health(e: &mut Enc, h: &HealthSnapshot) {
    for (_, v) in h.iter() {
        e.u64(v);
    }
}

fn decode_health(d: &mut Dec) -> Result<HealthSnapshot, WireError> {
    HealthCounter::ALL
        .into_iter()
        .map(|counter| Ok((counter, d.u64()?)))
        .collect()
}

/// Bytes one encoded [`ShardStatsSnapshot`] occupies (6 × u64).
const SHARD_STATS_BYTES: usize = 48;

fn encode_shard_stats(e: &mut Enc, shards: &[ShardStatsSnapshot]) {
    e.u32(shards.len() as u32);
    for s in shards {
        e.u64(s.hits);
        e.u64(s.misses);
        e.u64(s.evictions);
        e.u64(s.quarantined);
        e.u64(s.shed);
        e.u64(s.log_records);
    }
}

fn decode_shard_stats(d: &mut Dec) -> Result<Vec<ShardStatsSnapshot>, WireError> {
    let n = d.u32()? as usize;
    if n.saturating_mul(SHARD_STATS_BYTES) > d.remaining() {
        return Err(WireError::Malformed("shard count exceeds frame".into()));
    }
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(ShardStatsSnapshot {
            hits: d.u64()?,
            misses: d.u64()?,
            evictions: d.u64()?,
            quarantined: d.u64()?,
            shed: d.u64()?,
            log_records: d.u64()?,
        });
    }
    Ok(shards)
}

fn encode_histogram(e: &mut Enc, h: &HistogramSnapshot) {
    e.u32(HISTOGRAM_BUCKETS as u32);
    for &b in &h.buckets {
        e.u64(b);
    }
    e.u64(h.count);
    e.u64(h.sum);
    e.u64(h.max);
}

fn decode_histogram(d: &mut Dec) -> Result<HistogramSnapshot, WireError> {
    let n = d.u32()? as usize;
    if n != HISTOGRAM_BUCKETS {
        return Err(WireError::Malformed(format!("histogram bucket count {n}")));
    }
    let mut snap = HistogramSnapshot::default();
    for b in &mut snap.buckets {
        *b = d.u64()?;
    }
    snap.count = d.u64()?;
    snap.sum = d.u64()?;
    snap.max = d.u64()?;
    Ok(snap)
}

fn encode_spans(e: &mut Enc, spans: &StageSpans) {
    for (_, nanos) in spans.iter() {
        e.u64(nanos);
    }
}

fn decode_spans(d: &mut Dec) -> Result<StageSpans, WireError> {
    let mut spans = StageSpans::default();
    for stage in STAGES {
        spans.record(stage, d.u64()?);
    }
    Ok(spans)
}

impl Request {
    /// Serializes into a frame body (tag + payload, no length word).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc(Vec::new());
        self.encode_to(&mut e);
        e.0
    }

    /// Writes this request as one frame, encoded straight into the
    /// buffer that is written.
    pub(crate) fn write_frame(&self, w: &mut impl Write) -> Result<(), WireError> {
        write_with(w, |e| self.encode_to(e))
    }

    fn encode_to(&self, e: &mut Enc) {
        match self {
            Request::Query {
                kind,
                deadline_ms,
                graph,
            } => e.query(*kind, *deadline_ms, graph),
            Request::Ua { id, u, v } => {
                e.u8(REQ_UA);
                e.u64(*id);
                e.u32(*u);
                e.u32(*v);
            }
            Request::Ur { id, u, v } => {
                e.u8(REQ_UR);
                e.u64(*id);
                e.u32(*u);
                e.u32(*v);
            }
            Request::Health => e.u8(REQ_HEALTH),
            Request::Audit {
                sample_permille,
                seed,
            } => {
                e.u8(REQ_AUDIT);
                e.u16(*sample_permille);
                e.u64(*seed);
            }
            Request::Stats => e.u8(REQ_STATS),
        }
    }

    /// Parses a frame body produced by [`Request::encode`].
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(body);
        let req = match d.u8()? {
            REQ_QUERY => {
                let kind = decode_kind(d.u8()?)?;
                let deadline_ms = d.u32()?;
                let graph = d.graph()?;
                Request::Query {
                    kind,
                    deadline_ms,
                    graph,
                }
            }
            REQ_UA => Request::Ua {
                id: d.u64()?,
                u: d.u32()?,
                v: d.u32()?,
            },
            REQ_UR => Request::Ur {
                id: d.u64()?,
                u: d.u32()?,
                v: d.u32()?,
            },
            REQ_HEALTH => Request::Health,
            REQ_AUDIT => Request::Audit {
                sample_permille: d.u16()?,
                seed: d.u64()?,
            },
            REQ_STATS => Request::Stats,
            t => return Err(WireError::Malformed(format!("request tag {t:#x}"))),
        };
        d.done()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes into a frame body (tag + payload, no length word).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc(Vec::new());
        self.encode_to(&mut e);
        e.0
    }

    /// Writes this response as one frame, encoded straight into the
    /// buffer that is written.
    pub(crate) fn write_frame(&self, w: &mut impl Write) -> Result<(), WireError> {
        write_with(w, |e| self.encode_to(e))
    }

    fn encode_to(&self, e: &mut Enc) {
        match self {
            Response::Answer {
                ids,
                degraded,
                baseline_shards,
            } => {
                e.0.reserve(10 + 8 * ids.len());
                e.u8(RSP_ANSWER);
                e.u8(interrupt_code(*degraded));
                e.u32(*baseline_shards);
                e.u32(ids.len() as u32);
                for &id in ids {
                    e.u64(id);
                }
            }
            Response::Updated { id } => {
                e.u8(RSP_UPDATED);
                e.u64(*id);
            }
            Response::Health(snapshot) => {
                e.u8(RSP_HEALTH);
                encode_health(e, snapshot);
            }
            Response::Audited(r) => {
                e.u8(RSP_AUDITED);
                for v in [r.sampled, r.clean, r.repaired] {
                    e.u64(v as u64);
                }
            }
            Response::Overloaded => e.u8(RSP_OVERLOADED),
            Response::Retryable(m) => {
                e.u8(RSP_RETRYABLE);
                e.bytes(m.as_bytes());
            }
            Response::Stats(s) => {
                e.u8(RSP_STATS);
                e.u64(s.queries);
                e.u64(s.updates);
                encode_health(e, &s.health);
                encode_shard_stats(e, &s.shards);
                encode_histogram(e, &s.latency);
                encode_spans(e, &s.stages);
                e.u64(s.index_bytes);
                e.u64(s.index_syncs);
                e.u64(s.index_sync_nanos);
                e.u64(s.decoded_query_hits);
                e.u64(s.decoded_queries);
            }
            Response::Error(m) => {
                e.u8(RSP_ERROR);
                e.bytes(m.as_bytes());
            }
        }
    }

    /// Parses a frame body produced by [`Response::encode`].
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(body);
        let rsp = match d.u8()? {
            RSP_ANSWER => {
                let degraded = decode_interrupt(d.u8()?)?;
                let baseline_shards = d.u32()?;
                let n = d.u32()? as usize;
                if n.saturating_mul(8) > body.len() {
                    return Err(WireError::Malformed("id count exceeds frame".into()));
                }
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(d.u64()?);
                }
                Response::Answer {
                    ids,
                    degraded,
                    baseline_shards,
                }
            }
            RSP_UPDATED => Response::Updated { id: d.u64()? },
            RSP_HEALTH => Response::Health(decode_health(&mut d)?),
            RSP_AUDITED => Response::Audited(AuditReport {
                sampled: d.u64()? as usize,
                clean: d.u64()? as usize,
                repaired: d.u64()? as usize,
            }),
            RSP_OVERLOADED => Response::Overloaded,
            RSP_RETRYABLE => Response::Retryable(d.string()?),
            RSP_STATS => Response::Stats(Box::new(ServiceStats {
                queries: d.u64()?,
                updates: d.u64()?,
                health: decode_health(&mut d)?,
                shards: decode_shard_stats(&mut d)?,
                latency: decode_histogram(&mut d)?,
                stages: decode_spans(&mut d)?,
                index_bytes: d.u64()?,
                index_syncs: d.u64()?,
                index_sync_nanos: d.u64()?,
                decoded_query_hits: d.u64()?,
                decoded_queries: d.u64()?,
            })),
            RSP_ERROR => Response::Error(d.string()?),
            t => return Err(WireError::Malformed(format!("response tag {t:#x}"))),
        };
        d.done()?;
        Ok(rsp)
    }
}

/// Bytes of a query body ahead of its graph: tag, kind and deadline.
pub(crate) const QUERY_HEADER: usize = 6;

/// A query body's kind, deadline and graph bytes, when its header decodes
/// as a query's. The graph bytes are not read: the caller either finds
/// them among bytes that decoded before or decodes the body whole.
pub(crate) fn query_parts(body: &[u8]) -> Option<(QueryKind, u32, &[u8])> {
    let (&[tag, kind, d0, d1, d2, d3], graph) = body.split_first_chunk::<QUERY_HEADER>()?;
    if tag != REQ_QUERY {
        return None;
    }
    let kind = decode_kind(kind).ok()?;
    Some((kind, u32::from_be_bytes([d0, d1, d2, d3]), graph))
}

// --------------------------------------------------------------- frames --

/// Writes a query request as one frame, encoded from the caller's
/// borrowed graph: the bytes of [`Request::Query`] without cloning the
/// graph into one.
pub(crate) fn write_query(
    w: &mut impl Write,
    kind: QueryKind,
    deadline_ms: u32,
    graph: &LabeledGraph,
) -> Result<(), WireError> {
    write_with(w, |e| e.query(kind, deadline_ms, graph))
}

/// Writes one length-prefixed frame as a single write: `body` encodes
/// behind a placeholder length word, which is then patched in place. On a
/// `TCP_NODELAY` stream two writes are two syscalls and usually two
/// segments, and the peer's read wakes before the body has arrived.
fn write_with(w: &mut impl Write, body: impl FnOnce(&mut Enc)) -> Result<(), WireError> {
    let mut e = Enc(vec![0; 4]);
    body(&mut e);
    let n = e.0.len() - 4;
    let len = u32::try_from(n)
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| WireError::Malformed(format!("frame body {n} too large")))?;
    e.0[..4].copy_from_slice(&len.to_be_bytes());
    w.write_all(&e.0)?;
    w.flush()?;
    Ok(())
}

/// Starting capacity cap for a frame body's buffer: an announcement past
/// this is believed only as far as bytes arrive.
const EAGER_FRAME: usize = 64 * 1024;

/// Reads one length-prefixed frame. A clean EOF *before* the length word
/// maps to `Io(UnexpectedEof)` like any mid-frame cut — callers treat
/// both as the peer going away. The body buffer starts at no more than
/// `EAGER_FRAME` (64 KiB) and grows with the bytes actually received, so
/// a peer announcing [`MAX_FRAME`] and sending nothing costs 64 KiB, not
/// 16 MiB.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len);
    if len == 0 || len > MAX_FRAME {
        return Err(WireError::Malformed(format!("frame length {len}")));
    }
    let len = len as usize;
    let mut body = Vec::with_capacity(len.min(EAGER_FRAME));
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> LabeledGraph {
        LabeledGraph::from_parts(vec![3, 1, 4, 1], &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap()
    }

    fn roundtrip_req(req: Request) {
        let body = req.encode();
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    fn roundtrip_rsp(rsp: Response) {
        let body = rsp.encode();
        assert_eq!(Response::decode(&body).unwrap(), rsp);
    }

    #[test]
    fn requests_round_trip() {
        roundtrip_req(Request::Query {
            kind: QueryKind::Subgraph,
            deadline_ms: 250,
            graph: graph(),
        });
        roundtrip_req(Request::Query {
            kind: QueryKind::Supergraph,
            deadline_ms: 0,
            graph: graph(),
        });
        roundtrip_req(Request::Ua { id: 7, u: 1, v: 3 });
        roundtrip_req(Request::Ur {
            id: u64::MAX,
            u: 0,
            v: 2,
        });
        roundtrip_req(Request::Health);
        roundtrip_req(Request::Audit {
            sample_permille: 1000,
            seed: 42,
        });
        roundtrip_req(Request::Stats);
    }

    #[test]
    fn a_decoded_graph_carries_the_encoded_graphs_signature() {
        // the sender's signature was maintained across UA/UR, the
        // receiver's is built on its first read from the CSR the decoder
        // laid out: both must be the signature of the same graph, fingerprint
        // included, or the server would filter with other bits than the
        // client's graph has
        let mut sent = graph();
        sent.signature();
        sent.add_edge(0, 2).unwrap();
        sent.remove_edge(1, 2).unwrap();
        for g in [sent, LabeledGraph::from_parts(vec![7, 7], &[]).unwrap()] {
            let body = Request::Query {
                kind: QueryKind::Subgraph,
                deadline_ms: 0,
                graph: g.clone(),
            }
            .encode();
            let Request::Query { graph: got, .. } = Request::decode(&body).unwrap() else {
                panic!("a query decodes as a query");
            };
            assert_eq!(got.signature(), g.signature());
        }
    }

    #[test]
    fn responses_round_trip() {
        roundtrip_rsp(Response::Answer {
            ids: vec![0, 3, 99, u64::MAX],
            degraded: None,
            baseline_shards: 0,
        });
        roundtrip_rsp(Response::Answer {
            ids: vec![],
            degraded: Some(Interrupt::Deadline),
            baseline_shards: 2,
        });
        roundtrip_rsp(Response::Updated { id: 12 });
        roundtrip_rsp(Response::Health(
            [
                (HealthCounter::PanicsRecovered, 1),
                (HealthCounter::QuarantinedEntries, 2),
                (HealthCounter::DegradedQueries, 3),
                (HealthCounter::AuditRepairs, 4),
                (HealthCounter::LoadShed, 5),
                (HealthCounter::ShardFailovers, 6),
                (HealthCounter::BaselineServed, 7),
                (HealthCounter::RepairsApplied, 8),
                (HealthCounter::InvalidationsAvoided, 9),
                (HealthCounter::RepairFallbacks, 10),
            ]
            .into_iter()
            .collect(),
        ));
        roundtrip_rsp(Response::Audited(AuditReport {
            sampled: 10,
            clean: 9,
            repaired: 1,
        }));
        roundtrip_rsp(Response::Overloaded);
        roundtrip_rsp(Response::Retryable("update lock poisoned".into()));
        roundtrip_rsp(Response::Error("no such graph 4".into()));
    }

    #[test]
    fn stats_response_round_trips() {
        use gc_telemetry::{Histogram, Stage};
        let h = Histogram::new();
        for v in [3u64, 250, 250, 90_000, 1_000_000] {
            h.record(v);
        }
        let mut stages = StageSpans::default();
        stages.record(Stage::HitProbe, 12_345);
        stages.record(Stage::Verify, 678_900);
        let stats = ServiceStats {
            queries: 420,
            updates: 17,
            health: [(HealthCounter::LoadShed, 9)].into_iter().collect(),
            shards: vec![
                ShardStatsSnapshot {
                    hits: 300,
                    misses: 120,
                    evictions: 5,
                    quarantined: 0,
                    shed: 9,
                    log_records: 4_000,
                },
                ShardStatsSnapshot {
                    hits: 10,
                    misses: 410,
                    evictions: 0,
                    quarantined: 2,
                    shed: 0,
                    log_records: 0,
                },
            ],
            latency: h.snapshot(),
            stages,
            index_bytes: 81_920,
            index_syncs: 14,
            index_sync_nanos: 2_700_000,
            decoded_query_hits: 3_100,
            decoded_queries: 118,
        };
        roundtrip_rsp(Response::Stats(Box::new(stats)));
        // an empty snapshot (fresh server, metrics off) also round-trips
        roundtrip_rsp(Response::Stats(Box::default()));
    }

    #[test]
    fn malformed_stats_payloads_are_rejected() {
        // a shard count far beyond the frame must fail fast, not allocate
        let health_bytes = 8 * HealthCounter::ALL.len();
        let mut evil = vec![RSP_STATS];
        evil.resize(1 + 16 + health_bytes, 0); // valid counters and health
        evil.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            Response::decode(&evil),
            Err(WireError::Malformed(_))
        ));
        // a histogram with the wrong bucket count is a protocol error
        let good = Response::Stats(Box::default()).encode();
        let mut bad = good.clone();
        // bucket-count word sits after tag + 2×u64 + health + shard count
        let at = 1 + 16 + health_bytes + 4;
        bad[at..at + 4].copy_from_slice(&63u32.to_be_bytes());
        assert!(matches!(
            Response::decode(&bad),
            Err(WireError::Malformed(_))
        ));
        // truncated mid-histogram
        assert!(Response::decode(&good[..good.len() - 5]).is_err());
        // trailing garbage is rejected
        let mut long = good.clone();
        long.push(0);
        assert!(Response::decode(&long).is_err());
    }

    #[test]
    fn idempotency_classification() {
        assert!(Request::Health.idempotent());
        assert!(Request::Audit {
            sample_permille: 10,
            seed: 0
        }
        .idempotent());
        assert!(Request::Query {
            kind: QueryKind::Subgraph,
            deadline_ms: 0,
            graph: graph()
        }
        .idempotent());
        assert!(!Request::Ua { id: 0, u: 0, v: 1 }.idempotent());
        assert!(!Request::Ur { id: 0, u: 0, v: 1 }.idempotent());
    }

    #[test]
    fn malformed_bodies_are_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xff]).is_err());
        assert!(Response::decode(&[0x42]).is_err());
        // trailing garbage is a protocol error, not ignored
        let mut body = Request::Health.encode();
        body.push(0);
        assert!(Request::decode(&body).is_err());
        // truncated graph
        let body = Request::Query {
            kind: QueryKind::Subgraph,
            deadline_ms: 0,
            graph: graph(),
        }
        .encode();
        assert!(Request::decode(&body[..body.len() - 3]).is_err());
        // a vertex count far beyond the frame must fail fast, not allocate
        let mut evil = vec![REQ_QUERY, 0, 0, 0, 0, 0];
        evil.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(Request::decode(&evil).is_err());
    }

    #[test]
    fn query_parts_split_exactly_what_the_decoder_reads() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut queries = 0;
        for round in 0..20_000u32 {
            let mut body = Request::Query {
                kind: if round % 2 == 0 {
                    QueryKind::Subgraph
                } else {
                    QueryKind::Supergraph
                },
                deadline_ms: rng.random(),
                graph: graph(),
            }
            .encode();
            // cut, or flip a few bits of, most bodies: the tag, the kind
            // code and the graph bytes all get hit
            match round % 3 {
                0 => body.truncate(rng.random_range(0..body.len())),
                1 => {
                    for _ in 0..rng.random_range(1..4u32) {
                        let bit = rng.random_range(0..8 * body.len());
                        body[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                _ => {}
            }
            match (Request::decode(&body), query_parts(&body)) {
                (
                    Ok(Request::Query {
                        kind, deadline_ms, ..
                    }),
                    Some(parts),
                ) => {
                    assert_eq!(parts, (kind, deadline_ms, &body[QUERY_HEADER..]));
                    queries += 1;
                }
                (Ok(Request::Query { .. }), None) => panic!("a query body with no parts"),
                // a header that splits may still carry bad graph bytes
                (Err(_), _) | (Ok(_), None) => {}
                (Ok(other), Some(_)) => panic!("{other:?} split as a query"),
            }
        }
        assert!(queries > 6_000, "{queries} bodies decoded as queries");
    }

    #[test]
    fn the_vertex_cap_is_an_explicit_error_on_the_wire() {
        // a query frame announcing `nv` vertices, every label present and
        // no edge: only the count can make it malformed
        let frame = |nv: usize| {
            let mut body = vec![REQ_QUERY, 0, 0, 0, 0, 0];
            body.extend_from_slice(&(nv as u32).to_be_bytes());
            body.resize(body.len() + 2 * nv, 0);
            body.extend_from_slice(&0u32.to_be_bytes());
            Request::decode(&body)
        };
        match frame(MAX_VERTICES) {
            Ok(Request::Query { graph, .. }) => assert_eq!(graph.vertex_count(), MAX_VERTICES),
            other => panic!("{other:?}"),
        }
        match frame(MAX_VERTICES + 1) {
            Err(WireError::Malformed(m)) => assert!(m.contains("cap"), "{m}"),
            other => panic!("{other:?}"),
        }
        // past the cap the count alone is refused: no label is read
        let mut evil = vec![REQ_QUERY, 0, 0, 0, 0, 0];
        evil.extend_from_slice(&(MAX_VERTICES as u32 + 1).to_be_bytes());
        assert!(matches!(
            Request::decode(&evil),
            Err(WireError::Malformed(m)) if m.contains("cap")
        ));
        // the largest graph round-trips, its last vertex on an edge
        let n = MAX_VERTICES as u32;
        let path: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
        roundtrip_req(Request::Query {
            kind: QueryKind::Supergraph,
            deadline_ms: 5,
            graph: LabeledGraph::from_parts(vec![2; MAX_VERTICES], &path).unwrap(),
        });
    }

    #[test]
    fn frames_round_trip_and_reject_bad_lengths() {
        let body = Request::Health.encode();
        let mut buf = Vec::new();
        Request::Health.write_frame(&mut buf).unwrap();
        assert_eq!(buf.len(), 4 + body.len());
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), body);

        // zero-length and oversized frames are rejected before allocation
        let zero = 0u32.to_be_bytes();
        assert!(matches!(
            read_frame(&mut &zero[..]),
            Err(WireError::Malformed(_))
        ));
        let huge = (MAX_FRAME + 1).to_be_bytes();
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(WireError::Malformed(_))
        ));
        // cut mid-frame: transport error
        let mut cut = Vec::new();
        Request::Health.write_frame(&mut cut).unwrap();
        cut.truncate(cut.len() - 1);
        assert!(matches!(read_frame(&mut &cut[..]), Err(WireError::Io(_))));
    }

    /// A reader over a byte slice that fails the test if it is ever
    /// handed a buffer larger than [`EAGER_FRAME`]: proof that the frame
    /// reader did not size its buffer by the announced length alone.
    struct Stingy<'a>(&'a [u8]);

    impl Read for Stingy<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert!(buf.len() <= EAGER_FRAME, "{} bytes asked for", buf.len());
            self.0.read(buf)
        }
    }

    #[test]
    fn a_frame_announcing_more_than_its_stream_holds_is_a_wire_error() {
        let body = Request::Health.encode();
        for len in [64, EAGER_FRAME as u32 + 1, MAX_FRAME] {
            let mut frame = len.to_be_bytes().to_vec();
            frame.extend_from_slice(&body);
            assert!(
                matches!(read_frame(&mut Stingy(&frame)), Err(WireError::Io(_))),
                "announced {len}"
            );
        }
        // a long frame that does arrive in full reads back intact
        let big = Response::Answer {
            ids: (0..2 * EAGER_FRAME as u64 / 8).collect(),
            degraded: None,
            baseline_shards: 0,
        };
        let mut frame = Vec::new();
        big.write_frame(&mut frame).unwrap();
        assert_eq!(read_frame(&mut Stingy(&frame)).unwrap(), big.encode());
    }

    /// Length word + body, the layout every framed write must produce.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut frame = (body.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(body);
        frame
    }

    #[test]
    fn framed_writes_are_the_length_word_and_the_encoded_body() {
        let g = graph();
        let requests = [
            Request::Query {
                kind: QueryKind::Supergraph,
                deadline_ms: 17,
                graph: g.clone(),
            },
            Request::Ua { id: 7, u: 1, v: 3 },
            Request::Health,
            Request::Stats,
        ];
        for req in &requests {
            let mut frame = Vec::new();
            req.write_frame(&mut frame).unwrap();
            assert_eq!(frame, framed(&req.encode()), "{req:?}");
        }
        // a query framed from the borrowed graph is the owned query's frame
        let mut frame = Vec::new();
        write_query(&mut frame, QueryKind::Supergraph, 17, &g).unwrap();
        assert_eq!(frame, framed(&requests[0].encode()));
        let responses = [
            Response::Answer {
                ids: vec![2, 9],
                degraded: Some(Interrupt::Deadline),
                baseline_shards: 1,
            },
            Response::Overloaded,
            Response::Stats(Box::default()),
            Response::Error("no such graph 4".into()),
        ];
        for rsp in &responses {
            let mut frame = Vec::new();
            rsp.write_frame(&mut frame).unwrap();
            assert_eq!(frame, framed(&rsp.encode()), "{rsp:?}");
        }
    }

    /// A reader over a byte slice that hands out 1–7 bytes per call, as a
    /// socket may.
    struct Trickle<'a> {
        bytes: &'a [u8],
        rng: rand::rngs::StdRng,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            use rand::Rng;
            let n = self.rng.random_range(1..8usize).min(buf.len());
            let (chunk, rest) = self.bytes.split_at(n.min(self.bytes.len()));
            buf[..chunk.len()].copy_from_slice(chunk);
            self.bytes = rest;
            Ok(chunk.len())
        }
    }

    /// Seeded fuzz over both decoders: random bytes (half of them behind a
    /// valid tag), valid bodies cut short, and valid bodies with a few
    /// bits flipped. Every outcome must be `Ok` or a `WireError`; a panic
    /// fails the test. Then all of them, framed on one stream, must read
    /// back the same whether the stream arrives whole or in 1–7 byte
    /// pieces.
    #[test]
    fn decoders_survive_random_truncated_and_bit_flipped_bodies() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let valid: Vec<Vec<u8>> = [
            Request::Query {
                kind: QueryKind::Supergraph,
                deadline_ms: 9,
                graph: graph(),
            }
            .encode(),
            Request::Ua { id: 3, u: 0, v: 2 }.encode(),
            Request::Audit {
                sample_permille: 500,
                seed: 1,
            }
            .encode(),
            Response::Answer {
                ids: vec![1, 5, 8],
                degraded: Some(Interrupt::TestCap),
                baseline_shards: 1,
            }
            .encode(),
            Response::Health(HealthSnapshot::default()).encode(),
            Response::Stats(Box::default()).encode(),
            Response::Error("shard 1 down".into()).encode(),
        ]
        .into();
        let tags = [
            REQ_QUERY,
            REQ_UA,
            REQ_UR,
            REQ_AUDIT,
            RSP_ANSWER,
            RSP_HEALTH,
            RSP_RETRYABLE,
            RSP_STATS,
            RSP_ERROR,
        ];
        let mut rng = StdRng::seed_from_u64(0xDEC0DE);
        let mut bodies = Vec::new();
        for round in 0..30_000u32 {
            let body = match round % 3 {
                0 => {
                    let n = rng.random_range(0..96usize);
                    let mut b: Vec<u8> = (0..n).map(|_| rng.random::<u8>()).collect();
                    if n > 0 && rng.random::<bool>() {
                        b[0] = tags[rng.random_range(0..tags.len())];
                    }
                    b
                }
                1 => {
                    let v = &valid[rng.random_range(0..valid.len())];
                    v[..rng.random_range(0..v.len())].to_vec()
                }
                _ => {
                    let mut b = valid[rng.random_range(0..valid.len())].clone();
                    for _ in 0..rng.random_range(1..4u32) {
                        let bit = rng.random_range(0..8 * b.len());
                        b[bit / 8] ^= 1 << (bit % 8);
                    }
                    b
                }
            };
            let _ = Request::decode(&body);
            let _ = Response::decode(&body);
            if !body.is_empty() {
                bodies.push(body);
            }
        }

        // the same bodies framed back to back on one stream read the same
        // through a reader that returns 1–7 bytes per call as in one shot
        let stream: Vec<u8> = bodies.iter().flat_map(|b| framed(b)).collect();
        let mut whole = &stream[..];
        let mut trickle = Trickle {
            bytes: &stream,
            rng: StdRng::seed_from_u64(0xB17E),
        };
        for body in &bodies {
            assert_eq!(&read_frame(&mut whole).unwrap(), body);
            assert_eq!(&read_frame(&mut trickle).unwrap(), body);
        }
        assert!(matches!(read_frame(&mut whole), Err(WireError::Io(_))));
        assert!(matches!(read_frame(&mut trickle), Err(WireError::Io(_))));
    }
}
