//! The closed-loop load generator: one thread per connection, each sending
//! its next op when the previous reply arrives, through the public
//! [`CacheClient`] against a real server child over loopback TCP.
//!
//! Closed loop because GC+ sits in front of a query processor whose
//! callers wait for each answer (the paper evaluates a sequential query
//! stream); the client count is the workload's connection count.

use std::sync::Barrier;
use std::time::Instant;

use gc_dataset::GraphStore;
use gc_server::CacheClient;
use gc_subiso::{Algorithm, MethodM};

use crate::child::{Placement, ServerChild};
use crate::probe::{GroupProbe, HostProbe};
use crate::stats::{mean, quantile_sorted, second_best, spread_share, Better, Fnv};
use crate::workload::{apply_to_store, Op, Population, Scale, Spec, Streams};

/// What one connection observed, one entry per op of its stream.
#[derive(Default)]
pub struct ConnLog {
    /// Client-observed latency of each op.
    pub lat_ns: Vec<u64>,
    /// Send time of each op since the run's epoch (kept only when spans
    /// are recorded).
    pub start_ns: Vec<u64>,
    /// Hash of each query's answer; 0 for updates.
    pub answer_hash: Vec<u64>,
    /// Ops that ended in a transport error, `Error`, exhausted
    /// `Overloaded`/`Retryable`, or a `degraded` answer.
    pub failed: u64,
    pub retries: u64,
    /// Full answers at the oracle positions (connection 0 only).
    pub sampled: Vec<(usize, Vec<u64>)>,
}

/// Everything set up and warmed: ready for the first measured op.
pub struct Ready {
    pub pop: Population,
    pub streams: Streams,
    pub server: ServerChild,
    conns: Vec<Connection>,
    pub placement: Placement,
    /// Seconds from the start of set-up to the end of warm-up, as the
    /// clock read them.
    pub setup_raw_s: f64,
    /// Host slowness while setting up (see [`crate::probe`]).
    pub setup_slowness: f64,
}

impl Ready {
    /// Set-up time at reference host speed.
    pub fn setup_s(&self) -> f64 {
        self.setup_raw_s / self.setup_slowness
    }
}

/// Population and stream generation, child spawn, connect and warm-up —
/// all that `setup_s` covers. The warm-up sends the connections' ops
/// round-robin from this thread, the order the in-process ladder levels
/// replay, so every level starts its measured part from the same state.
pub fn setup(
    spec: &Spec,
    scale: &Scale,
    seed: u64,
    passes: usize,
    record_spans: bool,
) -> Result<Ready, String> {
    let t0 = Instant::now();
    let placement = Placement::for_connections(spec.conns);
    placement.hold_this_thread()?;
    let mut probe = HostProbe::default();
    let mut probe_ns = probe.point();
    let pop = Population::build(spec, scale, passes);
    probe_ns += probe.point();
    let streams = Streams::generate(spec, scale, &pop, seed, passes);
    probe_ns += probe.point();
    let server = ServerChild::spawn(scale.graphs, spec.shards)?;
    let epoch = Instant::now();
    let mut conns = Vec::with_capacity(spec.conns);
    for index in 0..spec.conns {
        conns.push(Connection {
            index,
            client: server
                .connect(index, &placement)?
                .with_jitter_seed(seed + index as u64),
            log: ConnLog::default(),
            epoch,
            record_spans,
        });
    }
    for i in 0..streams.warmup_ops {
        probe_ns += probe.tick(i, streams.warmup_ops);
        for conn in &mut conns {
            conn.send(&pop, &streams, i);
        }
    }
    Ok(Ready {
        pop,
        streams,
        server,
        conns,
        placement,
        setup_raw_s: t0.elapsed().as_secs_f64() - probe_ns as f64 / 1e9,
        setup_slowness: probe.take_slowness(),
    })
}

/// One generator connection: its client and what it has observed.
struct Connection {
    index: usize,
    client: CacheClient,
    log: ConnLog,
    /// Zero of the span clock, shared by the run's connections.
    epoch: Instant,
    record_spans: bool,
}

impl Connection {
    /// Sends op `i` of this connection's stream and logs what came back.
    fn send(&mut self, pop: &Population, streams: &Streams, i: usize) {
        let t = Instant::now();
        let outcome = match streams.conns[self.index][i] {
            Op::Query(k) => {
                let (graph, kind) = &pop.pool[k as usize];
                self.client
                    .query(graph, *kind, None)
                    .map(|reply| (reply.degraded.is_none(), Some(reply.ids)))
            }
            Op::Ua { id, u, v } => self.client.ua(id, u, v).map(|_| (true, None)),
            Op::Ur { id, u, v } => self.client.ur(id, u, v).map(|_| (true, None)),
        };
        self.log.lat_ns.push(t.elapsed().as_nanos() as u64);
        if self.record_spans {
            self.log.start_ns.push((t - self.epoch).as_nanos() as u64);
        }
        let (ok, ids) = outcome.unwrap_or((false, None));
        self.log
            .answer_hash
            .push(ids.as_deref().map_or(0, Fnv::of_ids));
        if !ok {
            self.log.failed += 1;
        }
        if let Some(ids) = ids {
            if self.index == 0 && streams.oracle_positions.binary_search(&i).is_ok() {
                self.log.sampled.push((i, ids));
            }
        }
    }
}

/// Busy time (the probe stops taken out), server CPU and host slowness
/// (mean over the connections' generator threads) of each measured pass.
#[derive(Default, Clone)]
pub struct PassMarks {
    pub wall_ns: Vec<u64>,
    pub cpu_us: Vec<u64>,
    pub slowness: Vec<f64>,
}

pub struct LoopbackRun {
    pub pop: Population,
    pub streams: Streams,
    pub logs: Vec<ConnLog>,
    pub marks: PassMarks,
    pub peak_rss_kib: u64,
    pub placement: Placement,
}

/// Runs the measured passes. All connections start each pass together
/// and the pass ends when the last one finishes; at the pass's probe
/// points they all stop and probe the host, and connection 0 reads the
/// child's CPU clock. The server is handed back alive (its peak memory
/// already read) so the traced run can still ping it.
pub fn measure(ready: Ready) -> Result<(LoopbackRun, ServerChild), String> {
    let Ready {
        pop,
        streams,
        server,
        conns,
        placement,
        ..
    } = ready;
    let barrier = Barrier::new(conns.len());
    type Marked = Result<(ConnLog, PassMarks), String>;
    let per_conn: Vec<Marked> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let c = conn.index;
                let (pop, streams, server) = (&pop, &streams, &server);
                let (barrier, placement) = (&barrier, &placement);
                scope.spawn(move || -> Marked {
                    // a thread that cannot pin must still meet the others
                    // at every barrier, so the error waits until the end
                    let pinned = placement.pin_this_thread(c);
                    let mut probe = GroupProbe::new(barrier);
                    let mut marks = PassMarks::default();
                    let mut cpu_error = None;
                    let mut read_cpu = || {
                        server.cpu_us().unwrap_or_else(|e| {
                            cpu_error = Some(e);
                            0
                        })
                    };
                    probe.sync();
                    probe.take();
                    for pass in 0..streams.passes {
                        // the server idles through a probe stop, so the CPU
                        // clock may be read on either side of one
                        let cpu = if c == 0 { read_cpu() } else { 0 };
                        let from = streams.warmup_ops + pass * streams.ops_per_pass;
                        for i in from..from + streams.ops_per_pass {
                            probe.tick(i - from, streams.ops_per_pass);
                            conn.send(pop, streams, i);
                        }
                        probe.sync();
                        let (busy_ns, slowness) = probe.take();
                        marks.slowness.push(slowness);
                        if c == 0 {
                            marks.wall_ns.push(busy_ns);
                            marks.cpu_us.push(read_cpu().saturating_sub(cpu));
                        }
                    }
                    conn.log.retries = conn.client.retries_total();
                    pinned?;
                    match cpu_error {
                        Some(e) => Err(e),
                        None => Ok((conn.log, marks)),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut logs = Vec::with_capacity(per_conn.len());
    let mut marks = PassMarks::default();
    for (c, conn) in per_conn.into_iter().enumerate() {
        let (log, m) = conn?;
        logs.push(log);
        if c == 0 {
            marks = m;
        } else {
            for (sum, s) in marks.slowness.iter_mut().zip(m.slowness) {
                *sum += s;
            }
        }
    }
    for sum in &mut marks.slowness {
        *sum /= logs.len() as f64;
    }
    // read before the child goes away: the peak covers warm-up + passes
    let peak_rss_kib = server.peak_rss_kib()?;
    let run = LoopbackRun {
        pop,
        streams,
        logs,
        marks,
        peak_rss_kib,
        placement,
    };
    Ok((run, server))
}

/// Per-pass figures of a loopback run and their best-quartile estimates.
/// Times are at reference host speed (see [`crate::probe`]) unless they
/// say `raw`.
pub struct Summary {
    pub throughput_rps: f64,
    pub query_p50_us: f64,
    pub query_p99_us: f64,
    /// 0 on workloads without updates.
    pub update_p50_us: f64,
    pub cpu_us_per_op: f64,
    /// The same four estimates as the clock read them.
    pub raw_throughput_rps: f64,
    pub raw_query_p50_us: f64,
    pub raw_query_p99_us: f64,
    pub raw_cpu_us_per_op: f64,
    /// Mean host slowness over the passes (1.0 = reference host, idle).
    pub host_slowness: f64,
    /// Mean requests in flight over the passes (Little's law).
    pub mean_inflight: f64,
    /// Inter-quartile spread of per-pass throughput, share of the median.
    pub pass_spread_share: f64,
    /// The per-pass figures behind the estimates, for the detail line.
    pub per_pass_rps: Vec<f64>,
    pub per_pass_p50_us: Vec<f64>,
    pub per_pass_p99_us: Vec<f64>,
    pub per_pass_cpu_us: Vec<f64>,
    pub per_pass_slowness: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub retries: u64,
    pub update_share: f64,
    /// Hash of connection 0's answers in stream order.
    pub answers_fnv: u64,
}

impl LoopbackRun {
    pub fn summary(&self) -> Summary {
        let s = &self.streams;
        // raw per-pass figures: throughput, p50, p99, update p50, cpu
        let mut raw: [Vec<f64>; 5] = Default::default();
        let mut inflight = Vec::new();
        let mut updates = 0usize;
        for pass in 0..s.passes {
            let from = s.warmup_ops + pass * s.ops_per_pass;
            let (mut q, mut u) = (Vec::new(), Vec::new());
            for (c, log) in self.logs.iter().enumerate() {
                for i in from..from + s.ops_per_pass {
                    if s.conns[c][i].is_query() {
                        q.push(log.lat_ns[i]);
                    } else {
                        u.push(log.lat_ns[i]);
                    }
                }
            }
            let ops = (q.len() + u.len()) as f64;
            let wall_ns = self.marks.wall_ns[pass] as f64;
            inflight.push((q.iter().sum::<u64>() + u.iter().sum::<u64>()) as f64 / wall_ns);
            updates += u.len();
            q.sort_unstable();
            u.sort_unstable();
            raw[0].push(ops / (wall_ns / 1e9));
            raw[1].push(quantile_sorted(&q, 0.50) as f64 / 1e3);
            raw[2].push(quantile_sorted(&q, 0.99) as f64 / 1e3);
            if !u.is_empty() {
                raw[3].push(quantile_sorted(&u, 0.50) as f64 / 1e3);
            }
            raw[4].push(self.marks.cpu_us[pass] as f64 / ops);
        }
        // a slow host stretches every time and shrinks every rate
        let slow = &self.marks.slowness;
        let at_reference_speed = |values: &[f64], rate: bool| -> Vec<f64> {
            values
                .iter()
                .zip(slow)
                .map(|(v, f)| if rate { v * f } else { v / f })
                .collect()
        };
        let rps = at_reference_speed(&raw[0], true);
        let p50 = at_reference_speed(&raw[1], false);
        let p99 = at_reference_speed(&raw[2], false);
        let up50 = at_reference_speed(&raw[3], false);
        let cpu = at_reference_speed(&raw[4], false);
        let mut fnv = Fnv::default();
        for &h in &self.logs[0].answer_hash {
            fnv.word(h);
        }
        let measured = (s.passes * s.ops_per_pass * s.conns.len()) as f64;
        Summary {
            throughput_rps: second_best(&rps, Better::Higher),
            query_p50_us: second_best(&p50, Better::Lower),
            query_p99_us: second_best(&p99, Better::Lower),
            update_p50_us: if up50.is_empty() {
                0.0
            } else {
                second_best(&up50, Better::Lower)
            },
            cpu_us_per_op: second_best(&cpu, Better::Lower),
            raw_throughput_rps: second_best(&raw[0], Better::Higher),
            raw_query_p50_us: second_best(&raw[1], Better::Lower),
            raw_query_p99_us: second_best(&raw[2], Better::Lower),
            raw_cpu_us_per_op: second_best(&raw[4], Better::Lower),
            host_slowness: mean(slow),
            mean_inflight: mean(&inflight),
            pass_spread_share: spread_share(&rps),
            per_pass_rps: rps,
            per_pass_p50_us: p50,
            per_pass_p99_us: p99,
            per_pass_cpu_us: cpu,
            per_pass_slowness: slow.clone(),
            attempted: self.logs.iter().map(|l| l.lat_ns.len() as u64).sum(),
            failed: self.logs.iter().map(|l| l.failed).sum(),
            retries: self.logs.iter().map(|l| l.retries).sum(),
            update_share: updates as f64 / measured,
            answers_fnv: fnv.0,
        }
    }
}

/// Outcome of re-computing the sampled answers without a cache.
#[derive(Default)]
pub struct OracleReport {
    pub checked: u64,
    pub wrong: u64,
    /// Wall time and sub-iso tests of each cache-less run.
    pub baseline_ns: Vec<u64>,
    pub baseline_tests: Vec<u64>,
    /// Stream positions checked, aligned with the two vectors above.
    pub positions: Vec<usize>,
    /// Host slowness while the baseline ran.
    pub slowness: f64,
}

/// Replays connection 0's stream on a plain store and, at each sampled
/// position, runs cache-less Method M over the whole live dataset — the
/// paper's Method M, the answer Theorems 3 and 6 promise the cache gives.
pub fn oracle_check(
    pop: &Population,
    streams: &Streams,
    sampled: &[(usize, Vec<u64>)],
) -> OracleReport {
    let method = MethodM::new(Algorithm::Vf2);
    let mut store = GraphStore::from_graphs(pop.dataset.clone());
    let mut report = OracleReport::default();
    let mut probe = HostProbe::default();
    let mut next = sampled.iter().peekable();
    for (i, op) in streams.conns[0].iter().enumerate() {
        match op {
            Op::Query(k) => {
                let Some((_, got)) = next.next_if(|(pos, _)| *pos == i) else {
                    continue;
                };
                let (graph, kind) = &pop.pool[*k as usize];
                probe.tick(report.positions.len(), sampled.len());
                let t = Instant::now();
                let truth = method.run(graph, *kind, &store, &store.live_bitset());
                report.baseline_ns.push(t.elapsed().as_nanos() as u64);
                report.baseline_tests.push(truth.tests);
                report.positions.push(i);
                report.checked += 1;
                let want: Vec<u64> = truth.answer.iter_ones().map(|g| g as u64).collect();
                if &want != got {
                    report.wrong += 1;
                }
            }
            update => apply_to_store(&mut store, update),
        }
    }
    // a sampled position that never produced an answer (failed op) is wrong
    report.wrong += (streams.oracle_positions.len() as u64).saturating_sub(report.checked);
    report.slowness = probe.take_slowness();
    report
}
