//! Fault tolerance: query budgets, deterministic fault injection, and
//! runtime health counters.
//!
//! The cache's correctness story (Theorems 3/6) assumes every pipeline
//! stage runs to completion. This module supplies the pieces that keep the
//! runtime *operational* when that assumption breaks:
//!
//! * [`QueryBudget`] — per-query wall-clock deadline and sub-iso test cap,
//!   materialized into a [`CancelToken`] threaded through the `gc_subiso`
//!   kernels. An exhausted budget degrades the query (explicitly tagged in
//!   its metrics) instead of wedging it;
//! * [`FaultPlan`] / [`FaultInjector`] — *deterministic*, seedable fault
//!   injection (panic at the K-th update or query, delay a query, silently
//!   corrupt a cached answer set) so failure handling is reproducible in
//!   tests and the `experiments chaos` driver. Plans parse from a compact
//!   string;
//! * [`RuntimeHealth`] — a table of lock-free counters (`AtomicU64`), one
//!   slot per [`HealthCounter`] (recovered panics, quarantined entries,
//!   degraded queries, auditor activity, ...); one per deployment, shared
//!   across threads via `Arc`.
//!
//! Injection points live in `gc_core::system`; nothing in this module
//! panics unless a plan says so.

use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gc_subiso::CancelToken;

use crate::metrics::QueryMetrics;

/// Per-query execution budget. `Default` is unlimited — the paper's
/// measurement setting, where queries must run to completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Wall-clock deadline per query, measured from query arrival.
    pub deadline: Option<Duration>,
    /// Cap on sub-iso tests charged per query (Method M candidates).
    pub max_tests: Option<u64>,
}

impl QueryBudget {
    /// An unlimited budget.
    pub const UNLIMITED: QueryBudget = QueryBudget {
        deadline: None,
        max_tests: None,
    };

    /// Does this budget ever interrupt anything?
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_tests.is_none()
    }

    /// Materializes the budget into a fresh token; the deadline clock
    /// starts now.
    pub fn token(&self) -> CancelToken {
        CancelToken::new(self.expiry(), self.max_tests)
    }

    /// When the deadline runs out if its clock starts now (`None`: never).
    pub fn expiry(&self) -> Option<Instant> {
        self.deadline.map(|d| Instant::now() + d)
    }

    /// This budget with its deadline replaced by what is left before
    /// `expiry` (`None`: no deadline), the same test cap.
    pub fn until(&self, expiry: Option<Instant>) -> QueryBudget {
        let deadline = expiry.map(|t| t.saturating_duration_since(Instant::now()));
        QueryBudget { deadline, ..*self }
    }
}

/// One injectable fault. Counters are 1-based: `nth: 3` fires on the third
/// update/query observed by the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic when the `nth` dataset update arrives (before any mutation,
    /// so a retry starts from clean state).
    PanicOnUpdate {
        /// 1-based update ordinal.
        nth: u64,
    },
    /// Panic when the `nth` query arrives (before the pipeline runs).
    PanicOnQuery {
        /// 1-based query ordinal.
        nth: u64,
    },
    /// Sleep before executing the `nth` query — models a stalled shard or
    /// a slow storage tier, exercising deadline handling.
    DelayQuery {
        /// 1-based query ordinal.
        nth: u64,
        /// Sleep duration in milliseconds.
        millis: u64,
    },
    /// After the `nth` update completes, silently flip answer bit
    /// `graph_id` in one cached entry — the corruption the consistency
    /// auditor exists to catch.
    CorruptEntry {
        /// 1-based update ordinal after which the corruption lands.
        after_update: u64,
        /// Dataset-graph id whose answer bit is flipped.
        graph_id: usize,
    },
    /// Close the connection when the server receives its `nth` request,
    /// before any reply is written — models a flaky link or a peer dying
    /// mid-call. The client sees a transport error and must decide whether
    /// the operation is safe to retry.
    DropConn {
        /// 1-based request ordinal.
        nth: u64,
    },
    /// Sleep before replying to the `nth` request — models a congested
    /// link or a delayed frame, exercising client-side timeouts.
    DelayConn {
        /// 1-based request ordinal.
        nth: u64,
        /// Sleep duration in milliseconds.
        millis: u64,
    },
    /// Stall one shard while serving the `nth` query request: the routing
    /// layer burns that query's remaining deadline on the stalled shard,
    /// which must surface as an explicitly degraded (sound partial)
    /// answer, never a hang.
    StallShard {
        /// 1-based request ordinal.
        nth: u64,
    },
}

/// A deterministic set of faults. Parse with [`FromStr`]:
///
/// ```text
/// panic-update@5;panic-query@12;delay-query@3:50;corrupt@8:2
/// ```
///
/// means: panic on the 5th update, panic on the 12th query, sleep 50 ms
/// before the 3rd query, and corrupt answer bit 2 after the 8th update.
/// Network faults (interpreted by the `gc_server` front-end) use the same
/// grammar: `drop-conn@3` closes the connection on the 3rd request,
/// `delay-conn@7:40` sleeps 40 ms before replying to the 7th, and
/// `stall-shard@9` stalls one shard for the 9th query request.
///
/// Ordinals are 1-based and must be positive; exact duplicate entries are
/// rejected (each fault fires at most once, so a duplicate is a plan bug).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults to inject.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn none() -> Self {
        FaultPlan::default()
    }
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("invalid {what} '{s}' in fault plan"))
}

/// Parses a 1-based ordinal: a u64 that must be positive.
fn parse_ordinal(s: &str, what: &str) -> Result<u64, String> {
    let n = parse_u64(s, what)?;
    if n == 0 {
        return Err(format!("{what} is 1-based; 0 never fires"));
    }
    Ok(n)
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut faults = Vec::new();
        for part in s.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, args) = part
                .split_once('@')
                .ok_or_else(|| format!("fault '{part}' missing '@'"))?;
            let mut nums = args.split(':');
            let first = nums.next().unwrap_or("");
            let second = nums.next();
            let fault = match name.trim() {
                "panic-update" => Fault::PanicOnUpdate {
                    nth: parse_ordinal(first, "update ordinal")?,
                },
                "panic-query" => Fault::PanicOnQuery {
                    nth: parse_ordinal(first, "query ordinal")?,
                },
                "delay-query" => Fault::DelayQuery {
                    nth: parse_ordinal(first, "query ordinal")?,
                    millis: parse_u64(
                        second.ok_or_else(|| format!("delay-query '{part}' needs ':millis'"))?,
                        "delay millis",
                    )?,
                },
                "corrupt" => Fault::CorruptEntry {
                    after_update: parse_ordinal(first, "update ordinal")?,
                    graph_id: parse_u64(
                        second.ok_or_else(|| format!("corrupt '{part}' needs ':graph_id'"))?,
                        "graph id",
                    )? as usize,
                },
                "drop-conn" => Fault::DropConn {
                    nth: parse_ordinal(first, "request ordinal")?,
                },
                "delay-conn" => Fault::DelayConn {
                    nth: parse_ordinal(first, "request ordinal")?,
                    millis: parse_u64(
                        second.ok_or_else(|| format!("delay-conn '{part}' needs ':millis'"))?,
                        "delay millis",
                    )?,
                },
                "stall-shard" => Fault::StallShard {
                    nth: parse_ordinal(first, "request ordinal")?,
                },
                other => return Err(format!("unknown fault kind '{other}'")),
            };
            if faults.contains(&fault) {
                return Err(format!("duplicate fault entry '{part}'"));
            }
            faults.push(fault);
        }
        Ok(FaultPlan { faults })
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            match *fault {
                Fault::PanicOnUpdate { nth } => write!(f, "panic-update@{nth}")?,
                Fault::PanicOnQuery { nth } => write!(f, "panic-query@{nth}")?,
                Fault::DelayQuery { nth, millis } => write!(f, "delay-query@{nth}:{millis}")?,
                Fault::CorruptEntry {
                    after_update,
                    graph_id,
                } => write!(f, "corrupt@{after_update}:{graph_id}")?,
                Fault::DropConn { nth } => write!(f, "drop-conn@{nth}")?,
                Fault::DelayConn { nth, millis } => write!(f, "delay-conn@{nth}:{millis}")?,
                Fault::StallShard { nth } => write!(f, "stall-shard@{nth}")?,
            }
        }
        Ok(())
    }
}

/// What a networked front-end must do with one incoming request, as
/// dictated by the fault plan. Returned by
/// [`FaultInjector::before_request`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestDirective {
    /// Close the connection without replying (the client sees a transport
    /// error).
    pub drop_conn: bool,
    /// Sleep this long before replying.
    pub delay: Option<Duration>,
    /// Stall one shard for this request: route it so that the stalled
    /// shard burns the request's remaining deadline.
    pub stall_shard: bool,
}

/// Executes a [`FaultPlan`] against live update/query streams. All state
/// is atomic; one injector can be shared across threads. Each fault fires
/// at most once (ordinals are strictly increasing).
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    updates: AtomicU64,
    queries: AtomicU64,
    requests: AtomicU64,
}

impl FaultInjector {
    /// Builds an injector for the given plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            updates: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Updates observed so far.
    pub fn updates_seen(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Queries observed so far.
    pub fn queries_seen(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Requests observed so far (network-level counter).
    pub fn requests_seen(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Hook at request receipt in a networked front-end: counts the
    /// request and returns the network faults scheduled for this ordinal.
    /// Unlike the panic hooks this never unwinds — connection handling
    /// stays in the server's control.
    pub fn before_request(&self) -> RequestDirective {
        let n = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let mut directive = RequestDirective::default();
        for fault in &self.plan.faults {
            match *fault {
                Fault::DropConn { nth } if nth == n => directive.drop_conn = true,
                Fault::DelayConn { nth, millis } if nth == n => {
                    directive.delay = Some(Duration::from_millis(millis));
                }
                Fault::StallShard { nth } if nth == n => directive.stall_shard = true,
                _ => {}
            }
        }
        directive
    }

    /// Hook before a dataset update mutates anything. Panics when the plan
    /// says this ordinal fails — because no mutation has happened yet, a
    /// caller that contains the panic can simply retry the operation.
    pub fn before_update(&self) {
        let n = self.updates.fetch_add(1, Ordering::Relaxed) + 1;
        for fault in &self.plan.faults {
            if let Fault::PanicOnUpdate { nth } = *fault {
                if nth == n {
                    panic!("injected fault: panic on update #{n}");
                }
            }
        }
    }

    /// Hook after the `n`-th update committed: returns the answer-bit id
    /// to corrupt, if the plan schedules a corruption here.
    pub fn after_update(&self) -> Option<usize> {
        let n = self.updates.load(Ordering::Relaxed);
        self.plan.faults.iter().find_map(|fault| match *fault {
            Fault::CorruptEntry {
                after_update,
                graph_id,
            } if after_update == n => Some(graph_id),
            _ => None,
        })
    }

    /// Hook before a query enters the pipeline: sleeps through scheduled
    /// delays, then panics if the plan says this ordinal fails.
    pub fn before_query(&self) {
        let n = self.queries.fetch_add(1, Ordering::Relaxed) + 1;
        for fault in &self.plan.faults {
            if let Fault::DelayQuery { nth, millis } = *fault {
                if nth == n {
                    std::thread::sleep(Duration::from_millis(millis));
                }
            }
        }
        for fault in &self.plan.faults {
            if let Fault::PanicOnQuery { nth } = *fault {
                if nth == n {
                    panic!("injected fault: panic on query #{n}");
                }
            }
        }
    }
}

/// One runtime health counter. The variants are the table's slots, in the
/// order the wire codec writes them and the Prometheus exposition renders
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthCounter {
    /// Requests shed with an explicit `Overloaded` response by the
    /// backpressure gate (never silently dropped).
    LoadShed,
    /// Panics contained by any isolation boundary.
    PanicsRecovered,
    /// Entries ever placed under quarantine.
    QuarantinedEntries,
    /// Queries that returned a `Degraded`-tagged (partial) outcome.
    DegradedQueries,
    /// Divergent entries repaired in place by the auditor.
    AuditRepairs,
    /// Shards marked unhealthy by the routing layer after repeated panics.
    ShardFailovers,
    /// Queries (per shard) served by cache-less `baseline_execute` because
    /// the owning shard was marked unhealthy.
    BaselineServed,
    /// Answer bits the delta-repair maintenance pass spliced back to
    /// ground truth in place.
    RepairsApplied,
    /// Validity bits preserved that invalidate-mode maintenance would have
    /// cleared.
    InvalidationsAvoided,
    /// Affected bits the repair path invalidated because the signature
    /// disproof could not settle them.
    RepairFallbacks,
}

impl HealthCounter {
    /// Every counter, in slot order.
    pub const ALL: [HealthCounter; 10] = [
        HealthCounter::LoadShed,
        HealthCounter::PanicsRecovered,
        HealthCounter::QuarantinedEntries,
        HealthCounter::DegradedQueries,
        HealthCounter::AuditRepairs,
        HealthCounter::ShardFailovers,
        HealthCounter::BaselineServed,
        HealthCounter::RepairsApplied,
        HealthCounter::InvalidationsAvoided,
        HealthCounter::RepairFallbacks,
    ];

    /// Stable metric name (`gc_{name}_total` in the exposition).
    pub fn name(self) -> &'static str {
        match self {
            HealthCounter::LoadShed => "load_shed",
            HealthCounter::PanicsRecovered => "panics_recovered",
            HealthCounter::QuarantinedEntries => "quarantined_entries",
            HealthCounter::DegradedQueries => "degraded_queries",
            HealthCounter::AuditRepairs => "audit_repairs",
            HealthCounter::ShardFailovers => "shard_failovers",
            HealthCounter::BaselineServed => "baseline_served",
            HealthCounter::RepairsApplied => "repairs_applied",
            HealthCounter::InvalidationsAvoided => "invalidations_avoided",
            HealthCounter::RepairFallbacks => "repair_fallbacks",
        }
    }
}

/// Point-in-time copy of the health counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    counts: [u64; HealthCounter::ALL.len()],
}

impl HealthSnapshot {
    /// The value of one counter.
    pub fn get(&self, counter: HealthCounter) -> u64 {
        self.counts[counter as usize]
    }

    /// Field-wise sum of two snapshots (folding per-shard counters into a
    /// deployment-wide view).
    pub fn merge(&mut self, other: &HealthSnapshot) {
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
    }

    /// `(counter, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (HealthCounter, u64)> + '_ {
        HealthCounter::ALL.into_iter().map(|c| (c, self.get(c)))
    }
}

impl FromIterator<(HealthCounter, u64)> for HealthSnapshot {
    /// Sums `(counter, n)` pairs into a snapshot.
    fn from_iter<I: IntoIterator<Item = (HealthCounter, u64)>>(pairs: I) -> Self {
        let mut h = HealthSnapshot::default();
        for (counter, n) in pairs {
            h.counts[counter as usize] += n;
        }
        h
    }
}

/// Lock-free runtime health counters, one per deployment, shared via `Arc`.
/// An add of zero writes nothing, so a query with nothing to count leaves
/// the shared cache line alone.
#[derive(Debug, Default)]
pub struct RuntimeHealth {
    counts: [AtomicU64; HealthCounter::ALL.len()],
}

impl RuntimeHealth {
    /// Records one served query's events: the panics contained while
    /// serving it, and whether its answer is degraded.
    pub(crate) fn record_query(&self, m: &QueryMetrics) {
        self.add(HealthCounter::PanicsRecovered, m.panics_recovered);
        self.add(
            HealthCounter::DegradedQueries,
            u64::from(m.degraded.is_some()),
        );
    }

    /// Adds `n` to one counter; zero is no write.
    pub fn add(&self, counter: HealthCounter, n: u64) {
        if n != 0 {
            self.counts[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// A consistent-enough snapshot (individual counters are exact; the
    /// set is not read atomically, which observers do not need).
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            counts: self.counts.each_ref().map(|c| c.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_token_never_fires() {
        let b = QueryBudget::default();
        assert!(b.is_unlimited());
        let t = b.token();
        for _ in 0..100 {
            assert!(t.charge_test().is_ok());
        }
    }

    #[test]
    fn budget_limits_materialize() {
        let b = QueryBudget {
            deadline: Some(Duration::from_secs(3600)),
            max_tests: Some(2),
        };
        assert!(!b.is_unlimited());
        let t = b.token();
        assert!(t.charge_test().is_ok());
        assert!(t.charge_test().is_ok());
        assert!(t.charge_test().is_err());
    }

    #[test]
    fn plan_parses_and_round_trips() {
        let s = "panic-update@5;panic-query@12;delay-query@3:50;corrupt@8:2";
        let plan: FaultPlan = s.parse().unwrap();
        assert_eq!(
            plan.faults,
            vec![
                Fault::PanicOnUpdate { nth: 5 },
                Fault::PanicOnQuery { nth: 12 },
                Fault::DelayQuery { nth: 3, millis: 50 },
                Fault::CorruptEntry {
                    after_update: 8,
                    graph_id: 2
                },
            ]
        );
        assert_eq!(plan.to_string(), s);
        assert_eq!(plan.to_string().parse::<FaultPlan>().unwrap(), plan);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        assert!("panic-update".parse::<FaultPlan>().is_err());
        assert!("panic-update@x".parse::<FaultPlan>().is_err());
        assert!("delay-query@3".parse::<FaultPlan>().is_err());
        assert!("corrupt@1".parse::<FaultPlan>().is_err());
        assert!("warp-core-breach@1".parse::<FaultPlan>().is_err());
        // empty segments are tolerated
        assert_eq!(
            "panic-query@1;;".parse::<FaultPlan>().unwrap().faults.len(),
            1
        );
        assert!("".parse::<FaultPlan>().unwrap().faults.is_empty());
    }

    #[test]
    fn malformed_ordinals_are_rejected() {
        // ordinals are 1-based: 0 would never fire, so it is a plan bug
        for plan in [
            "panic-update@0",
            "panic-query@0",
            "delay-query@0:50",
            "corrupt@0:1",
            "drop-conn@0",
            "delay-conn@0:10",
            "stall-shard@0",
        ] {
            assert!(
                plan.parse::<FaultPlan>().is_err(),
                "{plan} must be rejected"
            );
        }
        // negative / non-numeric / overflowing ordinals
        assert!("panic-query@-3".parse::<FaultPlan>().is_err());
        assert!("drop-conn@1.5".parse::<FaultPlan>().is_err());
        assert!("delay-conn@99999999999999999999:1"
            .parse::<FaultPlan>()
            .is_err());
        // corrupt's graph id is 0-based and may legitimately be 0
        assert!("corrupt@3:0".parse::<FaultPlan>().is_ok());
    }

    #[test]
    fn network_faults_parse_and_round_trip() {
        let s = "drop-conn@3;delay-conn@7:40;stall-shard@9";
        let plan: FaultPlan = s.parse().unwrap();
        assert_eq!(
            plan.faults,
            vec![
                Fault::DropConn { nth: 3 },
                Fault::DelayConn { nth: 7, millis: 40 },
                Fault::StallShard { nth: 9 },
            ]
        );
        assert_eq!(plan.to_string(), s);
        assert_eq!(plan.to_string().parse::<FaultPlan>().unwrap(), plan);
        // malformed network faults
        assert!("drop-conn".parse::<FaultPlan>().is_err());
        assert!("delay-conn@3".parse::<FaultPlan>().is_err());
        assert!("stall-shard@x".parse::<FaultPlan>().is_err());
    }

    #[test]
    fn duplicate_entries_are_rejected() {
        assert!("panic-query@1;panic-query@1".parse::<FaultPlan>().is_err());
        assert!("drop-conn@2;delay-conn@3:10;drop-conn@2"
            .parse::<FaultPlan>()
            .is_err());
        // same kind at different ordinals is fine
        assert!("panic-query@1;panic-query@2".parse::<FaultPlan>().is_ok());
        // same ordinal across different kinds is fine
        assert!("drop-conn@2;delay-conn@2:10".parse::<FaultPlan>().is_ok());
    }

    #[test]
    fn full_plan_round_trips_through_display() {
        let s = "panic-update@5;panic-query@12;delay-query@3:50;corrupt@8:2;\
                 drop-conn@1;delay-conn@4:25;stall-shard@6";
        let plan: FaultPlan = s.parse().unwrap();
        assert_eq!(plan.faults.len(), 7);
        let shown = plan.to_string();
        assert_eq!(shown.parse::<FaultPlan>().unwrap(), plan);
    }

    #[test]
    fn request_directives_fire_on_exact_ordinals() {
        let plan: FaultPlan = "drop-conn@2;delay-conn@3:15;stall-shard@3".parse().unwrap();
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.before_request(), RequestDirective::default());
        assert!(inj.before_request().drop_conn);
        let d = inj.before_request();
        assert_eq!(d.delay, Some(Duration::from_millis(15)));
        assert!(d.stall_shard);
        assert!(!d.drop_conn);
        assert_eq!(inj.before_request(), RequestDirective::default());
        assert_eq!(inj.requests_seen(), 4);
        // the request counter is independent of the query/update counters
        assert_eq!(inj.queries_seen(), 0);
        assert_eq!(inj.updates_seen(), 0);
    }

    #[test]
    fn injector_fires_on_exact_ordinals() {
        let plan: FaultPlan = "panic-update@2".parse().unwrap();
        let inj = FaultInjector::new(plan);
        inj.before_update(); // 1st: fine
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.before_update() // 2nd: boom
        }));
        assert!(caught.is_err());
        inj.before_update(); // 3rd: fine again
        assert_eq!(inj.updates_seen(), 3);
    }

    #[test]
    fn corruption_directive_surfaces_once() {
        let plan: FaultPlan = "corrupt@2:7".parse().unwrap();
        let inj = FaultInjector::new(plan);
        inj.before_update();
        assert_eq!(inj.after_update(), None);
        inj.before_update();
        assert_eq!(inj.after_update(), Some(7));
        inj.before_update();
        assert_eq!(inj.after_update(), None);
    }

    #[test]
    fn query_delay_and_panic() {
        let plan: FaultPlan = "delay-query@1:1;panic-query@2".parse().unwrap();
        let inj = FaultInjector::new(plan);
        let t = Instant::now();
        inj.before_query();
        assert!(t.elapsed() >= Duration::from_millis(1));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.before_query()));
        assert!(caught.is_err());
        assert_eq!(inj.queries_seen(), 2);
    }

    #[test]
    fn health_counters_accumulate() {
        use HealthCounter::*;
        let h = RuntimeHealth::default();
        h.add(PanicsRecovered, 2);
        h.add(QuarantinedEntries, 3);
        h.add(DegradedQueries, 1);
        h.add(AuditRepairs, 1);
        h.add(LoadShed, 1);
        h.add(LoadShed, 1);
        h.add(ShardFailovers, 1);
        h.add(BaselineServed, 5);
        h.add(RepairsApplied, 6);
        h.add(InvalidationsAvoided, 7);
        h.add(RepairFallbacks, 8);
        let s = h.snapshot();
        assert_eq!(s.get(PanicsRecovered), 2);
        assert_eq!(s.get(QuarantinedEntries), 3);
        assert_eq!(s.get(DegradedQueries), 1);
        assert_eq!(s.get(AuditRepairs), 1);
        assert_eq!(s.get(LoadShed), 2);
        assert_eq!(s.get(ShardFailovers), 1);
        assert_eq!(s.get(BaselineServed), 5);
        assert_eq!(s.get(RepairsApplied), 6);
        assert_eq!(s.get(InvalidationsAvoided), 7);
        assert_eq!(s.get(RepairFallbacks), 8);
    }

    #[test]
    fn snapshots_merge_fieldwise() {
        use HealthCounter::*;
        let a = RuntimeHealth::default();
        a.add(PanicsRecovered, 1);
        a.add(LoadShed, 1);
        let b = RuntimeHealth::default();
        b.add(PanicsRecovered, 2);
        b.add(ShardFailovers, 1);
        b.add(BaselineServed, 3);
        b.add(RepairsApplied, 4);
        b.add(InvalidationsAvoided, 9);
        a.add(RepairFallbacks, 2);
        b.add(RepairFallbacks, 5);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.get(PanicsRecovered), 3);
        assert_eq!(s.get(LoadShed), 1);
        assert_eq!(s.get(ShardFailovers), 1);
        assert_eq!(s.get(BaselineServed), 3);
        assert_eq!(s.get(DegradedQueries), 0);
        assert_eq!(s.get(RepairsApplied), 4);
        assert_eq!(s.get(InvalidationsAvoided), 9);
        assert_eq!(s.get(RepairFallbacks), 7);
    }

    #[test]
    fn health_counters_list_every_variant_once_in_slot_order() {
        for (i, c) in HealthCounter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?}");
        }
        let mut names: Vec<&str> = HealthCounter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), HealthCounter::ALL.len());
        // no wildcard: a variant added to the enum does not compile here
        // until it is listed, and then ALL must grow with it
        match HealthCounter::LoadShed {
            HealthCounter::LoadShed
            | HealthCounter::PanicsRecovered
            | HealthCounter::QuarantinedEntries
            | HealthCounter::DegradedQueries
            | HealthCounter::AuditRepairs
            | HealthCounter::ShardFailovers
            | HealthCounter::BaselineServed
            | HealthCounter::RepairsApplied
            | HealthCounter::InvalidationsAvoided
            | HealthCounter::RepairFallbacks => {}
        }
        assert_eq!(HealthCounter::ALL.len(), 10);
    }
}
