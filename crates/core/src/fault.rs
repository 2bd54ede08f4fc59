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
//!   string and from the `GC_FAULT_PLAN` environment variable;
//! * [`RuntimeHealth`] — lock-free counters (`AtomicU64`) for recovered
//!   panics, quarantined entries, degraded queries and auditor activity,
//!   shared across threads via `Arc`.
//!
//! Injection points live in `gc_core::system`; nothing in this module
//! panics unless a plan says so.

use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gc_subiso::CancelToken;

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

    /// Reads `GC_FAULT_PLAN` from the environment; `None` when unset,
    /// `Err` when set but malformed.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("GC_FAULT_PLAN") {
            Ok(s) if s.trim().is_empty() => Ok(None),
            Ok(s) => s.parse().map(Some),
            Err(_) => Ok(None),
        }
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

/// Point-in-time copy of the health counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Panics contained by any isolation boundary.
    pub panics_recovered: u64,
    /// Entries ever placed under quarantine.
    pub quarantined_entries: u64,
    /// Queries that returned a `Degraded`-tagged (partial) outcome.
    pub degraded_queries: u64,
    /// Divergent entries repaired in place by the auditor.
    pub audit_repairs: u64,
    /// Divergent entries evicted by the auditor.
    pub audit_evictions: u64,
    /// Requests shed with an explicit `Overloaded` response by the
    /// backpressure gate (never silently dropped).
    pub load_shed: u64,
    /// Shards marked unhealthy by the routing layer after repeated panics.
    pub shard_failovers: u64,
    /// Queries (per shard) served by cache-less `baseline_execute` because
    /// the owning shard was marked unhealthy.
    pub baseline_served: u64,
    /// Answer bits the delta-repair maintenance pass spliced back to
    /// ground truth in place.
    pub repairs_applied: u64,
    /// Validity bits preserved that invalidate-mode maintenance would have
    /// cleared.
    pub invalidations_avoided: u64,
    /// Affected bits the repair path invalidated because the signature
    /// disproof could not settle them.
    pub repair_fallbacks: u64,
}

/// Lock-free runtime health counters, shared via `Arc` between the cache,
/// its shards and observers.
#[derive(Debug, Default)]
pub struct RuntimeHealth {
    panics_recovered: AtomicU64,
    quarantined_entries: AtomicU64,
    degraded_queries: AtomicU64,
    audit_repairs: AtomicU64,
    audit_evictions: AtomicU64,
    load_shed: AtomicU64,
    shard_failovers: AtomicU64,
    baseline_served: AtomicU64,
    repairs_applied: AtomicU64,
    invalidations_avoided: AtomicU64,
    repair_fallbacks: AtomicU64,
}

impl RuntimeHealth {
    /// Records `n` contained panics.
    pub fn add_panics_recovered(&self, n: u64) {
        self.panics_recovered.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` entries placed under quarantine.
    pub fn add_quarantined(&self, n: u64) {
        self.quarantined_entries.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one degraded query outcome.
    pub fn add_degraded_query(&self) {
        self.degraded_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records auditor repairs.
    pub fn add_audit_repairs(&self, n: u64) {
        self.audit_repairs.fetch_add(n, Ordering::Relaxed);
    }

    /// Records auditor evictions.
    pub fn add_audit_evictions(&self, n: u64) {
        self.audit_evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one request shed with an explicit `Overloaded` response.
    pub fn add_load_shed(&self) {
        self.load_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one shard marked unhealthy by the routing layer.
    pub fn add_shard_failover(&self) {
        self.shard_failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` per-shard queries served by cache-less baseline
    /// execution while the shard was unhealthy.
    pub fn add_baseline_served(&self, n: u64) {
        self.baseline_served.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` answer bits delta-repaired in place by maintenance.
    pub fn add_repairs_applied(&self, n: u64) {
        self.repairs_applied.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` validity bits preserved that invalidation would have
    /// cleared.
    pub fn add_invalidations_avoided(&self, n: u64) {
        self.invalidations_avoided.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` affected bits the disproof could not settle, which
    /// fell back to invalidation.
    pub fn add_repair_fallbacks(&self, n: u64) {
        self.repair_fallbacks.fetch_add(n, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot (individual counters are exact; the
    /// set is not read atomically, which observers do not need).
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            panics_recovered: self.panics_recovered.load(Ordering::Relaxed),
            quarantined_entries: self.quarantined_entries.load(Ordering::Relaxed),
            degraded_queries: self.degraded_queries.load(Ordering::Relaxed),
            audit_repairs: self.audit_repairs.load(Ordering::Relaxed),
            audit_evictions: self.audit_evictions.load(Ordering::Relaxed),
            load_shed: self.load_shed.load(Ordering::Relaxed),
            shard_failovers: self.shard_failovers.load(Ordering::Relaxed),
            baseline_served: self.baseline_served.load(Ordering::Relaxed),
            repairs_applied: self.repairs_applied.load(Ordering::Relaxed),
            invalidations_avoided: self.invalidations_avoided.load(Ordering::Relaxed),
            repair_fallbacks: self.repair_fallbacks.load(Ordering::Relaxed),
        }
    }
}

impl HealthSnapshot {
    /// Field-wise sum of two snapshots (folding per-shard counters into a
    /// deployment-wide view).
    pub fn merge(&mut self, other: &HealthSnapshot) {
        self.panics_recovered += other.panics_recovered;
        self.quarantined_entries += other.quarantined_entries;
        self.degraded_queries += other.degraded_queries;
        self.audit_repairs += other.audit_repairs;
        self.audit_evictions += other.audit_evictions;
        self.load_shed += other.load_shed;
        self.shard_failovers += other.shard_failovers;
        self.baseline_served += other.baseline_served;
        self.repairs_applied += other.repairs_applied;
        self.invalidations_avoided += other.invalidations_avoided;
        self.repair_fallbacks += other.repair_fallbacks;
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
        let h = RuntimeHealth::default();
        h.add_panics_recovered(2);
        h.add_quarantined(3);
        h.add_degraded_query();
        h.add_audit_repairs(1);
        h.add_audit_evictions(4);
        h.add_load_shed();
        h.add_load_shed();
        h.add_shard_failover();
        h.add_baseline_served(5);
        h.add_repairs_applied(6);
        h.add_invalidations_avoided(7);
        h.add_repair_fallbacks(8);
        let s = h.snapshot();
        assert_eq!(s.panics_recovered, 2);
        assert_eq!(s.quarantined_entries, 3);
        assert_eq!(s.degraded_queries, 1);
        assert_eq!(s.audit_repairs, 1);
        assert_eq!(s.audit_evictions, 4);
        assert_eq!(s.load_shed, 2);
        assert_eq!(s.shard_failovers, 1);
        assert_eq!(s.baseline_served, 5);
        assert_eq!(s.repairs_applied, 6);
        assert_eq!(s.invalidations_avoided, 7);
        assert_eq!(s.repair_fallbacks, 8);
    }

    #[test]
    fn snapshots_merge_fieldwise() {
        let a = RuntimeHealth::default();
        a.add_panics_recovered(1);
        a.add_load_shed();
        let b = RuntimeHealth::default();
        b.add_panics_recovered(2);
        b.add_shard_failover();
        b.add_baseline_served(3);
        b.add_repairs_applied(4);
        b.add_invalidations_avoided(9);
        a.add_repair_fallbacks(2);
        b.add_repair_fallbacks(5);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.panics_recovered, 3);
        assert_eq!(s.load_shed, 1);
        assert_eq!(s.shard_failovers, 1);
        assert_eq!(s.baseline_served, 3);
        assert_eq!(s.degraded_queries, 0);
        assert_eq!(s.repairs_applied, 4);
        assert_eq!(s.invalidations_avoided, 9);
        assert_eq!(s.repair_fallbacks, 7);
    }
}
