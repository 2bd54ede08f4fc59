//! Cooperative cancellation and budget accounting for sub-iso search.
//!
//! Sub-iso tests are NP-complete: a single adversarial candidate can take
//! arbitrarily long, and a cache front-end that serves interactive traffic
//! cannot afford to wedge a query behind it. The contract here is the usual
//! cooperative one — nothing is preempted; instead the long-running search
//! loops ([`crate::vf2`], [`crate::graphql`]) and the Method M candidate
//! scan ([`crate::method`]) periodically consult a shared [`CancelToken`]
//! and unwind *cleanly* with an [`Interrupt`] when the budget is exhausted.
//!
//! Two budget dimensions, both optional:
//!
//! * a **wall-clock deadline** (absolute [`Instant`]), checked at search
//!   checkpoints (every [`CHECK_INTERVAL`] expanded nodes) so the cost of
//!   `Instant::now()` is amortized over thousands of node expansions;
//! * a **test cap** — an upper bound on candidates charged via
//!   [`CancelToken::charge_test`], which bounds Method M scan work even
//!   when each individual test is fast.
//!
//! Tokens are `Arc`-shared and freely cloneable across threads; all
//! state is atomic. A token with no limits ([`CancelToken::unlimited`])
//! never interrupts and costs one relaxed load per checkpoint.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Search nodes expanded between deadline checks inside the backtracking
/// engines. Power of two so the check compiles to a mask test.
pub const CHECK_INTERVAL: u64 = 1024;

/// Why a search or scan stopped early. Carried in degraded query outcomes
/// so callers can distinguish "partial because slow" from "partial because
/// a worker crashed".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interrupt {
    /// Explicitly cancelled via [`CancelToken::cancel`].
    Cancelled,
    /// The wall-clock deadline passed.
    Deadline,
    /// The sub-iso test cap was reached.
    TestCap,
    /// A worker panicked mid-scan; the panic was contained but its
    /// candidate (and possibly others) went undecided.
    Panic,
}

impl Interrupt {
    /// Short stable name for reports and metrics.
    pub fn name(self) -> &'static str {
        match self {
            Interrupt::Cancelled => "cancelled",
            Interrupt::Deadline => "deadline",
            Interrupt::TestCap => "test-cap",
            Interrupt::Panic => "panic",
        }
    }
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[derive(Debug)]
struct Inner {
    deadline: Option<Instant>,
    test_cap: Option<u64>,
    tests: AtomicU64,
    cancelled: AtomicBool,
}

/// Shared cancellation/budget handle threaded through sub-iso kernels.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token with the given limits; `None` disables that dimension.
    pub fn new(deadline: Option<Instant>, test_cap: Option<u64>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                deadline,
                test_cap,
                tests: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
            }),
        }
    }

    /// A token that never interrupts (unless [`cancel`](Self::cancel)ed).
    pub fn unlimited() -> Self {
        CancelToken::new(None, None)
    }

    /// A process-wide token with no limits, for call sites that need a
    /// `&CancelToken` but have no budget to enforce.
    pub fn unlimited_ref() -> &'static CancelToken {
        static UNLIMITED: OnceLock<CancelToken> = OnceLock::new();
        UNLIMITED.get_or_init(CancelToken::unlimited)
    }

    /// Requests cancellation; observed at the next checkpoint.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Sub-iso tests charged so far across all clones of this token.
    pub fn tests_charged(&self) -> u64 {
        self.inner.tests.load(Ordering::Relaxed)
    }

    /// Cheap checkpoint: cancellation flag, then deadline. Called from
    /// search inner loops every [`CHECK_INTERVAL`] nodes.
    #[inline]
    pub fn check(&self) -> Result<(), Interrupt> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Err(Interrupt::Cancelled);
        }
        if let Some(d) = self.inner.deadline {
            if Instant::now() >= d {
                return Err(Interrupt::Deadline);
            }
        }
        Ok(())
    }

    /// Charges one sub-iso test against the cap, then runs the checkpoint.
    /// Called once per candidate before the matcher is invoked; on `Err`
    /// the candidate has *not* been examined.
    #[inline]
    pub fn charge_test(&self) -> Result<(), Interrupt> {
        if let Some(cap) = self.inner.test_cap {
            if self.inner.tests.fetch_add(1, Ordering::Relaxed) >= cap {
                return Err(Interrupt::TestCap);
            }
        } else {
            self.inner.tests.fetch_add(1, Ordering::Relaxed);
        }
        self.check()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_never_interrupts() {
        let t = CancelToken::unlimited();
        for _ in 0..10_000 {
            assert!(t.charge_test().is_ok());
        }
        assert!(t.check().is_ok());
        assert_eq!(t.tests_charged(), 10_000);
    }

    #[test]
    fn cancel_flag_observed_by_clones() {
        let t = CancelToken::unlimited();
        let t2 = t.clone();
        t.cancel();
        assert_eq!(t2.check(), Err(Interrupt::Cancelled));
        assert_eq!(t.check(), Err(Interrupt::Cancelled), "and by the original");
    }

    #[test]
    fn test_cap_enforced() {
        let t = CancelToken::new(None, Some(3));
        assert!(t.charge_test().is_ok());
        assert!(t.charge_test().is_ok());
        assert!(t.charge_test().is_ok());
        assert_eq!(t.charge_test(), Err(Interrupt::TestCap));
        // sticky: later charges keep failing
        assert_eq!(t.charge_test(), Err(Interrupt::TestCap));
    }

    #[test]
    fn elapsed_deadline_interrupts() {
        let t = CancelToken::new(Some(Instant::now() - Duration::from_millis(1)), None);
        assert_eq!(t.check(), Err(Interrupt::Deadline));
        assert_eq!(t.charge_test(), Err(Interrupt::Deadline));
    }

    #[test]
    fn future_deadline_passes() {
        let t = CancelToken::new(Some(Instant::now() + Duration::from_secs(3600)), None);
        assert!(t.check().is_ok());
    }

    #[test]
    fn interrupt_names() {
        assert_eq!(Interrupt::Deadline.to_string(), "deadline");
        assert_eq!(Interrupt::Panic.name(), "panic");
        assert_eq!(Interrupt::Cancelled.name(), "cancelled");
        assert_eq!(Interrupt::TestCap.name(), "test-cap");
    }
}
