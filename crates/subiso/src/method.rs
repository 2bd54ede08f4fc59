//! "Method M" — the external SI method GC+ is called to expedite.
//!
//! Per the paper's architecture (§4), Method M consists of an SI
//! implementation (`Mverifier`) applied to a candidate set `CS_M(g)` —
//! the whole live dataset when GC+ is not in front. [`MethodM::run`] scans
//! the candidate set, runs one sub-iso decision per candidate, and returns
//! the answer bitset plus the number of tests executed. That test count is
//! the denominator/numerator of Figure 5's speedups, and is *identical*
//! for every SI algorithm under the same pruned candidate set — the paper's
//! observation that Figure 5 is Method-M-independent falls out of this
//! structure.
//!
//! ### The scan hot path
//!
//! The scan is sequential, in id order, on the calling thread (paper §4,
//! §7.1): concurrency belongs across requests, not inside one. Each
//! candidate goes through three steps, filter → local pruning → verify,
//! following the filter-then-verify discipline:
//!
//! 1. **Signature pre-filter** (`prefilter`, on by default): the
//!    candidate's cached [`GraphSignature`](gc_graph::GraphSignature) is
//!    checked against the query's — edge-pair fingerprint and
//!    label-multiset containment (direction depends on [`QueryKind`]). A rejected candidate is decided
//!    *negative* in O(1) and tallied in [`MethodAnswer::prefilter_skips`].
//!    An index-backed caller turns this step off: its candidate set
//!    already passed the same check.
//! 2. **Local pruning**, always on, for every algorithm and both kinds:
//!    [`filter::decide`], the one containment search GC+'s hit probe
//!    also goes through, first asks
//!    [`profile_may_contain`](filter::profile_may_contain). It compares
//!    the two graphs' cached per-vertex neighbourhood profiles
//!    (GraphQL's phase 1, asked once per pair instead of once per pattern
//!    vertex and target vertex): each
//!    vertex's neighbours counted by label, and by label among those with
//!    at least 2 and at least 3 neighbours of their own (rare labels
//!    folded together, common ones apart), and whether it lies on a ring.
//!    So a pattern vertex whose neighbour needs more neighbours than any
//!    candidate host's neighbour has, or a ring atom with only chain
//!    atoms to map to, is settled here. Once the scan has had to search
//!    a negative, every later pair also asks
//!    [`paths_may_contain`](filter::paths_may_contain): each label
//!    sequence a 3-edge path of the pattern spells must be one the
//!    target's paths spell, tested on the two graphs' cached path words.
//!    The gate is per scan and only opens: a scan whose every pair the
//!    profiles or a found embedding decide (most of them) builds no
//!    words, and a scan that meets one searched negative usually meets
//!    many. GC+'s hit probe, the other caller, keeps the gate shut (see
//!    [`filter`]). A rejection by either tier is an ordinary negative
//!    decision of the verify step: it is timed in `verify_nanos` and not
//!    counted as a skip.
//! 3. **Verify**: the matcher decides what is left, inside the same
//!    [`filter::decide`] call.
//!
//! Every step is a necessary condition or an exact decision, so answers
//! do not depend on which step decides a candidate, and every candidate
//! counts as one executed test whichever step decided it (the candidate
//! was examined — Figure 5's accounting is unchanged). The matcher's own
//! search tree on the pairs it still sees is unchanged too.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gc_graph::{BitSet, GraphSource, LabeledGraph};

use crate::cancel::{CancelToken, Interrupt};
use crate::filter::{self, Outcome};
use crate::Algorithm;

pub use gc_graph::QueryKind;

/// Result of a Method M scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodAnswer {
    /// Ids of candidate graphs that passed the sub-iso test.
    pub answer: BitSet,
    /// Number of sub-iso tests executed (= candidates examined). Includes
    /// candidates decided by the signature pre-filter, so the count stays
    /// Method-M- and pre-filter-independent (Figure 5's premise).
    pub tests: u64,
    /// Of `tests`, how many were decided negatively by the O(1) signature
    /// pre-filter without running the matcher.
    pub prefilter_skips: u64,
    /// `Some` when the scan stopped before deciding every candidate
    /// (budget exhausted, cancellation, or a contained worker panic). The
    /// `answer` is then a *sound but possibly incomplete* subset — every
    /// set bit is a verified positive, but unexamined candidates may be
    /// missing. `None` means the answer is exact.
    pub interrupted: Option<Interrupt>,
    /// Candidates whose sub-iso test panicked; the panic was contained and
    /// the candidate left undecided (also reflected in `interrupted`).
    pub panics_recovered: u64,
    /// Nanoseconds spent in the signature pre-filter stage. Only populated
    /// when the scan runs with [`MethodM::with_timing`]; otherwise 0 so
    /// untimed scans stay branch-cheap and bit-comparable.
    pub prefilter_nanos: u64,
    /// Nanoseconds spent deciding the candidates the pre-filter passed:
    /// local pruning plus the sub-iso decision procedures. Only populated
    /// when timed.
    pub verify_nanos: u64,
}

impl MethodAnswer {
    /// Is the answer exact (every candidate decided)?
    pub fn is_exact(&self) -> bool {
        self.interrupted.is_none()
    }
}

/// Method M: an SI algorithm plus a sequential, pre-filtered scan.
#[derive(Debug, Clone, Copy)]
pub struct MethodM {
    /// Which verifier to use.
    pub algorithm: Algorithm,
    /// Signature pre-filter stage (on by default): decide candidates by
    /// O(1) signature domination before invoking the matcher.
    pub prefilter: bool,
    /// Record per-stage wall time (`prefilter_nanos` / `verify_nanos` in
    /// the answer). Off by default — two `Instant::now` calls per candidate
    /// are cheap but not free, and the paper setting must stay untouched.
    pub timed: bool,
}

impl MethodM {
    /// Method M over the given algorithm (pre-filter on, untimed).
    pub fn new(algorithm: Algorithm) -> Self {
        MethodM {
            algorithm,
            prefilter: true,
            timed: false,
        }
    }

    /// Toggles the signature pre-filter stage.
    pub fn with_prefilter(mut self, enabled: bool) -> Self {
        self.prefilter = enabled;
        self
    }

    /// Toggles per-stage wall-time recording (see [`MethodM::timed`]).
    pub fn with_timing(mut self, enabled: bool) -> Self {
        self.timed = enabled;
        self
    }

    /// Decides one candidate: pre-filter (if on), local pruning (with the
    /// path words if `paths`), matcher. `Err` means the budget fired
    /// mid-test and the candidate is undecided. Stage nanos are recorded
    /// only when `self.timed`.
    #[inline]
    fn decide_filtered(
        &self,
        query: &LabeledGraph,
        kind: QueryKind,
        dataset_graph: &LabeledGraph,
        token: &CancelToken,
        paths: bool,
    ) -> Result<Decision, Interrupt> {
        let mut decision = Decision::default();
        if self.prefilter {
            let t = self.timed.then(Instant::now);
            let feasible = match kind {
                QueryKind::Subgraph => dataset_graph.signature().dominates(query.signature()),
                QueryKind::Supergraph => query.signature().dominates(dataset_graph.signature()),
            };
            if let Some(t) = t {
                decision.prefilter_nanos = t.elapsed().as_nanos() as u64;
            }
            if !feasible {
                decision.skipped = true;
                return Ok(decision);
            }
        }
        let t = self.timed.then(Instant::now);
        let (pattern, target) = match kind {
            QueryKind::Subgraph => (query, dataset_graph),
            QueryKind::Supergraph => (dataset_graph, query),
        };
        let outcome = filter::decide(self.algorithm.matcher(), pattern, target, token, paths)?;
        decision.contained = outcome == Outcome::Positive;
        decision.searched_negative = outcome == Outcome::SearchedNegative;
        if let Some(t) = t {
            decision.verify_nanos = t.elapsed().as_nanos() as u64;
        }
        Ok(decision)
    }

    /// Scans `candidates` (ids into `source`), running one sub-iso test per
    /// present graph. Ids whose graph has been deleted are skipped without
    /// counting a test (they cannot appear in a live candidate set anyway).
    pub fn run<S: GraphSource + ?Sized>(
        &self,
        query: &LabeledGraph,
        kind: QueryKind,
        source: &S,
        candidates: &BitSet,
    ) -> MethodAnswer {
        self.run_budgeted(
            query,
            kind,
            source,
            candidates,
            CancelToken::unlimited_ref(),
        )
    }

    /// Budgeted scan. Every candidate is charged against `token` before
    /// its test; a fired budget stops the scan, and a test that *panics*
    /// is contained ([`catch_unwind`]) with its candidate left undecided
    /// while the rest of the scan proceeds. Either way the returned
    /// [`MethodAnswer`] is tagged via `interrupted`: its answer bits are
    /// verified positives, but the set may be incomplete — callers must
    /// not treat it as exact or admit it into a cache.
    pub fn run_budgeted<S: GraphSource + ?Sized>(
        &self,
        query: &LabeledGraph,
        kind: QueryKind,
        source: &S,
        candidates: &BitSet,
        token: &CancelToken,
    ) -> MethodAnswer {
        let mut answer = BitSet::new();
        let mut tests = 0u64;
        let mut prefilter_skips = 0u64;
        let mut interrupted = None;
        let mut panics_recovered = 0u64;
        let mut prefilter_nanos = 0u64;
        let mut verify_nanos = 0u64;
        // the path-word gate: shut until the first search that ends
        // negative, open for the rest of the scan
        let mut paths = false;
        for id in candidates.iter_ones() {
            match self.examine(query, kind, source, id, token, paths) {
                Verdict::Missing => {}
                Verdict::Decided(decision) => {
                    tests += 1;
                    paths |= decision.searched_negative;
                    if decision.contained {
                        answer.set(id, true);
                    }
                    if decision.skipped {
                        prefilter_skips += 1;
                    }
                    prefilter_nanos += decision.prefilter_nanos;
                    verify_nanos += decision.verify_nanos;
                }
                Verdict::Interrupted(interrupt) => {
                    interrupted = Some(interrupt);
                    break;
                }
                Verdict::Panicked => {
                    // the test crashed: contain it, leave the candidate
                    // undecided, keep scanning the rest
                    tests += 1;
                    panics_recovered += 1;
                    interrupted.get_or_insert(Interrupt::Panic);
                }
            }
        }
        MethodAnswer {
            answer,
            tests,
            prefilter_skips,
            interrupted,
            panics_recovered,
            prefilter_nanos,
            verify_nanos,
        }
    }

    /// Examines one candidate: fetch, charge the budget, decide. The whole
    /// step runs inside [`catch_unwind`] so a panic anywhere in it (the
    /// source, the pre-filter, the matcher) is contained to this candidate.
    fn examine<S: GraphSource + ?Sized>(
        &self,
        query: &LabeledGraph,
        kind: QueryKind,
        source: &S,
        id: usize,
        token: &CancelToken,
        paths: bool,
    ) -> Verdict {
        let step = catch_unwind(AssertUnwindSafe(
            || -> Result<Option<Decision>, Interrupt> {
                match source.graph(id) {
                    None => Ok(None),
                    Some(g) => {
                        token.charge_test()?;
                        self.decide_filtered(query, kind, g, token, paths).map(Some)
                    }
                }
            },
        ));
        match step {
            Ok(Ok(None)) => Verdict::Missing,
            Ok(Ok(Some(decision))) => Verdict::Decided(decision),
            Ok(Err(interrupt)) => Verdict::Interrupted(interrupt),
            Err(_) => Verdict::Panicked,
        }
    }
}

/// Outcome of one completed candidate decision, with optional stage timing.
#[derive(Debug, Clone, Copy, Default)]
struct Decision {
    /// Did the candidate pass the sub-iso test?
    contained: bool,
    /// Was it decided negatively by the signature pre-filter alone?
    skipped: bool,
    /// Did the matcher have to search to decide it negatively?
    searched_negative: bool,
    /// Wall time in the pre-filter (0 unless the scan is timed).
    prefilter_nanos: u64,
    /// Wall time in local pruning and the matcher (0 unless the scan is
    /// timed).
    verify_nanos: u64,
}

/// Per-candidate outcome of one scan step.
enum Verdict {
    /// Id not present in the source (deleted graph).
    Missing,
    /// Test completed.
    Decided(Decision),
    /// Budget fired before or during the test; candidate undecided.
    Interrupted(Interrupt),
    /// The step panicked; contained, candidate undecided.
    Panicked,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::LabeledGraph;

    fn g(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
        LabeledGraph::from_parts(labels, edges).unwrap()
    }

    fn dataset() -> Vec<LabeledGraph> {
        vec![
            g(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]), // triangle
            g(vec![0, 0, 0], &[(0, 1), (1, 2)]),         // path3
            g(vec![0, 0], &[(0, 1)]),                    // edge
            g(vec![1, 1], &[(0, 1)]),                    // labeled edge
        ]
    }

    #[test]
    fn subgraph_scan() {
        let data = dataset();
        let query = g(vec![0, 0], &[(0, 1)]); // one 0-0 edge
        let m = MethodM::new(Algorithm::Vf2);
        let cands = BitSet::from_indices(0..4);
        let r = m.run(&query, QueryKind::Subgraph, &data, &cands);
        assert_eq!(r.tests, 4);
        assert_eq!(r.answer.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        // the 1-1 labeled edge was rejected by the signature pre-filter
        assert_eq!(r.prefilter_skips, 1);
    }

    #[test]
    fn supergraph_scan() {
        let data = dataset();
        // query: triangle — contains itself, path3 and the 0-0 edge
        let query = g(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let m = MethodM::new(Algorithm::GraphQl);
        let cands = BitSet::from_indices(0..4);
        let r = m.run(&query, QueryKind::Supergraph, &data, &cands);
        assert_eq!(r.answer.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(r.prefilter_skips, 1, "1-1 edge cannot be ⊆ an all-0 query");
    }

    #[test]
    fn candidate_restriction_limits_tests() {
        let data = dataset();
        let query = g(vec![0, 0], &[(0, 1)]);
        let m = MethodM::new(Algorithm::Vf2Plus);
        let cands = BitSet::from_indices([1usize, 3]);
        let r = m.run(&query, QueryKind::Subgraph, &data, &cands);
        assert_eq!(r.tests, 2);
        assert_eq!(r.answer.iter_ones().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn missing_ids_are_skipped() {
        let data = dataset();
        let query = g(vec![0, 0], &[(0, 1)]);
        let m = MethodM::new(Algorithm::Vf2);
        let cands = BitSet::from_indices([2usize, 9, 17]);
        let r = m.run(&query, QueryKind::Subgraph, &data, &cands);
        assert_eq!(r.tests, 1);
        assert_eq!(r.answer.iter_ones().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn prefilter_on_and_off_agree_on_answers() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let mut data = Vec::new();
        for _ in 0..40 {
            let n = rng.random_range(3..12usize);
            let extra = rng.random_range(0..n);
            data.push(gc_graph::generate::random_connected_graph(
                &mut rng,
                n,
                extra,
                |r| r.random_range(0..4u16),
            ));
        }
        let cands = BitSet::from_indices(0..40);
        for seed in 0..10u64 {
            let mut qrng = StdRng::seed_from_u64(seed);
            let src = seed as usize % 40;
            let want = 1 + (seed as usize % 5);
            let Some(query) = gc_graph::generate::bfs_extract(&mut qrng, &data[src], 0, want)
            else {
                continue;
            };
            for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
                let on = MethodM::new(Algorithm::Vf2).run(&query, kind, &data, &cands);
                let off = MethodM::new(Algorithm::Vf2)
                    .with_prefilter(false)
                    .run(&query, kind, &data, &cands);
                assert_eq!(on.answer, off.answer, "seed {seed} {kind:?}");
                assert_eq!(on.tests, off.tests, "tests are candidate counts");
                assert_eq!(off.prefilter_skips, 0);
            }
        }
    }

    #[test]
    fn budgeted_run_with_unlimited_token_is_exact() {
        let data = dataset();
        let query = g(vec![0, 0], &[(0, 1)]);
        let m = MethodM::new(Algorithm::Vf2);
        let cands = BitSet::from_indices(0..4);
        let plain = m.run(&query, QueryKind::Subgraph, &data, &cands);
        let token = CancelToken::unlimited();
        let budgeted = m.run_budgeted(&query, QueryKind::Subgraph, &data, &cands, &token);
        assert_eq!(plain, budgeted);
        assert!(budgeted.is_exact());
        assert_eq!(budgeted.panics_recovered, 0);
        assert_eq!(token.tests_charged(), 4);
    }

    #[test]
    fn test_cap_stops_scan_with_partial_sound_answer() {
        let data = dataset();
        let query = g(vec![0, 0], &[(0, 1)]);
        let m = MethodM::new(Algorithm::Vf2);
        let cands = BitSet::from_indices(0..4);
        let token = CancelToken::new(None, Some(2));
        let r = m.run_budgeted(&query, QueryKind::Subgraph, &data, &cands, &token);
        assert_eq!(r.interrupted, Some(Interrupt::TestCap));
        assert!(!r.is_exact());
        assert_eq!(r.tests, 2, "only the charged candidates were examined");
        // partial answer is a sound subset of the exact one
        let exact = m.run(&query, QueryKind::Subgraph, &data, &cands);
        for id in r.answer.iter_ones() {
            assert!(
                exact.answer.get(id),
                "partial bit {id} must be a true positive"
            );
        }
    }

    #[test]
    fn cancelled_token_stops_scan_immediately() {
        let data = dataset();
        let query = g(vec![0, 0], &[(0, 1)]);
        let m = MethodM::new(Algorithm::Vf2Plus);
        let cands = BitSet::from_indices(0..4);
        let token = CancelToken::unlimited();
        token.cancel();
        let r = m.run_budgeted(&query, QueryKind::Subgraph, &data, &cands, &token);
        assert_eq!(r.interrupted, Some(Interrupt::Cancelled));
        assert_eq!(r.tests, 0);
        assert!(r.answer.iter_ones().next().is_none());
    }

    #[test]
    fn expired_deadline_degrades_scan() {
        use std::time::{Duration, Instant};
        let data = dataset();
        let query = g(vec![0, 0], &[(0, 1)]);
        let m = MethodM::new(Algorithm::GraphQl);
        let cands = BitSet::from_indices(0..4);
        let token = CancelToken::new(Some(Instant::now() - Duration::from_millis(1)), None);
        let r = m.run_budgeted(&query, QueryKind::Subgraph, &data, &cands, &token);
        assert_eq!(r.interrupted, Some(Interrupt::Deadline));
    }

    /// A graph source that panics the first time a chosen id is fetched —
    /// models a one-shot storage-layer fault under a candidate scan.
    struct OneShotPanicSource {
        data: Vec<LabeledGraph>,
        panic_id: usize,
        fired: std::sync::atomic::AtomicBool,
    }

    impl gc_graph::GraphSource for OneShotPanicSource {
        fn graph(&self, id: usize) -> Option<&LabeledGraph> {
            use std::sync::atomic::Ordering;
            if id == self.panic_id && !self.fired.swap(true, Ordering::SeqCst) {
                panic!("injected storage fault at id {id}");
            }
            self.data.get(id)
        }
        fn id_span(&self) -> usize {
            self.data.len()
        }
    }

    #[test]
    fn sequential_scan_contains_panicking_candidate() {
        let src = OneShotPanicSource {
            data: dataset(),
            panic_id: 1,
            fired: std::sync::atomic::AtomicBool::new(false),
        };
        let query = g(vec![0, 0], &[(0, 1)]);
        let m = MethodM::new(Algorithm::Vf2);
        let cands = BitSet::from_indices(0..4);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the injected panic
        let r = m.run_budgeted(
            &query,
            QueryKind::Subgraph,
            &src,
            &cands,
            CancelToken::unlimited_ref(),
        );
        std::panic::set_hook(prev);
        assert_eq!(r.interrupted, Some(Interrupt::Panic));
        assert_eq!(r.panics_recovered, 1);
        // the faulty candidate is undecided, the rest were still scanned
        assert_eq!(r.tests, 4);
        assert_eq!(r.answer.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn timed_scan_records_stage_nanos_without_changing_answers() {
        let data = dataset();
        let query = g(vec![0, 0], &[(0, 1)]);
        let cands = BitSet::from_indices(0..4);
        let plain = MethodM::new(Algorithm::Vf2).run(&query, QueryKind::Subgraph, &data, &cands);
        let timed = MethodM::new(Algorithm::Vf2).with_timing(true).run(
            &query,
            QueryKind::Subgraph,
            &data,
            &cands,
        );
        assert_eq!(plain.answer, timed.answer);
        assert_eq!(plain.tests, timed.tests);
        assert_eq!(plain.prefilter_skips, timed.prefilter_skips);
        // untimed scans leave the nanos untouched; timed ones fill them in
        assert_eq!(plain.prefilter_nanos, 0);
        assert_eq!(plain.verify_nanos, 0);
        assert!(timed.prefilter_nanos > 0, "4 candidates were pre-filtered");
        assert!(timed.verify_nanos > 0, "3 candidates reached the matcher");
    }

    #[test]
    fn a_searched_negative_opens_the_path_gate() {
        // 1-0-0-2 against the paths 1-0-0-1 and 2-0-0-2: signature and
        // profiles pass, no path spells 1-0-0-2 (filter.rs's unit test)
        let q = g(vec![1, 0, 0, 2], &[(0, 1), (1, 2), (2, 3)]);
        let t = g(
            vec![1, 0, 0, 1, 2, 0, 0, 2],
            &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)],
        );
        let m = MethodM::new(Algorithm::Vf2);
        let token = CancelToken::unlimited_ref();
        let shut = m
            .decide_filtered(&q, QueryKind::Subgraph, &t, token, false)
            .unwrap();
        assert!(shut.searched_negative && !shut.contained);
        let open = m
            .decide_filtered(&q, QueryKind::Subgraph, &t, token, true)
            .unwrap();
        assert!(!open.searched_negative && !open.contained);
        let found = m
            .decide_filtered(&q, QueryKind::Subgraph, &q, token, false)
            .unwrap();
        assert!(found.contained && !found.searched_negative);
        // a scan searches the first, prunes the second by its words and
        // counts both as tests
        let data = vec![t.clone(), t, q.clone()];
        let r = m.run(&q, QueryKind::Subgraph, &data, &BitSet::from_indices(0..3));
        assert_eq!(r.answer.iter_ones().collect::<Vec<_>>(), vec![2]);
        assert_eq!((r.tests, r.prefilter_skips), (3, 0));
    }

    #[test]
    fn all_algorithms_agree_on_scan() {
        let data = dataset();
        let queries = [
            g(vec![0, 0, 0], &[(0, 1), (1, 2)]),
            g(vec![1, 1], &[(0, 1)]),
            g(vec![2], &[]),
        ];
        let cands = BitSet::from_indices(0..4);
        for q in &queries {
            let results: Vec<_> = Algorithm::ALL
                .iter()
                .map(|&a| {
                    MethodM::new(a)
                        .run(q, QueryKind::Subgraph, &data, &cands)
                        .answer
                })
                .collect();
            assert_eq!(results[0], results[1]);
            assert_eq!(results[1], results[2]);
        }
    }
}
