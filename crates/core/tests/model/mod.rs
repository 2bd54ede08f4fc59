//! A literal GraphCache+: the paper's operators composed one after the
//! other, as the oracle for every count the real pipeline reports.
//!
//! It is written from the paper and the module docs of `gc_core`, not
//! from the pipeline's code, and keeps none of its machinery: no packed
//! screens, no `CS_M` memo, no identity probe, no label index, no change
//! log. Sets are `BTreeSet`s of graph ids, and every containment question
//! is put to `gc_subiso::bruteforce`.
//!
//! * **The entry table** ([`Table`]) is one `Vec`, cache then window
//!   (`entries` module docs: "the first `resident` positions are the
//!   cache, the rest the window"). A full window joins the cache, and
//!   replacement runs on the merged population.
//! * **Replacement** is HD (`policy` module docs, §7.1): PIN (score `R`)
//!   when the squared CoV of the entries' `R` is above 1, else PINC
//!   (score `C`). The paper leaves ties and the walk order after an
//!   eviction open; the model copies the documented choices: ties evict
//!   the older insertion, then the lower position (`select_evictions`'
//!   docs), and the picks leave "by `swap_remove` in descending position
//!   order, so an evicted slot is filled from the end" (`Entries::admit`'s
//!   docs).
//! * **Consistency** (§5): EVI clears the entries on any change. CON
//!   classifies each touched graph by Algorithm 1 (all UA, all UR, or
//!   anything else) and CON-R by its net edge change, the graph's edge set
//!   before the pending changes against after (`analyzer` module docs).
//!   Algorithm 2 then keeps a valid bit only where the change preserves
//!   the cached relation, with the supergraph dual (`validator` module
//!   docs). In repair mode a bit it cannot keep is disproved by the
//!   signature where it can be (`validator::refresh`'s docs).
//! * **Hit discovery** (§6.1) probes every same-kind, non-quarantined entry
//!   in walk order by brute force, both ways; the first isomorphic one is
//!   the exact twin.
//! * **`CS_M`** is `{G live : signature dominates}` under the label index
//!   and the live set under the paper's live scan.
//! * **Pruning** is formulas (1), (2), (4) and (5) and both §6.3 optimal
//!   cases, each contributing entry credited with the tests it alone
//!   saves (`pruner` module docs).
//! * **Method M** is brute force over what pruning leaves; every candidate
//!   is one test.
//! * **Statistics and admission**: each query ticks the clock once, the
//!   credited entries gain `R` and `C` (tests times the query's size), and
//!   the answer refreshes the twin in place or enters the window stamped
//!   with the clock.
//! * **The auditor** draws its xorshift64* coin per entry in walk order
//!   (`system::audit`'s docs) and rebuilds an entry whose valid claims
//!   differ from brute force.

// each test crate that includes this module uses part of it
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

use gc_core::entry::CachedQuery;
use gc_core::processor::Hits;
use gc_core::{CacheModel, CandidateSource, GcConfig, HitBreakdown, MaintenanceMode};
use gc_dataset::ChangeOp;
use gc_graph::LabeledGraph;
use gc_subiso::bruteforce::BruteForce;
use gc_subiso::filter::signature_may_contain;
use gc_subiso::{CancelToken, QueryKind, SubgraphMatcher};

/// `pattern ⊆ target`, by brute force.
pub fn contains(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    BruteForce.contains(pattern, target)
}

/// Does a query of `kind` have `graph` in its answer?
fn answers(query: &LabeledGraph, kind: QueryKind, graph: &LabeledGraph) -> bool {
    match kind {
        QueryKind::Subgraph => contains(query, graph),
        QueryKind::Supergraph => contains(graph, query),
    }
}

/// May a query of `kind` have `graph` in its answer, by the signatures?
fn may_answer(query: &LabeledGraph, kind: QueryKind, graph: &LabeledGraph) -> bool {
    match kind {
        QueryKind::Subgraph => signature_may_contain(query.signature(), graph.signature()),
        QueryKind::Supergraph => signature_may_contain(graph.signature(), query.signature()),
    }
}

/// Hit discovery as the paper states it (§6.1, `processor` module docs),
/// over entries given as `(graph, kind, quarantined)` in walk order: an
/// entry of the other kind or under quarantine is skipped; each
/// containment direction the signatures leave open is one probe, charged
/// to `token` first and decided by brute force; an entry with the query's
/// signature and edge count that contains the query is isomorphic to it,
/// so its reverse direction holds without a probe. The first isomorphic
/// entry is the exact twin. Direct and exclusion hits follow the query
/// kind. Also returns how many probes compared a graph with itself
/// verbatim, which the real walk decides by identity.
pub fn discover<'a>(
    query: &LabeledGraph,
    kind: QueryKind,
    entries: impl IntoIterator<Item = (&'a LabeledGraph, QueryKind, bool)>,
    token: Option<&CancelToken>,
) -> (Hits, u64) {
    let mut hits = Hits::default();
    let mut verbatim = 0;
    let mut probe = |pattern: &LabeledGraph, target: &LabeledGraph| -> bool {
        if token.is_some_and(|t| t.charge_test().is_err()) {
            return false;
        }
        hits.probes += 1;
        verbatim += u64::from(pattern == target);
        contains(pattern, target)
    };
    let mut found = Vec::new();
    for (graph, entry_kind, quarantined) in entries {
        if entry_kind != kind || quarantined {
            found.push(None);
            continue;
        }
        let same_sig =
            graph.edge_count() == query.edge_count() && graph.signature() == query.signature();
        let query_in_entry =
            signature_may_contain(query.signature(), graph.signature()) && probe(query, graph);
        let entry_in_query = (same_sig && query_in_entry)
            || (signature_may_contain(graph.signature(), query.signature()) && probe(graph, query));
        found.push(Some((query_in_entry, entry_in_query, same_sig)));
    }
    for (r, f) in found.into_iter().enumerate() {
        let Some((query_in_entry, entry_in_query, same_sig)) = f else {
            continue;
        };
        if query_in_entry && entry_in_query && same_sig && hits.exact.is_none() {
            hits.exact = Some(r);
        }
        let (direct, exclusion) = match kind {
            QueryKind::Subgraph => (query_in_entry, entry_in_query),
            QueryKind::Supergraph => (entry_in_query, query_in_entry),
        };
        if direct {
            hits.direct.push(r);
        }
        if exclusion {
            hits.exclusion.push(r);
        }
    }
    (hits, verbatim)
}

/// A previous query in cache or window.
#[derive(Debug, Clone)]
pub struct Entry {
    pub graph: LabeledGraph,
    pub kind: QueryKind,
    /// The graph ids the query answered, at execution time.
    pub answer: BTreeSet<usize>,
    /// The ids towards which the cached relation still holds.
    pub valid: BTreeSet<usize>,
    pub quarantined: bool,
    /// `R`: tests this entry saved.
    pub tests_saved: u64,
    /// `C`: estimated query time this entry saved.
    pub cost_saved: f64,
    pub inserted_at: u64,
}

impl Entry {
    /// A query just executed over ids `0..span`: valid towards all of
    /// them.
    pub fn new(
        graph: LabeledGraph,
        kind: QueryKind,
        answer: BTreeSet<usize>,
        span: usize,
        inserted_at: u64,
    ) -> Self {
        Entry {
            graph,
            kind,
            answer,
            valid: (0..span).collect(),
            quarantined: false,
            tests_saved: 0,
            cost_saved: 0.0,
            inserted_at,
        }
    }

    pub fn credit(&mut self, tests: u64, cost: f64) {
        self.tests_saved += tests;
        self.cost_saved += cost;
    }
}

/// What the differential compares of one entry, real or modelled: graph,
/// kind, answer, validity, quarantine flag and statistics (`C` by its
/// bits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    pub graph: LabeledGraph,
    pub kind: QueryKind,
    pub answer: Vec<usize>,
    pub valid: Vec<usize>,
    pub quarantined: bool,
    pub stats: (u64, u64, u64),
}

impl View {
    pub fn of_model(e: &Entry) -> View {
        View {
            graph: e.graph.clone(),
            kind: e.kind,
            answer: e.answer.iter().copied().collect(),
            valid: e.valid.iter().copied().collect(),
            quarantined: e.quarantined,
            stats: (e.tests_saved, e.cost_saved.to_bits(), e.inserted_at),
        }
    }

    pub fn of_real(e: &CachedQuery) -> View {
        View {
            graph: e.graph().clone(),
            kind: e.kind(),
            answer: e.answer.iter_ones().collect(),
            valid: e.cg_valid.iter_ones().collect(),
            quarantined: e.quarantined,
            stats: (
                e.stats.tests_saved,
                e.stats.cost_saved.to_bits(),
                e.stats.inserted_at,
            ),
        }
    }
}

/// Cache then window in one `Vec`, with HD replacement at each flush.
#[derive(Debug, Clone)]
pub struct Table {
    pub entries: Vec<Entry>,
    resident: usize,
    cache_capacity: usize,
    window_capacity: usize,
    pub evictions: u64,
    /// Flushes that evicted under PIN and under PINC.
    pub pin_cuts: u64,
    pub pinc_cuts: u64,
}

impl Table {
    pub fn new(cache_capacity: usize, window_capacity: usize) -> Self {
        Table {
            entries: Vec::new(),
            resident: 0,
            cache_capacity,
            window_capacity,
            evictions: 0,
            pin_cuts: 0,
            pinc_cuts: 0,
        }
    }

    /// `(cache, window)`.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.resident, self.entries.len() - self.resident)
    }

    /// EVI's purge.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.resident = 0;
    }

    /// The query enters the window. A full window joins the cache, and
    /// when the cache then holds more than its capacity HD evicts the
    /// lowest scorers. A window of capacity 0 admits nothing; a cache of
    /// capacity 0 drops every full window (`Entries::new`'s docs).
    pub fn admit(&mut self, entry: Entry) {
        if self.window_capacity == 0 {
            return;
        }
        self.entries.push(entry);
        if self.entries.len() - self.resident < self.window_capacity {
            return;
        }
        if self.cache_capacity == 0 {
            self.entries.truncate(self.resident);
            return;
        }
        let excess = self.entries.len().saturating_sub(self.cache_capacity);
        if excess > 0 {
            let pin = self.hd_picks_pin();
            if pin {
                self.pin_cuts += 1;
            } else {
                self.pinc_cuts += 1;
            }
            let score = |e: &Entry| {
                if pin {
                    e.tests_saved as f64
                } else {
                    e.cost_saved
                }
            };
            let mut order: Vec<usize> = (0..self.entries.len()).collect();
            order.sort_by(|&a, &b| {
                let (ea, eb) = (&self.entries[a], &self.entries[b]);
                score(ea)
                    .total_cmp(&score(eb))
                    .then(ea.inserted_at.cmp(&eb.inserted_at))
                    .then(a.cmp(&b))
            });
            let mut evict = order[..excess].to_vec();
            evict.sort_unstable_by(|a, b| b.cmp(a));
            for i in evict {
                self.entries.swap_remove(i);
            }
            self.evictions += excess as u64;
        }
        self.resident = self.entries.len();
    }

    /// HD's switch: the squared CoV of `R`, `Var / Mean²`, above 1, in
    /// integers: `n·Σr² − (Σr)² > (Σr)²`.
    fn hd_picks_pin(&self) -> bool {
        let n = self.entries.len() as u128;
        let sum: u128 = self.entries.iter().map(|e| u128::from(e.tests_saved)).sum();
        let squares: u128 = (self.entries.iter())
            .map(|e| u128::from(e.tests_saved).pow(2))
            .sum();
        n * squares > 2 * sum * sum
    }
}

/// What the pending changes did to one graph since the last maintenance
/// pass.
#[derive(Debug, Clone, Default)]
struct Touch {
    ua: bool,
    ur: bool,
    /// ADD or DEL.
    structural: bool,
    /// The graph's edges before the first pending change.
    before: BTreeSet<(u32, u32)>,
}

/// Every count the differential compares of one query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub subiso_tests: u64,
    pub prefilter_skips: u64,
    pub tests_saved: u64,
    pub candidate_size: u64,
    pub hits: HitBreakdown,
    pub repairs_applied: u64,
    pub invalidations_avoided: u64,
    pub repair_fallbacks: u64,
}

impl Counts {
    /// The real pipeline's counts, from its metrics.
    pub fn of_real(m: &gc_core::QueryMetrics) -> Counts {
        Counts {
            subiso_tests: m.subiso_tests,
            prefilter_skips: m.prefilter_skips,
            tests_saved: m.tests_saved,
            candidate_size: m.candidate_size,
            hits: m.hits,
            repairs_applied: m.repairs_applied,
            invalidations_avoided: m.invalidations_avoided,
            repair_fallbacks: m.repair_fallbacks,
        }
    }
}

/// The literal GC+.
#[derive(Debug, Clone)]
pub struct Model {
    model: CacheModel,
    repair: bool,
    index: bool,
    /// Method M's signature pre-filter under the live scan (it only counts
    /// skips: the answer is the same).
    prefilter: bool,
    /// The dataset by id; `None` once deleted.
    graphs: Vec<Option<LabeledGraph>>,
    /// The graphs changed since the last maintenance pass.
    touched: BTreeMap<usize, Touch>,
    pub table: Table,
    clock: u64,
}

impl Model {
    pub fn new(config: &GcConfig, initial: Vec<LabeledGraph>) -> Self {
        Model {
            model: config.model,
            repair: config.maintenance == MaintenanceMode::Repair,
            index: config.candidate_source == CandidateSource::LabelIndex,
            prefilter: config.method.prefilter,
            graphs: initial.into_iter().map(Some).collect(),
            touched: BTreeMap::new(),
            table: Table::new(config.cache_capacity, config.window_capacity),
            clock: 0,
        }
    }

    fn live(&self) -> impl Iterator<Item = (usize, &LabeledGraph)> {
        (self.graphs.iter().enumerate()).filter_map(|(id, g)| Some((id, g.as_ref()?)))
    }

    /// Applies a change the way the store does, `None` where the store
    /// refuses it (a dead id, an edge already there or missing).
    pub fn apply(&mut self, op: &ChangeOp) -> Option<usize> {
        let id = match op {
            ChangeOp::Add(_) => self.graphs.len(),
            ChangeOp::Del(id) | ChangeOp::Ua { id, .. } | ChangeOp::Ur { id, .. } => *id,
        };
        let edges = |g: &LabeledGraph| g.edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
        let before = match self.graphs.get(id) {
            Some(Some(g)) => edges(g),
            _ => BTreeSet::new(),
        };
        match op {
            ChangeOp::Add(g) => self.graphs.push(Some(g.clone())),
            ChangeOp::Del(_) => {
                self.graphs.get_mut(id)?.take()?;
            }
            ChangeOp::Ua { u, v, .. } => {
                let g = self.graphs.get_mut(id)?.as_mut()?;
                g.add_edge(*u, *v).ok()?;
            }
            ChangeOp::Ur { u, v, .. } => {
                let g = self.graphs.get_mut(id)?.as_mut()?;
                g.remove_edge(*u, *v).ok()?;
            }
        }
        let touch = self.touched.entry(id).or_insert_with(|| Touch {
            before,
            ..Touch::default()
        });
        match op {
            ChangeOp::Ua { .. } => touch.ua = true,
            ChangeOp::Ur { .. } => touch.ur = true,
            ChangeOp::Add(_) | ChangeOp::Del(_) => touch.structural = true,
        }
        Some(id)
    }

    /// Does a valid bit of an entry of `kind` survive what the pending
    /// changes did to graph `id`?
    fn keeps(&self, touch: &Touch, id: usize, kind: QueryKind, answered: bool) -> bool {
        // Algorithm 2: adding edges preserves `q ⊆ G` and `G ⊄ q`,
        // removing them the other two
        let survives_adds = match kind {
            QueryKind::Subgraph => answered,
            QueryKind::Supergraph => !answered,
        };
        let (adds, removes) = match self.model {
            CacheModel::Con => (touch.ua, touch.ur),
            _ => {
                let after: BTreeSet<(u32, u32)> = self.graphs[id]
                    .as_ref()
                    .map(|g| g.edges().map(|(u, v)| (u.min(v), u.max(v))).collect())
                    .unwrap_or_default();
                (
                    after.difference(&touch.before).next().is_some(),
                    touch.before.difference(&after).next().is_some(),
                )
            }
        };
        match (touch.structural, adds, removes) {
            (true, ..) => false,
            (false, false, false) => true,
            (false, true, false) => survives_adds,
            (false, false, true) => !survives_adds,
            (false, true, true) => false,
        }
    }

    /// The consistency pass over every pending change, returning
    /// (repairs applied, invalidations avoided, repair fallbacks).
    fn maintain(&mut self) -> (u64, u64, u64) {
        let touched = std::mem::take(&mut self.touched);
        let mut tally = (0, 0, 0);
        if touched.is_empty() {
            return tally;
        }
        if self.model == CacheModel::Evi {
            self.table.clear();
            return tally;
        }
        let mut entries = std::mem::take(&mut self.table.entries);
        for e in &mut entries {
            // ids assigned since the entry was built are absent from
            // `valid` already: they start invalid
            for (&id, touch) in &touched {
                if !e.valid.contains(&id) || self.keeps(touch, id, e.kind, e.answer.contains(&id)) {
                    continue;
                }
                let graph = self.graphs[id].as_ref().filter(|_| self.repair);
                let Some(graph) = graph else {
                    e.valid.remove(&id);
                    continue;
                };
                if may_answer(&e.graph, e.kind, graph) {
                    e.valid.remove(&id);
                    tally.2 += 1;
                    continue;
                }
                if e.answer.remove(&id) {
                    tally.0 += 1;
                }
                tally.1 += 1;
            }
        }
        self.table.entries = entries;
        tally
    }

    /// One query through the pipeline: its answer and counts.
    pub fn query(&mut self, query: &LabeledGraph, kind: QueryKind) -> (BTreeSet<usize>, Counts) {
        let (repairs_applied, invalidations_avoided, repair_fallbacks) = self.maintain();
        let entries = &self.table.entries;
        let (hits, _) = discover(
            query,
            kind,
            entries.iter().map(|e| (&e.graph, e.kind, e.quarantined)),
            None,
        );
        let csm: BTreeSet<usize> = self
            .live()
            .filter(|(_, g)| !self.index || may_answer(query, kind, g))
            .map(|(id, _)| id)
            .collect();
        let fully_valid = |e: &Entry| csm.is_subset(&e.valid);

        // §6.3 optimal cases, then formulas (1), (2), (4) and (5)
        let mut credits: Vec<(usize, u64)> = Vec::new();
        let mut shortcut = (false, false);
        let mut direct_answers = BTreeSet::new();
        let mut candidates = BTreeSet::new();
        let csm_len = csm.len() as u64;
        if let Some(r) = hits.exact.filter(|&r| fully_valid(&entries[r])) {
            shortcut.0 = true;
            direct_answers = entries[r].answer.intersection(&csm).copied().collect();
            credits.push((r, csm_len));
        } else if let Some(&r) = hits.exclusion.iter().find(|&&r| {
            fully_valid(&entries[r]) && entries[r].answer.intersection(&csm).next().is_none()
        }) {
            shortcut.1 = true;
            credits.push((r, csm_len));
        } else {
            for &r in &hits.direct {
                let e = &entries[r];
                let known: BTreeSet<usize> = (e.valid.intersection(&e.answer))
                    .filter(|id| csm.contains(id))
                    .copied()
                    .collect();
                if !known.is_empty() {
                    credits.push((r, known.len() as u64));
                }
                direct_answers.extend(known);
            }
            let base: BTreeSet<usize> = csm.difference(&direct_answers).copied().collect();
            candidates = base.clone();
            for &r in &hits.exclusion {
                let e = &entries[r];
                let excluded: BTreeSet<usize> = (base.iter())
                    .filter(|id| e.valid.contains(id) && !e.answer.contains(id))
                    .copied()
                    .collect();
                if !excluded.is_empty() {
                    credits.push((r, excluded.len() as u64));
                }
                candidates.retain(|id| !excluded.contains(id));
            }
        }

        // Method M over the survivors
        let mut answer = direct_answers;
        let mut prefilter_skips = 0;
        for &id in &candidates {
            let graph = self.graphs[id].as_ref().expect("candidates are live");
            if !self.index && self.prefilter && !may_answer(query, kind, graph) {
                prefilter_skips += 1;
            } else if answers(query, kind, graph) {
                answer.insert(id);
            }
        }
        let tests = candidates.len() as u64;

        // statistics and admission
        self.clock += 1;
        let per_test_cost = (query.vertex_count() + query.edge_count()) as f64;
        for &(r, saved) in &credits {
            self.table.entries[r].credit(saved, saved as f64 * per_test_cost);
        }
        let span = self.graphs.len();
        match hits.exact {
            Some(r) => {
                let e = &mut self.table.entries[r];
                e.answer = answer.clone();
                e.valid = (0..span).collect();
                e.quarantined = false;
            }
            None => {
                let entry = Entry::new(query.clone(), kind, answer.clone(), span, self.clock);
                self.table.admit(entry);
            }
        }
        let counts = Counts {
            subiso_tests: tests,
            prefilter_skips,
            tests_saved: csm_len - tests,
            candidate_size: csm_len,
            hits: HitBreakdown {
                direct_hits: hits.direct.len() as u32,
                exclusion_hits: hits.exclusion.len() as u32,
                exact_match: hits.exact.is_some(),
                exact_shortcut: shortcut.0,
                empty_shortcut: shortcut.1,
            },
            repairs_applied,
            invalidations_avoided,
            repair_fallbacks,
        };
        (answer, counts)
    }

    /// Quarantines every same-kind entry not yet quarantined whose
    /// signature leaves a containment with `query` open either way.
    pub fn quarantine_related(&mut self, query: &LabeledGraph, kind: QueryKind) -> usize {
        let mut n = 0;
        for e in &mut self.table.entries {
            let open = signature_may_contain(query.signature(), e.graph.signature())
                || signature_may_contain(e.graph.signature(), query.signature());
            if e.kind == kind && !e.quarantined && open {
                e.quarantined = true;
                n += 1;
            }
        }
        n
    }

    /// The auditor: `(sampled, clean, repaired)`.
    pub fn audit(&mut self, sample_rate: f64, seed: u64) -> (usize, usize, usize) {
        self.maintain();
        let live: BTreeSet<usize> = self.live().map(|(id, _)| id).collect();
        let span = self.graphs.len();
        let mut rng = seed | 1;
        let mut coin = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let (mut sampled, mut clean, mut repaired) = (0, 0, 0);
        let graphs = &self.graphs;
        for e in &mut self.table.entries {
            if !(e.quarantined || sample_rate >= 1.0 || coin() < sample_rate) {
                continue;
            }
            sampled += 1;
            let truth: BTreeSet<usize> = (live.iter().copied())
                .filter(|&id| answers(&e.graph, e.kind, graphs[id].as_ref().expect("live")))
                .collect();
            let claimed = |set: &BTreeSet<usize>| -> Vec<usize> {
                (live.iter().copied())
                    .filter(|id| e.valid.contains(id) && set.contains(id))
                    .collect()
            };
            let same = claimed(&e.answer) == claimed(&truth);
            e.quarantined = false;
            if same {
                clean += 1;
            } else {
                e.answer = truth;
                e.valid = (0..span).collect();
                repaired += 1;
            }
        }
        (sampled, clean, repaired)
    }
}
