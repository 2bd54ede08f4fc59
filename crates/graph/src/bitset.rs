//! A growable bitset with the set algebra GC+ needs.
//!
//! The paper stores both the answer set (`Answer`) and the dataset-graph
//! validity indicator (`CGvalid`) of every cached query as a
//! `java.util.BitSet`, indexed by dataset-graph id (ids are never reused, so
//! positions are stable). Algorithm 2 extends `CGvalid` with `false` bits
//! when new dataset graphs appear; reads past the end return `false`, like
//! Java's `BitSet.get`. This implementation mirrors those semantics.
//!
//! The candidate-set pruning of §6 is pure bit algebra:
//!
//! * formula (1): `union` of `intersection`s,
//! * formula (2): `difference`,
//! * formula (4)/(5): `(csm \ valid) ∪ (csm ∩ answer)` — see
//!   [`BitSet::retain_super_hit`].

const BITS: usize = u64::BITS as usize;

/// A growable bitset. Bit positions are `usize`; unset/out-of-range
/// positions read as `false`.
///
/// Equality and hashing are *semantic*: two bitsets with the same set of
/// one-positions are equal regardless of how many trailing zero blocks
/// either allocated (mutating operations may leave zero tails behind).
#[derive(Clone, Default)]
pub struct BitSet {
    blocks: Vec<u64>,
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.blocks.len() <= other.blocks.len() {
            (&self.blocks, &other.blocks)
        } else {
            (&other.blocks, &self.blocks)
        };
        short.iter().zip(long.iter()).all(|(a, b)| a == b)
            && long[short.len()..].iter().all(|&b| b == 0)
    }
}

impl Eq for BitSet {}

impl std::hash::Hash for BitSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // hash only up to the last nonzero block, so equal sets hash equal
        let end = self
            .blocks
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        self.blocks[..end].hash(state);
    }
}

impl BitSet {
    /// Creates an empty bitset.
    pub fn new() -> Self {
        Self { blocks: Vec::new() }
    }

    /// Heap bytes the bitset holds: its block buffer's capacity.
    pub fn memory_bytes(&self) -> u64 {
        (self.blocks.capacity() * 8) as u64
    }

    /// Creates an empty bitset with room for `nbits` bits pre-allocated.
    pub fn with_capacity(nbits: usize) -> Self {
        Self {
            blocks: Vec::with_capacity(nbits.div_ceil(BITS)),
        }
    }

    /// Creates a bitset with bits `0..nbits` all set — the "full validity"
    /// indicator a query receives when it enters the cache (it was executed
    /// against the then-current dataset, so it holds validity for every
    /// graph id below the dataset's high-water mark).
    pub fn all_set(nbits: usize) -> Self {
        let mut s = Self::new();
        if nbits == 0 {
            return s;
        }
        let nblocks = nbits.div_ceil(BITS);
        s.blocks = vec![u64::MAX; nblocks];
        let spare = nblocks * BITS - nbits;
        if spare > 0 {
            *s.blocks.last_mut().expect("nblocks > 0") >>= spare;
        }
        s
    }

    /// Builds a bitset from an iterator of set positions.
    pub fn from_indices<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = Self::new();
        for i in iter {
            s.set(i, true);
        }
        s
    }

    /// Reads bit `i`; positions beyond the allocated blocks read `false`
    /// (Java `BitSet.get` semantics, relied upon by Algorithm 2 when a
    /// cached `Answer` predates newly added dataset graphs).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        match self.blocks.get(i / BITS) {
            Some(b) => (b >> (i % BITS)) & 1 == 1,
            None => false,
        }
    }

    /// Writes bit `i`, growing the backing storage as needed.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        let block = i / BITS;
        if block >= self.blocks.len() {
            if !value {
                return; // clearing an out-of-range bit is a no-op
            }
            self.blocks.resize(block + 1, 0);
        }
        let mask = 1u64 << (i % BITS);
        if value {
            self.blocks[block] |= mask;
        } else {
            self.blocks[block] &= !mask;
        }
    }

    /// Ensures positions `0..nbits` are addressable; new bits are `false`.
    /// Mirrors Algorithm 2 line 4–6 ("extend `CGvalid` to length `m+1` by
    /// assigning false to extended bits").
    pub fn extend_to(&mut self, nbits: usize) {
        let need = nbits.div_ceil(BITS);
        if need > self.blocks.len() {
            self.blocks.resize(need, 0);
        }
    }

    /// Clears every set bit `i` for which `keep(i)` is `false`, visiting
    /// the set bits in ascending order.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (bi, block) in self.blocks.iter_mut().enumerate() {
            let mut rest = *block;
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if !keep(bi * BITS + bit) {
                    *block &= !(1 << bit);
                }
            }
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// `true` iff no bit is set.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes all bits (keeps allocation).
    pub fn clear(&mut self) {
        self.blocks.clear();
    }

    /// In-place union: `self |= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.blocks.len() > self.blocks.len() {
            self.blocks.resize(other.blocks.len(), 0);
        }
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// In-place intersection: `self &= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        let n = other.blocks.len().min(self.blocks.len());
        for (a, b) in self.blocks[..n].iter_mut().zip(&other.blocks[..n]) {
            *a &= b;
        }
        for a in &mut self.blocks[n..] {
            *a = 0;
        }
    }

    /// In-place difference: `self &= !other` (formula (2): `CS_M \ Answer_sub`).
    pub fn difference_with(&mut self, other: &BitSet) {
        let n = other.blocks.len().min(self.blocks.len());
        for (a, b) in self.blocks[..n].iter_mut().zip(&other.blocks[..n]) {
            *a &= !b;
        }
    }

    /// Returns `self & other` without mutating either operand.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let mut r = self.clone();
        r.intersect_with(other);
        r
    }

    /// Returns `self | other` without mutating either operand.
    pub fn union(&self, other: &BitSet) -> BitSet {
        let mut r = self.clone();
        r.union_with(other);
        r
    }

    /// Returns `self \ other` without mutating either operand.
    pub fn difference(&self, other: &BitSet) -> BitSet {
        let mut r = self.clone();
        r.difference_with(other);
        r
    }

    /// Supergraph-case pruning step (formulas (4)+(5) fused):
    /// keeps of `self` (the running candidate set) only the graphs that are
    /// *not provably excluded* by a supergraph hit with the given validity
    /// and answer sets, i.e. `self ∩ (¬valid ∪ answer)` — equivalently
    /// `(self \ valid) ∪ (self ∩ answer)`.
    ///
    /// A graph `G` survives iff the hit's knowledge about `G` is stale
    /// (`!valid.get(G)`) or `G` did contain the cached query (`answer.get(G)`).
    pub fn retain_super_hit(&mut self, valid: &BitSet, answer: &BitSet) {
        for (i, a) in self.blocks.iter_mut().enumerate() {
            let v = valid.blocks.get(i).copied().unwrap_or(0);
            let ans = answer.blocks.get(i).copied().unwrap_or(0);
            *a &= !v | ans;
        }
    }

    /// `true` iff every set bit of `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &BitSet) -> bool {
        for (i, &a) in self.blocks.iter().enumerate() {
            let b = other.blocks.get(i).copied().unwrap_or(0);
            if a & !b != 0 {
                return false;
            }
        }
        true
    }

    /// `true` iff `self` and `other` share no set bit.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & b == 0)
    }

    /// Iterator over set bit positions in ascending order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            blocks: &self.blocks,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over the set bits of a [`BitSet`].
pub struct Ones<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
        let tz = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.block_idx * BITS + tz)
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        Self::from_indices(iter)
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter_ones()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retain_clears_exactly_the_rejected_bits() {
        let mut s = BitSet::from_indices([0, 5, 63, 64, 130, 191]);
        let mut seen = Vec::new();
        s.retain(|i| {
            seen.push(i);
            i % 2 == 0
        });
        assert_eq!(seen, vec![0, 5, 63, 64, 130, 191], "ascending, once each");
        assert_eq!(s, BitSet::from_indices([0, 64, 130]));
    }

    #[test]
    fn empty_reads_false() {
        let s = BitSet::new();
        assert!(!s.get(0));
        assert!(!s.get(1_000_000));
        assert!(s.is_empty());
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.iter_ones().next(), None);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut s = BitSet::new();
        for &i in &[0usize, 1, 63, 64, 65, 127, 128, 1000] {
            s.set(i, true);
            assert!(s.get(i), "bit {i} should be set");
        }
        assert_eq!(s.count_ones(), 8);
        s.set(64, false);
        assert!(!s.get(64));
        assert_eq!(s.count_ones(), 7);
        assert_eq!(s.iter_ones().last(), Some(1000));
    }

    #[test]
    fn clearing_out_of_range_is_noop() {
        let mut s = BitSet::new();
        s.set(500, false);
        assert!(s.blocks.is_empty());
    }

    #[test]
    fn all_set_has_exact_prefix() {
        for n in [0usize, 1, 63, 64, 65, 100, 128, 129] {
            let s = BitSet::all_set(n);
            assert_eq!(s.count_ones(), n, "n={n}");
            if n > 0 {
                assert!(s.get(n - 1));
            }
            assert!(!s.get(n));
            assert!(!s.get(n + 100));
        }
    }

    #[test]
    fn union_intersection_difference() {
        let a = BitSet::from_indices([1usize, 2, 3, 100]);
        let b = BitSet::from_indices([2usize, 3, 4, 200]);

        let u = a.union(&b);
        assert_eq!(
            u.iter_ones().collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 100, 200]
        );

        let i = a.intersection(&b);
        assert_eq!(i.iter_ones().collect::<Vec<_>>(), vec![2, 3]);

        let d = a.difference(&b);
        assert_eq!(d.iter_ones().collect::<Vec<_>>(), vec![1, 100]);
    }

    #[test]
    fn intersection_clears_tail_blocks() {
        let mut a = BitSet::from_indices([600usize]);
        let b = BitSet::from_indices([1usize]);
        a.intersect_with(&b);
        assert!(a.is_empty());
    }

    #[test]
    fn retain_super_hit_matches_formula() {
        // candidate set {0,1,2,3}; hit valid on {1,3}, answered {2,3}.
        // survivor = (cs \ valid) ∪ (cs ∩ answer) = {0,2} ∪ {2,3} = {0,2,3}.
        let mut cs = BitSet::from_indices([0usize, 1, 2, 3]);
        let valid = BitSet::from_indices([1usize, 3]);
        let answer = BitSet::from_indices([2usize, 3]);
        cs.retain_super_hit(&valid, &answer);
        assert_eq!(cs.iter_ones().collect::<Vec<_>>(), vec![0, 2, 3]);
    }

    #[test]
    fn retain_super_hit_shorter_operands() {
        let mut cs = BitSet::from_indices([0usize, 70, 140]);
        let valid = BitSet::from_indices([0usize]); // one block only
        let answer = BitSet::new();
        cs.retain_super_hit(&valid, &answer);
        // 0 is valid & unanswered -> excluded; 70/140 unknown -> kept.
        assert_eq!(cs.iter_ones().collect::<Vec<_>>(), vec![70, 140]);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = BitSet::from_indices([1usize, 2]);
        let b = BitSet::from_indices([1usize, 2, 3]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_disjoint(&BitSet::from_indices([4usize, 500])));
        assert!(!a.is_disjoint(&b));
        // a longer "subset" with a high set bit is not a subset
        let c = BitSet::from_indices([1usize, 999]);
        assert!(!c.is_subset_of(&b));
        assert!(b.is_subset_of(&b));
    }

    #[test]
    fn extend_to_reads_false() {
        let mut s = BitSet::new();
        s.extend_to(129);
        assert!(!s.get(128));
        assert_eq!(s.blocks.len(), 3);
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn iter_ones_order_and_completeness() {
        let idx = vec![0usize, 5, 63, 64, 127, 128, 300];
        let s = BitSet::from_indices(idx.clone());
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), idx);
    }

    #[test]
    fn debug_format_lists_members() {
        let s = BitSet::from_indices([3usize, 7]);
        assert_eq!(format!("{s:?}"), "{3, 7}");
    }

    #[test]
    fn equality_ignores_trailing_zero_blocks() {
        let empty = BitSet::new();
        let mut zeroed = BitSet::new();
        zeroed.extend_to(300);
        assert_eq!(empty, zeroed);
        assert_eq!(zeroed, empty);

        let mut a = BitSet::from_indices([5usize]);
        let mut b = BitSet::from_indices([5usize, 200]);
        b.set(200, false);
        assert_eq!(a, b);
        // hashes must agree for equal values
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |s: &BitSet| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&a), h(&b));
        a.set(64, true);
        assert_ne!(a, b);
    }
}
