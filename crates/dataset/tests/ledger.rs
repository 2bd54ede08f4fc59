//! The byte ledger against the resident set: building every graph's lazily
//! built features (profile table and path words) and the label index over
//! a 4,000-graph dataset must grow the process's resident memory by what
//! `GraphStore::memory_bytes` and `LabelIndex::memory_bytes` say, within
//! 10%. The ledger counts buffer capacities and leaves out allocator
//! headers, which is most of what it misses (7.9% on glibc: 1,539,892 B
//! counted against 1,671,168 B resident). The store itself is built
//! before the first reading, so its CSR bytes are not part of the growth.
//! Neither are the signatures, which are built lazily too but read before
//! it, as a server's start-up reads every one for the label index: a
//! histogram is one allocation of ~44 B, on which glibc's header and
//! rounding add ~16 B, so with their 174,872 B in the growth the ledger
//! reads 10.4% off.
//!
//! The only test in its own binary, so no other test allocates while it
//! reads `/proc/self/statm`. Linux only; elsewhere it passes vacuously.

use gc_dataset::aids::{synthetic_aids, AidsConfig};
use gc_dataset::{ChangeLog, GraphStore, LabelIndex};

/// Resident bytes of this process: `/proc/self/statm`'s second field, in
/// pages of the size the first mapping in `/proc/self/smaps` reports.
fn resident_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
    let page_kib: u64 = smaps
        .lines()
        .find_map(|l| l.strip_prefix("KernelPageSize:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(pages * page_kib * 1024)
}

#[test]
fn ledger_explains_the_resident_growth_of_building_every_feature() {
    let store = GraphStore::from_graphs(synthetic_aids(&AidsConfig::scaled(4000, 2017)));
    for (_, g) in store.iter_live() {
        g.signature();
    }
    let unbuilt = store.memory_bytes();
    let Some(before) = resident_bytes() else {
        return;
    };
    for (_, g) in store.iter_live() {
        g.profiles();
        g.path_words();
    }
    let index = LabelIndex::build(&store, &ChangeLog::new());
    let after = resident_bytes().expect("read once already");

    let built = store.memory_bytes();
    assert_eq!((unbuilt.profiles, unbuilt.paths), (0, 0));
    assert_eq!(
        (built.csr, built.signature),
        (unbuilt.csr, unbuilt.signature),
        "building a feature moves no other"
    );
    let ledger = built.profiles + built.paths + index.memory_bytes();
    let grown = after.saturating_sub(before);
    let error = ledger.abs_diff(grown) as f64 / grown as f64;
    assert!(
        error <= 0.10,
        "the ledger's {ledger} B (profiles {} B, paths {} B, index {} B) is {:.1}% off the resident growth of {grown} B",
        built.profiles,
        built.paths,
        index.memory_bytes(),
        error * 100.0
    );
}
