//! The host-speed probe.
//!
//! This benchmark was written on a 2-vCPU shared sandbox whose speed wanders
//! by up to 45% in phases of seconds to minutes (neighbours on the same
//! cores), with no steal time reported. Wall time and CPU time both follow
//! it: over 56 passes the correlation between a pass's throughput and the
//! inverse probe time was 0.85, and runs of the same binary spread 16%.
//! No estimator over passes removes a phase that outlasts the run.
//!
//! So every timed loop stops at a few *probe points* and runs a slice of
//! a fixed reference computation. The mean slice time over a pass, divided
//! by the reference slice time frozen below, is the pass's **slowness**;
//! every time measured in that pass is divided by it (throughput
//! multiplied). Metrics are therefore reported *at reference host speed*;
//! the raw figures and the slowness itself are printed beside them.
//!
//! The probe must measure the host, not the code under test. At a probe
//! point no request is in flight and the server is idle (every generator
//! thread has stopped at a barrier), the stop is taken out of the pass's
//! wall time, and each point starts with an untimed walk over a table
//! larger than a core's private caches, so that what the server left in
//! them does not reach the timed slice.
//!
//! What the slice computes was chosen by measurement. Ten candidates
//! (dependent and independent table walks over 256 KiB, 4 MiB and 32 MiB,
//! dependent and independent ALU chains, system calls, sorting) ran side by
//! side at the probe points of 8 same-seed runs per workload, and each
//! pass's time per op was regressed on each candidate's time. A dependent
//! walk, the first version of this probe, follows the host with a slope of
//! 1.1-1.5 (the server slows down more than it does) and leaves 5.6-6.6% of
//! a pass's time unexplained; independent walks plus a sort of
//! pseudo-random keys — overlapping loads and data-dependent branches, as in
//! the index scans and the backtracking search the server spends its time
//! in — follow it with a slope of 1.0-1.2 and leave 2.7-3.8%.

use std::sync::Barrier;
use std::time::Instant;

/// Iterations of the untimed walk that opens a probe point: touches 6 MB
/// of a 4 MiB table, more than a core's private caches hold.
const FLUSH_ITERS: u64 = 50_000;

/// Iterations of the slice's four independent walks over the small table.
const WALK_ITERS: u64 = 50_000;

/// The slice sorts this many pseudo-random keys, [`SORTS`] times.
const SORT_KEYS: usize = 8192;
const SORTS: usize = 3;

/// Probe points spread evenly over each pass (and over each ladder
/// replay). A pass spends about 1.5% of its time at them, and that time is
/// taken out of its wall time.
pub const POINTS_PER_PASS: usize = 12;

/// What one slice takes on the reference host when little disturbs it (the
/// 10th percentile of 224 pass means there; their median was 520,000). A
/// constant, so that normalised values mean the same on every run and
/// every commit.
pub const REFERENCE_SLICE_NS: f64 = 450_000.0;

const TABLE_WORDS: usize = 32 * 1024;
const FLUSH_WORDS: usize = 512 * 1024;

pub struct HostProbe {
    table: Vec<u64>,
    flush: Vec<u64>,
    keys: Vec<u32>,
    state: u64,
    total_ns: u64,
    slices: u64,
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe {
            table: vec![0; TABLE_WORDS],
            flush: vec![0; FLUSH_WORDS],
            keys: vec![0; SORT_KEYS],
            state: 0x9E37_79B9_7F4A_7C15,
            total_ns: 0,
            slices: 0,
        }
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl HostProbe {
    /// The untimed walk: dependent read-modify-writes all over the large
    /// table.
    fn flush(&mut self) {
        let mask = FLUSH_WORDS - 1;
        let mut x = self.state;
        for _ in 0..FLUSH_ITERS {
            let slot = xorshift(&mut x) as usize & mask;
            self.flush[slot] = self.flush[slot].wrapping_add(x);
        }
        self.state = x;
    }

    /// The timed slice: four walks over the small table whose loads do not
    /// wait for each other, then sorts of pseudo-random keys.
    fn slice(&mut self) -> u64 {
        let t = Instant::now();
        let mask = TABLE_WORDS - 1;
        let mut walks = [1, 2, 3, 4].map(|k| self.state.rotate_left(13 * k) | 1);
        let mut acc = 0u64;
        for _ in 0..WALK_ITERS {
            for x in &mut walks {
                acc = acc.wrapping_add(self.table[xorshift(x) as usize & mask]);
            }
        }
        let mut x = walks[0] ^ std::hint::black_box(acc);
        for _ in 0..SORTS {
            for key in &mut self.keys {
                *key = xorshift(&mut x) as u32;
            }
            self.keys.sort_unstable();
        }
        let slot = x as usize & mask;
        self.table[slot] = self.table[slot].wrapping_add(u64::from(self.keys[SORT_KEYS / 2]));
        self.state = x | 1;
        t.elapsed().as_nanos() as u64
    }

    /// One probe point: the untimed walk, then the timed slice. The caller
    /// makes sure nothing of the measured run is in flight meanwhile.
    /// Returns the time spent, so a caller timing a stretch around the
    /// point can take it back out.
    pub fn point(&mut self) -> u64 {
        let t = Instant::now();
        self.flush();
        self.total_ns += self.slice();
        self.slices += 1;
        t.elapsed().as_nanos() as u64
    }

    /// Whether `step` of a loop of `len` steps is one of its
    /// [`POINTS_PER_PASS`] probe points.
    pub fn is_point(step: usize, len: usize) -> bool {
        step.is_multiple_of((len / POINTS_PER_PASS).max(1))
    }

    /// A probe point at every [`POINTS_PER_PASS`]-th part of a loop that
    /// one thread runs alone. Returns the time spent.
    pub fn tick(&mut self, step: usize, len: usize) -> u64 {
        if Self::is_point(step, len) {
            self.point()
        } else {
            0
        }
    }

    /// Mean slice time since the last call over the reference slice time
    /// (1.0 = the reference host, undisturbed), then starts a new mean.
    pub fn take_slowness(&mut self) -> f64 {
        let slowness = if self.slices == 0 {
            1.0
        } else {
            self.total_ns as f64 / self.slices as f64 / REFERENCE_SLICE_NS
        };
        self.total_ns = 0;
        self.slices = 0;
        slowness
    }
}

/// The probe of a loop that several threads run side by side. At a probe
/// point every thread stops at the barrier, so no request is in flight and
/// the server is idle; then every thread runs its slice, each on its own
/// CPU and all at once, so the host is probed with as many CPUs loaded as
/// the loop loads; then all go on together. The time between stops is the
/// loop's *busy* time.
pub struct GroupProbe<'a> {
    barrier: &'a Barrier,
    probe: HostProbe,
    busy_since: Option<Instant>,
    busy_ns: u64,
}

impl<'a> GroupProbe<'a> {
    pub fn new(barrier: &'a Barrier) -> Self {
        GroupProbe {
            barrier,
            probe: HostProbe::default(),
            busy_since: None,
            busy_ns: 0,
        }
    }

    /// A probe point: call it from every thread of the group.
    pub fn sync(&mut self) {
        self.barrier.wait();
        // the last thread has arrived: the busy stretch ends here
        if let Some(since) = self.busy_since.take() {
            self.busy_ns += since.elapsed().as_nanos() as u64;
        }
        self.probe.point();
        self.barrier.wait();
        self.busy_since = Some(Instant::now());
    }

    /// [`GroupProbe::sync`] at the probe points inside a loop of `len`
    /// steps (not at step 0: the caller syncs once before the loop).
    pub fn tick(&mut self, step: usize, len: usize) {
        if step > 0 && HostProbe::is_point(step, len) {
            self.sync();
        }
    }

    /// Busy nanoseconds and this thread's host slowness since the last
    /// call.
    pub fn take(&mut self) -> (u64, f64) {
        (
            std::mem::take(&mut self.busy_ns),
            self.probe.take_slowness(),
        )
    }
}
