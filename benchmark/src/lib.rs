//! `gc_benchmark` — the serving benchmark of GraphCache+ (see README.md).
//!
//! * [`workload`] — the constant population and the seeded op streams;
//! * [`child`] — the server under test as a child process;
//! * [`loopback`] — the closed-loop generator, pass estimator and oracle;
//! * [`ladder`] — the traced run: the same ops replayed at each layer's
//!   public boundary, one level deeper each time;
//! * [`report`] — metric names and units, the result line, calibration.

pub mod child;
pub mod json;
pub mod ladder;
pub mod loopback;
pub mod probe;
pub mod report;
pub mod stats;
pub mod workload;
