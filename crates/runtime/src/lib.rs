//! # mocha-runtime
//!
//! Multi-tenant simulation runtime on top of the MOCHA fabric: several
//! inference jobs share one morphable accelerator at once, each confined to
//! a disjoint resource lease (PE sub-grid + scratchpad bank range + memory
//! path share), and in-flight jobs *re-morph* onto new leases at fusion
//! group boundaries as tenants arrive and complete — the morphability the
//! paper exploits per layer, applied across jobs.
//!
//! * [`job`] — job specs (network, sparsity profile, objective, priority)
//!   and their JSON wire form;
//! * [`lease`] — carving the fabric into validated disjoint partitions,
//!   adaptively (priority-proportional) or statically (fixed equal slots);
//! * [`scheduler`] — the deterministic virtual-time event loop: admission,
//!   safe lease handoff, parallel group stepping, and (via `mocha-fault`)
//!   fault recovery: bounded group retries, quarantine-and-remorph around
//!   permanently-faulty regions, or a fail-stop baseline;
//! * [`workload`] — seeded Poisson-like multi-tenant traffic;
//! * [`report`] — per-job and fleet-level outcome metrics (latency tails,
//!   queue wait, utilization, GOPS/W).

#![warn(missing_docs)]

pub mod job;
pub mod lease;
pub mod report;
pub mod scheduler;
pub mod workload;

pub use job::{JobId, JobSpec, Priority, Submission};
pub use lease::LeasePolicy;
pub use mocha_core::DecisionCache;
pub use mocha_fault::{FaultMode, FaultPlan};
pub use report::{JobReport, RuntimeReport};
pub use scheduler::{kind_counter, run, run_with, run_with_cache, RuntimeConfig};
pub use workload::{generate, Mix, TrafficConfig};
