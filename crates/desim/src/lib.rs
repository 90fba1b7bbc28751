//! `pckpt-desim` — a discrete-event simulation engine.
//!
//! The paper evaluates its C/R models with SimPy, a process-based
//! discrete-event simulation framework. This crate is the Rust substrate
//! playing that role, reduced to what the models need:
//!
//! 1. **The event engine** ([`engine`], [`queue`]): a model implements
//!    [`engine::Model`] and handles typed events popped from a cancellable
//!    priority queue by one loop, [`run_with_queue`]. SimPy's timeouts
//!    are scheduled events and its interrupts are cancellation: the
//!    coordination protocols with aborts (live migration cancelled by a
//!    higher-priority prediction) map onto explicit state machines plus
//!    event cancellation.
//! 2. **Shared links** ([`flow`]): a fluid-flow model of contended
//!    bandwidth. Concurrent transfers progress simultaneously at a fair
//!    share of a (possibly load-dependent) capacity, which is how the PFS
//!    and burst buffer contention of the paper's I/O model is simulated
//!    without simulating individual I/O requests.
//!
//! Determinism: ties in event time are broken by schedule order (a
//! monotone sequence number), so a simulation is a pure function of its
//! inputs and RNG seed.

#![warn(missing_docs)]

pub mod audit;
pub mod engine;
pub mod flow;
pub mod queue;
pub mod smallmap;
pub mod time;

pub use engine::{run_with_queue, Ctx, Model, Simulation};
pub use flow::{FlowLink, TransferId};
pub use flow::reference::ReferenceFlowLink;
pub use queue::{EventId, EventQueue};
pub use smallmap::SmallMap;
pub use time::{SimDuration, SimTime};

/// Re-export of the structured observability layer threaded through the
/// engine, queue and flow link (see `pckpt-simobs`).
pub use pckpt_simobs as obs;
