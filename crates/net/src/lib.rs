//! # dss-net — SPMD message-passing runtime (the MPI stand-in)
//!
//! The paper's model of computation (§II) is a distributed-memory machine
//! with `p` PEs where sending `m` bits costs `α + βm`. This crate provides
//! that machine: each PE is an OS thread, point-to-point messages are
//! length-counted byte buffers over channels, and all collectives are
//! implemented *on top of* point-to-point with the textbook algorithms
//! (binomial trees for broadcast/reduce/gather, Bruck doubling for
//! all-gather, direct and hypercube personalized all-to-all, dissemination
//! barrier), so that message rounds and volumes match what a real MPI job
//! would incur.
//!
//! Every PE keeps per-phase counters — bytes sent/received, messages,
//! latency rounds on the critical path, compute vs. communication wall
//! time — which the harness aggregates into exact "bytes sent per string"
//! numbers and an α–β modeled time (see [`metrics`]). Measured volumes are
//! substrate-independent facts; modeled times reproduce the *shape* of the
//! paper's scaling plots.
//!
//! ## Quick start
//!
//! ```
//! use dss_net::runner::{run_spmd, RunConfig};
//!
//! let result = run_spmd(4, RunConfig::default(), |comm| {
//!     // SPMD code: every PE runs this closure.
//!     let hello = format!("hi from {}", comm.rank()).into_bytes();
//!     let all = comm.allgatherv(hello);
//!     all.len()
//! });
//! assert_eq!(result.values, vec![4, 4, 4, 4]);
//! ```

pub mod collectives;
pub mod comm;
pub mod cputime;
pub mod metrics;
pub mod nonblocking;
pub mod rng;
pub mod runner;
pub mod topology;
pub mod trace;

pub use comm::{Comm, Tag};
pub use metrics::{CostModel, NetStats, PhaseSummary};
pub use nonblocking::{PendingExchange, RecvHandle, SendHandle};
pub use rng::SplitMix64;
pub use runner::{run_spmd, RunConfig, SpmdResult};
pub use topology::{
    factor_into_levels, grid_dims, multi_grid_dims, multi_grid_view, MultiGridComm, MultiGridLevel,
};
