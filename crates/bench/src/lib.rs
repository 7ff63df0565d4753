//! # dss-bench — experiment harness for the paper's evaluation (§VII)
//!
//! One measurement path: [`measure`] runs one `(sorter, workload, p)`
//! cell on the simulated machine, with the sort fenced by barriers, and
//! returns a [`Measurement`]:
//!
//! * the sort phases' [`NetStats`](dss_net::NetStats) — **bytes sent per
//!   string** (exact, substrate-independent; the lower panels of Figs. 4
//!   and 5), **modeled time** under the α–β cost model (max per-PE
//!   compute + α·rounds + β·bottleneck bytes per phase; the shape of the
//!   upper panels), the compute/communication split, per-phase rows and
//!   stall time;
//! * the max-PE **wall time** of the sort region (it oversubscribes host
//!   cores and is *not* the reproduction target);
//! * allocator traffic and `bytes_copied` of the sort region (the library
//!   installs a counting global allocator, see [`counters`]);
//! * the send-window overlap ratio when tracing is on;
//! * the verdict of the full distributed correctness check.
//!
//! The `fig4`, `fig5` and `further` binaries sweep the same grids as the
//! paper's figures and write both a human table and CSV files under
//! `results/`; `perfsnap` runs the tracked hot-path matrix (see
//! [`perfsnap`]) and appends it to `BENCH_perfsnap.json`.

pub mod cli;
pub mod counters;
pub mod harness;
pub mod perfsnap;
pub mod table;

pub use harness::{measure, MeasureOpts, Measurement};
pub use table::{print_table, write_csv};
