//! A live, threaded PRESS server over the software VIA fabric.
//!
//! While `press-core` reproduces the paper's *measurements* in a
//! calibrated simulation, this crate runs the server's *architecture* for
//! real (Figure 2 of the paper): every node has
//!
//! * a **main thread** that parses requests, runs the locality-conscious
//!   distribution policy (shared with the simulator via `press-core`),
//!   manages the LRU file cache and tracks forwarded requests;
//! * a **send thread** that marshals intra-cluster messages into
//!   registered buffers and posts VIA send descriptors, respecting the
//!   credit window;
//! * a **receive thread** blocked on a VIA completion queue that decodes
//!   arrivals, reposts descriptors, returns credits, and hands message
//!   digests to the main thread;
//! * a **disk thread** that simulates disk reads (the main thread never
//!   blocks, as in the paper).
//!
//! Load information travels exclusively through **remote memory writes**
//! into per-node load tables — the mechanism the paper found ideal for
//! overwritable data that needs no immediate attention. Forwards, file
//! transfers and caching broadcasts are credit-controlled regular
//! messages.
//!
//! See [`LiveCluster`] for a complete example.

// Any future unsafe fn must scope its unsafe operations explicitly.
#![deny(unsafe_op_in_unsafe_fn)]
mod chaos;
mod cluster;
mod membership;
mod node;
mod stats;
mod wire;

pub use chaos::{run_suite_live, LiveChaosConfig};
pub use cluster::{LiveCluster, LiveConfig, LiveConfigError, LiveError};
pub use membership::Membership;
pub use node::FileTransferMode;
pub use press_core::FaultPlan;
pub use stats::ServerStats;
pub use wire::{file_contents, WireKind, WireMsg};
