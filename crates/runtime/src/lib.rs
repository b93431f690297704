//! The persistent worker pool the flat auction engine fans its slices out
//! to.
//!
//! [`WorkerPool`] spawns threads on demand and parks finished workers for
//! reuse, so one pool shared by every engine of a process — scenario
//! sweeps, `System` slot loops, benches — spawns zero new threads after the
//! first lease. It implements [`p2p_core::csr::WorkerSpawner`], the seam
//! [`p2p_core::csr::FlatAuction`] leases its slice workers through.
//!
//! # Examples
//!
//! ```
//! use p2p_runtime::WorkerPool;
//!
//! let pool = WorkerPool::new();
//! pool.execute(|| {}).join().unwrap();
//! pool.execute(|| {}).join().unwrap();
//! assert_eq!(pool.spawned(), 1, "the second job reuses the parked worker");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

pub use pool::WorkerPool;
