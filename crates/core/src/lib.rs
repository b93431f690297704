//! The paper's primary contribution: a primal-dual auction for
//! socially-optimal, ISP-aware P2P chunk scheduling.
//!
//! # The problem
//!
//! In each time slot the system must decide `a^{(c)}_{u→d} ∈ {0,1}` — which
//! peer `d` downloads which chunk `c` from which neighbor `u` — to maximize
//! social welfare `Σ a·(v^{(c)}(d) − w_{u→d})` subject to upload capacities
//! `B(u)` and at most one source per request (problem (1) of the paper).
//! This crate models one slot's problem as a [`WelfareInstance`].
//!
//! # The algorithm
//!
//! The integer program is a transportation problem; following Bertsekas'
//! primal-dual auction framework, every provider `u` auctions its `B(u)`
//! bandwidth units at price `λ_u` (the dual variable of its capacity
//! constraint) and every request bids at the provider offering the largest
//! net utility `v − w − λ`, with bid `b = λ* + φ* − φ̂` (best-minus-second
//! margin). Several interchangeable executions of the same bidder/auctioneer
//! logic are provided:
//!
//! * [`engine::SyncAuction`] — deterministic synchronous rounds (fast path
//!   used by schedulers, tests and benchmarks);
//! * [`shard::ShardedAuction`] — the batched multi-shard schedule over the
//!   nested layout, run sequentially: the bit-identity oracle for
//!   [`csr::FlatAuction`] at two or more shards;
//! * [`csr::FlatAuction`] — the same sequential and sharded schedules over
//!   a flat CSR compilation of the instance ([`csr::CsrInstance`]) with
//!   reusable scratch: zero heap allocations in the hot loop after
//!   warm-up, bit-identical outcomes to the two engines above;
//! * [`dist::DistributedAuction`] — message-level asynchronous execution on
//!   the discrete-event simulator with per-link latencies (used to
//!   reproduce Fig. 2's within-slot price convergence);
//! * [`swarm::SwarmAuction`] — the transport-agnostic [`protocol`] state
//!   machines as logical actors on virtual time, behind a seeded
//!   fault-injecting [`swarm::NetworkModel`]: bit-identical to the
//!   synchronous sweep under the ideal model, certified within `n·ε`
//!   under drop/delay/reorder/duplicate faults, 10⁵-peer slots in seconds;
//! * the classic assignment-problem auction ([`bertsekas`]) together with
//!   the transportation → assignment expansion of the paper's Fig. 1.
//!
//! # Optimality verification
//!
//! Theorem 1 states the auction terminates at an optimal primal/dual pair.
//! [`verify`] checks dual feasibility and all three complementary slackness
//! conditions from the paper's appendix, and the exact transportation
//! optimum from [`p2p_netflow`] provides an independent ground truth.
//!
//! # Examples
//!
//! ```
//! use p2p_core::{WelfareInstance, engine::SyncAuction, AuctionConfig};
//! use p2p_types::{PeerId, RequestId, ChunkId, VideoId, Valuation, Cost};
//!
//! let mut b = WelfareInstance::builder();
//! let u0 = b.add_provider(PeerId::new(10), 1);
//! let u1 = b.add_provider(PeerId::new(11), 1);
//! let chunk = ChunkId::new(VideoId::new(0), 0);
//! let r0 = b.add_request(RequestId::new(PeerId::new(0), chunk));
//! b.add_edge(r0, u0, Valuation::new(5.0), Cost::new(1.0)).unwrap();
//! b.add_edge(r0, u1, Valuation::new(5.0), Cost::new(4.0)).unwrap();
//! let instance = b.build().unwrap();
//!
//! let outcome = SyncAuction::new(AuctionConfig::paper()).run(&instance).unwrap();
//! assert!(outcome.converged);
//! // The cheap provider wins the request.
//! assert_eq!(outcome.assignment.provider_of(&instance, r0), Some(u0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(feature = "portable-simd", feature(portable_simd))]

pub mod auctioneer;
pub mod bertsekas;
pub mod bidder;
pub mod codec;
pub mod csr;
pub mod diff;
pub mod dist;
pub mod engine;
pub mod instance;
pub mod messages;
pub mod protocol;
pub mod shard;
pub mod solution;
pub mod strategic;
pub mod swarm;
pub mod verify;

mod ordf64;

pub use bidder::{BidDecision, EdgeView};
pub use codec::{decode_msg, encode_msg, MAX_FRAME_LEN, WIRE_VERSION};
pub use csr::{BidKernel, CsrBuilder, CsrInstance, FlatAuction, FlatOutcome, WorkerSpawner};
pub use diff::{InstanceDiff, InstancePatch};
pub use engine::{AuctionConfig, AuctionOutcome, EpsilonScaling, SyncAuction};
pub use instance::{EdgeSpec, InstanceBuilder, ProviderSpec, RequestSpec, WelfareInstance};
pub use p2p_metrics::{AuctionProbe, CountingProbe, EngineReport, NoProbe};
pub use p2p_sim::derive_seed;
pub use protocol::{AuctioneerNode, BidReply, BidderNode, BidderPhase, LearnPolicy};
pub use shard::{available_cores, ShardCount, ShardedAuction};
pub use solution::{Assignment, DualSolution};
pub use swarm::{FaultStats, NetworkModel, SwarmAuction, SwarmConfig, SwarmOutcome};
pub use verify::{verify_optimality, OptimalityReport};

pub(crate) use ordf64::OrdF64;
