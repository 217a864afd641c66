//! Memory-controller substrate for the PCMap simulator.
//!
//! This crate is the reproduction's equivalent of "DRAMSim2 modified for
//! PCM": per-channel controllers with separate read/write queues, the
//! read-over-write priority with an α = 80 % write-drain policy, FR-FCFS
//! scheduling, a DDR3-style shared data bus with turnaround penalties, and
//! cell-accurate PCM array timing (asymmetric SET/RESET writes).
//!
//! The [`Controller`] trait is implemented here by [`BaselineController`]
//! (the paper's *Baseline* system, where a write reserves every chip of its
//! bank for the full write latency) and in `pcmap-core` by the PCMap
//! controller (fine-grained writes, RoW, WoW, rotation).
//!
//! # Example
//!
//! ```
//! use pcmap_ctrl::{BaselineController, Controller, MemRequest, ReqId, ReqKind};
//! use pcmap_types::{CoreId, Cycle, MemOrg, PhysAddr, QueueParams, TimingParams};
//!
//! let org = MemOrg::tiny();
//! let mut ctrl = BaselineController::new(
//!     org,
//!     TimingParams::paper_default(),
//!     QueueParams::paper_default(),
//!     0,
//! );
//! let addr = PhysAddr::new(0);
//! let req = MemRequest {
//!     id: ReqId(1),
//!     kind: ReqKind::Read,
//!     line: addr.line(),
//!     loc: org.decode(addr),
//!     core: CoreId(0),
//!     arrival: Cycle(0),
//! };
//! ctrl.enqueue_read(req, Cycle(0)).unwrap();
//! let completions = ctrl.step(Cycle(0));
//! assert_eq!(completions.len(), 1);
//! ```

#![warn(missing_docs)]
#![deny(unused_must_use)]

pub mod bus;
pub mod check;
pub mod controller;
pub mod irlp;
pub mod op;
pub mod queues;
pub mod request;
pub mod stats;

pub use bus::{BusDir, ChannelBus};
pub use check::{InvariantKind, ProtocolChecker, Violation};
pub use controller::{BaselineController, Controller, CtrlCore, PendingWatchdog, ReadResolution};
pub use irlp::{IrlpTracker, WindowId};
pub use queues::{DrainPolicy, DrainState, RequestQueue};
pub use request::{Completion, MemRequest, ReqId, ReqKind};
pub use stats::CtrlStats;
