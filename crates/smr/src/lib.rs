//! State machine replication on top of `hlf-consensus`: the BFT-SMaRt
//! layer the ordering service runs on.
//!
//! * [`app`] — the deterministic [`app::Application`] trait with reply
//!   routing (including the *custom replier* broadcast the ordering
//!   service uses),
//! * [`core`] — the sans-io replica node ([`core::NodeCore`]): every
//!   protocol decision above consensus, behind one `step` entry point,
//! * [`node`] — the threaded driver of that core over a transport
//!   endpoint (in-process hub or TCP),
//! * [`client`] — synchronous/asynchronous service proxies with
//!   `f + 1` / quorum reply policies,
//! * [`storage`] — the durable decided-batch log and checkpoints,
//! * [`runtime`] — one-call cluster bootstrap,
//! * [`obs`] — node- and client-side metrics (`smr.node.*`,
//!   `smr.client.*`) over `hlf-obs`.
//!
//! # Examples
//!
//! A replicated counter served by four replicas:
//!
//! ```
//! use hlf_smr::app::CounterApp;
//! use hlf_smr::runtime::{ClusterRuntime, RuntimeOptions};
//!
//! let mut cluster = ClusterRuntime::start(
//!     4,
//!     RuntimeOptions::classic(1),
//!     |_| Box::new(CounterApp::new()),
//! );
//! let mut client = cluster.proxy();
//! let reply = client.invoke(&b"12345"[..]).unwrap(); // 5 bytes
//! assert_eq!(u64::from_le_bytes(reply[..8].try_into().unwrap()), 5);
//! cluster.shutdown();
//! ```

// Panic, `unsafe` and stdout discipline of this library target (DESIGN.md
// §7); an exception is an `#[expect(clippy::.., reason = "..")]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::undocumented_unsafe_blocks,
    clippy::print_stdout,
    clippy::allow_attributes_without_reason
)]

pub mod app;
pub mod client;
pub mod core;
pub mod node;
pub mod obs;
pub mod runtime;
pub mod storage;
pub mod wire;

pub use app::{Application, CounterApp, Dest, Outbound};
pub use obs::{NodeObs, ProxyObs};
pub use client::{InvokeError, ProxyConfig, Push, ServiceProxy};
pub use core::{Input, NodeCore, Output};
pub use node::{spawn_replica, NodeConfig, NodeHandle, NodeStats, PushHandle};
pub use runtime::{ClusterKeys, ClusterRuntime, RuntimeOptions};
pub use storage::{FileLog, LogStore, MemoryLog};
pub use wire::{LogEntry, SmrMsg};
