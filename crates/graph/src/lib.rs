#![warn(missing_docs)]

//! Delegation graph and credential-chain search for dRBAC.
//!
//! The paper's wallets "rely upon graph-based data structures that allow
//! efficient enumeration of delegation chains between any specified
//! subject and object" (§4.1). This crate provides that structure:
//!
//! * [`ShardedGraph`] — the one indexed store of signed delegations,
//!   provided support proofs, attribute declarations, and revocations,
//!   sharded by subject-entity fingerprint behind per-shard locks so
//!   concurrent readers and writers don't serialize on one lock;
//! * the three query forms of §4.1 — [`ShardedGraph::direct_query`]
//!   (`S ⇒ O?`), [`ShardedGraph::subject_query`] (`S ⇒ *`), and
//!   [`ShardedGraph::object_query`] (`* ⇒ O`) — all constraint-aware
//!   and available against any [`GraphView`] (see [`direct_query_on`]);
//! * monotonicity-based pruning of constrained searches (§4.2.3), with
//!   [`SearchStats`] so experiments can measure its effect;
//! * dense node interning ([`NodeInterner`]) so the search hot path
//!   compares and hashes `u32` ids instead of cloning [`drbac_core::Node`]s;
//! * optional parallel frontier expansion
//!   ([`SearchOptions::with_workers`]) with results identical to the
//!   sequential search.
//!
//! See [`ShardedGraph`] for a worked example.

mod intern;
#[doc(hidden)]
pub mod reference;
mod search;
mod sharded;
mod view;

pub use intern::{FastIdHasher, FastMap, FastSet, NodeId, NodeInterner};
pub use search::{
    direct_query_on, object_query_on, subject_query_on, SearchOptions, SearchStats,
};
pub use sharded::{GraphMetrics, ShardedGraph};
pub use view::{GraphView, InternedEdge};
