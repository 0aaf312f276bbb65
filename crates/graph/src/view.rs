//! Read abstraction over delegation storage.
//!
//! The chain-search engine ([`crate::SearchOptions`], `search.rs`) is
//! generic over this trait: the store, [`crate::ShardedGraph`],
//! implements it, and tests wrap the store in fault-injecting views.
//! All methods return owned data: a view implementation may hold internal
//! locks only for the duration of one call, never across search steps, so
//! a search in progress can overlap with writers.
//!
//! The hot-path accessors are the *interned* ones
//! ([`GraphView::edges_from_ids`] / [`GraphView::edges_to_ids`]): they
//! key adjacency by dense [`NodeId`]s from the graph-owned
//! [`NodeInterner`] and hand back each edge's far endpoint pre-interned,
//! so the search never hashes or clones a [`Node`] per edge. The
//! `Node`-keyed forms remain for entry points and diagnostics.

use std::sync::Arc;

use drbac_core::{DeclarationSet, DelegationId, EntityId, Node, Proof, SignedDelegation, Timestamp};

use crate::intern::{NodeId, NodeInterner};

/// One adjacency entry: a credential plus the interned id of its far
/// endpoint (the object for subject-indexed edges, the subject for
/// object-indexed ones).
#[derive(Debug, Clone)]
pub struct InternedEdge {
    /// The delegation credential.
    pub cert: Arc<SignedDelegation>,
    /// Interned id of the edge's far endpoint.
    pub far: NodeId,
}

/// Read-only delegation storage as seen by the search engine.
///
/// `Sync` is required so parallel frontier expansion can share the view
/// across worker threads.
pub trait GraphView: Sync {
    /// The graph-owned intern table mapping [`Node`]s to dense ids.
    fn interner(&self) -> &NodeInterner;

    /// Usable (unrevoked, unexpired at `now`) delegations whose subject
    /// is the interned `node`, in delegation-id order, each with its object
    /// endpoint pre-interned.
    fn edges_from_ids(&self, node: NodeId, now: Timestamp) -> Vec<InternedEdge>;

    /// Usable delegations whose object is the interned `node`, in
    /// delegation-id order, each with its subject endpoint pre-interned.
    fn edges_to_ids(&self, node: NodeId, now: Timestamp) -> Vec<InternedEdge>;

    /// Usable delegations whose subject is `node`, in delegation-id order.
    fn edges_from(&self, node: &Node, now: Timestamp) -> Vec<Arc<SignedDelegation>> {
        match self.interner().get(node) {
            Some(id) => self
                .edges_from_ids(id, now)
                .into_iter()
                .map(|e| e.cert)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Usable delegations whose object is `node`, in delegation-id order.
    fn edges_to(&self, node: &Node, now: Timestamp) -> Vec<Arc<SignedDelegation>> {
        match self.interner().get(node) {
            Some(id) => self
                .edges_to_ids(id, now)
                .into_iter()
                .map(|e| e.cert)
                .collect(),
            None => Vec::new(),
        }
    }

    /// The support proof provided at publication for `(issuer, right)`,
    /// if any.
    fn support_for(&self, issuer: EntityId, right: &Node) -> Option<Proof>;

    /// `true` if `id` carries a revocation mark.
    fn id_revoked(&self, id: DelegationId) -> bool;

    /// Owned snapshot of the attribute declarations (base values). Taken
    /// once per search, so constraint evaluation inside one search is
    /// self-consistent even while declarations are concurrently updated.
    fn declaration_set(&self) -> DeclarationSet;
}
