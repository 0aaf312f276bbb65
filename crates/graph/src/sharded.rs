//! The delegation store, sharded behind per-shard reader–writer locks.
//!
//! [`ShardedGraph`] is the wallet's one graph of signed delegations
//! (paper §4.1, Figure 1). It splits that graph across independent lock
//! domains so concurrent provers don't serialize on a single graph lock:
//!
//! * **edge shards** — `by_subject` / `by_object` adjacency and provided
//!   support proofs, sharded by the *namespace entity* of the keying node
//!   (`Node::namespace()`, i.e. the subject-entity fingerprint). A
//!   delegation lives in the shard of its subject's namespace (subject
//!   index) and the shard of its object's namespace (object index).
//! * **id shards** — the `by_id` index and revocation marks, sharded by
//!   the leading byte of the delegation id.
//! * **declarations** — one small lock of their own.
//!
//! All mutators take `&self`; interior locks are held only for the
//! duration of one method call and are never nested with each other or
//! with anything else (in particular, callers must never journal while a
//! shard lock is held — same rule as drbac-store). A multi-index update
//! (insert, remove) therefore isn't atomic across shards; readers may
//! transiently see a delegation in one direction index before the other.
//! Search tolerates that: each direction is consulted independently, and
//! revocation marks — the safety-critical signal — live in a single id
//! shard per id, so a revoke is observed atomically.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use parking_lot::RwLock;

use drbac_core::{
    AttrDeclaration, DeclarationSet, DelegationId, EntityId, Node, Proof, SignedDelegation,
    Timestamp,
};

use crate::intern::{namespace_hash, FastMap, NodeId, NodeInterner};
use crate::search::{direct_query_on, object_query_on, subject_query_on};
use crate::view::{GraphView, InternedEdge};
use crate::{SearchOptions, SearchStats};

/// Default number of edge/id shards.
const DEFAULT_SHARDS: usize = 16;

#[derive(Debug, Default)]
struct EdgeShard {
    /// Adjacency keyed by interned subject id; each entry carries the
    /// object endpoint pre-interned so searches never hash a `Node`.
    by_subject: FastMap<NodeId, Vec<InternedEdge>>,
    /// Adjacency keyed by interned object id; `far` is the subject.
    by_object: FastMap<NodeId, Vec<InternedEdge>>,
    supports: HashMap<(EntityId, Node), Proof>,
}

/// Inserts `edge` into an adjacency list at its id-ordered position.
/// Lists stay sorted by delegation id so iteration order — and thus every
/// proof-search tie-break among parallel edges — is independent of the
/// order delegations arrived in. Ids are unique per list (duplicates are
/// rejected by the `by_id` check before edges are touched).
fn insert_edge_ordered(list: &mut Vec<InternedEdge>, edge: InternedEdge) {
    let id = edge.cert.id();
    let pos = list.partition_point(|e| e.cert.id() < id);
    list.insert(pos, edge);
}

#[derive(Debug, Default)]
struct IdShard {
    by_id: HashMap<DelegationId, Arc<SignedDelegation>>,
    revoked: BTreeSet<DelegationId>,
}

/// An in-memory graph of delegations, indexed by subject, object, and id,
/// behind per-shard `RwLock`s (see the module docs for the shard layout
/// and lock rules).
///
/// This is the data structure at the heart of a wallet (paper Figure 1):
/// nodes are entities/roles/rights, edges are delegations. Alongside the
/// edges it stores the *support proofs* that issuers of third-party
/// delegations are required to provide at publication, the attribute
/// declarations for base values, and the set of revoked delegation ids.
/// Every mutator takes `&self`, so the same store serves one thread or
/// many.
///
/// # Example
///
/// ```
/// use drbac_core::{LocalEntity, Node, Timestamp};
/// use drbac_crypto::SchnorrGroup;
/// use drbac_graph::{SearchOptions, ShardedGraph};
/// # use rand::SeedableRng;
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(21);
/// # let g = SchnorrGroup::test_256();
/// let a = LocalEntity::generate("A", g.clone(), &mut rng);
/// let m = LocalEntity::generate("M", g, &mut rng);
///
/// let graph = ShardedGraph::new();
/// graph.insert(a.delegate(Node::entity(&m), Node::role(a.role("r"))).sign(&a)?);
///
/// let (proof, _stats) = graph.direct_query(
///     &Node::entity(&m),
///     &Node::role(a.role("r")),
///     &SearchOptions::at(Timestamp(0)),
/// );
/// assert!(proof.is_some());
/// # Ok::<(), drbac_core::ValidationError>(())
/// ```
#[derive(Debug)]
pub struct ShardedGraph {
    edge_shards: Box<[RwLock<EdgeShard>]>,
    id_shards: Box<[RwLock<IdShard>]>,
    declarations: RwLock<DeclarationSet>,
    /// Node ⇄ dense-id table. Append-only, so ids held by an in-flight
    /// search stay valid across concurrent writes; the cached namespace
    /// hash makes shard routing a table lookup.
    interner: NodeInterner,
}

impl Default for ShardedGraph {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }
}

impl ShardedGraph {
    /// An empty graph with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty graph with `shards` lock domains (clamped to at least 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1);
        ShardedGraph {
            edge_shards: (0..n).map(|_| RwLock::new(EdgeShard::default())).collect(),
            id_shards: (0..n).map(|_| RwLock::new(IdShard::default())).collect(),
            declarations: RwLock::new(DeclarationSet::default()),
            interner: NodeInterner::new(),
        }
    }

    /// Number of shard lock domains.
    pub fn shard_count(&self) -> usize {
        self.edge_shards.len()
    }

    /// Shard routing by interned id: the namespace hash was computed once
    /// at intern time, so this is a table lookup, not a fingerprint hash.
    fn edge_shard_of_id(&self, id: NodeId) -> &RwLock<EdgeShard> {
        let idx = (self.interner.ns_hash(id) as usize) % self.edge_shards.len();
        &self.edge_shards[idx]
    }

    fn edge_shard_of_entity(&self, entity: EntityId) -> &RwLock<EdgeShard> {
        let idx = (namespace_hash(entity) as usize) % self.edge_shards.len();
        &self.edge_shards[idx]
    }

    fn id_shard_of(&self, id: DelegationId) -> &RwLock<IdShard> {
        &self.id_shards[id.0[0] as usize % self.id_shards.len()]
    }

    /// Read-locks an edge shard, counting contention: if the lock can't be
    /// taken immediately (a writer holds it) the
    /// `drbac.graph.shard.contention.count` counter is bumped before
    /// blocking.
    fn read_edges<'a>(
        &'a self,
        shard: &'a RwLock<EdgeShard>,
    ) -> parking_lot::RwLockReadGuard<'a, EdgeShard> {
        match shard.try_read() {
            Some(guard) => guard,
            None => {
                drbac_obs::static_counter!("drbac.graph.shard.contention.count").inc();
                shard.read()
            }
        }
    }

    /// Inserts a delegation. Returns its id; idempotent for identical
    /// delegations.
    ///
    /// Adjacency lists are kept ordered by delegation id, so the graph —
    /// and therefore every search answer, including which of several
    /// parallel edges a proof happens to use — is a pure function of the
    /// delegation *set*, not of insertion order. Journal replay and
    /// index-driven hydration insert in different orders and must still
    /// produce byte-identical proofs.
    pub fn insert(&self, cert: impl Into<Arc<SignedDelegation>>) -> DelegationId {
        let cert: Arc<SignedDelegation> = cert.into();
        let id = cert.id();
        {
            let mut ids = self.id_shard_of(id).write();
            if ids.by_id.contains_key(&id) {
                return id;
            }
            ids.by_id.insert(id, Arc::clone(&cert));
        }
        let subject = self.interner.intern(cert.delegation().subject());
        let object = self.interner.intern(cert.delegation().object());
        insert_edge_ordered(
            self.edge_shard_of_id(subject)
                .write()
                .by_subject
                .entry(subject)
                .or_default(),
            InternedEdge {
                cert: Arc::clone(&cert),
                far: object,
            },
        );
        insert_edge_ordered(
            self.edge_shard_of_id(object)
                .write()
                .by_object
                .entry(object)
                .or_default(),
            InternedEdge { cert, far: subject },
        );
        id
    }

    /// Inserts a third-party delegation together with the support proofs
    /// its issuer must provide.
    pub fn insert_with_supports(
        &self,
        cert: impl Into<Arc<SignedDelegation>>,
        supports: Vec<Proof>,
    ) -> DelegationId {
        let id = self.insert(cert);
        for support in supports {
            self.provide_support(support);
        }
        id
    }

    /// Registers a standalone support proof, keyed by what it proves.
    /// Later insertions with the same key replace earlier ones.
    pub fn provide_support(&self, support: Proof) {
        if let Node::Entity(issuer) = support.subject() {
            let issuer = *issuer;
            let key = (issuer, support.object().clone());
            self.edge_shard_of_entity(issuer)
                .write()
                .supports
                .insert(key, support);
        }
    }

    /// Looks up a provided support proof for `(issuer, right)`.
    pub fn provided_support(&self, issuer: EntityId, right: &Node) -> Option<Proof> {
        let shard = self.edge_shard_of_entity(issuer);
        let guard = self.read_edges(shard);
        guard.supports.get(&(issuer, right.clone())).cloned()
    }

    /// Every provided support proof (for persistence).
    pub fn all_supports(&self) -> Vec<Proof> {
        let mut out = Vec::new();
        for shard in self.edge_shards.iter() {
            out.extend(shard.read().supports.values().cloned());
        }
        out
    }

    /// Records a verified attribute declaration.
    pub fn insert_declaration(&self, decl: &AttrDeclaration) {
        self.declarations.write().insert(decl);
    }

    /// Owned snapshot of the declaration set.
    pub fn declarations(&self) -> DeclarationSet {
        self.declarations.read().clone()
    }

    /// Marks a delegation revoked. Revoked edges are skipped by searches.
    /// Returns `true` if the id was known.
    pub fn revoke(&self, id: DelegationId) -> bool {
        let mut ids = self.id_shard_of(id).write();
        ids.revoked.insert(id);
        ids.by_id.contains_key(&id)
    }

    /// `true` if `id` has been revoked.
    pub fn is_revoked(&self, id: DelegationId) -> bool {
        self.id_shard_of(id).read().revoked.contains(&id)
    }

    /// The full revocation set (union over shards).
    pub fn revoked_ids(&self) -> BTreeSet<DelegationId> {
        let mut out = BTreeSet::new();
        for shard in self.id_shards.iter() {
            out.extend(shard.read().revoked.iter().copied());
        }
        out
    }

    /// Removes a delegation entirely (e.g. an expired cache entry).
    /// Returns the removed credential, if present.
    pub fn remove(&self, id: DelegationId) -> Option<Arc<SignedDelegation>> {
        let cert = self.id_shard_of(id).write().by_id.remove(&id)?;
        let subject = self.interner.intern(cert.delegation().subject());
        let object = self.interner.intern(cert.delegation().object());
        {
            let mut shard = self.edge_shard_of_id(subject).write();
            if let Some(v) = shard.by_subject.get_mut(&subject) {
                v.retain(|e| e.cert.id() != id);
            }
        }
        {
            let mut shard = self.edge_shard_of_id(object).write();
            if let Some(v) = shard.by_object.get_mut(&object) {
                v.retain(|e| e.cert.id() != id);
            }
        }
        Some(cert)
    }

    /// Fetches a delegation by id.
    pub fn get(&self, id: DelegationId) -> Option<Arc<SignedDelegation>> {
        self.id_shard_of(id).read().by_id.get(&id).cloned()
    }

    /// `true` if the graph holds `id`.
    pub fn contains(&self, id: DelegationId) -> bool {
        self.id_shard_of(id).read().by_id.contains_key(&id)
    }

    /// Number of stored delegations.
    pub fn len(&self) -> usize {
        self.id_shards.iter().map(|s| s.read().by_id.len()).sum()
    }

    /// `true` if the graph holds no delegations.
    pub fn is_empty(&self) -> bool {
        self.id_shards.iter().all(|s| s.read().by_id.is_empty())
    }

    /// Every stored delegation (owned; order unspecified).
    pub fn iter_certs(&self) -> Vec<Arc<SignedDelegation>> {
        let mut out = Vec::new();
        for shard in self.id_shards.iter() {
            out.extend(shard.read().by_id.values().cloned());
        }
        out
    }

    /// Streams every stored delegation through `f`, one shard at a time
    /// (order unspecified), without materializing the whole set. Used by
    /// index rebuilds and snapshot-adjacent sweeps over large wallets.
    /// The shard lock is held across each callback; don't re-enter the
    /// graph from `f`.
    pub fn for_each_cert(&self, f: &mut dyn FnMut(&Arc<SignedDelegation>)) {
        for shard in self.id_shards.iter() {
            for cert in shard.read().by_id.values() {
                f(cert);
            }
        }
    }

    /// Drops expired delegations given the current time; returns how many
    /// were removed.
    pub fn purge_expired(&self, now: Timestamp) -> usize {
        let expired: Vec<DelegationId> = self
            .iter_certs()
            .into_iter()
            .filter(|c| c.delegation().is_expired(now))
            .map(|c| c.id())
            .collect();
        let mut n = 0;
        for id in expired {
            if self.remove(id).is_some() {
                n += 1;
            }
        }
        n
    }

    /// Drops every delegation, support, declaration, and revocation mark.
    pub fn clear(&self) {
        for shard in self.edge_shards.iter() {
            *shard.write() = EdgeShard::default();
        }
        for shard in self.id_shards.iter() {
            *shard.write() = IdShard::default();
        }
        *self.declarations.write() = DeclarationSet::default();
    }

    /// Structural metrics over the stored graph (diagnostics and
    /// experiment reporting), gathered in one pass over the shards.
    pub fn metrics(&self) -> GraphMetrics {
        fn note(node: &Node, entities: &mut BTreeSet<EntityId>, roles: &mut BTreeSet<Node>) {
            match node {
                Node::Entity(e) => {
                    entities.insert(*e);
                }
                other => {
                    roles.insert(other.clone());
                    entities.insert(other.namespace());
                }
            }
        }
        let mut m = GraphMetrics {
            declarations: self.declarations.read().len(),
            ..GraphMetrics::default()
        };
        let (mut entities, mut roles, mut issuers) =
            (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
        for shard in self.id_shards.iter() {
            let guard = shard.read();
            m.delegations += guard.by_id.len();
            m.revoked += guard.revoked.len();
            for cert in guard.by_id.values() {
                let d = cert.delegation();
                note(d.subject(), &mut entities, &mut roles);
                note(d.object(), &mut entities, &mut roles);
                issuers.insert(d.issuer());
                entities.insert(d.issuer());
                m.third_party += usize::from(d.kind() == drbac_core::DelegationKind::ThirdParty);
                m.with_attributes += usize::from(!d.clauses().is_empty());
            }
        }
        for shard in self.edge_shards.iter() {
            let guard = shard.read();
            m.provided_supports += guard.supports.len();
            let widest = guard.by_subject.values().map(Vec::len).max().unwrap_or(0);
            m.max_out_degree = m.max_out_degree.max(widest);
        }
        m.entities = entities.len();
        m.roles = roles.len();
        m.issuers = issuers.len();
        m
    }

    /// Direct query (§4.1): does a proof `subject ⇒ object` exist that
    /// satisfies the constraints? Returns the first one found
    /// (breadth-first, so minimal chain length) and the search work done.
    pub fn direct_query(
        &self,
        subject: &Node,
        object: &Node,
        opts: &SearchOptions,
    ) -> (Option<Proof>, SearchStats) {
        direct_query_on(self, subject, object, opts)
    }

    /// Subject query (§4.1): enumerate proofs `subject ⇒ *` that do not
    /// violate the constraints, one per reachable node.
    pub fn subject_query(&self, subject: &Node, opts: &SearchOptions) -> (Vec<Proof>, SearchStats) {
        subject_query_on(self, subject, opts)
    }

    /// Object query (§4.1): enumerate proofs `* ⇒ object` that do not
    /// violate the constraints, one per reaching node.
    pub fn object_query(&self, object: &Node, opts: &SearchOptions) -> (Vec<Proof>, SearchStats) {
        object_query_on(self, object, opts)
    }
}

impl GraphView for ShardedGraph {
    fn interner(&self) -> &NodeInterner {
        &self.interner
    }

    fn edges_from_ids(&self, node: NodeId, now: Timestamp) -> Vec<InternedEdge> {
        let mut edges: Vec<InternedEdge> = {
            let shard = self.edge_shard_of_id(node);
            let guard = self.read_edges(shard);
            guard.by_subject.get(&node).cloned().unwrap_or_default()
        };
        edges.retain(|e| !e.cert.delegation().is_expired(now) && !self.is_revoked(e.cert.id()));
        edges
    }

    fn edges_to_ids(&self, node: NodeId, now: Timestamp) -> Vec<InternedEdge> {
        let mut edges: Vec<InternedEdge> = {
            let shard = self.edge_shard_of_id(node);
            let guard = self.read_edges(shard);
            guard.by_object.get(&node).cloned().unwrap_or_default()
        };
        edges.retain(|e| !e.cert.delegation().is_expired(now) && !self.is_revoked(e.cert.id()));
        edges
    }

    fn support_for(&self, issuer: EntityId, right: &Node) -> Option<Proof> {
        self.provided_support(issuer, right)
    }

    fn id_revoked(&self, id: DelegationId) -> bool {
        self.is_revoked(id)
    }

    fn declaration_set(&self) -> DeclarationSet {
        self.declarations.read().clone()
    }
}

/// Structural summary of a delegation graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphMetrics {
    /// Stored delegations (including revoked ones still marked).
    pub delegations: usize,
    /// Revocation marks.
    pub revoked: usize,
    /// Distinct entities appearing anywhere.
    pub entities: usize,
    /// Distinct role-like nodes.
    pub roles: usize,
    /// Distinct issuing entities.
    pub issuers: usize,
    /// Third-party delegations.
    pub third_party: usize,
    /// Delegations carrying attribute clauses.
    pub with_attributes: usize,
    /// Largest out-degree of any node.
    pub max_out_degree: usize,
    /// Provided support proofs on file.
    pub provided_supports: usize,
    /// Attribute declarations on file.
    pub declarations: usize,
}

impl std::fmt::Display for GraphMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} delegations ({} third-party, {} with attributes, {} revoked), \
             {} roles across {} entities, max out-degree {}, {} supports, {} declarations",
            self.delegations,
            self.third_party,
            self.with_attributes,
            self.revoked,
            self.roles,
            self.entities,
            self.max_out_degree,
            self.provided_supports,
            self.declarations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drbac_core::{LocalEntity, ProofStep};
    use drbac_crypto::SchnorrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn local(name: &str, seed: u64) -> LocalEntity {
        LocalEntity::generate(
            name,
            SchnorrGroup::test_256(),
            &mut StdRng::seed_from_u64(seed),
        )
    }

    fn opts() -> SearchOptions {
        SearchOptions::at(Timestamp(0))
    }

    #[test]
    fn insert_query_revoke_roundtrip() {
        let a = local("A", 1);
        let m = local("M", 2);
        let g = ShardedGraph::new();
        let r1 = a.role("r1");
        let r2 = a.role("r2");
        let id = g.insert(
            a.delegate(Node::entity(&m), Node::role(r1.clone()))
                .sign(&a)
                .unwrap(),
        );
        g.insert(
            a.delegate(Node::role(r1), Node::role(r2.clone()))
                .sign(&a)
                .unwrap(),
        );
        assert_eq!(g.len(), 2);
        assert!(g.contains(id));
        let (proof, _) = g.direct_query(&Node::entity(&m), &Node::role(r2.clone()), &opts());
        assert_eq!(proof.expect("chain").chain_len(), 2);

        assert!(g.revoke(id));
        assert!(g.is_revoked(id));
        let (proof, _) = g.direct_query(&Node::entity(&m), &Node::role(r2), &opts());
        assert!(proof.is_none(), "revoked first hop breaks the chain");
        assert_eq!(g.revoked_ids().len(), 1);
    }

    #[test]
    fn queries_match_unsharded_graph_across_shard_counts() {
        let a = local("A", 1);
        let b = local("B", 7);
        let m = local("M", 2);
        let plain = ShardedGraph::with_shards(1);
        let mut certs = Vec::new();
        // A few ladders, a third-party edge with support, one revocation.
        let mut prev = Node::entity(&m);
        for d in 0..4 {
            let r = Node::role(a.role(&format!("d{d}")));
            certs.push(a.delegate(prev.clone(), r.clone()).sign(&a).unwrap());
            prev = r;
        }
        certs.push(
            a.delegate(Node::entity(&b), Node::role_admin(a.role("member")))
                .sign(&a)
                .unwrap(),
        );
        certs.push(
            b.delegate(Node::role(a.role("d3")), Node::role(a.role("member")))
                .sign(&b)
                .unwrap(),
        );
        for c in &certs {
            plain.insert(c.clone());
        }
        let revoked_id = certs[1].id();
        plain.revoke(revoked_id);

        for shards in [3usize, 16] {
            let g = ShardedGraph::with_shards(shards);
            for c in &certs {
                g.insert(c.clone());
            }
            g.revoke(revoked_id);
            for target in ["d0", "d1", "d2", "d3", "member"] {
                let t = Node::role(a.role(target));
                let (want, _) = plain.direct_query(&Node::entity(&m), &t, &opts());
                let (got, _) = g.direct_query(&Node::entity(&m), &t, &opts());
                assert_eq!(want, got, "target {target}, shards {shards}");
            }
            let (want_s, _) = plain.subject_query(&Node::entity(&m), &opts());
            let (got_s, _) = g.subject_query(&Node::entity(&m), &opts());
            assert_eq!(want_s, got_s, "subject query, shards {shards}");
            let t = Node::role(a.role("member"));
            let (want_o, _) = plain.object_query(&t, &opts());
            let (got_o, _) = g.object_query(&t, &opts());
            assert_eq!(want_o, got_o, "object query, shards {shards}");
        }
    }

    #[test]
    fn revoked_and_expired_edges_are_skipped() {
        let a = local("A", 1);
        let m = local("M", 2);
        let g = ShardedGraph::new();
        let id1 = g.insert(
            a.delegate(Node::entity(&m), Node::role(a.role("r1")))
                .sign(&a)
                .unwrap(),
        );
        g.insert(
            a.delegate(Node::entity(&m), Node::role(a.role("r2")))
                .expires(Timestamp(5))
                .sign(&a)
                .unwrap(),
        );
        assert_eq!(g.edges_from(&Node::entity(&m), Timestamp(0)).len(), 2);
        assert_eq!(g.edges_from(&Node::entity(&m), Timestamp(6)).len(), 1);
        g.revoke(id1);
        assert!(g.is_revoked(id1));
        assert!(g.edges_from(&Node::entity(&m), Timestamp(6)).is_empty());
    }

    #[test]
    fn supports_are_keyed_by_issuer_and_right() {
        let a = local("A", 1);
        let b = local("B", 2);
        let member = a.role("member");
        let grant = a
            .delegate(Node::entity(&b), Node::role_admin(member.clone()))
            .sign(&a)
            .unwrap();
        let support = Proof::from_steps(vec![ProofStep::new(grant)]).unwrap();
        let g = ShardedGraph::new();
        g.provide_support(support.clone());
        assert_eq!(
            g.provided_support(b.id(), &Node::role_admin(member.clone())),
            Some(support)
        );
        assert_eq!(g.provided_support(a.id(), &Node::role_admin(member)), None);
        assert_eq!(g.all_supports().len(), 1);
    }

    #[test]
    fn metrics_count_structure() {
        let a = local("A", 1);
        let b = local("B", 2);
        let m = local("M", 3);
        let g = ShardedGraph::new();
        assert_eq!(g.metrics(), GraphMetrics::default());

        let bw = a.attr("bw", drbac_core::AttrOp::Min);
        g.insert_declaration(&drbac_core::AttrDeclaration::new(bw.clone(), 10.0).unwrap());
        // Self-certified with attribute.
        let c1 = a
            .delegate(Node::entity(&m), Node::role(a.role("r1")))
            .with_attr(bw, 5.0)
            .unwrap()
            .sign(&a)
            .unwrap();
        // Third-party.
        let c2 = b
            .delegate(Node::role(a.role("r1")), Node::role(a.role("r2")))
            .sign(&b)
            .unwrap();
        let id1 = g.insert(c1);
        g.insert(c2);
        g.revoke(id1);

        let metrics = g.metrics();
        assert_eq!(metrics.delegations, 2);
        assert_eq!(metrics.revoked, 1);
        assert_eq!(metrics.third_party, 1);
        assert_eq!(metrics.with_attributes, 1);
        assert_eq!(metrics.roles, 2);
        assert_eq!(metrics.issuers, 2);
        assert_eq!(metrics.entities, 3, "A, B, M");
        assert_eq!(metrics.max_out_degree, 1);
        assert_eq!(metrics.declarations, 1);
        assert!(metrics.to_string().contains("2 delegations"));
    }

    #[test]
    fn remove_and_purge_unindex_across_shards() {
        let a = local("A", 1);
        let m = local("M", 2);
        let g = ShardedGraph::with_shards(4);
        let keep = g.insert(
            a.delegate(Node::entity(&m), Node::role(a.role("keep")))
                .sign(&a)
                .unwrap(),
        );
        g.insert(
            a.delegate(Node::entity(&m), Node::role(a.role("drop")))
                .expires(Timestamp(3))
                .sign(&a)
                .unwrap(),
        );
        assert_eq!(g.purge_expired(Timestamp(10)), 1);
        assert_eq!(g.len(), 1);
        assert!(g.remove(keep).is_some());
        assert!(g.remove(keep).is_none());
        assert!(g.is_empty());
        assert!(g.edges_from(&Node::entity(&m), Timestamp(0)).is_empty());
        g.clear();
        assert!(g.is_empty());
    }

    #[test]
    fn concurrent_readers_and_writers_smoke() {
        let a = local("A", 1);
        let users: Vec<LocalEntity> = (0..4).map(|i| local(&format!("U{i}"), 100 + i)).collect();
        let g = Arc::new(ShardedGraph::new());
        let role = a.role("r");
        let mut certs = Vec::new();
        for (i, u) in users.iter().enumerate() {
            certs.push(
                a.delegate(Node::entity(u), Node::role(role.clone()))
                    .serial(i as u64)
                    .sign(&a)
                    .unwrap(),
            );
        }
        std::thread::scope(|s| {
            for chunk in certs.chunks(2) {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    for c in chunk {
                        g.insert(c.clone());
                    }
                });
            }
            for u in &users {
                let g = Arc::clone(&g);
                let subject = Node::entity(u);
                let target = Node::role(role.clone());
                s.spawn(move || {
                    for _ in 0..20 {
                        let _ = g.direct_query(&subject, &target, &opts());
                    }
                });
            }
        });
        assert_eq!(g.len(), users.len());
        for u in &users {
            let (proof, _) = g.direct_query(&Node::entity(u), &Node::role(role.clone()), &opts());
            assert!(proof.is_some(), "every published grant resolvable");
        }
    }
}
