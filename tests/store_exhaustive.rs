//! Bounded-exhaustive check of the delegation store: every subset of a
//! fixed menu of signed certificates, inserted in forward and reverse
//! order, with no revocation and then each member revoked in turn. For
//! every (subject, object) pair the live engine's direct, subject and
//! object answers must equal the reference engine's
//! (`drbac::graph::reference`) byte for byte, and the answers must not
//! depend on insertion order, on when the revocation mark arrived, or on
//! the store's shard count.
//!
//! The menu covers the paper's §3 credential forms: user→role and
//! role→role chains, a `<=` attribute edge under a declaration, a
//! `<depth: 0>` edge, a third-party edge published with its support
//! proof, and the assignment (`R'`) edge that support proof rests on.

use std::sync::Arc;

use drbac::core::{
    AttrConstraint, AttrDeclaration, AttrOp, DelegationId, LocalEntity, Node, Proof, ProofStep,
    SignedDelegation, Timestamp,
};
use drbac::crypto::SchnorrGroup;
use drbac::graph::{
    direct_query_on, object_query_on, reference, subject_query_on, GraphView, SearchOptions,
    ShardedGraph,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The candidate certificates, signed once, plus everything a store
/// build and a query sweep need alongside them.
struct Menu {
    certs: Vec<Arc<SignedDelegation>>,
    /// Support proofs published with each certificate (empty unless
    /// third-party).
    supports: Vec<Vec<Proof>>,
    declaration: AttrDeclaration,
    nodes: Vec<Node>,
    variants: Vec<SearchOptions>,
}

fn menu() -> Menu {
    let mut rng = StdRng::seed_from_u64(0x5c09e);
    let g = SchnorrGroup::test_256();
    let a = LocalEntity::generate("A", g.clone(), &mut rng);
    let b = LocalEntity::generate("B", g.clone(), &mut rng);
    let m = LocalEntity::generate("M", g, &mut rng);
    let bw = a.attr("bw", AttrOp::Min);
    let (r1, r2, r3) = (a.role("r1"), a.role("r2"), a.role("r3"));
    let sign = |issuer: &LocalEntity, subject: Node, object: Node| {
        issuer.delegate(subject, object).sign(issuer).unwrap()
    };

    let assignment = sign(&a, Node::entity(&b), Node::role_admin(r1.clone()));
    let support = Proof::from_steps(vec![ProofStep::new(assignment.clone())]).unwrap();
    let certs = vec![
        // [M -> A.r1] A
        sign(&a, Node::entity(&m), Node::role(r1.clone())),
        // [A.r1 -> A.r2] A
        sign(&a, Node::role(r1.clone()), Node::role(r2.clone())),
        // [A.r2 -> A.r3 with A.bw <= 40] A
        a.delegate(Node::role(r2.clone()), Node::role(r3.clone()))
            .with_attr(bw.clone(), 40.0)
            .unwrap()
            .sign(&a)
            .unwrap(),
        // [A.r1 -> A.r3 <depth: 0>] A
        a.delegate(Node::role(r1.clone()), Node::role(r3.clone()))
            .max_extension_depth(0)
            .sign(&a)
            .unwrap(),
        // [B -> A.r1'] A
        assignment,
        // [M -> A.r1] B, parallel to the first entry and published with
        // its support [B -> A.r1'] A
        sign(&b, Node::entity(&m), Node::role(r1.clone())),
        // [B -> A.r1] A
        sign(&a, Node::entity(&b), Node::role(r1.clone())),
    ];
    let mut supports = vec![Vec::new(); certs.len()];
    supports[5] = vec![support];

    Menu {
        certs: certs.into_iter().map(Arc::new).collect(),
        supports,
        declaration: AttrDeclaration::new(bw.clone(), 100.0).unwrap(),
        nodes: vec![
            Node::entity(&m),
            Node::entity(&b),
            Node::entity(&a),
            Node::role(r1.clone()),
            Node::role(r2),
            Node::role(r3),
            Node::role_admin(r1),
        ],
        variants: vec![
            SearchOptions::at(Timestamp(0)),
            SearchOptions::at(Timestamp(0)).with_constraint(AttrConstraint::at_least(bw, 60.0)),
        ],
    }
}

/// One way of filling a store: which menu entries, in what order, and
/// whether the revocation mark lands before or after the inserts.
struct Build<'a> {
    order: &'a [usize],
    revoked: Option<DelegationId>,
    revoke_first: bool,
}

impl Build<'_> {
    /// The id to revoke at this point of the fill: before the inserts
    /// (`before == true`) or after them.
    fn revoke_at(&self, before: bool) -> Option<DelegationId> {
        self.revoked.filter(|_| self.revoke_first == before)
    }
}

fn fill(g: ShardedGraph, menu: &Menu, build: &Build) -> ShardedGraph {
    g.insert_declaration(&menu.declaration);
    if let Some(id) = build.revoke_at(true) {
        g.revoke(id);
    }
    for &i in build.order {
        g.insert_with_supports(Arc::clone(&menu.certs[i]), menu.supports[i].clone());
    }
    if let Some(id) = build.revoke_at(false) {
        g.revoke(id);
    }
    g
}

/// Every answer the store gives over the menu's nodes, as proof bytes,
/// after checking each against the reference engine on the same store.
fn answers<G: GraphView>(
    g: &G,
    menu: &Menu,
    revoked: Option<DelegationId>,
    ctx: &str,
) -> Vec<Vec<Vec<u8>>> {
    let bytes = |proofs: &[Proof]| -> Vec<Vec<u8>> {
        for p in proofs {
            assert!(
                revoked.is_none_or(|id| !p.delegation_ids().contains(&id)),
                "{ctx}: a proof uses the revoked certificate: {p}"
            );
        }
        proofs.iter().map(Proof::to_bytes).collect()
    };
    let mut out = Vec::new();
    for (v, opts) in menu.variants.iter().enumerate() {
        for s in &menu.nodes {
            for o in &menu.nodes {
                let got = bytes(direct_query_on(g, s, o, opts).0.as_slice());
                let want = bytes(reference::direct_query_ref(g, s, o, opts).0.as_slice());
                assert_eq!(got, want, "{ctx} variant {v}: direct_query({s} => {o})");
                out.push(got);
            }
            let got = bytes(&subject_query_on(g, s, opts).0);
            let want = bytes(&reference::subject_query_ref(g, s, opts).0);
            assert_eq!(got, want, "{ctx} variant {v}: subject_query({s})");
            out.push(got);
            let got = bytes(&object_query_on(g, s, opts).0);
            let want = bytes(&reference::object_query_ref(g, s, opts).0);
            assert_eq!(got, want, "{ctx} variant {v}: object_query({s})");
            out.push(got);
        }
    }
    out
}

#[test]
fn every_menu_subset_matches_the_reference_engine_on_every_store() {
    let menu = menu();
    let n = menu.certs.len();
    let mut grants = 0usize;
    for mask in 0u32..(1 << n) {
        let forward: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        let reverse: Vec<usize> = forward.iter().rev().copied().collect();
        let revocations = std::iter::once(None).chain(forward.iter().map(|&i| Some(i)));
        for victim in revocations {
            let revoked = victim.map(|i| menu.certs[i].id());
            let mut first: Option<Vec<Vec<Vec<u8>>>> = None;
            let mut agree = |got: Vec<Vec<Vec<u8>>>, ctx: &str| match &first {
                None => first = Some(got),
                Some(want) => assert!(
                    *want == got,
                    "{ctx}: answers depend on the store, its shard count or insertion order"
                ),
            };
            for (order, revoke_first) in [(&forward, false), (&reverse, true)] {
                let build = Build {
                    order,
                    revoked,
                    revoke_first,
                };
                let ctx = format!("subset {mask:#09b} order {order:?} revoked {victim:?}");
                for (label, store) in [
                    ("with_shards(1)", ShardedGraph::with_shards(1)),
                    ("new()", ShardedGraph::new()),
                ] {
                    let g = fill(store, &menu, &build);
                    agree(
                        answers(&g, &menu, revoked, &ctx),
                        &format!("{ctx} ShardedGraph::{label}"),
                    );
                }
            }
            grants += first
                .expect("at least one store ran")
                .iter()
                .filter(|a| !a.is_empty())
                .count();
        }
    }
    // The menu is rich enough that the sweep exercises real proofs, not
    // just empty answers.
    assert!(grants > 10_000, "only {grants} non-empty answers");
}
