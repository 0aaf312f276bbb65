//! The two authorization workloads: a relying party sends direct
//! queries to one loopback wallet daemon over one pipelined connection
//! and validates every reply itself, as `drbac query --remote` does.
//!
//! * `authz-hot` — a small read-only world (64 users × depth-4 ladders
//!   under one issuer key). After warm-up every answer is a proof-cache
//!   hit and every key is memoised, so the per-request path dominates:
//!   front door, codec and the client's signature checks.
//! * `authz-churn` — a durable indexed wallet of ~1.3·10^4 delegations
//!   over 6144 queried subjects, each granted through a third-party
//!   delegation (its own sponsor key, with a support proof) into a
//!   valued-attribute ladder (`<=`, `-=`, `*=`). Queries carry fresh
//!   thresholds, so the proof cache never hits and graph search runs on
//!   every query; the reply keys exceed the 4096-entry key memo; about a
//!   tenth of the traffic publishes and a tenth revokes a delegation in
//!   a proof the client monitors through a `SubscriberLink`.
//!
//! One thread sends (on the open-loop schedule, then on window credits
//! in the closed-loop phase) and one collects, decodes and validates.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use drbac_core::{
    AttrConstraint, AttrDeclaration, AttrOp, AttrRef, DeclarationSet, DelegationId, LocalEntity,
    Node, Proof, ProofStep, ProofValidator, SignedAttrDeclaration, SignedDelegation,
    SignedRevocation, SimClock, Timestamp, ValidationContext,
};
use drbac_crypto::{PublicKey, SchnorrGroup};
use drbac_index::{DelegationIndex, FileTable, RebuildSource};
use drbac_net::proto::{Reply, Request};
use drbac_net::{NetError, PipelinedClient, SubscriberLink, TcpConfig, TcpTransport, WalletDaemon};
use drbac_store::{StoreConfig, StoreEvent, WalletStore};
use drbac_wallet::{DurableWallet, ProofMonitor, Wallet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{judge_query, Expect, Tally, Verdict};
use crate::layers::{self, Delta, Sample};
use crate::openloop::{self, Lateness, Schedule};
use crate::report::Metrics;
use crate::trace::{self, DecisionParts, SpanRecorder};
use crate::{stats, Args};

/// Open-loop offered rate of `authz-hot`, decisions/s: about a third of
/// the closed-loop saturation (~1600–1800/s on 2 shared cores). At half,
/// host noise on a shared machine pushed the p90 past its bound.
pub const HOT_RATE: f64 = 500.0;
/// Open-loop offered rate of `authz-churn`, operations/s: about a
/// quarter of the query-only saturation, since publishes and
/// revocations each cost the daemon two to three queries.
pub const CHURN_RATE: f64 = 300.0;
/// Requests in flight during the closed-loop saturation phase.
const WINDOW: usize = 8;

const HOT_USERS: usize = 64;
const HOT_DEPTH: usize = 4;
/// Denials target one of the next few users' ladders, so the negative
/// answers stay a small, cacheable set.
const HOT_DENY_SPREAD: usize = 4;

/// Queried subjects; above the 4096-key memo on purpose.
const CHURN_SUBJECTS: usize = 6144;
/// Attribute ladders; subject `u` climbs ladder `u % CHURN_GROUPS`.
const CHURN_GROUPS: usize = 64;
/// Declared base values of the three ladder attributes.
const BASES: [f64; 3] = [1000.0, 500.0, 100.0];

const HOT_ADDR: &str = "authz.hot";
const CHURN_ADDR: &str = "authz.churn";
const GATEWAY_ADDR: &str = "authz.gateway";

/// Replay samples kept per traced run.
const SAMPLE_CAP: usize = 4096;
/// How long a revocation's push may take before it counts as lost.
const PUSH_DEADLINE: Duration = Duration::from_secs(2);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    Hot,
    Churn,
}

/// Records when each monitored proof's invalidation callback fired.
#[derive(Default)]
struct PushBoard {
    fired: Mutex<HashMap<DelegationId, Instant>>,
    cv: Condvar,
}

impl PushBoard {
    fn fire(&self, id: DelegationId) {
        let now = Instant::now();
        self.fired
            .lock()
            .expect("push board poisoned")
            .entry(id)
            .or_insert(now);
        self.cv.notify_all();
    }

    /// When `id`'s push fired, waiting on the condvar until `deadline`.
    fn wait_fired(&self, id: DelegationId, deadline: Instant) -> Option<Instant> {
        let mut fired = self.fired.lock().expect("push board poisoned");
        loop {
            if let Some(t) = fired.get(&id) {
                return Some(*t);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            fired = self
                .cv
                .wait_timeout(fired, deadline - now)
                .expect("push board poisoned")
                .0;
        }
    }
}

/// A churn subject reserved for revocation: its proof is monitored at
/// the gateway; after its revocation is acked the closed loop may ask
/// for it again and must see a denial.
struct Reserved {
    subject: Node,
    object: Node,
    revocation: SignedRevocation,
}

/// The churn world's query-side facts.
struct ChurnWorld {
    subjects: Vec<Node>,
    tops: Vec<Node>,
    attrs: [AttrRef; 3],
    /// Effective attribute values per ladder.
    eff: Vec<[f64; 3]>,
    publish_pool: Vec<(Arc<SignedDelegation>, Proof)>,
    reserved: Vec<Reserved>,
}

enum World {
    Hot { users: Vec<Node>, tops: Vec<Node> },
    Churn(Box<ChurnWorld>),
}

/// One deployment: the world, its daemon and the client's connection.
struct Deployed {
    world: World,
    daemon: WalletDaemon,
    client: PipelinedClient,
    validator: ProofValidator,
    board: Arc<PushBoard>,
    link: Option<SubscriberLink>,
    _monitors: Vec<ProofMonitor>,
    _durable: Option<DurableWallet>,
    workdir: Option<PathBuf>,
    boot_ms: f64,
}

impl Deployed {
    fn close(&mut self) {
        self.client.close();
        if let Some(link) = &self.link {
            link.close();
        }
        self.daemon.shutdown();
        if let Some(dir) = self.workdir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Drop for Deployed {
    fn drop(&mut self) {
        self.close();
    }
}

fn connect(addr: &str, daemon: &WalletDaemon) -> (Arc<TcpTransport>, PipelinedClient) {
    let transport = Arc::new(TcpTransport::new(TcpConfig::fast()));
    transport.add_route(addr, daemon.local_addr());
    let client = transport
        .pipelined(&addr.into())
        .expect("pipelined connect");
    (transport, client)
}

fn bind(wallet: Wallet) -> WalletDaemon {
    WalletDaemon::bind("127.0.0.1:0", wallet, TcpConfig::default()).expect("bind daemon")
}

fn setup_hot(seed: u64) -> Deployed {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x486f_7400);
    let g = SchnorrGroup::test_256();
    let owner = LocalEntity::generate("Owner", g.clone(), &mut rng);
    let wallet = Wallet::new(HOT_ADDR, SimClock::new());
    let mut users = Vec::with_capacity(HOT_USERS);
    let mut tops = Vec::with_capacity(HOT_USERS);
    for u in 0..HOT_USERS {
        let user = LocalEntity::generate(format!("U{u}"), g.clone(), &mut rng);
        let mut prev = Node::entity(&user);
        for d in 0..HOT_DEPTH {
            let rung = Node::role(owner.role(&format!("lad{u}d{d}")));
            let cert = owner
                .delegate(prev, rung.clone())
                .sign(&owner)
                .expect("sign");
            wallet.publish(cert, vec![]).expect("publish ladder");
            prev = rung;
        }
        users.push(Node::entity(&user));
        tops.push(prev);
    }
    let daemon = bind(wallet);
    let (_, client) = connect(HOT_ADDR, &daemon);
    let dep = Deployed {
        world: World::Hot { users, tops },
        daemon,
        client,
        validator: ProofValidator::new(ValidationContext::at(Timestamp(0))),
        board: Arc::default(),
        link: None,
        _monitors: Vec::new(),
        _durable: None,
        workdir: None,
        boot_ms: 0.0,
    };
    // Warm-up: every question the run can ask, once, so the measured
    // phases see only cache hits and memoised keys.
    let World::Hot { users, tops } = &dep.world else {
        unreachable!()
    };
    let mut queries = Vec::new();
    for u in 0..HOT_USERS {
        queries.push(hot_query(users, tops, u, u));
        for k in 1..=HOT_DENY_SPREAD {
            queries.push(hot_query(users, tops, u, (u + k) % HOT_USERS));
        }
    }
    call_checked(&dep, queries);
    dep
}

fn hot_query(users: &[Node], tops: &[Node], u: usize, target: usize) -> (Request, Expect) {
    (
        Request::DirectQuery {
            subject: users[u].clone(),
            object: tops[target].clone(),
            constraints: vec![],
        },
        if u == target {
            Expect::Grant
        } else {
            Expect::Deny
        },
    )
}

/// Sends `queries` in window-sized batches (the daemon refuses more
/// than its per-connection in-flight cap) and checks every answer;
/// set-up aborts on any wrong or failed one.
fn call_checked(dep: &Deployed, queries: Vec<(Request, Expect)>) -> Vec<Reply> {
    let mut replies = Vec::with_capacity(queries.len());
    for batch in queries.chunks(64) {
        let reqs: Vec<Request> = batch.iter().map(|(r, _)| r.clone()).collect();
        let ids = dep.client.send_many(&reqs).expect("set-up send");
        for (id, (req, expect)) in ids.into_iter().zip(batch) {
            let reply = dep.client.wait(id);
            let Request::DirectQuery {
                subject,
                object,
                constraints,
            } = req
            else {
                unreachable!("set-up sends direct queries")
            };
            let verdict = judge_query(
                &reply,
                &dep.validator,
                subject,
                object,
                constraints,
                *expect,
            );
            assert!(!verdict.failed(), "set-up query failed: {verdict:?}");
            replies.push(reply.expect("judged above"));
        }
    }
    replies
}

/// Builds the churn world, writes it as an uncompacted log plus a
/// current index under `workdir`, boots it with `open_indexed`, and
/// opens the monitored proofs for every reserved subject.
fn setup_churn(seed: u64, reserve: usize, publishes: usize, workdir: PathBuf) -> Deployed {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4368_7572);
    let g = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let attrs = [
        org.attr("bw", AttrOp::Min),
        org.attr("storage", AttrOp::Subtract),
        org.attr("hours", AttrOp::Scale),
    ];
    let decls: Vec<SignedAttrDeclaration> = attrs
        .iter()
        .zip(BASES)
        .map(|(a, base)| {
            SignedAttrDeclaration::sign(AttrDeclaration::new(a.clone(), base).expect("decl"), &org)
                .expect("sign decl")
        })
        .collect();
    let mut events: Vec<StoreEvent> = decls.iter().cloned().map(StoreEvent::Declare).collect();
    let mut certs: Vec<Arc<SignedDelegation>> = Vec::new();
    let mut supports: Vec<Proof> = Vec::new();
    let mut publish = |events: &mut Vec<StoreEvent>, cert: SignedDelegation| {
        let cert = Arc::new(cert);
        certs.push(Arc::clone(&cert));
        events.push(StoreEvent::Publish(Arc::clone(&cert)));
        cert
    };

    // Ladders: member_g → l1 (bw <= v1) → l2 (storage -= v2) → l3 (hours *= v3).
    let mut members = Vec::with_capacity(CHURN_GROUPS);
    let mut tops = Vec::with_capacity(CHURN_GROUPS);
    let mut eff = Vec::with_capacity(CHURN_GROUPS);
    for grp in 0..CHURN_GROUPS {
        let operands = [
            rng.gen_range(100.0..900.0),
            rng.gen_range(10.0..400.0),
            rng.gen_range(0.2..0.95),
        ];
        let rungs: Vec<Node> = ["member", "l1", "l2", "l3"]
            .iter()
            .map(|r| Node::role(org.role(&format!("{r}_{grp}"))))
            .collect();
        for (k, operand) in operands.iter().enumerate() {
            let cert = org
                .delegate(rungs[k].clone(), rungs[k + 1].clone())
                .with_attr(attrs[k].clone(), *operand)
                .expect("attr clause")
                .sign(&org)
                .expect("sign rung");
            publish(&mut events, cert);
        }
        // One clause per attribute on the path: the accumulator is the
        // operand itself, applied to the declared base.
        eff.push([0, 1, 2].map(|k| attrs[k].op().apply_to_base(BASES[k], operands[k])));
        members.push(rungs[0].clone());
        tops.push(rungs[3].clone());
    }

    // Subjects: each holds its ladder's member role through a
    // third-party grant by its own sponsor, supported by the sponsor's
    // right of assignment.
    let total = CHURN_SUBJECTS + reserve;
    let mut subjects = Vec::with_capacity(CHURN_SUBJECTS);
    let mut reserved = Vec::with_capacity(reserve);
    let mut sponsor_of = Vec::with_capacity(CHURN_SUBJECTS);
    for i in 0..total {
        let grp = i % CHURN_GROUPS;
        let user = LocalEntity::generate(format!("S{i}"), g.clone(), &mut rng);
        let sponsor = LocalEntity::generate(format!("P{i}"), g.clone(), &mut rng);
        let Node::Role(member) = &members[grp] else {
            unreachable!()
        };
        let right = org
            .delegate(Node::entity(&sponsor), Node::role_admin(member.clone()))
            .sign(&org)
            .expect("sign right");
        let right = publish(&mut events, right);
        let support = Proof::from_steps(vec![ProofStep::new(right)]).expect("support");
        events.push(StoreEvent::Support(support.clone()));
        supports.push(support.clone());
        let grant = sponsor
            .delegate(Node::entity(&user), members[grp].clone())
            .sign(&sponsor)
            .expect("sign grant");
        let grant = publish(&mut events, grant);
        if i < CHURN_SUBJECTS {
            subjects.push(Node::entity(&user));
            sponsor_of.push((sponsor, support));
        } else {
            reserved.push(Reserved {
                subject: Node::entity(&user),
                object: tops[grp].clone(),
                revocation: SignedRevocation::revoke(&grant, &sponsor, Timestamp(0))
                    .expect("sign revocation"),
            });
        }
    }
    // Fresh third-party grants published during the run: a second
    // serial of an existing grant, so decisions keep their answers.
    let publish_pool = (0..publishes)
        .map(|k| {
            let u = rng.gen_range(0..CHURN_SUBJECTS);
            let (sponsor, support) = &sponsor_of[u];
            let cert = sponsor
                .delegate(subjects[u].clone(), members[u % CHURN_GROUPS].clone())
                .serial(k as u64 + 1)
                .sign(sponsor)
                .expect("sign pool grant");
            (Arc::new(cert), support.clone())
        })
        .collect();

    // The store: an uncompacted log and an index current to its tail.
    let mem = WalletStore::in_memory_with(StoreConfig {
        group_commit: u64::MAX,
    });
    for ev in &events {
        mem.append(ev).expect("append to memory log");
    }
    let last_seq = mem.status().next_seq - 1;
    let store_dir = workdir.join("store");
    let index_dir = workdir.join("index");
    std::fs::create_dir_all(&store_dir).expect("create store dir");
    write_synced(
        &store_dir.join("wal.log"),
        &mem.log_bytes().expect("log bytes"),
    );
    {
        let index = DelegationIndex::open(Box::new(
            FileTable::open_dir(&index_dir).expect("open index dir"),
        ))
        .expect("open index");
        index
            .rebuild(
                &RebuildSource {
                    certs: &certs,
                    supports: &supports,
                    declarations: &decls,
                    revoked: &[],
                    absorbed: &[],
                },
                last_seq,
            )
            .expect("index rebuild");
        index.flush().expect("index flush");
    }

    // Boot: open_indexed → daemon up → first answered query.
    let clock = SimClock::new();
    let boot = Instant::now();
    let store = Arc::new(WalletStore::open_dir(&store_dir).expect("open store"));
    let index = Arc::new(
        DelegationIndex::open(Box::new(
            FileTable::open_dir(&index_dir).expect("index dir"),
        ))
        .expect("reopen index"),
    );
    let (durable, report) =
        DurableWallet::open_indexed(CHURN_ADDR, clock.clone(), store, index).expect("boot");
    assert!(report.lazy, "a current index boots on the fast path");
    let daemon = bind(durable.wallet().clone());
    let (transport, client) = connect(CHURN_ADDR, &daemon);
    let first = client
        .call(&Request::DirectQuery {
            subject: reserved[0].subject.clone(),
            object: reserved[0].object.clone(),
            constraints: vec![],
        })
        .expect("first query");
    let boot_ms = boot.elapsed().as_secs_f64() * 1e3;
    assert!(
        matches!(&first, Reply::Proofs(p) if p.len() == 1),
        "first query after boot answered {first:?}"
    );

    let mut declarations = DeclarationSet::new();
    for d in &decls {
        declarations.insert(d.declaration());
    }
    let gateway = Wallet::new(GATEWAY_ADDR, clock);
    let link = SubscriberLink::open(CHURN_ADDR, gateway.clone(), Arc::clone(&transport))
        .expect("push link");
    let mut dep = Deployed {
        world: World::Churn(Box::new(ChurnWorld {
            subjects,
            tops,
            attrs,
            eff,
            publish_pool,
            reserved,
        })),
        daemon,
        client,
        validator: ProofValidator::new(
            ValidationContext::at(Timestamp(0)).with_declarations(declarations),
        ),
        board: Arc::default(),
        link: Some(link),
        _monitors: Vec::new(),
        _durable: Some(durable),
        workdir: Some(workdir),
        boot_ms,
    };
    dep._monitors = monitor_reserved(&dep, &gateway);
    dep
}

/// Fetches, validates and monitors the proof of every reserved subject;
/// the monitor's invalidation callback marks the push board.
fn monitor_reserved(dep: &Deployed, gateway: &Wallet) -> Vec<ProofMonitor> {
    let World::Churn(w) = &dep.world else {
        return Vec::new();
    };
    let queries = w
        .reserved
        .iter()
        .map(|r| {
            let req = Request::DirectQuery {
                subject: r.subject.clone(),
                object: r.object.clone(),
                constraints: vec![],
            };
            (req, Expect::Grant)
        })
        .collect();
    let replies = call_checked(dep, queries);
    let link = dep.link.as_ref().expect("churn has a push link");
    replies
        .into_iter()
        .zip(&w.reserved)
        .map(|(reply, r)| {
            let Reply::Proofs(mut proofs) = reply else {
                unreachable!("judged a grant")
            };
            let monitor = gateway
                .monitor_external_proof(proofs.remove(0))
                .expect("monitored proof validates");
            let revoked = r.revocation.delegation_id();
            assert!(monitor.watched().contains(&revoked));
            let board = Arc::clone(&dep.board);
            monitor.on_invalidate(move |_| board.fire(revoked));
            link.track(revoked);
            monitor
        })
        .collect()
}

fn write_synced(path: &std::path::Path, bytes: &[u8]) {
    use std::io::Write;
    let mut f = std::fs::File::create(path).expect("create log file");
    f.write_all(bytes).expect("write log file");
    f.sync_all().expect("sync log file");
}

/// The sender's operation stream.
struct Generator {
    rng: StdRng,
    next_publish: usize,
    next_revoke: usize,
    /// Reserved subjects whose revocation the collector saw acked, in
    /// send order.
    revoked: Arc<Mutex<Vec<usize>>>,
}

/// What the collector needs to judge one operation.
enum Expected {
    Query(Expect),
    Published(DelegationId),
    Revoked { id: DelegationId, reserved: usize },
}

impl Generator {
    fn next(&mut self, world: &World, mix: bool) -> (Request, Expected) {
        let rng = &mut self.rng;
        match world {
            World::Hot { users, tops } => {
                let u = rng.gen_range(0..HOT_USERS);
                let target = if rng.gen_range(0..8) == 0 {
                    (u + rng.gen_range(1..=HOT_DENY_SPREAD)) % HOT_USERS
                } else {
                    u
                };
                let (req, expect) = hot_query(users, tops, u, target);
                (req, Expected::Query(expect))
            }
            World::Churn(w) => {
                let roll = if mix { rng.gen_range(0..10) } else { 9 };
                if roll == 0 && self.next_publish < w.publish_pool.len() {
                    let (cert, support) = &w.publish_pool[self.next_publish];
                    self.next_publish += 1;
                    let req = Request::Publish {
                        cert: Arc::clone(cert),
                        supports: vec![support.clone()],
                    };
                    return (req, Expected::Published(cert.id()));
                }
                if roll == 1 && self.next_revoke < w.reserved.len() {
                    let r = self.next_revoke;
                    self.next_revoke += 1;
                    let rev = w.reserved[r].revocation.clone();
                    let id = rev.delegation_id();
                    return (Request::Revoke(rev), Expected::Revoked { id, reserved: r });
                }
                // Every draw is made whatever is picked, so the stream
                // is a function of the seed alone.
                let a = rng.gen_range(0..3);
                let u = rng.gen_range(0..w.subjects.len());
                let ask_revoked = rng.gen_range(0..16) == 0;
                let pick = rng.gen_range(0..w.reserved.len().max(1));
                let factor = rng.gen_range(0.3..1.1);
                // Revoked subjects are asked only in the closed loop:
                // by then every open-loop revocation is acked and pushed,
                // so their denial is certain and the set is fixed.
                let revoked = (ask_revoked && !mix)
                    .then(|| {
                        let acked = self.revoked.lock().expect("revoked pool poisoned");
                        (!acked.is_empty()).then(|| acked[pick % acked.len()])
                    })
                    .flatten();
                let (subject, object, eff) = match revoked {
                    Some(r) => {
                        let r = &w.reserved[r];
                        (r.subject.clone(), r.object.clone(), None)
                    }
                    None => {
                        let grp = u % CHURN_GROUPS;
                        (
                            w.subjects[u].clone(),
                            w.tops[grp].clone(),
                            Some(w.eff[grp][a]),
                        )
                    }
                };
                // A fresh threshold below or near the effective value
                // (about 7 in 8 grant): the proof cache keys on it, so it
                // never repeats in practice.
                let threshold = eff.unwrap_or(BASES[a]) * factor;
                let expect = match eff {
                    Some(e) if e >= threshold => Expect::Grant,
                    _ => Expect::Deny,
                };
                let req = Request::DirectQuery {
                    subject,
                    object,
                    constraints: vec![AttrConstraint::at_least(w.attrs[a].clone(), threshold)],
                };
                (req, Expected::Query(expect))
            }
        }
    }
}

/// One operation on its way from sender to collector.
struct Sent {
    req: Request,
    expected: Expected,
    id: Result<u64, NetError>,
    due: Instant,
    send_start: Instant,
    send_end: Instant,
}

#[derive(Debug, Clone, Copy)]
enum Load {
    Open { rate: f64 },
    Closed { window: usize },
}

/// Everything one phase measured.
#[derive(Default)]
struct PhaseOut {
    decision_us: Vec<f64>,
    /// When each correct decision completed.
    decided_at: Vec<Instant>,
    parts: Vec<DecisionParts>,
    roundtrip_us: Vec<f64>,
    certs_checked: Vec<f64>,
    publish_us: Vec<f64>,
    revoke_ack_us: Vec<f64>,
    revoke_push_us: Vec<f64>,
    pushes_lost: u64,
    tally: Tally,
    /// Requests sent (each gets one reply frame).
    sent: u64,
    /// Decisions/s in each one-second slice of the phase.
    rates: Vec<f64>,
    lateness: Lateness,
    backlog_first_quarter: u64,
    backlog_last_quarter: u64,
    queue_depth_max: i64,
    requests: Sample<Request>,
    replies: Sample<Reply>,
    reply_certs: Sample<Vec<u8>>,
    reply_keys: Sample<PublicKey>,
}

impl PhaseOut {
    fn new(traced: bool) -> PhaseOut {
        let cap = if traced { SAMPLE_CAP } else { 0 };
        PhaseOut {
            requests: Sample::new(cap),
            replies: Sample::new(cap),
            reply_certs: Sample::new(cap),
            reply_keys: Sample::new(if traced { 4 * SAMPLE_CAP } else { 0 }),
            ..PhaseOut::default()
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs one phase: this thread sends, a scoped thread collects.
fn run_phase(
    dep: &Deployed,
    gen: &mut Generator,
    load: Load,
    duration: Duration,
    traced: bool,
) -> PhaseOut {
    let (tx, rx) = mpsc::channel::<Sent>();
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let done = AtomicU64::new(0);
    let queue_gauge = drbac_obs::global().gauge("drbac.net.tcp.queue.depth");
    let start = Instant::now() + Duration::from_millis(2);
    let mix = matches!(load, Load::Open { .. });
    std::thread::scope(|scope| {
        let revoked = Arc::clone(&gen.revoked);
        let done = &done;
        let collector = scope.spawn(move || collect(dep, rx, credit_tx, done, &revoked, traced));
        let mut sent = 0u64;
        let mut backlog = [0u64; 4];
        let mut queue_depth_max = 0i64;
        let mut send = |due: Instant, quarter: usize| {
            let (req, expected) = gen.next(&dep.world, mix);
            let span = traced.then(|| drbac_obs::span!("bench.tcp.send"));
            let send_start = Instant::now();
            let id = dep.client.send(&req);
            let send_end = Instant::now();
            drop(span);
            sent += 1;
            let in_flight = sent - done.load(Ordering::Relaxed);
            backlog[quarter] = backlog[quarter].max(in_flight);
            queue_depth_max = queue_depth_max.max(queue_gauge.get());
            tx.send(Sent {
                req,
                expected,
                id,
                due,
                send_start,
                send_end,
            })
            .expect("collector alive");
        };
        let lateness = match load {
            Load::Open { rate } => {
                let schedule = Schedule::new(start, rate, duration);
                let slots = (rate * duration.as_secs_f64()).max(1.0);
                openloop::drive(&schedule, |i, due| {
                    send(due, ((i as f64 / slots) * 4.0).min(3.0) as usize)
                })
            }
            Load::Closed { window } => {
                let end = start + duration;
                let mut credits = window;
                loop {
                    let now = Instant::now();
                    if now >= end {
                        break;
                    }
                    if credits == 0 {
                        match credit_rx.recv_timeout(end - now) {
                            Ok(()) => credits += 1,
                            Err(_) => break,
                        }
                        continue;
                    }
                    credits -= 1;
                    let quarter = ((now.saturating_duration_since(start).as_secs_f64()
                        / duration.as_secs_f64())
                        * 4.0)
                        .min(3.0) as usize;
                    send(Instant::now(), quarter);
                }
                Lateness::default()
            }
        };
        drop(tx);
        let mut out = collector.join().expect("collector thread");
        let slices = duration.as_secs().max(1) as u32;
        let slice = duration / slices;
        out.rates = stats::slice_rates(&out.decided_at, start, slice, slices);
        out.sent = sent;
        out.lateness = lateness;
        out.backlog_first_quarter = backlog[0];
        out.backlog_last_quarter = backlog[3];
        out.queue_depth_max = queue_depth_max;
        out
    })
}

fn collect(
    dep: &Deployed,
    rx: mpsc::Receiver<Sent>,
    credits: mpsc::Sender<()>,
    done: &AtomicU64,
    revoked: &Arc<Mutex<Vec<usize>>>,
    traced: bool,
) -> PhaseOut {
    let mut out = PhaseOut::new(traced);
    let mut pending_push: Vec<(DelegationId, Instant)> = Vec::new();
    for s in rx {
        let span = traced.then(|| drbac_obs::span!("bench.decision"));
        let wait_start = Instant::now();
        let reply = {
            let _w = traced.then(|| drbac_obs::span!("bench.tcp.wait"));
            match s.id {
                Ok(id) => dep.client.wait(id),
                Err(e) => Err(e),
            }
        };
        let replied = Instant::now();
        match s.expected {
            Expected::Query(expect) => {
                let Request::DirectQuery {
                    subject,
                    object,
                    constraints,
                } = &s.req
                else {
                    unreachable!("queries carry direct-query requests")
                };
                let verdict = {
                    let _v = traced.then(|| drbac_obs::span!("bench.core.validate"));
                    judge_query(&reply, &dep.validator, subject, object, constraints, expect)
                };
                let decided = Instant::now();
                out.tally.add(&verdict);
                drop(span);
                if !verdict.failed() {
                    out.decision_us.push(us(decided - s.due));
                    out.decided_at.push(decided);
                    out.roundtrip_us.push(us(replied - s.send_start));
                    out.parts.push(DecisionParts {
                        late: us(s.send_start - s.due),
                        send: us(s.send_end - s.send_start),
                        queue: us(wait_start.saturating_duration_since(s.send_end)),
                        wait: us(replied - wait_start.max(s.send_end)),
                        validate: us(decided - replied),
                    });
                }
                out.certs_checked.push(match verdict {
                    Verdict::Granted { certs } => certs as f64,
                    _ => 0.0,
                });
                if traced {
                    if let Ok(r) = &reply {
                        if let Reply::Proofs(proofs) = r {
                            for cert in proofs.iter().flat_map(|p| p.all_certs()) {
                                out.reply_certs.push(|| cert.to_bytes());
                                out.reply_keys.push(|| cert.issuer_key().clone());
                            }
                        }
                        out.replies.push(|| r.clone());
                    }
                    out.requests.push(|| s.req.clone());
                }
            }
            Expected::Published(id) => {
                let ok = matches!(&reply, Ok(Reply::Published(got)) if *got == id);
                out.tally.add_op(ok, || format!("publish {id}: {reply:?}"));
                if ok {
                    out.publish_us.push(us(replied - s.send_start));
                }
            }
            Expected::Revoked { id, reserved } => {
                let ok = matches!(&reply, Ok(Reply::Revoked(_)));
                out.tally.add_op(ok, || format!("revoke {id}: {reply:?}"));
                if ok {
                    out.revoke_ack_us.push(us(replied - s.send_start));
                    pending_push.push((id, s.send_start));
                    revoked
                        .lock()
                        .expect("revoked pool poisoned")
                        .push(reserved);
                }
            }
        }
        done.fetch_add(1, Ordering::Relaxed);
        let _ = credits.send(());
    }
    // Every acked revocation must reach the gateway's monitor: each
    // push is one more operation, failed if it never fires.
    let deadline = Instant::now() + PUSH_DEADLINE;
    for (id, sent) in pending_push {
        let fired = dep.board.wait_fired(id, deadline);
        out.tally.add_op(fired.is_some(), || {
            format!("push for revoked {id} never fired")
        });
        match fired {
            Some(fired) => out
                .revoke_push_us
                .push(us(fired.saturating_duration_since(sent))),
            None => out.pushes_lost += 1,
        }
    }
    out
}

/// Open-loop share of an untraced run; the rest is the closed loop.
const OPEN_SHARE: f64 = 0.6;

fn reserve_for(flavor: Flavor, seconds: f64) -> (usize, usize) {
    match flavor {
        Flavor::Hot => (0, 0),
        Flavor::Churn => {
            // A tenth of the open-loop ops revoke (and a tenth publish);
            // reserve a third more than the expected count. Open loops
            // fill 0.6 of an untraced run and 0.7 of a traced one.
            let expected = CHURN_RATE * seconds * 0.7 * 0.1;
            let n = (expected * 4.0 / 3.0).ceil() as usize + 16;
            (n, n)
        }
    }
}

fn setup(flavor: Flavor, args: &Args, rep: usize) -> Deployed {
    match flavor {
        Flavor::Hot => setup_hot(args.seed),
        Flavor::Churn => {
            let (reserve, publishes) = reserve_for(flavor, args.seconds);
            let dir = args
                .workdir
                .join(format!("churn-{}-{rep}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            setup_churn(args.seed, reserve, publishes, dir)
        }
    }
}

/// Set-up repetitions whose median is `setup_s`; the last one is kept.
fn setup_reps(flavor: Flavor) -> usize {
    match flavor {
        Flavor::Hot => 9,
        Flavor::Churn => 3,
    }
}

fn p(samples: &[f64], q: f64) -> f64 {
    stats::percentile(samples, q).unwrap_or(0.0)
}

/// Runs `flavor` and fills `metrics` with the end-to-end (untraced) or
/// per-layer (traced) set.
pub fn run(flavor: Flavor, args: &Args, metrics: &mut Metrics) -> Tally {
    let reps = setup_reps(flavor);
    let mut setup_s = Vec::with_capacity(reps);
    let mut boot_ms = Vec::with_capacity(reps);
    let mut dep = None;
    for rep in 0..reps {
        drop(dep.take());
        let t = Instant::now();
        let d = setup(flavor, args, rep);
        setup_s.push(t.elapsed().as_secs_f64());
        boot_ms.push(d.boot_ms);
        dep = Some(d);
    }
    let dep = dep.expect("at least one set-up");
    let rate = match flavor {
        Flavor::Hot => HOT_RATE,
        Flavor::Churn => CHURN_RATE,
    };
    let mut gen = Generator {
        rng: StdRng::seed_from_u64(args.seed ^ 0x5365_6e64),
        next_publish: 0,
        next_revoke: 0,
        revoked: Arc::default(),
    };
    let secs = |share: f64| Duration::from_secs_f64(args.seconds * share);
    metrics.provenance("offered_rate_per_s", rate);
    metrics.provenance("closed_loop_window", WINDOW as f64);
    metrics.provenance("setup_reps", reps as f64);
    let mut tally = Tally::default();
    if !args.trace {
        let open = run_phase(&dep, &mut gen, Load::Open { rate }, secs(OPEN_SHARE), false);
        let closed = run_phase(
            &dep,
            &mut gen,
            Load::Closed { window: WINDOW },
            secs(1.0 - OPEN_SHARE),
            false,
        );
        tally.merge(&open.tally);
        tally.merge(&closed.tally);
        let setup = stats::median(&setup_s).expect("set-up ran");
        metrics.e2e("setup_s", setup);
        metrics.e2e("decision_p50_us", p(&open.decision_us, 50.0));
        metrics.detail("decision_p90_us", p(&open.decision_us, 90.0));
        metrics.detail(
            "decisions_per_s",
            stats::median(&closed.rates).unwrap_or(0.0),
        );
        metrics.detail("decision_p99_us", p(&open.decision_us, 99.0));
        metrics.detail(
            "decisions_per_s_whole_phase",
            closed.decided_at.len() as f64 / args.seconds / (1.0 - OPEN_SHARE),
        );
        metrics.detail("decision_samples", open.decision_us.len() as f64);
        metrics.detail("closed_loop_decisions", closed.decision_us.len() as f64);
        if flavor == Flavor::Churn {
            metrics.detail("publish_p50_us", p(&open.publish_us, 50.0));
            metrics.detail("revoke_push_p50_us", p(&open.revoke_push_us, 50.0));
            metrics.detail("boot_ms", stats::median(&boot_ms).unwrap_or(0.0));
            metrics.detail("publishes", open.publish_us.len() as f64);
            metrics.detail("revocations", open.revoke_push_us.len() as f64);
        }
        open_loop_provenance(metrics, &open);
    } else {
        // The overhead ratio's base is the same open loop untraced,
        // half before and half after the traced open loop, so drift
        // over the run (lazy hydration, cache growth) cancels.
        let mut base = run_phase(&dep, &mut gen, Load::Open { rate }, secs(0.15), false);
        let recorder = SpanRecorder::install();
        let before = layers::snapshot();
        let open = run_phase(&dep, &mut gen, Load::Open { rate }, secs(0.4), true);
        let mid = layers::snapshot();
        SpanRecorder::uninstall();
        let base2 = run_phase(&dep, &mut gen, Load::Open { rate }, secs(0.15), false);
        base.decision_us.extend(base2.decision_us);
        base.tally.merge(&base2.tally);
        SpanRecorder::install_existing(&recorder);
        let mid2 = layers::snapshot();
        let closed = run_phase(
            &dep,
            &mut gen,
            Load::Closed { window: WINDOW },
            secs(0.3),
            true,
        );
        let after = layers::snapshot();
        SpanRecorder::uninstall();
        for t in [&base.tally, &open.tally, &closed.tally] {
            tally.merge(t);
        }
        let open_delta = Delta {
            before: &before,
            after: &mid,
        };
        let closed_delta = Delta {
            before: &mid2,
            after: &after,
        };
        layer_metrics(
            metrics,
            &base,
            &open,
            &closed,
            &open_delta,
            &closed_delta,
            &recorder,
            &boot_ms,
        );
        open_loop_provenance(metrics, &open);
    }
    drop(dep);
    tally
}

fn open_loop_provenance(metrics: &mut Metrics, open: &PhaseOut) {
    metrics.provenance("generator_late_max_us", open.lateness.max_us);
    metrics.provenance("generator_late_mean_us", open.lateness.mean_us());
    metrics.provenance(
        "backlog_max_first_quarter",
        open.backlog_first_quarter as f64,
    );
    metrics.provenance("backlog_max_last_quarter", open.backlog_last_quarter as f64);
    // A backlog that keeps growing means the offered rate is past
    // saturation: the latencies then describe a queue, not the system.
    metrics.provenance(
        "backlog_growing",
        f64::from(open.backlog_last_quarter > 4 * open.backlog_first_quarter.max(4)),
    );
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Metrics,
    base: &PhaseOut,
    open: &PhaseOut,
    closed: &PhaseOut,
    open_delta: &Delta,
    closed_delta: &Delta,
    recorder: &SpanRecorder,
    boot_ms: &[f64],
) {
    let spans = trace::self_times(&recorder.spans());
    let program = recorder.program_spans();
    let wire = layers::wire_replay(&open.requests.items, &open.replies.items);
    let sig_verify_us = layers::sig_verify_replay(&open.reply_certs.items);
    let key_valid_us = layers::key_valid_replay(&open.reply_keys.items);
    let verifies = stats::mean(&open.certs_checked);
    let validate_us = spans
        .get("bench.core.validate")
        .map(|s| s.self_us())
        .unwrap_or(0.0);
    let service_us = open_delta.hist_mean_us("drbac.net.tcp.service.ns");

    m.layer("crypto.sig_verify_us", sig_verify_us);
    m.layer("crypto.sig_verifies_per_decision", verifies);
    m.layer("crypto.key_valid_us", key_valid_us);
    m.layer("core.validate_us", validate_us);
    m.layer("wire.encode_request_us", wire.encode_request_us);
    m.layer("wire.decode_request_us", wire.decode_request_us);
    m.layer("wire.encode_reply_us", wire.encode_reply_us);
    m.layer("wire.decode_reply_us", wire.decode_reply_us);
    m.layer("wire.frame_us", wire.frame_us);
    m.layer("wire.reply_bytes", wire.reply_bytes);
    m.layer("tcp.roundtrip_us", p(&open.roundtrip_us, 50.0));

    let traced_p50 = p(&open.decision_us, 50.0);
    let band = trace::median_band(&open.parts, 45.0, 50.0);
    let ledger = trace::ledger(
        traced_p50,
        &band,
        &trace::Inside {
            daemon_service: service_us,
            decode_reply: wire.decode_reply_us,
            read_frame: wire.frame_us,
            crypto: verifies * sig_verify_us,
        },
    );
    m.layer("tcp.unattributed_us", ledger.unattributed_us);
    m.ledger(&ledger);

    m.layer("daemon.service_us", service_us);
    m.layer(
        "daemon.queue_depth_max",
        open.queue_depth_max.max(closed.queue_depth_max) as f64,
    );
    m.layer(
        "daemon.overload_count",
        (open_delta.counter("drbac.net.tcp.overload.count")
            + closed_delta.counter("drbac.net.tcp.overload.count")) as f64,
    );
    let replies_sent = (open.sent + closed.sent) as f64;
    m.layer(
        "daemon.coalesced_writes_ratio",
        stats::ratio(
            (open_delta.counter("drbac.net.tcp.write.coalesced.count")
                + closed_delta.counter("drbac.net.tcp.write.coalesced.count")) as f64,
            replies_sent,
        ),
    );
    let hits = open_delta.counter("drbac.wallet.query.cache_hit.count") as f64;
    let misses = open_delta.counter("drbac.wallet.query.cache_miss.count") as f64;
    m.layer("wallet.cache_hit_ratio", stats::ratio(hits, hits + misses));
    m.layer(
        "wallet.query_us",
        open_delta.hists_mean_us(&["drbac.wallet.query.warm.ns", "drbac.wallet.query.cold.ns"]),
    );
    m.layer(
        "wallet.publish_us",
        open_delta.hist_mean_us("drbac.wallet.publish.ns"),
    );
    let (revokes, revoke_ns) = program
        .get("drbac.wallet.revoke")
        .copied()
        .unwrap_or((0, 0));
    m.layer("wallet.revoke_us", stats::mean_us(revoke_ns, revokes));
    m.layer(
        "graph.search_us",
        open_delta.hist_mean_us("drbac.graph.search.direct.ns"),
    );
    m.layer(
        "index.hydrate_certs",
        open_delta.counter("drbac.index.hydrate.cert.count") as f64,
    );
    m.layer(
        "index.apply_count",
        open_delta.counter("drbac.index.apply.count") as f64,
    );
    m.layer(
        "store.fsync_us",
        open_delta.hist_mean_us("drbac.store.fsync.ns"),
    );
    m.layer(
        "store.fsync_count",
        open_delta.counter("drbac.store.fsync.count") as f64,
    );
    m.layer(
        "store.appends",
        open_delta.counter("drbac.store.append.count") as f64,
    );
    m.layer("push.ack_us", p(&open.revoke_ack_us, 50.0));
    let revokes_acked = (open.revoke_push_us.len() as u64 + open.pushes_lost) as f64;
    m.layer(
        "push.delivered_ratio",
        stats::ratio(open.revoke_push_us.len() as f64, revokes_acked),
    );
    m.layer(
        "trace.overhead_ratio",
        stats::ratio(traced_p50, p(&base.decision_us, 50.0)),
    );
    m.layer("generator.late_max_us", open.lateness.max_us);
    m.layer(
        "decisions_per_s",
        stats::median(&closed.rates).unwrap_or(0.0),
    );
    m.layer("decision_p90_us", p(&open.decision_us, 90.0));
    m.layer("decision_p99_us", p(&open.decision_us, 99.0));
    m.layer("publish_p50_us", p(&open.publish_us, 50.0));
    m.layer("revoke_push_p50_us", p(&open.revoke_push_us, 50.0));
    // The hot world boots in memory: its set-ups record no boot.
    m.layer("boot_ms", stats::median(boot_ms).unwrap_or(0.0));
    m.spans(&spans, &program);
}
