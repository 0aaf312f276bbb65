//! `coalition-discovery`: worlds from `drbac_scenario` (deep ladders
//! and two bridged federations), each org wallet behind its own
//! loopback daemon. A gateway runs one `DiscoveryAgent::discover` at a
//! time over `TcpTransport`, through a wrapper that times every hop;
//! each discovery starts from an empty gateway wallet, so every
//! credential it needs crosses the network. The scenario `Oracle` is
//! the ground truth.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use drbac_core::{
    AttrConstraint, Node, Proof, ProofValidator, SimClock, Ticks, Timestamp, ValidationContext,
    WalletAddr,
};
use drbac_net::proto::{Reply, Request};
use drbac_net::{
    DaemonConfig, Directory, DiscoveryAgent, NetError, SimNet, TcpConfig, TcpTransport, Transport,
    WalletDaemon,
};
use drbac_scenario::{Event, Family, Oracle, Scale, Scenario, ScenarioSpec};
use drbac_wallet::Wallet;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::check::{Tally, Verdict};
use crate::layers::{self, Delta, Sample};
use crate::report::Metrics;
use crate::trace::{self, SpanRecorder};
use crate::{stats, Args};

/// Org wallets (one daemon each) per world.
const ORGS: usize = 16;
const FAMILIES: [Family; 2] = [Family::DeepLadder, Family::CrossFederation];
/// Worlds per family. The worlds are a fixed corpus (generator seeds
/// 0, 1, 2), and the run's seed orders the questions: worlds drawn from
/// the run's seed moved the median 15–25% from seed to seed, because
/// each world's mix of short and long chains differs, which would hide
/// a regression of the bound's size.
const WORLDS_PER_FAMILY: u64 = 3;
const SETUP_REPS: usize = 3;
const SAMPLE_CAP: usize = 4096;

fn scale() -> Scale {
    Scale {
        orgs: ORGS,
        users: ORGS,
        roles_per_org: 4,
        // Six rungs per user ladder: the long-chain tail.
        delegations: ORGS * 6,
        queries: 128,
    }
}

/// One question with its ground truth.
struct Question {
    /// Index of the world (federation) it is asked in.
    world: usize,
    subject: Node,
    object: Node,
    constraints: Vec<AttrConstraint>,
    strict: bool,
    truth: Option<Proof>,
}

/// One world's federation: its org wallets served by daemons.
struct Federation {
    scenario: Scenario,
    wallets: Vec<Wallet>,
    daemons: Vec<WalletDaemon>,
    transport: Arc<TcpTransport>,
    oracle: Oracle,
}

impl Drop for Federation {
    fn drop(&mut self) {
        for d in &self.daemons {
            d.shutdown();
        }
        self.transport.drain_pool();
    }
}

/// Builds one world of `family` from the scenario generator: every
/// publication and declaration lands in its home wallet. The schedule's
/// revocations are left out, so the oracle's final state answers every
/// question in any order.
fn deploy(family: Family, seed: u64, questions: &mut Vec<Question>, index: usize) -> Federation {
    let scenario = ScenarioSpec::new(family, seed)
        .with_scale(scale())
        .generate();
    let clock = SimClock::new();
    let wallets: Vec<Wallet> = (0..scenario.wallets())
        .map(|i| Wallet::new(Scenario::wallet_addr(i).as_str(), clock.clone()))
        .collect();
    let mut oracle = Oracle::new();
    let mut specs = Vec::new();
    for ev in &scenario.schedule {
        match ev {
            Event::Publish { home, cert } => {
                wallets[*home]
                    .publish(Arc::clone(cert), vec![])
                    .expect("scenario publish");
                oracle.apply(ev);
            }
            Event::Declare { home, decl } => {
                wallets[*home]
                    .publish_declaration(decl)
                    .expect("scenario declaration");
                oracle.apply(ev);
            }
            Event::Revoke { .. } => {}
            Event::Query(q) => specs.push(q.clone()),
        }
    }
    // A fixed mix of three grants to one denial in every world: the
    // generator's own mix varies by seed, and the median would then
    // slide between the fast denials and the hop-bound grants.
    let (grants, denials): (Vec<Question>, Vec<Question>) = specs
        .into_iter()
        .map(|q| Question {
            world: index,
            truth: oracle.answer(&q),
            subject: q.subject,
            object: q.object,
            constraints: q.constraints,
            strict: q.strict,
        })
        .partition(|q| q.truth.is_some());
    let (n_grants, n_denials) = (grants.len().min(3 * denials.len()), denials.len());
    questions.extend(grants.into_iter().take(n_grants));
    questions.extend(
        denials
            .into_iter()
            .take(n_grants.div_ceil(3).min(n_denials)),
    );
    let transport = Arc::new(TcpTransport::new(TcpConfig::fast()));
    let daemons = wallets
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let d = WalletDaemon::bind_with(
                "127.0.0.1:0",
                w.clone(),
                TcpConfig::default(),
                DaemonConfig {
                    workers: 1,
                    ..DaemonConfig::default()
                },
            )
            .expect("bind org daemon");
            transport.add_route(Scenario::wallet_addr(i).as_str(), d.local_addr());
            d
        })
        .collect();
    Federation {
        scenario,
        wallets,
        daemons,
        transport,
        oracle,
    }
}

/// Per-hop timing shared between the wrapper and the phase loop.
#[derive(Default)]
struct HopLog {
    hop_ns: u64,
    requests: Option<Sample<Request>>,
    replies: Option<Sample<Reply>>,
}

/// A `Transport` that times each hop of the wrapped transport.
struct TimedTransport<T> {
    inner: T,
    log: Arc<Mutex<HopLog>>,
    traced: bool,
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn request(&self, to: &WalletAddr, req: Request) -> Result<Reply, NetError> {
        let sample = self.traced.then(|| req.clone());
        let _span = self.traced.then(|| drbac_obs::span!("bench.tcp.hop"));
        let t = Instant::now();
        let reply = self.inner.request(to, req);
        let ns = t.elapsed().as_nanos() as u64;
        let mut log = self.log.lock().expect("hop log poisoned");
        log.hop_ns += ns;
        if let (Some(req), Some(s)) = (sample, log.requests.as_mut()) {
            s.push(|| req);
        }
        if let (Ok(r), Some(s)) = (&reply, log.replies.as_mut()) {
            s.push(|| r.clone());
        }
        reply
    }

    fn backoff(&self, delay: Ticks) {
        self.inner.backoff(delay);
    }
}

/// Measured discoveries of one phase.
#[derive(Default)]
struct PhaseOut {
    wall_us: Vec<f64>,
    contacted: Vec<f64>,
    gateway_share: Vec<f64>,
    tally: Tally,
    /// When each correct discovery completed.
    done_at: Vec<Instant>,
    wall_ns_total: u64,
    proof_certs: Vec<Vec<u8>>,
    keys: Vec<drbac_crypto::PublicKey>,
    certs_checked: Vec<f64>,
    requests: Vec<Request>,
    replies: Vec<Reply>,
}

/// Judges a discovery against the oracle: strict questions must match
/// it; every grant must validate for the question asked.
fn judge(q: &Question, found: Option<&Proof>, oracle: &Oracle) -> Verdict {
    match (found, &q.truth) {
        (None, None) => Verdict::Denied,
        (None, Some(_)) if q.strict => {
            Verdict::Wrong(format!("denied {} => {}", q.subject, q.object))
        }
        // Constrained questions are checked for soundness only: the
        // distributed search is greedy by design.
        (None, Some(_)) => Verdict::Denied,
        (Some(proof), _) => {
            let validator = ProofValidator::new(
                ValidationContext::at(Timestamp(0))
                    .with_declarations(oracle.graph().declarations().clone()),
            );
            match validator.validate_query(proof, &q.subject, &q.object, &q.constraints) {
                Err(e) => Verdict::Unsound(format!("{} => {}: {e}", q.subject, q.object)),
                Ok(_) if q.truth.is_none() => {
                    Verdict::Unsound(format!("granted {} => {}", q.subject, q.object))
                }
                Ok(_) => Verdict::Granted {
                    certs: proof.all_certs().len(),
                },
            }
        }
    }
}

/// Runs discoveries one at a time for `duration` (or `count`
/// questions, whichever ends first), cycling through `order`.
#[allow(clippy::too_many_arguments)]
fn run_phase<T: Transport + Clone + 'static>(
    feds: &[(T, Directory, &Oracle)],
    questions: &[Question],
    order: &[usize],
    duration: Duration,
    count: usize,
    traced: bool,
    clock: &SimClock,
) -> PhaseOut {
    let mut out = PhaseOut::default();
    let log = Arc::new(Mutex::new(HopLog {
        requests: traced.then(|| Sample::new(SAMPLE_CAP)),
        replies: traced.then(|| Sample::new(SAMPLE_CAP)),
        ..HopLog::default()
    }));
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < duration && i < count {
        let q = &questions[order[i % order.len()]];
        i += 1;
        let (transport, directory, oracle) = &feds[q.world];
        log.lock().expect("hop log poisoned").hop_ns = 0;
        let mut agent = DiscoveryAgent::new(
            TimedTransport {
                inner: transport.clone(),
                log: Arc::clone(&log),
                traced,
            },
            Wallet::new("fed.gateway", clock.clone()),
            directory.clone(),
        );
        let span = traced.then(|| drbac_obs::span!("bench.discovery"));
        let t = Instant::now();
        let outcome = agent.discover(&q.subject, &q.object, &q.constraints);
        let wall = t.elapsed();
        drop(span);
        let proof = outcome.monitor.as_ref().map(|m| m.proof().clone());
        let verdict = {
            let _v = traced.then(|| drbac_obs::span!("bench.core.validate"));
            judge(q, proof.as_ref(), oracle)
        };
        out.tally.add(&verdict);
        if verdict.failed() {
            continue;
        }
        let hops_ns = log.lock().expect("hop log poisoned").hop_ns;
        let wall_ns = wall.as_nanos() as u64;
        out.wall_ns_total += wall_ns;
        out.wall_us.push(wall_ns as f64 / 1e3);
        out.done_at.push(Instant::now());
        out.contacted.push(outcome.wallets_contacted.len() as f64);
        out.gateway_share.push(stats::ratio(
            wall_ns.saturating_sub(hops_ns) as f64,
            wall_ns as f64,
        ));
        out.certs_checked.push(match verdict {
            Verdict::Granted { certs } => certs as f64,
            _ => 0.0,
        });
        if traced {
            for cert in proof.iter().flat_map(|p| p.all_certs()) {
                if out.proof_certs.len() < SAMPLE_CAP {
                    out.proof_certs.push(cert.to_bytes());
                    out.keys.push(cert.issuer_key().clone());
                }
            }
        }
    }
    let mut log = log.lock().expect("hop log poisoned");
    out.requests = log.requests.take().map(|s| s.items).unwrap_or_default();
    out.replies = log.replies.take().map(|s| s.items).unwrap_or_default();
    out
}

fn p(samples: &[f64], q: f64) -> f64 {
    stats::percentile(samples, q).unwrap_or(0.0)
}

/// As for authz: the median of the phase's one-second slice rates.
fn median_rate(done_at: &[Instant], started: Instant, duration: Duration) -> f64 {
    let slices = duration.as_secs().max(1) as u32;
    stats::median(&stats::slice_rates(
        done_at,
        started,
        duration / slices,
        slices,
    ))
    .unwrap_or(0.0)
}

/// Runs the workload and fills `metrics`. Layers this workload does
/// not exercise (open-loop generator, store, index, push) read 0.
pub fn run(args: &Args, metrics: &mut Metrics) -> Tally {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut deployed = None;
    for _ in 0..SETUP_REPS {
        drop(deployed.take());
        let t = Instant::now();
        let mut questions = Vec::new();
        let feds: Vec<Federation> = FAMILIES
            .iter()
            .flat_map(|f| (0..WORLDS_PER_FAMILY).map(move |k| (*f, k)))
            .enumerate()
            .map(|(i, (f, k))| deploy(f, k, &mut questions, i))
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
        deployed = Some((feds, questions));
    }
    let (feds, questions) = deployed.expect("at least one set-up");
    let mut order: Vec<usize> = (0..questions.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(args.seed ^ 0x4469_7363));
    let clock = SimClock::new();
    let tcp: Vec<(Arc<TcpTransport>, Directory, &Oracle)> = feds
        .iter()
        .map(|f| (Arc::clone(&f.transport), f.scenario.directory(), &f.oracle))
        .collect();
    metrics.provenance("orgs_per_world", ORGS as f64);
    metrics.provenance("worlds", feds.len() as f64);
    metrics.provenance("questions", questions.len() as f64);
    metrics.provenance("setup_reps", SETUP_REPS as f64);
    let secs = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let mut tally = Tally::default();
    if !args.trace {
        let started = Instant::now();
        let out = run_phase(
            &tcp,
            &questions,
            &order,
            secs(1.0),
            usize::MAX,
            false,
            &clock,
        );
        tally.merge(&out.tally);
        metrics.e2e("setup_s", stats::median(&setup_s).expect("set-up ran"));
        metrics.e2e("decision_p50_us", p(&out.wall_us, 50.0));
        metrics.detail("decision_p90_us", p(&out.wall_us, 90.0));
        metrics.detail(
            "decisions_per_s",
            median_rate(&out.done_at, started, secs(1.0)),
        );
        metrics.detail("discovery_p50_us", p(&out.wall_us, 50.0));
        metrics.detail("discovery_p90_us", p(&out.wall_us, 90.0));
        metrics.detail("decision_p99_us", p(&out.wall_us, 99.0));
        metrics.detail("decision_samples", out.wall_us.len() as f64);
    } else {
        // Untraced halves before and after the traced phase: the base
        // of the overhead ratio.
        let mut base = run_phase(
            &tcp,
            &questions,
            &order,
            secs(0.15),
            usize::MAX,
            false,
            &clock,
        );
        let recorder = SpanRecorder::install();
        let before = layers::snapshot();
        let traced_start = Instant::now();
        let traced = run_phase(
            &tcp,
            &questions,
            &order,
            secs(0.5),
            usize::MAX,
            true,
            &clock,
        );
        let after = layers::snapshot();
        SpanRecorder::uninstall();
        let base2 = run_phase(
            &tcp,
            &questions,
            &order,
            secs(0.15),
            usize::MAX,
            false,
            &clock,
        );
        base.wall_us.extend(base2.wall_us);
        base.tally.merge(&base2.tally);
        // The no-socket floor: the same questions, in the same order,
        // answered by the same wallets over SimNet.
        let sim: Vec<(SimNet, Directory, &Oracle)> = feds
            .iter()
            .map(|f| {
                let net = SimNet::new(clock.clone(), Ticks(1));
                for (i, w) in f.wallets.iter().enumerate() {
                    net.add_host(Scenario::wallet_addr(i).as_str(), w.clone());
                }
                (net, f.scenario.directory(), &f.oracle)
            })
            .collect();
        let n = traced.wall_us.len().max(1);
        let floor = run_phase(&sim, &questions, &order, secs(0.2), n, false, &clock);
        for t in [&base.tally, &traced.tally, &floor.tally] {
            tally.merge(t);
        }
        let delta = Delta {
            before: &before,
            after: &after,
        };
        layer_metrics(metrics, &base, &traced, &floor, &delta, &recorder);
        metrics.layer(
            "decisions_per_s",
            median_rate(&traced.done_at, traced_start, secs(0.5)),
        );
    }
    drop(feds);
    tally
}

fn layer_metrics(
    m: &mut Metrics,
    base: &PhaseOut,
    traced: &PhaseOut,
    floor: &PhaseOut,
    delta: &Delta,
    recorder: &SpanRecorder,
) {
    let spans = trace::self_times(&recorder.spans());
    let program = recorder.program_spans();
    let hop = spans.get("bench.tcp.hop").copied().unwrap_or_default();
    let discoveries = traced.wall_us.len() as f64;
    let sig_verify_us = layers::sig_verify_replay(&traced.proof_certs);
    m.layer("crypto.sig_verify_us", sig_verify_us);
    m.layer(
        "crypto.sig_verifies_per_decision",
        stats::mean(&traced.certs_checked),
    );
    m.layer(
        "crypto.key_valid_us",
        layers::key_valid_replay(&traced.keys),
    );
    m.layer(
        "core.validate_us",
        delta.hist_mean_us("drbac.core.proof.validate.ns"),
    );
    let wire = layers::wire_replay(&traced.requests, &traced.replies);
    m.layer("wire.encode_request_us", wire.encode_request_us);
    m.layer("wire.decode_request_us", wire.decode_request_us);
    m.layer("wire.encode_reply_us", wire.encode_reply_us);
    m.layer("wire.decode_reply_us", wire.decode_reply_us);
    m.layer("wire.frame_us", wire.frame_us);
    m.layer("wire.reply_bytes", wire.reply_bytes);
    m.layer("tcp.roundtrip_us", hop.self_us());
    m.layer("tcp.hop_us", hop.self_us());
    m.layer(
        "tcp.connects_per_discovery",
        stats::ratio(
            delta.counter("drbac.net.tcp.connect.count") as f64,
            discoveries,
        ),
    );
    m.layer(
        "daemon.service_us",
        delta.hist_mean_us("drbac.net.tcp.service.ns"),
    );
    m.layer(
        "daemon.overload_count",
        delta.counter("drbac.net.tcp.overload.count") as f64,
    );
    let hits = delta.counter("drbac.wallet.query.cache_hit.count") as f64;
    let misses = delta.counter("drbac.wallet.query.cache_miss.count") as f64;
    m.layer("wallet.cache_hit_ratio", stats::ratio(hits, hits + misses));
    m.layer(
        "wallet.query_us",
        delta.hists_mean_us(&["drbac.wallet.query.warm.ns", "drbac.wallet.query.cold.ns"]),
    );
    m.layer(
        "graph.search_us",
        delta.hist_mean_us("drbac.graph.search.direct.ns"),
    );
    m.layer(
        "discovery.wallets_contacted_p50",
        p(&traced.contacted, 50.0),
    );
    m.layer(
        "discovery.wallets_contacted_p90",
        p(&traced.contacted, 90.0),
    );
    let (_, validate_ns) = delta.hist("drbac.core.proof.validate.ns");
    m.layer(
        "discovery.validate_share",
        stats::ratio(validate_ns as f64, traced.wall_ns_total as f64),
    );
    m.layer("discovery.local_ratio", stats::mean(&traced.gateway_share));
    m.layer("discovery.simnet_p90_us", p(&floor.wall_us, 90.0));
    m.layer(
        "trace.overhead_ratio",
        stats::ratio(p(&traced.wall_us, 50.0), p(&base.wall_us, 50.0)),
    );
    m.layer("decision_p90_us", p(&traced.wall_us, 90.0));
    m.layer("decision_p99_us", p(&traced.wall_us, 99.0));
    m.layer("discovery_p50_us", p(&traced.wall_us, 50.0));
    m.layer("discovery_p90_us", p(&traced.wall_us, 90.0));
    m.spans(&spans, &program);
}
