//! The traced run's span recorder and the per-decision layer ledger.
//!
//! Spans are opened from the benchmark's own files around each call
//! into a layer (`bench.*` names) and kept in memory; spans the program
//! opens itself are only counted. A layer's self time is its span minus
//! the bench spans nested in it. The ledger splits the traced median
//! decision into layer costs and reports whatever they do not cover as
//! `tcp.unattributed_us`.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use drbac_obs::trace::{Recorder, TraceEvent, TraceKind};

use crate::stats;

/// Bench spans kept per run; beyond this only the program-span counts
/// keep growing (a guard on memory, far above what one run opens).
const MAX_SPANS: usize = 2_000_000;

/// One finished bench span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub elapsed_ns: u64,
}

/// In-memory recorder installed for the traced run.
#[derive(Default)]
pub struct SpanRecorder {
    spans: Mutex<Vec<SpanRec>>,
    program: Mutex<ProgramSpans>,
}

/// Spans the program opens itself: counted per name, and their parent
/// links kept so a bench span nested under one still finds its bench
/// ancestor.
#[derive(Default)]
struct ProgramSpans {
    by_name: HashMap<&'static str, (u64, u64)>,
    parent: HashMap<u64, u64>,
}

impl SpanRecorder {
    /// Installs a fresh recorder as the process's trace sink.
    pub fn install() -> Arc<SpanRecorder> {
        let rec = Arc::new(SpanRecorder::default());
        drbac_obs::trace::install_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
        rec
    }

    /// Re-installs a recorder after a pause; its spans accumulate.
    pub fn install_existing(rec: &Arc<SpanRecorder>) {
        drbac_obs::trace::install_recorder(Arc::clone(rec) as Arc<dyn Recorder>);
    }

    /// Uninstalls the recorder (tracing off again).
    pub fn uninstall() {
        drbac_obs::trace::clear_recorder();
    }

    /// The bench spans recorded so far, each parented to its nearest
    /// bench ancestor (0 for a root).
    pub fn spans(&self) -> Vec<SpanRec> {
        let program = self.program.lock().expect("span counts poisoned");
        let mut spans = self.spans.lock().expect("span buffer poisoned").clone();
        for s in &mut spans {
            let mut parent = s.parent;
            while let Some(up) = program.parent.get(&parent) {
                parent = *up;
            }
            s.parent = parent;
        }
        spans
    }

    /// `(count, total ns)` per program-opened span name.
    pub fn program_spans(&self) -> BTreeMap<&'static str, (u64, u64)> {
        self.program
            .lock()
            .expect("span counts poisoned")
            .by_name
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }
}

impl Recorder for SpanRecorder {
    fn record(&self, event: &TraceEvent) {
        if event.kind != TraceKind::SpanEnd {
            return;
        }
        let elapsed_ns = event.elapsed_ns.unwrap_or(0);
        if event.name.starts_with("bench.") {
            let mut spans = self.spans.lock().expect("span buffer poisoned");
            if spans.len() < MAX_SPANS {
                spans.push(SpanRec {
                    name: event.name,
                    id: event.span,
                    parent: event.parent,
                    elapsed_ns,
                });
            }
        } else {
            let mut program = self.program.lock().expect("span counts poisoned");
            let slot = program.by_name.entry(event.name).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += elapsed_ns;
            if program.parent.len() < MAX_SPANS {
                program.parent.insert(event.span, event.parent);
            }
        }
    }
}

/// Per span name: how often it ran, its total time and its self time
/// (total minus the bench spans nested directly in it).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanStats {
    /// Mean self time, µs.
    pub fn self_us(&self) -> f64 {
        stats::mean_us(self.self_ns, self.count)
    }
}

/// Aggregates spans by name with self times.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, SpanStats> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.elapsed_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for s in spans {
        let st = out.entry(s.name).or_default();
        st.count += 1;
        st.total_ns += s.elapsed_ns;
        st.self_ns += s
            .elapsed_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// One decision split at the boundaries the client sees, µs. The parts
/// are consecutive intervals, so they sum to the decision's latency.
#[derive(Debug, Default, Clone, Copy)]
pub struct DecisionParts {
    /// Due time → handed to the client (generator lateness).
    pub late: f64,
    /// `PipelinedClient::send`: encode, frame, write.
    pub send: f64,
    /// Sent → the collector starts waiting on it (collector busy with
    /// earlier replies).
    pub queue: f64,
    /// `PipelinedClient::wait`: socket, daemon, reply decode.
    pub wait: f64,
    /// `ProofValidator::validate_query` (0 for a denial).
    pub validate: f64,
}

impl DecisionParts {
    pub fn total(&self) -> f64 {
        self.late + self.send + self.queue + self.wait + self.validate
    }
}

/// Mean parts of the decisions whose latency lies within the
/// `[lo, hi]` percentile band, so the parts describe the median decision
/// rather than the mean one. With `hi` = 50 the band's mean latency
/// never exceeds the p50.
pub fn median_band(parts: &[DecisionParts], lo: f64, hi: f64) -> DecisionParts {
    if parts.is_empty() {
        return DecisionParts::default();
    }
    let mut totals: Vec<f64> = parts.iter().map(DecisionParts::total).collect();
    totals.sort_by(f64::total_cmp);
    let (lo_v, hi_v) = (
        stats::percentile_sorted(&totals, lo),
        stats::percentile_sorted(&totals, hi),
    );
    let band: Vec<&DecisionParts> = parts
        .iter()
        .filter(|p| (lo_v..=hi_v).contains(&p.total()))
        .collect();
    let n = band.len() as f64;
    let sum = |f: fn(&DecisionParts) -> f64| band.iter().map(|p| f(p)).sum::<f64>() / n;
    DecisionParts {
        late: sum(|p| p.late),
        send: sum(|p| p.send),
        queue: sum(|p| p.queue),
        wait: sum(|p| p.wait),
        validate: sum(|p| p.validate),
    }
}

/// Layer self times for the traced median decision plus the remainder
/// no layer covers. `layers` and `unattributed_us` sum to
/// `decision_p50_us` by construction.
#[derive(Debug, Clone)]
pub struct Ledger {
    pub decision_p50_us: f64,
    pub layers: Vec<(&'static str, f64)>,
    pub unattributed_us: f64,
}

/// Inputs for one authz ledger: the median band of decision parts plus
/// the per-decision costs of layers that run inside `wait` and
/// `validate` (daemon service, reply decode, signature checks), each
/// measured by registry deltas or by replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct Inside {
    /// Daemon service per request (frame rx → reply encoded), µs.
    pub daemon_service: f64,
    /// Client-side reply decode per decision, µs.
    pub decode_reply: f64,
    /// Client-side reply frame read per decision, µs.
    pub read_frame: f64,
    /// Signature verification per decision (verifies × verify time), µs.
    pub crypto: f64,
}

/// Builds the ledger. Inner layers are capped at the interval that
/// contains them, so no layer is charged more time than the client saw
/// pass around it, and the remainder is never negative when the band
/// lies at or below the decision p50 (see [`median_band`]).
pub fn ledger(decision_p50_us: f64, band: &DecisionParts, inside: &Inside) -> Ledger {
    let daemon = inside.daemon_service.min(band.wait);
    let decode = inside.decode_reply.min(band.wait - daemon);
    let frame = inside.read_frame.min(band.wait - daemon - decode);
    let crypto = inside.crypto.min(band.validate);
    let layers = vec![
        ("bench.generator", band.late),
        ("net.tcp.send", band.send),
        ("bench.collector_queue", band.queue),
        ("net.daemon.service", daemon),
        ("net.wire.decode_reply", decode),
        ("net.wire.read_frame", frame),
        ("crypto.sig_verify", crypto),
        ("core.validate_self", band.validate - crypto),
    ];
    let covered: f64 = layers.iter().map(|(_, v)| v).sum();
    Ledger {
        decision_p50_us,
        layers,
        unattributed_us: decision_p50_us - covered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, elapsed_ns: u64) -> SpanRec {
        SpanRec {
            name,
            id,
            parent,
            elapsed_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("bench.decision", 1, 0, 1_000),
            span("bench.tcp.wait", 2, 1, 300),
            span("bench.core.validate", 3, 1, 600),
            span("bench.decision", 4, 0, 2_000),
            span("bench.tcp.wait", 5, 4, 1_500),
        ];
        let st = self_times(&spans);
        assert_eq!(
            st["bench.decision"],
            SpanStats {
                count: 2,
                total_ns: 3_000,
                self_ns: 100 + 500
            }
        );
        assert_eq!(st["bench.tcp.wait"].self_ns, 1_800);
        assert_eq!(st["bench.core.validate"].self_us(), 0.6);
    }

    fn parts(i: usize) -> DecisionParts {
        // A spread of decisions: 900 µs of validation plus a wait that
        // grows with i.
        DecisionParts {
            late: 5.0,
            send: 3.0,
            queue: (i % 7) as f64,
            wait: 30.0 + (i % 13) as f64 * 4.0,
            validate: 900.0,
        }
    }

    #[test]
    fn the_unattributed_remainder_is_non_negative_and_closes_the_sum() {
        let all: Vec<DecisionParts> = (0..1000).map(parts).collect();
        let totals: Vec<f64> = all.iter().map(DecisionParts::total).collect();
        let p50 = stats::percentile(&totals, 50.0).unwrap();
        let band = median_band(&all, 45.0, 50.0);
        // Layers measured elsewhere, some larger than the interval that
        // holds them (a replay can read slower than the live run).
        let inside = Inside {
            daemon_service: 25.0,
            decode_reply: 40.0,
            read_frame: 1.0,
            crypto: 950.0,
        };
        let l = ledger(p50, &band, &inside);
        assert!(l.unattributed_us >= 0.0, "{l:?}");
        let sum: f64 = l.layers.iter().map(|(_, v)| v).sum::<f64>() + l.unattributed_us;
        assert!((sum - p50).abs() < 1e-9);
        assert!(l.layers.iter().all(|(_, v)| *v >= 0.0), "{l:?}");
    }

    #[test]
    fn band_parts_sum_to_band_latency() {
        let all: Vec<DecisionParts> = (0..200).map(parts).collect();
        let band = median_band(&all, 40.0, 60.0);
        let totals: Vec<f64> = all.iter().map(DecisionParts::total).collect();
        let lo = stats::percentile(&totals, 40.0).unwrap();
        let hi = stats::percentile(&totals, 60.0).unwrap();
        assert!(band.total() >= lo && band.total() <= hi, "{band:?}");
    }
}
