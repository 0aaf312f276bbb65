//! The run record: metrics by name and unit, run provenance, and the
//! result line the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{Ledger, SpanStats};

/// End-to-end metrics `(name, unit)`, in `BENCHMARK.json` order; every
/// untraced run reports each of them.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("decision_p50_us", "us")];

/// Per-layer metrics `(name, unit)`, in `BENCHMARK.json` order; every
/// traced run reports each of them, 0 where the workload does not
/// exercise the layer.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("crypto.sig_verify_us", "us"),
    ("crypto.sig_verifies_per_decision", "count"),
    ("crypto.key_valid_us", "us"),
    ("core.validate_us", "us"),
    ("wire.encode_request_us", "us"),
    ("wire.decode_request_us", "us"),
    ("wire.encode_reply_us", "us"),
    ("wire.decode_reply_us", "us"),
    ("wire.frame_us", "us"),
    ("wire.reply_bytes", "bytes"),
    ("tcp.roundtrip_us", "us"),
    ("tcp.hop_us", "us"),
    ("tcp.connects_per_discovery", "count"),
    ("tcp.unattributed_us", "us"),
    ("daemon.service_us", "us"),
    ("daemon.queue_depth_max", "count"),
    ("daemon.overload_count", "count"),
    ("daemon.coalesced_writes_ratio", "ratio"),
    ("wallet.cache_hit_ratio", "ratio"),
    ("wallet.query_us", "us"),
    ("wallet.publish_us", "us"),
    ("wallet.revoke_us", "us"),
    ("graph.search_us", "us"),
    ("index.hydrate_certs", "count"),
    ("index.apply_count", "count"),
    ("store.fsync_us", "us"),
    ("store.fsync_count", "count"),
    ("store.appends", "count"),
    ("discovery.wallets_contacted_p50", "count"),
    ("discovery.wallets_contacted_p90", "count"),
    ("discovery.validate_share", "ratio"),
    ("discovery.local_ratio", "ratio"),
    ("discovery.simnet_p90_us", "us"),
    ("push.ack_us", "us"),
    ("push.delivered_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("generator.late_max_us", "us"),
    ("decisions_per_s", "1/s"),
    ("decision_p90_us", "us"),
    ("decision_p99_us", "us"),
    ("publish_p50_us", "us"),
    ("revoke_push_p50_us", "us"),
    ("boot_ms", "ms"),
    ("discovery_p50_us", "us"),
    ("discovery_p90_us", "us"),
    ("fail_ratio", "ratio"),
];

/// A JSON number with all its digits; non-finite values (a ratio over
/// nothing) read as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn object(entries: impl IntoIterator<Item = (String, String)>) -> String {
    let body: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(&k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The listed name equal to `name`; a name outside the list is a bug
/// in the benchmark.
fn known(list: &[(&'static str, &str)], name: &str) -> &'static str {
    list.iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not listed in BENCHMARK.json"))
        .0
}

/// Everything one run measured.
#[derive(Default)]
pub struct Metrics {
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    details: BTreeMap<String, f64>,
    provenance: BTreeMap<String, String>,
    ledger: Option<String>,
    spans: Option<String>,
}

impl Metrics {
    /// Sets an end-to-end metric (reported by untraced runs).
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.insert(known(&END_TO_END, name), value);
    }

    /// Sets a per-layer metric (reported by traced runs).
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(known(&PER_LAYER, name), value);
    }

    /// A workload-specific figure kept in the run record only.
    pub fn detail(&mut self, name: &str, value: f64) {
        self.details.insert(name.into(), value);
    }

    /// A numeric provenance field.
    pub fn provenance(&mut self, name: &str, value: f64) {
        self.provenance.insert(name.into(), num(value));
    }

    /// A text provenance field.
    pub fn provenance_str(&mut self, name: &str, value: &str) {
        self.provenance.insert(name.into(), string(value));
    }

    pub fn ledger(&mut self, l: &Ledger) {
        let layers = object(l.layers.iter().map(|(k, v)| (k.to_string(), num(*v))));
        self.ledger = Some(object([
            ("decision_p50_us".to_string(), num(l.decision_p50_us)),
            ("layers_us".to_string(), layers),
            ("unattributed_us".to_string(), num(l.unattributed_us)),
        ]));
    }

    pub fn spans(
        &mut self,
        bench: &BTreeMap<&'static str, SpanStats>,
        program: &BTreeMap<&'static str, (u64, u64)>,
    ) {
        let bench = object(bench.iter().map(|(k, s)| {
            (
                k.to_string(),
                object([
                    ("count".to_string(), s.count.to_string()),
                    ("total_ns".to_string(), s.total_ns.to_string()),
                    ("self_ns".to_string(), s.self_ns.to_string()),
                ]),
            )
        }));
        let program = object(program.iter().map(|(k, (count, ns))| {
            (
                k.to_string(),
                object([
                    ("count".to_string(), count.to_string()),
                    ("total_ns".to_string(), ns.to_string()),
                ]),
            )
        }));
        self.spans = Some(object([
            ("bench".to_string(), bench),
            ("program".to_string(), program),
        ]));
    }

    /// The reported metric set, every listed metric in list order:
    /// per-layer when traced, else end-to-end.
    pub fn reported(&self, traced: bool) -> String {
        let (list, values) = if traced {
            (&PER_LAYER[..], &self.layers)
        } else {
            (&END_TO_END[..], &self.e2e)
        };
        object(list.iter().map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            (
                name.to_string(),
                format!("{{\"value\": {}, \"unit\": {}}}", num(value), string(unit)),
            )
        }))
    }

    /// The full run record.
    pub fn record(&self, traced: bool, correct: bool, attempted: u64, failed: u64) -> String {
        let mut fields = vec![
            ("provenance".to_string(), object(self.provenance.clone())),
            ("correct".to_string(), correct.to_string()),
            ("attempted".to_string(), attempted.to_string()),
            ("failed".to_string(), failed.to_string()),
            (
                "fail_ratio".to_string(),
                num(crate::stats::ratio(failed as f64, attempted as f64)),
            ),
            ("metrics".to_string(), self.reported(traced)),
            (
                "details".to_string(),
                object(self.details.iter().map(|(k, v)| (k.clone(), num(*v)))),
            ),
        ];
        if let Some(l) = &self.ledger {
            fields.push(("ledger".to_string(), l.clone()));
        }
        if let Some(s) = &self.spans {
            fields.push(("spans".to_string(), s.clone()));
        }
        object(fields)
    }

    /// The result line, printed last.
    pub fn result_line(&self, traced: bool, correct: bool, attempted: u64, failed: u64) -> String {
        object([
            ("correct".to_string(), correct.to_string()),
            ("attempted".to_string(), attempted.to_string()),
            ("failed".to_string(), failed.to_string()),
            ("metrics".to_string(), self.reported(traced)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.e2e("setup_s", 0.8127);
        m.layer("wire.frame_us", 1.5);
        let line = m.result_line(false, true, 1000, 0);
        assert!(
            line.starts_with(
                "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
                 {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, "
            ),
            "{line}"
        );
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")), "{name} missing");
        }
        let traced = m.result_line(true, true, 1, 0);
        assert!(traced.contains("\"wire.frame_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        for (name, _) in PER_LAYER {
            assert!(traced.contains(&format!("\"{name}\"")), "{name} missing");
        }
    }

    /// Every `"name"` in `BENCHMARK.json`, in file order.
    fn listed_names(json: &str) -> Vec<String> {
        json.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn the_metric_lists_match_benchmark_json() {
        let json = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let names = listed_names(&json);
        let metrics: Vec<String> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| n.to_string())
            .collect();
        // Workload names come first, then the metrics in order.
        assert_eq!(names[names.len() - metrics.len()..], metrics[..]);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let at = json.find(&format!("\"name\": \"{name}\"")).unwrap();
            let unit_at = json[at..].find("\"unit\": \"").unwrap() + at + 9;
            assert!(
                json[unit_at..].starts_with(&format!("{unit}\"")),
                "{name} unit"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not listed")]
    fn unlisted_metrics_are_rejected() {
        Metrics::default().layer("wire.typo_us", 1.0);
    }

    #[test]
    fn strings_and_numbers_are_valid_json() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(1.25), "1.25");
    }
}
