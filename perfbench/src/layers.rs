//! Per-layer costs that the client cannot see directly: registry deltas
//! taken at phase boundaries, and replays of the run's own request and
//! reply stream through the `wire`, `crypto` and `core` public functions.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use drbac_core::{SignedDelegation, Timestamp};
use drbac_crypto::PublicKey;
use drbac_net::proto::{Reply, Request};
use drbac_net::wire::{self, FrameKind};
use drbac_obs::Snapshot;

use crate::stats;

/// Registry movement between two snapshots.
pub struct Delta<'a> {
    pub before: &'a Snapshot,
    pub after: &'a Snapshot,
}

impl Delta<'_> {
    /// Counter increase over the phase.
    pub fn counter(&self, name: &str) -> u64 {
        let get = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
        get(self.after).saturating_sub(get(self.before))
    }

    /// `(count, sum)` increase of a histogram over the phase.
    pub fn hist(&self, name: &str) -> (u64, u64) {
        let get = |s: &Snapshot| {
            s.histograms
                .get(name)
                .map(|h| (h.count, h.sum))
                .unwrap_or((0, 0))
        };
        let (c0, s0) = get(self.before);
        let (c1, s1) = get(self.after);
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    }

    /// Exact mean of a nanosecond histogram over the phase, µs.
    pub fn hist_mean_us(&self, name: &str) -> f64 {
        let (count, sum) = self.hist(name);
        stats::mean_us(sum, count)
    }

    /// Mean over the union of several nanosecond histograms, µs.
    pub fn hists_mean_us(&self, names: &[&str]) -> f64 {
        let (count, sum) = names
            .iter()
            .map(|n| self.hist(n))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        stats::mean_us(sum, count)
    }
}

/// The process registry right now.
pub fn snapshot() -> Snapshot {
    drbac_obs::global().snapshot()
}

/// Mean µs per call of `f` over `items`.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    for item in items {
        f(item);
    }
    t.elapsed().as_secs_f64() * 1e6 / items.len() as f64
}

/// Codec and framing costs over the run's own traffic, µs per item.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireLayer {
    pub encode_request_us: f64,
    pub decode_request_us: f64,
    pub encode_reply_us: f64,
    pub decode_reply_us: f64,
    /// One mux frame written into a buffer and read back.
    pub frame_us: f64,
    /// Mean encoded reply payload, bytes.
    pub reply_bytes: f64,
}

/// Replays `requests` and `replies` through `drbac_net::wire`.
pub fn wire_replay(requests: &[Request], replies: &[Reply]) -> WireLayer {
    let req_bytes: Vec<Vec<u8>> = requests.iter().map(wire::encode_request).collect();
    let rep_bytes: Vec<Vec<u8>> = replies.iter().map(wire::encode_reply).collect();
    let encode_request_us = time_each(requests, |r| {
        black_box(wire::encode_request(r));
    });
    let decode_request_us = time_each(&req_bytes, |b| {
        black_box(wire::decode_request(b).expect("own request decodes"));
    });
    let encode_reply_us = time_each(replies, |r| {
        black_box(wire::encode_reply(r));
    });
    let decode_reply_us = time_each(&rep_bytes, |b| {
        black_box(wire::decode_reply(b).expect("own reply decodes"));
    });
    let frames: Vec<&Vec<u8>> = req_bytes.iter().chain(&rep_bytes).collect();
    let mut buf: Vec<u8> = Vec::new();
    let frame_us = time_each(&frames, |payload| {
        buf.clear();
        wire::write_frame_mux(&mut buf, FrameKind::Reply, payload, 7, None)
            .expect("frame into a buffer");
        black_box(wire::read_frame(&mut Cursor::new(&buf)).expect("own frame reads"));
    });
    WireLayer {
        encode_request_us,
        decode_request_us,
        encode_reply_us,
        decode_reply_us,
        frame_us,
        reply_bytes: stats::mean(&rep_bytes.iter().map(|b| b.len() as f64).collect::<Vec<_>>()),
    }
}

/// Mean µs of one full `SignedDelegation::verify` on a freshly decoded
/// certificate (no signature memo), over the run's reply certificates.
pub fn sig_verify_replay(certs: &[Vec<u8>]) -> f64 {
    let fresh: Vec<SignedDelegation> = certs
        .iter()
        .map(|b| SignedDelegation::from_bytes(b).expect("own cert decodes"))
        .collect();
    time_each(&fresh, |c| {
        c.verify(Timestamp(0)).expect("served certs verify");
    })
}

/// Mean µs of `PublicKey::is_valid` replayed over the run's reply keys
/// in arrival order, against the process-wide validated-key memo.
pub fn key_valid_replay(keys: &[PublicKey]) -> f64 {
    time_each(keys, |k| {
        assert!(k.is_valid(), "served keys are valid");
    })
}

/// A bounded sample of a run's traffic kept for replay: every item up
/// to `cap`, then nothing (the replay costs are per item, so the first
/// `cap` describe the stream).
#[derive(Debug)]
pub struct Sample<T> {
    cap: usize,
    pub items: Vec<T>,
}

impl<T> Default for Sample<T> {
    fn default() -> Self {
        Sample::new(0)
    }
}

impl<T> Sample<T> {
    pub fn new(cap: usize) -> Self {
        Sample {
            cap,
            items: Vec::new(),
        }
    }

    pub fn push(&mut self, item: impl FnOnce() -> T) {
        if self.items.len() < self.cap {
            self.items.push(item());
        }
    }
}
