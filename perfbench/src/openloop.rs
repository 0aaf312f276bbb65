//! Open-loop load generation: requests are due on a fixed schedule
//! whatever the system does, and every latency is timed from the due
//! time, so a stall charges its wait to every request queued behind it
//! (no coordinated omission).

use std::time::{Duration, Instant};

/// A fixed-rate send schedule: request `i` is due at `start + i / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period: Duration,
    end: Instant,
}

impl Schedule {
    /// `rate` requests per second for `duration`, starting at `start`.
    pub fn new(start: Instant, rate: f64, duration: Duration) -> Schedule {
        assert!(rate > 0.0, "open-loop rate must be positive");
        Schedule {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
            end: start + duration,
        }
    }

    /// When request `i` is due, or `None` once the phase is over.
    pub fn due(&self, i: u64) -> Option<Instant> {
        let offset = self.period.checked_mul(u32::try_from(i).ok()?)?;
        let due = self.start + offset;
        (due < self.end).then_some(due)
    }
}

/// How late the generator itself ran: the gap between a request's due
/// time and the moment it was handed to the client.
#[derive(Debug, Default, Clone, Copy)]
pub struct Lateness {
    /// Largest gap seen, µs.
    pub max_us: f64,
    sum_us: f64,
    count: u64,
}

impl Lateness {
    /// Records one send.
    pub fn record(&mut self, due: Instant, sent: Instant) {
        let late = sent.saturating_duration_since(due).as_secs_f64() * 1e6;
        self.max_us = self.max_us.max(late);
        self.sum_us += late;
        self.count += 1;
    }

    /// Mean gap, µs.
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.sum_us, self.count as f64)
    }

    /// Sends recorded.
    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Drives `send(i, due)` for every due slot of `schedule`, sleeping
/// until each slot; a slow `send` makes later slots late, never skipped.
/// Returns the generator's lateness.
pub fn drive(schedule: &Schedule, mut send: impl FnMut(u64, Instant)) -> Lateness {
    let mut lateness = Lateness::default();
    let mut i = 0u64;
    while let Some(due) = schedule.due(i) {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        lateness.record(due, Instant::now());
        send(i, due);
        i += 1;
    }
    lateness
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_schedule_and_end_on_time() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1000.0, Duration::from_millis(10));
        assert_eq!(s.due(0), Some(t0));
        assert_eq!(s.due(3), Some(t0 + Duration::from_millis(3)));
        assert_eq!(s.due(9), Some(t0 + Duration::from_millis(9)));
        assert_eq!(s.due(10), None);
    }

    #[test]
    fn an_injected_stall_is_charged_to_the_requests_behind_it() {
        let stall = Duration::from_millis(30);
        let start = Instant::now() + Duration::from_millis(1);
        let schedule = Schedule::new(start, 1000.0, Duration::from_millis(20));
        let mut dues = Vec::new();
        let mut latencies_us = Vec::new();
        let lateness = drive(&schedule, |i, due| {
            if i == 2 {
                std::thread::sleep(stall);
            }
            dues.push(due);
            latencies_us.push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
        });
        // Every slot ran, none was skipped or re-timed by the stall.
        assert_eq!(lateness.count(), 20);
        for (i, due) in dues.iter().enumerate() {
            assert_eq!(Some(*due), schedule.due(i as u64));
        }
        // Request 3 was due 1 ms after request 2 but could only go out
        // once the stall ended: its latency from due holds the stall.
        let stall_us = stall.as_secs_f64() * 1e6;
        assert!(latencies_us[3] >= stall_us - 1_000.0, "{latencies_us:?}");
        // The generator reports its own lateness: the slots due during
        // the stall went out late by up to the stall's length.
        assert!(lateness.max_us >= stall_us - 1_000.0, "{lateness:?}");
        assert!(lateness.mean_us() > 0.0);
    }
}
