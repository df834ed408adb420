//! Pure statistics of the benchmark: medians, the tail-quantile rule, the
//! mapping from round-boundary timestamps to per-message wall latency, and
//! the failed-operation accounting. Everything here is unit-tested.

/// Percentiles the tail rule may report, highest first: p99, or the
/// highest lower one that still has ten samples beyond it.
pub const TAIL_PERCENTILES: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Median of `v` (mean of the two middle values for an even count); `None`
/// when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `v`; `None` when empty.
pub fn quantile(v: &[f64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (pos - lo as f64))
}

/// The highest percentile in [`TAIL_PERCENTILES`] that has at least ten
/// samples beyond it among `n` samples: `n · (1 − p/100) ≥ 10`.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Metric-name suffix for a percentile: `99.0 → "p99"`, `99.5 → "p99.5"`.
pub fn percentile_label(p: f64) -> String {
    if p.fract() == 0.0 {
        format!("p{}", p as u64)
    } else {
        format!("p{p}")
    }
}

/// Wall-clock boundaries of a run's rounds: `starts[r]` is the instant
/// round `r` began (seconds from an arbitrary origin) and `starts[rounds]`
/// the end of the last round, so round `r` spans `starts[r]..starts[r+1]`.
#[derive(Debug, Clone, Default)]
pub struct RoundClock {
    pub starts: Vec<f64>,
}

impl RoundClock {
    /// Number of complete rounds the clock covers.
    pub fn rounds(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Wall time of round `r`.
    pub fn round_s(&self, r: u64) -> f64 {
        self.starts[r as usize + 1] - self.starts[r as usize]
    }

    /// Latency of a message whose sending began with round `sent` and whose
    /// acceptance ended with round `accepted`: from the start of the send
    /// round to the end of the accept round. `None` when either round lies
    /// outside the clock or the accept precedes the send.
    pub fn latency_s(&self, sent: u64, accepted: u64) -> Option<f64> {
        if accepted < sent || accepted as usize + 1 >= self.starts.len() {
            return None;
        }
        Some(self.starts[accepted as usize + 1] - self.starts[sent as usize])
    }
}

/// Per-node round clocks (the daemon: every node process keeps its own
/// boundaries). A message from `from` sent in round `s` and accepted by
/// `to` in round `a` spans from `from`'s start of `s` to `to`'s end of `a`.
pub fn cross_latency_s(
    from: &RoundClock,
    sent: u64,
    to: &RoundClock,
    accepted: u64,
) -> Option<f64> {
    if accepted < sent
        || sent as usize >= from.starts.len()
        || accepted as usize + 1 >= to.starts.len()
    {
        return None;
    }
    Some(to.starts[accepted as usize + 1] - from.starts[sent as usize])
}

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Adds one rep's operations. A rep that failed its correctness gate
    /// counts every one of its operations as failed.
    pub fn add(&mut self, attempted: u64, failed: u64, correct: bool) {
        self.attempted += attempted;
        self.failed += if correct { failed } else { attempted };
    }

    /// `failed / attempted`; a run with nothing attempted reports 1 (it
    /// cannot have met its purpose).
    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), Some(5.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1_000_000), Some(99.0));
    }

    #[test]
    fn percentile_labels() {
        assert_eq!(percentile_label(99.0), "p99");
        assert_eq!(percentile_label(99.5), "p99.5");
        assert_eq!(percentile_label(50.0), "p50");
    }

    #[test]
    fn latency_spans_send_round_start_to_accept_round_end() {
        // Rounds of 1 s, 2 s, 3 s, 4 s.
        let clock = RoundClock {
            starts: vec![10.0, 11.0, 13.0, 16.0, 20.0],
        };
        assert_eq!(clock.rounds(), 4);
        assert_eq!(clock.round_s(2), 3.0);
        // Sent in round 0, accepted in round 2: 10 → 16.
        assert_eq!(clock.latency_s(0, 2), Some(6.0));
        // Accepted in the send round: the round itself.
        assert_eq!(clock.latency_s(1, 1), Some(2.0));
        // The last round ends at the final boundary.
        assert_eq!(clock.latency_s(3, 3), Some(4.0));
        // Out of range or reversed.
        assert_eq!(clock.latency_s(0, 4), None);
        assert_eq!(clock.latency_s(2, 1), None);
    }

    #[test]
    fn cross_node_latency_uses_each_nodes_own_boundaries() {
        let a = RoundClock {
            starts: vec![0.0, 1.0, 2.0, 3.0],
        };
        let b = RoundClock {
            starts: vec![0.5, 1.5, 2.5, 3.5],
        };
        // a starts round 0 at 0.0; b ends round 1 at 2.5.
        assert_eq!(cross_latency_s(&a, 0, &b, 1), Some(2.5));
        assert_eq!(cross_latency_s(&b, 1, &a, 2), Some(1.5));
        assert_eq!(cross_latency_s(&a, 0, &b, 3), None);
        assert_eq!(cross_latency_s(&a, 2, &b, 1), None);
    }

    #[test]
    fn failed_ops_accounting() {
        let mut ops = Ops::default();
        assert_eq!(ops.ratio(), 1.0);
        // The service baseline: 100 of 906 offered signs unsigned.
        ops.add(906, 100, true);
        assert_eq!(
            ops,
            Ops {
                attempted: 906,
                failed: 100
            }
        );
        // The heartbeat baseline: 24 of 576 unaccepted.
        ops.add(576, 24, true);
        assert_eq!(ops.failed, 124);
        assert!((ops.ratio() - 124.0 / 1482.0).abs() < 1e-12);
        // A rep that fails its correctness gate fails all its operations.
        ops.add(50, 0, false);
        assert_eq!(
            ops,
            Ops {
                attempted: 1532,
                failed: 174
            }
        );
    }
}
