//! One repetition of a workload scenario and the end-to-end figures derived
//! from it, shared by the engine and daemon backends.

use crate::stats::{median, Ops, RoundClock};
use crate::wrap::Step;
use proauth_sim::clock::{Phase, Schedule};
use proauth_sim::message::{NodeId, OutputEvent, OutputLog};
use proauth_telemetry::MetricsSnapshot;
use std::collections::HashMap;

/// Raw material of the per-layer metrics (traced reps only).
#[derive(Default)]
pub struct Traced {
    /// Node step spans (parent: their round).
    pub steps: Vec<Step>,
    /// Worker threads (engine) or node processes (daemon) that ran steps.
    pub workers: usize,
    pub adversary_s: f64,
    /// Registry snapshots at phase starts: `(first round, phase, snapshot)`.
    pub phase_snaps: Vec<(u64, &'static str, MetricsSnapshot)>,
    /// Registry at the end of the run.
    pub end_snap: MetricsSnapshot,
    pub msgs: u64,
    pub bytes: u64,
    /// Sampled envelope payloads for the wire probe.
    pub captured: Vec<Vec<u8>>,
    /// The flight-recorder trace (JSONL).
    pub trace: String,
    /// Transport counters (daemon only): name → value.
    pub net: Vec<(&'static str, f64)>,
}

/// One repetition's measurements.
pub struct Rep {
    /// Start of the run to the first normal round.
    pub setup_s: f64,
    /// Start of the run to its end.
    pub total_s: f64,
    /// Post-setup round boundaries.
    pub clock: RoundClock,
    pub schedule: Schedule,
    /// Authenticated messages: latency samples (s) and accounting.
    pub auth_lat: Vec<f64>,
    pub auth: Ops,
    /// Signatures: latency samples (s) and accounting (requests offered
    /// vs. signed; empty accounting where signing is not request-driven).
    pub sign_lat: Vec<f64>,
    pub signs: Ops,
    /// Distinct signed messages (online/sustained numerator).
    pub signed: u64,
    /// Accepted authenticated payload bytes.
    pub goodput_bytes: u64,
    /// Peak resident memory of the largest node process, MiB (daemon reps;
    /// the engine's nodes live in the benchmark process).
    pub node_rss_mib: Option<f64>,
    /// Correctness failures (empty = the rep passed its gate).
    pub failures: Vec<String>,
    pub traced: Option<Traced>,
}

impl Rep {
    pub fn post_s(&self) -> f64 {
        let s = &self.clock.starts;
        s[s.len() - 1] - s[0]
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Operations issued (heartbeats sent plus sign requests offered) and
    /// how many were never accepted or signed.
    pub fn ops(&self) -> (u64, u64) {
        (
            self.auth.attempted + self.signs.attempted,
            self.auth.failed + self.signs.failed,
        )
    }
}

/// The typical repetition of a run: every round's wall time is the median
/// of that round over the run's repetitions. All repetitions of a workload
/// run the same schedule, so round `r` does comparable work in each; a
/// stretch of host contention that slows part of one repetition then leaves
/// the figures alone, where a total over the repetitions carries it in full.
pub struct Typical {
    /// Median wall time of each post-setup round.
    pub rounds: Vec<f64>,
    /// Median wall time of each round position of a refresh-bearing unit,
    /// over every complete unit ≥ 1 of every repetition; empty when the
    /// scenario has no such unit.
    pub refresh_unit: Vec<f64>,
    /// Median wall time outside the post-setup rounds (set-up, tear-down).
    pub outside_s: f64,
    pub schedule: Schedule,
}

impl Typical {
    /// The typical repetition of `reps`, over those that ran the full
    /// schedule (a repetition that failed early is counted in the
    /// operations, not here); `None` without any.
    pub fn of(reps: &[Rep]) -> Option<Self> {
        let n = reps.iter().map(|r| r.clock.rounds()).max()?;
        let full: Vec<&Rep> = reps.iter().filter(|r| r.clock.rounds() == n).collect();
        let schedule = full.first()?.schedule;
        let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
        let rounds = (0..n as u64)
            .map(|r| med(full.iter().map(|x| x.clock.round_s(r)).collect()))
            .collect();
        let u = schedule.unit_rounds as usize;
        let units = n / u;
        let refresh_unit = if units < 2 {
            Vec::new()
        } else {
            (0..u)
                .map(|p| {
                    med(full
                        .iter()
                        .flat_map(|x| (1..units).map(move |k| x.clock.round_s((k * u + p) as u64)))
                        .collect())
                })
                .collect()
        };
        let outside_s = med(full.iter().map(|x| x.total_s - x.post_s()).collect());
        Some(Typical {
            rounds,
            refresh_unit,
            outside_s,
            schedule,
        })
    }

    /// Post-setup wall time.
    pub fn post_s(&self) -> f64 {
        self.rounds.iter().sum()
    }

    /// Wall time of the normal-phase rounds.
    pub fn normal_s(&self) -> f64 {
        self.rounds
            .iter()
            .enumerate()
            .filter(|&(r, _)| self.schedule.phase_of(r as u64) == Phase::Normal)
            .map(|(_, s)| s)
            .sum()
    }

    /// Wall time of one refresh-bearing unit.
    pub fn refresh_unit_s(&self) -> f64 {
        self.refresh_unit.iter().sum()
    }

    /// Start to end of the run.
    pub fn total_s(&self) -> f64 {
        self.outside_s + self.post_s()
    }
}

/// Operation accounting of a set of reps: the `ops_failed_ratio` counts
/// (unaccepted heartbeats and unsigned requests are failures, as are all
/// operations of a rep that failed its gate) and the result line's counts
/// (only operations of a rep that failed its gate: a heartbeat in flight
/// across a refresh or past the last round is dropped by design, not in
/// error).
pub fn op_counts<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> (Ops, Ops) {
    let (mut ratio, mut line) = (Ops::default(), Ops::default());
    for r in reps {
        let (attempted, failed) = r.ops();
        ratio.add(attempted, failed, r.correct());
        line.add(attempted, 0, r.correct());
    }
    (ratio, line)
}

/// Locates a node's heartbeat endpoint: `(cluster, local id)`. The flat
/// stack is one cluster addressed by global id; the hierarchy's heartbeats
/// run inside clusters with cluster-local ids.
pub type Locate<'a> = &'a dyn Fn(NodeId) -> (u32, u32);

/// Heartbeat (AUTH-SEND) accounting over a run's output logs. `latency`
/// maps `(sender, send round, receiver, accept round)` to seconds. Returns
/// the latency samples, the send-round durations (the signing span of each
/// heartbeat) and the accounting: every `Sent` is attempted, every `Sent`
/// without a matching `Accepted` failed.
pub fn heartbeats(
    outputs: &[OutputLog],
    locate: Locate<'_>,
    latency: &dyn Fn(NodeId, u64, NodeId, u64) -> Option<f64>,
    send_round_s: &dyn Fn(NodeId, u64) -> Option<f64>,
) -> (Vec<f64>, Vec<f64>, Ops, u64) {
    // (cluster, from local, to local, msg) → (receiver, accept round)
    type Key<'a> = (u32, u32, u32, &'a [u8]);
    let mut accepted: HashMap<Key<'_>, (NodeId, u64)> = HashMap::new();
    let mut bytes = 0u64;
    for (idx, log) in outputs.iter().enumerate() {
        let me = NodeId::from_idx(idx);
        let (c, local) = locate(me);
        for (round, ev) in log {
            if let OutputEvent::Accepted { from, msg } = ev {
                bytes += msg.len() as u64;
                accepted
                    .entry((c, from.0, local, msg.as_slice()))
                    .or_insert((me, *round));
            }
        }
    }
    let mut lat = Vec::new();
    let mut sign = Vec::new();
    let mut ops = Ops::default();
    for (idx, log) in outputs.iter().enumerate() {
        let me = NodeId::from_idx(idx);
        let (c, local) = locate(me);
        for (round, ev) in log {
            if let OutputEvent::Sent { to, msg } = ev {
                ops.attempted += 1;
                if let Some(s) = send_round_s(me, *round) {
                    sign.push(s);
                }
                match accepted.get(&(c, local, to.0, msg.as_slice())) {
                    Some(&(rx, a)) => {
                        if let Some(l) = latency(me, *round, rx, a) {
                            lat.push(l);
                        }
                    }
                    None => ops.failed += 1,
                }
            }
        }
    }
    (lat, sign, ops, bytes)
}

/// Alerts across all logs.
pub fn alerts(outputs: &[OutputLog]) -> usize {
    outputs
        .iter()
        .flatten()
        .filter(|(_, e)| *e == OutputEvent::Alert)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(round: u64, to: u32, msg: &str) -> (u64, OutputEvent) {
        (
            round,
            OutputEvent::Sent {
                to: NodeId(to),
                msg: msg.as_bytes().to_vec(),
            },
        )
    }

    fn acc(round: u64, from: u32, msg: &str) -> (u64, OutputEvent) {
        (
            round,
            OutputEvent::Accepted {
                from: NodeId(from),
                msg: msg.as_bytes().to_vec(),
            },
        )
    }

    #[test]
    fn heartbeats_match_send_to_accept_and_count_the_unaccepted() {
        let clock = RoundClock {
            starts: vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        };
        let outputs = vec![
            vec![
                sent(0, 2, "hb:1:0"),
                sent(2, 2, "hb:1:1"),
                sent(4, 2, "hb:1:2"),
            ],
            vec![acc(2, 1, "hb:1:0"), acc(4, 1, "hb:1:1")],
        ];
        let flat = |id: NodeId| (0, id.0);
        let (lat, sign, ops, bytes) = heartbeats(
            &outputs,
            &flat,
            &|_, s, _, a| clock.latency_s(s, a),
            &|_, s| Some(clock.round_s(s)),
        );
        assert_eq!(lat, vec![3.0, 3.0]);
        assert_eq!(sign, vec![1.0, 1.0, 1.0]);
        assert_eq!(
            ops,
            Ops {
                attempted: 3,
                failed: 1
            }
        );
        assert_eq!(bytes, 12);
    }

    #[test]
    fn clustered_heartbeats_match_within_their_cluster_only() {
        // Two clusters of two; local ids 1 and 2 in each. Node 3 (cluster
        // 1, local 1) accepts the same bytes from local 1, but only node 2
        // (cluster 0, local 2) is the addressee of node 1's heartbeat.
        let outputs = vec![
            vec![sent(0, 2, "hb:1:0")],
            vec![acc(1, 1, "hb:1:0")],
            vec![sent(0, 2, "hb:1:0")],
            vec![],
        ];
        let locate = |id: NodeId| ((id.0 - 1) / 2, (id.0 - 1) % 2 + 1);
        let (lat, _, ops, _) = heartbeats(
            &outputs,
            &locate,
            &|_, s, _, a| Some((a - s) as f64),
            &|_, _| None,
        );
        assert_eq!(lat, vec![1.0]);
        assert_eq!(
            ops,
            Ops {
                attempted: 2,
                failed: 1
            }
        );
    }

    fn rep_with(auth: Ops, signs: Ops, failures: Vec<String>) -> Rep {
        Rep {
            setup_s: 0.0,
            total_s: 0.0,
            clock: RoundClock {
                starts: vec![0.0, 1.0],
            },
            schedule: Schedule::new(4, 1, 1),
            auth_lat: vec![],
            auth,
            sign_lat: vec![],
            signs,
            signed: 0,
            goodput_bytes: 0,
            node_rss_mib: None,
            failures,
            traced: None,
        }
    }

    #[test]
    fn op_counts_split_the_ratio_from_the_result_line() {
        let reps = [
            // 24 of 576 heartbeats unaccepted, gate passed.
            rep_with(
                Ops {
                    attempted: 576,
                    failed: 24,
                },
                Ops::default(),
                vec![],
            ),
            // 100 of 906 offered signs unsigned, gate passed.
            rep_with(
                Ops::default(),
                Ops {
                    attempted: 906,
                    failed: 100,
                },
                vec![],
            ),
            // A rep that failed its gate: every operation failed.
            rep_with(
                Ops {
                    attempted: 50,
                    failed: 0,
                },
                Ops::default(),
                vec!["1 alerts".into()],
            ),
        ];
        let (ratio, line) = op_counts(&reps);
        assert_eq!(
            ratio,
            Ops {
                attempted: 1532,
                failed: 174
            }
        );
        assert_eq!(
            line,
            Ops {
                attempted: 1532,
                failed: 50
            }
        );
    }

    fn timed_rep(schedule: Schedule, starts: Vec<f64>, outside_s: f64) -> Rep {
        let post = starts[starts.len() - 1] - starts[0];
        Rep {
            setup_s: outside_s,
            total_s: outside_s + post,
            clock: RoundClock { starts },
            schedule,
            auth_lat: vec![],
            auth: Ops::default(),
            sign_lat: vec![],
            signs: Ops::default(),
            signed: 0,
            goodput_bytes: 0,
            node_rss_mib: None,
            failures: vec![],
            traced: None,
        }
    }

    #[test]
    fn typical_rep_takes_per_round_medians_and_follows_the_schedule() {
        // Units of 4 rounds: 2 refresh (1 + 1) and 2 normal; 3 units.
        // Rounds 0..4 take 1 s, round 4 takes 6 s, the rest 2 s.
        let schedule = Schedule::new(4, 1, 1);
        let starts: Vec<f64> = (0..=12)
            .map(|r| r as f64 * if r > 4 { 2.0 } else { 1.0 })
            .collect();
        // The third repetition ran three times slower throughout; a
        // repetition that failed early has a shorter clock and is left out.
        let slow: Vec<f64> = starts.iter().map(|s| 3.0 * s).collect();
        let mut failed = timed_rep(schedule, vec![0.0, 0.0], 0.0);
        failed.failures.push("gate".into());
        let reps = [
            timed_rep(schedule, starts.clone(), 0.5),
            timed_rep(schedule, starts, 0.5),
            timed_rep(schedule, slow, 1.5),
            failed,
        ];
        let t = Typical::of(&reps).expect("full reps");
        assert_eq!(t.rounds.len(), 12);
        assert_eq!(t.post_s(), 4.0 + 6.0 + 7.0 * 2.0);
        // Normal rounds: 0..4 (unit 0), 6, 7, 10, 11.
        assert_eq!(t.normal_s(), 4.0 + 2.0 * 4.0);
        // Position 0 of units 1 and 2 over the three reps: 6, 2, 6, 2, 18,
        // 6 has median 6; the other positions 2.
        assert_eq!(t.refresh_unit, vec![6.0, 2.0, 2.0, 2.0]);
        assert_eq!(t.refresh_unit_s(), 12.0);
        assert_eq!(t.total_s(), 0.5 + 24.0);
        // A two-unit scenario has one refresh-bearing unit; one unit none.
        let one = timed_rep(schedule, (0..=4).map(f64::from).collect(), 0.0);
        assert!(Typical::of(&[one]).expect("rep").refresh_unit.is_empty());
        assert!(Typical::of(&[]).is_none());
    }
}
