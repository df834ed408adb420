//! E15 — observability-plane overhead (supplementary): what the daemon
//! deployment pays, per node per round, for live health beacons, metrics
//! deltas, and the collector's merge + status rendering.
//!
//! Not a paper claim: CHH97 have no deployment story. The claim under test
//! is ours — the observability plane (PR 9) must cost **≤ 2% of a 250 ms
//! round budget** on both the node side and the collector side, so leaving
//! it on by default in daemon mode is free in any wall-clock-paced
//! deployment.
//!
//! Measured components, on a registry shaped like a real ULS node's
//! (~16 counters across `uls/`, `pa/`, `disperse/`, `pds/`, plus transport
//! counters and a round-pacing value histogram):
//!
//! * **node fold**: snapshot → `delta_since(prev)` → wire-encode the
//!   `Metrics` frame — the per-round work `stream_observability` does;
//! * **beacon**: encode + decode of one `HealthBeacon` frame;
//! * **collector merge**: decode + `apply_to` of one node's delta into the
//!   live registries (×n per round at the collector);
//! * **status render**: one full Prometheus / JSON / `top` rendering at
//!   n = 13 (on demand, per scrape, not per round);
//! * **alarm promotion**: scanning a delta against the watched-counter
//!   table and constructing the alarm frames.
//!
//! Rows report ns/op and the percentage of a 250 ms round the per-round
//! pieces consume; the bench fails if node-side or collector-side per-round
//! cost exceeds 2%. Run `CRITERION_JSON=BENCH_e15.json cargo bench --bench
//! e15_observability` to regenerate the recorded baseline.

use proauth_bench::print_table;
use proauth_primitives::wire::{Decode, Encode, Reader, Writer};
use proauth_sim::message::NodeId;
use proauth_sim::net::{HealthBeacon, LiveState, NetMsg};
use proauth_sim::telemetry::{intern_name, MetricsSnapshot, Registry};
use std::io::Write as _;
use std::time::Instant;

/// The shape of a real ULS node's registry after a busy round.
const COUNTERS: &[(&str, u64)] = &[
    ("uls/accepted", 4),
    ("uls/sig_sent", 12),
    ("uls/certs_checked", 16),
    ("uls/announces", 1),
    ("pa/accepted_values", 2),
    ("pa/decided", 1),
    ("pa/evidence", 4),
    ("disperse/sends", 14),
    ("disperse/relays", 26),
    ("disperse/delivered", 13),
    ("disperse/dedup_suppressed", 26),
    ("disperse/bytes", 1680),
    ("pds/sign_started", 1),
    ("pds/sign_completed", 1),
    ("pds/nonce_pool_hit", 1),
    ("net/late_frames", 2),
];

const ROUND_NS: f64 = 250_000_000.0;
const N: usize = 13;

/// Builds a registry and advances it one "round", returning snapshots
/// before and after.
fn one_round(reg: &Registry) -> (MetricsSnapshot, MetricsSnapshot) {
    let before = reg.snapshot();
    for (name, v) in COUNTERS {
        reg.add(intern_name(name), *v);
    }
    reg.observe_value(intern_name("net/round_ms"), 250);
    (before, reg.snapshot())
}

/// ns/op over `iters` runs of `f`.
fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn beacon() -> HealthBeacon {
    HealthBeacon {
        node: 7,
        round: 42,
        round_ms: 250,
        lag_ms: 3,
        inbox_depth: 24,
        late_frames: 2,
        delayed_frames: 2,
        mark_timeouts: 0,
        peers_live: 12,
        sent_round: 36,
        alerts_round: 0,
    }
}

fn encode_msg(msg: &NetMsg) -> Vec<u8> {
    let mut w = Writer::new();
    msg.encode(&mut w);
    w.into_bytes()
}

fn main() {
    let iters: u64 = 20_000;

    // Node-side fold: snapshot + delta + Metrics-frame encode.
    let reg = Registry::default();
    let (prev, snap) = one_round(&reg);
    let delta = snap.delta_since(&prev);
    let frame = encode_msg(&NetMsg::Metrics {
        node: 7,
        round: 42,
        delta: delta.clone(),
    });
    let fold_ns = time_ns(iters, || {
        let (prev, snap) = one_round(&reg);
        let delta = snap.delta_since(&prev);
        std::hint::black_box(encode_msg(&NetMsg::Metrics {
            node: 7,
            round: 42,
            delta,
        }));
    });

    // Beacon encode + decode.
    let beacon_frame = encode_msg(&NetMsg::Beacon(beacon()));
    let beacon_ns = time_ns(iters, || {
        let bytes = encode_msg(&NetMsg::Beacon(beacon()));
        let mut r = Reader::new(&bytes);
        std::hint::black_box(NetMsg::decode(&mut r).expect("beacon roundtrip"));
    });

    // Collector-side merge: decode one Metrics frame + apply to live state.
    let mut live = LiveState::new(N, (N - 1) / 2, 44);
    let merge_ns = time_ns(iters, || {
        let mut r = Reader::new(&frame);
        let NetMsg::Metrics { delta, .. } = NetMsg::decode(&mut r).expect("delta roundtrip")
        else {
            unreachable!()
        };
        live.on_metrics(6, &delta);
    });

    // Alarm promotion: scan the delta against the watched counters.
    let watched = ["uls/rejected", "uls/alerts", "adversary/break_ins", "adversary/wipes"];
    let alarm_ns = time_ns(iters, || {
        let hits = watched
            .iter()
            .filter(|name| delta.counters.contains_key(**name))
            .count();
        std::hint::black_box(hits);
    });

    // Status rendering at n = 13 with beacons and a populated registry.
    for idx in 0..N {
        let mut b = beacon();
        b.node = idx as u32 + 1;
        live.on_beacon(idx, b);
        live.on_metrics(idx, &delta);
    }
    let render_iters = 2_000;
    let prom_ns = time_ns(render_iters, || {
        std::hint::black_box(live.render_prometheus());
    });
    let json_ns = time_ns(render_iters, || {
        std::hint::black_box(live.render_json());
    });
    let top_ns = time_ns(render_iters, || {
        std::hint::black_box(live.render_top());
    });

    // Per-round budgets: a node folds once and beacons once; the collector
    // merges n deltas and n beacons.
    let node_round_ns = fold_ns + beacon_ns;
    let collector_round_ns = (merge_ns + beacon_ns + alarm_ns) * N as f64;
    let node_pct = 100.0 * node_round_ns / ROUND_NS;
    let collector_pct = 100.0 * collector_round_ns / ROUND_NS;

    let pct = |ns: f64| format!("{:.4}%", 100.0 * ns / ROUND_NS);
    print_table(
        &format!("E15 — observability overhead (n = {N}, 250 ms round budget)"),
        &["component", "ns/op", "bytes", "% of round"],
        &[
            vec![
                "node fold (snapshot+delta+encode)".into(),
                format!("{fold_ns:.0}"),
                frame.len().to_string(),
                pct(fold_ns),
            ],
            vec![
                "beacon encode+decode".into(),
                format!("{beacon_ns:.0}"),
                beacon_frame.len().to_string(),
                pct(beacon_ns),
            ],
            vec![
                "collector merge (decode+apply)".into(),
                format!("{merge_ns:.0}"),
                "-".into(),
                pct(merge_ns),
            ],
            vec![
                "alarm promotion scan".into(),
                format!("{alarm_ns:.0}"),
                "-".into(),
                pct(alarm_ns),
            ],
            vec![
                "render prometheus (per scrape)".into(),
                format!("{prom_ns:.0}"),
                live.render_prometheus().len().to_string(),
                "-".into(),
            ],
            vec![
                "render json (per scrape)".into(),
                format!("{json_ns:.0}"),
                live.render_json().len().to_string(),
                "-".into(),
            ],
            vec![
                "render top (per scrape)".into(),
                format!("{top_ns:.0}"),
                live.render_top().len().to_string(),
                "-".into(),
            ],
            vec![
                "node per-round total".into(),
                format!("{node_round_ns:.0}"),
                "-".into(),
                format!("{node_pct:.4}%"),
            ],
            vec![
                format!("collector per-round total (×{N})"),
                format!("{collector_round_ns:.0}"),
                "-".into(),
                format!("{collector_pct:.4}%"),
            ],
        ],
    );

    let _ = NodeId(1); // keep the sim import honest if the table changes

    assert!(
        node_pct <= 2.0,
        "node-side observability must cost <= 2% of a 250ms round (got {node_pct:.4}%)"
    );
    assert!(
        collector_pct <= 2.0,
        "collector-side observability must cost <= 2% of a 250ms round (got {collector_pct:.4}%)"
    );
    println!(
        "\nE15 PASSED: node {node_pct:.4}% and collector {collector_pct:.4}% of the round budget \
         (<= 2% each)"
    );

    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(path) {
            let lines = [
                format!(
                    "{{\"id\": \"e15/node_fold\", \"ns\": {fold_ns:.0}, \"bytes\": {}}}",
                    frame.len()
                ),
                format!(
                    "{{\"id\": \"e15/beacon\", \"ns\": {beacon_ns:.0}, \"bytes\": {}}}",
                    beacon_frame.len()
                ),
                format!("{{\"id\": \"e15/collector_merge\", \"ns\": {merge_ns:.0}}}"),
                format!("{{\"id\": \"e15/alarm_scan\", \"ns\": {alarm_ns:.0}}}"),
                format!("{{\"id\": \"e15/render_prometheus\", \"ns\": {prom_ns:.0}}}"),
                format!("{{\"id\": \"e15/render_json\", \"ns\": {json_ns:.0}}}"),
                format!("{{\"id\": \"e15/render_top\", \"ns\": {top_ns:.0}}}"),
                format!(
                    "{{\"id\": \"e15/round_budget\", \"n\": {N}, \"node_pct\": {node_pct:.4}, \
                     \"collector_pct\": {collector_pct:.4}}}"
                ),
            ];
            for line in lines {
                let _ = writeln!(file, "{line}");
            }
        }
    }
}
