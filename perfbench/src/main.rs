//! `perfbench` — the proauth benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload as a fixed number of complete scenario repetitions,
//! sized to take about `--seconds` seconds, applies the workload's
//! correctness gate to every repetition, and prints the metrics as the last
//! line of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. See
//! `perfbench/README.md`.

mod daemon;
mod engine;
mod json;
mod layers;
mod probes;
mod rep;
mod stats;
mod wrap;

use engine::RepKind;
use rep::{Rep, Typical};
use stats::{median, percentile_label, quantile, tail_percentile, Ops};
use std::process::exit;
use std::time::Instant;

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 4] = ["refresh-n13", "service-n13", "daemon-n3", "hier-n64"];

/// Extra set-up-only repetitions per timed run: `setup_s` is the median
/// over these and the full repetitions' set-ups.
const SETUP_REPS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench node <args>  (daemon-n3 child process)",
        WORKLOADS.join("|")
    );
    exit(2)
}

fn parse_args(raw: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds <= 0.0 {
        usage()
    }
    args
}

/// Wall seconds one full repetition of each workload takes on the host the
/// benchmark was tuned on (two CPUs); sizes the fixed work of a run.
fn nominal_rep_s(workload: &str) -> f64 {
    match workload {
        "refresh-n13" => 4.8,
        "service-n13" => 1.75,
        "daemon-n3" => 1.2,
        _ => 7.4,
    }
}

/// A run starts no repetition that would end it past this many times its
/// `--seconds`: on a host much slower than the nominal one it does less
/// work rather than overrun its time.
const OVERRUN: f64 = 1.25;

/// Whether a run that began at `start` and has made `done` repetitions may
/// start another, expecting it to take as long as their mean.
pub fn within_time(start: Instant, seconds: f64, done: usize, reps_s: f64) -> bool {
    let next_s = if done == 0 { 0.0 } else { reps_s / done as f64 };
    start.elapsed().as_secs_f64() + next_s <= OVERRUN * seconds
}

/// Repetitions of `cost` nominal repetitions each that fit into `seconds`
/// (at least one). Every run of a workload at the same `--seconds` does the
/// same work, so counts and memory compare across commits.
pub fn reps_for(workload: &str, seconds: f64, cost: f64) -> usize {
    ((seconds / (cost * nominal_rep_s(workload))).round() as usize).max(1)
}

/// Seed of repetition `i` of a run seeded `seed`.
pub fn rep_seed(seed: u64, i: usize) -> u64 {
    let d = proauth_primitives::sha256::hash_parts(
        "perfbench/rep-seed",
        &[&seed.to_be_bytes(), &(i as u64).to_be_bytes()],
    );
    u64::from_be_bytes(d[..8].try_into().expect("8 of 32 digest bytes"))
}

/// Runs one untraced repetition of `workload`.
fn run_rep(workload: &str, seed: u64, kind: RepKind) -> Rep {
    match workload {
        "refresh-n13" => engine::flat_rep(seed, false, kind).0,
        "hier-n64" => engine::hier_rep(seed, false, kind).0,
        "service-n13" => engine::service_rep(seed, false, kind).0,
        "daemon-n3" => daemon::daemon_rep(seed, false, kind),
        _ => unreachable!("workload names are validated at parse time"),
    }
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The tail quantile of `samples` (ms) under the tail rule, named after the
/// percentile actually used.
pub fn tail(name: &str, samples: &[f64]) -> Option<(String, f64, &'static str)> {
    let p = tail_percentile(samples.len())?;
    Some((
        format!("{name}_{}", percentile_label(p)),
        quantile(samples, p / 100.0)?,
        "ms",
    ))
}

/// Latency quantiles of a set of reps (the traced run reports them: they
/// do not repeat within a tenth between runs on a shared host, see README).
pub fn latency_metrics(reps: &[Rep]) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    for (name, samples) in [
        ("latency.auth_msg_ms", latencies_ms(reps, |r| &r.auth_lat)),
        ("latency.sign_ms", latencies_ms(reps, |r| &r.sign_lat)),
    ] {
        out.push((format!("{name}_p50"), median(&samples).unwrap_or(0.0), "ms"));
        out.extend(tail(name, &samples));
    }
    out
}

/// Latency samples of a set of reps, ms.
pub fn latencies_ms(reps: &[Rep], pick: fn(&Rep) -> &[f64]) -> Vec<f64> {
    reps.iter()
        .flat_map(|r| pick(r).iter().map(|s| s * 1e3))
        .collect()
}

/// End-to-end metrics over a timed run's repetitions. Times come from the
/// run's typical repetition (per-round medians, see [`rep::Typical`]);
/// counts are means over the repetitions.
fn end_to_end(
    reps: &[Rep],
    setups: &[f64],
    peak_rss: f64,
) -> (Vec<(String, f64, &'static str)>, Ops) {
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let (ops, line) = rep::op_counts(reps);
    let typical = Typical::of(reps).expect("a timed run has at least one rep");
    let per_rep = |total: u64| total as f64 / reps.len() as f64;
    let signed = per_rep(reps.iter().map(|r| r.signed).sum());
    let goodput = per_rep(reps.iter().map(|r| r.goodput_bytes).sum());
    let post = typical.post_s();

    out.push(("setup_s".into(), median(setups).unwrap_or(0.0), "s"));
    out.push(("refresh_unit_s".into(), typical.refresh_unit_s(), "s"));
    out.push((
        "rounds_per_s".into(),
        typical.rounds.len() as f64 / post,
        "1/s",
    ));
    out.push(("goodput_Bps".into(), goodput / post, "B/s"));
    out.push(("online_sig_s".into(), signed / typical.normal_s(), "1/s"));
    out.push(("sustained_sig_s".into(), signed / typical.total_s(), "1/s"));
    out.push(("ops_failed_ratio".into(), ops.ratio(), "ratio"));
    out.push(("peak_rss_mb".into(), peak_rss, "MiB"));
    (out, line)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("node") {
        daemon::node_main(&raw[1..]);
    }
    let args = parse_args(&raw);
    if args.trace {
        let result = layers::traced_run(&args.workload, args.seed, args.seconds);
        println!(
            "{}",
            json::result_line(result.correct, result.ops, &result.metrics)
        );
        return;
    }
    let start = Instant::now();
    // Set-up samples first, on seeds of their own.
    let mut setups: Vec<f64> = Vec::new();
    let mut setup_failures: Vec<String> = Vec::new();
    for i in 0..SETUP_REPS {
        let rep = run_rep(
            &args.workload,
            rep_seed(args.seed ^ 0x5E7_0000, i),
            RepKind::SetupOnly,
        );
        setups.push(rep.setup_s);
        setup_failures.extend(rep.failures);
    }
    let mut reps: Vec<Rep> = Vec::new();
    let mut reps_s = 0.0;
    for i in 0..reps_for(&args.workload, args.seconds, 1.0) {
        if !within_time(start, args.seconds, i, reps_s) {
            eprintln!("perfbench: time is up after {i} repetitions");
            break;
        }
        let rep_start = Instant::now();
        let rep = run_rep(&args.workload, rep_seed(args.seed, i), RepKind::Full);
        reps_s += rep_start.elapsed().as_secs_f64();
        eprintln!(
            "rep {i}: setup {:.3}s post-setup {:.3}s rounds {} {}",
            rep.setup_s,
            rep.post_s(),
            rep.clock.rounds(),
            if rep.correct() {
                "ok".to_owned()
            } else {
                format!("FAILED: {}", rep.failures.join("; "))
            }
        );
        setups.push(rep.setup_s);
        reps.push(rep);
    }
    for f in &setup_failures {
        eprintln!("set-up rep FAILED: {f}");
    }
    // The daemon's nodes run in processes of their own: the median over
    // repetitions of the largest one's peak.
    let node_rss: Vec<f64> = reps.iter().filter_map(|r| r.node_rss_mib).collect();
    let (metrics, ops) = end_to_end(
        &reps,
        &setups,
        median(&node_rss).unwrap_or_else(peak_rss_mib),
    );
    let correct = setup_failures.is_empty() && reps.iter().all(Rep::correct);
    for (name, v, unit) in &metrics {
        eprintln!("  {name:<22} {v:>14.4} {unit}");
    }
    println!("{}", json::result_line(correct, ops, &metrics));
}
