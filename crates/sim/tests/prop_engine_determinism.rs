//! Engine determinism across execution strategies.
//!
//! The persistent worker pool must be invisible in results: for any seed,
//! any worker count, and an *active* adversary (break-ins, memory wipes,
//! message drops, injections), `run_ul`/`run_al` must produce bit-identical
//! `SimResult`s. This is the load-bearing property behind `SimConfig::
//! parallel` — per-node state is disjoint, per-(node, round) randomness is
//! derived outside execution order, and slot results merge in `NodeId`
//! order.

use proauth_sim::adversary::{AlAdversary, BreakPlan, NetView, UlAdversary};
use proauth_sim::clock::{Schedule, TimeView};
use proauth_sim::message::{Envelope, NodeId, OutputEvent};
use proauth_sim::process::{Process, RoundCtx, SetupCtx};
use proauth_sim::runner::{run_al, run_ul, SimConfig, SimResult};
use proauth_sim::telemetry::{memory_contents, strip_wall_fields, Telemetry};
use std::any::Any;

/// A node whose behaviour is sensitive to everything that could diverge:
/// inbox contents, per-round randomness, ROM, and accumulated state.
struct Chatter {
    counter: u64,
}

impl Process for Chatter {
    fn on_setup_round(&mut self, ctx: &mut SetupCtx<'_>) {
        if ctx.setup_round == 0 {
            ctx.rom.write("tag", vec![ctx.me.0 as u8]);
        }
    }

    fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
        use rand::RngCore;
        self.counter = self
            .counter
            .wrapping_add(ctx.inbox.iter().map(|e| e.payload.len() as u64).sum());
        // External inputs (the client workload channel) must be just as
        // engine-invariant as inbox traffic.
        if let Some(input) = ctx.input {
            self.counter = input
                .iter()
                .fold(self.counter, |c, &b| c.wrapping_mul(31).wrapping_add(b as u64));
        }
        let tag = (ctx.rng.next_u64() % 251) as u8;
        let rom = ctx.rom.read("tag").map_or(0, |v| v[0]);
        ctx.send_all(vec![tag, (self.counter % 256) as u8, rom]);
        if self.counter % 7 == 3 {
            ctx.emit(OutputEvent::Alert);
        }
    }

    fn state_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Active UL adversary: rotates break-ins through the nodes, wipes broken
/// memory, crash-stops and restarts a second victim, drops a deterministic
/// subset of messages, and injects traffic in broken nodes' names.
struct Chaos;

fn rotating_target(round: u64, n: usize) -> NodeId {
    NodeId((round / 8 % n as u64) as u32 + 1)
}

/// A second victim, offset from the break-in target, for crash–restart.
fn crash_target(round: u64, n: usize) -> NodeId {
    NodeId::from_idx((rotating_target(round, n).idx() + 3) % n)
}

impl Chaos {
    fn chaos_plan(view: &NetView<'_>) -> BreakPlan {
        match view.time.round % 8 {
            1 => BreakPlan::break_into([rotating_target(view.time.round, view.n)]),
            2 => BreakPlan::crash([crash_target(view.time.round, view.n)]),
            5 => BreakPlan::leave([rotating_target(view.time.round, view.n)]),
            6 => BreakPlan::restart([crash_target(view.time.round, view.n)]),
            _ => BreakPlan::none(),
        }
    }

    fn chaos_corrupt(state: &mut dyn Any) {
        if let Some(node) = state.downcast_mut::<Chatter>() {
            node.counter = node.counter.wrapping_mul(3).wrapping_add(1);
        }
    }
}

impl UlAdversary for Chaos {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        Self::chaos_plan(view)
    }

    fn corrupt(&mut self, _node: NodeId, state: &mut dyn Any, _time: &TimeView) {
        Self::chaos_corrupt(state);
    }

    fn deliver(&mut self, sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        // Drop every 5th message; inject one in a broken node's name.
        let mut out: Vec<Envelope> = sent
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 5 != 4)
            .map(|(_, e)| e.clone())
            .collect();
        if let Some(b) = view.broken.iter().position(|&x| x) {
            let from = NodeId::from_idx(b);
            let to = NodeId::from_idx((b + 1) % view.n);
            out.push(Envelope::new(from, to, vec![0xEE, view.time.round as u8]));
        }
        out
    }
}

impl AlAdversary for Chaos {
    fn plan(&mut self, view: &NetView<'_>) -> BreakPlan {
        Self::chaos_plan(view)
    }

    fn corrupt(&mut self, _node: NodeId, state: &mut dyn Any, _time: &TimeView) {
        Self::chaos_corrupt(state);
    }

    fn broken_sends(&mut self, _honest_sent: &[Envelope], view: &NetView<'_>) -> Vec<Envelope> {
        match view.broken.iter().position(|&x| x) {
            Some(b) => {
                let from = NodeId::from_idx(b);
                let to = NodeId::from_idx((b + 1) % view.n);
                vec![Envelope::new(from, to, vec![0xA1, view.time.round as u8])]
            }
            None => Vec::new(),
        }
    }
}

fn cfg(seed: u64, n: usize, parallel: bool, threads: usize) -> SimConfig {
    let mut c = SimConfig::new(n, 2, Schedule::new(12, 3, 3));
    c.seed = seed;
    c.total_rounds = 30;
    c.setup_rounds = 2;
    c.parallel = parallel;
    c.threads = threads;
    c
}

fn assert_identical(a: &SimResult, b: &SimResult, label: &str) {
    assert_eq!(a.outputs, b.outputs, "{label}: outputs diverged");
    assert_eq!(a.stats, b.stats, "{label}: stats diverged");
    assert_eq!(
        a.final_operational, b.final_operational,
        "{label}: operational set diverged"
    );
    assert_eq!(a.roms, b.roms, "{label}: ROMs diverged");
    assert_eq!(
        a.adversary_output, b.adversary_output,
        "{label}: adversary output diverged"
    );
}

#[test]
fn ul_results_identical_for_all_pool_sizes() {
    let n = 8;
    for seed in 0..16u64 {
        let serial = run_ul(cfg(seed, n, false, 0), |_| Chatter { counter: 0 }, &mut Chaos);
        for threads in [1usize, 2, 8] {
            let pooled = run_ul(
                cfg(seed, n, true, threads),
                |_| Chatter { counter: 0 },
                &mut Chaos,
            );
            assert_identical(&serial, &pooled, &format!("ul seed {seed} threads {threads}"));
        }
    }
}

#[test]
fn al_results_identical_for_all_pool_sizes() {
    let n = 8;
    for seed in 0..16u64 {
        let serial = run_al(cfg(seed, n, false, 0), |_| Chatter { counter: 0 }, &mut Chaos);
        for threads in [1usize, 2, 8] {
            let pooled = run_al(
                cfg(seed, n, true, threads),
                |_| Chatter { counter: 0 },
                &mut Chaos,
            );
            assert_identical(&serial, &pooled, &format!("al seed {seed} threads {threads}"));
        }
    }
}

#[test]
fn pooled_ground_truth_matches_serial_at_large_n() {
    // n = 32 crosses POOLED_GROUND_TRUTH_MIN_N, exercising the pooled
    // reliability-matrix and operational-induction paths as well.
    let n = 32;
    for seed in [7u64, 42] {
        let serial = run_ul(cfg(seed, n, false, 0), |_| Chatter { counter: 0 }, &mut Chaos);
        let pooled = run_ul(cfg(seed, n, true, 4), |_| Chatter { counter: 0 }, &mut Chaos);
        assert_identical(&serial, &pooled, &format!("large-n seed {seed}"));
    }
}

#[test]
fn ul_results_and_traces_identical_with_telemetry_on() {
    // Telemetry must be invisible in results AND itself deterministic: for
    // every pool size the SimResult matches the telemetry-off serial run
    // bit-for-bit, and the recorded JSONL trace (minus wall-clock fields)
    // matches the serial-with-telemetry trace byte-for-byte.
    let n = 8;
    for seed in [0u64, 3, 11] {
        let baseline = run_ul(cfg(seed, n, false, 0), |_| Chatter { counter: 0 }, &mut Chaos);
        let traced = |parallel: bool, threads: usize| {
            let mut c = cfg(seed, n, parallel, threads);
            let (tele, buf) = Telemetry::with_memory_sink();
            c.telemetry = tele;
            let result = run_ul(c, |_| Chatter { counter: 0 }, &mut Chaos);
            (result, strip_wall_fields(&memory_contents(&buf)))
        };
        let (serial, serial_trace) = traced(false, 0);
        assert_identical(
            &baseline,
            &serial,
            &format!("seed {seed}: telemetry on vs off"),
        );
        assert!(!serial_trace.is_empty(), "trace recorded");
        for threads in [1usize, 2, 8] {
            let (pooled, pooled_trace) = traced(true, threads);
            assert_identical(
                &baseline,
                &pooled,
                &format!("seed {seed} threads {threads}: telemetry on"),
            );
            assert_eq!(
                serial_trace, pooled_trace,
                "seed {seed} threads {threads}: trace diverged"
            );
        }
    }
}

#[test]
fn results_identical_with_workload_generator_active() {
    // The open-loop client workload feeds per-(node, round) inputs into the
    // engine; with chaos still active, serial and every pool size must stay
    // bit-identical — in both models.
    use proauth_sim::runner::{run_al_with_inputs, run_ul_with_inputs};
    use proauth_sim::workload::{Workload, WorkloadConfig};
    let n = 8;
    for seed in [0u64, 3, 11] {
        let wl = Workload::new(WorkloadConfig::with_rate(seed ^ 0xB00B5, 2_500), n);
        let inputs = |id: NodeId, round: u64| wl.input(id, round);
        let serial_al = run_al_with_inputs(
            cfg(seed, n, false, 0),
            |_| Chatter { counter: 0 },
            &mut Chaos,
            inputs,
        );
        let serial_ul = run_ul_with_inputs(
            cfg(seed, n, false, 0),
            |_| Chatter { counter: 0 },
            &mut Chaos,
            inputs,
        );
        for threads in [1usize, 8] {
            let pooled_al = run_al_with_inputs(
                cfg(seed, n, true, threads),
                |_| Chatter { counter: 0 },
                &mut Chaos,
                inputs,
            );
            assert_identical(
                &serial_al,
                &pooled_al,
                &format!("workload al seed {seed} threads {threads}"),
            );
            let pooled_ul = run_ul_with_inputs(
                cfg(seed, n, true, threads),
                |_| Chatter { counter: 0 },
                &mut Chaos,
                inputs,
            );
            assert_identical(
                &serial_ul,
                &pooled_ul,
                &format!("workload ul seed {seed} threads {threads}"),
            );
        }
    }
}

#[test]
fn ul_results_identical_under_chaos_delivery() {
    // The shared chaos model on top of the active adversary — delays of up
    // to three rounds, duplication, and a partition held until it heals:
    // parked messages and their release order must be as engine-invariant
    // as everything else.
    use proauth_sim::chaos::{ChaosNet, ChaosSpec, FaultSchedule, PartitionWindow};
    let n = 8;
    for seed in [0u64, 5, 9, 21] {
        let spec = ChaosSpec {
            seed,
            delay_pct: 20,
            delay_max: 3,
            dup_pct: 10,
            reset_pct: 0,
            partition: Some(PartitionWindow {
                start: 6,
                end: 14,
                split: 3,
            }),
        };
        let run = |parallel: bool, threads: usize| {
            let mut adv = ChaosNet::new(Chaos, spec, FaultSchedule::default(), None, n);
            run_ul(
                cfg(seed, n, parallel, threads),
                |_| Chatter { counter: 0 },
                &mut adv,
            )
        };
        let serial = run(false, 0);
        assert!(
            serial.stats.messages_injected > 0,
            "seed {seed}: duplicates must fire"
        );
        for threads in [1usize, 4] {
            assert_identical(
                &serial,
                &run(true, threads),
                &format!("chaos seed {seed} threads {threads}"),
            );
        }
    }
}

#[test]
fn transcripts_identical_when_recorded() {
    let n = 6;
    let mk = |parallel: bool| {
        let mut c = cfg(3, n, parallel, 2);
        c.record_transcript = true;
        run_ul(c, |_| Chatter { counter: 0 }, &mut Chaos)
    };
    let (serial, pooled) = (mk(false), mk(true));
    let (ts, tp) = (
        serial.transcript.expect("serial transcript"),
        pooled.transcript.expect("pooled transcript"),
    );
    assert_eq!(ts.len(), tp.len());
    for (a, b) in ts.iter().zip(&tp) {
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.broken, b.broken);
        assert_eq!(a.operational, b.operational);
    }
}

#[test]
fn panicking_node_is_deterministic_across_pool_sizes() {
    // A node step that panics is caught and converted into a crash-stop by
    // the engine — in the slot, before results merge — so a panic must be
    // exactly as deterministic as any other fault, for every pool size.
    use proauth_sim::chaos::PanicOn;
    let n = 8;
    let make = |_: NodeId| PanicOn::at(Chatter { counter: 0 }, NodeId(4), 9);
    for seed in [0u64, 5, 13] {
        let serial = run_ul(cfg(seed, n, false, 0), make, &mut Chaos);
        assert_eq!(serial.stats.panics, 1, "seed {seed}: panic converted");
        assert!(serial.stats.crashes >= 1);
        assert!(serial.stats.crashed_rounds[NodeId(4).idx()] > 0);
        for threads in [1usize, 2, 8] {
            let pooled = run_ul(cfg(seed, n, true, threads), make, &mut Chaos);
            assert_identical(
                &serial,
                &pooled,
                &format!("panic seed {seed} threads {threads}"),
            );
            assert_eq!(serial.stats, pooled.stats);
        }
    }
}
