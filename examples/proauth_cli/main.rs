//! `proauth` — scenario runner CLI.
//!
//! Runs a configurable ULS network against a chosen adversary and prints a
//! full report; subcommands run the chaos sweep, the signing service, and
//! the multi-process daemon deployment. The flag sets live in [`COMMANDS`]:
//! a flag a subcommand does not take (`--help`, say) exits 2 and prints that
//! subcommand's flags, one help line each, plus the list of subcommands.
//!
//! ```text
//! cargo run -p proauth-examples --bin proauth -- [<subcommand>] [flags]
//! ```

mod daemon;
mod flags;
mod runs;
mod scenario;
mod supervisor;

use flags::*;

/// The scenario defaults (n, units, normal) of the service and daemon-mode
/// subcommands, and the scenario flags every daemon-mode process takes.
const NET: (usize, u64, u64) = (5, 2, 8);
const NET_SCENARIO: &[&str] = &[N, T, UNITS, NORMAL, SEED, GROUP, AUTH, ADDR];

/// Every subcommand: its flag set, the flags it requires, and its scenario
/// defaults. A mode switch in the name (`--clusters`, `--closed-loop`)
/// selects that flag set when it appears in the arguments.
#[rustfmt::skip]
pub static COMMANDS: &[Command] = &[
    Command { name: "proauth", about: "one ULS scenario under an adversary, with the full report",
        flags: &[&[N, T, UNITS, NORMAL, SEED, GROUP, AUTH, RUN]], required: &[],
        defaults: (5, 3, 12), run: runs::run_main },
    Command { name: "proauth --clusters", about: "the §6 two-level hierarchy: √n clusters",
        flags: &[&[CLUSTERS, N, UNITS, NORMAL, SEED, GROUP, AUTH, RUN]], required: &[],
        defaults: (16, 3, 12), run: runs::clusters_main },
    Command { name: "proauth chaos", about: "degradation sweep across the (s,t) boundary",
        flags: &[&[N, T, UNITS, NORMAL, SEED]], required: &[],
        defaults: (5, 4, 8), run: runs::chaos_main },
    Command { name: "proauth service", about: "the ALS signing service, open-loop workload",
        flags: &[&[N, T, UNITS, SEED, GROUP, SERVICE, OPEN_LOOP]], required: &[],
        defaults: NET, run: runs::service_main },
    Command { name: "proauth service --closed-loop", about: "latency vs offered load",
        flags: &[&[CLOSED_LOOP, N, T, UNITS, SEED, GROUP, SERVICE]], required: &[],
        defaults: NET, run: runs::closed_loop_main },
    Command { name: "proauth serve", about: "one node process of a daemon deployment",
        flags: &[NET_SCENARIO, &[SERVE, PACING]], required: &["addr", "node"],
        defaults: NET, run: daemon::serve_main },
    Command { name: "proauth proxy", about: "the chaos proxy: an adversarial router process",
        flags: &[NET_SCENARIO, &[CHAOS_NET, IDLE_TIMEOUT]], required: &["addr"],
        defaults: NET, run: daemon::proxy_main },
    Command { name: "proauth client", about: "the collector: prints the goodput report",
        flags: &[NET_SCENARIO, &[IDLE_TIMEOUT, STATUS]], required: &["addr"],
        defaults: NET, run: daemon::client_main },
    Command { name: "proauth daemon", about: "spawn and supervise a deployment",
        flags: &[NET_SCENARIO, &[CHAOS_NET, DAEMON, PACING, IDLE_TIMEOUT]], required: &[],
        defaults: NET, run: daemon::daemon_main },
    Command { name: "proauth top", about: "scrape a running daemon's live status endpoint",
        flags: &[&[ADDR, TOP]], required: &["addr"],
        defaults: NET, run: daemon::top_main },
];

/// The command `args` invoke, and the arguments after its subcommand word.
fn select(args: &[String]) -> (&'static Command, &[String]) {
    let (base, rest) = match args.first() {
        Some(word) if !word.starts_with("--") => (format!("proauth {word}"), &args[1..]),
        _ => ("proauth".to_owned(), args),
    };
    let Some(plain) = COMMANDS.iter().find(|c| c.name == base) else {
        eprintln!("unknown subcommand {}\n", args[0]);
        COMMANDS[0].usage()
    };
    let mode = COMMANDS.iter().find(|c| {
        c.name
            .strip_prefix(&base)
            .and_then(|m| m.strip_prefix(" --"))
            .is_some_and(|m| rest.iter().any(|a| a.strip_prefix("--") == Some(m)))
    });
    (mode.unwrap_or(plain), rest)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = select(&args);
    let flags = Flags::parse(cmd, rest).unwrap_or_else(|e| {
        eprintln!("{e}\n");
        cmd.usage()
    });
    (cmd.run)(&flags)
}
