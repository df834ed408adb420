//! Flag specs and per-subcommand flag sets.
//!
//! Every flag is declared once as one line of usage text, `--name <value>
//! help` (a switch has no `<value>`); every subcommand is a [`Command`]
//! listing the flag lines it takes. Parsing and `usage` both read that one
//! spec, so a flag outside a subcommand's set is rejected (exit 2) instead
//! of being silently ignored.

use proauth_crypto::group::GroupId;
use std::collections::HashMap;
use std::process::exit;

// The scenario (see `Scenario`): each subcommand takes the part that applies.
pub const N: &str = "--n <int>               nodes";
pub const T: &str = "--t <int>               threshold, n >= 2t+1 (default (n-1)/2)";
pub const UNITS: &str = "--units <int>           time units to simulate";
pub const NORMAL: &str = "--normal <int>          normal-operation rounds per unit, even";
pub const SEED: &str = "--seed <int>            master seed (default 0)";
pub const GROUP: &str = "--group <id>            Schnorr group preset";
pub const AUTH: &str = "--auth <mode>           sign | mac (default sign)";
pub const ADDR: &str = "--addr <plan>           unix:DIR or tcp:HOST:PORT (daemon: a temp dir)";

/// The in-process runs.
pub const RUN: &str = "\
--adversary <name>      none | drop:<pct> | replay | isolate:<node> | wipe:<node> | hijack:<node>
--trace <path>          write the JSONL flight-recorder trace (PROAUTH_TRACE works too)
--parallel              run nodes on worker threads
--verbose               print every output event";
pub const CLUSTERS: &str =
    "--clusters              the §6 hierarchy; adversary none | drop | replay | isolate only";

/// The signing service.
pub const SERVICE: &str = "\
--window <int>          batch-verify window, 1 disables amortization (default 8)
--preprocess            nonce preprocessing + Lagrange precompute
--parallel              run nodes on worker threads";
pub const OPEN_LOOP: &str = "\
--rate <int>            mean offered milli-ops per round (default 2000)
--mix <spec>            op mix, e.g. sign=8,verify=1,refresh=0.01 (default sign=3,verify=1)";
pub const CLOSED_LOOP: &str = "\
--closed-loop           sweep the outstanding-request window instead
--windows <list>        windows to sweep (default 1,2,4,8,16,32)";

/// The proxy's chaos knobs (see `ChaosSpec`).
pub const CHAOS_NET: &str = "\
--chaos-seed <int>      chaos decision seed (default 0)
--delay <pct>           round frames delayed by extra rounds (default 0)
--delay-max <rounds>    most extra rounds a delayed frame is held (default 2)
--dup <pct>             round frames duplicated (default 0)
--reset <pct>           (round, node) links reset mid-frame (default 0)
--partition <s:e:k>     cut nodes <= k from nodes > k during rounds [s, e)";

/// Round pacing and durable state, for `serve` and `daemon` alike.
pub const PACING: &str = "\
--round-ms <ms>         round deadline (default: serve 250, daemon 1000)
--min-round-ms <ms>     minimum wall time per round (default 0)
--adaptive              bounded AIMD round pacing
--adapt-floor-ms <ms>   adaptive pacing floor (default 20)
--state-dir <dir>       durable node state: a restarted node rejoins from it";

/// What a node process does besides the scenario (see `NodeNetConfig`).
pub const SERVE: &str = "\
--node <id>             this process's node id, 1..=n
--via-proxy             route round traffic through the chaos proxy
--report                stream events to the collector
--connect-timeout <ms>  give up dialing peers after this long (default 30000)
--telemetry             stream per-round metrics deltas and health beacons
--stream-trace          stream flight-recorder events to the collector";

/// The orchestrator's own knobs.
pub const DAEMON: &str = "\
--check                 verify the outcome against the in-process engine
--trace <path>          write the collector-assembled cluster trace
--kill <plan>           SIGKILL nodes: auto | node:round,... (needs --state-dir)
--truncate-state        corrupt each victim's watermark before its respawn
--max-restarts <k>      restart budget per node per window (default 3)
--restart-window <s>    restart budget window in seconds (default 60)
--backoff-ms <ms>       respawn backoff base, doubling per attempt (default 100)
--hosts <file>          multi-host manifest, lines `<label> <lo>-<hi>`
--local <label>         the manifest label this host spawns";

pub const IDLE_TIMEOUT: &str = "--idle-timeout <ms>     give up after this long without traffic";
pub const STATUS: &str = "--status                serve the live status endpoint";
pub const TOP: &str = "\
--view <name>           metrics | json | top (default top)
--once                  print one snapshot and exit
--interval <ms>         refresh interval (default 1000)";

/// A flag line's name and whether it takes a value.
fn spec(line: &str) -> (&str, bool) {
    let mut words = line.split_whitespace();
    let name = words
        .next()
        .and_then(|w| w.strip_prefix("--"))
        .expect("flag line");
    (name, words.next().is_some_and(|w| w.starts_with('<')))
}

/// A subcommand and the flag lines it takes, in groups.
pub struct Command {
    /// How the user invokes it, e.g. `proauth service --closed-loop`.
    pub name: &'static str,
    pub about: &'static str,
    pub flags: &'static [&'static [&'static str]],
    /// Flags that must be given.
    pub required: &'static [&'static str],
    /// Scenario defaults: n, units, normal (`t` defaults to `(n-1)/2`).
    pub defaults: (usize, u64, u64),
    pub run: fn(&Flags) -> !,
}

impl Command {
    fn lines(&self) -> impl Iterator<Item = &'static str> {
        self.flags
            .iter()
            .copied()
            .flatten()
            .flat_map(|group| group.lines())
    }

    /// The named flag's spec: its name and whether it takes a value.
    fn flag(&self, name: &str) -> Option<(&'static str, bool)> {
        self.lines().map(spec).find(|(n, _)| *n == name)
    }

    /// Prints the command's flag set to stderr and exits 2.
    pub fn usage(&self) -> ! {
        eprintln!("usage: {} [flags]\n  {}\n\nflags:", self.name, self.about);
        let (n, units, normal) = self.defaults;
        let groups: Vec<String> = GroupId::ALL.iter().map(ToString::to_string).collect();
        for line in self.lines() {
            let more = match spec(line).0 {
                "n" => format!(" (default {n})"),
                "units" => format!(" (default {units})"),
                "normal" => format!(" (default {normal})"),
                "group" => format!(": {} (default {})", groups.join(" | "), groups[0]),
                _ => String::new(),
            };
            eprintln!("  {line}{more}");
        }
        eprintln!("\ncommands:");
        for c in crate::COMMANDS {
            eprintln!("  {:<30} {}", c.name, c.about);
        }
        exit(2)
    }
}

/// The flags of one invocation, checked against its command's flag set.
pub struct Flags {
    pub cmd: &'static Command,
    values: HashMap<&'static str, String>,
}

impl Flags {
    /// Parses `args` (the words after the subcommand) against `cmd`'s flag
    /// set.
    pub fn parse(cmd: &'static Command, args: &[String]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument: {arg}"));
            };
            let Some((name, takes_value)) = cmd.flag(key) else {
                return Err(if crate::COMMANDS.iter().any(|c| c.flag(key).is_some()) {
                    format!("--{key} is not accepted by {}", cmd.name)
                } else {
                    format!("unknown option --{key}")
                });
            };
            let value = if takes_value {
                args.next().ok_or(format!("--{key} needs a value"))?.clone()
            } else {
                String::new()
            };
            values.insert(name, value);
        }
        if let Some(missing) = cmd.required.iter().find(|r| !values.contains_key(*r)) {
            return Err(format!("--{missing} is required by {}", cmd.name));
        }
        Ok(Flags { cmd, values })
    }

    /// Whether the flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The flag's raw value, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The flag's value parsed as `T`, or `default` when absent.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|e| format!("bad value for --{name}: {v} ({e})"))
        })
    }
}

/// Rejects the invocation: prints why and exits 2.
pub fn fail(why: impl std::fmt::Display) -> ! {
    eprintln!("{why}");
    exit(2)
}

/// Unwraps a CLI result, or [`fail`]s with its error.
pub trait OrExit<T> {
    fn or_exit(self) -> T;
}

impl<T> OrExit<T> for Result<T, String> {
    fn or_exit(self) -> T {
        self.unwrap_or_else(|e| fail(e))
    }
}
