//! The flag groups that cross process boundaries: the [`Scenario`] every
//! subcommand shares, the proxy's [`ChaosSpec`] and a node process's
//! [`NodeNetConfig`]. Each is parsed and validated once, and each `*argv`
//! function is the exact inverse of its parser, so the daemon describes its
//! children with the same values it parsed itself.

use crate::flags::Flags;
use proauth_core::authenticator::HeartbeatApp;
use proauth_core::uls::{uls_schedule, AuthMode, UlsConfig, UlsNode, SETUP_ROUNDS};
use proauth_crypto::group::{Group, GroupId};
use proauth_sim::adversary::FaithfulUl;
use proauth_sim::chaos::{ChaosNet, ChaosSpec, FaultSchedule, PartitionWindow};
use proauth_sim::clock::Schedule;
use proauth_sim::message::NodeId;
use proauth_sim::net::{AddrPlan, NodeNetConfig, TraceSpec};
use proauth_sim::runner::{run_ul, SimConfig, SimResult};
use std::fmt::Display;
use std::path::PathBuf;

/// Appends `--name value` to `argv`.
fn put(argv: &mut Vec<String>, name: &str, value: impl Display) {
    argv.push(format!("--{name}"));
    argv.push(value.to_string());
}

/// The parameters that define one (s,t)-limited run: every process of a
/// deployment must agree on all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub n: usize,
    pub t: usize,
    pub units: u64,
    pub normal: u64,
    pub seed: u64,
    pub group: GroupId,
    pub auth: AuthMode,
    /// The socket plan (daemon-mode subcommands only).
    pub addr: Option<AddrPlan>,
}

impl Scenario {
    /// Parses the scenario flags, falling back on the command's defaults
    /// for those it does not take.
    pub fn from_flags(f: &Flags) -> Result<Self, String> {
        let (n, units, normal) = f.cmd.defaults;
        let n: usize = f.get("n", n)?;
        if n == 0 {
            return Err("--n must be at least 1".to_owned());
        }
        let t: usize = f.get("t", (n - 1) / 2)?;
        if n < 2 * t + 1 {
            return Err(format!("need n >= 2t+1 (got n={n}, t={t})"));
        }
        let normal: u64 = f.get("normal", normal)?;
        if !normal.is_multiple_of(2) {
            return Err("--normal must be even".to_owned());
        }
        Ok(Scenario {
            n,
            t,
            units: f.get("units", units)?,
            normal,
            seed: f.get("seed", 0)?,
            group: f.get("group", GroupId::ALL[0])?,
            auth: f.value("auth").map_or(Ok(AuthMode::Sign), |v| match v {
                "sign" => Ok(AuthMode::Sign),
                "mac" => Ok(AuthMode::SessionMac),
                _ => Err(format!("unknown auth mode {v} (want sign | mac)")),
            })?,
            addr: f.value("addr").map(AddrPlan::parse).transpose()?,
        })
    }

    /// The inverse of [`Scenario::from_flags`].
    pub fn to_argv(&self) -> Vec<String> {
        let mut v = Vec::new();
        put(&mut v, "n", self.n);
        put(&mut v, "t", self.t);
        put(&mut v, "units", self.units);
        put(&mut v, "normal", self.normal);
        put(&mut v, "seed", self.seed);
        put(&mut v, "group", self.group);
        if let Some(addr) = &self.addr {
            put(&mut v, "addr", addr_arg(addr));
        }
        if self.auth == AuthMode::SessionMac {
            put(&mut v, "auth", "mac");
        }
        v
    }

    /// The daemon-mode socket plan; `--addr` is required wherever a
    /// subcommand reads it, so only the daemon (which fills in a default)
    /// may reach this without one.
    pub fn plan(&self) -> &AddrPlan {
        self.addr.as_ref().expect("--addr is required here")
    }

    pub fn schedule(&self) -> Schedule {
        uls_schedule(self.normal)
    }

    pub fn total_rounds(&self) -> u64 {
        self.schedule().unit_rounds * self.units
    }

    /// An engine config over `schedule`: the scenario's size, seed and
    /// horizon, sequential unless the caller says otherwise.
    pub fn sim_config(&self, schedule: Schedule, setup_rounds: u64) -> SimConfig {
        let mut cfg = SimConfig::new(self.n, self.t, schedule);
        cfg.setup_rounds = setup_rounds;
        cfg.total_rounds = schedule.unit_rounds * self.units;
        cfg.seed = self.seed;
        cfg.parallel = false;
        cfg
    }

    /// The flat ULS engine config.
    pub fn uls_config(&self) -> SimConfig {
        self.sim_config(self.schedule(), SETUP_ROUNDS)
    }

    pub fn uls_node(&self, group: &Group, id: NodeId) -> UlsNode<HeartbeatApp> {
        let mut c = UlsConfig::new(group.clone(), self.n, self.t);
        c.auth_mode = self.auth;
        UlsNode::new(c, id, HeartbeatApp::default())
    }

    /// The scenario digest: any parameter mismatch between processes changes
    /// it, so a stray `serve` from another invocation is rejected at Hello.
    pub fn run_id(&self) -> u64 {
        let d = proauth_primitives::sha256::hash_parts(
            "proauth/net/run-id",
            &[
                &(self.n as u64).to_be_bytes(),
                &(self.t as u64).to_be_bytes(),
                &self.units.to_be_bytes(),
                &self.normal.to_be_bytes(),
                &self.seed.to_be_bytes(),
                self.group.to_string().as_bytes(),
                format!("{:?}", self.auth).as_bytes(),
            ],
        );
        u64::from_be_bytes(d[..8].try_into().expect("8 of 32 digest bytes"))
    }

    /// The equivalent in-process engine run under the chaos model `spec`,
    /// for `--check`: its result and its flight-recorder trace (JSONL).
    pub fn engine_run(&self, spec: ChaosSpec) -> (SimResult, String) {
        let (telemetry, buf) = proauth_sim::Telemetry::with_memory_sink();
        let mut cfg = self.uls_config();
        cfg.telemetry = telemetry;
        let group = Group::new(self.group);
        let mut adv = ChaosNet::new(FaithfulUl, spec, FaultSchedule::default(), None, self.n);
        let result = run_ul(cfg, |id| self.uls_node(&group, id), &mut adv);
        (result, proauth_sim::telemetry::memory_contents(&buf))
    }

    /// Node `me`'s config: the scenario's part, the rest at its defaults.
    pub fn node_defaults(&self, me: NodeId) -> NodeNetConfig {
        let mut c = NodeNetConfig::new(me, self.n, self.plan().clone(), self.schedule());
        c.seed = self.seed;
        c.run_id = self.run_id();
        c.setup_rounds = SETUP_ROUNDS;
        c.total_rounds = self.total_rounds();
        c
    }

    /// Parses `serve`'s own flags into this scenario's node config.
    pub fn node_config(&self, f: &Flags) -> Result<NodeNetConfig, String> {
        let node: u32 = f.get("node", 0)?;
        if node == 0 || node as usize > self.n {
            return Err(format!("serve needs --node <1..={}>", self.n));
        }
        let mut c = self.node_defaults(NodeId(node));
        c.via_proxy = f.has("via-proxy");
        c.report = f.has("report");
        c.connect_timeout_ms = f.get("connect-timeout", c.connect_timeout_ms)?;
        c.telemetry = f.has("telemetry");
        c.stream_trace = f.has("stream-trace");
        pace(f, &mut c)?;
        Ok(c)
    }

    /// The collector-side trace-assembly spec for this scenario.
    pub fn trace_spec(&self) -> TraceSpec {
        TraceSpec {
            n: self.n,
            s: self.t,
            seed: self.seed,
            schedule: self.schedule(),
            setup_rounds: SETUP_ROUNDS,
            total_rounds: self.total_rounds(),
        }
    }
}

/// The `--addr` form of a plan (the inverse of [`AddrPlan::parse`]).
pub fn addr_arg(plan: &AddrPlan) -> String {
    match plan {
        AddrPlan::Tcp { host, base } => format!("tcp:{host}:{base}"),
        AddrPlan::Unix { dir } => format!("unix:{}", dir.display()),
    }
}

/// Parses the chaos flags for an `n`-node scenario.
pub fn chaos_spec(f: &Flags, n: usize) -> Result<ChaosSpec, String> {
    let partition = f
        .value("partition")
        .map(str::parse::<PartitionWindow>)
        .transpose()?;
    if let Some(p) = partition {
        if p.split as usize >= n {
            return Err(format!("--partition {p}: split must be below n={n}"));
        }
    }
    Ok(ChaosSpec {
        seed: f.get("chaos-seed", 0)?,
        delay_pct: f.get("delay", 0)?,
        delay_max: f.get("delay-max", 2)?,
        dup_pct: f.get("dup", 0)?,
        reset_pct: f.get("reset", 0)?,
        partition,
    })
}

/// The inverse of [`chaos_spec`].
pub fn chaos_argv(spec: &ChaosSpec) -> Vec<String> {
    let mut v = Vec::new();
    put(&mut v, "chaos-seed", spec.seed);
    put(&mut v, "delay", spec.delay_pct);
    put(&mut v, "delay-max", spec.delay_max);
    put(&mut v, "dup", spec.dup_pct);
    put(&mut v, "reset", spec.reset_pct);
    if let Some(p) = spec.partition {
        put(&mut v, "partition", p);
    }
    v
}

/// Applies the pacing flags to `c`, keeping its values as the defaults.
pub fn pace(f: &Flags, c: &mut NodeNetConfig) -> Result<(), String> {
    c.round_ms = f.get("round-ms", c.round_ms)?;
    c.min_round_ms = f.get("min-round-ms", c.min_round_ms)?;
    c.adaptive |= f.has("adaptive");
    c.adapt_floor_ms = f.get("adapt-floor-ms", c.adapt_floor_ms)?;
    if let Some(dir) = f.value("state-dir") {
        c.state_dir = Some(PathBuf::from(dir));
    }
    Ok(())
}

/// The inverse of [`Scenario::node_config`].
pub fn serve_argv(c: &NodeNetConfig) -> Vec<String> {
    let mut v = Vec::new();
    put(&mut v, "node", c.me.0);
    let switches = [
        ("report", c.report),
        ("via-proxy", c.via_proxy),
        ("telemetry", c.telemetry),
        ("stream-trace", c.stream_trace),
        ("adaptive", c.adaptive),
    ];
    v.extend(
        switches
            .iter()
            .filter(|s| s.1)
            .map(|s| format!("--{}", s.0)),
    );
    put(&mut v, "round-ms", c.round_ms);
    put(&mut v, "min-round-ms", c.min_round_ms);
    put(&mut v, "connect-timeout", c.connect_timeout_ms);
    put(&mut v, "adapt-floor-ms", c.adapt_floor_ms);
    if let Some(dir) = &c.state_dir {
        put(&mut v, "state-dir", dir.display());
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, argv: Vec<String>) -> Flags {
        let cmd = crate::COMMANDS
            .iter()
            .find(|c| c.name == cmd)
            .expect("known command");
        Flags::parse(cmd, &argv).expect("round-tripped argv parses")
    }

    fn scenario(group: GroupId, auth: AuthMode, addr: &str) -> Scenario {
        let addr = Some(AddrPlan::parse(addr).unwrap());
        Scenario {
            n: 7,
            t: 2,
            units: 3,
            normal: 6,
            seed: 99,
            group,
            auth,
            addr,
        }
    }

    #[test]
    fn scenario_survives_argv_round_trip() {
        for group in GroupId::ALL {
            for auth in [AuthMode::Sign, AuthMode::SessionMac] {
                for addr in ["unix:/tmp/proauth-rt", "tcp:127.0.0.1:7100"] {
                    let sc = scenario(group, auth, addr);
                    let f = parse("proauth proxy", sc.to_argv());
                    assert_eq!(Scenario::from_flags(&f), Ok(sc));
                }
            }
        }
    }

    #[test]
    fn chaos_spec_survives_argv_round_trip() {
        let calm = ChaosSpec {
            delay_max: 2,
            ..ChaosSpec::faithful()
        };
        let stormy = ChaosSpec {
            seed: 7,
            delay_pct: 20,
            delay_max: 3,
            dup_pct: 5,
            reset_pct: 1,
            partition: Some(PartitionWindow {
                start: 4,
                end: 12,
                split: 2,
            }),
        };
        let sc = scenario(GroupId::S256, AuthMode::Sign, "unix:/tmp/proauth-rt");
        for spec in [calm, stormy] {
            let f = parse("proauth daemon", [sc.to_argv(), chaos_argv(&spec)].concat());
            assert_eq!(chaos_spec(&f, sc.n), Ok(spec));
        }
    }

    #[test]
    fn node_config_survives_argv_round_trip() {
        let sc = scenario(GroupId::Toy64, AuthMode::SessionMac, "tcp:127.0.0.1:7100");
        let mut busy = sc.node_defaults(NodeId(3));
        busy.via_proxy = true;
        busy.report = true;
        busy.round_ms = 1000;
        busy.min_round_ms = 250;
        busy.connect_timeout_ms = 5_000;
        busy.telemetry = true;
        busy.stream_trace = true;
        busy.adaptive = true;
        busy.adapt_floor_ms = 40;
        busy.state_dir = Some(PathBuf::from("/tmp/proauth-state"));
        for c in [busy, sc.node_defaults(NodeId(1))] {
            let f = parse("proauth serve", [sc.to_argv(), serve_argv(&c)].concat());
            let back = Scenario::from_flags(&f).unwrap().node_config(&f).unwrap();
            assert_eq!(format!("{back:?}"), format!("{c:?}"));
        }
    }
}
