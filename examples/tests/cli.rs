//! The `proauth` CLI surface: per-subcommand flag sets, scenario
//! validation, and the two in-process scenario runs, each invoking the
//! compiled binary.

use std::process::{Command, Output};

fn proauth(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_proauth");
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn proauth")
}

/// Asserts that each invocation exits 2 with a first error line that
/// contains every needle.
fn rejected(cases: &[(&[&str], &[&str])]) {
    for (args, needles) in cases {
        let out = proauth(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        for needle in *needles {
            assert!(first.contains(needle), "{args:?}: `{first}` lacks {needle}");
        }
    }
}

#[test]
fn flags_outside_a_subcommands_set_are_rejected() {
    rejected(&[
        (&["chaos", "--group", "s1024"], &["--group", "chaos"]),
        (&["service", "--clusters"], &["--clusters", "service"]),
        (&["service", "--normal", "8"], &["--normal", "service"]),
        (&["--clusters", "--t", "3"], &["--t", "--clusters"]),
        (&["daemon", "--parallel"], &["--parallel", "daemon"]),
        (&["daemon", "--reorder", "5"], &["--reorder"]),
        (
            &["service", "--closed-loop", "--rate", "3"],
            &["--rate", "--closed-loop"],
        ),
        (&["top"], &["--addr", "top"]),
        (&["top", "--once"], &["--addr", "top"]),
        (
            &["serve", "--addr", "unix:/nonexistent/proauth"],
            &["--node", "serve"],
        ),
    ]);
}

#[test]
fn invalid_values_are_rejected() {
    let proxy = [
        "proxy",
        "--addr",
        "unix:/nonexistent/proauth",
        "--partition",
    ];
    rejected(&[
        (&["--n", "0"], &["--n"]),
        (&["chaos", "--n", "0"], &["--n"]),
        (&["--n", "5", "--t", "3"], &["2t+1"]),
        (&["--normal", "7"], &["--normal"]),
        (&["--group", "S256"], &["--group"]),
        (&[&proxy[..], &["4:x:12:2"]].concat(), &["partition"]),
        (&[&proxy[..], &["12:4:2"]].concat(), &["partition"]),
        (&[&proxy[..], &["4:12:5"]].concat(), &["partition"]),
        (&[&proxy[..], &["4:12:4294967298"]].concat(), &["partition"]),
    ]);
}

/// Asserts that `args` exit 0 and print every needle on stdout.
fn runs(args: &[&str], needles: &[&str]) {
    let out = proauth(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{args:?}: {}\n{stdout}\n{stderr}",
        out.status
    );
    for needle in needles {
        assert!(
            stdout.contains(needle),
            "{args:?}: missing `{needle}` in:\n{stdout}"
        );
    }
}

#[test]
fn flat_run_prints_its_summary() {
    runs(
        &["--n", "4", "--units", "1", "--adversary", "isolate:2"],
        &[
            "proauth scenario: n=4 t=1 units=1 group=toy64",
            "adversary: isolate:2",
            "per-node summary:",
            "max impaired per unit:",
            "0 NOT covered by same-unit alerts",
            "unit timeline:",
        ],
    );
}

#[test]
fn clusters_run_prints_its_summary() {
    runs(
        &["--clusters", "--n", "9", "--units", "1"],
        &[
            "proauth hierarchy: n=9 clusters=3",
            "top-level heartbeat signatures per cluster:",
            "per-unit two-level (s,t) scoreboard:",
            "per-node summary:",
            "0 NOT covered by same-unit alerts",
        ],
    );
}
