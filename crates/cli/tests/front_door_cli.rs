//! The experiment front doors: each subcommand prints its library
//! scenario's table, and refuses flags it would ignore.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_apples-cli"))
        .args(args)
        .output()
        .expect("spawn apples-cli")
}

/// Stdout of a run that must succeed.
fn run_ok(args: &[&str]) -> String {
    let out = cli(args);
    assert!(out.status.success(), "{args:?} failed: {out:?}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The whitespace-separated cells of the table row whose first cell
/// is `first`.
fn row<'a>(text: &'a str, first: &str) -> Vec<&'a str> {
    text.lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|cells| cells.first() == Some(&first))
        .unwrap_or_else(|| panic!("no row {first:?} in:\n{text}"))
}

#[test]
fn nile_sweep_crosses_over_from_remote_to_skim() {
    let text = run_ok(&["nile"]);
    assert_eq!(row(&text, "1")[1], "remote", "{text}");
    assert_eq!(row(&text, "4")[1], "skim", "{text}");
}

#[test]
fn react_reports_best_unit_ten() {
    let text = run_ok(&["react"]);
    assert!(text.contains("(pipeline size 10 SF,"), "{text}");
    assert_eq!(row(&text, "10")[2..], ["<-", "best"], "{text}");
}

#[test]
fn resched_prints_a_migrated_phase() {
    let text = run_ok(&["resched"]);
    assert!(
        text.lines()
            .any(|l| l.split_whitespace().nth(4) == Some("yes")),
        "{text}"
    );
}

#[test]
fn bench_topo_list_runs_one_point_per_spec() {
    let out = format!("{}/bench_topo_list.json", env!("CARGO_TARGET_TMPDIR"));
    let doc = run_ok(&[
        "bench",
        "--topo",
        "star:hosts=8,per_seg=4,star:hosts=12",
        "--jobs",
        "50",
        "--out",
        &out,
        "--json",
    ]);
    let topos: Vec<&str> = doc
        .lines()
        .filter_map(|l| l.split("\"topo\": \"").nth(1)?.split('"').next())
        .collect();
    assert_eq!(topos, ["star:hosts=8,per_seg=4", "star:hosts=12,per_seg=8"]);
}

#[test]
fn commands_reject_flags_they_would_ignore_or_repeat() {
    for (args, message) in [
        (
            ["resched", "--profile", "heavy"].as_slice(),
            "unknown flag --profile",
        ),
        (&["resched", "--sp2"], "unknown flag --sp2"),
        (&["react", "--json"], "unknown flag --json"),
        (&["nile", "--topo", "star:hosts=4"], "unknown flag --topo"),
        (
            &["nile", "--runs", "1", "--runs", "4"],
            "--runs given twice",
        ),
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{args:?}: {err}");
    }
}
