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
fn bench_rejects_jobs_it_would_ignore() {
    for (args, message) in [
        (
            ["bench", "--jobs", "500"].as_slice(),
            "--jobs needs --hosts or --topo",
        ),
        (
            &[
                "bench",
                "--check",
                "BENCH_event_engine.json",
                "--jobs",
                "50",
            ],
            "--jobs would be ignored",
        ),
        (
            &["bench", "--topo", "star:hosts=8", "--jobs", "50,100"],
            "--topo takes one --jobs value",
        ),
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "{args:?}: {err}");
    }
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

const REPRODUCE_IDS: [&str; 18] = [
    "FIG1", "FIG3", "FIG4", "FIG5", "FIG6", "T-NWS", "ABL-1", "ABL-2", "ABL-3", "ABL-4", "T-EST",
    "T-MULTI", "T-PRED", "T-FIXED", "T-GRID", "T-FAULT", "T-PROF", "CHECKS",
];

#[test]
fn reproduce_refuses_unknown_ids_and_lists_every_id() {
    for args in [
        ["reproduce", "FIG2"].as_slice(),
        &["reproduce"],
        &["reproduce", "fig5"],
        &["reproduce", "FIG5", "FIG6"],
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        let listed: Vec<&str> = err.split_whitespace().collect();
        for id in REPRODUCE_IDS {
            assert!(listed.contains(&id), "{args:?} does not list {id}: {err}");
        }
    }
}

#[test]
fn reproduce_takes_no_flags() {
    // A misspelt or removed knob must not silently run the full sweep.
    for args in [
        ["reproduce", "FIG5", "--quick"].as_slice(),
        &["reproduce", "FIG5", "--quikc"],
        &["reproduce", "T-GRID", "--csv"],
        &["reproduce", "--quick", "FIG5"],
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    }
}

#[test]
fn reproduce_checks_passes_every_paper_claim() {
    let text = run_ok(&["reproduce", "CHECKS"]);
    assert!(
        text.ends_with("\nAll reproduction checks passed.\n"),
        "{text}"
    );
    assert_eq!(text.matches("[PASS]").count(), 7, "{text}");
}
