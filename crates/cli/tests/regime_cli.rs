//! The regime front doors: `grid --regime R` and `race` agree on the
//! same knobs, and both refuse flags they would ignore.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_apples-cli"))
        .args(args)
        .output()
        .expect("spawn apples-cli")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The knobs both front doors are given.
const KNOBS: [&str; 12] = [
    "--topo",
    "star:hosts=6",
    "--rate",
    "0.004",
    "--duration",
    "1000",
    "--seed",
    "1996",
    "--fault-rate",
    "10",
    "--max-attempts",
    "2",
];

/// The number after `label` on one of `grid`'s summary lines.
fn grid_count(text: &str, label: &str) -> usize {
    text.lines()
        .find_map(|l| l.strip_prefix(label))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {label:?} line in:\n{text}"))
}

#[test]
fn grid_and_race_agree_on_done_and_failed_counts() {
    let race = cli(&[["race", "--quiet"].as_slice(), &KNOBS].concat());
    assert!(race.status.success(), "race failed: {race:?}");
    let table = stdout(&race);
    let mut failed = 0;
    for regime in ["selfish", "batch", "fractional"] {
        // The race runs the light profile; grid must be told to.
        let args = [
            ["grid", "--profile", "light", "--regime", regime].as_slice(),
            &KNOBS,
        ]
        .concat();
        let grid = cli(&args);
        assert!(
            grid.status.success(),
            "grid --regime {regime} failed: {grid:?}"
        );
        let text = stdout(&grid);
        let want = (
            grid_count(&text, "jobs completed"),
            grid_count(&text, "jobs failed"),
        );
        let row: Vec<&str> = table
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|cols| cols.get(1) == Some(&regime))
            .unwrap_or_else(|| panic!("no {regime} row in:\n{table}"));
        let got: (usize, usize) = (row[3].parse().unwrap(), row[4].parse().unwrap());
        assert_eq!(got, want, "{regime}: race (done, failed) vs grid");
        failed += got.1;
    }
    assert!(
        failed > 0,
        "the faults must cost some job its budget:\n{table}"
    );
}

#[test]
fn race_rejects_flags_it_would_ignore() {
    for flag in [
        ["--profile", "heavy"].as_slice(),
        &["--backoff", "5"],
        &["--blind"],
    ] {
        let out = cli(&[["race"].as_slice(), flag].concat());
        assert_eq!(out.status.code(), Some(2), "race {flag:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {}", flag[0])), "{err}");
    }
}

#[test]
fn grid_refuses_two_output_formats() {
    let out = cli(&["grid", "--duration", "300", "--csv", "--json"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--csv and --json"), "{err}");
    assert!(out.stdout.is_empty(), "grid ran: {out:?}");
}

#[test]
fn fractional_rejects_an_admission_bound() {
    let out = cli(&[
        "grid",
        "--regime",
        "fractional",
        "--max-in-flight",
        "4",
        "--duration",
        "300",
    ]);
    assert!(!out.status.success(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fractional regime does not model"), "{err}");
    assert!(err.contains("max_in_flight"), "{err}");
}

#[test]
fn validate_reports_the_knobs_a_regime_does_not_model() {
    let knobs = ["--max-in-flight", "2", "--duration", "300"];
    let selfish = cli(&[["validate"].as_slice(), &knobs].concat());
    assert!(selfish.status.success(), "{selfish:?}");
    assert!(stdout(&selfish).contains("selfish regime"), "{selfish:?}");

    let out = cli(&[["validate", "--regime", "fractional"].as_slice(), &knobs].concat());
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = stdout(&out);
    assert!(
        text.contains(
            "[regime] the fractional regime does not model an admission bound (max_in_flight)"
        ),
        "{text}"
    );
}

#[test]
fn degenerate_durations_are_rejected() {
    for args in [
        ["grid", "--duration", "nan"].as_slice(),
        &["grid", "--duration", "inf"],
        &["grid", "--duration", "1e300", "--rate", "1e-300"],
        &["validate", "--duration", "nan"],
        &["validate", "--duration", "inf"],
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let text = [out.stdout, out.stderr].concat();
        assert!(
            String::from_utf8_lossy(&text).contains("[duration]"),
            "{args:?}"
        );
    }
}

#[test]
fn sp2_nodes_on_a_generated_topology_are_rejected() {
    for args in [
        [
            "validate",
            "--sp2",
            "--topo",
            "tree:hosts=16,arity=2,per_seg=4",
        ]
        .as_slice(),
        &[
            "grid",
            "--sp2",
            "--topo",
            "star:hosts=6",
            "--duration",
            "300",
        ],
        &[
            "metrics",
            "--sp2",
            "--topo",
            "star:hosts=6",
            "--duration",
            "300",
        ],
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let text = String::from_utf8_lossy(&[out.stdout, out.stderr].concat()).into_owned();
        assert!(
            text.contains("[testbed]") && text.contains("SP-2"),
            "{args:?}: {text}"
        );
    }
}

#[test]
fn oversized_topologies_are_refused_before_generation() {
    let out_file =
        std::env::temp_dir().join(format!("apples-oversized-{}.json", std::process::id()));
    let out_file = out_file.to_str().expect("utf-8 path");
    for line in [
        "validate --topo fat-tree:k=4294967296 --horizon 100",
        "validate --topo clusters:clusters=1000 --horizon 100",
        "grid --topo clusters:clusters=1000",
        "metrics --topo fat-tree:k=18",
        // A list is checked whole before its first leg or point runs.
        "race --topo fat-tree:k=4,clusters:clusters=1000",
        "bench --hosts 10 --jobs 10 --topo star:hosts=16385 --out OUT",
    ] {
        let args: Vec<&str> = line
            .split(' ')
            .map(|w| if w == "OUT" { out_file } else { w })
            .collect();
        let out = cli(&args);
        assert_eq!(out.status.code(), Some(1), "`{line}`: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("exceeds the limits of 16384 hosts and 640 segments"),
            "`{line}`: {err}"
        );
        assert!(
            out.stdout.is_empty() && !err.contains("race ["),
            "`{line}` ran: {out:?}"
        );
        assert!(
            !std::path::Path::new(out_file).exists(),
            "`{line}` wrote results"
        );
    }
}
