//! End-to-end exit-code contract of `apples-cli trace` and the grid
//! `--trace` flag: two same-seed traced runs must produce files that
//! `trace diff` calls identical (exit 0); different seeds diverge
//! (exit 1); bad invocations exit 2. The trace, span, time-series and
//! snapshot commands' stdout on one traced run is pinned across
//! commits by digest.

use std::path::{Path, PathBuf};
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_apples-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("apples-trace-cli-{}-{name}", std::process::id()));
    p
}

/// 64-bit FNV-1a of a byte string.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn traced_grid_run(seed: u64, out: &PathBuf) {
    let status = cli()
        .args([
            "grid",
            "--rate",
            "0.005",
            "--duration",
            "900",
            "--seed",
            &seed.to_string(),
            "--trace",
        ])
        .arg(out)
        .status()
        .expect("spawn apples-cli grid");
    assert!(status.success(), "traced grid run failed");
}

#[test]
fn same_seed_runs_diff_identical_and_exit_codes_hold() {
    let a = tmp("a.jsonl");
    let b = tmp("b.jsonl");
    let c = tmp("c.jsonl");
    traced_grid_run(42, &a);
    traced_grid_run(42, &b);
    traced_grid_run(43, &c);

    // Byte-identical on disk, and `trace diff` agrees with exit 0.
    let bytes_a = std::fs::read(&a).expect("read a");
    let bytes_b = std::fs::read(&b).expect("read b");
    assert!(!bytes_a.is_empty(), "trace file is empty");
    assert_eq!(bytes_a, bytes_b, "same-seed trace files differ on disk");
    let diff = cli()
        .args(["trace", "diff"])
        .args([&a, &b])
        .output()
        .expect("trace diff");
    assert_eq!(diff.status.code(), Some(0), "identical traces must exit 0");
    assert!(String::from_utf8_lossy(&diff.stdout).contains("identical"));

    // A different seed diverges: exit 1 and the first bad line named.
    let diff = cli()
        .args(["trace", "diff"])
        .args([&a, &c])
        .output()
        .expect("trace diff");
    assert_eq!(diff.status.code(), Some(1), "divergent traces must exit 1");
    assert!(String::from_utf8_lossy(&diff.stdout).contains("divergence at line"));

    // Summary renders per-kind counts for a valid trace.
    let summary = cli()
        .args(["trace", "summary"])
        .arg(&a)
        .output()
        .expect("trace summary");
    assert_eq!(summary.status.code(), Some(0));
    let text = String::from_utf8_lossy(&summary.stdout).to_string();
    assert!(text.contains("events:"), "{text}");
    assert!(text.contains("job_submitted"), "{text}");

    for p in [a, b, c] {
        let _ = std::fs::remove_file(p);
    }
}

/// The stdout digest and exit code of every trace-reading command on
/// one traced faulty grid run (seed 42) and its seed-43 twin. A change
/// that is meant to move one of these outputs recomputes its digest
/// (the failure message prints them all) and says why.
#[test]
fn trace_command_outputs_are_pinned() {
    // Run in a scratch directory with relative names: `trace diff`
    // prints the paths it compares.
    let dir = tmp("pin");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = |line: &str| {
        let out = cli()
            .current_dir(&dir)
            .args(line.split_whitespace())
            .output();
        out.expect("spawn apples-cli")
    };
    for seed in ["42", "43"] {
        let line = format!(
            "grid --rate 0.01 --duration 900 --fault-rate 2 --seed {seed} \
             --trace {seed}.jsonl --metrics {seed}.prom"
        );
        let out = run(&line);
        assert!(out.status.success(), "traced grid run failed");
    }
    let cases: [(&str, u64, i32); 14] = [
        ("trace summary 42.jsonl", 0xcf59_6206_e6ac_2765, 0),
        ("trace diff 42.jsonl 42.jsonl", 0x6f2a_5de2_cd06_4708, 0),
        ("trace diff 42.jsonl 43.jsonl", 0xc357_f97f_ce14_07ae, 1),
        ("prof 42.jsonl --mode table", 0x6433_bc07_af0e_b67f, 0),
        ("prof 42.jsonl --mode gantt", 0x8c46_6af5_9527_c696, 0),
        ("prof 42.jsonl --mode folded", 0x0f09_e441_6b5e_5262, 0),
        ("spans 42.jsonl --mode tree", 0x88d4_de85_1e8c_8916, 0),
        ("spans 42.jsonl --mode jsonl", 0xc162_347c_010f_c089, 0),
        (
            "spans 42.jsonl --mode composition",
            0x0521_7b8c_5337_5fbe,
            0,
        ),
        ("timeseries 42.jsonl", 0xcb22_0d30_081a_4f11, 0),
        ("timeseries 42.jsonl --jsonl", 0xd280_56cb_9392_19f0, 0),
        (
            "timeseries 42.jsonl --aligned --jsonl",
            0x010a_074f_e3c3_d0f1,
            0,
        ),
        ("snapshot-diff 42.prom 42.prom", 0xe118_70dd_da72_1de2, 0),
        ("snapshot-diff 42.prom 43.prom", 0x24f6_3c1c_15fe_21b6, 1),
    ];
    let got: Vec<(u64, i32)> = cases
        .iter()
        .map(|(line, _, _)| {
            let out = run(line);
            (fnv(&out.stdout), out.status.code().unwrap_or(-1))
        })
        .collect();
    let want: Vec<(u64, i32)> = cases.iter().map(|&(_, h, code)| (h, code)).collect();
    let table: String = cases
        .iter()
        .zip(&got)
        .map(|((line, _, _), (h, code))| format!("{line}: {h:#018x} exit {code}\n"))
        .collect();
    assert_eq!(got, want, "pinned outputs moved:\n{table}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_and_io_errors_exit_2() {
    // `F` stands for a file that exists but holds no trace, so a
    // refusal below is the argument's fault, not the file's.
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let missing = "/nonexistent/input";
    let cases = [
        // No subcommand, an unknown one, a missing file, too few and
        // too many positionals, an unknown flag.
        "trace",
        "trace frobnicate F",
        "trace summary M",
        "trace diff F",
        "trace diff M F",
        "trace summary F F",
        "trace summary F --bogus",
        "prof M",
        "prof",
        "prof F F",
        "prof F --bogus",
        "spans M",
        "spans",
        "spans F F",
        "spans F --bogus",
        "timeseries M",
        "timeseries",
        "timeseries F F",
        "timeseries F --bogus",
        "snapshot-diff M F",
        "snapshot-diff F",
        "snapshot-diff F F F",
        "snapshot-diff F F --bogus",
        // `reproduce` reads no file; an unknown ID stands in.
        "reproduce NOPE",
        "reproduce",
        "reproduce FIG1 FIG3",
        "reproduce FIG1 --bogus",
    ];
    for line in cases {
        let args = line.split(' ').map(|w| match w {
            "F" => file,
            "M" => missing,
            w => w,
        });
        let out = cli().args(args).output().expect("spawn apples-cli");
        assert_eq!(out.status.code(), Some(2), "`{line}` must exit 2");
    }
}

/// A two-job trace spanning 1000 s, with `junk` lines appended.
fn small_trace(name: &str, junk: &[&str]) -> PathBuf {
    use metasim::simtrace::TraceEvent;
    use metasim::SimTime;
    let s = SimTime::from_secs;
    let events = [
        TraceEvent::JobSubmitted {
            job: 0,
            kind: "jacobi".into(),
            at: s(0),
        },
        TraceEvent::JobSubmitted {
            job: 1,
            kind: "jacobi".into(),
            at: s(10),
        },
        TraceEvent::JobCompleted {
            job: 0,
            at: s(1000),
            exec_seconds: 1000.0,
        },
    ];
    let mut text: String = events.iter().map(|e| e.to_json() + "\n").collect();
    for line in junk {
        text.push_str(line);
        text.push('\n');
    }
    let path = tmp(name);
    std::fs::write(&path, text).expect("write trace");
    path
}

fn run_on(file: &Path, line: &str) -> std::process::Output {
    let args = line.split(' ').map(|w| match w {
        "F" => file.to_str().expect("utf-8 path"),
        w => w,
    });
    cli().args(args).output().expect("spawn apples-cli")
}

#[test]
fn flags_the_mode_ignores_repeats_and_bad_windows_are_refused() {
    let file = small_trace("refusals.jsonl", &[]);
    for (line, message) in [
        ("prof F --mode gantt --mode table", "--mode given twice"),
        (
            "timeseries F --window 30 --window 60",
            "--window given twice",
        ),
        ("timeseries F --window 30 --aligned", "--aligned has none"),
        ("prof F --width 5 --mode folded", "--mode folded has none"),
        ("prof F --width 5", "--mode folded has none"),
        ("prof F --width=5 --mode=table", "--mode table has none"),
        ("prof F --mode flame", "unknown mode"),
        ("spans F --mode=flame", "unknown mode"),
        ("timeseries F --window 0", "at least 1 µs"),
        ("timeseries F --window 1e-7", "at least 1 µs"),
        ("timeseries F --window nan", "at least 1 µs"),
        // 1000 s in 5 ms windows is 200 001 rows.
        ("timeseries F --window 0.005", "limit of 100000"),
        ("trace summary F --mode table", "unknown flag --mode"),
    ] {
        let out = run_on(&file, line);
        assert_eq!(out.status.code(), Some(2), "`{line}` must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(message), "`{line}`: {err}");
        assert!(out.stdout.is_empty(), "`{line}` printed output");
    }
    // 20 ms windows cut it into 50 001 rows, within the limit; only the
    // three that hold an event are printed.
    let out = run_on(&file, "timeseries F --window 0.02 --jsonl");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 3);
    // `--key=value` reads as `--key value`.
    for (spaced, inline) in [
        ("prof F --mode table", "prof F --mode=table"),
        (
            "prof F --mode gantt --width 40",
            "prof F --mode=gantt --width=40",
        ),
        ("spans F --mode jsonl", "spans F --mode=jsonl"),
        ("timeseries F --window 100", "timeseries F --window=100"),
    ] {
        let (a, b) = (run_on(&file, spaced), run_on(&file, inline));
        assert_eq!(a.status.code(), Some(0), "`{spaced}`");
        assert_eq!(b.status.code(), Some(0), "`{inline}`");
        assert_eq!(a.stdout, b.stdout, "`{inline}` differs from `{spaced}`");
    }
    let _ = std::fs::remove_file(file);
}

#[test]
fn every_trace_reader_skips_malformed_lines_alike() {
    let junk = ["not json at all", r#"{"kind":"job_submitted","at":5}"#];
    let (clean, dirty) = (
        small_trace("clean.jsonl", &[]),
        small_trace("dirty.jsonl", &junk),
    );
    for line in [
        "trace summary F",
        "prof F --mode table",
        "prof F --mode folded",
        "spans F --mode tree",
        "spans F --mode jsonl",
        "timeseries F",
    ] {
        let (a, b) = (run_on(&clean, line), run_on(&dirty, line));
        assert_eq!(b.status.code(), Some(0), "`{line}`");
        assert_eq!(a.stdout, b.stdout, "`{line}`: a skipped line moved stdout");
        assert!(a.stderr.is_empty(), "`{line}` on a clean trace");
        let err = String::from_utf8_lossy(&b.stderr);
        assert_eq!(err, "note: skipped 2 malformed line(s)\n", "`{line}`");
    }
    let summary = String::from_utf8_lossy(&run_on(&dirty, "trace summary F").stdout).to_string();
    assert!(summary.starts_with("events: 3\n"), "{summary}");
    for p in [clean, dirty] {
        let _ = std::fs::remove_file(p);
    }
}
