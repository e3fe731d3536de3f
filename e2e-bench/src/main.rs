//! `e2e`: one seeded benchmark of the AppLeS reproduction, end to end
//! and per layer.
//!
//! ```text
//! cargo run --release -q --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload race-clean --seed 1996 --seconds 20 --trace 0
//! ```
//!
//! Each run sets one workload up from `--seed`, measures it for about
//! `--seconds`, checks its simulated results, and prints one JSON line:
//! with `--trace 0` the end-to-end metrics, with `--trace 1` the
//! per-layer ones. Distributions (median, quartiles, sample count) and
//! the `sim_digest` go to standard error. Without `--workload`, every
//! workload runs in its own child process, one after another.
//!
//! # Host time and simulated time
//!
//! Every timing metric is **host time**: wall-clock seconds the
//! simulator spends on this machine, single-threaded. Simulated time
//! (job runtimes, stretch, submission windows) only shapes the inputs;
//! it is checked, never reported. `sim_digest` hashes the simulated
//! results, so a change that only makes the program faster leaves it
//! bit-identical.
//!
//! # Workloads
//!
//! Every input comes from `--seed`; repeated passes within a run add
//! samples of the same inputs, never new inputs.
//!
//! * `race-clean` — `regime_race::run_race_with`, the user-facing race,
//!   on 20 seeded streams of exactly 18 default-mix jobs (Poisson,
//!   0.02 jobs/s) on `tree:hosts=16,arity=2,per_seg=4`, no faults. The
//!   selfish leg dominates: every job's agent selects, plans and
//!   estimates on a live topology that earlier jobs' imposed load keeps
//!   rewriting, so `core` and `grid.impose` do the work; each leg also
//!   generates its topology and the race runs solo reference jobs. The
//!   fault layers idle.
//! * `race-faults` — the same three legs (`run_regime_jobs_with_sink`,
//!   as `run_race_with` runs them, without the reference runs) on 14
//!   streams of the same shape under a steady fault load: a seeded host
//!   crashes every 150 s and recovers 120 s later. Revocations, retries,
//!   dead-host exclusion and the rescheduler's phase-wise re-planning
//!   are busy. Random fault models reach the exhaustive-search cliff on
//!   a few seeds only and then cost ten to thirty times more per
//!   stream, far too heavy-tailed to compare two builds on; with at
//!   most one host down, selection stays on its greedy path except for
//!   the rare stream whose imposed load also empties hosts.
//! * `decide` — `Coordinator::decide` on warm, pristine Figure-2 pools
//!   (light profile, 8 workstations, exhaustive search over 255
//!   subsets) for the first 100 non-farm jobs of the default-mix
//!   stream, one decision every 30 simulated seconds. The NWS is
//!   advanced to each decision point outside the timed call. The §5
//!   blueprint in isolation: `core` reads a topology no one writes; no
//!   impositions, faults or network engine. Decision latency grows with
//!   the NWS history behind it, which is why the points sit on a fixed
//!   grid. Its latency supersedes T-OVERHEAD's numbers, whose source
//!   output was never committed.
//! * `decide-faulted` — `Coordinator::decide` on the race's 16-host tree
//!   for the first 10 stencil jobs, one decision every 30 simulated
//!   seconds, each pool with 4 seeded hosts excluded as the grid
//!   excludes hosts it watched die. Twelve feasible hosts is where the
//!   selector's automatic strategy turns exhaustive, so each decision
//!   plans and estimates 4 095 subsets: the fault-path cost cliff,
//!   measured deterministically.
//! * `net-fattree` — `metasim::net::simulate_transfers_counting` on
//!   `fat-tree:k=8` (1 024 hosts) over 200 000 transfers from
//!   `event_engine::build_workload`. It never calls `core` or `grid`:
//!   the control for every agent-side change, and the one workload the
//!   network engine dominates.
//!
//! # End-to-end metrics
//!
//! * `wall_s` — host seconds per operation. Races: the median over the
//!   streams of one stream's race; a stream that reaches the cliff
//!   costs ten times the others, and the median keeps one such stream
//!   from moving the run. Decisions: the mean over a pass of the timed
//!   `decide` calls, median over passes. Network: one simulation of the
//!   whole batch, median over passes.
//! * `setup_s` — median set-up time, repeated at least five times and
//!   for at least half a second: stream realization; testbed, stream
//!   and decision points; topology generation and transfer batch.
//! * `peak_rss_mb` — `VmHWM` of the process.
//!
//! Updating EXPERIMENTS.md, wiring the benchmark into CI and retiring
//! the criterion benches are separate work.
//!
//! # Layer map
//!
//! A traced run (`--trace 1`) runs a prefix of the workload untraced,
//! then again under [`clock::HostClock`], which charges the host time
//! before each trace event to the layer that emitted it. Which
//! end-to-end metric each layer should move, and where:
//!
//! | metric | layer | moves |
//! |---|---|---|
//! | `bench.regime_race.refs_s` | solo reference runs | `wall_s`, `race-clean` |
//! | `grid.sched.{selfish,batch,fractional}_s` | one regime's legs | `wall_s`, both races |
//! | `grid.setup.s` | topology build, fault realization | `wall_s`, both races |
//! | `nws.s`, `nws.forecasts` | `nws::service` | `wall_s`, both races |
//! | `core.selector.s`, `core.decisions`, `core.candidates*` | `core::selector` | `wall_s`, all agent workloads |
//! | `core.planner_estimator.*` | `core::planner`, `core::estimator` | `wall_s`, all agent workloads; most of `decide-faulted` |
//! | `core.decide_ms_p50`, `core.decide_ms_p90` | one decision | `wall_s`, `decide*` |
//! | `core.selector.candidates_us`, `core.planner.plan_us`, `core.estimator.estimate_us` | direct calls, `decide*` only | `wall_s`, `decide*` |
//! | `metasim.exec.*` | actuation, executors, network engine | `wall_s`, races and `net-fattree` |
//! | `core.rescheduler.*` | `core::rescheduler` | `wall_s`, `race-faults` |
//! | `metasim.fault.*` | `metasim::fault` | `wall_s`, `race-faults` |
//! | `grid.impose.*` | load write-back | `wall_s`, both races |
//! | `grid.stream.s`, `grid.attempts`, `grid.retries`, `grid.attempt_yield` | `grid::service`, `grid::sched` | `wall_s`, both races |
//! | `obsv.{metrics,timeseries,spans}_s`, `obsv.events` | sinks and folds each leg feeds | `wall_s`, both races |
//! | `metasim.topogen.generate_s`, `bench.event_engine.build_workload_s` | set-up | `setup_s`, `net-fattree` |
//! | `metasim.net.events`, `.transfers`, `.events_per_transfer` | `metasim::net` | `wall_s`, `net-fattree` |
//! | `trace_overhead_frac`, `unattributed_frac` | the clock itself | — |
//!
//! A metric a workload never reaches, or does not measure, reads 0.
//! Host-time spans of the traced pass (run → job → attempt →
//! decide/actuate/impose/...) go to
//! `target/bench-e2e/<workload>.spans.jsonl`.

mod clock;
mod decide;
mod net;
mod race;
mod report;
mod spans;

use std::process::ExitCode;
use std::time::Instant;

use report::{median, secs_since, Outcome};
use spans::SpanLog;

/// An end-to-end run sets up at least this many times...
const SETUP_REPS: usize = 5;
/// ...and for at least this many seconds, so that a set-up of a
/// millisecond is timed over many repetitions; `setup_s` is the median.
const SETUP_MIN_S: f64 = 0.5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    RaceClean,
    RaceFaults,
    Decide,
    DecideFaulted,
    NetFattree,
}

impl Workload {
    const ALL: [Workload; 5] = [
        Workload::RaceClean,
        Workload::RaceFaults,
        Workload::Decide,
        Workload::DecideFaulted,
        Workload::NetFattree,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::RaceClean => "race-clean",
            Workload::RaceFaults => "race-faults",
            Workload::Decide => "decide",
            Workload::DecideFaulted => "decide-faulted",
            Workload::NetFattree => "net-fattree",
        }
    }
}

/// Input sizes of every workload.
#[derive(Debug, Clone, Copy)]
struct Size {
    race_clean: race::RaceSize,
    race_faults: race::RaceSize,
    decide: decide::DecideSize,
    decide_faulted: decide::DecideSize,
    net: net::NetSize,
}

impl Size {
    const FULL: Size = Size {
        race_clean: race::RaceSize {
            streams: 20,
            jobs: 18,
            traced_streams: 6,
        },
        race_faults: race::RaceSize {
            streams: 14,
            jobs: 18,
            traced_streams: 5,
        },
        decide: decide::DecideSize {
            points: 100,
            traced_points: 40,
        },
        decide_faulted: decide::DecideSize {
            points: 10,
            traced_points: 3,
        },
        net: net::NetSize {
            transfers: 200_000,
            checked: 10_000,
        },
    };
}

/// How one run measures.
struct Mode {
    workload: &'static str,
    /// Wall-clock budget of the measured passes.
    seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    trace: bool,
    /// Where the traced pass writes its spans (`None`: keep them in
    /// memory only).
    spans_dir: Option<&'static str>,
}

impl Mode {
    /// Set the workload up: repeatedly for an end-to-end run (see
    /// [`SETUP_REPS`]), whose median is `setup_s`; once for a traced run.
    fn setup<T>(
        &self,
        out: &mut Outcome,
        mut make: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut times = Vec::new();
        loop {
            let t = Instant::now();
            let made = make()?;
            times.push(secs_since(t));
            let enough = times.len() >= SETUP_REPS && times.iter().sum::<f64>() >= SETUP_MIN_S;
            if self.trace || enough {
                if !self.trace {
                    out.set_timing("setup_s", &times);
                }
                return Ok(made);
            }
        }
    }
}

/// Run `pass` over the workload's fixed inputs once, then again while
/// another pass of the median length still fits in `seconds`. Repeated
/// passes add samples, never inputs.
fn passes(seconds: f64, mut pass: impl FnMut()) {
    let start = Instant::now();
    let mut lengths = Vec::new();
    loop {
        let t = Instant::now();
        pass();
        lengths.push(secs_since(t));
        if secs_since(start) + median(&lengths) > seconds {
            return;
        }
    }
}

/// The `i`-th seed derived from `seed` (splitmix64).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Check the traced pass's spans nest, note each layer's self time,
/// then write them out.
fn write_spans(mode: &Mode, spans: &SpanLog, out: &mut Outcome) {
    let nested = spans.check_nesting();
    out.op(nested.is_ok(), || format!("spans: {nested:?}"));
    out.notes.push(format!(
        "span self time by layer, us: {:?}",
        spans.layer_self_us()
    ));
    let Some(dir) = mode.spans_dir else { return };
    let path = format!("{dir}/{}.spans.jsonl", mode.workload);
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_jsonl()));
    out.op(written.is_ok(), || format!("{path}: {written:?}"));
}

fn run(w: Workload, seed: u64, size: &Size, mode: &Mode) -> Outcome {
    let mut out = Outcome::default();
    match w {
        Workload::RaceClean => race::run(false, seed, size.race_clean, mode, &mut out),
        Workload::RaceFaults => race::run(true, seed, size.race_faults, mode, &mut out),
        Workload::Decide => decide::run(false, seed, size.decide, mode, &mut out),
        Workload::DecideFaulted => decide::run(true, seed, size.decide_faulted, mode, &mut out),
        Workload::NetFattree => net::run(seed, size.net, mode, &mut out),
    }
    if !mode.trace {
        match report::peak_rss_mb() {
            Some(mb) => out.set("peak_rss_mb", mb),
            None => out.op(false, || "VmHWM unavailable".into()),
        }
    }
    out
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1996,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                args.workload = Some(w.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Run every workload in its own child process, one after another.
fn run_all(a: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("e2e: cannot locate its own executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "e2e: {e}\nusage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = a.workload else {
        return run_all(&a);
    };
    let mode = Mode {
        workload: w.name(),
        seconds: a.seconds,
        trace: a.trace,
        spans_dir: Some("target/bench-e2e"),
    };
    let mut out = run(w, a.seed, &Size::FULL, &mode);
    let line = out.result_line(a.trace);
    for note in &out.notes {
        eprintln!("{}: {note}", w.name());
    }
    eprintln!("{}: sim_digest {:016x}", w.name(), out.digest.finish());
    println!("{line}");
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    const TOY: Size = Size {
        race_clean: race::RaceSize {
            streams: 1,
            jobs: 4,
            traced_streams: 1,
        },
        race_faults: race::RaceSize {
            streams: 1,
            jobs: 4,
            traced_streams: 1,
        },
        decide: decide::DecideSize {
            points: 5,
            traced_points: 5,
        },
        decide_faulted: decide::DecideSize {
            points: 1,
            traced_points: 1,
        },
        net: net::NetSize {
            transfers: 500,
            checked: 100,
        },
    };

    /// Every `"key": "value"` string in `text`, in order.
    fn strings<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let pat = format!("\"{key}\": \"");
        text.match_indices(&pat)
            .filter_map(|(i, _)| {
                let rest = &text[i + pat.len()..];
                rest.find('"').map(|end| &rest[..end])
            })
            .collect()
    }

    /// The part of BENCHMARK.json under `"key": [ ... ]`.
    fn section<'a>(key: &str) -> &'a str {
        let start = BENCHMARK
            .find(&format!("\"{key}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let rest = &BENCHMARK[start..];
        &rest[..rest.find(']').unwrap()]
    }

    /// `(name, unit)` pairs of a BENCHMARK.json metric section.
    fn declared(key: &str) -> Vec<(String, String)> {
        let s = section(key);
        let names = strings(s, "name");
        let units = strings(s, "unit");
        assert_eq!(names.len(), units.len(), "{key}: every metric needs a unit");
        names
            .into_iter()
            .zip(units)
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// `(name, unit, value)` of every metric on a result line.
    fn printed(line: &str) -> Vec<(String, String, f64)> {
        let body = &line[line.find("\"metrics\": {").unwrap() + 12..];
        body.split("}, ")
            .map(|m| {
                let name = m.trim_start_matches('"');
                let name = &name[..name.find('"').unwrap()];
                let value = m[m.find("\"value\": ").unwrap() + 9..]
                    .split(',')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap();
                (name.to_string(), strings(m, "unit")[0].to_string(), value)
            })
            .collect()
    }

    #[test]
    fn workload_names_match_benchmark_json() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(strings(section("workloads"), "name"), names);
        assert!(BENCHMARK.contains("\"e2e-bench\""));
    }

    #[test]
    fn every_workload_prints_every_declared_metric_at_toy_size() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let mode = Mode {
                    workload: w.name(),
                    seconds: 0.0,
                    trace,
                    spans_dir: None,
                };
                let mut out = run(w, 7, &TOY, &mode);
                let line = out.result_line(trace);
                assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.notes);
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
                let got = printed(&line);
                for (name, unit, value) in &got {
                    assert!(value.is_finite(), "{}: {name} = {value}", w.name());
                    assert!(!unit.is_empty(), "{}: {name} has no unit", w.name());
                    let copies = got.iter().filter(|(n, _, _)| n == name).count();
                    assert_eq!(copies, 1, "{}: {name} printed {copies} times", w.name());
                }
                let got: Vec<(String, String)> = got.into_iter().map(|(n, u, _)| (n, u)).collect();
                let key = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(
                    got,
                    declared(key),
                    "{} --trace {}",
                    w.name(),
                    u8::from(trace)
                );
                if !trace {
                    for name in ["wall_s", "setup_s", "peak_rss_mb"] {
                        assert!(out.get(name).unwrap() > 0.0, "{}: {name} is 0", w.name());
                    }
                }
            }
        }
    }

    #[test]
    fn traced_race_spans_nest_and_attribute_the_wall_time() {
        let mode = Mode {
            workload: "race-clean",
            seconds: 0.0,
            trace: true,
            spans_dir: None,
        };
        let out = run(Workload::RaceClean, 3, &TOY, &mode);
        assert_eq!(out.failed, 0, "{:?}", out.notes);
        assert!(out.get("core.decisions").unwrap() > 0.0);
        assert!(out.get("grid.impose.count").unwrap() > 0.0);
        let unattributed = out.get("unattributed_frac").unwrap();
        assert!(
            (0.0..0.05).contains(&unattributed),
            "unattributed {unattributed}"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload decide --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::Decide));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--seed").is_err());
    }
}
