//! `apples-cli` — drive the AppLeS reproduction from the command line.
//!
//! `apples-cli help` prints every command and the flags it reads
//! ([`USAGE`]). This is the one front door for every experiment: each
//! command runs the library scenario in `apples_bench` or
//! `apples_apps` and prints its table, and `reproduce ID` prints the
//! figures and tables without a command of their own.

mod args;
mod commands;

use args::{ArgError, Parsed};

const USAGE: &str = "\
apples-cli — application-level scheduling on a simulated metacomputer

USAGE:
  Every command but lint reads one grammar: a flag is --key value or
  --key=value, and a flag given twice, a flag the command (or its chosen
  mode) ignores, or a missing or extra argument is a usage error
  (exit 2).

  apples-cli testbed   [--profile P] [--seed N] [--sp2]
      Print the Figure 2 SDSC/PCL testbed (FIG2): every host's speed,
      memory, sharing policy, segment and mean availability, and every
      link. --sp2 adds the two SP-2 nodes of Figure 6.
  apples-cli schedule  [--n N] [--iterations K] [--profile P] [--seed N]
                       [--source nws|last-value|oracle|static]
                       [--metric time|speedup|cost:<rate>]
                       [--max-hosts K] [--sp2] [--warmup SECS]
      Run an AppLeS agent on a Jacobi2D job and actuate its decision.
  apples-cli compare   [--n N] [--iterations K] [--profile P] [--seed N]
                       [--sp2]
      AppLeS vs static Strip vs HPF Blocked, back-to-back (Figure 5 trial).
  apples-cli forecast  [--host I] [--until SECS] [--profile P] [--seed N]
                       [--sp2]
      Watch the Network Weather Service track one host. --until may
      not pass the testbed's 400000 s load horizon.
  apples-cli react     [--unit U] [--depth D] [--seed N]
      The 3D-REACT pipeline on the CASA testbed (T-REACT): single-site
      vs pipelined hours, the pipeline-depth sweep at the best unit
      size and the unit-size sweep. --unit U runs that one unit size
      at depth --depth D (default 4); --depth needs --unit.
  apples-cli nile      [--events E] [--runs R] [--seed N]
      The CLEO/NILE Site Manager's skim-vs-remote decision (T-NILE),
      swept over 1..32 analysis runs; --runs R prints that one row.
  apples-cli resched   [--n N] [--iterations K] [--phase P] [--seed N]
      Phase-wise rescheduling vs one-shot across a mid-run load swap,
      with the rescheduling agent's per-phase table (RESCHED).
  apples-cli advise    [--wait SECS] [--avail A] [--n N] [--iterations K]
      The wait-for-dedicated vs run-now-on-shared decision (3.2).
  apples-cli whatif    [--n N] [--iterations K] [--profile P] [--seed N]
                       [--sp2]
      Rank hypothetical hardware upgrades by this application's speedup
      (T-WHATIF; Jacobi2D 2000x2000, 80 iterations by default).
  apples-cli grid      [--rate R] [--duration SECS] [--seed N] [--profile P]
                       [--regime selfish|batch|fractional] [--topo SPEC]
                       [--max-in-flight K] [--blind] [--csv | --json]
                       [--fault-rate C] [--link-fault-rate L] [--mean-outage SECS]
                       [--permanent F] [--max-attempts K] [--backoff SECS]
                       [--trace FILE] [--metrics FILE] [--horizon SECS]
      Stream a multi-tenant job mix through the testbed; fleet metrics.
      --regime picks the scheduling policy: selfish first-decider-wins
      AppLeS agents (default), a centralized batch queue (FCFS + EASY
      backfilling on the estimator's predictions), or fractional
      processor sharing resized on every arrival/departure. Knobs a
      regime does not model are errors: batch and fractional reject
      --blind; fractional rejects --max-in-flight and link faults.
      --topo swaps the Figure-2 testbed for a generated topology
      (star | tree | fat-tree | clusters, e.g. --topo fat-tree:k=8 or
      --topo clusters:clusters=8,segs=4,hosts=8).
      --fault-rate crashes hosts at C per host-hour (--permanent F of
      them for good); revoked jobs retry up to --max-attempts times
      with exponential backoff from --backoff seconds. --trace writes
      every structured event the stack emits to FILE as JSONL;
      --metrics writes a Prometheus text-format snapshot to FILE.
      --csv prints the fleet row and the per-job records, --json the
      fleet metrics; the two are one choice, so both together are
      refused.
  apples-cli race      [--rate R] [--duration SECS] [--seed N]
                       [--topo SPEC1,SPEC2,...] [--fault-rate C]
                       [--mean-outage SECS] [--max-attempts K]
                       [--report FILE] [--quiet]
      T-RACE: race all three scheduling regimes on identical seeded
      streams across topologies; stretch/slowdown percentiles and
      goodput under faults per (topology, regime). --topo takes a
      comma-separated list (figure-2 = the default testbed). Each
      (topology, regime) leg is narrated on stderr; --quiet silences
      that. --report writes a markdown report with per-regime
      critical-path composition, the diff against the selfish
      baseline, and utilization/queue timelines. Same seed, same
      report, bit for bit. The race always runs the light load
      profile, while grid defaults to moderate: `grid --profile light
      --regime R` with the same rate, duration, seed, fault rate and
      attempts reproduces the race's done/failed counts for R.
  apples-cli validate  [grid's flags except --trace, --metrics, --csv,
                       --json]
      Statically check a grid configuration without running it: every
      problem is printed as a typed [code] diagnostic and the exit
      status is nonzero if any are found. With --regime R, knobs R does
      not model are [regime] diagnostics, as grid --regime R refuses
      them.
  apples-cli trace summary FILE
      Summarize a JSONL trace: event counts by kind, time span.
  apples-cli trace diff A B
      Compare two traces line by line; report the first divergence.
      Exit 0 when identical, 1 on divergence, 2 on usage errors.
  apples-cli prof FILE [--mode folded|gantt|table] [--width N]
      Time-attribution profile of a JSONL trace: per-job queue-wait /
      retry-backoff / compute / border-exchange / contention-wait
      buckets (they sum to each job's makespan exactly). folded emits
      flamegraph-compatible stacks, gantt an ASCII timeline with
      per-host utilization lanes, table a plain-text breakdown.
      --width sets the gantt's width, so the other modes refuse it.
  apples-cli spans FILE [--mode tree|jsonl|composition]
      Fold a JSONL trace into causal span trees: job → attempt →
      phase with retry/revocation/backfill cause edges. The phase
      leaves tile each job's makespan exactly (they reconcile with
      `prof` to 0 µs); each tree carries its critical path. tree
      renders indented trees plus the composition rollup, jsonl one
      byte-stable JSON object per job, composition just the rollup.
  apples-cli timeseries FILE [--window SECS | --aligned] [--jsonl]
      Windowed time-series of a JSONL trace: per-kind event counts,
      busy-host utilization, queue depth, backlog, imposed load.
      Default 60 s fixed windows as a table; --aligned makes one row
      per distinct event time, so it refuses --window; --jsonl emits
      the byte-stable export. A window under 1 µs, or one that cuts the
      trace into more than 100000 rows, is refused.
  apples-cli metrics   [grid's flags except --trace, --metrics, --csv,
                       --json] [--out FILE]
      Run a seeded grid scenario with the metrics registry attached
      and dump a Prometheus text-format snapshot.
  apples-cli snapshot-diff A B
      Compare two Prometheus snapshots series by series.
      Exit 0 when identical, 1 on any difference, 2 on usage errors.
  apples-cli reproduce ID
      Print one recorded experiment exactly as EXPERIMENTS.md holds it.
      ID is one of
        FIG1 FIG3 FIG4 FIG5 FIG6 T-NWS ABL-1 ABL-2 ABL-3 ABL-4 T-EST
        T-MULTI T-PRED T-FIXED T-GRID T-FAULT T-PROF CHECKS
      CHECKS checks every headline claim at reduced size as a pass/fail
      checklist, exit 1 if any fails. Takes no flags; other
      configurations go through grid, compare and schedule.
  apples-cli lint      [PATH ...] [--format text|json|github] [--deny LINT]
      Run the simlint static analyzer over the workspace (defaults to
      the current directory). Parses its own flags: --deny may repeat. --format github emits workflow-command
      annotations; --deny fails even on allowed findings of LINT.
      Exit 0 clean, 1 on unallowed or denied findings, 2 on usage.
  apples-cli bench     [--hosts N[,N...]] [--topo SPEC1,SPEC2,...]
                       [--jobs N[,N...]] [--seed N] [--out FILE]
                       [--check FILE] [--json]
      Events/sec sweep of the simulation core (T-SCALE): incremental
      dirty-set engine vs the full-recompute baseline on a seeded
      synthetic fleet. --topo adds one sweep point per generated
      topology in its comma-separated list instead (e.g. --topo
      fat-tree:k=8 is 1024 hosts), each with the first --jobs value
      (default 10000) jobs; without --hosts, --jobs takes one value.
      The default sweep includes the generated fat-tree point and
      fixes its own job counts, so --jobs needs --hosts or --topo.
      Each engine runs five times per point, and the results record
      the median with the fastest and slowest run. Writes the
      results to --out (default BENCH_event_engine.json) and appends
      one line per run to the sibling *.history.jsonl trajectory;
      --check validates an existing results file instead of running
      (so it takes no sweep flag) and compares its median speedups
      against the last history point (nonzero exit if
      missing/malformed/mismatched).

Profiles: dedicated | light | moderate (default) | heavy
";

/// Flags every grid scenario reads (`grid`, `metrics`, `validate`).
const SCENARIO: &str = "rate= duration= seed= profile= topo= horizon= max-in-flight= \
     fault-rate= link-fault-rate= mean-outage= permanent= max-attempts= backoff= \
     regime= sp2 blind";

type Run = fn(&Parsed) -> commands::CmdResult;

/// A command's handler and its grammar ([`Parsed::parse`]), as lists
/// of space-separated words. Anything else is a parse error, so a flag
/// a command would ignore never runs silently. `None` for an unknown
/// command.
fn command_of(name: &str) -> Option<(Run, &'static [&'static str])> {
    use commands as c;
    const JACOBI: &str = "n= iterations= profile= seed= sp2";
    Some(match name {
        "testbed" => (c::testbed, &["profile= seed= sp2"]),
        "schedule" => (c::schedule, &[JACOBI, "source= metric= max-hosts= warmup="]),
        "compare" => (c::compare, &[JACOBI]),
        "forecast" => (c::forecast, &["host= until= profile= seed= sp2"]),
        "react" => (c::react, &["unit= depth= seed="]),
        "nile" => (c::nile, &["events= runs= seed="]),
        "resched" => (c::resched, &["n= iterations= phase= seed="]),
        "advise" => (c::advise_cmd, &["wait= avail= n= iterations="]),
        "whatif" => (c::whatif, &[JACOBI]),
        "grid" => (c::grid, &[SCENARIO, "trace= metrics= csv json"]),
        "metrics" => (c::metrics, &[SCENARIO, "out="]),
        "validate" => (c::validate, &[SCENARIO]),
        "race" => (
            c::race,
            &["rate= duration= seed= topo= fault-rate= mean-outage= max-attempts= report= quiet"],
        ),
        "trace" => (c::trace, &["SUB A [B]"]),
        "prof" => (c::prof, &["FILE mode= width="]),
        "spans" => (c::spans, &["FILE mode="]),
        "timeseries" => (c::timeseries, &["FILE window= aligned jsonl"]),
        "snapshot-diff" => (c::snapshot_diff, &["A B"]),
        "reproduce" => (c::reproduce, &["ID"]),
        "bench" => (c::bench, &["hosts= topo= jobs= seed= out= check= json"]),
        _ => return None,
    })
}

/// Parse `raw` (command first) against that command's own grammar.
fn parse_command(raw: &[String]) -> Result<(Run, Parsed), ArgError> {
    let name = raw.first().map(String::as_str).unwrap_or_default();
    let (run, words) =
        command_of(name).ok_or_else(|| ArgError(format!("unknown command {name:?}")))?;
    let grammar: Vec<&str> = words.iter().flat_map(|w| w.split_whitespace()).collect();
    Ok((run, Parsed::parse(raw, &grammar)?))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        print!("{USAGE}");
        return;
    }
    // `lint` hands its arguments to simlint's own driver, whose
    // `--deny` may be given more than once.
    if raw[0] == "lint" {
        std::process::exit(simlint::driver::run(raw.into_iter().skip(1)).into());
    }
    let (run, parsed) = match parse_command(&raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&parsed) {
        Ok(commands::Outcome::Done) => {}
        Ok(commands::Outcome::Differs) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            // A command's own argument check is a usage error like the
            // parser's; everything else is a failed run.
            std::process::exit(if e.is::<ArgError>() { 2 } else { 1 });
        }
    }
}
