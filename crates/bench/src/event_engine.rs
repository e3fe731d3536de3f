//! T-SCALE: events/sec of the simulation core — the incremental
//! dirty-set engine (`simulate_transfers_counting`) against the naive
//! full-recompute baseline (`simulate_transfers_reference`) on a seeded
//! synthetic fleet, swept over host and job counts.
//!
//! The scenario is a star of shared Ethernet-class segments (~8 hosts
//! each) hung off a backbone segment, every link carrying a periodic
//! background load so availability-change events fire throughout the
//! run. Transfers are mostly segment-local (the locality that makes
//! dirty sets small) with a cross-segment minority that exercises
//! multi-hop routes. Both engines consume the identical request batch
//! and their delivered times are cross-checked before any timing is
//! reported — a benchmark of a wrong answer is worthless.
//!
//! Beyond the synthetic fleet, `run_topo_point` runs the same
//! cross-checked comparison on any [`topogen`] family
//! (`fat-tree:k=8`, `clusters:clusters=16`, ...) — the default sweep
//! includes a 1024-host generated fat-tree.
//!
//! Each point times each engine [`SAMPLES`] times, alternating the two,
//! and records the median with the fastest and slowest run: one sample
//! per engine let a single slow reference run move the 100-host
//! speedup from 4× to 20× between two runs of one build.
//!
//! `run_sweep` produces the `BENCH_event_engine.json` trajectory file
//! at the repo root; `parse_results` validates it (the CI gate and
//! `apples-cli bench --check` both call it): event counts must agree
//! within [`EVENT_COUNT_TOLERANCE`] and the incremental engine must be
//! faster, in the median, at or above [`SPEEDUP_CROSSOVER_HOSTS`]
//! hosts.

use metasim::host::HostSpec;
use metasim::load::LoadModel;
use metasim::net::{simulate_transfers_counting, simulate_transfers_reference, TransferReq};
use metasim::net::{LinkSpec, Topology, TopologyBuilder};
use metasim::simtrace::NoopSink;
use metasim::topogen::{self, TopoGenConfig, TopoSpec};
use metasim::{HostId, SimTime};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Hosts attached to each shared segment.
const HOSTS_PER_SEGMENT: usize = 8;
/// Fraction of transfers whose endpoints share a segment.
const LOCALITY: f64 = 0.85;

/// Both engines implement the same event metric (arrivals + finishes +
/// availability changes on loaded links). Since the counting was
/// unified behind one shared walker, the two engines agree exactly at
/// every recorded bench point, so the gate is zero: any disagreement
/// at all is a real counting bug, and a nonzero tolerance would let a
/// regression hide inside it.
pub const EVENT_COUNT_TOLERANCE: u64 = 0;

/// Below ~this many hosts the incremental engine's dirty-set
/// bookkeeping costs more than the recompute it avoids; speedup < 1 is
/// expected and recorded, not an error (see EXPERIMENTS.md T-SCALE).
/// At or above it the incremental engine must win.
pub const SPEEDUP_CROSSOVER_HOSTS: usize = 100;

/// Timed runs of each engine per sweep point.
pub const SAMPLES: usize = 5;

/// Median, fastest and slowest of one engine's timed runs, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Median run.
    pub median: f64,
    /// Fastest run.
    pub min: f64,
    /// Slowest run.
    pub max: f64,
}

impl Spread {
    /// The spread of `secs`.
    ///
    /// # Panics
    /// Panics if `secs` is empty.
    fn of(mut secs: Vec<f64>) -> Spread {
        secs.sort_by(f64::total_cmp);
        let n = secs.len();
        let median = if n % 2 == 1 {
            secs[n / 2]
        } else {
            (secs[n / 2 - 1] + secs[n / 2]) / 2.0
        };
        Spread {
            median,
            min: secs[0],
            max: secs[n - 1],
        }
    }
}

/// One (hosts, jobs) sweep point's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct EnginePoint {
    /// Topology the point ran on: `"fleet"` for the synthetic star, or
    /// a [`TopoSpec`] label like `fat-tree:l2=8,l1=128,hosts=8`.
    pub topo: String,
    /// Host count of the synthetic fleet.
    pub hosts: usize,
    /// Transfer (job) count pushed through it.
    pub jobs: usize,
    /// Workload seed.
    pub seed: u64,
    /// Timed runs behind each engine's [`Spread`].
    pub samples: usize,
    /// Events processed by the incremental engine.
    pub inc_events: u64,
    /// Wall-clock seconds of the incremental runs.
    pub inc_secs: Spread,
    /// Events processed by the full-recompute baseline.
    pub ref_events: u64,
    /// Wall-clock seconds of the baseline runs.
    pub ref_secs: Spread,
}

impl EnginePoint {
    /// Incremental events per second, at the median run.
    pub fn inc_events_per_sec(&self) -> f64 {
        per_sec(self.inc_events as f64, self.inc_secs.median)
    }

    /// Baseline events per second, at the median run.
    pub fn ref_events_per_sec(&self) -> f64 {
        per_sec(self.ref_events as f64, self.ref_secs.median)
    }

    /// Incremental jobs (transfers) per second, at the median run.
    pub fn inc_jobs_per_sec(&self) -> f64 {
        per_sec(self.jobs as f64, self.inc_secs.median)
    }

    /// events/sec advantage of the incremental engine over the
    /// baseline, median against median.
    pub fn speedup(&self) -> f64 {
        let r = self.ref_events_per_sec();
        if r > 0.0 {
            self.inc_events_per_sec() / r
        } else {
            f64::INFINITY
        }
    }

    /// Absolute difference between the engines' event counts.
    pub fn events_delta(&self) -> u64 {
        self.inc_events.abs_diff(self.ref_events)
    }
}

fn per_sec(n: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        n / secs
    } else {
        f64::INFINITY
    }
}

/// Build the synthetic fleet: `ceil(hosts/8)` shared segments in a star
/// around a backbone segment, periodic background load everywhere.
pub fn build_fleet(hosts: usize, horizon: SimTime, seed: u64) -> Topology {
    let hosts = hosts.max(2);
    let n_seg = hosts.div_ceil(HOSTS_PER_SEGMENT);
    let mut b = TopologyBuilder::new();
    let backbone = b.add_segment(LinkSpec::shared(
        "backbone",
        120.0,
        SimTime::from_millis(2),
        LoadModel::Periodic {
            high: 1.0,
            low: 0.7,
            half_period: SimTime::from_secs(30),
            phase: SimTime::ZERO,
        },
    ));
    let mut segs = Vec::with_capacity(n_seg);
    for i in 0..n_seg {
        let seg = b.add_segment(LinkSpec::shared(
            &format!("seg{i}"),
            12.5,
            SimTime::from_millis(1),
            LoadModel::Periodic {
                high: 1.0,
                low: 0.6,
                // Staggered phases so segment events don't all
                // coincide at the same timestamps.
                half_period: SimTime::from_secs(20),
                phase: SimTime::from_millis(1700 * i as u64 % 20_000),
            },
        ));
        b.connect(
            backbone,
            seg,
            LinkSpec::dedicated(&format!("up{i}"), 40.0, SimTime::from_millis(1)),
        );
        segs.push(seg);
    }
    for h in 0..hosts {
        b.add_host(HostSpec::dedicated(
            &format!("h{h}"),
            10.0,
            256.0,
            segs[h / HOSTS_PER_SEGMENT],
        ));
    }
    b.instantiate(horizon, seed)
        // simlint does not police bench crates, but stay graceful: the
        // builder only fails on invalid specs, which are constants here.
        .unwrap_or_else(|e| panic!("fleet build failed: {e}"))
}

/// Generate the seeded transfer batch: `LOCALITY` of the flows stay on
/// their source segment, the rest cross the wider topology. Locality
/// groups come from each host's actual segment, so the same generator
/// drives the synthetic fleet and any [`topogen`] family.
pub fn build_workload(topo: &Topology, jobs: usize, seed: u64) -> Vec<TransferReq> {
    let hosts = topo.hosts().len();
    // Hosts sharing a segment, in host-id order, and each host's index
    // within its group.
    let mut seg_hosts: Vec<Vec<usize>> = vec![Vec::new(); topo.segment_count()];
    let mut seg_of = Vec::with_capacity(hosts);
    let mut pos_in_seg = Vec::with_capacity(hosts);
    for h in topo.hosts() {
        let s = h.spec.segment.0;
        seg_of.push(s);
        pos_in_seg.push(seg_hosts[s].len());
        seg_hosts[s].push(h.id.0);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBE7C_11E5);
    // Submission window scales with per-host pressure so concurrency
    // stays in a realistic band across the sweep.
    let window_secs = (jobs as f64 / hosts as f64 * 12.0).max(60.0);
    let mut reqs = Vec::with_capacity(jobs);
    for tag in 0..jobs {
        let from = rng.gen_range(0..hosts);
        let peers = &seg_hosts[seg_of[from]];
        let local = rng.gen_range(0.0..1.0) < LOCALITY && peers.len() > 1;
        let to = if local {
            let mut t = peers[rng.gen_range(0..peers.len())];
            if t == from {
                t = peers[(pos_in_seg[from] + 1) % peers.len()];
            }
            t
        } else {
            let mut t = rng.gen_range(0..hosts);
            if t == from {
                t = (t + 1) % hosts;
            }
            t
        };
        reqs.push(TransferReq {
            from: HostId(from),
            to: HostId(to),
            mb: 0.5 + rng.gen_range(0.0..7.5),
            start: SimTime::from_secs_f64(rng.gen_range(0.0..window_secs)),
            tag,
        });
    }
    reqs
}

fn submission_window_secs(hosts: usize, jobs: usize) -> f64 {
    (jobs as f64 / hosts.max(2) as f64 * 12.0).max(60.0)
}

/// Run both engines over `jobs` seeded transfers on an already-built
/// topology, [`SAMPLES`] times each, alternating. The engines' delivered
/// times are cross-checked (±2 µs, the lazy-integration quantization
/// slack) and their event counts must agree within
/// [`EVENT_COUNT_TOLERANCE`] on every run, and every repeat must count
/// the events the first run did, before timings are accepted.
pub fn run_point_on(
    topo_label: &str,
    topo: &Topology,
    jobs: usize,
    seed: u64,
) -> Result<EnginePoint, String> {
    let hosts = topo.hosts().len();
    let reqs = build_workload(topo, jobs, seed);

    let mut inc_secs = Vec::with_capacity(SAMPLES);
    let mut ref_secs = Vec::with_capacity(SAMPLES);
    let mut counts: Option<(u64, u64)> = None;
    for _ in 0..SAMPLES {
        let t0 = std::time::Instant::now();
        let (inc_results, inc_events) = simulate_transfers_counting(topo, &reqs, &mut NoopSink)
            .map_err(|e| format!("incremental engine failed: {e}"))?;
        inc_secs.push(t0.elapsed().as_secs_f64());

        let t1 = std::time::Instant::now();
        let (ref_results, ref_events) = simulate_transfers_reference(topo, &reqs, &mut NoopSink)
            .map_err(|e| format!("reference engine failed: {e}"))?;
        ref_secs.push(t1.elapsed().as_secs_f64());

        for (a, b) in inc_results.iter().zip(&ref_results) {
            let (x, y) = (a.delivered.as_micros(), b.delivered.as_micros());
            if a.tag != b.tag || x.abs_diff(y) > 2 {
                return Err(format!(
                    "engines disagree on tag {}: incremental {:?} vs reference {:?}",
                    a.tag, a.delivered, b.delivered
                ));
            }
        }
        if inc_events.abs_diff(ref_events) > EVENT_COUNT_TOLERANCE {
            return Err(format!(
                "event counts diverge on {topo_label}: incremental {inc_events} vs reference \
                 {ref_events} (tolerance {EVENT_COUNT_TOLERANCE}) — the engines no longer \
                 implement the same event metric"
            ));
        }
        if let Some(first) = counts.filter(|&c| c != (inc_events, ref_events)) {
            return Err(format!(
                "event counts on {topo_label} changed between repeats: {first:?} then {:?}",
                (inc_events, ref_events)
            ));
        }
        counts = Some((inc_events, ref_events));
    }
    let (inc_events, ref_events) = counts.unwrap_or_default();

    Ok(EnginePoint {
        topo: topo_label.to_string(),
        hosts,
        jobs,
        seed,
        samples: SAMPLES,
        inc_events,
        inc_secs: Spread::of(inc_secs),
        ref_events,
        ref_secs: Spread::of(ref_secs),
    })
}

/// Run one synthetic-fleet sweep point.
pub fn run_point(hosts: usize, jobs: usize, seed: u64) -> Result<EnginePoint, String> {
    let window_secs = submission_window_secs(hosts, jobs);
    // Generous horizon: the window plus room for the slowest flows.
    let horizon = SimTime::from_secs_f64(window_secs * 4.0 + 3600.0);
    let topo = build_fleet(hosts, horizon, seed);
    run_point_on("fleet", &topo, jobs, seed)
}

/// Run one sweep point on a generated [`topogen`] topology named by a
/// spec string (`fat-tree:k=8`, `clusters:clusters=16`, ...).
pub fn run_topo_point(spec: &str, jobs: usize, seed: u64) -> Result<EnginePoint, String> {
    let spec = TopoSpec::parse(spec).map_err(|e| e.to_string())?;
    let hosts = spec.host_count();
    let window_secs = submission_window_secs(hosts, jobs);
    let cfg = TopoGenConfig {
        horizon: SimTime::from_secs_f64(window_secs * 4.0 + 3600.0),
        seed,
        ..TopoGenConfig::default()
    };
    let topo = topogen::generate(&spec, &cfg).map_err(|e| e.to_string())?;
    run_point_on(&spec.label(), &topo, jobs, seed)
}

/// Run the full sweep: synthetic-fleet points first, then generated
/// topology points. Points that fail cross-checking abort the sweep:
/// no numbers are better than wrong numbers.
pub fn run_sweep(points: &[(usize, usize)], seed: u64) -> Result<Vec<EnginePoint>, String> {
    points
        .iter()
        .map(|&(hosts, jobs)| run_point(hosts, jobs, seed))
        .collect()
}

/// Run a sweep of generated topologies, `(spec, jobs)` per point.
pub fn run_topo_sweep(points: &[(&str, usize)], seed: u64) -> Result<Vec<EnginePoint>, String> {
    points
        .iter()
        .map(|&(spec, jobs)| run_topo_point(spec, jobs, seed))
        .collect()
}

/// The default trajectory sweep: one decade of hosts per point.
pub const DEFAULT_SWEEP: [(usize, usize); 3] = [(10, 100), (100, 1_000), (1_000, 10_000)];

/// The default generated-topology sweep: a 1024-host k=8 fat-tree, the
/// fleet-scale point the hand-built testbeds could never reach.
pub const DEFAULT_TOPO_SWEEP: [(&str, usize); 1] = [("fat-tree:k=8", 10_000)];

/// Render the sweep as the `BENCH_event_engine.json` document.
pub fn to_json(points: &[EnginePoint]) -> String {
    let mut out = String::from("{\n  \"bench\": \"event_engine\",\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"topo\": \"{}\", \"hosts\": {}, \"jobs\": {}, \"seed\": {}, \
             \"samples\": {}, \"inc_events\": {}, \"inc_secs\": {:.6}, \
             \"inc_secs_min\": {:.6}, \"inc_secs_max\": {:.6}, \
             \"ref_events\": {}, \"ref_secs\": {:.6}, \
             \"ref_secs_min\": {:.6}, \"ref_secs_max\": {:.6}, \"events_delta\": {}, \
             \"inc_events_per_sec\": {:.1}, \"ref_events_per_sec\": {:.1}, \
             \"inc_jobs_per_sec\": {:.1}, \"speedup\": {:.2}}}{sep}\n",
            p.topo,
            p.hosts,
            p.jobs,
            p.seed,
            p.samples,
            p.inc_events,
            p.inc_secs.median,
            p.inc_secs.min,
            p.inc_secs.max,
            p.ref_events,
            p.ref_secs.median,
            p.ref_secs.min,
            p.ref_secs.max,
            p.events_delta(),
            p.inc_events_per_sec(),
            p.ref_events_per_sec(),
            p.inc_jobs_per_sec(),
            p.speedup(),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render the sweep as an aligned table for terminals.
pub fn to_table(points: &[EnginePoint]) -> String {
    let header = format!(
        "{:<28} {:>6} {:>7} {:>12} {:>12} {:>14} {:>14} {:>8}\n",
        "topo", "hosts", "jobs", "inc ev/s", "ref ev/s", "inc jobs/s", "inc events", "speedup"
    );
    let mut out = header;
    for p in points {
        out.push_str(&format!(
            "{:<28} {:>6} {:>7} {:>12.0} {:>12.0} {:>14.0} {:>14} {:>7.2}x\n",
            p.topo,
            p.hosts,
            p.jobs,
            p.inc_events_per_sec(),
            p.ref_events_per_sec(),
            p.inc_jobs_per_sec(),
            p.inc_events,
            p.speedup(),
        ));
    }
    out
}

fn field_f64(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    rest.split('"').next()
}

/// Parse and validate a `BENCH_event_engine.json` document, returning
/// its sweep points. Errors describe what is malformed or missing —
/// this is the CI artifact gate.
pub fn parse_results(text: &str) -> Result<Vec<EnginePoint>, String> {
    if !text.contains("\"bench\": \"event_engine\"") {
        return Err("not an event_engine bench document".into());
    }
    let arr_start = text
        .find("\"points\": [")
        .ok_or_else(|| "missing points array".to_string())?;
    let body = &text[arr_start..];
    let mut points = Vec::new();
    for obj in body.split('{').skip(1) {
        let obj = obj.split('}').next().unwrap_or("");
        let want = |key: &str| {
            field_f64(obj, key).ok_or_else(|| format!("point missing numeric field {key:?}"))
        };
        let spread = |key: &str| -> Result<Spread, String> {
            Ok(Spread {
                median: want(key)?,
                min: want(&format!("{key}_min"))?,
                max: want(&format!("{key}_max"))?,
            })
        };
        points.push(EnginePoint {
            topo: field_str(obj, "topo").unwrap_or("fleet").to_string(),
            hosts: want("hosts")? as usize,
            jobs: want("jobs")? as usize,
            seed: want("seed")? as u64,
            samples: want("samples")? as usize,
            inc_events: want("inc_events")? as u64,
            inc_secs: spread("inc_secs")?,
            ref_events: want("ref_events")? as u64,
            ref_secs: spread("ref_secs")?,
        });
    }
    if points.is_empty() {
        return Err("points array is empty".into());
    }
    for p in &points {
        if p.hosts == 0 || p.jobs == 0 || p.samples == 0 {
            return Err(format!("degenerate point: {p:?}"));
        }
        for t in [p.inc_secs, p.ref_secs] {
            if ![t.min, t.median, t.max].iter().all(|x| x.is_finite()) {
                return Err(format!("non-finite timing in point: {p:?}"));
            }
            if !(t.min <= t.median && t.median <= t.max) {
                return Err(format!("median outside its min/max in point: {p:?}"));
            }
        }
        if p.inc_events == 0 || p.ref_events == 0 {
            return Err(format!("zero event count in point: {p:?}"));
        }
        if p.events_delta() > EVENT_COUNT_TOLERANCE {
            return Err(format!(
                "event counts diverge beyond tolerance {EVENT_COUNT_TOLERANCE} in point: {p:?}"
            ));
        }
        if p.hosts >= SPEEDUP_CROSSOVER_HOSTS && p.speedup() < 1.0 {
            return Err(format!(
                "incremental engine slower than baseline at {} hosts (speedup {:.2}, \
                 crossover is {} hosts): {p:?}",
                p.hosts,
                p.speedup(),
                SPEEDUP_CROSSOVER_HOSTS
            ));
        }
    }
    Ok(points)
}

/// One remembered sweep point from the history trajectory — the
/// structural identity of the point plus the two rates worth
/// trending. Wall-clock rates drift run to run; identity must not.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryPoint {
    /// Topology label of the point.
    pub topo: String,
    /// Host count.
    pub hosts: usize,
    /// Transfer count.
    pub jobs: usize,
    /// Workload seed.
    pub seed: u64,
    /// events/sec advantage of the incremental engine at record time,
    /// median against median.
    pub speedup: f64,
    /// Timed runs per engine behind `speedup`; lines written before
    /// repeated samples carry none and read as 1.
    pub samples: usize,
    /// Incremental events per second at record time.
    pub inc_events_per_sec: f64,
}

/// Render one run's sweep as a `BENCH_event_engine.history.jsonl`
/// line (no trailing newline). Every `bench` run appends one, so the
/// file is the machine's performance trajectory over time.
pub fn history_line(points: &[EnginePoint]) -> String {
    let mut out = String::from("{\"bench\": \"event_engine\", \"points\": [");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"topo\": \"{}\", \"hosts\": {}, \"jobs\": {}, \"seed\": {}, \
             \"samples\": {}, \"speedup\": {:.2}, \"inc_events_per_sec\": {:.1}}}",
            p.topo,
            p.hosts,
            p.jobs,
            p.seed,
            p.samples,
            p.speedup(),
            p.inc_events_per_sec(),
        ));
    }
    out.push_str("]}");
    out
}

/// Parse a history file into one point-vector per recorded run
/// (malformed lines are errors — the file is machine-written).
pub fn parse_history(text: &str) -> Result<Vec<Vec<HistoryPoint>>, String> {
    let mut runs = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if !line.contains("\"bench\": \"event_engine\"") {
            return Err(format!(
                "history line {}: not an event_engine record",
                n + 1
            ));
        }
        let mut points = Vec::new();
        let body = line
            .find("\"points\": [")
            .map(|i| &line[i..])
            .ok_or_else(|| format!("history line {}: missing points array", n + 1))?;
        for obj in body.split('{').skip(1) {
            let obj = obj.split('}').next().unwrap_or("");
            let want = |key: &str| {
                field_f64(obj, key)
                    .ok_or_else(|| format!("history line {}: missing field {key:?}", n + 1))
            };
            points.push(HistoryPoint {
                topo: field_str(obj, "topo").unwrap_or("fleet").to_string(),
                hosts: want("hosts")? as usize,
                jobs: want("jobs")? as usize,
                seed: want("seed")? as u64,
                speedup: want("speedup")?,
                samples: field_f64(obj, "samples").map_or(1, |n| n as usize),
                inc_events_per_sec: want("inc_events_per_sec")?,
            });
        }
        if points.is_empty() {
            return Err(format!("history line {}: empty points array", n + 1));
        }
        runs.push(points);
    }
    Ok(runs)
}

/// Compare a sweep's median speedups against the last history run's.
/// Structural mismatch (different point set or seed) is an error; rate
/// drift is returned as human-readable lines for reporting, because
/// wall-clock rates legitimately move between machines and runs.
pub fn compare_with_history(
    points: &[EnginePoint],
    last: &[HistoryPoint],
) -> Result<Vec<String>, String> {
    if points.len() != last.len() {
        return Err(format!(
            "sweep has {} point(s) but the last history run has {}",
            points.len(),
            last.len()
        ));
    }
    let mut lines = Vec::with_capacity(points.len());
    for (p, h) in points.iter().zip(last) {
        if p.topo != h.topo || p.hosts != h.hosts || p.jobs != h.jobs || p.seed != h.seed {
            return Err(format!(
                "point mismatch vs. history: now {}/{} hosts/{} jobs seed {}, \
                 last {}/{} hosts/{} jobs seed {}",
                p.topo, p.hosts, p.jobs, p.seed, h.topo, h.hosts, h.jobs, h.seed
            ));
        }
        let now = p.speedup();
        let drift = if h.speedup > 0.0 {
            100.0 * (now - h.speedup) / h.speedup
        } else {
            0.0
        };
        lines.push(format!(
            "{:<28} {:>6} hosts: median speedup {:.2}x of {} vs {:.2}x of {} last ({:+.1}%)",
            p.topo, p.hosts, now, p.samples, h.speedup, h.samples, drift
        ));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spread from half to twice `median`, exact in binary so it
    /// survives the JSON round trip.
    fn flat(median: f64) -> Spread {
        Spread {
            median,
            min: median / 2.0,
            max: median * 2.0,
        }
    }

    #[test]
    fn spread_is_median_min_and_max() {
        let s = Spread::of(vec![0.3, 0.1, 0.9, 0.2, 0.4]);
        assert_eq!((s.median, s.min, s.max), (0.3, 0.1, 0.9));
        assert_eq!(Spread::of(vec![0.4, 0.2]).median, (0.2 + 0.4) / 2.0);
    }

    #[test]
    fn a_point_times_each_engine_samples_times() {
        let p = run_point(10, 100, 7).expect("cross-check");
        assert_eq!(p.samples, SAMPLES);
        for t in [p.inc_secs, p.ref_secs] {
            assert!(t.min <= t.median && t.median <= t.max, "{t:?}");
        }
    }

    #[test]
    fn engines_agree_on_a_small_fleet() {
        let p = run_point(10, 100, 7).expect("cross-check");
        assert!(p.inc_events > 0 && p.ref_events > 0);
        assert_eq!(p.events_delta(), EVENT_COUNT_TOLERANCE);
    }

    #[test]
    fn engines_agree_on_a_generated_fat_tree() {
        let p = run_topo_point("fat-tree:l2=3,l1=8,hosts=4", 200, 7).expect("cross-check");
        assert_eq!(p.hosts, 32);
        assert_eq!(p.topo, "fat-tree:l2=3,l1=8,hosts=4");
    }

    #[test]
    fn engines_agree_on_generated_clusters() {
        let p = run_topo_point("clusters:clusters=3,segs=2,hosts=4", 200, 7).expect("cross-check");
        assert_eq!(p.hosts, 24);
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let topo = build_fleet(16, SimTime::from_secs(10_000), 3);
        assert_eq!(build_workload(&topo, 50, 3), build_workload(&topo, 50, 3));
        assert_ne!(build_workload(&topo, 50, 3), build_workload(&topo, 50, 4));
    }

    #[test]
    fn json_round_trips_through_the_validator() {
        let pts = vec![
            EnginePoint {
                topo: "fleet".into(),
                hosts: 10,
                jobs: 100,
                seed: 42,
                samples: SAMPLES,
                inc_events: 1234,
                inc_secs: flat(0.0125),
                ref_events: 1234,
                ref_secs: flat(0.05),
            },
            EnginePoint {
                topo: "fat-tree:l2=8,l1=128,hosts=8".into(),
                hosts: 1024,
                jobs: 10_000,
                seed: 42,
                samples: SAMPLES,
                inc_events: 60_000,
                inc_secs: flat(0.5),
                ref_events: 60_000,
                ref_secs: flat(9.5),
            },
        ];
        let parsed = parse_results(&to_json(&pts)).expect("valid");
        assert_eq!(parsed, pts);
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(parse_results("").is_err());
        assert!(parse_results("{}").is_err());
        assert!(parse_results("{\"bench\": \"event_engine\", \"points\": []}").is_err());
        let truncated = "{\"bench\": \"event_engine\", \"points\": [{\"hosts\": 10}]}";
        assert!(parse_results(truncated).is_err());
    }

    #[test]
    fn history_round_trips_and_compares() {
        let pts = vec![
            EnginePoint {
                topo: "fleet".into(),
                hosts: 10,
                jobs: 100,
                seed: 42,
                samples: SAMPLES,
                inc_events: 1234,
                inc_secs: flat(0.0125),
                ref_events: 1234,
                ref_secs: flat(0.05),
            },
            EnginePoint {
                topo: "fat-tree:k=8".into(),
                hosts: 1024,
                jobs: 10_000,
                seed: 42,
                samples: SAMPLES,
                inc_events: 60_000,
                inc_secs: flat(0.5),
                ref_events: 60_000,
                ref_secs: flat(9.5),
            },
        ];
        let file = format!("{}\n{}\n", history_line(&pts), history_line(&pts));
        let runs = parse_history(&file).expect("valid history");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0][1].hosts, 1024);
        let drift = compare_with_history(&pts, &runs[1]).expect("same shape");
        assert_eq!(drift.len(), 2);
        assert!(drift[0].contains("+0.0%"), "{}", drift[0]);

        // A different point set is a structural error, not drift.
        let mut other = pts.clone();
        other[1].hosts = 512;
        assert!(compare_with_history(&other, &runs[1]).is_err());
        assert!(compare_with_history(&pts[..1], &runs[1]).is_err());
        // Lines from before repeated samples read as one sample each.
        let single = "{\"bench\": \"event_engine\", \"points\": [{\"topo\": \"fleet\", \
                      \"hosts\": 10, \"jobs\": 100, \"seed\": 42, \"speedup\": 1.13, \
                      \"inc_events_per_sec\": 2251353.0}]}";
        let old = parse_history(single).expect("single-sample line");
        assert_eq!((old[0][0].samples, old[0][0].speedup), (1, 1.13));
        assert_eq!(runs[0][0].samples, SAMPLES);
        // Malformed lines are loud.
        assert!(parse_history("{\"bench\": \"other\"}").is_err());
        assert!(parse_history("{\"bench\": \"event_engine\", \"points\": []}").is_err());
    }

    #[test]
    fn validator_rejects_diverged_event_counts_and_late_slowdowns() {
        let base = EnginePoint {
            topo: "fleet".into(),
            hosts: 1000,
            jobs: 10_000,
            seed: 42,
            samples: SAMPLES,
            inc_events: 60_000,
            inc_secs: flat(0.5),
            ref_events: 60_000,
            ref_secs: flat(9.5),
        };
        // Event counts differing beyond the tolerance are a counting
        // bug, not timing noise.
        let mut diverged = base.clone();
        diverged.ref_events = base.inc_events - EVENT_COUNT_TOLERANCE - 1;
        assert!(parse_results(&to_json(&[diverged])).is_err());
        // Past the crossover the incremental engine must actually win.
        let mut slow = base.clone();
        slow.inc_secs = flat(10.0);
        slow.ref_secs = flat(0.5);
        assert!(parse_results(&to_json(&[slow])).is_err());
        // A median outside its own range is a corrupt document.
        let mut inverted = base.clone();
        inverted.ref_secs.max = inverted.ref_secs.median / 4.0;
        assert!(parse_results(&to_json(&[inverted])).is_err());
        // Below the crossover a slowdown is recorded, not rejected.
        let mut small_slow = base;
        small_slow.hosts = 10;
        small_slow.inc_secs = flat(0.05);
        small_slow.ref_secs = flat(0.04);
        assert!(parse_results(&to_json(&[small_slow])).is_ok());
    }
}
