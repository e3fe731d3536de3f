//! `net-fattree`: the fluid-flow network engine on a 1024-host
//! generated fat-tree.

use std::time::Instant;

use apples_bench::event_engine::build_workload;
use metasim::net::{
    simulate_transfers_counting, simulate_transfers_reference, TransferReq, TransferResult,
};
use metasim::simtrace::NoopSink;
use metasim::topogen::{self, TopoGenConfig, TopoSpec};
use metasim::{SimTime, Topology};

use crate::clock::{HostClock, Layer};
use crate::report::{ratio, secs_since, Fnv, Outcome};
use crate::spans::SpanLog;
use crate::{passes, Mode};

/// The generated topology.
const TOPO: &str = "fat-tree:k=8";

/// How much the network workload runs.
#[derive(Debug, Clone, Copy)]
pub struct NetSize {
    /// Transfers simulated per pass.
    pub transfers: usize,
    /// Prefix cross-checked against the reference engine.
    pub checked: usize,
}

struct Fleet {
    topo: Topology,
    reqs: Vec<TransferReq>,
    generate_s: f64,
    build_s: f64,
}

impl Fleet {
    /// The `event_engine` bench's generated-topology point: horizon and
    /// submission window scale with transfers per host.
    fn new(seed: u64, transfers: usize) -> Result<Fleet, String> {
        let spec = TopoSpec::parse(TOPO).map_err(|e| e.to_string())?;
        let window = (transfers as f64 / spec.host_count().max(2) as f64 * 12.0).max(60.0);
        let cfg = TopoGenConfig {
            horizon: SimTime::from_secs_f64(window * 4.0 + 3600.0),
            seed,
            ..TopoGenConfig::default()
        };
        let t = Instant::now();
        let topo = topogen::generate(&spec, &cfg).map_err(|e| e.to_string())?;
        let generate_s = secs_since(t);
        let t = Instant::now();
        let reqs = build_workload(&topo, transfers, seed);
        Ok(Fleet {
            topo,
            reqs,
            generate_s,
            build_s: secs_since(t),
        })
    }
}

fn digest(results: &[TransferResult], events: u64) -> u64 {
    let mut h = Fnv::default();
    h.write_u64(events);
    for r in results {
        h.write_u64(r.tag as u64);
        h.write_u64(r.delivered.as_micros());
    }
    h.finish()
}

/// Cross-check the first `n` transfers against the full-recompute
/// reference engine: delivered times within ±2 µs and equal event
/// counts, the `event_engine` bench's own tolerances.
fn check_reference(f: &Fleet, n: usize, out: &mut Outcome) {
    let reqs = &f.reqs[..n.min(f.reqs.len())];
    let fast = simulate_transfers_counting(&f.topo, reqs, &mut NoopSink);
    let slow = simulate_transfers_reference(&f.topo, reqs, &mut NoopSink);
    let ok = match (&fast, &slow) {
        (Ok((a, ea)), Ok((b, eb))) => {
            ea == eb
                && a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| {
                    x.tag == y.tag && x.delivered.as_micros().abs_diff(y.delivered.as_micros()) <= 2
                })
        }
        _ => false,
    };
    out.op(ok, || {
        format!("engines disagree on the first {} transfers", reqs.len())
    });
}

/// Run the network workload.
pub fn run(seed: u64, size: NetSize, mode: &Mode, out: &mut Outcome) {
    let fleet = match mode.setup(out, || Fleet::new(seed, size.transfers)) {
        Ok(f) => f,
        Err(e) => return out.op(false, || e),
    };
    out.set("metasim.topogen.generate_s", fleet.generate_s);
    out.set("bench.event_engine.build_workload_s", fleet.build_s);

    if mode.trace {
        traced(&fleet, mode, out);
    } else {
        let mut first = None;
        let mut walls = Vec::new();
        passes(mode.seconds, || {
            let t = Instant::now();
            let result = simulate_transfers_counting(&fleet.topo, &fleet.reqs, &mut NoopSink);
            walls.push(secs_since(t));
            match result {
                Ok((results, events)) => {
                    let d = digest(&results, events);
                    let want = *first.get_or_insert(d);
                    out.op(d == want, || {
                        "simulation differs from the first pass".into()
                    });
                }
                Err(e) => out.op(false, || e.to_string()),
            }
        });
        out.set_timing("wall_s", &walls);
        if let Some(d) = first {
            out.digest.write_u64(d);
        }
    }
    check_reference(&fleet, size.checked, out);
}

/// Per-layer pass: one untraced and one traced simulation.
fn traced(f: &Fleet, mode: &Mode, out: &mut Outcome) {
    let t = Instant::now();
    let plain = simulate_transfers_counting(&f.topo, &f.reqs, &mut NoopSink);
    let untraced = secs_since(t);

    let mut spans = SpanLog::new(Instant::now());
    let mut noop = NoopSink;
    let t = Instant::now();
    let mut clock = HostClock::new(&mut noop, &mut spans, "simulate", None);
    let seen = simulate_transfers_counting(&f.topo, &f.reqs, &mut clock);
    let report = clock.finish(Layer::Exec);
    let traced = secs_since(t);

    match (plain, seen) {
        (Ok((a, ea)), Ok((b, eb))) => {
            let d = digest(&a, ea);
            out.digest.write_u64(d);
            out.op(d == digest(&b, eb), || "traced simulation differs".into());
            out.set("metasim.net.events", ea as f64);
            out.set("metasim.net.transfers", f.reqs.len() as f64);
            out.set(
                "metasim.net.events_per_transfer",
                ratio(ea as f64, f.reqs.len() as f64),
            );
        }
        (a, b) => out.op(false, || format!("{:?} / {:?}", a.err(), b.err())),
    }
    report.set_metrics(out);
    out.set("trace_overhead_frac", ratio(traced, untraced) - 1.0);
    out.set(
        "unattributed_frac",
        1.0 - ratio(report.total_secs(), traced),
    );
    crate::write_spans(mode, &spans, out);
}
