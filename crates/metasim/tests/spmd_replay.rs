//! Differential test: the SPMD executor's iteration replay against the
//! per-iteration loop it replaced.
//!
//! `simulate_spmd` replays an iteration from the last simulated one
//! while no host or route link of the job changes availability.
//! `reference_spmd` below is the executor before replay, kept verbatim:
//! it re-simulates every iteration. On generated star and tree
//! topologies under every load profile, with imposed load windows and
//! crash windows, both must agree bit for bit: the outcome, the error
//! and every trace event.

use metasim::exec::{simulate_spmd, SpmdJob, SpmdOutcome, SpmdPlacement};
use metasim::fault::{apply_faults, FaultSpec, HostFault};
use metasim::host::HostSpec;
use metasim::load::{Imposition, StepSeries};
use metasim::net::{simulate_transfers, LinkId, LinkSpec, TopologyBuilder, TransferReq};
use metasim::simtrace::{EventSink, TraceEvent};
use metasim::testbed::LoadProfile;
use metasim::topogen::{generate, TopoGenConfig, TopoSpec};
use metasim::{HostId, NoopSink, SimError, SimTime, Topology, VecSink};
use proptest::prelude::*;

/// The executor before iteration replay: every iteration computes each
/// worker through `compute_finish_checked` and runs the fluid engine
/// over its exchange.
fn reference_spmd(
    topo: &Topology,
    job: &SpmdJob,
    sink: &mut dyn EventSink,
) -> Result<SpmdOutcome, SimError> {
    if job.placements.is_empty() {
        return Err(SimError::EmptySchedule);
    }
    let n = job.placements.len();
    for p in &job.placements {
        topo.host(p.host)?;
        for &(dst, mb) in &p.sends {
            if dst >= n {
                return Err(SimError::Invalid(format!(
                    "send targets worker {dst} but there are only {n} workers"
                )));
            }
            if mb < 0.0 {
                return Err(SimError::NonPositive {
                    what: "send payload",
                    value: mb,
                });
            }
        }
        if p.work_mflop < 0.0 {
            return Err(SimError::NonPositive {
                what: "work_mflop",
                value: p.work_mflop,
            });
        }
    }

    // Co-allocation: wait for the slowest host acquisition.
    let mut barrier = job.start;
    for p in &job.placements {
        let ready = job.start + topo.host(p.host)?.startup_wait();
        barrier = barrier.max(ready);
    }

    if sink.enabled() {
        for p in &job.placements {
            sink.record(TraceEvent::ComputeStart {
                host: p.host,
                at: barrier,
                work_mflop: p.work_mflop * job.iterations as f64,
            });
        }
    }

    let mut iteration_ends = Vec::with_capacity(job.iterations);
    let mut compute_time = vec![SimTime::ZERO; n];
    let mut sync_time = vec![SimTime::ZERO; n];
    // The last iteration's compute instants: all the closing
    // ComputeFinish events read.
    let mut last_compute_done = Vec::new();

    for _ in 0..job.iterations {
        // Compute phase.
        let mut compute_done = Vec::with_capacity(n);
        for (w, p) in job.placements.iter().enumerate() {
            let host = topo.host(p.host)?;
            let done = host.compute_finish_checked(barrier, p.work_mflop, p.resident_mb)?;
            compute_time[w] += done - barrier;
            compute_done.push(done);
        }

        // Exchange phase: all sends enter the network together.
        let mut reqs = Vec::new();
        for (w, p) in job.placements.iter().enumerate() {
            for &(dst, mb) in &p.sends {
                reqs.push(TransferReq {
                    from: p.host,
                    to: job.placements[dst].host,
                    mb,
                    start: compute_done[w],
                    tag: w,
                });
            }
        }
        let mut next_barrier = compute_done.iter().copied().fold(barrier, SimTime::max);
        if !reqs.is_empty() {
            for r in simulate_transfers(topo, &reqs, sink)? {
                next_barrier = next_barrier.max(r.delivered);
            }
        }

        for (w, &done) in compute_done.iter().enumerate() {
            sync_time[w] += next_barrier - done;
        }
        last_compute_done = compute_done;
        barrier = next_barrier;
        iteration_ends.push(barrier);
    }

    // Integer-microsecond accumulation above; one f64 conversion here
    // at the reporting boundary.
    let compute_seconds: Vec<f64> = compute_time.iter().map(|t| t.as_secs_f64()).collect();
    let sync_seconds: Vec<f64> = sync_time.iter().map(|t| t.as_secs_f64()).collect();

    if sink.enabled() {
        for (w, p) in job.placements.iter().enumerate() {
            let last_done = last_compute_done.get(w).copied().unwrap_or(barrier);
            sink.record(TraceEvent::ComputeFinish {
                host: p.host,
                at: last_done,
                elapsed_seconds: compute_seconds[w],
            });
        }
    }

    Ok(SpmdOutcome {
        finish: barrier,
        iteration_ends,
        compute_seconds,
        sync_seconds,
    })
}

fn s(x: f64) -> SimTime {
    SimTime::from_secs_f64(x)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Assert two runs agree: outcomes with seconds compared by `to_bits`,
/// errors by their full contents (a lost placement's host and time
/// included), and events by their JSON lines.
fn assert_same(
    what: &str,
    reference: &Result<SpmdOutcome, SimError>,
    replayed: &Result<SpmdOutcome, SimError>,
    ref_events: &[TraceEvent],
    new_events: &[TraceEvent],
) {
    match (reference, replayed) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.finish, b.finish, "{what}: finish");
            assert_eq!(a.iteration_ends, b.iteration_ends, "{what}: iteration ends");
            assert_eq!(
                bits(&a.compute_seconds),
                bits(&b.compute_seconds),
                "{what}: compute seconds"
            );
            assert_eq!(
                bits(&a.sync_seconds),
                bits(&b.sync_seconds),
                "{what}: sync seconds"
            );
        }
        (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: error"),
        (a, b) => panic!("{what}: reference {a:?} but replayed {b:?}"),
    }
    let json = |events: &[TraceEvent]| events.iter().map(TraceEvent::to_json).collect::<Vec<_>>();
    assert_eq!(json(ref_events), json(new_events), "{what}: events");
}

/// Run the job through both executors, traced and untraced, and
/// compare. Returns whether the reference run succeeded.
fn check(what: &str, topo: &Topology, job: &SpmdJob) -> bool {
    let mut ref_sink = VecSink::new();
    let reference = reference_spmd(topo, job, &mut ref_sink);
    let mut new_sink = VecSink::new();
    let replayed = simulate_spmd(topo, job, &mut new_sink);
    assert_same(
        &format!("{what} traced"),
        &reference,
        &replayed,
        &ref_sink.events,
        &new_sink.events,
    );
    let untraced = simulate_spmd(topo, job, &mut NoopSink);
    assert_same(&format!("{what} untraced"), &reference, &untraced, &[], &[]);
    reference.is_ok()
}

const PROFILES: [LoadProfile; 3] = [
    LoadProfile::Light,
    LoadProfile::Moderate,
    LoadProfile::Heavy,
];

/// One worker draw: host pick, log10 of its work in Mflop (a draw below
/// -3 means no work), resident MB, and sends as (worker pick, MB).
type WorkerDraw = (usize, f64, f64, Vec<(usize, f64)>);

fn workers() -> impl Strategy<Value = Vec<WorkerDraw>> {
    prop::collection::vec(
        (
            0usize..64,
            -3.5f64..1.6,
            1.0f64..200.0,
            prop::collection::vec(
                (0usize..6, prop_oneof![1 => Just(0.0), 4 => 0.001f64..2.0]),
                0..3,
            ),
        ),
        1..7,
    )
}

/// A crash's outage as a fraction of the run, or `None` for a
/// permanent crash.
fn outage() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![1 => Just(None), 2 => (0.001f64..0.3).prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Replay agrees with the reference on generated topologies, under
    /// imposed load windows and crash windows with and without recovery.
    #[test]
    fn replay_matches_reference(
        net in (0usize..2, 4usize..17, 0usize..3, 0u64..10_000),
        draws in workers(),
        iterations in 1usize..401,
        start in 0.0f64..100.0,
        imposes in prop::collection::vec((0usize..64, 0.0f64..1.2, 0.0f64..0.3, 0.0f64..1.0), 0..4),
        crashes in prop::collection::vec(
            (
                0usize..64,
                0.0f64..1.2,
                outage(),
                0usize..3,
            ),
            0..3,
        ),
    ) {
        let (family, hosts, profile, seed) = net;
        let spec = if family == 0 {
            TopoSpec::Star { hosts, per_seg: 4 }
        } else {
            TopoSpec::Tree { hosts, arity: 2, per_seg: 2 }
        };
        let cfg = TopoGenConfig {
            profile: PROFILES[profile],
            horizon: s(20_000.0),
            seed,
        };
        let mut topo = generate(&spec, &cfg).expect("generate");
        let n_hosts = topo.hosts().len();
        let n_links = topo.links().len();
        let k = draws.len();
        let placements = draws
            .iter()
            .map(|(h, work, resident, sends)| SpmdPlacement {
                host: HostId(h % n_hosts),
                work_mflop: if *work < -3.0 { 0.0 } else { 10f64.powf(*work) },
                resident_mb: *resident,
                sends: sends.iter().map(|&(dst, mb)| (dst % k, mb)).collect(),
            })
            .collect();
        let job = SpmdJob { placements, iterations, start: s(start) };

        // Windows are drawn as fractions of the undisturbed run, so they
        // land inside it whatever its length.
        let span = simulate_spmd(&topo, &job, &mut NoopSink)
            .map_or(800.0, |out| out.makespan(job.start).as_secs_f64());
        let at = |frac: f64| s(start + frac * span);
        for &(target, from, len, factor) in &imposes {
            let window = [Imposition::new(at(from), at(from + len), factor)];
            if target < n_hosts {
                topo.host_mut(HostId(target)).expect("host").availability_mut().impose(&window);
            } else {
                let link = LinkId(target % n_links);
                topo.link_mut(link).expect("link").availability_mut().impose(&window);
            }
        }
        // Most crashes go through `apply_faults`, which also zeroes the
        // host; one in three is a bare crash window, which only the
        // executor's revocation check can see.
        let mut faults = FaultSpec::none();
        for &(h, from, outage, kind) in &crashes {
            let crash = at(from);
            let fault = HostFault {
                host: HostId(h % n_hosts),
                at: crash,
                recover: outage.map(|o| at(from + o).max(crash + SimTime::from_micros(1))),
            };
            if kind == 0 {
                topo.host_mut(fault.host).expect("host").add_fault_window(fault.at, fault.recover);
            } else {
                faults.host_faults.push(fault);
            }
        }
        apply_faults(&mut topo, &faults, &mut NoopSink).expect("faults");

        check(&format!("{spec:?} {cfg:?} {job:?} {crashes:?} {imposes:?}"), &topo, &job);
    }
}

/// A compute span past 2^53 µs rounds when converted to seconds, so an
/// iteration can end inside its host's availability segment while
/// `time_to_complete`'s first-segment test fails from the new start. The
/// replay must take that test per worker, not infer it from the
/// iteration ending before the change.
#[test]
fn replay_retakes_the_first_segment_test() {
    // 43 484 731 943.66214 Mflop at 1 Mflop/s is 43 484 731 943 662 136
    // µs; the host halves its speed one µs after two such spans.
    let work = 43_484_731_943.662_14;
    let span = SimTime::from_secs_f64(work);
    assert_eq!(span.as_micros(), 43_484_731_943_662_136);
    let change = SimTime::from_micros(2 * span.as_micros() + 1);
    let mut b = TopologyBuilder::new();
    let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
    b.add_host(HostSpec::dedicated("slow", 1.0, 1024.0, seg));
    let mut topo = b.instantiate(s(1.0), 0).expect("topo");
    topo.host_mut(HostId(0))
        .expect("host")
        .set_availability(StepSeries::from_points(vec![
            (SimTime::ZERO, 1.0),
            (change, 0.5),
        ]));
    let job = SpmdJob {
        placements: vec![SpmdPlacement {
            host: HostId(0),
            work_mflop: work,
            resident_mb: 1.0,
            sends: vec![],
        }],
        iterations: 2,
        start: SimTime::ZERO,
    };
    assert!(check("long span", &topo, &job));
    // The second iteration crosses the change, one span would not.
    let out = simulate_spmd(&topo, &job, &mut NoopSink).expect("run");
    assert!(out.iteration_ends[1] > change);
}
