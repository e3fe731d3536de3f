//! Bulk-synchronous SPMD execution.
//!
//! Models the execution structure of Jacobi2D and similar iterative
//! stencil codes: on each iteration every worker computes over its
//! region, then exchanges borders with its neighbours, and no worker
//! begins iteration `k+1` until all of iteration `k`'s exchanges have
//! been delivered. This barriered (BSP) structure matches the cost
//! model the paper's AppLeS prototype plans against (§5):
//! `T_i = A_i * P_i + C_i`, with the iteration taking `max_i T_i`.
//!
//! Border transfers within one iteration are simulated with full
//! bandwidth contention — concurrent exchanges crossing the same shared
//! Ethernet segment slow each other down, which is exactly the effect
//! that makes naive partitions underperform on the paper's testbed.
//!
//! **Steady iterations are replayed, not re-simulated.** The executor
//! keeps the last simulated iteration as a template: its start and
//! length, each worker's compute duration and rate, the transfer events
//! its exchange emitted, and the earliest availability change after its
//! start over the job's hosts and the links on its exchange routes. The
//! next iteration is replayed when it would end strictly before that
//! change and every worker still takes `StepSeries::time_to_complete`'s
//! first-segment branch from the new start (`rate * (change - at) >=
//! work`, `rate > 0`; the change comes no later than the worker's own
//! host's). A replay adds the template's integer-µs compute and sync
//! durations, shifts its events by the start difference, and checks each
//! worker's crash windows as `Host::compute_finish_checked` does. Any
//! other iteration is simulated and becomes the template.
//!
//! The replay is bit-exact. [`SimTime`] is integer microseconds. Over
//! one constant segment, `time_to_complete` returns `start +
//! from_secs_f64(work / rate)`, and each fluid-engine step reads only
//! differences of times and the constant capacities. The engine orders
//! same-time events by request index, which a shift leaves alone. So a
//! shifted iteration yields the same durations, the same event order
//! and the same floats. `tests/spmd_replay.rs` checks this against the
//! per-iteration loop.

use crate::error::SimError;
use crate::host::{Host, HostId};
use crate::net::{simulate_transfers, Topology, TransferReq};
use crate::simtrace::{EventSink, TraceEvent, VecSink};
use crate::time::SimTime;
use std::ops::Range;

/// One worker's placement and per-iteration behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmdPlacement {
    /// Host executing this worker.
    pub host: HostId,
    /// Compute per iteration, in Mflop.
    pub work_mflop: f64,
    /// Resident memory footprint, in MB (drives the paging penalty).
    pub resident_mb: f64,
    /// Border messages sent each iteration: `(destination worker index,
    /// payload MB)`.
    pub sends: Vec<(usize, f64)>,
}

/// A complete SPMD job.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmdJob {
    /// Worker placements; worker indices are positions in this vector.
    pub placements: Vec<SpmdPlacement>,
    /// Number of iterations to run.
    pub iterations: usize,
    /// Job submission time.
    pub start: SimTime,
}

/// Results of simulating an SPMD job.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmdOutcome {
    /// Time the final iteration's last exchange was delivered.
    pub finish: SimTime,
    /// Barrier time after each iteration.
    pub iteration_ends: Vec<SimTime>,
    /// Total per-worker compute time (seconds of wall-clock spent in
    /// the compute phase, including slowdown from load and paging).
    pub compute_seconds: Vec<f64>,
    /// Total per-worker time between finishing compute and the
    /// iteration barrier (communication + waiting for stragglers).
    pub sync_seconds: Vec<f64>,
}

impl SpmdOutcome {
    /// Elapsed wall-clock time from job start to finish.
    pub fn makespan(&self, job_start: SimTime) -> SimTime {
        self.finish.saturating_sub(job_start)
    }
}

/// Simulate a bulk-synchronous SPMD job on the topology, emitting one
/// [`TraceEvent::ComputeStart`] / [`TraceEvent::ComputeFinish`] pair
/// per worker (covering all iterations) plus border-exchange transfer
/// events into `sink`.
///
/// Execution begins once every worker's host is ready (the maximum
/// startup wait across the placements — a co-allocation of space-shared
/// resources). Sends that name an out-of-range worker index are an
/// error, as is an empty placement list.
pub fn simulate_spmd(
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

    let hosts = job
        .placements
        .iter()
        .map(|p| topo.host(p.host))
        .collect::<Result<Vec<_>, _>>()?;

    // Co-allocation: wait for the slowest host acquisition.
    let mut barrier = job.start;
    for host in &hosts {
        barrier = barrier.max(job.start + host.startup_wait());
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
    // This iteration's compute instants; after the loop, the last
    // iteration's, which the closing ComputeFinish events read.
    let mut compute_done = vec![barrier; n];
    let mut reqs = Vec::new();
    let mut template: Option<Template> = None;

    for _ in 0..job.iterations {
        let replay = template
            .as_ref()
            .filter(|t| t.replays_at(barrier, &job.placements));

        // Compute phase.
        for (w, p) in job.placements.iter().enumerate() {
            let done = match replay {
                // The same in-segment duration `time_to_complete`
                // would return, under the crash check of
                // `compute_finish_checked`.
                Some(t) => {
                    let done = barrier + t.compute[w];
                    if let Some(at) = hosts[w].first_fault_within(barrier, done) {
                        return Err(SimError::PlacementLost { host: p.host.0, at });
                    }
                    done
                }
                None => hosts[w].compute_finish_checked(barrier, p.work_mflop, p.resident_mb)?,
            };
            compute_time[w] += done - barrier;
            compute_done[w] = done;
        }

        let next_barrier = match replay {
            Some(t) => {
                if sink.enabled() {
                    let shift = barrier - t.start;
                    for e in &t.events {
                        let mut e = e.clone();
                        *e.at_mut() += shift;
                        sink.record(e);
                    }
                }
                barrier + t.len
            }
            None => {
                // Exchange phase: all sends enter the network together.
                reqs.clear();
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
                let mut events = Vec::new();
                if !reqs.is_empty() {
                    let results = if sink.enabled() {
                        // Keep the events for replays, in emission order.
                        let mut capture = VecSink::new();
                        let results = simulate_transfers(topo, &reqs, &mut capture);
                        for e in &capture.events {
                            sink.record(e.clone());
                        }
                        events = capture.events;
                        results?
                    } else {
                        simulate_transfers(topo, &reqs, sink)?
                    };
                    for r in results {
                        next_barrier = next_barrier.max(r.delivered);
                    }
                }
                template = Some(Template::record(
                    topo,
                    job,
                    &hosts,
                    &reqs,
                    barrier..next_barrier,
                    &compute_done,
                    events,
                )?);
                next_barrier
            }
        };

        for (w, &done) in compute_done.iter().enumerate() {
            sync_time[w] += next_barrier - done;
        }
        barrier = next_barrier;
        iteration_ends.push(barrier);
    }

    // Integer-microsecond accumulation above; one f64 conversion here
    // at the reporting boundary.
    let compute_seconds: Vec<f64> = compute_time.iter().map(|t| t.as_secs_f64()).collect();
    let sync_seconds: Vec<f64> = sync_time.iter().map(|t| t.as_secs_f64()).collect();

    if sink.enabled() {
        for (w, p) in job.placements.iter().enumerate() {
            sink.record(TraceEvent::ComputeFinish {
                host: p.host,
                at: compute_done[w],
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

/// The last fully simulated iteration of a job, kept so that
/// following iterations under the same availability are replayed
/// rather than re-simulated (see the module docs).
struct Template {
    /// Barrier the iteration started at.
    start: SimTime,
    /// Barrier-to-barrier length.
    len: SimTime,
    /// Per worker: compute duration.
    compute: Vec<SimTime>,
    /// Per worker: compute rate in Mflop/s (speed, paging factor and
    /// availability), as `StepSeries::time_to_complete` forms it.
    rate: Vec<f64>,
    /// Earliest availability change after `start` over the job's hosts
    /// and the links on its exchange routes; `None` if none ever changes.
    until: Option<SimTime>,
    /// The exchange's transfer events (none when the sink is disabled).
    events: Vec<TraceEvent>,
}

impl Template {
    /// Capture the iteration that ran over `span`, from barrier to
    /// barrier.
    fn record(
        topo: &Topology,
        job: &SpmdJob,
        hosts: &[&Host],
        reqs: &[TransferReq],
        span: Range<SimTime>,
        compute_done: &[SimTime],
        events: Vec<TraceEvent>,
    ) -> Result<Template, SimError> {
        let start = span.start;
        let mut until: Option<SimTime> = None;
        let mut fold = |change: Option<SimTime>| {
            if let Some(c) = change {
                until = Some(until.map_or(c, |u| u.min(c)));
            }
        };
        let mut rate = Vec::with_capacity(hosts.len());
        for (host, p) in hosts.iter().zip(&job.placements) {
            let avail = host.availability();
            let speed = host.spec.mflops * host.memory_factor(p.resident_mb);
            rate.push(speed * avail.value_at(start));
            fold(avail.next_change_after(start));
        }
        // Only payloads that enter the network see their route's links.
        for r in reqs.iter().filter(|r| r.mb > 0.0) {
            for &l in topo.route(r.from, r.to)? {
                fold(topo.link(l)?.availability().next_change_after(start));
            }
        }
        Ok(Template {
            start,
            len: span.end - start,
            compute: compute_done.iter().map(|&done| done - start).collect(),
            rate,
            until,
            events,
        })
    }

    /// Whether an iteration starting at `at` repeats this one: it ends
    /// strictly before the next availability change, and every worker
    /// takes `time_to_complete`'s first-segment branch from `at`. The
    /// branch test runs against that change, which comes no later than
    /// the worker's own host's next change, so it passes only where
    /// `time_to_complete`'s does.
    fn replays_at(&self, at: SimTime, placements: &[SpmdPlacement]) -> bool {
        let Some(end) = at.checked_add(self.len) else {
            return false;
        };
        let span = match self.until {
            Some(until) if end >= until => return false,
            Some(until) => (until - at).as_secs_f64(),
            // No change ever: `time_to_complete` takes its final-segment
            // branch, which only needs a positive rate.
            None => f64::INFINITY,
        };
        placements
            .iter()
            .zip(&self.rate)
            .all(|(p, &rate)| rate * span >= p.work_mflop && rate > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSpec;
    use crate::load::LoadModel;
    use crate::net::{LinkSpec, TopologyBuilder};
    use crate::simtrace::NoopSink;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    /// Two dedicated 10 Mflop/s hosts on a dedicated 10 MB/s segment.
    fn topo2() -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("a", 10.0, 1024.0, seg));
        b.add_host(HostSpec::dedicated("b", 10.0, 1024.0, seg));
        b.instantiate(s(100_000.0), 0).unwrap()
    }

    fn placement(host: usize, work: f64, sends: Vec<(usize, f64)>) -> SpmdPlacement {
        SpmdPlacement {
            host: HostId(host),
            work_mflop: work,
            resident_mb: 1.0,
            sends,
        }
    }

    #[test]
    fn single_worker_no_comm() {
        let topo = topo2();
        let job = SpmdJob {
            placements: vec![placement(0, 100.0, vec![])],
            iterations: 3,
            start: SimTime::ZERO,
        };
        let out = simulate_spmd(&topo, &job, &mut NoopSink).unwrap();
        // 100 Mflop at 10 Mflop/s = 10 s per iteration.
        assert_eq!(out.finish, s(30.0));
        assert_eq!(out.iteration_ends, vec![s(10.0), s(20.0), s(30.0)]);
        assert!((out.compute_seconds[0] - 30.0).abs() < 1e-6);
        assert!(out.sync_seconds[0].abs() < 1e-6);
    }

    #[test]
    fn barrier_waits_for_slowest_worker() {
        let topo = topo2();
        let job = SpmdJob {
            placements: vec![
                placement(0, 100.0, vec![]), // 10 s
                placement(1, 50.0, vec![]),  // 5 s
            ],
            iterations: 1,
            start: SimTime::ZERO,
        };
        let out = simulate_spmd(&topo, &job, &mut NoopSink).unwrap();
        assert_eq!(out.finish, s(10.0));
        // The fast worker idles 5 s at the barrier.
        assert!((out.sync_seconds[1] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn exchange_extends_the_iteration() {
        let topo = topo2();
        let job = SpmdJob {
            placements: vec![
                placement(0, 100.0, vec![(1, 10.0)]), // 10 s compute + 1 s send
                placement(1, 100.0, vec![(0, 10.0)]),
            ],
            iterations: 2,
            start: SimTime::ZERO,
        };
        let out = simulate_spmd(&topo, &job, &mut NoopSink).unwrap();
        // Both sends start at t=10 and share the 10 MB/s segment: each
        // runs at 5 MB/s, finishing 10 MB at t=12. Iteration = 12 s.
        assert_eq!(out.iteration_ends[0], s(12.0));
        assert_eq!(out.finish, s(24.0));
    }

    #[test]
    fn contention_on_shared_segment_slows_exchange() {
        // Same job but with 4 workers all exchanging on one segment.
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        for i in 0..4 {
            b.add_host(HostSpec::dedicated(&format!("h{i}"), 10.0, 1024.0, seg));
        }
        let topo = b.instantiate(s(100_000.0), 0).unwrap();
        let ring: Vec<SpmdPlacement> = (0..4)
            .map(|w| placement(w, 100.0, vec![((w + 1) % 4, 10.0)]))
            .collect();
        let out = simulate_spmd(
            &topo,
            &SpmdJob {
                placements: ring,
                iterations: 1,
                start: SimTime::ZERO,
            },
            &mut NoopSink,
        )
        .unwrap();
        // 4 concurrent 10 MB flows share 10 MB/s: 2.5 MB/s each ⇒ 4 s.
        assert_eq!(out.finish, s(14.0));
    }

    #[test]
    fn loaded_host_stretches_compute() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::workstation(
            "busy",
            10.0,
            1024.0,
            seg,
            LoadModel::Constant(0.25),
        ));
        let topo = b.instantiate(s(100_000.0), 0).unwrap();
        let out = simulate_spmd(
            &topo,
            &SpmdJob {
                placements: vec![placement(0, 100.0, vec![])],
                iterations: 1,
                start: SimTime::ZERO,
            },
            &mut NoopSink,
        )
        .unwrap();
        // Only 25% of 10 Mflop/s available ⇒ 40 s.
        assert_eq!(out.finish, s(40.0));
    }

    #[test]
    fn space_shared_startup_wait_delays_everyone() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("fast", 10.0, 1024.0, seg));
        let mut queued = HostSpec::dedicated("queued", 10.0, 1024.0, seg);
        queued.sharing = crate::host::SharingPolicy::SpaceShared { wait: s(100.0) };
        b.add_host(queued);
        let topo = b.instantiate(s(100_000.0), 0).unwrap();
        let out = simulate_spmd(
            &topo,
            &SpmdJob {
                placements: vec![placement(0, 100.0, vec![]), placement(1, 100.0, vec![])],
                iterations: 1,
                start: SimTime::ZERO,
            },
            &mut NoopSink,
        )
        .unwrap();
        // Co-allocation waits out the 100 s queue, then 10 s compute.
        assert_eq!(out.finish, s(110.0));
    }

    #[test]
    fn empty_job_is_an_error() {
        let topo = topo2();
        let job = SpmdJob {
            placements: vec![],
            iterations: 1,
            start: SimTime::ZERO,
        };
        assert!(matches!(
            simulate_spmd(&topo, &job, &mut NoopSink),
            Err(SimError::EmptySchedule)
        ));
    }

    #[test]
    fn out_of_range_send_is_an_error() {
        let topo = topo2();
        let job = SpmdJob {
            placements: vec![placement(0, 1.0, vec![(5, 1.0)])],
            iterations: 1,
            start: SimTime::ZERO,
        };
        assert!(matches!(
            simulate_spmd(&topo, &job, &mut NoopSink),
            Err(SimError::Invalid(_))
        ));
    }

    #[test]
    fn zero_iterations_finishes_immediately() {
        let topo = topo2();
        let job = SpmdJob {
            placements: vec![placement(0, 100.0, vec![])],
            iterations: 0,
            start: s(7.0),
        };
        let out = simulate_spmd(&topo, &job, &mut NoopSink).unwrap();
        assert_eq!(out.finish, s(7.0));
        assert!(out.iteration_ends.is_empty());
    }

    #[test]
    fn sink_variant_matches_plain_and_emits_events() {
        use crate::simtrace::VecSink;
        let topo = topo2();
        let job = SpmdJob {
            placements: vec![
                placement(0, 100.0, vec![(1, 10.0)]),
                placement(1, 100.0, vec![(0, 10.0)]),
            ],
            iterations: 2,
            start: SimTime::ZERO,
        };
        let mut sink = VecSink::new();
        let traced = simulate_spmd(&topo, &job, &mut sink).unwrap();
        let plain = simulate_spmd(&topo, &job, &mut NoopSink).unwrap();
        assert_eq!(traced, plain, "tracing must not perturb the simulation");
        // 2 workers: one start + one finish each, plus 2 transfers per
        // iteration over 2 iterations = 8 transfer events.
        let kinds: Vec<&str> = sink.events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "compute_start").count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == "compute_finish").count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == "transfer_start").count(), 4);
        assert_eq!(kinds.iter().filter(|k| **k == "transfer_finish").count(), 4);
        // Both sends share the segment: contention share is 1/2.
        for e in &sink.events {
            if let crate::simtrace::TraceEvent::TransferFinish {
                contention_share, ..
            } = e
            {
                assert!((contention_share - 0.5).abs() < 1e-9, "{contention_share}");
            }
        }
    }

    #[test]
    fn memory_spill_dominates_runtime() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("small", 10.0, 10.0, seg));
        let topo = b.instantiate(s(1e7), 0).unwrap();
        let fits = simulate_spmd(
            &topo,
            &SpmdJob {
                placements: vec![SpmdPlacement {
                    host: HostId(0),
                    work_mflop: 100.0,
                    resident_mb: 5.0,
                    sends: vec![],
                }],
                iterations: 1,
                start: SimTime::ZERO,
            },
            &mut NoopSink,
        )
        .unwrap();
        let spills = simulate_spmd(
            &topo,
            &SpmdJob {
                placements: vec![SpmdPlacement {
                    host: HostId(0),
                    work_mflop: 100.0,
                    resident_mb: 20.0,
                    sends: vec![],
                }],
                iterations: 1,
                start: SimTime::ZERO,
            },
            &mut NoopSink,
        )
        .unwrap();
        assert!(spills.finish.as_secs_f64() > 10.0 * fits.finish.as_secs_f64());
    }
}
