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

use crate::error::SimError;
use crate::host::HostId;
use crate::net::{simulate_transfers, Topology, TransferReq};
use crate::simtrace::{EventSink, TraceEvent};
use crate::time::SimTime;

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
