//! Dynamic self-scheduling (work-queue) execution.
//!
//! The reactive alternative to predictive scheduling: a master holds a
//! bag of independent work chunks; each worker repeatedly requests a
//! chunk, computes it, and returns the result. Fast or idle workers
//! naturally take more chunks — no forecasts required — at the price
//! of one request/response round-trip per chunk and a serialization
//! point at the master.
//!
//! The AppLeS paper bets on *prediction*; self-scheduling bets on
//! *reaction*. The T-PRED experiment (`apples-cli reproduce T-PRED`)
//! stages the two against each other: prediction wins when round-trips
//! are expensive (WAN latencies, §3.3's "far" resources) or work is
//! coupled (stencils can't self-schedule); reaction wins when the
//! forecast horizon is shorter than the load's volatility.

use crate::error::SimError;
use crate::host::HostId;
use crate::net::Topology;
use crate::time::SimTime;
use simcore::EventQueue;

/// A self-scheduled bag-of-tasks job.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkQueueJob {
    /// Host running the master (chunk dispenser / result collector).
    pub master: HostId,
    /// Worker hosts (a worker may be the master's host).
    pub workers: Vec<HostId>,
    /// Total chunks in the bag.
    pub n_chunks: usize,
    /// Compute per chunk, in Mflop.
    pub mflop_per_chunk: f64,
    /// Input payload per chunk, MB (master → worker).
    pub mb_per_chunk: f64,
    /// Result payload per chunk, MB (worker → master).
    pub result_mb_per_chunk: f64,
    /// Worker resident set, MB.
    pub resident_mb: f64,
    /// Job submission time.
    pub start: SimTime,
}

/// Outcome of a self-scheduled run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkQueueOutcome {
    /// Time the last result reached the master.
    pub finish: SimTime,
    /// Chunks each worker completed, in `workers` order.
    pub chunks_done: Vec<usize>,
}

impl WorkQueueOutcome {
    /// Elapsed wall-clock time from job start to finish.
    pub fn makespan(&self, job_start: SimTime) -> SimTime {
        self.finish.saturating_sub(job_start)
    }
}

/// Simulate the work queue.
///
/// Transfers use the contention-free per-flow estimate (latency +
/// payload over currently-available bottleneck bandwidth) rather than
/// the full fluid-flow simulation: chunk messages are small and
/// pairwise, and this keeps the event loop at one event per chunk
/// completion. Compute uses the exact availability integration, so
/// workers slow down and speed up with the background load.
pub fn simulate_workqueue(
    topo: &Topology,
    job: &WorkQueueJob,
) -> Result<WorkQueueOutcome, SimError> {
    if job.workers.is_empty() {
        return Err(SimError::EmptySchedule);
    }
    topo.host(job.master)?;
    for &w in &job.workers {
        topo.host(w)?;
    }
    if job.n_chunks == 0 {
        return Ok(WorkQueueOutcome {
            finish: job.start,
            chunks_done: vec![0; job.workers.len()],
        });
    }

    // Worker-ready events; the queue's schedule-order tie-break keeps
    // chunk dispatch deterministic when workers free up together.
    let mut ready: EventQueue<SimTime, usize> = EventQueue::new();
    for (i, &w) in job.workers.iter().enumerate() {
        let t0 = job.start + topo.host(w)?.startup_wait();
        ready.schedule(t0, i);
    }

    let mut remaining = job.n_chunks;
    let mut chunks_done = vec![0usize; job.workers.len()];
    let mut finish = job.start;

    while remaining > 0 {
        let Some((now, _, wi)) = ready.pop() else {
            return Err(SimError::Invalid(
                "work queue drained while chunks remain".into(),
            ));
        };
        remaining -= 1;
        let worker = job.workers[wi];
        // Request/receive the chunk input.
        let got = now + topo.transfer_estimate(job.master, worker, job.mb_per_chunk, now)?;
        // Compute.
        let host = topo.host(worker)?;
        let done = host.compute_finish_checked(got, job.mflop_per_chunk, job.resident_mb)?;
        // Return the result.
        let returned =
            done + topo.transfer_estimate(worker, job.master, job.result_mb_per_chunk, done)?;
        chunks_done[wi] += 1;
        finish = finish.max(returned);
        ready.schedule(returned, wi);
    }

    Ok(WorkQueueOutcome {
        finish,
        chunks_done,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSpec;
    use crate::load::LoadModel;
    use crate::net::{LinkSpec, TopologyBuilder};

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    fn topo(speeds: &[f64], latency_ms: u64) -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated(
            "seg",
            100.0,
            SimTime::from_millis(latency_ms),
        ));
        b.add_host(HostSpec::dedicated("master", 10.0, 256.0, seg));
        for (i, &sp) in speeds.iter().enumerate() {
            b.add_host(HostSpec::dedicated(&format!("w{i}"), sp, 256.0, seg));
        }
        b.instantiate(s(1e7), 0).unwrap()
    }

    fn job(workers: usize, chunks: usize) -> WorkQueueJob {
        WorkQueueJob {
            master: HostId(0),
            workers: (1..=workers).map(HostId).collect(),
            n_chunks: chunks,
            mflop_per_chunk: 100.0,
            mb_per_chunk: 0.01,
            result_mb_per_chunk: 0.001,
            resident_mb: 1.0,
            start: SimTime::ZERO,
        }
    }

    #[test]
    fn single_worker_processes_everything() {
        let topo = topo(&[10.0], 0);
        let out = simulate_workqueue(&topo, &job(1, 20)).unwrap();
        assert_eq!(out.chunks_done, vec![20]);
        // 20 chunks × 10 s compute (transfers ~0).
        assert!((out.makespan(SimTime::ZERO).as_secs_f64() - 200.0).abs() < 1.0);
    }

    #[test]
    fn faster_workers_take_more_chunks() {
        let topo = topo(&[10.0, 40.0], 0);
        let out = simulate_workqueue(&topo, &job(2, 50)).unwrap();
        // 4x faster worker should take roughly 4x the chunks.
        assert!(
            out.chunks_done[1] > 3 * out.chunks_done[0],
            "{:?}",
            out.chunks_done
        );
        assert_eq!(out.chunks_done.iter().sum::<usize>(), 50);
    }

    #[test]
    fn loaded_worker_takes_fewer_chunks_without_any_forecast() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 100.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("master", 10.0, 256.0, seg));
        b.add_host(HostSpec::dedicated("free", 20.0, 256.0, seg));
        b.add_host(HostSpec::workstation(
            "busy",
            20.0,
            256.0,
            seg,
            LoadModel::Constant(0.25),
        ));
        let topo = b.instantiate(s(1e7), 0).unwrap();
        let out = simulate_workqueue(&topo, &job(2, 50)).unwrap();
        // The busy worker delivers a quarter of the throughput.
        assert!(
            out.chunks_done[0] > 2 * out.chunks_done[1],
            "{:?}",
            out.chunks_done
        );
    }

    #[test]
    fn latency_taxes_every_chunk() {
        let fast = simulate_workqueue(&topo(&[10.0, 10.0], 0), &job(2, 40)).unwrap();
        let slow = simulate_workqueue(&topo(&[10.0, 10.0], 500), &job(2, 40)).unwrap();
        // 1 s of round-trip latency per chunk (500 ms each way) on a
        // 10 s compute: ~10% slower overall.
        let f = fast.makespan(SimTime::ZERO).as_secs_f64();
        let sl = slow.makespan(SimTime::ZERO).as_secs_f64();
        assert!(sl > f + 15.0, "fast {f}, slow {sl}");
    }

    #[test]
    fn zero_chunks_is_trivial() {
        let topo = topo(&[10.0], 0);
        let out = simulate_workqueue(&topo, &job(1, 0)).unwrap();
        assert_eq!(out.finish, SimTime::ZERO);
    }

    #[test]
    fn no_workers_is_an_error() {
        let topo = topo(&[10.0], 0);
        let mut j = job(1, 5);
        j.workers.clear();
        assert!(matches!(
            simulate_workqueue(&topo, &j),
            Err(SimError::EmptySchedule)
        ));
    }

    #[test]
    fn deterministic() {
        let topo = topo(&[10.0, 25.0, 40.0], 2);
        let a = simulate_workqueue(&topo, &job(3, 100)).unwrap();
        let b = simulate_workqueue(&topo, &job(3, 100)).unwrap();
        assert_eq!(a, b);
    }
}
