//! Two-stage pipeline execution (the 3D-REACT shape, §2.2–2.3).
//!
//! A *producer* task (LHSF in the paper) computes units of work in
//! order and ships each across the network to a *consumer* task
//! (Log-D/ASY). Production, transfer and consumption of different
//! units overlap; a bounded pipeline depth limits how far the producer
//! may run ahead of the consumer, modelling the buffering limit on the
//! consumer side.
//!
//! The paper's §2.3 describes the tradeoff this executor reproduces:
//! too *small* a unit means the consumer stalls waiting for data
//! (per-message latency dominates); too *large* a unit means less
//! overlap and a buffering cost on the consumer end. The `react3d`
//! application maps its surface-function granularity onto these unit
//! parameters and sweeps it.

use crate::error::SimError;
use crate::host::HostId;
use crate::net::{simulate_transfers, Topology, TransferReq};
use crate::simtrace::NoopSink;
use crate::time::SimTime;

/// A two-stage pipelined job.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineJob {
    /// Host running the producer task.
    pub producer: HostId,
    /// Host running the consumer task.
    pub consumer: HostId,
    /// Number of units to stream through the pipeline.
    pub n_units: usize,
    /// Producer compute per unit, in Mflop.
    pub producer_mflop_per_unit: f64,
    /// Consumer compute per unit, in Mflop.
    pub consumer_mflop_per_unit: f64,
    /// Data shipped per unit, in MB.
    pub mb_per_unit: f64,
    /// Producer resident set, in MB.
    pub producer_resident_mb: f64,
    /// Consumer resident set, in MB (grows with unit size — this is
    /// where the paper's "buffering performance cost" bites).
    pub consumer_resident_mb: f64,
    /// Maximum units produced but not yet consumed (pipeline depth ≥ 1).
    pub max_in_flight: usize,
    /// Job submission time.
    pub start: SimTime,
}

/// Results of simulating a pipelined job.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    /// Time the consumer finishes the last unit.
    pub finish: SimTime,
    /// Seconds the consumer spent stalled waiting for data.
    pub consumer_stall_seconds: f64,
    /// Seconds the producer spent blocked on the pipeline-depth bound.
    pub producer_block_seconds: f64,
    /// Per-unit consumer completion times.
    pub unit_done: Vec<SimTime>,
}

impl PipelineOutcome {
    /// Elapsed wall-clock time from job start to finish.
    pub fn makespan(&self, job_start: SimTime) -> SimTime {
        self.finish.saturating_sub(job_start)
    }
}

/// Simulate the pipeline.
///
/// Units are produced, shipped and consumed strictly in order.
/// Transfers are serialized on the sending side (one outstanding
/// message at a time) but overlap with both endpoint computations, and
/// contend with any background traffic on the route.
pub fn simulate_pipeline(topo: &Topology, job: &PipelineJob) -> Result<PipelineOutcome, SimError> {
    if job.n_units == 0 {
        return Ok(PipelineOutcome {
            finish: job.start,
            consumer_stall_seconds: 0.0,
            producer_block_seconds: 0.0,
            unit_done: Vec::new(),
        });
    }
    if job.max_in_flight == 0 {
        return Err(SimError::Invalid(
            "pipeline depth (max_in_flight) must be at least 1".into(),
        ));
    }
    let prod = topo.host(job.producer)?;
    let cons = topo.host(job.consumer)?;

    // Co-allocation: both tasks must hold their resources.
    let t0 = job.start + prod.startup_wait().max(cons.startup_wait());

    let n = job.n_units;
    let mut prod_done = vec![SimTime::ZERO; n];
    let mut arrive = vec![SimTime::ZERO; n];
    let mut cons_done = vec![SimTime::ZERO; n];
    let mut stall = SimTime::ZERO;
    let mut block = SimTime::ZERO;

    let mut prev_prod_done = t0;
    let mut prev_xfer_done = t0;
    let mut prev_cons_done = t0;

    for i in 0..n {
        // Pipeline-depth gate: unit i may start production only after
        // unit i - depth has been consumed.
        let gate = if i >= job.max_in_flight {
            cons_done[i - job.max_in_flight]
        } else {
            t0
        };
        let p_start = prev_prod_done.max(gate);
        block += p_start - prev_prod_done;
        prod_done[i] = prod.compute_finish_checked(
            p_start,
            job.producer_mflop_per_unit,
            job.producer_resident_mb,
        )?;
        prev_prod_done = prod_done[i];

        // Ship the unit; sends are serialized in order.
        let x_start = prod_done[i].max(prev_xfer_done);
        if job.producer == job.consumer || job.mb_per_unit <= 0.0 {
            arrive[i] = x_start;
            prev_xfer_done = x_start;
        } else {
            let res = simulate_transfers(
                topo,
                &[TransferReq {
                    from: job.producer,
                    to: job.consumer,
                    mb: job.mb_per_unit,
                    start: x_start,
                    tag: i,
                }],
                &mut NoopSink,
            )?;
            arrive[i] = res[0].delivered;
            prev_xfer_done = arrive[i];
        }

        // Consume in order.
        let c_start = arrive[i].max(prev_cons_done);
        stall += c_start - prev_cons_done;
        cons_done[i] = cons.compute_finish_checked(
            c_start,
            job.consumer_mflop_per_unit,
            job.consumer_resident_mb,
        )?;
        prev_cons_done = cons_done[i];
    }

    Ok(PipelineOutcome {
        finish: cons_done[n - 1],
        consumer_stall_seconds: stall.as_secs_f64(),
        producer_block_seconds: block.as_secs_f64(),
        unit_done: cons_done,
    })
}

/// Single-site baseline: run producer work then consumer work for all
/// units sequentially on one host — the paper's "one dedicated CPU"
/// comparison point (§2.3 reports ≥16 h single-site vs <5 h
/// distributed for 3D-REACT).
pub fn simulate_single_site(
    topo: &Topology,
    host: HostId,
    job: &PipelineJob,
) -> Result<SimTime, SimError> {
    let h = topo.host(host)?;
    let t0 = job.start + h.startup_wait();
    let total = job.n_units as f64 * (job.producer_mflop_per_unit + job.consumer_mflop_per_unit);
    let resident = job.producer_resident_mb + job.consumer_resident_mb;
    h.compute_finish_checked(t0, total, resident)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSpec;
    use crate::net::{LinkSpec, TopologyBuilder};

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    /// Producer 10 Mflop/s, consumer 10 Mflop/s, 10 MB/s link.
    fn topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let sa = b.add_segment(LinkSpec::dedicated("segA", 100.0, SimTime::ZERO));
        let sb = b.add_segment(LinkSpec::dedicated("segB", 100.0, SimTime::ZERO));
        let wan = b.add_link(LinkSpec::dedicated("wan", 10.0, SimTime::ZERO));
        b.add_route(sa, sb, vec![wan]).unwrap();
        b.add_host(HostSpec::dedicated("prod", 10.0, 1024.0, sa));
        b.add_host(HostSpec::dedicated("cons", 10.0, 1024.0, sb));
        b.instantiate(s(1e7), 0).unwrap()
    }

    fn job(n: usize, depth: usize) -> PipelineJob {
        PipelineJob {
            producer: HostId(0),
            consumer: HostId(1),
            n_units: n,
            producer_mflop_per_unit: 100.0, // 10 s/unit
            consumer_mflop_per_unit: 100.0, // 10 s/unit
            mb_per_unit: 10.0,              // 1 s/unit on the WAN
            producer_resident_mb: 1.0,
            consumer_resident_mb: 1.0,
            max_in_flight: depth,
            start: SimTime::ZERO,
        }
    }

    #[test]
    fn single_unit_is_sequential() {
        let topo = topo();
        let out = simulate_pipeline(&topo, &job(1, 4)).unwrap();
        // 10 s produce + 1 s ship + 10 s consume.
        assert_eq!(out.finish, s(21.0));
        assert_eq!(out.unit_done.len(), 1);
    }

    #[test]
    fn pipelining_overlaps_stages() {
        let topo = topo();
        let out = simulate_pipeline(&topo, &job(10, 4)).unwrap();
        // Steady state: both stages run at 10 s/unit, transfer hidden.
        // Fill (10 s produce + 1 s ship), then the consumer processes
        // all 10 units back-to-back: 11 + 10 * 10 = 111 s.
        assert_eq!(out.finish, s(111.0));
        // Far better than sequential: 10 * (10 + 1 + 10) = 210 s.
        assert!(out.finish < s(210.0));
    }

    #[test]
    fn depth_one_serializes_adjacent_units() {
        let topo = topo();
        let deep = simulate_pipeline(&topo, &job(10, 8)).unwrap();
        let shallow = simulate_pipeline(&topo, &job(10, 1)).unwrap();
        assert!(shallow.finish > deep.finish);
        assert!(shallow.producer_block_seconds > 0.0);
    }

    #[test]
    fn consumer_stall_when_producer_is_bottleneck() {
        let topo = topo();
        let mut j = job(5, 8);
        j.consumer_mflop_per_unit = 10.0; // consumer 1 s/unit, producer 10 s/unit
        let out = simulate_pipeline(&topo, &j).unwrap();
        // The consumer mostly waits on fresh data.
        assert!(out.consumer_stall_seconds > 20.0);
    }

    #[test]
    fn zero_units_is_trivial() {
        let topo = topo();
        let out = simulate_pipeline(&topo, &job(0, 4)).unwrap();
        assert_eq!(out.finish, SimTime::ZERO);
    }

    #[test]
    fn zero_depth_is_invalid() {
        let topo = topo();
        assert!(matches!(
            simulate_pipeline(&topo, &job(3, 0)),
            Err(SimError::Invalid(_))
        ));
    }

    #[test]
    fn colocated_pipeline_skips_the_network() {
        let topo = topo();
        let mut j = job(5, 4);
        j.consumer = HostId(0);
        let colocated = simulate_pipeline(&topo, &j).unwrap();
        let distributed = simulate_pipeline(&topo, &job(5, 4)).unwrap();
        // Colocated units arrive the instant they are produced, so no
        // transfer time is paid. (Note the executor models the two
        // tasks as independent contexts, so they still overlap; CPU
        // contention between colocated tasks is not modelled.)
        assert!(colocated.finish < distributed.finish);
    }

    #[test]
    fn single_site_baseline_is_sequential_sum() {
        let topo = topo();
        let t = simulate_single_site(&topo, HostId(0), &job(10, 4)).unwrap();
        // 10 units * 200 Mflop / 10 Mflop/s = 200 s.
        assert_eq!(t, s(200.0));
    }

    #[test]
    fn distributed_beats_single_site_react_shape() {
        // The §2.3 headline: distributed < 5 h vs ≥ 16 h single-site.
        let topo = topo();
        let j = job(50, 8);
        let dist = simulate_pipeline(&topo, &j).unwrap().finish;
        let single = simulate_single_site(&topo, HostId(0), &j).unwrap();
        assert!(
            dist.as_secs_f64() < 0.6 * single.as_secs_f64(),
            "distributed {dist} should be well under single-site {single}"
        );
    }
}
