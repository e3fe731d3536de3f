//! Property tests for the executors: physical bounds and monotonicity
//! of the SPMD, pipeline and work-queue simulations on randomized
//! inputs.

use metasim::exec::{
    simulate_pipeline, simulate_spmd, simulate_workqueue, PipelineJob, SpmdJob, SpmdPlacement,
    WorkQueueJob,
};
use metasim::host::HostSpec;
use metasim::load::LoadModel;
use metasim::net::{LinkSpec, TopologyBuilder};
use metasim::{HostId, NoopSink, SimTime, Topology};
use proptest::prelude::*;

fn s(x: f64) -> SimTime {
    SimTime::from_secs_f64(x)
}

fn topo(speeds: &[f64], avail: f64) -> Topology {
    let mut b = TopologyBuilder::new();
    let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::from_millis(1)));
    for (i, &sp) in speeds.iter().enumerate() {
        b.add_host(HostSpec::workstation(
            &format!("h{i}"),
            sp,
            4096.0,
            seg,
            LoadModel::Constant(avail),
        ));
    }
    b.instantiate(s(1e8), 0).expect("topo")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An SPMD run can never beat the per-worker compute lower bound:
    /// total iterations × work / (speed × availability).
    #[test]
    fn spmd_respects_compute_lower_bound(
        speeds in prop::collection::vec(1.0f64..100.0, 1..5),
        work in 1.0f64..100.0,
        iterations in 1usize..20,
        avail in 0.1f64..1.0,
    ) {
        let topo = topo(&speeds, avail);
        let k = speeds.len();
        let job = SpmdJob {
            placements: (0..k)
                .map(|w| SpmdPlacement {
                    host: HostId(w),
                    work_mflop: work,
                    resident_mb: 1.0,
                    sends: if k > 1 { vec![((w + 1) % k, 0.01)] } else { vec![] },
                })
                .collect(),
            iterations,
            start: SimTime::ZERO,
        };
        let out = simulate_spmd(&topo, &job, &mut NoopSink).expect("run");
        // The slowest worker's pure-compute time bounds the makespan.
        let slowest = speeds.iter().copied().fold(f64::INFINITY, f64::min);
        let bound = iterations as f64 * work / (slowest * avail);
        prop_assert!(
            out.finish.as_secs_f64() + 1e-6 >= bound,
            "finish {} beats physical bound {bound}",
            out.finish.as_secs_f64()
        );
        // Iteration ends are monotone.
        for w in out.iteration_ends.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        prop_assert_eq!(out.iteration_ends.len(), iterations);
    }

    /// More iterations never finish earlier.
    #[test]
    fn spmd_is_monotone_in_iterations(
        work in 1.0f64..50.0,
        iters_a in 1usize..15,
        extra in 1usize..10,
    ) {
        let topo = topo(&[10.0, 20.0], 1.0);
        let job = |iterations| SpmdJob {
            placements: vec![
                SpmdPlacement {
                    host: HostId(0),
                    work_mflop: work,
                    resident_mb: 1.0,
                    sends: vec![(1, 0.01)],
                },
                SpmdPlacement {
                    host: HostId(1),
                    work_mflop: work,
                    resident_mb: 1.0,
                    sends: vec![(0, 0.01)],
                },
            ],
            iterations,
            start: SimTime::ZERO,
        };
        let a = simulate_spmd(&topo, &job(iters_a), &mut NoopSink).expect("a");
        let b = simulate_spmd(&topo, &job(iters_a + extra), &mut NoopSink).expect("b");
        prop_assert!(b.finish >= a.finish);
    }

    /// Pipeline makespan is bounded below by each stage's total work
    /// and above by the fully-serialized sum.
    #[test]
    fn pipeline_bounds(
        n_units in 1usize..30,
        prod in 1.0f64..50.0,
        cons in 1.0f64..50.0,
        mb in 0.01f64..5.0,
        depth in 1usize..6,
    ) {
        let topo = topo(&[10.0, 10.0], 1.0);
        let job = PipelineJob {
            producer: HostId(0),
            consumer: HostId(1),
            n_units,
            producer_mflop_per_unit: prod,
            consumer_mflop_per_unit: cons,
            mb_per_unit: mb,
            producer_resident_mb: 1.0,
            consumer_resident_mb: 1.0,
            max_in_flight: depth,
            start: SimTime::ZERO,
        };
        let out = simulate_pipeline(&topo, &job).expect("run");
        let t = out.finish.as_secs_f64();
        let prod_total = n_units as f64 * prod / 10.0;
        let cons_total = n_units as f64 * cons / 10.0;
        let xfer_one = mb / 10.0; // 10 MB/s link
        let serial = n_units as f64 * (prod / 10.0 + cons / 10.0 + xfer_one + 0.002);
        prop_assert!(t + 1e-6 >= prod_total.max(cons_total), "t {t} below stage bound");
        prop_assert!(
            t <= serial + 1e-6,
            "t {t} exceeds fully-serialized bound {serial}"
        );
    }

    /// Deeper pipelines never run slower.
    #[test]
    fn pipeline_is_monotone_in_depth(
        n_units in 2usize..25,
        prod in 1.0f64..40.0,
        cons in 1.0f64..40.0,
        depth in 1usize..5,
    ) {
        let topo = topo(&[10.0, 10.0], 1.0);
        let job = |d| PipelineJob {
            producer: HostId(0),
            consumer: HostId(1),
            n_units,
            producer_mflop_per_unit: prod,
            consumer_mflop_per_unit: cons,
            mb_per_unit: 0.1,
            producer_resident_mb: 1.0,
            consumer_resident_mb: 1.0,
            max_in_flight: d,
            start: SimTime::ZERO,
        };
        let shallow = simulate_pipeline(&topo, &job(depth)).expect("shallow");
        let deep = simulate_pipeline(&topo, &job(depth + 1)).expect("deep");
        prop_assert!(deep.finish <= shallow.finish);
    }

    /// The work queue conserves chunks and respects the aggregate
    /// throughput bound.
    #[test]
    fn workqueue_conserves_chunks(
        speeds in prop::collection::vec(5.0f64..50.0, 1..5),
        chunks in 1usize..60,
        mflop in 1.0f64..50.0,
    ) {
        let topo = topo(&speeds, 1.0);
        let job = WorkQueueJob {
            master: HostId(0),
            workers: (0..speeds.len()).map(HostId).collect(),
            n_chunks: chunks,
            mflop_per_chunk: mflop,
            mb_per_chunk: 0.001,
            result_mb_per_chunk: 0.001,
            resident_mb: 1.0,
            start: SimTime::ZERO,
        };
        let out = simulate_workqueue(&topo, &job).expect("run");
        prop_assert_eq!(out.chunks_done.iter().sum::<usize>(), chunks);
        // Aggregate throughput bound: total work / sum of speeds.
        let agg: f64 = speeds.iter().sum();
        let bound = chunks as f64 * mflop / agg;
        prop_assert!(out.finish.as_secs_f64() + 1e-6 >= bound);
    }
}
