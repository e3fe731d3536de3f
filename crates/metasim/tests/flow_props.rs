//! Property tests for the fluid-flow transfer simulator: physical
//! bounds, work conservation and determinism on randomized transfer
//! batches.

use metasim::host::HostSpec;
use metasim::load::LoadModel;
use metasim::net::{simulate_transfers, LinkSpec, TopologyBuilder, TransferReq};
use metasim::{HostId, NoopSink, SimTime, Topology};
use proptest::prelude::*;

fn s(x: f64) -> SimTime {
    SimTime::from_secs_f64(x)
}

/// `hosts` hosts on one shared segment of `bw` MB/s.
fn segment_topo(hosts: usize, bw: f64) -> Topology {
    let mut b = TopologyBuilder::new();
    let seg = b.add_segment(LinkSpec::dedicated("seg", bw, SimTime::ZERO));
    for i in 0..hosts {
        b.add_host(HostSpec::dedicated(&format!("h{i}"), 10.0, 64.0, seg));
    }
    b.instantiate(s(1e9), 0).expect("topo")
}

fn arb_reqs(hosts: usize) -> impl Strategy<Value = Vec<TransferReq>> {
    prop::collection::vec((0..hosts, 0..hosts, 0.1f64..50.0, 0u64..100), 1..20).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (from, to, mb, start_s))| TransferReq {
                from: HostId(from),
                to: HostId(to),
                mb,
                start: SimTime::from_secs(start_s),
                tag: i,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No transfer finishes faster than the link's full capacity would
    /// allow, and none is lost.
    #[test]
    fn transfers_respect_capacity_lower_bound(reqs in arb_reqs(4)) {
        let bw = 10.0;
        let topo = segment_topo(4, bw);
        let results = simulate_transfers(&topo, &reqs, &mut NoopSink).expect("simulate");
        prop_assert_eq!(results.len(), reqs.len());
        for (req, res) in reqs.iter().zip(&results) {
            prop_assert_eq!(req.tag, res.tag);
            if req.from == req.to {
                prop_assert_eq!(res.delivered, req.start);
            } else {
                let floor = req.start + SimTime::from_secs_f64(req.mb / bw);
                // Delivered no earlier than the uncontended bound
                // (allow 2 µs of fixed-point rounding).
                prop_assert!(
                    res.delivered + SimTime::from_micros(2) >= floor,
                    "tag {} delivered {:?} before physical floor {:?}",
                    req.tag, res.delivered, floor
                );
            }
        }
    }

    /// The batch's overall makespan is at least total-bytes / capacity
    /// for bytes that actually cross the (single) shared link.
    #[test]
    fn shared_link_throughput_is_conserved(reqs in arb_reqs(4)) {
        let bw = 10.0;
        let topo = segment_topo(4, bw);
        let crossing: Vec<&TransferReq> =
            reqs.iter().filter(|r| r.from != r.to).collect();
        prop_assume!(!crossing.is_empty());
        let results = simulate_transfers(&topo, &reqs, &mut NoopSink).expect("simulate");
        let earliest = crossing.iter().map(|r| r.start).min().unwrap();
        let last = reqs
            .iter()
            .zip(&results)
            .filter(|(r, _)| r.from != r.to)
            .map(|(_, res)| res.delivered)
            .max()
            .unwrap();
        let total_mb: f64 = crossing.iter().map(|r| r.mb).sum();
        let min_span = total_mb / bw;
        let span = last.saturating_sub(earliest).as_secs_f64();
        prop_assert!(
            span + 1e-5 >= min_span,
            "span {span}s cannot beat the capacity bound {min_span}s"
        );
    }

    /// Simulation is a pure function of its inputs.
    #[test]
    fn transfer_simulation_is_deterministic(reqs in arb_reqs(3)) {
        let topo = segment_topo(3, 7.5);
        let a = simulate_transfers(&topo, &reqs, &mut NoopSink).expect("a");
        let b = simulate_transfers(&topo, &reqs, &mut NoopSink).expect("b");
        prop_assert_eq!(a, b);
    }

    /// Adding background load on the link never speeds anything up.
    #[test]
    fn background_load_is_monotone(reqs in arb_reqs(3), avail in 0.1f64..1.0) {
        let free = segment_topo(3, 10.0);
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::shared(
            "seg",
            10.0,
            SimTime::ZERO,
            LoadModel::Constant(avail),
        ));
        for i in 0..3 {
            b.add_host(HostSpec::dedicated(&format!("h{i}"), 10.0, 64.0, seg));
        }
        let loaded = b.instantiate(s(1e9), 0).expect("topo");

        let fast = simulate_transfers(&free, &reqs, &mut NoopSink).expect("free");
        let slow = simulate_transfers(&loaded, &reqs, &mut NoopSink).expect("loaded");
        for (f, l) in fast.iter().zip(&slow) {
            prop_assert!(
                l.delivered + SimTime::from_micros(2) >= f.delivered,
                "load sped a transfer up: {:?} < {:?}",
                l.delivered,
                f.delivered
            );
        }
    }
}
