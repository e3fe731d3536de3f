//! Canonical testbed configurations.
//!
//! [`pcl_sdsc`] reproduces Figure 2 of the paper: the UCSD Parallel
//! Computation Laboratory (a Sun Sparc-2 and a Sparc-10 on one Ethernet
//! segment, two IBM RS6000s on another) connected by a gateway to the
//! San Diego Supercomputer Center (four DEC Alphas on a non-dedicated
//! FDDI ring). The Figure 6 experiments add two unloaded SP-2 nodes at
//! SDSC on their own switch.
//!
//! Nominal speeds are representative mid-90s LINPACK-class numbers; the
//! absolute values do not matter for reproducing the paper's *shape* —
//! what matters is the heterogeneity ratios and which media are shared.
//! SP-2 node memory is sized so a 2-node uniform partition of a
//! `3700 × 3700` Jacobi grid exactly saturates physical memory, which is
//! where Figure 6 places its spill point.

use crate::error::SimError;
use crate::host::{HostId, HostSpec};
use crate::load::LoadModel;
use crate::net::{LinkSpec, SegmentId, Topology, TopologyBuilder};
use crate::time::SimTime;

/// How heavily background users load the non-dedicated resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadProfile {
    /// Everything dedicated: availability pinned at 1. A control case.
    Dedicated,
    /// Light interactive use: availability mostly near 0.85.
    Light,
    /// The default: a busy multi-user lab, availability drifting
    /// around 0.55 with user sessions coming and going.
    Moderate,
    /// Heavily contended: availability drifting around 0.3.
    Heavy,
}

impl LoadProfile {
    /// Mean CPU availability this profile aims at.
    pub fn target_mean(&self) -> f64 {
        match self {
            LoadProfile::Dedicated => 1.0,
            LoadProfile::Light => 0.85,
            LoadProfile::Moderate => 0.55,
            LoadProfile::Heavy => 0.3,
        }
    }

    /// Load model for a time-shared CPU. `skew` in `[-1, 1]` biases the
    /// level so different hosts in the same profile differ — strongly.
    /// Real multi-user pools are very uneven (one workstation is
    /// somebody's simulation rig while its neighbour idles), and that
    /// unevenness is precisely what static schedules cannot see and
    /// AppLeS can (§3.2). The Figure 5 gap depends on it.
    pub fn cpu_load(&self, skew: f64) -> LoadModel {
        match self {
            LoadProfile::Dedicated => LoadModel::Constant(1.0),
            _ => {
                let mean = (self.target_mean() + 0.45 * skew).clamp(0.08, 1.0);
                let spread = 0.3 * mean;
                LoadModel::RandomWalk {
                    start: mean,
                    step: 0.08,
                    interval: SimTime::from_secs(5),
                    floor: (mean - spread).max(0.02),
                    ceil: (mean + spread).min(1.0),
                }
            }
        }
    }

    /// Load model for a shared network medium.
    pub fn net_load(&self, skew: f64) -> LoadModel {
        match self {
            LoadProfile::Dedicated => LoadModel::Constant(1.0),
            _ => {
                // Networks are burstier than CPUs: on/off cross-traffic.
                let idle = (self.target_mean() + 0.3 + 0.05 * skew).clamp(0.2, 1.0);
                let busy = (self.target_mean() - 0.15 + 0.05 * skew).clamp(0.05, 1.0);
                LoadModel::MarkovOnOff {
                    idle_avail: idle,
                    busy_avail: busy,
                    mean_idle: SimTime::from_secs(40),
                    mean_busy: SimTime::from_secs(15),
                }
            }
        }
    }
}

/// Options for building the Figure 2 testbed.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Background-load intensity on the non-dedicated resources.
    pub profile: LoadProfile,
    /// Horizon of the load processes: a realization *cap*. Series are
    /// realized lazily, only as far as a run reads them, never past the
    /// horizon, and hold their last value beyond it.
    pub horizon: SimTime,
    /// Seed controlling every realized availability process.
    pub seed: u64,
    /// Include the two SP-2 nodes used in the Figure 6 experiments.
    pub with_sp2: bool,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            profile: LoadProfile::Moderate,
            horizon: SimTime::from_secs(200_000),
            seed: 1996,
            with_sp2: false,
        }
    }
}

/// The instantiated Figure 2 testbed with named host handles.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// The underlying topology.
    pub topo: Topology,
    /// The PCL Sun Sparc-2.
    pub sparc2: HostId,
    /// The PCL Sun Sparc-10.
    pub sparc10: HostId,
    /// The two PCL IBM RS6000s.
    pub rs6000: [HostId; 2],
    /// The four SDSC DEC Alphas on the FDDI ring.
    pub alphas: [HostId; 4],
    /// The two SDSC SP-2 nodes (present when `with_sp2`).
    pub sp2: Option<[HostId; 2]>,
    /// PCL Sun Ethernet segment.
    pub seg_suns: SegmentId,
    /// PCL RS6000 Ethernet segment.
    pub seg_rs: SegmentId,
    /// SDSC FDDI ring.
    pub seg_fddi: SegmentId,
    /// SDSC SP-2 switch (present when `with_sp2`).
    pub seg_sp2: Option<SegmentId>,
}

impl Testbed {
    /// Every host in the testbed, in a stable order.
    pub fn all_hosts(&self) -> Vec<HostId> {
        let mut v = vec![self.sparc2, self.sparc10];
        v.extend(self.rs6000);
        v.extend(self.alphas);
        if let Some(sp2) = self.sp2 {
            v.extend(sp2);
        }
        v
    }

    /// The workstation hosts (everything except the SP-2 nodes).
    pub fn workstations(&self) -> Vec<HostId> {
        let mut v = vec![self.sparc2, self.sparc10];
        v.extend(self.rs6000);
        v.extend(self.alphas);
        v
    }
}

/// Nominal speeds (Mflop/s) and memories (MB) for the testbed machines.
pub mod nominal {
    /// Sun Sparc-2.
    pub const SPARC2_MFLOPS: f64 = 4.0;
    /// Sun Sparc-2 memory.
    pub const SPARC2_MEM_MB: f64 = 32.0;
    /// Sun Sparc-10.
    pub const SPARC10_MFLOPS: f64 = 10.0;
    /// Sun Sparc-10 memory.
    pub const SPARC10_MEM_MB: f64 = 64.0;
    /// IBM RS6000.
    pub const RS6000_MFLOPS: f64 = 25.0;
    /// IBM RS6000 memory.
    pub const RS6000_MEM_MB: f64 = 128.0;
    /// DEC Alpha.
    pub const ALPHA_MFLOPS: f64 = 40.0;
    /// DEC Alpha memory.
    pub const ALPHA_MEM_MB: f64 = 128.0;
    /// IBM SP-2 node.
    pub const SP2_MFLOPS: f64 = 110.0;
    /// IBM SP-2 node memory: sized so a 2-node uniform partition of a
    /// 3700×3700 double-precision Jacobi grid (16 B/point, two arrays)
    /// exactly fills physical memory — Figure 6's spill point.
    pub const SP2_MEM_MB: f64 = 110.0;
    /// 10 Mbit/s Ethernet in MB/s.
    pub const ETHERNET_MBPS: f64 = 1.25;
    /// 100 Mbit/s FDDI in MB/s.
    pub const FDDI_MBPS: f64 = 12.5;
    /// PCL↔SDSC gateway usable bandwidth in MB/s.
    pub const GATEWAY_MBPS: f64 = 0.9;
    /// SP-2 switch bandwidth in MB/s.
    pub const SP2_SWITCH_MBPS: f64 = 40.0;
}

/// Build the SDSC/PCL testbed of Figure 2.
pub fn pcl_sdsc(cfg: &TestbedConfig) -> Result<Testbed, SimError> {
    use nominal::*;
    let p = cfg.profile;
    let mut b = TopologyBuilder::new();

    // Shared media.
    let seg_suns = b.add_segment(LinkSpec::shared(
        "pcl-eth-suns",
        ETHERNET_MBPS,
        SimTime::from_millis(1),
        p.net_load(-0.2),
    ));
    let seg_rs = b.add_segment(LinkSpec::shared(
        "pcl-eth-rs6000",
        ETHERNET_MBPS,
        SimTime::from_millis(1),
        p.net_load(0.1),
    ));
    let seg_fddi = b.add_segment(LinkSpec::shared(
        "sdsc-fddi",
        FDDI_MBPS,
        SimTime::from_micros(500),
        p.net_load(0.4),
    ));
    let pcl_router = b.add_link(LinkSpec::shared(
        "pcl-router",
        ETHERNET_MBPS,
        SimTime::from_millis(1),
        p.net_load(0.0),
    ));
    let gateway = b.add_link(LinkSpec::shared(
        "pcl-sdsc-gateway",
        GATEWAY_MBPS,
        SimTime::from_millis(3),
        p.net_load(-0.4),
    ));

    // Inter-segment routes.
    b.add_route(seg_suns, seg_rs, vec![pcl_router])?;
    b.add_route(seg_suns, seg_fddi, vec![gateway])?;
    b.add_route(seg_rs, seg_fddi, vec![gateway])?;

    // PCL workstations.
    let sparc2 = b.add_host(HostSpec::workstation(
        "pcl-sparc2",
        SPARC2_MFLOPS,
        SPARC2_MEM_MB,
        seg_suns,
        p.cpu_load(-0.6),
    ));
    let sparc10 = b.add_host(HostSpec::workstation(
        "pcl-sparc10",
        SPARC10_MFLOPS,
        SPARC10_MEM_MB,
        seg_suns,
        p.cpu_load(0.3),
    ));
    let rs0 = b.add_host(HostSpec::workstation(
        "pcl-rs6000-0",
        RS6000_MFLOPS,
        RS6000_MEM_MB,
        seg_rs,
        p.cpu_load(0.8),
    ));
    let rs1 = b.add_host(HostSpec::workstation(
        "pcl-rs6000-1",
        RS6000_MFLOPS,
        RS6000_MEM_MB,
        seg_rs,
        p.cpu_load(-0.3),
    ));

    // SDSC Alphas.
    let mut alphas = [HostId(0); 4];
    for (i, slot) in alphas.iter_mut().enumerate() {
        *slot = b.add_host(HostSpec::workstation(
            &format!("sdsc-alpha-{i}"),
            ALPHA_MFLOPS,
            ALPHA_MEM_MB,
            seg_fddi,
            p.cpu_load(((i as f64) - 1.5) / 1.5 * 0.7),
        ));
    }

    // Optional SP-2 nodes (unloaded, per Figure 6's setup).
    let (seg_sp2, sp2) = if cfg.with_sp2 {
        let seg = b.add_segment(LinkSpec::dedicated(
            "sdsc-sp2-switch",
            SP2_SWITCH_MBPS,
            SimTime::from_micros(100),
        ));
        let sdsc_router = b.add_link(LinkSpec::dedicated(
            "sdsc-router",
            FDDI_MBPS,
            SimTime::from_micros(500),
        ));
        b.add_route(seg, seg_fddi, vec![sdsc_router])?;
        b.add_route(seg, seg_suns, vec![sdsc_router, gateway])?;
        b.add_route(seg, seg_rs, vec![sdsc_router, gateway])?;
        let n0 = b.add_host(HostSpec::dedicated(
            "sdsc-sp2-0",
            SP2_MFLOPS,
            SP2_MEM_MB,
            seg,
        ));
        let n1 = b.add_host(HostSpec::dedicated(
            "sdsc-sp2-1",
            SP2_MFLOPS,
            SP2_MEM_MB,
            seg,
        ));
        (Some(seg), Some([n0, n1]))
    } else {
        (None, None)
    };

    let topo = b.instantiate(cfg.horizon, cfg.seed)?;
    Ok(Testbed {
        topo,
        sparc2,
        sparc10,
        rs6000: [rs0, rs1],
        alphas,
        sp2,
        seg_suns,
        seg_rs,
        seg_fddi,
        seg_sp2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_testbed_has_eight_hosts() {
        let tb = pcl_sdsc(&TestbedConfig::default()).unwrap();
        assert_eq!(tb.topo.hosts().len(), 8);
        assert_eq!(tb.all_hosts().len(), 8);
        assert!(tb.sp2.is_none());
    }

    #[test]
    fn sp2_testbed_has_ten_hosts() {
        let cfg = TestbedConfig {
            with_sp2: true,
            ..Default::default()
        };
        let tb = pcl_sdsc(&cfg).unwrap();
        assert_eq!(tb.topo.hosts().len(), 10);
        let sp2 = tb.sp2.unwrap();
        let h = tb.topo.host(sp2[0]).unwrap();
        assert_eq!(h.spec.mflops, nominal::SP2_MFLOPS);
        // SP-2 nodes are dedicated: always fully available.
        assert_eq!(h.availability().value_at(SimTime::from_secs(100)), 1.0);
    }

    #[test]
    fn every_host_pair_is_routable() {
        let cfg = TestbedConfig {
            with_sp2: true,
            ..Default::default()
        };
        let tb = pcl_sdsc(&cfg).unwrap();
        let hosts = tb.all_hosts();
        for &a in &hosts {
            for &b in &hosts {
                assert!(tb.topo.route(a, b).is_ok(), "no route between {a} and {b}");
            }
        }
    }

    #[test]
    fn cross_site_latency_exceeds_local() {
        let tb = pcl_sdsc(&TestbedConfig::default()).unwrap();
        let local = tb.topo.route_latency(tb.sparc2, tb.sparc10).unwrap();
        let remote = tb.topo.route_latency(tb.sparc2, tb.alphas[0]).unwrap();
        assert!(remote > local);
    }

    #[test]
    fn moderate_profile_actually_loads_cpus() {
        let tb = pcl_sdsc(&TestbedConfig::default()).unwrap();
        let h = tb.topo.host(tb.sparc10).unwrap();
        let mean = h.mean_availability(SimTime::ZERO, SimTime::from_secs(100_000));
        assert!(
            mean < 0.95,
            "moderate profile should leave mean < 0.95, got {mean}"
        );
        assert!(
            mean > 0.2,
            "moderate profile should not starve hosts, got {mean}"
        );
    }

    #[test]
    fn dedicated_profile_pins_availability() {
        let cfg = TestbedConfig {
            profile: LoadProfile::Dedicated,
            ..Default::default()
        };
        let tb = pcl_sdsc(&cfg).unwrap();
        for &h in &tb.all_hosts() {
            let host = tb.topo.host(h).unwrap();
            assert_eq!(
                host.mean_availability(SimTime::ZERO, SimTime::from_secs(1000)),
                1.0
            );
        }
    }

    #[test]
    fn heavier_profiles_deliver_less() {
        let mk = |p| {
            let cfg = TestbedConfig {
                profile: p,
                ..Default::default()
            };
            let tb = pcl_sdsc(&cfg).unwrap();
            let h = tb.topo.host(tb.alphas[0]).unwrap();
            h.mean_availability(SimTime::ZERO, SimTime::from_secs(100_000))
        };
        let light = mk(LoadProfile::Light);
        let moderate = mk(LoadProfile::Moderate);
        let heavy = mk(LoadProfile::Heavy);
        assert!(light > moderate && moderate > heavy);
    }

    #[test]
    fn same_seed_reproduces_identical_testbeds() {
        let a = pcl_sdsc(&TestbedConfig::default()).unwrap();
        let b = pcl_sdsc(&TestbedConfig::default()).unwrap();
        for (&ha, &hb) in a.all_hosts().iter().zip(b.all_hosts().iter()) {
            assert_eq!(
                a.topo.host(ha).unwrap().availability(),
                b.topo.host(hb).unwrap().availability()
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = pcl_sdsc(&TestbedConfig::default()).unwrap();
        let cfg = TestbedConfig {
            seed: 7777,
            ..Default::default()
        };
        let b = pcl_sdsc(&cfg).unwrap();
        let ha = a.topo.host(a.sparc10).unwrap();
        let hb = b.topo.host(b.sparc10).unwrap();
        assert_ne!(ha.availability(), hb.availability());
    }
}
