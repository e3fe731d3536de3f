#![warn(missing_docs)]

//! Umbrella crate: re-exports the AppLeS reproduction stack for the
//! examples and integration tests that live at the workspace root, and
//! offers a [`prelude`] for downstream users.

pub use apples;
pub use apples_apps;
pub use apples_bench;
pub use apples_grid;
pub use metasim;
pub use nws;
pub use obsv;

/// One-line import for the common workflow: build a system, watch it,
/// schedule on it.
///
/// ```
/// use apples_suite::prelude::*;
///
/// let mut b = TopologyBuilder::new();
/// let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
/// b.add_host(HostSpec::dedicated("node", 20.0, 256.0, seg));
/// let topo = b.instantiate(SimTime::from_secs(1000), 0).unwrap();
///
/// let mut weather = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
/// weather.advance(&topo, SimTime::from_secs(60));
///
/// let agent = Coordinator::new(jacobi2d_hat(300, 10), UserSpec::default());
/// let (decision, report) = agent.run(&topo, &weather, SimTime::from_secs(60), &mut NoopSink).unwrap();
/// assert!(report.elapsed_seconds > 0.0);
/// assert_eq!(decision.schedule().hosts().len(), 1);
/// ```
pub mod prelude {
    pub use apples::hat::jacobi2d_hat;
    pub use apples::{
        ApplesError, Coordinator, Decision, Hat, InfoPool, PerformanceMetric, Schedule, UserSpec,
    };
    pub use metasim::host::HostSpec;
    pub use metasim::load::LoadModel;
    pub use metasim::net::{LinkSpec, TopologyBuilder};
    pub use metasim::testbed::{pcl_sdsc, LoadProfile, TestbedConfig};
    pub use metasim::{HostId, NoopSink, SimTime, Topology};
    pub use nws::{ResourceKey, WeatherService, WeatherServiceConfig};
}
