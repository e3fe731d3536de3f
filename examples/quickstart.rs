//! Quickstart: schedule an application with an AppLeS agent.
//!
//! Builds a tiny two-site metacomputing system, lets the Network
//! Weather Service watch it for ten simulated minutes, then asks an
//! AppLeS agent to schedule a Jacobi2D run — the full
//! select → plan → estimate → actuate blueprint — and prints what the
//! agent decided and how the run actually went.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use apples::hat::jacobi2d_hat;
use apples::user::UserSpec;
use apples::Coordinator;
use metasim::host::HostSpec;
use metasim::load::LoadModel;
use metasim::net::{LinkSpec, TopologyBuilder};
use metasim::{NoopSink, SimTime};
use nws::{WeatherService, WeatherServiceConfig};

fn main() {
    // 1. Describe the system: two lab workstations on a shared
    //    Ethernet, one of them busy, plus a fast machine across a
    //    gateway.
    let mut b = TopologyBuilder::new();
    let lab = b.add_segment(LinkSpec::dedicated(
        "lab-ethernet",
        1.25,
        SimTime::from_millis(1),
    ));
    let remote = b.add_segment(LinkSpec::dedicated(
        "remote-fddi",
        12.5,
        SimTime::from_micros(500),
    ));
    let gw = b.add_link(LinkSpec::dedicated("gateway", 0.9, SimTime::from_millis(3)));
    b.add_route(lab, remote, vec![gw])
        .expect("fresh builder accepts the gateway route");

    b.add_host(HostSpec::workstation(
        "lab-idle",
        20.0,
        128.0,
        lab,
        LoadModel::Constant(0.9),
    ));
    b.add_host(HostSpec::workstation(
        "lab-busy",
        20.0,
        128.0,
        lab,
        LoadModel::MarkovOnOff {
            idle_avail: 0.9,
            busy_avail: 0.15,
            mean_idle: SimTime::from_secs(30),
            mean_busy: SimTime::from_secs(60),
        },
    ));
    b.add_host(HostSpec::workstation(
        "remote-alpha",
        40.0,
        256.0,
        remote,
        LoadModel::Constant(0.7),
    ));
    let topo = b
        .instantiate(SimTime::from_secs(100_000), 42)
        .expect("topology");

    // 2. Let the Weather Service observe for ten minutes.
    let mut weather = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
    let now = SimTime::from_secs(600);
    weather.advance(&topo, now);

    // 3. Describe the application (HAT) and the user (US).
    let hat = jacobi2d_hat(800, 50); // 800x800 grid, 50 iterations
    let user = UserSpec::default();

    // 4. Run the agent: decide and actuate.
    let agent = Coordinator::new(hat, user);
    let (decision, report) = agent
        .run(&topo, &weather, now, &mut NoopSink)
        .expect("schedule");

    println!("AppLeS quickstart — Jacobi2D 800x800, 50 iterations\n");
    println!(
        "candidates considered: {} (rejected {})",
        decision.considered.len(),
        decision.rejected
    );
    let chosen = decision.chosen();
    println!(
        "chosen resource set:   {} host(s), predicted {:.2} s",
        chosen.hosts.len(),
        chosen.predicted_seconds
    );
    if let apples::Schedule::Stencil(s) = decision.schedule() {
        for p in &s.parts {
            let h = topo.host(p.host).expect("host");
            println!(
                "  {:>14}: {:>4} rows ({:.1}%)",
                h.spec.name,
                p.rows,
                p.rows as f64 / s.n as f64 * 100.0
            );
        }
    }
    println!("\nactuated execution:    {:.2} s", report.elapsed_seconds);
    println!(
        "prediction error:      {:+.1}%",
        (chosen.predicted_seconds / report.elapsed_seconds - 1.0) * 100.0
    );
}
