//! Building your own metacomputing system: a custom topology with one
//! host driven by a *recorded* load trace (the CSV format of
//! `metasim::tracefile`), scheduled by an AppLeS agent, with a
//! per-worker utilization timeline of the run.
//!
//! ```sh
//! cargo run --example custom_testbed
//! ```

use apples::hat::jacobi2d_hat;
use apples::user::UserSpec;
use apples::{Coordinator, Schedule};
use metasim::exec::simulate_spmd;
use metasim::host::HostSpec;
use metasim::load::LoadModel;
use metasim::net::{LinkSpec, TopologyBuilder};
use metasim::trace::render_timeline;
use metasim::tracefile::load_model_from_trace;
use metasim::{NoopSink, SimTime};
use nws::{WeatherService, WeatherServiceConfig};

/// A recorded availability trace — in practice read from a file with
/// `std::fs::read_to_string("host.trace")`.
const RECORDED_TRACE: &str = "\
# availability of the shared visualization server, afternoon sample
0,0.92
600,0.85
1200,0.30
1500,0.22
2100,0.45
2700,0.88
3600,0.95
";

fn main() {
    // Two lab machines plus the trace-driven shared server.
    let mut b = TopologyBuilder::new();
    let lan = b.add_segment(LinkSpec::dedicated("lan", 12.5, SimTime::from_micros(400)));
    b.add_host(HostSpec::dedicated("node-a", 25.0, 512.0, lan));
    b.add_host(HostSpec::dedicated("node-b", 25.0, 512.0, lan));
    let recorded = load_model_from_trace(RECORDED_TRACE).expect("trace parses");
    b.add_host(HostSpec {
        name: "shared-server".into(),
        mflops: 60.0,
        mem_mb: 1024.0,
        sharing: metasim::host::SharingPolicy::TimeShared,
        paging_slowdown: 50.0,
        segment: lan,
        load: recorded,
    });
    // An always-idle control for comparison.
    b.add_host(HostSpec::workstation(
        "night-owl",
        25.0,
        512.0,
        lan,
        LoadModel::Constant(0.97),
    ));
    let topo = b
        .instantiate(SimTime::from_secs(100_000), 7)
        .expect("topology");

    // Schedule at t = 1500 s — right in the recorded trace's busy dip.
    let now = SimTime::from_secs(1500);
    let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
    ws.advance(&topo, now);

    let hat = jacobi2d_hat(1200, 80);
    let agent = Coordinator::new(hat.clone(), UserSpec::default());
    let (decision, _) = agent.run(&topo, &ws, now, &mut NoopSink).expect("schedule");

    println!("Custom testbed with a trace-driven host (decision at t = 1500 s,");
    println!("while the recorded trace shows the shared server at ~22%):\n");
    let Schedule::Stencil(sched) = decision.schedule() else {
        panic!("stencil expected")
    };
    let labels: Vec<String> = sched
        .parts
        .iter()
        .map(|p| topo.host(p.host).expect("host").spec.name.clone())
        .collect();
    for (p, label) in sched.parts.iter().zip(&labels) {
        println!(
            "  {label:>14}: {:>4} rows ({:.1}%)",
            p.rows,
            p.rows as f64 / sched.n as f64 * 100.0
        );
    }

    let t = hat.as_stencil().expect("stencil");
    let outcome = simulate_spmd(&topo, &sched.to_spmd_job(t, now), &mut NoopSink).expect("run");
    println!(
        "\nexecution: {:.2} s; per-worker utilization:\n",
        outcome.makespan(now).as_secs_f64()
    );
    print!(
        "{}",
        render_timeline(&outcome, &labels, 40).expect("one label per worker")
    );
    println!(
        "\nThe nominally fastest machine (60 Mflop/s shared server) gets a\n\
         modest strip because the *recorded* trace says it is busy now —\n\
         swap in your own `host.trace` to replay measured conditions."
    );
}
