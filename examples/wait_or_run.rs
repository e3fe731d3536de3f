//! The §3.2 wait-or-run-now decision: is it worth queueing for a
//! dedicated partition, or should the application run immediately on
//! the loaded workstations?
//!
//! ```sh
//! cargo run --example wait_or_run
//! ```

use apples::advisor::advise;
use apples::hat::jacobi2d_hat;
use apples::info::{ForecastSource, InfoPool};
use apples::user::UserSpec;
use metasim::host::{HostSpec, SharingPolicy};
use metasim::load::LoadModel;
use metasim::net::{LinkSpec, TopologyBuilder};
use metasim::{HostId, SimTime};

fn main() {
    // Two dedicated nodes behind a batch queue, two loaded
    // workstations available right now.
    let queue_waits = [60.0, 900.0, 7200.0];
    println!("Wait for the dedicated partition, or run now on shared nodes?\n");
    println!("application: Jacobi2D 1200x1200, 800 iterations");
    println!("dedicated:   2 x 40 Mflop/s (full speed once acquired)");
    println!("shared:      2 x 40 Mflop/s at ~35% availability, no wait\n");

    for wait in queue_waits {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 20.0, SimTime::from_micros(200)));
        for i in 0..2 {
            let mut spec = HostSpec::dedicated(&format!("batch-{i}"), 40.0, 1024.0, seg);
            spec.sharing = SharingPolicy::SpaceShared {
                wait: SimTime::from_secs_f64(wait),
            };
            b.add_host(spec);
        }
        for i in 0..2 {
            b.add_host(HostSpec::workstation(
                &format!("shared-{i}"),
                40.0,
                1024.0,
                seg,
                LoadModel::Constant(0.35),
            ));
        }
        let topo = b
            .instantiate(SimTime::from_secs(1_000_000), 0)
            .expect("topology");

        let hat = jacobi2d_hat(1200, 800);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO)
            .with_source(ForecastSource::Oracle);

        let advice = advise(
            &pool,
            &[vec![HostId(0), HostId(1)], vec![HostId(2), HostId(3)]],
        )
        .expect("advice");
        let chosen = advice.chosen();
        let verdict = if chosen.wait_seconds > 0.0 {
            "WAIT for dedicated"
        } else {
            "RUN NOW on shared"
        };
        println!(
            "queue wait {:>5.0} s  ->  {verdict:<20} (predicted completion {:>7.1} s)",
            wait, chosen.completion_seconds
        );
        for o in &advice.options {
            println!(
                "    option: wait {:>5.0} s, complete in {:>8.1} s",
                o.wait_seconds, o.completion_seconds
            );
        }
    }
    println!(
        "\n§3.2: \"estimating the sum of the wait time and the dedicated time\n\
         and comparing it with a prediction of the slowdown the application\n\
         will experience on non-dedicated resources\" — mechanized."
    );
}
