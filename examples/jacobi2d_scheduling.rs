//! The §5 scenario end-to-end: Jacobi2D on the SDSC/PCL testbed of
//! Figure 2, comparing the AppLeS partition against the static
//! non-uniform Strip and HPF Uniform/Blocked partitions back-to-back
//! under the same load realization — and verifying on the *real*
//! numeric kernel that partitioning never changes results.
//!
//! ```sh
//! cargo run --release --example jacobi2d_scheduling
//! ```

use apples::info::InfoPool;
use apples_apps::jacobi2d::partition::jacobi_context;
use apples_apps::jacobi2d::{
    apples_stencil_schedule, blocked_uniform, static_strip, Grid, PartitionedRun,
};
use metasim::exec::simulate_spmd;
use metasim::testbed::{pcl_sdsc, TestbedConfig};
use metasim::{NoopSink, SimTime};
use nws::{WeatherService, WeatherServiceConfig};

fn main() {
    let n = 1600;
    let iterations = 60;
    let tb = pcl_sdsc(&TestbedConfig::default()).expect("testbed");
    let (hat, user) = jacobi_context(n, iterations);
    let t = hat.as_stencil().expect("stencil");

    let mut weather = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    let now = SimTime::from_secs(600);
    weather.advance(&tb.topo, now);

    println!("Jacobi2D {n}x{n}, {iterations} iterations on the Figure 2 testbed\n");

    // -- AppLeS --
    let pool = InfoPool::with_nws(&tb.topo, &weather, &hat, &user, now);
    let apples = apples_stencil_schedule(&pool).expect("apples plan");
    let apples_run =
        simulate_spmd(&tb.topo, &apples.to_spmd_job(t, now), &mut NoopSink).expect("run");
    println!("AppLeS partition:");
    for p in &apples.parts {
        let h = tb.topo.host(p.host).expect("host");
        println!(
            "  {:>14}: {:>4} rows ({:.1}%)",
            h.spec.name,
            p.rows,
            p.rows as f64 / n as f64 * 100.0
        );
    }
    println!(
        "  execution: {:.2} s\n",
        apples_run.makespan(now).as_secs_f64()
    );

    // -- static strip --
    let strip = static_strip(&tb.topo, n, iterations, &tb.workstations());
    let strip_run =
        simulate_spmd(&tb.topo, &strip.to_spmd_job(t, now), &mut NoopSink).expect("run");
    println!(
        "static Strip partition (nominal speeds): {:.2} s",
        strip_run.makespan(now).as_secs_f64()
    );

    // -- blocked --
    let blocked = blocked_uniform(n, iterations, &tb.workstations());
    let blocked_run =
        simulate_spmd(&tb.topo, &blocked.to_spmd_job(t, now), &mut NoopSink).expect("run");
    println!(
        "HPF Uniform/Blocked partition:           {:.2} s",
        blocked_run.makespan(now).as_secs_f64()
    );
    println!(
        "\nAppLeS speedup: {:.2}x over Strip, {:.2}x over Blocked",
        strip_run.makespan(now).as_secs_f64() / apples_run.makespan(now).as_secs_f64(),
        blocked_run.makespan(now).as_secs_f64() / apples_run.makespan(now).as_secs_f64()
    );

    // -- numeric correctness of the chosen partition --
    // Run the real kernel (small grid, same strip *proportions*) both
    // sequentially and strip-partitioned: results must match exactly.
    let small_n = 200;
    let mut seq = Grid::new(small_n, |r, _| if r == 0 { 100.0 } else { 0.0 });
    let fracs = apples.fractions();
    let mut strip_rows: Vec<usize> = fracs
        .iter()
        .map(|f| ((small_n as f64) * f).round().max(1.0) as usize)
        .collect();
    let total: usize = strip_rows.iter().sum();
    *strip_rows.last_mut().expect("strips") =
        (strip_rows.last().expect("strips") + small_n) - total;
    let mut par = PartitionedRun::new(&seq, &strip_rows);
    seq.run(50);
    par.run(50);
    assert_eq!(seq.data(), par.assemble().as_slice());
    println!(
        "\nnumeric check: partitioned kernel ({} strips) matches the\n\
         sequential solver bit-for-bit after 50 sweeps ✓",
        strip_rows.len()
    );
}
