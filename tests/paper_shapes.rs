//! Smoke-level reproduction checks: every headline claim of the
//! paper's evaluation, at reduced sizes so the suite stays fast. The
//! full-size sweeps are `apples-cli reproduce ID`, checked against
//! EXPERIMENTS.md by `tests/experiments_doc.rs`.

use apples_bench::ablation::forecast_ablation;
use apples_bench::fig5;
use apples_bench::fig6;
use apples_bench::nile_exp;
use apples_bench::react_exp;
use metasim::testbed::LoadProfile;

#[test]
fn fig5_apples_beats_static_partitions_by_2x_plus() {
    // Average three seeds at one size: the paper's 2-8x claim should
    // show at least a 1.5x strip gap and 2x blocked gap even in smoke.
    let cfg = fig5::Fig5Config {
        sizes: vec![1200],
        iterations: 30,
        trials: 3,
        base_seed: 1996,
        profile: LoadProfile::Moderate,
    };
    let rows = fig5::run(&cfg);
    let r = &rows[0];
    assert!(
        r.strip_ratio() > 1.5,
        "strip ratio only {:.2} (apples {:.2}s strip {:.2}s)",
        r.strip_ratio(),
        r.apples.mean,
        r.strip.mean
    );
    assert!(
        r.blocked_ratio() > 2.0,
        "blocked ratio only {:.2}",
        r.blocked_ratio()
    );
}

#[test]
fn fig6_blocked_cliff_and_apples_continuity() {
    let below = fig6::run_trial(3000, 10, 1996);
    let above = fig6::run_trial(4200, 10, 1996);
    // Blocked on SP-2: fine below, cliff above.
    assert!(below.blocked_sp2_s < 2.0 * below.apples_s);
    assert!(above.blocked_sp2_s > 3.0 * above.apples_s);
    // AppLeS grows smoothly: the per-point time must not blow up.
    let per_point_below = below.apples_s / (3000.0f64 * 3000.0);
    let per_point_above = above.apples_s / (4200.0f64 * 4200.0);
    assert!(
        per_point_above < 3.0 * per_point_below,
        "apples per-point time jumped: {per_point_below:e} -> {per_point_above:e}"
    );
}

#[test]
fn react_16h_single_site_5h_distributed() {
    let r = react_exp::run(0);
    assert!(r.c90_hours > 16.0);
    assert!(r.paragon_hours > 16.0);
    assert!(r.distributed_hours < 5.0);
}

#[test]
fn nile_skim_crossover_exists() {
    let rows = nile_exp::run(150_000, &[1, 16], 0);
    assert!(!rows[0].skim);
    assert!(rows[1].skim);
}

#[test]
fn forecast_quality_orders_schedule_quality() {
    let rows = forecast_ablation(1000, 25, 3, 2024);
    let get = |name: &str| {
        rows.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.mean)
            .expect("row")
    };
    // Static scheduling pays for its blindness.
    assert!(get("nws") < get("static-nominal"));
    assert!(get("oracle") < get("static-nominal"));
}
