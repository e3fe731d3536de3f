//! §2.3's 3D-REACT measurements: single-site vs distributed pipeline,
//! and the pipeline-size tradeoff.

use apples_apps::react3d::{casa_testbed, single_site_run, sweep_pipeline_sizes, CasaTestbed};

/// The complete §2.3 experiment result.
#[derive(Debug, Clone)]
pub struct ReactResult {
    /// Single-site hours on the C90.
    pub c90_hours: f64,
    /// Single-site hours on the Paragon.
    pub paragon_hours: f64,
    /// Distributed hours at the best pipeline size.
    pub distributed_hours: f64,
    /// Best pipeline size (surface functions per subdomain).
    pub best_unit: usize,
    /// The full sweep: `(unit size, hours)`.
    pub sweep: Vec<(usize, f64)>,
    /// Speedup of the distributed run over the best single site.
    pub speedup: f64,
}

/// Unit sizes swept (the paper's subdomains held 5–20 surface
/// functions).
pub const UNIT_SIZES: &[usize] = &[1, 2, 5, 10, 20, 40, 65, 130, 260, 520];

/// Run the full experiment.
pub fn run(seed: u64) -> ReactResult {
    let tb: CasaTestbed = casa_testbed(seed).expect("casa testbed");
    const HOUR: f64 = 3600.0;

    let c90_hours = single_site_run(&tb, tb.c90).expect("c90").as_secs_f64() / HOUR;
    let paragon_hours = single_site_run(&tb, tb.paragon)
        .expect("paragon")
        .as_secs_f64()
        / HOUR;

    let sweep_secs = sweep_pipeline_sizes(&tb, UNIT_SIZES, 4).expect("sweep");
    let sweep: Vec<(usize, f64)> = sweep_secs.into_iter().map(|(u, s)| (u, s / HOUR)).collect();
    let &(best_unit, distributed_hours) = sweep
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty sweep");

    let best_single = c90_hours.min(paragon_hours);
    ReactResult {
        c90_hours,
        paragon_hours,
        distributed_hours,
        best_unit,
        sweep,
        speedup: best_single / distributed_hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_papers_shape() {
        let r = run(0);
        assert!(r.c90_hours > 16.0, "C90: {:.1} h", r.c90_hours);
        assert!(r.paragon_hours > 16.0, "Paragon: {:.1} h", r.paragon_hours);
        assert!(
            r.distributed_hours < 5.0,
            "distributed: {:.2} h",
            r.distributed_hours
        );
        assert!(r.speedup > 3.0, "speedup {:.2}", r.speedup);
        assert!((2..=20).contains(&r.best_unit), "best unit {}", r.best_unit);
    }
}
