//! HPF-style uniform blocked decomposition.
//!
//! Figure 5's third contender: the grid is cut into a `pr × pc` mesh of
//! equal blocks, one per host, "a reasonable choice for the user who is
//! trying to optimize the performance of Jacobi2D at compile time".
//! Blocks exchange borders with up to four neighbours. The paper's
//! user preference for strips (§5) exists because block schedules are
//! harder to predict — which is exactly why we keep them around as a
//! baseline.

use apples::estimator::LinkFlows;
use apples::hat::StencilTemplate;
use metasim::exec::{SpmdJob, SpmdPlacement};
use metasim::{HostId, SimTime};

/// A uniform blocked decomposition over a `pr × pc` process mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedSchedule {
    /// Grid edge length.
    pub n: usize,
    /// Iterations to run.
    pub iterations: usize,
    /// Process-mesh rows.
    pub pr: usize,
    /// Process-mesh columns.
    pub pc: usize,
    /// Hosts in row-major mesh order (`pr * pc` entries).
    pub hosts: Vec<HostId>,
}

impl BlockedSchedule {
    /// Build a mesh over `hosts`, choosing the most square `pr × pc`
    /// factorization of the host count.
    ///
    /// # Panics
    /// Panics if `hosts` is empty.
    pub fn new(n: usize, iterations: usize, hosts: &[HostId]) -> Self {
        assert!(!hosts.is_empty(), "blocked schedule needs hosts");
        let p = hosts.len();
        let pr = most_square_factor(p);
        let pc = p / pr;
        BlockedSchedule {
            n,
            iterations,
            pr,
            pc,
            hosts: hosts.to_vec(),
        }
    }

    /// Rows of blocks in mesh row `i` (near-equal split of `n`).
    pub fn block_rows(&self, i: usize) -> usize {
        near_equal_split(self.n, self.pr, i)
    }

    /// Columns of blocks in mesh column `j`.
    pub fn block_cols(&self, j: usize) -> usize {
        near_equal_split(self.n, self.pc, j)
    }

    /// Lower to a simulable SPMD job: each block computes its area and
    /// exchanges borders with its mesh neighbours each iteration.
    pub fn to_spmd_job(&self, t: &StencilTemplate, start: SimTime) -> SpmdJob {
        let mut placements = Vec::with_capacity(self.pr * self.pc);
        for i in 0..self.pr {
            for j in 0..self.pc {
                let rows = self.block_rows(i);
                let cols = self.block_cols(j);
                let work_mflop = rows as f64 * cols as f64 * t.flops_per_point / 1e6;
                let resident_mb = rows as f64 * cols as f64 * t.bytes_per_point / 1e6;
                let mut sends = Vec::new();
                let idx = |a: usize, b: usize| a * self.pc + b;
                let h_border = cols as f64 * t.border_bytes_per_point / 1e6;
                let v_border = rows as f64 * t.border_bytes_per_point / 1e6;
                if i > 0 {
                    sends.push((idx(i - 1, j), h_border));
                }
                if i + 1 < self.pr {
                    sends.push((idx(i + 1, j), h_border));
                }
                if j > 0 {
                    sends.push((idx(i, j - 1), v_border));
                }
                if j + 1 < self.pc {
                    sends.push((idx(i, j + 1), v_border));
                }
                placements.push(SpmdPlacement {
                    host: self.hosts[idx(i, j)],
                    work_mflop,
                    resident_mb,
                    sends,
                });
            }
        }
        SpmdJob {
            placements,
            iterations: self.iterations,
            start,
        }
    }
}

/// Predicted seconds for a blocked schedule under the pool's forecast
/// information — the blocked analogue of the §5 strip cost model, with
/// the same contention-aware bandwidth sharing. This is the prediction
/// machinery the paper's user declined to build ("due to the
/// non-linearity (and hence complexity) of developing predictions for
/// non-strip data decompositions"); having it lets the agent consider
/// blocked plans too (see [`super::partition::apples_blocked_decision`]).
pub fn estimate_blocked(
    pool: &apples::InfoPool<'_>,
    sched: &BlockedSchedule,
    t: &StencilTemplate,
) -> Result<f64, apples::ApplesError> {
    let job = sched.to_spmd_job(t, SimTime::ZERO);

    // Count the schedule's own flows per link.
    let mut link_flows = LinkFlows::default();
    for p in &job.placements {
        for &(dst, _) in &p.sends {
            let to = job.placements[dst].host;
            if to != p.host {
                link_flows.add(pool.topo.route(p.host, to)?, 1);
            }
        }
    }

    let mut iter_time: f64 = 0.0;
    let mut startup: f64 = 0.0;
    for p in &job.placements {
        let eff = pool.effective_mflops(p.host)?;
        if eff <= 0.0 {
            return Err(apples::ApplesError::PlanningFailed(format!(
                "host {} predicted fully unavailable",
                p.host
            )));
        }
        let spec = &pool.topo.host(p.host)?.spec;
        let mem_factor = if p.resident_mb <= spec.mem_mb {
            1.0
        } else {
            1.0 / (1.0 + spec.paging_slowdown * (p.resident_mb / spec.mem_mb - 1.0))
        };
        let compute = p.work_mflop / (eff * mem_factor);
        let mut comm = 0.0;
        for &(dst, mb) in &p.sends {
            let to = job.placements[dst].host;
            if to == p.host {
                continue;
            }
            // Send and matching receive.
            for (a, b) in [(p.host, to), (to, p.host)] {
                let mut latency = 0.0;
                let mut bw = f64::INFINITY;
                for &l in pool.topo.route(a, b)? {
                    let link = pool.topo.link(l)?;
                    latency += link.spec.latency.as_secs_f64();
                    let share = link_flows.share(l);
                    bw = bw.min(link.spec.bandwidth_mbps * pool.link_availability(l) / share);
                }
                if bw <= 0.0 {
                    return Err(apples::ApplesError::PlanningFailed(
                        "blocked exchange crosses a dead link".into(),
                    ));
                }
                comm += latency + mb / bw;
            }
        }
        iter_time = iter_time.max(compute + comm);
        startup = startup.max(pool.topo.host(p.host)?.startup_wait().as_secs_f64());
    }
    Ok(startup + sched.iterations as f64 * iter_time)
}

/// The divisor of `p` closest to (and at most) `sqrt(p)`.
fn most_square_factor(p: usize) -> usize {
    let mut best = 1;
    let mut d = 1;
    while d * d <= p {
        if p.is_multiple_of(d) {
            best = d;
        }
        d += 1;
    }
    best
}

/// Size of part `i` when `n` is split into `k` near-equal parts.
fn near_equal_split(n: usize, k: usize, i: usize) -> usize {
    let base = n / k;
    let extra = n % k;
    if i < extra {
        base + 1
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apples::hat::jacobi2d_hat;

    fn hosts(k: usize) -> Vec<HostId> {
        (0..k).map(HostId).collect()
    }

    #[test]
    fn square_counts_make_square_meshes() {
        let b = BlockedSchedule::new(100, 1, &hosts(4));
        assert_eq!((b.pr, b.pc), (2, 2));
        let b9 = BlockedSchedule::new(100, 1, &hosts(9));
        assert_eq!((b9.pr, b9.pc), (3, 3));
    }

    #[test]
    fn prime_counts_degenerate_to_strips() {
        let b = BlockedSchedule::new(100, 1, &hosts(7));
        assert_eq!((b.pr, b.pc), (1, 7));
    }

    #[test]
    fn six_hosts_make_2x3() {
        let b = BlockedSchedule::new(100, 1, &hosts(6));
        assert_eq!((b.pr, b.pc), (2, 3));
    }

    #[test]
    fn block_sizes_cover_the_grid() {
        let b = BlockedSchedule::new(103, 1, &hosts(4));
        let total_rows: usize = (0..b.pr).map(|i| b.block_rows(i)).sum();
        let total_cols: usize = (0..b.pc).map(|j| b.block_cols(j)).sum();
        assert_eq!(total_rows, 103);
        assert_eq!(total_cols, 103);
    }

    #[test]
    fn corner_block_has_two_neighbours_interior_has_four() {
        let hat = jacobi2d_hat(90, 1);
        let t = hat.as_stencil().unwrap();
        let b = BlockedSchedule::new(90, 1, &hosts(9));
        let job = b.to_spmd_job(t, SimTime::ZERO);
        // Mesh is 3×3: corner (0,0) index 0; centre (1,1) index 4.
        assert_eq!(job.placements[0].sends.len(), 2);
        assert_eq!(job.placements[4].sends.len(), 4);
    }

    #[test]
    fn total_work_matches_the_grid() {
        let hat = jacobi2d_hat(100, 1);
        let t = hat.as_stencil().unwrap();
        let b = BlockedSchedule::new(100, 1, &hosts(4));
        let job = b.to_spmd_job(t, SimTime::ZERO);
        let total: f64 = job.placements.iter().map(|p| p.work_mflop).sum();
        assert!((total - t.total_mflop_per_iter()).abs() < 1e-9);
    }

    #[test]
    fn border_payloads_scale_with_block_edges() {
        let hat = jacobi2d_hat(100, 1);
        let t = hat.as_stencil().unwrap();
        let b = BlockedSchedule::new(100, 1, &hosts(4));
        let job = b.to_spmd_job(t, SimTime::ZERO);
        // 2×2 mesh of 50×50 blocks: every border is 50 points · 8 B.
        for p in &job.placements {
            for &(_, mb) in &p.sends {
                assert!((mb - 50.0 * 8.0 / 1e6).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs hosts")]
    fn empty_hosts_panics() {
        BlockedSchedule::new(10, 1, &[]);
    }
}
