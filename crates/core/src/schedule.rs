//! Schedule representations.
//!
//! A [`Schedule`] is the Planner's output and the Actuator's input: a
//! resource-dependent description of exactly which host does what. The
//! three variants mirror the HAT's application classes.

use crate::error::ApplesError;
use crate::hat::{PipelineTemplate, StencilTemplate, TaskFarmTemplate};
use metasim::exec::{PipelineJob, SpmdJob, SpmdPlacement};
use metasim::{HostId, SimTime};

/// One strip of a stencil decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilPart {
    /// Host executing the strip.
    pub host: HostId,
    /// Number of grid rows assigned.
    pub rows: usize,
}

/// A strip decomposition of an `n × n` stencil grid. Parts are in strip
/// order: part `i` exchanges borders with parts `i-1` and `i+1`.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilSchedule {
    /// Grid edge length.
    pub n: usize,
    /// Iterations to run.
    pub iterations: usize,
    /// Ordered strips.
    pub parts: Vec<StencilPart>,
}

impl StencilSchedule {
    /// Check the schedule covers the grid exactly with positive strips.
    pub fn validate(&self) -> Result<(), ApplesError> {
        if self.parts.is_empty() {
            return Err(ApplesError::Invalid("schedule has no strips".into()));
        }
        let total: usize = self.parts.iter().map(|p| p.rows).sum();
        if total != self.n {
            return Err(ApplesError::Invalid(format!(
                "strips cover {total} rows of an n={} grid",
                self.n
            )));
        }
        if self.parts.iter().any(|p| p.rows == 0) {
            return Err(ApplesError::Invalid("zero-row strip".into()));
        }
        Ok(())
    }

    /// Hosts used, in strip order.
    pub fn hosts(&self) -> Vec<HostId> {
        self.parts.iter().map(|p| p.host).collect()
    }

    /// The fraction of the grid assigned to each strip.
    pub fn fractions(&self) -> Vec<f64> {
        self.parts
            .iter()
            .map(|p| p.rows as f64 / self.n as f64)
            .collect()
    }

    /// Lower the schedule to a simulable SPMD job: each strip computes
    /// its rows and exchanges one border row with each neighbour per
    /// iteration.
    pub fn to_spmd_job(&self, t: &StencilTemplate, start: SimTime) -> SpmdJob {
        let k = self.parts.len();
        let border = t.border_mb();
        let placements = self
            .parts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut sends = Vec::new();
                if i > 0 {
                    sends.push((i - 1, border));
                }
                if i + 1 < k {
                    sends.push((i + 1, border));
                }
                SpmdPlacement {
                    host: p.host,
                    work_mflop: t.strip_mflop_per_iter(p.rows),
                    resident_mb: t.strip_resident_mb(p.rows),
                    sends,
                }
            })
            .collect();
        SpmdJob {
            placements,
            iterations: self.iterations,
            start,
        }
    }
}

/// A pipeline schedule: which host produces, which consumes, and the
/// batching granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSchedule {
    /// Host running the producer task (LHSF).
    pub producer: HostId,
    /// Host running the consumer task (Log-D/ASY).
    pub consumer: HostId,
    /// Work units batched per pipeline message (the paper's "pipeline
    /// size" — 5 to 20 surface functions per subdomain in 3D-REACT).
    pub unit_size: usize,
    /// Pipeline depth: batches in flight at once.
    pub depth: usize,
}

impl PipelineSchedule {
    /// Lower to a simulable pipeline job. Producer/consumer efficiency
    /// is applied by *inflating the per-unit work* on the assigned
    /// hosts, and per-message conversion overhead is charged to the
    /// consumer.
    pub fn to_pipeline_job(
        &self,
        t: &PipelineTemplate,
        producer_name: &str,
        consumer_name: &str,
        start: SimTime,
    ) -> Result<PipelineJob, ApplesError> {
        if self.unit_size == 0 {
            return Err(ApplesError::Invalid(
                "pipeline unit size must be ≥ 1".into(),
            ));
        }
        if self.depth == 0 {
            return Err(ApplesError::Invalid("pipeline depth must be ≥ 1".into()));
        }
        let batches = t.total_units.div_ceil(self.unit_size);
        let peff = t.producer_efficiency.for_host(producer_name).max(1e-9);
        let ceff = t.consumer_efficiency.for_host(consumer_name).max(1e-9);
        let units = self.unit_size as f64;
        Ok(PipelineJob {
            producer: self.producer,
            consumer: self.consumer,
            n_units: batches,
            producer_mflop_per_unit: t.producer_mflop_per_unit * units / peff,
            consumer_mflop_per_unit: (t.consumer_mflop_per_unit * units
                + t.convert_mflop_per_message)
                / ceff,
            mb_per_unit: t.mb_per_unit * units,
            producer_resident_mb: t.producer_resident_mb,
            consumer_resident_mb: t.consumer_base_mb
                + t.consumer_mb_per_buffered_unit * units * self.depth as f64,
            max_in_flight: self.depth,
            start,
        })
    }
}

/// A task-farm schedule: events per host, plus where the data lives.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmSchedule {
    /// Host holding the input data.
    pub data_home: HostId,
    /// Host collecting the aggregated results.
    pub result_home: HostId,
    /// `(host, events assigned)` pairs.
    pub assignments: Vec<(HostId, u64)>,
}

impl FarmSchedule {
    /// Check the assignments cover the template's events exactly.
    pub fn validate(&self, t: &TaskFarmTemplate) -> Result<(), ApplesError> {
        let total: u64 = self.assignments.iter().map(|&(_, e)| e).sum();
        if total != t.events {
            return Err(ApplesError::Invalid(format!(
                "assignments cover {total} of {} events",
                t.events
            )));
        }
        if self.assignments.iter().any(|&(_, e)| e == 0) {
            return Err(ApplesError::Invalid("zero-event assignment".into()));
        }
        Ok(())
    }
}

/// A resource-dependent schedule, ready for estimation or actuation.
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// Strip-decomposed stencil.
    Stencil(StencilSchedule),
    /// Two-task pipeline.
    Pipeline(PipelineSchedule),
    /// Independent-task farm.
    Farm(FarmSchedule),
}

impl Schedule {
    /// Hosts the schedule occupies (deduplicated, in first-use order).
    pub fn hosts(&self) -> Vec<HostId> {
        let mut out: Vec<HostId> = Vec::new();
        let mut push = |h: HostId| {
            if !out.contains(&h) {
                out.push(h);
            }
        };
        match self {
            Schedule::Stencil(s) => s.parts.iter().for_each(|p| push(p.host)),
            Schedule::Pipeline(p) => {
                push(p.producer);
                push(p.consumer);
            }
            Schedule::Farm(f) => f.assignments.iter().for_each(|&(h, _)| push(h)),
        }
        out
    }

    /// The number of hosts [`Schedule::hosts`] lists, counted without
    /// building the list.
    pub fn host_count(&self) -> usize {
        // Count each host at its first occurrence only.
        fn distinct(hosts: impl Iterator<Item = HostId> + Clone) -> usize {
            hosts
                .clone()
                .enumerate()
                .filter(|&(i, h)| !hosts.clone().take(i).any(|x| x == h))
                .count()
        }
        match self {
            Schedule::Stencil(s) => distinct(s.parts.iter().map(|p| p.host)),
            Schedule::Pipeline(p) => 1 + usize::from(p.producer != p.consumer),
            Schedule::Farm(f) => distinct(f.assignments.iter().map(|&(h, _)| h)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hat::{jacobi2d_hat, ArchEfficiency};

    fn stencil_sched() -> StencilSchedule {
        StencilSchedule {
            n: 100,
            iterations: 5,
            parts: vec![
                StencilPart {
                    host: HostId(0),
                    rows: 60,
                },
                StencilPart {
                    host: HostId(1),
                    rows: 40,
                },
            ],
        }
    }

    #[test]
    fn valid_schedule_passes() {
        assert!(stencil_sched().validate().is_ok());
    }

    #[test]
    fn row_mismatch_fails_validation() {
        let mut s = stencil_sched();
        s.parts[0].rows = 10;
        assert!(s.validate().is_err());
    }

    #[test]
    fn zero_strip_fails_validation() {
        let mut s = stencil_sched();
        s.parts[0].rows = 0;
        s.parts[1].rows = 100;
        assert!(s.validate().is_err());
    }

    #[test]
    fn empty_schedule_fails_validation() {
        let s = StencilSchedule {
            n: 10,
            iterations: 1,
            parts: vec![],
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn host_count_matches_the_deduplicated_host_list() {
        let strips = |hosts: &[usize]| {
            Schedule::Stencil(StencilSchedule {
                n: 10 * hosts.len(),
                iterations: 1,
                parts: hosts
                    .iter()
                    .map(|&h| StencilPart {
                        host: HostId(h),
                        rows: 10,
                    })
                    .collect(),
            })
        };
        let pipeline = |producer, consumer| {
            Schedule::Pipeline(PipelineSchedule {
                producer: HostId(producer),
                consumer: HostId(consumer),
                unit_size: 1,
                depth: 1,
            })
        };
        let farm = Schedule::Farm(FarmSchedule {
            data_home: HostId(0),
            result_home: HostId(0),
            assignments: vec![(HostId(2), 5), (HostId(0), 5), (HostId(2), 1)],
        });
        for s in [
            strips(&[0, 1]),
            strips(&[3, 1, 3, 3, 0, 1]),
            pipeline(0, 1),
            pipeline(4, 4),
            farm,
        ] {
            assert_eq!(s.host_count(), s.hosts().len(), "{s:?}");
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let f = stencil_sched().fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[0] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn spmd_lowering_builds_neighbour_exchanges() {
        let hat = jacobi2d_hat(100, 5);
        let t = hat.as_stencil().unwrap();
        let job = stencil_sched().to_spmd_job(t, SimTime::ZERO);
        assert_eq!(job.placements.len(), 2);
        assert_eq!(job.iterations, 5);
        // Worker 0 sends only to worker 1, and vice versa.
        assert_eq!(job.placements[0].sends, vec![(1, t.border_mb())]);
        assert_eq!(job.placements[1].sends, vec![(0, t.border_mb())]);
        // Work proportional to rows.
        assert!((job.placements[0].work_mflop / job.placements[1].work_mflop - 1.5).abs() < 1e-9);
    }

    #[test]
    fn interior_strip_has_two_neighbours() {
        let hat = jacobi2d_hat(90, 1);
        let t = hat.as_stencil().unwrap();
        let s = StencilSchedule {
            n: 90,
            iterations: 1,
            parts: (0..3)
                .map(|i| StencilPart {
                    host: HostId(i),
                    rows: 30,
                })
                .collect(),
        };
        let job = s.to_spmd_job(t, SimTime::ZERO);
        assert_eq!(job.placements[1].sends.len(), 2);
        assert_eq!(job.placements[0].sends.len(), 1);
        assert_eq!(job.placements[2].sends.len(), 1);
    }

    fn pipeline_template() -> PipelineTemplate {
        PipelineTemplate {
            total_units: 100,
            producer_mflop_per_unit: 10.0,
            consumer_mflop_per_unit: 20.0,
            mb_per_unit: 0.5,
            producer_resident_mb: 50.0,
            consumer_base_mb: 30.0,
            consumer_mb_per_buffered_unit: 1.0,
            convert_mflop_per_message: 2.0,
            producer_efficiency: ArchEfficiency {
                rules: vec![("cray".into(), 1.0)],
                default_efficiency: 0.5,
            },
            consumer_efficiency: ArchEfficiency::default(),
        }
    }

    #[test]
    fn pipeline_lowering_batches_units() {
        let t = pipeline_template();
        let s = PipelineSchedule {
            producer: HostId(0),
            consumer: HostId(1),
            unit_size: 10,
            depth: 3,
        };
        let job = s
            .to_pipeline_job(&t, "sdsc-cray", "paragon", SimTime::ZERO)
            .unwrap();
        assert_eq!(job.n_units, 10); // 100 / 10
                                     // Producer on the cray: efficiency 1.0 ⇒ 10 units * 10 Mflop.
        assert!((job.producer_mflop_per_unit - 100.0).abs() < 1e-9);
        // Consumer batch: 10 * 20 + 2 conversion = 202 Mflop.
        assert!((job.consumer_mflop_per_unit - 202.0).abs() < 1e-9);
        assert!((job.mb_per_unit - 5.0).abs() < 1e-12);
        // Consumer resident: 30 base + 1.0 * 10 * 3 buffered.
        assert!((job.consumer_resident_mb - 60.0).abs() < 1e-9);
    }

    #[test]
    fn pipeline_efficiency_inflates_work_off_arch() {
        let t = pipeline_template();
        let s = PipelineSchedule {
            producer: HostId(0),
            consumer: HostId(1),
            unit_size: 10,
            depth: 1,
        };
        let job = s
            .to_pipeline_job(&t, "some-workstation", "x", SimTime::ZERO)
            .unwrap();
        // Efficiency 0.5 doubles the producer's per-unit work.
        assert!((job.producer_mflop_per_unit - 200.0).abs() < 1e-9);
    }

    #[test]
    fn pipeline_lowering_rejects_degenerate_params() {
        let t = pipeline_template();
        let mut s = PipelineSchedule {
            producer: HostId(0),
            consumer: HostId(1),
            unit_size: 0,
            depth: 1,
        };
        assert!(s.to_pipeline_job(&t, "a", "b", SimTime::ZERO).is_err());
        s.unit_size = 5;
        s.depth = 0;
        assert!(s.to_pipeline_job(&t, "a", "b", SimTime::ZERO).is_err());
    }

    #[test]
    fn ragged_final_batch_rounds_up() {
        let mut t = pipeline_template();
        t.total_units = 101;
        let s = PipelineSchedule {
            producer: HostId(0),
            consumer: HostId(1),
            unit_size: 10,
            depth: 1,
        };
        let job = s.to_pipeline_job(&t, "a", "b", SimTime::ZERO).unwrap();
        assert_eq!(job.n_units, 11);
    }

    #[test]
    fn farm_validation() {
        let t = TaskFarmTemplate {
            events: 100,
            mflop_per_event: 1.0,
            mb_per_event: 0.01,
            result_mb_per_event: 0.001,
        };
        let ok = FarmSchedule {
            data_home: HostId(0),
            result_home: HostId(0),
            assignments: vec![(HostId(1), 60), (HostId(2), 40)],
        };
        assert!(ok.validate(&t).is_ok());
        let bad = FarmSchedule {
            data_home: HostId(0),
            result_home: HostId(0),
            assignments: vec![(HostId(1), 50)],
        };
        assert!(bad.validate(&t).is_err());
    }

    #[test]
    fn schedule_hosts_dedup() {
        let s = Schedule::Stencil(stencil_sched());
        assert_eq!(s.hosts(), vec![HostId(0), HostId(1)]);
        let p = Schedule::Pipeline(PipelineSchedule {
            producer: HostId(3),
            consumer: HostId(3),
            unit_size: 1,
            depth: 1,
        });
        assert_eq!(p.hosts(), vec![HostId(3)]);
    }
}
