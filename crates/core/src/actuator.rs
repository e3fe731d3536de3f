//! The Actuator (§4.1): implement the chosen schedule on the target
//! resource-management system.
//!
//! In the paper the Actuator drove KeLP over the real testbed; here it
//! lowers the schedule onto [`metasim`]'s executors and runs them. The
//! report it returns carries the realized (simulated) timings — the
//! ground truth the Performance Estimator's predictions are compared
//! against.

use crate::error::ApplesError;
use crate::hat::Hat;
use crate::schedule::{FarmSchedule, Schedule};
use metasim::exec::{simulate_pipeline, simulate_spmd, PipelineOutcome, SpmdOutcome};
use metasim::net::{simulate_transfers, TransferReq};
use metasim::simtrace::{EventSink, TraceEvent};
use metasim::{HostId, SimTime, Topology};

/// Realized outcome of a task-farm actuation.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmOutcome {
    /// Time the last result arrived at the result home.
    pub finish: SimTime,
    /// Per-assignment completion times, in assignment order.
    pub host_done: Vec<(HostId, SimTime)>,
}

/// Executor-specific detail of an actuation.
#[derive(Debug, Clone, PartialEq)]
pub enum ActuationDetail {
    /// Bulk-synchronous SPMD outcome.
    Spmd(SpmdOutcome),
    /// Pipeline outcome.
    Pipeline(PipelineOutcome),
    /// Task-farm outcome.
    Farm(FarmOutcome),
}

/// What actually happened when the schedule ran.
#[derive(Debug, Clone, PartialEq)]
pub struct ActuationReport {
    /// Completion time.
    pub finish: SimTime,
    /// Wall-clock seconds from submission to completion.
    pub elapsed_seconds: f64,
    /// Executor-specific detail.
    pub detail: ActuationDetail,
}

/// Run `schedule` on the simulated system starting at `start`,
/// streaming the executors' compute/transfer events plus a closing
/// [`TraceEvent::Actuated`] into `sink`.
pub fn actuate(
    topo: &Topology,
    hat: &Hat,
    schedule: &Schedule,
    start: SimTime,
    sink: &mut dyn EventSink,
) -> Result<ActuationReport, ApplesError> {
    let report = match schedule {
        Schedule::Stencil(s) => {
            let t = hat.as_stencil().ok_or(ApplesError::TemplateMismatch {
                expected: "iterative-stencil",
                found: hat.class_name(),
            })?;
            s.validate()?;
            let job = s.to_spmd_job(t, start);
            let out = simulate_spmd(topo, &job, sink)?;
            ActuationReport {
                finish: out.finish,
                elapsed_seconds: out.makespan(start).as_secs_f64(),
                detail: ActuationDetail::Spmd(out),
            }
        }
        Schedule::Pipeline(p) => {
            let t = hat.as_pipeline().ok_or(ApplesError::TemplateMismatch {
                expected: "pipeline",
                found: hat.class_name(),
            })?;
            let pname = topo.host(p.producer)?.spec.name.clone();
            let cname = topo.host(p.consumer)?.spec.name.clone();
            let job = p.to_pipeline_job(t, &pname, &cname, start)?;
            let out = simulate_pipeline(topo, &job)?;
            ActuationReport {
                finish: out.finish,
                elapsed_seconds: out.makespan(start).as_secs_f64(),
                detail: ActuationDetail::Pipeline(out),
            }
        }
        Schedule::Farm(f) => actuate_farm(topo, hat, f, start, sink)?,
    };
    if sink.enabled() {
        sink.record(TraceEvent::Actuated {
            at: start,
            finish: report.finish,
            elapsed_seconds: report.elapsed_seconds,
        });
    }
    Ok(report)
}

/// Task-farm execution: ship each host its input slice (all pulls
/// contend on the network together), compute, ship results back.
fn actuate_farm(
    topo: &Topology,
    hat: &Hat,
    sched: &FarmSchedule,
    start: SimTime,
    sink: &mut dyn EventSink,
) -> Result<ActuationReport, ApplesError> {
    let t = hat.as_task_farm().ok_or(ApplesError::TemplateMismatch {
        expected: "task-farm",
        found: hat.class_name(),
    })?;
    sched.validate(t)?;

    // Phase 1: distribute input data.
    let pulls: Vec<TransferReq> = sched
        .assignments
        .iter()
        .enumerate()
        .map(|(i, &(host, events))| TransferReq {
            from: sched.data_home,
            to: host,
            mb: events as f64 * t.mb_per_event,
            start,
            tag: i,
        })
        .collect();
    let delivered = simulate_transfers(topo, &pulls, sink)?;

    // Phase 2: compute; phase 3: return results.
    let mut pushes = Vec::with_capacity(sched.assignments.len());
    for (i, &(host, events)) in sched.assignments.iter().enumerate() {
        let h = topo.host(host)?;
        let compute_start = delivered[i].delivered + h.startup_wait();
        let resident = events as f64 * t.mb_per_event;
        let work = events as f64 * t.mflop_per_event;
        let done = h.compute_finish_checked(compute_start, work, resident)?;
        if sink.enabled() {
            sink.record(TraceEvent::ComputeStart {
                host,
                at: compute_start,
                work_mflop: work,
            });
            sink.record(TraceEvent::ComputeFinish {
                host,
                at: done,
                elapsed_seconds: done.saturating_sub(compute_start).as_secs_f64(),
            });
        }
        pushes.push(TransferReq {
            from: host,
            to: sched.result_home,
            mb: events as f64 * t.result_mb_per_event,
            start: done,
            tag: i,
        });
    }
    let results = simulate_transfers(topo, &pushes, sink)?;

    let mut host_done = Vec::with_capacity(results.len());
    let mut finish = start;
    for (r, &(host, _)) in results.iter().zip(&sched.assignments) {
        host_done.push((host, r.delivered));
        finish = finish.max(r.delivered);
    }
    Ok(ActuationReport {
        finish,
        elapsed_seconds: finish.saturating_sub(start).as_secs_f64(),
        detail: ActuationDetail::Farm(FarmOutcome { finish, host_done }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hat::{jacobi2d_hat, ArchEfficiency, Hat, PipelineTemplate, TaskFarmTemplate};
    use crate::schedule::{PipelineSchedule, StencilPart, StencilSchedule};
    use metasim::host::HostSpec;
    use metasim::net::{LinkSpec, TopologyBuilder};
    use metasim::simtrace::{NoopSink, VecSink};

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    fn topo2() -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::dedicated("a", 10.0, 4096.0, seg));
        b.add_host(HostSpec::dedicated("b", 10.0, 4096.0, seg));
        b.instantiate(s(1e6), 0).unwrap()
    }

    #[test]
    fn stencil_actuation_runs_the_simulator() {
        let topo = topo2();
        let hat = jacobi2d_hat(1000, 10);
        let sched = Schedule::Stencil(StencilSchedule {
            n: 1000,
            iterations: 10,
            parts: vec![StencilPart {
                host: HostId(0),
                rows: 1000,
            }],
        });
        let rep = actuate(&topo, &hat, &sched, SimTime::ZERO, &mut NoopSink).unwrap();
        // 5 Mflop/iter at 10 Mflop/s × 10 iterations = 5 s.
        assert!((rep.elapsed_seconds - 5.0).abs() < 1e-6);
        assert!(matches!(rep.detail, ActuationDetail::Spmd(_)));
    }

    #[test]
    fn actuation_respects_start_time() {
        let topo = topo2();
        let hat = jacobi2d_hat(1000, 1);
        let sched = Schedule::Stencil(StencilSchedule {
            n: 1000,
            iterations: 1,
            parts: vec![StencilPart {
                host: HostId(0),
                rows: 1000,
            }],
        });
        let rep = actuate(&topo, &hat, &sched, s(100.0), &mut NoopSink).unwrap();
        assert!((rep.finish.as_secs_f64() - 100.5).abs() < 1e-6);
        assert!((rep.elapsed_seconds - 0.5).abs() < 1e-6);
    }

    #[test]
    fn mismatched_template_is_rejected() {
        let topo = topo2();
        let hat = jacobi2d_hat(10, 1);
        let farm = Schedule::Farm(FarmSchedule {
            data_home: HostId(0),
            result_home: HostId(0),
            assignments: vec![(HostId(0), 1)],
        });
        assert!(matches!(
            actuate(&topo, &hat, &farm, SimTime::ZERO, &mut NoopSink),
            Err(ApplesError::TemplateMismatch { .. })
        ));
    }

    #[test]
    fn farm_actuation_moves_data_then_computes() {
        let topo = topo2();
        let hat = Hat::task_farm(
            "farm",
            TaskFarmTemplate {
                events: 100,
                mflop_per_event: 1.0,
                mb_per_event: 0.1,
                result_mb_per_event: 0.01,
            },
        );
        let sched = Schedule::Farm(FarmSchedule {
            data_home: HostId(0),
            result_home: HostId(0),
            assignments: vec![(HostId(1), 100)],
        });
        let rep = actuate(&topo, &hat, &sched, SimTime::ZERO, &mut NoopSink).unwrap();
        // Pull 10 MB at 10 MB/s = 1 s; compute 100 Mflop at 10 Mflop/s
        // = 10 s; push 1 MB = 0.1 s. Total 11.1 s.
        assert!(
            (rep.elapsed_seconds - 11.1).abs() < 1e-6,
            "got {}",
            rep.elapsed_seconds
        );
        match rep.detail {
            ActuationDetail::Farm(f) => assert_eq!(f.host_done.len(), 1),
            other => panic!("unexpected detail {other:?}"),
        }
    }

    #[test]
    fn farm_local_assignment_skips_the_network() {
        let topo = topo2();
        let hat = Hat::task_farm(
            "farm",
            TaskFarmTemplate {
                events: 100,
                mflop_per_event: 1.0,
                mb_per_event: 0.1,
                result_mb_per_event: 0.01,
            },
        );
        let sched = Schedule::Farm(FarmSchedule {
            data_home: HostId(0),
            result_home: HostId(0),
            assignments: vec![(HostId(0), 100)],
        });
        let rep = actuate(&topo, &hat, &sched, SimTime::ZERO, &mut NoopSink).unwrap();
        // Compute only: 10 s.
        assert!((rep.elapsed_seconds - 10.0).abs() < 1e-6);
    }

    #[test]
    fn the_sink_never_changes_the_outcome() {
        let topo = topo2();
        let stencil = (
            jacobi2d_hat(1000, 4),
            Schedule::Stencil(StencilSchedule {
                n: 1000,
                iterations: 4,
                parts: vec![
                    StencilPart {
                        host: HostId(0),
                        rows: 600,
                    },
                    StencilPart {
                        host: HostId(1),
                        rows: 400,
                    },
                ],
            }),
        );
        let pipeline = (
            Hat::pipeline(
                "pipe",
                PipelineTemplate {
                    total_units: 40,
                    producer_mflop_per_unit: 2.0,
                    consumer_mflop_per_unit: 3.0,
                    mb_per_unit: 0.5,
                    producer_resident_mb: 10.0,
                    consumer_base_mb: 10.0,
                    consumer_mb_per_buffered_unit: 0.1,
                    convert_mflop_per_message: 0.5,
                    producer_efficiency: ArchEfficiency::default(),
                    consumer_efficiency: ArchEfficiency::default(),
                },
            ),
            Schedule::Pipeline(PipelineSchedule {
                producer: HostId(0),
                consumer: HostId(1),
                unit_size: 5,
                depth: 2,
            }),
        );
        let farm = (
            Hat::task_farm(
                "farm",
                TaskFarmTemplate {
                    events: 100,
                    mflop_per_event: 1.0,
                    mb_per_event: 0.1,
                    result_mb_per_event: 0.01,
                },
            ),
            Schedule::Farm(FarmSchedule {
                data_home: HostId(0),
                result_home: HostId(0),
                assignments: vec![(HostId(0), 60), (HostId(1), 40)],
            }),
        );
        for (hat, sched) in [stencil, pipeline, farm] {
            let plain = actuate(&topo, &hat, &sched, s(3.0), &mut NoopSink).unwrap();
            let mut sink = VecSink::new();
            let traced = actuate(&topo, &hat, &sched, s(3.0), &mut sink).unwrap();
            assert_eq!(plain, traced, "{}", hat.class_name());
            match sink.events.last() {
                Some(TraceEvent::Actuated { at, finish, .. }) => {
                    assert_eq!((*at, *finish), (s(3.0), plain.finish));
                }
                other => panic!("{}: trace ends in {other:?}", hat.class_name()),
            }
        }
    }
}
