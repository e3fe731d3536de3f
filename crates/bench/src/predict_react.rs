//! Prediction versus reaction.
//!
//! AppLeS bets on *prediction*: allocate once, guided by forecasts.
//! The classic alternative for independent-task work is *reaction*:
//! dynamic self-scheduling from a work queue, which needs no forecasts
//! but pays a request round-trip per chunk and cannot be used at all
//! for coupled computations (a stencil's strips are not a bag of
//! tasks). This experiment stages the two on the same bag-of-events
//! job across network latencies and load volatilities, mapping out
//! where each approach wins — the quantitative version of §3.3's
//! "close" and "far" resources.

use apples::actuator::actuate;
use apples::info::InfoPool;
use apples::user::UserSpec;
use apples::Schedule;
use apples_apps::nile::{cleo_analysis_hat, plan_farm};
use metasim::exec::{simulate_workqueue, WorkQueueJob};
use metasim::host::HostSpec;
use metasim::load::LoadModel;
use metasim::net::{LinkSpec, TopologyBuilder};
use metasim::{HostId, NoopSink, SimTime, Topology};
use nws::{WeatherService, WeatherServiceConfig};

/// Load volatility of the worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Volatility {
    /// Constant per-host availabilities: forecasts are near-perfect.
    Stable,
    /// Fast Markov on/off flapping: forecasts go stale quickly.
    Volatile,
}

/// One comparison point.
#[derive(Debug, Clone)]
pub struct PredictReactRow {
    /// One-way network latency between master and workers, ms.
    pub latency_ms: u64,
    /// Worker-load volatility.
    pub volatility: Volatility,
    /// Elapsed seconds for the AppLeS-style predictive static farm.
    pub predictive_s: f64,
    /// Elapsed seconds for the reactive self-scheduling work queue.
    pub reactive_s: f64,
}

fn build_topo(latency_ms: u64, volatility: Volatility, seed: u64) -> Topology {
    let mut b = TopologyBuilder::new();
    let seg = b.add_segment(LinkSpec::dedicated(
        "seg",
        12.5,
        SimTime::from_millis(latency_ms),
    ));
    b.add_host(HostSpec::dedicated("master", 25.0, 2048.0, seg));
    for i in 0..4 {
        let load = match volatility {
            Volatility::Stable => LoadModel::Constant([0.9, 0.6, 0.4, 0.8][i]),
            Volatility::Volatile => LoadModel::MarkovOnOff {
                idle_avail: 0.95,
                busy_avail: 0.1,
                mean_idle: SimTime::from_secs(40),
                mean_busy: SimTime::from_secs(40),
            },
        };
        b.add_host(HostSpec::workstation(
            &format!("w{i}"),
            30.0,
            512.0,
            seg,
            load,
        ));
    }
    b.instantiate(SimTime::from_secs(1_000_000), seed)
        .expect("topo")
}

/// Run one comparison point. `events` are analyzed either as an
/// AppLeS-planned static farm (forecast allocation, NWS-warmed) or as
/// a `chunks`-chunk self-scheduled work queue with identical totals.
pub fn run_point(
    latency_ms: u64,
    volatility: Volatility,
    events: u64,
    chunks: usize,
    seed: u64,
) -> PredictReactRow {
    let topo = build_topo(latency_ms, volatility, seed);
    let warmup = SimTime::from_secs(600);
    let workers: Vec<HostId> = (1..=4).map(HostId).collect();
    let master = HostId(0);
    let hat = cleo_analysis_hat(events);
    let user = UserSpec::default();
    let t = hat.as_task_farm().expect("farm");

    // Predictive: NWS-informed one-shot allocation.
    let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
    ws.advance(&topo, warmup);
    let pool = InfoPool::with_nws(&topo, &ws, &hat, &user, warmup);
    let farm = plan_farm(&pool, &workers, master, master).expect("farm plan");
    let predictive = actuate(&topo, &hat, &Schedule::Farm(farm), warmup, &mut NoopSink)
        .expect("farm run")
        .elapsed_seconds;

    // Reactive: the same bytes and flops as a self-scheduled bag.
    let per_chunk_events = events as f64 / chunks as f64;
    let job = WorkQueueJob {
        master,
        workers: workers.clone(),
        n_chunks: chunks,
        mflop_per_chunk: per_chunk_events * t.mflop_per_event,
        mb_per_chunk: per_chunk_events * t.mb_per_event,
        result_mb_per_chunk: per_chunk_events * t.result_mb_per_event,
        resident_mb: per_chunk_events * t.mb_per_event,
        start: warmup,
    };
    let reactive = simulate_workqueue(&topo, &job)
        .expect("workqueue run")
        .makespan(warmup)
        .as_secs_f64();

    PredictReactRow {
        latency_ms,
        volatility,
        predictive_s: predictive,
        reactive_s: reactive,
    }
}

/// T-PRED's full sweep (`apples-cli reproduce T-PRED`).
pub fn run_sweep(events: u64, chunks: usize, seed: u64) -> Vec<PredictReactRow> {
    let mut rows = Vec::new();
    for &latency in &[1u64, 50, 300] {
        for &vol in &[Volatility::Stable, Volatility::Volatile] {
            rows.push(run_point(latency, vol, events, chunks, seed));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaction_wins_under_volatile_load_on_a_lan() {
        let r = run_point(1, Volatility::Volatile, 100_000, 200, 11);
        assert!(
            r.reactive_s < r.predictive_s,
            "reactive {:.1}s vs predictive {:.1}s",
            r.reactive_s,
            r.predictive_s
        );
    }

    #[test]
    fn prediction_wins_when_round_trips_are_dear_and_load_is_stable() {
        let r = run_point(300, Volatility::Stable, 100_000, 200, 11);
        assert!(
            r.predictive_s < r.reactive_s,
            "predictive {:.1}s vs reactive {:.1}s",
            r.predictive_s,
            r.reactive_s
        );
    }

    #[test]
    fn sweep_covers_all_points() {
        let rows = run_sweep(20_000, 50, 3);
        assert_eq!(rows.len(), 6);
        for r in rows {
            assert!(r.predictive_s > 0.0 && r.reactive_s > 0.0);
        }
    }
}
