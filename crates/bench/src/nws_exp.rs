//! §3.6 / T-NWS: prediction accuracy of the forecaster suite.
//!
//! "A schedule is only as good as the accuracy of its underlying
//! predictions." This experiment scores every predictor in the battery
//! — and the adaptive selector over all of them — on one-step-ahead
//! mean absolute error, across the kinds of availability signals the
//! testbed's load generators produce.

use metasim::load::LoadModel;
use metasim::SimTime;
use nws::forecast::{MEMBERS, NAMES};
use nws::AdaptiveSelector;

/// A named test signal.
pub struct Signal {
    /// Label for the report.
    pub name: &'static str,
    /// The generating model.
    pub model: LoadModel,
}

/// The standard battery of test signals.
pub fn standard_signals() -> Vec<Signal> {
    vec![
        Signal {
            name: "random-walk",
            model: LoadModel::RandomWalk {
                start: 0.5,
                step: 0.08,
                interval: SimTime::from_secs(5),
                floor: 0.1,
                ceil: 0.9,
            },
        },
        Signal {
            name: "markov-on-off",
            model: LoadModel::MarkovOnOff {
                idle_avail: 0.9,
                busy_avail: 0.2,
                mean_idle: SimTime::from_secs(60),
                mean_busy: SimTime::from_secs(25),
            },
        },
        Signal {
            name: "periodic",
            model: LoadModel::Periodic {
                high: 0.85,
                low: 0.25,
                half_period: SimTime::from_secs(40),
                phase: SimTime::ZERO,
            },
        },
        Signal {
            name: "constant",
            model: LoadModel::Constant(0.6),
        },
    ]
}

/// Sample a model's availability at 5-second cadence.
pub fn sample_signal(model: &LoadModel, horizon_s: u64, seed: u64) -> Vec<f64> {
    let series = model.realize(SimTime::from_secs(horizon_s), seed);
    series
        .sample(SimTime::from_secs(5), SimTime::from_secs(horizon_s))
        .into_iter()
        .map(|(_, v)| v)
        .collect()
}

/// One-step-ahead MAE of every battery member, in
/// [`nws::forecast::NAMES`] order, and of the adaptive selector on a
/// value stream (the first `skip` postcasts are ignored as warm-up).
/// A score with no postcast is infinite.
pub fn score_battery(values: &[f64], skip: usize) -> ([f64; MEMBERS], f64) {
    let mut s = AdaptiveSelector::new();
    let mut err = [0.0; MEMBERS];
    let mut selector_err = 0.0;
    let mut n = 0usize;
    for (i, &v) in values.iter().enumerate() {
        if let (Some(members), Some(p)) = (s.member_forecasts(), s.forecast()) {
            if i >= skip {
                for (e, m) in err.iter_mut().zip(members) {
                    *e += (m - v).abs();
                }
                selector_err += (p - v).abs();
                n += 1;
            }
        }
        s.update(v);
    }
    let mae = |e: f64| if n == 0 { f64::INFINITY } else { e / n as f64 };
    (err.map(mae), mae(selector_err))
}

/// Accuracy table: per signal, the MAE of every suite member plus the
/// adaptive selector (last entry, named `"adaptive-selector"`).
pub struct AccuracyRow {
    /// The signal scored.
    pub signal: &'static str,
    /// `(predictor name, MAE)` pairs; the selector comes last.
    pub scores: Vec<(String, f64)>,
}

/// Run the accuracy experiment over the standard signals.
pub fn run(horizon_s: u64, seed: u64) -> Vec<AccuracyRow> {
    const SKIP: usize = 64;
    standard_signals()
        .into_iter()
        .map(|sig| {
            let values = sample_signal(&sig.model, horizon_s, seed);
            let (members, selector) = score_battery(&values, SKIP);
            let mut scores: Vec<(String, f64)> = NAMES
                .iter()
                .zip(members)
                .map(|(name, mae)| ((*name).into(), mae))
                .collect();
            scores.push(("adaptive-selector".into(), selector));
            AccuracyRow {
                signal: sig.name,
                scores,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_is_near_the_best_individual_on_every_signal() {
        for row in run(30_000, 17) {
            let best_individual = row.scores[..row.scores.len() - 1]
                .iter()
                .map(|&(_, m)| m)
                .fold(f64::INFINITY, f64::min);
            let selector = row.scores.last().unwrap().1;
            assert!(
                selector <= best_individual * 1.5 + 1e-9,
                "{}: selector {selector} vs best individual {best_individual}",
                row.signal
            );
        }
    }

    #[test]
    fn constant_signal_is_trivially_predictable() {
        let rows = run(10_000, 3);
        let constant = rows.iter().find(|r| r.signal == "constant").unwrap();
        let selector = constant.scores.last().unwrap().1;
        assert!(selector < 1e-9);
    }

    #[test]
    fn scoring_handles_short_streams() {
        // No postcast is possible on one sample.
        let (members, selector) = score_battery(&[0.5], 0);
        assert!(members.iter().all(|m| m.is_infinite()));
        assert!(selector.is_infinite());
    }
}
