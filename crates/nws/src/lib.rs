#![warn(missing_docs)]

//! # nws — a Network Weather Service
//!
//! The AppLeS paper (§4.1) feeds its Information Pool from the Network
//! Weather Service: a facility that *senses* the current availability of
//! CPUs and network links and produces *short-term forecasts* of the
//! availability an application will actually experience in the time
//! frame it is scheduled (§3.2, §3.6).
//!
//! This crate reproduces the NWS design:
//!
//! * [`sensor`] — CPU and link sensors that periodically sample a
//!   [`metasim`] system (seeing only the past, never the future),
//! * [`forecast`] — a battery of cheap predictors over one shared
//!   window of each stream: last value, running mean, sliding-window
//!   mean/median, exponential smoothing, an adaptive-window mean, an
//!   autoregressive model, a trimmed mean and a linear trend,
//! * [`selector::AdaptiveSelector`] — NWS's key idea: run every
//!   predictor in parallel, track each one's *postcast* error on the
//!   measurements as they arrive, and answer forecasts with the
//!   predictor that has been most accurate so far,
//! * [`service::WeatherService`] — the facade the scheduler queries.
//!
//! The paper's §3.6 warns that "a schedule is only as good as the
//! accuracy of its underlying predictions"; the `apples` crate's
//! ablation experiments quantify exactly that using this crate.

pub mod error;
pub mod forecast;
pub mod selector;
pub mod sensor;
pub mod service;

pub use error::{mae, mean_error, rmse};
pub use selector::AdaptiveSelector;
pub use sensor::{CpuSensor, LinkSensor, Sensor};
pub use service::{ResourceKey, WeatherService, WeatherServiceConfig};
