#![warn(missing_docs)]

//! # apples-bench — the experiment harness
//!
//! One module per paper artifact. Each experiment has one front door,
//! an `apples-cli` subcommand: either its own (`react`, `race`, ...)
//! or `reproduce ID`, which renders an entry of [`reproduce::REGISTRY`].
//! See DESIGN.md for the experiment ↔ module index and EXPERIMENTS.md
//! for recorded results.

pub mod ablation;
pub mod estimator_exp;
pub mod event_engine;
pub mod fault_exp;
pub mod fig5;
pub mod fig6;
pub mod fixed_time;
pub mod grid_exp;
pub mod multi_agent;
pub mod nile_exp;
pub mod nws_exp;
pub mod predict_react;
pub mod react_exp;
pub mod regime_race;
pub mod reproduce;
pub mod table;
