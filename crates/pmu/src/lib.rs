//! Power-management-unit (PMU) simulation substrate.
//!
//! FlexWatts's mode predictor runs inside the PMU firmware of a client
//! processor and consumes inputs the PMU already tracks for its other
//! algorithms (§6 of the paper): the configured TDP, the application ratio
//! estimated by per-domain activity sensors, the workload type derived
//! from domain power states, and the current package power state. This
//! crate models those PMU facilities:
//!
//! * [`sensors`] — weighted-event activity sensors with calibration error
//!   and quantisation, the runtime AR proxy;
//! * [`wltype`] — workload-type classification from domain activity;
//! * [`budget`] — the power-budget manager that splits the TDP between
//!   compute domains and tracks a running average;
//! * [`cstate`] — the package C-state driver whose C6 flow FlexWatts
//!   reuses for voltage-noise-free mode switching;
//! * [`tables`] — firmware curve tables (the storage format of the
//!   predictor's ETEE curve sets, footnote 11).
//!
//! # Examples
//!
//! ```
//! use pdn_pmu::sensors::ActivitySensorBank;
//! use pdn_units::ApplicationRatio;
//!
//! let bank = ActivitySensorBank::new(7);
//! let truth = ApplicationRatio::new(0.62)?;
//! let estimate = bank.estimate(pdn_proc::DomainKind::Core0, truth);
//! assert!((estimate.get() - truth.get()).abs() < 0.06);
//! # Ok::<(), pdn_units::UnitsError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod budget;
pub mod cstate;
pub mod firmware;
pub mod sensors;
pub mod tables;
pub mod wltype;

#[cfg(test)]
mod golden;

pub use budget::PowerBudgetManager;
pub use cstate::CStateDriver;
pub use firmware::{FirmwareError, FirmwareImage};
pub use sensors::ActivitySensorBank;
pub use tables::EteeCurveSet;
pub use wltype::classify_workload;
