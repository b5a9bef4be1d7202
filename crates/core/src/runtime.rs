//! The FlexWatts runtime: the closed loop of sensors → predictor → mode
//! switch → power delivery, simulated over workload traces.
//!
//! Every evaluation interval (default 10 ms, §6) the runtime gathers the
//! PMU's estimates (activity-sensor AR, workload type from domain states,
//! package power state, configured TDP), asks the predictor for the best
//! mode, and — when the answer changes — executes the package-C6 switch
//! flow, paying its ≈ 94 µs of enforced idleness. Platform energy is
//! integrated through PDNspot in whichever mode is active.

use crate::predictor::{ModePredictor, PredictorInputs};
use crate::protection::MaxCurrentProtection;
use crate::switchflow::{ModeSwitchFlow, SwitchTransition};
use crate::topology::{vin_rail_current, FlexWattsPdn, PdnMode};
use pdn_pmu::{classify_workload, ActivitySensorBank, CStateDriver};
use pdn_proc::{DomainKind, DomainTable, PackageCState, SocSpec};
use pdn_units::{Amps, ApplicationRatio, Seconds, Volts, Watts};
use pdn_workload::{Phase, Trace, TraceInterval, WorkloadType};
use pdnspot::batch::{par_map, Workers};
use pdnspot::{ModelParams, Pdn, PdnError, PdnEvaluation, RowStage, Scenario};
use std::collections::BTreeMap;

/// Configuration of a runtime simulation.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Seed for the activity-sensor calibration.
    pub sensor_seed: u64,
    /// The mode the platform boots in.
    pub initial_mode: PdnMode,
    /// Whether the §6 maximum-current protection may override LDO-Mode
    /// decisions (on by default; the shared V_IN rail is sized assuming
    /// it).
    pub max_current_protection: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            sensor_seed: 0x0F1E_2D3C,
            initial_mode: PdnMode::IvrMode,
            max_current_protection: true,
        }
    }
}

/// The outcome of simulating a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Total simulated time (including switch idleness).
    pub total_time: Seconds,
    /// Total energy drawn from the battery/PSU, in joules.
    pub energy_joules: f64,
    /// Energy an oracle that always runs the better mode (with free
    /// switches) would have drawn — the predictor-quality baseline.
    pub oracle_energy_joules: f64,
    /// Every executed mode switch.
    pub switches: Vec<SwitchTransition>,
    /// Time spent in each mode.
    pub time_in_mode: BTreeMap<PdnMode, Seconds>,
    /// Number of predictor evaluations performed.
    pub predictor_evaluations: u64,
    /// Fraction of predictor decisions that matched the oracle's mode.
    pub prediction_accuracy: f64,
    /// Number of times the maximum-current protection overrode an
    /// LDO-Mode decision.
    pub protection_overrides: u64,
    /// Mode-switch attempts that failed (always 0 on a clean run; faulted
    /// runs populate it so [`energy_efficiency_vs_oracle`] can be
    /// compared between clean and faulted campaigns).
    ///
    /// [`energy_efficiency_vs_oracle`]: Self::energy_efficiency_vs_oracle
    pub switch_failures: u64,
    /// Retry attempts spent recovering failed mode switches (0 on a clean
    /// run).
    pub switch_retries: u64,
}

impl RuntimeReport {
    /// Average platform power over the trace.
    pub fn average_power(&self) -> Watts {
        if self.total_time.get() <= 0.0 {
            return Watts::ZERO;
        }
        Watts::new(self.energy_joules / self.total_time.get())
    }

    /// Total time lost to mode-switch flows.
    pub fn switch_overhead(&self) -> Seconds {
        self.switches.iter().map(SwitchTransition::total).sum()
    }

    /// How close the runtime's energy came to the oracle's
    /// (1.0 = perfect; the switch overhead and mispredictions cost the
    /// difference).
    pub fn energy_efficiency_vs_oracle(&self) -> f64 {
        if self.energy_joules <= 0.0 {
            return 1.0;
        }
        self.oracle_energy_joules / self.energy_joules
    }
}

/// Intervals per prepare task. A slab is the unit of the prepare fan-out
/// and of row grouping: its active intervals are built and evaluated as
/// one row per workload type.
const PREPARE_SLAB: usize = 256;

/// The pure (order-insensitive) part of one trace interval: both modes'
/// input powers, the LDO-Mode `V_IN` rail current (what the
/// maximum-current protection watches) and rail level (what a mode
/// switch slews to), and the PMU's domain-state workload classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PreparedInterval {
    pub(crate) power_ivr: Watts,
    pub(crate) power_ldo: Watts,
    pub(crate) vin_ldo: Amps,
    pub(crate) vin_level_ldo: Volts,
    pub(crate) estimated_type: WorkloadType,
}

/// Both modes' evaluation of one package C-state's idle scenario. Errors
/// are kept, not raised, so they surface at the interval that needs the
/// entry, exactly where a per-interval evaluation would have failed.
#[derive(Debug)]
struct IdleEntry {
    state: PackageCState,
    ivr: Result<Watts, PdnError>,
    ldo: Result<(Watts, Amps), PdnError>,
    vin_level_ldo: Volts,
}

/// The `V_IN` level LDO-Mode runs a scenario at: the highest powered
/// wide-range domain voltage.
fn ldo_vin_level(scenario: &Scenario) -> Volts {
    scenario.max_voltage_among(&DomainKind::WIDE_RANGE).unwrap_or(Volts::new(0.85))
}

/// Folds one scenario's two mode evaluations into a prepared interval.
/// An IVR-Mode error wins over an LDO-Mode one.
fn prepared(
    scenario: &Scenario,
    ivr: Result<PdnEvaluation, PdnError>,
    ldo: Result<PdnEvaluation, PdnError>,
    estimated_type: WorkloadType,
) -> Result<PreparedInterval, PdnError> {
    let power_ivr = ivr?.input_power;
    let ldo = ldo?;
    Ok(PreparedInterval {
        power_ivr,
        power_ldo: ldo.input_power,
        vin_ldo: vin_rail_current(&ldo),
        vin_level_ldo: ldo_vin_level(scenario),
        estimated_type,
    })
}

/// The FlexWatts runtime simulator.
#[derive(Debug)]
pub struct FlexWattsRuntime {
    pub(crate) soc: SocSpec,
    ivr_mode: FlexWattsPdn,
    ldo_mode: FlexWattsPdn,
    pub(crate) predictor: ModePredictor,
    sensors: ActivitySensorBank,
    pub(crate) switch_flow: ModeSwitchFlow,
    pub(crate) protection: MaxCurrentProtection,
    pub(crate) config: RuntimeConfig,
    /// One entry per [`PackageCState::ALL`] state: idle intervals and
    /// mode switches (which park the package in C6) read it instead of
    /// re-evaluating.
    idle: Vec<IdleEntry>,
}

impl FlexWattsRuntime {
    /// Creates a runtime for one SoC.
    pub fn new(
        soc: SocSpec,
        params: ModelParams,
        predictor: ModePredictor,
        config: RuntimeConfig,
    ) -> Self {
        let ivr_mode = FlexWattsPdn::new(params.clone(), PdnMode::IvrMode);
        let ldo_mode = FlexWattsPdn::new(params, PdnMode::LdoMode);
        let protection = MaxCurrentProtection::from_rail_sizing(&ivr_mode, &soc)
            .expect("rail sizing of the client SoC is always feasible");
        let idle = PackageCState::ALL
            .iter()
            .map(|&state| {
                let scenario = Scenario::idle(&soc, state);
                IdleEntry {
                    state,
                    ivr: ivr_mode.evaluate(&scenario).map(|e| e.input_power),
                    ldo: ldo_mode
                        .evaluate(&scenario)
                        .map(|e| (e.input_power, vin_rail_current(&e))),
                    vin_level_ldo: ldo_vin_level(&scenario),
                }
            })
            .collect();
        Self {
            sensors: ActivitySensorBank::new(config.sensor_seed),
            switch_flow: ModeSwitchFlow::new(),
            ivr_mode,
            ldo_mode,
            protection,
            predictor,
            soc,
            config,
            idle,
        }
    }

    fn idle_entry(&self, state: PackageCState) -> &IdleEntry {
        self.idle.iter().find(|e| e.state == state).expect("every package C-state is tabulated")
    }

    /// The input power of a mode while the package sits in C6, as it does
    /// for the whole of a mode switch.
    pub(crate) fn c6_power(&self, mode: PdnMode) -> Result<Watts, PdnError> {
        let entry = self.idle_entry(PackageCState::C6);
        match mode {
            PdnMode::IvrMode => entry.ivr.clone(),
            PdnMode::LdoMode => entry.ldo.clone().map(|(power, _)| power),
        }
    }

    /// The `V_IN` level of a mode (used for switch slew accounting), given
    /// the interval's LDO-Mode level.
    pub(crate) fn vin_level(&self, mode: PdnMode, vin_level_ldo: Volts) -> Volts {
        match mode {
            PdnMode::IvrMode => self.ivr_mode.params().vin_level,
            PdnMode::LdoMode => vin_level_ldo,
        }
    }

    /// Prepares a batch of intervals, index-aligned with `intervals`.
    ///
    /// Fixed slabs of [`PREPARE_SLAB`] intervals fan out on the worker
    /// pool. Within a slab, the active intervals of each workload type
    /// form one row: one [`Scenario::active_fixed_tdp_frequency_row`]
    /// build, then both modes' [`Pdn::evaluate_row`] over one shared
    /// [`RowStage`]. Idle intervals copy the runtime's idle table. Every
    /// entry carries exactly the bits a per-interval scalar build and
    /// evaluation would produce, so the result does not depend on
    /// `workers`.
    pub(crate) fn prepare_batch(
        &self,
        intervals: &[TraceInterval],
        workers: Workers,
    ) -> Vec<Result<PreparedInterval, PdnError>> {
        let slabs: Vec<&[TraceInterval]> = intervals.chunks(PREPARE_SLAB).collect();
        par_map(&slabs, workers, |_, slab| self.prepare_slab(slab)).into_iter().flatten().collect()
    }

    fn prepare_slab(&self, slab: &[TraceInterval]) -> Vec<Result<PreparedInterval, PdnError>> {
        let mut out: Vec<Option<Result<PreparedInterval, PdnError>>> = vec![None; slab.len()];
        // Active intervals grouped by workload type: (type, slab indices, ARs).
        let mut rows: Vec<(WorkloadType, Vec<usize>, Vec<ApplicationRatio>)> = Vec::new();
        for (i, interval) in slab.iter().enumerate() {
            match interval.phase {
                Phase::Active { workload_type, ar } => {
                    match rows.iter_mut().find(|(wt, ..)| *wt == workload_type) {
                        Some((_, members, ars)) => {
                            members.push(i);
                            ars.push(ar);
                        }
                        None => rows.push((workload_type, vec![i], vec![ar])),
                    }
                }
                Phase::Idle(state) => out[i] = Some(self.prepare_idle(state)),
            }
        }
        for (workload_type, members, ars) in rows {
            let scenarios =
                match Scenario::active_fixed_tdp_frequency_row(&self.soc, workload_type, &ars) {
                    Ok(scenarios) => scenarios,
                    Err(e) => {
                        for &i in &members {
                            out[i] = Some(Err(e.clone()));
                        }
                        continue;
                    }
                };
            let stage = RowStage::new();
            let ivr = self.ivr_mode.evaluate_row(&scenarios, &stage);
            let ldo = self.ldo_mode.evaluate_row(&scenarios, &stage);
            for (((&i, scenario), ivr), ldo) in members.iter().zip(&scenarios).zip(ivr).zip(ldo) {
                let powered = DomainTable::from_fn(|k| scenario.load(k).powered);
                let estimated_type = classify_workload(&powered, None);
                out[i] = Some(prepared(scenario, ivr, ldo, estimated_type));
            }
        }
        out.into_iter().map(|p| p.expect("every interval of the slab is prepared")).collect()
    }

    fn prepare_idle(&self, state: PackageCState) -> Result<PreparedInterval, PdnError> {
        let entry = self.idle_entry(state);
        let power_ivr = entry.ivr.clone()?;
        let (power_ldo, vin_ldo) = entry.ldo.clone()?;
        Ok(PreparedInterval {
            power_ivr,
            power_ldo,
            vin_ldo,
            vin_level_ldo: entry.vin_level_ldo,
            estimated_type: WorkloadType::BatteryLife,
        })
    }

    /// Simulates a trace, returning the energy/switch report.
    ///
    /// Equivalent to [`run_with`](Self::run_with) on the full worker
    /// pool.
    ///
    /// # Errors
    ///
    /// Propagates PDNspot evaluation errors.
    pub fn run(&self, trace: &Trace) -> Result<RuntimeReport, PdnError> {
        self.run_with(trace, Workers::Auto)
    }

    /// Simulates a trace, batching the pure per-interval work on the
    /// batch engine's worker pool.
    ///
    /// Scenario construction and the two per-interval mode evaluations
    /// are pure, so they fan out in parallel as row computations
    /// ([`prepare_batch`](Self::prepare_batch)); the stateful pass —
    /// activity-sensor estimates (an ordered jitter stream), predictor
    /// hysteresis, and mode-switch accounting — then replays serially
    /// in trace order, which keeps the report bit-identical for any
    /// [`Workers`] choice.
    ///
    /// # Errors
    ///
    /// Propagates PDNspot evaluation errors.
    pub fn run_with(&self, trace: &Trace, workers: Workers) -> Result<RuntimeReport, PdnError> {
        let prepared: Vec<PreparedInterval> =
            self.prepare_batch(trace.intervals(), workers).into_iter().collect::<Result<_, _>>()?;

        let mut state = ReplayState::new(self);
        for (interval, &prep) in trace.intervals().iter().zip(&prepared) {
            state.step(self, &self.sensors, interval, prep)?;
        }
        Ok(state.finish())
    }

    /// A fresh activity-sensor bank calibrated with this runtime's seed:
    /// fault campaigns draw from their own sensor stream so repeated
    /// campaigns on one runtime stay bit-identical.
    pub(crate) fn fresh_sensor_bank(&self) -> ActivitySensorBank {
        ActivitySensorBank::new(self.config.sensor_seed)
    }
}

/// The serial, stateful half of a trace replay: sensor draws, predictor
/// hysteresis, protection overrides, mode switches, and energy/time
/// accounting. One implementation serves both [`FlexWattsRuntime::run_with`]
/// and the streaming checkpointed replay ([`crate::replay`]) — sharing
/// the loop is what makes a resumed streaming replay bitwise equal to an
/// in-memory run.
///
/// Every field is a plain accumulator (or restorable counter), so a
/// checkpoint that snapshots them between intervals captures the entire
/// replay state: stepping interval `k+1` after a restore performs
/// exactly the floating-point additions the uninterrupted run would.
#[derive(Debug)]
pub(crate) struct ReplayState {
    pub(crate) mode: PdnMode,
    pub(crate) energy: f64,
    pub(crate) oracle_energy: f64,
    pub(crate) switches: Vec<SwitchTransition>,
    pub(crate) time_in_mode: BTreeMap<PdnMode, Seconds>,
    pub(crate) driver: CStateDriver,
    pub(crate) evaluations: u64,
    pub(crate) correct_predictions: u64,
    pub(crate) protection_overrides: u64,
    pub(crate) total_time: Seconds,
    pub(crate) eval_interval: Seconds,
    pub(crate) since_eval: Seconds,
}

impl ReplayState {
    /// Boot state for a runtime: initial mode, zeroed ledgers, and an
    /// evaluation due at the first interval.
    pub(crate) fn new(rt: &FlexWattsRuntime) -> Self {
        let eval_interval = rt.predictor.evaluation_interval();
        Self {
            mode: rt.config.initial_mode,
            energy: 0.0,
            oracle_energy: 0.0,
            switches: Vec::new(),
            time_in_mode: PdnMode::ALL.iter().map(|&m| (m, Seconds::ZERO)).collect(),
            driver: CStateDriver::new(),
            evaluations: 0,
            correct_predictions: 0,
            protection_overrides: 0,
            total_time: Seconds::ZERO,
            eval_interval,
            since_eval: eval_interval, // evaluate at trace start
        }
    }

    /// Replays one interval: draws the PMU inputs (the sensor estimate
    /// is an ordered stream, so it happens here, not in the prepare
    /// fan-out), walks the evaluation-cadence chunks, and accumulates
    /// energy and time. Pure arithmetic on the prepared record and the
    /// runtime's idle table: no scenario build, no PDN evaluation.
    pub(crate) fn step(
        &mut self,
        rt: &FlexWattsRuntime,
        sensors: &ActivitySensorBank,
        interval: &TraceInterval,
        prep: PreparedInterval,
    ) -> Result<(), PdnError> {
        let PreparedInterval { power_ivr, power_ldo, vin_ldo, vin_level_ldo, estimated_type } =
            prep;
        let pmu_inputs = match interval.phase {
            Phase::Active { ar, .. } => PredictorInputs {
                tdp: rt.soc.tdp,
                ar: sensors.estimate(DomainKind::Core0, ar),
                workload_type: estimated_type,
                power_state: None,
            },
            Phase::Idle(state) => PredictorInputs {
                tdp: rt.soc.tdp,
                ar: interval.phase.ar(),
                workload_type: WorkloadType::BatteryLife,
                power_state: Some(state),
            },
        };

        let oracle_power = power_ivr.min(power_ldo);
        let oracle_mode = if power_ivr <= power_ldo { PdnMode::IvrMode } else { PdnMode::LdoMode };

        let mut remaining = interval.duration;
        while remaining.get() > 0.0 {
            if self.since_eval >= self.eval_interval {
                self.since_eval = Seconds::ZERO;
                self.evaluations += 1;
                let mut decided = rt.predictor.predict_with_hysteresis(pmu_inputs, self.mode);
                if rt.config.max_current_protection {
                    let (enforced, fired) = rt.protection.enforce(decided, vin_ldo);
                    if fired {
                        self.protection_overrides += 1;
                    }
                    decided = enforced;
                }
                if decided == oracle_mode {
                    self.correct_predictions += 1;
                }
                if decided != self.mode {
                    // The mode switch forces ≈ 94 µs of C6 idleness.
                    let v_from = rt.vin_level(self.mode, vin_level_ldo);
                    let v_to = rt.vin_level(decided, vin_level_ldo);
                    let transition =
                        rt.switch_flow.execute(self.mode, decided, v_from, v_to, &mut self.driver);
                    let switch_time = transition.total();
                    // During the switch the package sits in C6.
                    let c6_power = rt.c6_power(decided)?;
                    self.energy += c6_power * switch_time;
                    self.oracle_energy += c6_power * switch_time;
                    self.total_time += switch_time;
                    self.switches.push(transition);
                    self.mode = decided;
                }
            }
            let chunk = remaining.min(self.eval_interval - self.since_eval);
            let power = match self.mode {
                PdnMode::IvrMode => power_ivr,
                PdnMode::LdoMode => power_ldo,
            };
            self.energy += power * chunk;
            self.oracle_energy += oracle_power * chunk;
            *self.time_in_mode.get_mut(&self.mode).expect("all modes present") += chunk;
            self.total_time += chunk;
            self.since_eval += chunk;
            remaining -= chunk;
        }
        Ok(())
    }

    /// Seals the accumulators into a [`RuntimeReport`].
    pub(crate) fn finish(self) -> RuntimeReport {
        RuntimeReport {
            total_time: self.total_time,
            energy_joules: self.energy,
            oracle_energy_joules: self.oracle_energy,
            switches: self.switches,
            time_in_mode: self.time_in_mode,
            predictor_evaluations: self.evaluations,
            prediction_accuracy: if self.evaluations == 0 {
                1.0
            } else {
                self.correct_predictions as f64 / self.evaluations as f64
            },
            protection_overrides: self.protection_overrides,
            switch_failures: 0,
            switch_retries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_proc::client_soc;
    use pdn_workload::BatteryLifeWorkload;
    use proptest::prelude::*;

    fn predictor() -> ModePredictor {
        ModePredictor::train(
            &ModelParams::paper_defaults(),
            &[4.0, 10.0, 18.0, 25.0, 50.0],
            &[0.4, 0.6, 0.8],
        )
        .unwrap()
    }

    fn runtime(tdp: f64) -> FlexWattsRuntime {
        FlexWattsRuntime::new(
            client_soc(Watts::new(tdp)),
            ModelParams::paper_defaults(),
            predictor(),
            RuntimeConfig::default(),
        )
    }

    fn ar(v: f64) -> ApplicationRatio {
        ApplicationRatio::new(v).unwrap()
    }

    #[test]
    fn predictor_cadence_chunks_intervals_exactly() {
        let pred = predictor().with_evaluation_interval(Seconds::from_millis(10.0));
        let rt = FlexWattsRuntime::new(
            client_soc(Watts::new(4.0)),
            ModelParams::paper_defaults(),
            pred,
            RuntimeConfig::default(),
        );
        // A single 25 ms interval splits into 10 + 10 + 5 ms chunks with
        // an evaluation at the head of each.
        let trace = Trace::new(
            "cadence",
            vec![TraceInterval::active(
                Seconds::from_millis(25.0),
                WorkloadType::SingleThread,
                ar(0.6),
            )],
        );
        let report = rt.run(&trace).unwrap();
        assert_eq!(report.predictor_evaluations, 3);
        let mut expected = Seconds::from_millis(25.0);
        for t in &report.switches {
            expected += t.total();
        }
        assert_eq!(report.total_time, expected, "chunks cover the trace exactly");

        // Short intervals accumulate toward the cadence: 5 + 5 ms spans
        // one interval boundary without re-evaluating, and the next
        // interval starts exactly on the cadence.
        let trace = Trace::new(
            "accumulate",
            vec![
                TraceInterval::active(
                    Seconds::from_millis(5.0),
                    WorkloadType::SingleThread,
                    ar(0.6),
                ),
                TraceInterval::active(
                    Seconds::from_millis(5.0),
                    WorkloadType::SingleThread,
                    ar(0.6),
                ),
                TraceInterval::active(
                    Seconds::from_millis(1.0),
                    WorkloadType::SingleThread,
                    ar(0.6),
                ),
            ],
        );
        let report = rt.run(&trace).unwrap();
        assert_eq!(report.predictor_evaluations, 2, "trace start + the 10 ms mark");
    }

    #[test]
    fn low_tdp_workload_settles_into_ldo_mode() {
        let rt = runtime(4.0);
        let trace = Trace::new(
            "steady",
            vec![TraceInterval::active(
                Seconds::from_millis(100.0),
                WorkloadType::SingleThread,
                ar(0.6),
            )],
        );
        let report = rt.run(&trace).unwrap();
        // Booting in IVR-Mode, the first evaluation must switch to LDO.
        assert_eq!(report.switches.len(), 1);
        assert_eq!(report.switches[0].to, PdnMode::LdoMode);
        let ldo_time = report.time_in_mode[&PdnMode::LdoMode];
        assert!(ldo_time.get() > 0.95 * report.total_time.get());
        assert!(report.prediction_accuracy > 0.9);
    }

    #[test]
    fn high_tdp_workload_stays_in_ivr_mode() {
        let rt = runtime(50.0);
        let trace = Trace::new(
            "steady",
            vec![TraceInterval::active(
                Seconds::from_millis(100.0),
                WorkloadType::MultiThread,
                ar(0.7),
            )],
        );
        let report = rt.run(&trace).unwrap();
        assert!(report.switches.is_empty(), "no reason to leave IVR-Mode at 50 W");
        assert_eq!(report.time_in_mode[&PdnMode::IvrMode], report.total_time);
    }

    #[test]
    fn bursty_trace_switches_modes_and_pays_the_latency() {
        // At 36 W: heavy bursts prefer IVR-Mode; the low-frequency active
        // state (C0MIN, e.g. between video frames) prefers LDO-Mode.
        let rt = runtime(36.0);
        let mut intervals = Vec::new();
        for _ in 0..5 {
            intervals.push(TraceInterval::active(
                Seconds::from_millis(40.0),
                WorkloadType::MultiThread,
                ar(0.8),
            ));
            intervals.push(TraceInterval::idle(
                Seconds::from_millis(40.0),
                pdn_proc::PackageCState::C0Min,
            ));
        }
        let report = rt.run(&Trace::new("bursty", intervals)).unwrap();
        assert!(report.switches.len() >= 6, "bursts must toggle the mode");
        let overhead = report.switch_overhead();
        assert!(
            (overhead.micros() - 94.0 * report.switches.len() as f64).abs()
                < 40.0 * report.switches.len() as f64,
            "each switch costs ≈ 94 µs"
        );
        // Switch overhead is a tiny fraction of a 400 ms trace.
        assert!(overhead.get() / report.total_time.get() < 0.01);
    }

    #[test]
    fn deep_idle_is_mode_neutral_so_no_thrashing() {
        // In C2–C8 the compute rails are off and SA/IO sit on dedicated
        // board rails in *both* modes, so the predictor sees (nearly)
        // equal ETEE and the hysteresis keeps the current mode — no
        // pointless switch storm while a video idles in C8.
        let rt = runtime(36.0);
        let trace = Trace::new(
            "deep-idle",
            vec![TraceInterval::idle(Seconds::from_millis(200.0), pdn_proc::PackageCState::C8)],
        );
        let report = rt.run(&trace).unwrap();
        assert!(report.switches.len() <= 1, "C8 must not toggle modes");
    }

    #[test]
    fn video_playback_runs_close_to_the_oracle() {
        let rt = runtime(18.0);
        let trace = BatteryLifeWorkload::VideoPlayback.as_trace(30);
        let report = rt.run(&trace).unwrap();
        assert!(
            report.energy_efficiency_vs_oracle() > 0.97,
            "runtime must track the oracle: {:.4}",
            report.energy_efficiency_vs_oracle()
        );
        assert!(report.average_power().get() > 0.1 && report.average_power().get() < 2.0);
    }

    #[test]
    fn protection_override_forces_ivr_mode_out_of_a_greedy_ldo_runtime() {
        // Boot a 50 W platform in LDO-Mode with a predictor whose
        // hysteresis is so large it would never leave it voluntarily,
        // then run a multi-thread power virus. The virus current on the
        // shared V_IN rail exceeds the trip point in LDO-Mode, so the
        // maximum-current protection — not the efficiency preference —
        // must override the decision and land the platform in IVR-Mode.
        let rt = FlexWattsRuntime::new(
            client_soc(Watts::new(50.0)),
            ModelParams::paper_defaults(),
            predictor().with_hysteresis(10.0),
            RuntimeConfig { initial_mode: PdnMode::LdoMode, ..RuntimeConfig::default() },
        );
        let trace = Trace::new(
            "virus",
            vec![TraceInterval::active(
                Seconds::from_millis(50.0),
                WorkloadType::MultiThread,
                ar(1.0),
            )],
        );
        let report = rt.run(&trace).unwrap();
        assert!(report.protection_overrides >= 1, "the override must fire");
        assert_eq!(report.switches.first().map(|s| s.to), Some(PdnMode::IvrMode));
        let ivr_time = report.time_in_mode[&PdnMode::IvrMode];
        assert!(
            ivr_time.get() > 0.99 * (report.total_time - report.switch_overhead()).get(),
            "after the override the trace must execute in IVR-Mode"
        );
        // Sanity: without the protection the same runtime stays in
        // LDO-Mode (the hysteresis pins it) — the switch above really is
        // the protection's doing.
        let unprotected = FlexWattsRuntime::new(
            client_soc(Watts::new(50.0)),
            ModelParams::paper_defaults(),
            predictor().with_hysteresis(10.0),
            RuntimeConfig {
                initial_mode: PdnMode::LdoMode,
                max_current_protection: false,
                ..RuntimeConfig::default()
            },
        );
        let report = unprotected.run(&trace).unwrap();
        assert!(report.switches.is_empty());
        assert_eq!(report.protection_overrides, 0);
    }

    #[test]
    fn parallel_run_matches_serial_bitwise() {
        // Fresh runtimes so both runs see the same sensor-jitter stream.
        let trace = BatteryLifeWorkload::VideoPlayback.as_trace(10);
        let serial = runtime(18.0).run_with(&trace, Workers::Serial).unwrap();
        let parallel = runtime(18.0).run_with(&trace, Workers::Fixed(4)).unwrap();
        assert_eq!(serial.energy_joules.to_bits(), parallel.energy_joules.to_bits());
        assert_eq!(serial.oracle_energy_joules.to_bits(), parallel.oracle_energy_joules.to_bits());
        assert_eq!(serial.switches.len(), parallel.switches.len());
        assert_eq!(serial.predictor_evaluations, parallel.predictor_evaluations);
        assert_eq!(serial.prediction_accuracy, parallel.prediction_accuracy);
    }

    #[test]
    fn report_accounting_is_consistent() {
        let rt = runtime(10.0);
        let trace = Trace::new(
            "mixed",
            vec![
                TraceInterval::active(Seconds::from_millis(25.0), WorkloadType::Graphics, ar(0.7)),
                TraceInterval::idle(Seconds::from_millis(25.0), pdn_proc::PackageCState::C6),
            ],
        );
        let report = rt.run(&trace).unwrap();
        let mode_time: Seconds = report.time_in_mode.values().copied().sum();
        assert!(
            (mode_time + report.switch_overhead() - report.total_time).abs().get() < 1e-9,
            "time must be fully attributed"
        );
        assert!(report.oracle_energy_joules <= report.energy_joules + 1e-12);
        assert!(report.predictor_evaluations >= 5);
    }

    const WORKLOAD_TYPES: [WorkloadType; 4] = [
        WorkloadType::SingleThread,
        WorkloadType::MultiThread,
        WorkloadType::Graphics,
        WorkloadType::BatteryLife,
    ];

    /// The per-interval scalar preparation, written out independently of
    /// the runtime: the per-point scenario constructor, one plain
    /// `evaluate` per mode, and the `V_IN` rail and level looked up on the
    /// results.
    fn scalar_reference(
        soc: &SocSpec,
        modes: &[FlexWattsPdn; 2],
        phase: Phase,
    ) -> Result<PreparedInterval, PdnError> {
        let (scenario, estimated_type) = match phase {
            Phase::Active { workload_type, ar } => {
                let scenario = Scenario::active_fixed_tdp_frequency(soc, workload_type, ar)?;
                let powered = DomainTable::from_fn(|k| scenario.load(k).powered);
                (scenario, classify_workload(&powered, None))
            }
            Phase::Idle(state) => (Scenario::idle(soc, state), WorkloadType::BatteryLife),
        };
        let ivr = modes[0].evaluate(&scenario)?;
        let ldo = modes[1].evaluate(&scenario)?;
        let vin_ldo = ldo.rails.iter().find(|r| r.name == "V_IN").map_or(Amps::ZERO, |r| r.current);
        let vin_level_ldo =
            scenario.max_voltage_among(&DomainKind::WIDE_RANGE).unwrap_or(Volts::new(0.85));
        Ok(PreparedInterval {
            power_ivr: ivr.input_power,
            power_ldo: ldo.input_power,
            vin_ldo,
            vin_level_ldo,
            estimated_type,
        })
    }

    /// Every field of a prepared interval, floats as raw bits.
    fn bits(p: &PreparedInterval) -> (u64, u64, u64, u64, WorkloadType) {
        (
            p.power_ivr.get().to_bits(),
            p.power_ldo.get().to_bits(),
            p.vin_ldo.get().to_bits(),
            p.vin_level_ldo.get().to_bits(),
            p.estimated_type,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Random mixed traces over every workload type and all six
        /// package C-states: the slab row preparation equals the scalar
        /// reference bit for bit, field by field, at lengths on both sides
        /// of the slab edges and for serial and parallel workers.
        #[test]
        fn prepare_batch_matches_the_scalar_reference_bitwise(
            draws in proptest::collection::vec((0usize..10, 0usize..6, 0.01f64..1.0), 1000),
            tdp_pick in 0usize..3,
        ) {
            let tdp = [4.0, 18.0, 50.0][tdp_pick];
            let rt = runtime(tdp);
            let intervals: Vec<TraceInterval> = draws
                .iter()
                .map(|&(kind, state, a)| {
                    let duration = Seconds::from_millis(5.0);
                    match kind {
                        0..=3 => TraceInterval::active(duration, WORKLOAD_TYPES[kind], ar(a)),
                        _ => TraceInterval::idle(duration, PackageCState::ALL[state]),
                    }
                })
                .collect();
            let params = ModelParams::paper_defaults();
            let modes = [
                FlexWattsPdn::new(params.clone(), PdnMode::IvrMode),
                FlexWattsPdn::new(params, PdnMode::LdoMode),
            ];
            let reference: Vec<_> =
                intervals.iter().map(|i| scalar_reference(&rt.soc, &modes, i.phase)).collect();
            for len in [0, 1, PREPARE_SLAB - 1, PREPARE_SLAB, PREPARE_SLAB + 1, intervals.len()] {
                for workers in [Workers::Serial, Workers::Fixed(3)] {
                    let got = rt.prepare_batch(&intervals[..len], workers);
                    prop_assert_eq!(got.len(), len);
                    for (at, (got, want)) in got.iter().zip(&reference).enumerate() {
                        match (got, want) {
                            (Ok(got), Ok(want)) => prop_assert_eq!(bits(got), bits(want), "@{}", at),
                            // Errors must surface at the same interval.
                            _ => prop_assert_eq!(got, want, "@{}", at),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn idle_table_matches_a_fresh_c6_evaluation() {
        let rt = runtime(18.0);
        let c6 = Scenario::idle(&rt.soc, PackageCState::C6);
        for mode in PdnMode::ALL {
            let fresh = FlexWattsPdn::new(ModelParams::paper_defaults(), mode).evaluate(&c6);
            assert_eq!(
                rt.c6_power(mode).unwrap().get().to_bits(),
                fresh.unwrap().input_power.get().to_bits()
            );
        }
    }
}
