//! Adaptive repartitioning: online imbalance detection, epoch re-solving,
//! and static→dynamic strategy fallback under model misprediction.
//!
//! PRs 1–2 made the runtime survive fail-stop and gray *hardware*
//! failures, but the paper's static strategies (SP-Single/Unified/Varied)
//! still trust the Glinda profile blindly: a mispredicted partition — a
//! skewed profiling run ([`ProfilePerturb`]), mid-run performance drift
//! (`ThrottleRamp`) — silently inflates makespan with no mitigation. This
//! module closes the control loop, configured through [`AdaptConfig`]:
//!
//! 1. **Detect** — at every taskwait barrier the executor computes the
//!    per-device *busy-time skew* of the just-finished epoch
//!    (`(max − min) / max` over slot-normalised busy time of the devices
//!    that participated). A skew above [`AdaptConfig::skew_threshold`] for
//!    [`AdaptConfig::hysteresis`] consecutive barriers triggers the
//!    controller (hysteresis suppresses one-epoch noise).
//! 2. **Re-solve** — the *observed* per-device throughputs (items per busy
//!    second, folding transfer and queueing effects into an effective
//!    rate) are fed back into Glinda through
//!    [`glinda::resolve_with_observations`], which warm-starts from the
//!    prior split; the corrected split then re-pins the remaining epochs'
//!    statically placed tasks (whole task chunks move — region splits are
//!    baked into the plan, so the granularity is one chunk), with the
//!    chunk assignment chosen to minimise a slot-quantised predicted
//!    epoch wall at the observed rates (equal chunks run in waves over a
//!    device's slots, which a continuous item target cannot see). A
//!    no-regression guard keeps the old placement when the model predicts
//!    no improvement.
//! 3. **Escalate** — if [`AdaptConfig::max_resolves`] consecutive
//!    corrections still miss [`AdaptConfig::balance_target`], the static
//!    plan is abandoned for its dynamic sibling: remaining statically
//!    pinned tasks are handed to an internal DP-Perf scheduler seeded with
//!    the run's own observations (the Table I escalation SP-* → DP-Perf).
//!
//! Every adaptation decision draws from a dedicated seeded SplitMix64
//! stream, so enabling adaptation never perturbs fault or health sampling
//! and identical seeds replay byte-identically. With adaptation disabled
//! (the [`Default`]) the executor's event sequence is byte-identical to
//! the resilient path. What happened is reported through [`AdaptReport`]
//! (`RunReport::adapt`).
//!
//! [`ProfilePerturb`]: hetero_platform::FaultEvent::ProfilePerturb

use glinda::{MultiDeviceProblem, MultiSolution, PartitionProblem, PartitionSolution};
use hetero_platform::DeviceId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration for the adaptive repartitioning controller. The disabled
/// configuration ([`AdaptConfig::disabled`]) makes a
/// [`crate::RunMode::Adaptive`] run take the exact event sequence of the
/// [`crate::RunMode::Resilient`] run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdaptConfig {
    /// Per-epoch busy-time skew `(max − min) / max` above which an epoch
    /// counts as imbalanced (in `(0, 1)`).
    pub skew_threshold: f64,
    /// Skew at or below which the controller considers the run balanced
    /// again; must be ≤ `skew_threshold` (the gap is the hysteresis band).
    pub balance_target: f64,
    /// Consecutive imbalanced barriers required before the controller
    /// acts (≥ 1; higher values suppress one-epoch noise).
    pub hysteresis: u32,
    /// Consecutive re-solves allowed to miss `balance_target` before the
    /// static plan escalates to its dynamic sibling (≥ 1).
    pub max_resolves: u32,
    /// Re-solve and re-pin remaining epochs on imbalance (`false`
    /// observes skew for the report without correcting).
    pub repartition: bool,
    /// Escalate SP-* → DP-Perf when re-solves are exhausted.
    pub escalation: bool,
    /// Consecutive *calm* barriers (skew at or below `balance_target`,
    /// no open fault window) an escalated run must observe before the
    /// static plan is reinstated (DP-Perf → SP-* de-escalation). `0`
    /// disables de-escalation: once escalated, the run stays dynamic.
    pub reinstate_after: u32,
}

impl AdaptConfig {
    /// Everything off: byte-identical to the resilient executor.
    pub fn disabled() -> Self {
        AdaptConfig {
            skew_threshold: 0.25,
            balance_target: 0.10,
            hysteresis: 1,
            max_resolves: 2,
            repartition: false,
            escalation: false,
            reinstate_after: 0,
        }
    }

    /// Full adaptation with default thresholds: repartition at 25% skew
    /// after one imbalanced barrier, escalate to DP-Perf after two
    /// consecutive re-solves that miss the 10% balance target, and
    /// reinstate the static plan after two consecutive calm barriers.
    pub fn enabled_default() -> Self {
        AdaptConfig {
            repartition: true,
            escalation: true,
            reinstate_after: 2,
            ..AdaptConfig::disabled()
        }
    }

    /// `true` when any mitigation (repartitioning, escalation) is on.
    pub fn enabled(&self) -> bool {
        self.repartition || self.escalation
    }

    /// Check internal consistency: thresholds in `(0, 1)`, target ≤
    /// threshold, counters ≥ 1.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.skew_threshold > 0.0 && self.skew_threshold < 1.0) {
            return Err(format!(
                "skew_threshold {} outside (0, 1)",
                self.skew_threshold
            ));
        }
        if !(self.balance_target > 0.0 && self.balance_target < 1.0) {
            return Err(format!(
                "balance_target {} outside (0, 1)",
                self.balance_target
            ));
        }
        if self.balance_target > self.skew_threshold {
            return Err(format!(
                "balance_target {} exceeds skew_threshold {} (inverted hysteresis band)",
                self.balance_target, self.skew_threshold
            ));
        }
        if self.hysteresis == 0 {
            return Err("hysteresis must be >= 1".into());
        }
        if self.max_resolves == 0 {
            return Err("max_resolves must be >= 1".into());
        }
        Ok(())
    }
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig::disabled()
    }
}

/// The static partitioning decision behind the running plan, carried into
/// the executor so the controller can re-solve it against observed rates.
/// Produced by the planner (`matchmaker::Planner::adapt_plan`) for static
/// hybrid strategies; dynamic strategies have nothing to re-solve and run
/// without one.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdaptPlan {
    /// The partitioning problem the planner solved (planner-visible rates,
    /// possibly mispredicted).
    pub problem: PartitionProblem,
    /// The split the plan was emitted from.
    pub solution: PartitionSolution,
    /// The accelerator the split's GPU share is pinned to (the primary
    /// accelerator on multi-accelerator platforms).
    pub gpu: DeviceId,
    /// The N-way extension on multi-accelerator platforms: the
    /// `solve_multi` problem/split behind the plan, so the controller and
    /// the plan-repair subsystem can re-solve the full device set against
    /// observed rates. `None` on single-accelerator platforms.
    pub multi: Option<MultiAdaptPlan>,
    /// The per-kernel decisions behind an SP-Varied plan: one
    /// problem/split per kernel, in submission order. SP-Varied separates
    /// kernels with taskwaits, so every epoch runs exactly one kernel —
    /// carried here so barrier re-solves can use *that kernel's* problem
    /// against *that kernel's* observed rates instead of the SP-Single
    /// approximation (whole-application aggregate rates). `None` for
    /// single-kernel plans and non-Varied strategies.
    pub per_kernel: Option<Vec<KernelAdaptPlan>>,
}

/// One kernel's partitioning decision inside an SP-Varied plan, carried
/// in [`AdaptPlan::per_kernel`] so barrier repartitioning can re-solve
/// each kernel's own problem against its own observed rates.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KernelAdaptPlan {
    /// Index of the kernel in the program's kernel table.
    pub kernel: usize,
    /// The partitioning problem the planner solved for this kernel.
    pub problem: PartitionProblem,
    /// The split this kernel's chunks were emitted from.
    pub solution: PartitionSolution,
}

/// The N-way (`glinda::multi::solve_multi`) decision behind a
/// multi-accelerator static plan. Carried inside [`AdaptPlan`] so that
/// barrier repartitioning and degraded-mode plan repair can re-solve the
/// whole surviving device set with observed rates instead of the two-way
/// CPU/GPU projection.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MultiAdaptPlan {
    /// The N-way problem the planner solved (planner-visible rates).
    pub problem: MultiDeviceProblem,
    /// The split the plan was emitted from.
    pub solution: MultiSolution,
    /// The accelerators, in `problem.accelerators` order.
    pub accels: Vec<DeviceId>,
}

/// Configuration of the degraded-mode plan-repair subsystem: survivor
/// re-planning when a device permanently dies (dropout past the retry
/// budget) or is quarantined by the circuit breaker, plus the symmetric
/// healing re-plan when a quarantined device recloses. The disabled
/// configuration keeps every executor path byte-identical to the
/// repair-less runtime.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplanConfig {
    /// Master switch: `false` disables every repair hook.
    pub enabled: bool,
    /// Upper bound on applied survivor re-plans (death + quarantine) per
    /// run; the attempt past the budget records
    /// [`ReplanError::BudgetExhausted`].
    pub max_replans: u32,
    /// Re-plan symmetrically when a quarantined device recloses
    /// (HalfOpen→Closed), readmitting it into the split.
    pub heal_on_reclose: bool,
}

impl ReplanConfig {
    /// Everything off: byte-identical to the repair-less executor.
    pub fn disabled() -> Self {
        ReplanConfig {
            enabled: false,
            max_replans: 0,
            heal_on_reclose: false,
        }
    }

    /// Repair on with defaults: up to 4 survivor re-plans per run and
    /// healing readmission on breaker reclose.
    pub fn enabled_default() -> Self {
        ReplanConfig {
            enabled: true,
            max_replans: 4,
            heal_on_reclose: true,
        }
    }

    /// `true` when the repair subsystem is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Check internal consistency: an enabled config needs a budget.
    pub fn validate(&self) -> Result<(), String> {
        if self.enabled && self.max_replans == 0 {
            return Err("enabled replan config needs max_replans >= 1".into());
        }
        Ok(())
    }
}

impl Default for ReplanConfig {
    fn default() -> Self {
        ReplanConfig::disabled()
    }
}

/// Why a survivor re-plan could not be produced. Recorded in
/// [`AdaptReport::replan_error`] by the executor (which then degrades to
/// chunk-by-chunk host failover), where `matchmake compare --replan`
/// turns it into a hard error.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplanError {
    /// Every device — host included — is dead or quarantined; there is no
    /// survivor set to re-solve over.
    NoSurvivingAccelerator,
    /// The survivor re-solve could not produce a split (degenerate rates
    /// or an infeasible problem).
    SolverInfeasible {
        /// What made the solve infeasible.
        detail: String,
    },
    /// [`ReplanConfig::max_replans`] applied repairs were already spent.
    BudgetExhausted {
        /// The configured budget that was exhausted.
        max_replans: u32,
    },
}

impl fmt::Display for ReplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplanError::NoSurvivingAccelerator => {
                write!(f, "no surviving device to re-plan onto")
            }
            ReplanError::SolverInfeasible { detail } => {
                write!(f, "survivor re-solve infeasible: {detail}")
            }
            ReplanError::BudgetExhausted { max_replans } => {
                write!(f, "replan budget exhausted ({max_replans} allowed)")
            }
        }
    }
}

impl std::error::Error for ReplanError {}

/// What the adaptive controller observed and did during one run (all
/// zeros for a balanced run or with adaptation disabled). Reported
/// through `RunReport::adapt`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AdaptReport {
    /// Taskwait barriers at which the controller observed epoch skew.
    pub barriers_observed: u64,
    /// Barriers whose skew exceeded the threshold (pre-hysteresis).
    pub imbalances_detected: u64,
    /// Re-solves that changed the placement of remaining epochs.
    pub repartitions: u64,
    /// Data items moved between devices by repartitioning.
    pub items_moved: u64,
    /// `true` once the static plan escalated to its dynamic sibling.
    pub escalated: bool,
    /// Epoch index at whose barrier escalation happened.
    pub escalated_at_epoch: Option<usize>,
    /// Tasks bound by the escalated DP-Perf scheduler.
    pub escalated_tasks: u64,
    /// `true` once an escalated run returned to its static plan.
    pub reinstated: bool,
    /// Epoch index at whose barrier the static plan was reinstated.
    pub reinstated_at_epoch: Option<usize>,
    /// Largest per-epoch skew observed.
    pub max_skew: f64,
    /// Skew of the last epoch that had ≥ 2 participating devices.
    pub final_skew: f64,
    /// Survivor re-plans applied after a device death or quarantine.
    pub replans: u64,
    /// Healing re-plans that readmitted a reclosed device.
    pub readmissions: u64,
    /// Why the last repair attempt failed, if any did; the executor falls
    /// back to chunk-by-chunk host failover after recording this.
    pub replan_error: Option<ReplanError>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_is_inert_and_valid() {
        let c = AdaptConfig::disabled();
        assert!(!c.enabled());
        assert!(c.validate().is_ok());
        assert_eq!(c, AdaptConfig::default());
    }

    #[test]
    fn enabled_config_is_enabled_and_valid() {
        let c = AdaptConfig::enabled_default();
        assert!(c.enabled());
        assert!(c.validate().is_ok());
        assert!(c.repartition);
        assert!(c.escalation);
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let mut c = AdaptConfig::enabled_default();
        c.skew_threshold = 0.0;
        assert!(c.validate().is_err());

        let mut c = AdaptConfig::enabled_default();
        c.balance_target = 1.5;
        assert!(c.validate().is_err());

        let mut c = AdaptConfig::enabled_default();
        c.balance_target = 0.5;
        c.skew_threshold = 0.25;
        assert!(c.validate().is_err());

        let mut c = AdaptConfig::enabled_default();
        c.hysteresis = 0;
        assert!(c.validate().is_err());

        let mut c = AdaptConfig::enabled_default();
        c.max_resolves = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn report_defaults_are_zero() {
        let r = AdaptReport::default();
        assert_eq!(r.barriers_observed, 0);
        assert_eq!(r.repartitions, 0);
        assert!(!r.escalated);
        assert_eq!(r.escalated_at_epoch, None);
        assert!(!r.reinstated);
        assert_eq!(r.reinstated_at_epoch, None);
        assert_eq!(r.max_skew, 0.0);
    }

    #[test]
    fn replan_config_defaults_and_validation() {
        let off = ReplanConfig::disabled();
        assert!(!off.enabled());
        assert!(off.validate().is_ok());
        assert_eq!(off, ReplanConfig::default());

        let on = ReplanConfig::enabled_default();
        assert!(on.enabled());
        assert!(on.heal_on_reclose);
        assert!(on.validate().is_ok());

        let mut bad = ReplanConfig::enabled_default();
        bad.max_replans = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn replan_error_displays_are_descriptive() {
        assert!(ReplanError::NoSurvivingAccelerator
            .to_string()
            .contains("no surviving"));
        let e = ReplanError::SolverInfeasible {
            detail: "zero observed rate".into(),
        };
        assert!(e.to_string().contains("zero observed rate"));
        let e = ReplanError::BudgetExhausted { max_replans: 4 };
        assert!(e.to_string().contains('4'));
    }

    #[test]
    fn report_replan_fields_default_to_zero() {
        let r = AdaptReport::default();
        assert_eq!(r.replans, 0);
        assert_eq!(r.readmissions, 0);
        assert_eq!(r.replan_error, None);
    }

    #[test]
    fn de_escalation_defaults() {
        // Disabled config never reinstates; the enabled default waits for
        // two calm barriers.
        assert_eq!(AdaptConfig::disabled().reinstate_after, 0);
        assert_eq!(AdaptConfig::enabled_default().reinstate_after, 2);
        assert!(AdaptConfig::enabled_default().validate().is_ok());
    }
}
