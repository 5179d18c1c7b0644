//! What one run executes: the [`RunSpec`] every run entry takes.
//!
//! A run is a program, a platform, a scheduler and a spec. The spec's
//! [`RunMode`] decides which optional executor layers are active (see the
//! mode table in [`crate::executor`]). The spec is also the journal
//! header's `run` input: it serializes whole, so a resumed run re-creates
//! the exact executor configuration.

use crate::adapt::{AdaptConfig, ReplanConfig};
use crate::health::HealthConfig;
use crate::journal::JournalError;
use hetero_platform::{FaultSchedule, RetryPolicy};
use serde::{Deserialize, Serialize};

/// Which executor layers a run enables. The modes are ordered: each one
/// runs every layer of the modes before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RunMode {
    /// Fault-free execution.
    Plain,
    /// Fault injection with retries and failover, mitigation off.
    Faulty,
    /// Faults plus the gray-failure health subsystem.
    Resilient,
    /// Faults, health, and the adaptive-repartitioning controller.
    Adaptive,
    /// The full stack including degraded-mode plan repair.
    Repairing,
}

/// Everything beyond the program, platform and scheduler that shapes a
/// run. Serialized whole into the journal header, so resume re-creates the
/// exact executor configuration without any side channel.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// The active layers.
    pub mode: RunMode,
    /// The fault schedule (required for every mode but [`RunMode::Plain`]).
    pub schedule: Option<FaultSchedule>,
    /// Retry/failover budgets for the faulty paths.
    pub policy: RetryPolicy,
    /// Gray-failure mitigation ([`RunMode::Resilient`] and up; the faulty
    /// mode runs with it disabled regardless).
    pub health: HealthConfig,
    /// The adaptation controller ([`RunMode::Adaptive`] and up).
    pub adapt: AdaptConfig,
    /// Degraded-mode plan repair ([`RunMode::Repairing`] only).
    pub replan: ReplanConfig,
}

impl RunSpec {
    /// A fault-free run.
    pub fn plain() -> Self {
        RunSpec {
            mode: RunMode::Plain,
            schedule: None,
            policy: RetryPolicy::default(),
            health: HealthConfig::disabled(),
            adapt: AdaptConfig::disabled(),
            replan: ReplanConfig::disabled(),
        }
    }

    /// A faulty run under `schedule` with default retry budgets.
    pub fn faulty(schedule: FaultSchedule) -> Self {
        RunSpec {
            mode: RunMode::Faulty,
            schedule: Some(schedule),
            ..RunSpec::plain()
        }
    }

    /// A resilient run: `schedule` plus `health`.
    pub fn resilient(schedule: FaultSchedule, health: HealthConfig) -> Self {
        RunSpec {
            mode: RunMode::Resilient,
            schedule: Some(schedule),
            health,
            ..RunSpec::plain()
        }
    }

    /// An adaptive run: `schedule`, `health`, and the controller `adapt`.
    pub fn adaptive(schedule: FaultSchedule, health: HealthConfig, adapt: AdaptConfig) -> Self {
        RunSpec {
            mode: RunMode::Adaptive,
            schedule: Some(schedule),
            health,
            adapt,
            ..RunSpec::plain()
        }
    }

    /// A repairing run: the full stack.
    pub fn repairing(
        schedule: FaultSchedule,
        health: HealthConfig,
        adapt: AdaptConfig,
        replan: ReplanConfig,
    ) -> Self {
        RunSpec {
            mode: RunMode::Repairing,
            schedule: Some(schedule),
            health,
            adapt,
            replan,
            ..RunSpec::plain()
        }
    }

    /// The schedule, or a typed error for a mode that requires one.
    pub fn require_schedule(&self) -> Result<&FaultSchedule, JournalError> {
        self.schedule
            .as_ref()
            .ok_or_else(|| JournalError::InvalidSpec {
                reason: format!("run mode {:?} requires a fault schedule", self.mode),
            })
    }

    /// Check every configuration the mode activates: the schedule is
    /// present and well formed, and the health, adapt and replan configs
    /// of the active layers are in range. Inactive layers are not checked.
    pub fn validate(&self) -> Result<(), JournalError> {
        let invalid = |what: &str, e: String| JournalError::InvalidSpec {
            reason: format!("{what}: {e}"),
        };
        if self.mode == RunMode::Plain {
            return Ok(());
        }
        self.require_schedule()?
            .validate()
            .map_err(|e| invalid("fault schedule", e.to_string()))?;
        let layers: [(RunMode, &str, Result<(), String>); 3] = [
            (RunMode::Resilient, "health config", self.health.validate()),
            (RunMode::Adaptive, "adapt config", self.adapt.validate()),
            (RunMode::Repairing, "replan config", self.replan.validate()),
        ];
        for (from, what, check) in layers {
            if self.mode >= from {
                check.map_err(|e| invalid(what, e))?;
            }
        }
        Ok(())
    }

    /// The spec DP-Perf's profiling warm-up runs under: this spec capped
    /// at [`RunMode::Resilient`], with the schedule passed through
    /// [`warmup_schedule`]. The warm-up only learns rates, so adaptation
    /// and repair stay off, and it sees the same misbehaving platform as
    /// the measured run.
    pub fn warmup(&self) -> RunSpec {
        RunSpec {
            mode: self.mode.min(RunMode::Resilient),
            schedule: self.schedule.as_ref().map(warmup_schedule),
            policy: self.policy,
            health: self.health,
            adapt: self.adapt,
            replan: self.replan,
        }
    }
}

/// The schedule the DP-Perf warm-up pass runs under: the base events with
/// correlated triggering disabled and any replayed synthesized windows
/// stripped. The warm-up exists only to learn rates, and its synthesized
/// windows are not part of the recorded [`hetero_platform::FaultTrace`]
/// (only the measured run's are) — letting it trigger live would make the
/// learned rates, and therefore the whole run, impossible to replay. With
/// this form the warm-up is a pure function of the base schedule, so a
/// recorded run and its replay learn identical rates.
pub fn warmup_schedule(schedule: &FaultSchedule) -> FaultSchedule {
    let mut w = schedule.clone();
    if let Some(n) = w.synthesized_after.take() {
        w.events.truncate(n);
    }
    for d in &mut w.domains {
        d.trigger_prob = 0.0;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::AdaptConfig;
    use hetero_platform::{DeviceId, SimTime};

    #[test]
    fn spec_constructors_pick_the_right_mode() {
        let s = FaultSchedule::new(1);
        assert_eq!(RunSpec::plain().mode, RunMode::Plain);
        assert_eq!(RunSpec::faulty(s.clone()).mode, RunMode::Faulty);
        assert_eq!(
            RunSpec::resilient(s.clone(), HealthConfig::disabled()).mode,
            RunMode::Resilient
        );
        assert_eq!(
            RunSpec::adaptive(s.clone(), HealthConfig::disabled(), AdaptConfig::disabled()).mode,
            RunMode::Adaptive
        );
        let spec = RunSpec::repairing(
            s,
            HealthConfig::disabled(),
            AdaptConfig::disabled(),
            ReplanConfig::enabled_default(),
        );
        assert_eq!(spec.mode, RunMode::Repairing);
        // The spec round-trips through its header encoding.
        let back: RunSpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn warmup_caps_the_mode_at_resilient() {
        let s = FaultSchedule::new(1);
        let full = RunSpec::repairing(
            s.clone(),
            HealthConfig::monitored(),
            AdaptConfig::enabled_default(),
            ReplanConfig::enabled_default(),
        );
        let warm = full.warmup();
        assert_eq!(warm.mode, RunMode::Resilient);
        assert_eq!(warm.health, full.health);
        assert_eq!(warm.schedule, Some(warmup_schedule(&s)));
        assert_eq!(RunSpec::plain().warmup(), RunSpec::plain());
        assert_eq!(RunSpec::faulty(s.clone()).warmup().mode, RunMode::Faulty);
    }

    #[test]
    fn validation_checks_only_the_active_layers() {
        // Each validator's rejection is covered through `Analyzer::resume`
        // in `matchmaker::journal`; here, what the mode leaves out.
        let ok = FaultSchedule::new(1);
        let missing = RunSpec {
            schedule: None,
            ..RunSpec::faulty(ok.clone())
        };
        assert!(matches!(
            missing.validate(),
            Err(JournalError::InvalidSpec { reason }) if reason.contains("requires a fault schedule")
        ));
        let bad_health = HealthConfig {
            ewma_alpha: 0.0,
            ..HealthConfig::monitored()
        };
        assert!(RunSpec::resilient(ok.clone(), bad_health)
            .validate()
            .is_err());
        // The faulty mode runs without health, so it does not check it.
        let inactive = RunSpec {
            health: bad_health,
            ..RunSpec::faulty(ok)
        };
        assert!(inactive.validate().is_ok());
        // A plain run ignores even an invalid schedule.
        let bad_schedule = FaultSchedule::new(1).with_flaky(
            DeviceId(1),
            7.0,
            SimTime::ZERO,
            SimTime::from_millis(1),
        );
        let plain = RunSpec {
            schedule: Some(bad_schedule),
            ..RunSpec::plain()
        };
        assert!(plain.validate().is_ok());
    }
}
