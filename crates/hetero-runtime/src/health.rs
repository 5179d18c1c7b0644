//! Gray-failure resilience: device health, straggler hedging, and silent
//! data corruption detection.
//!
//! PR 1's fault machinery handles *fail-stop* faults — an attempt fails, a
//! transfer errors, a device dies, and the runtime notices immediately.
//! Real heterogeneous platforms mostly degrade through **gray failures**
//! that no retry loop ever sees:
//!
//! * **stragglers** — thermal throttling or co-tenant contention turn a
//!   device 4–8× slower while every task still "succeeds";
//! * **flaky devices** — an elevated transient-fault rate: retries keep
//!   passing, so the device never looks dead, yet it keeps burning time;
//! * **silent data corruption (SDC)** — a task completes on time with a
//!   wrong result; nothing faults at all.
//!
//! The paper's whole argument rests on *predicted* per-device execution
//! times (Glinda's model-based split), so a device that silently runs 5×
//! slow or returns wrong bytes invalidates the chosen strategy. This module
//! is the runtime feedback loop that closes the gap, configured through
//! [`HealthConfig`]:
//!
//! * a **watchdog** ([`WatchdogConfig`]) compares each attempt's elapsed
//!   time against the model's prediction and, past a configurable slack
//!   factor, launches a *hedged duplicate* on the best other device — first
//!   finisher wins, the loser is cancelled and its slot time is charged to
//!   [`HealthReport::time_hedged`];
//! * a **verification policy** ([`VerificationPolicy`]) re-executes a
//!   seeded sample of each epoch's tasks on a peer device at the taskwait
//!   barrier and compares results; a detected corruption rolls the epoch
//!   back to its checkpoint (the PR-1 epoch-commit machinery) and re-runs
//!   it;
//! * a per-device **health score** (EWMA over good/bad observations) feeds
//!   a **circuit breaker** ([`BreakerConfig`]): after `trip_after`
//!   consecutive bad observations the device is *quarantined* (its queue
//!   redirects to survivors), and after a cool-down it *half-opens* — one
//!   probe task is let through, and a clean probe closes the circuit again.
//!
//! Everything is deterministic: health sampling draws from its own seeded
//! SplitMix64 stream (derived from the fault schedule's seed), so enabling
//! verification never perturbs fault sampling, and identical seeds replay
//! byte-identical runs. What happened is reported through
//! [`HealthReport`] (`RunReport::health`).

use hetero_platform::{DeviceId, SimTime};
use serde::{Deserialize, Serialize};

/// Straggler watchdog configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// Slack factor over the model's predicted slot occupancy before an
    /// attempt counts as straggling (must be > 1.0). With `slack = 1.5`,
    /// the watchdog fires once an attempt has run 50% past its prediction.
    pub slack: f64,
    /// Launch a hedged duplicate on the best other device when the
    /// watchdog fires (`false` observes stragglers for the health score
    /// without hedging).
    pub hedging: bool,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            slack: 1.5,
            hedging: true,
        }
    }
}

/// How silently-corrupted outputs are detected.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum VerificationPolicy {
    /// No verification: injected corruption commits silently (the
    /// fail-stop baseline of PR 1).
    Off,
    /// Duplicate-check: at each taskwait barrier, a seeded sample of the
    /// epoch's tasks is re-executed on a peer device and compared.
    /// `sample_rate` is the per-task sampling probability in `[0, 1]`; a
    /// mismatch rolls the epoch back to its checkpoint and re-runs it.
    DupCheck {
        /// Per-task verification probability in `[0, 1]`.
        sample_rate: f64,
    },
}

impl VerificationPolicy {
    /// `true` unless the policy is [`VerificationPolicy::Off`].
    pub fn is_on(&self) -> bool {
        !matches!(self, VerificationPolicy::Off)
    }
}

/// Device-health circuit breaker configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive bad observations before the circuit opens and the
    /// device is quarantined (≥ 1). The host (device 0) is never
    /// quarantined: it is the failover target of last resort.
    pub trip_after: u32,
    /// Quarantine duration before the circuit half-opens and a probe task
    /// is let through.
    pub cooldown: SimTime,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            trip_after: 3,
            cooldown: SimTime::from_millis(1),
        }
    }
}

/// Configuration for the gray-failure resilience subsystem. The disabled
/// configuration ([`HealthConfig::disabled`]) makes a
/// [`crate::RunMode::Resilient`] run take the exact event sequence of the
/// [`crate::RunMode::Faulty`] run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// Straggler watchdog (`None` = off).
    pub watchdog: Option<WatchdogConfig>,
    /// Silent-data-corruption detection.
    pub verification: VerificationPolicy,
    /// Device-health circuit breaker (`None` = off).
    pub breaker: Option<BreakerConfig>,
    /// EWMA weight of each new good/bad observation on the per-device
    /// health score in `(0, 1]`.
    pub ewma_alpha: f64,
    /// Detected-corruption rollbacks allowed per epoch before the epoch's
    /// re-run disables corruption injection (the SDC analog of safe mode:
    /// it guarantees termination, and the final commit is clean).
    pub max_rollbacks_per_epoch: u32,
}

impl HealthConfig {
    /// Everything off: byte-identical to PR 1's fail-stop executor.
    pub fn disabled() -> Self {
        HealthConfig {
            watchdog: None,
            verification: VerificationPolicy::Off,
            breaker: None,
            ewma_alpha: 0.25,
            max_rollbacks_per_epoch: 2,
        }
    }

    /// Full gray-failure monitoring with default parameters: watchdog +
    /// hedging, duplicate-check verification on 25% of tasks, and the
    /// circuit breaker.
    pub fn monitored() -> Self {
        HealthConfig {
            watchdog: Some(WatchdogConfig::default()),
            verification: VerificationPolicy::DupCheck { sample_rate: 0.25 },
            breaker: Some(BreakerConfig::default()),
            ewma_alpha: 0.25,
            max_rollbacks_per_epoch: 2,
        }
    }

    /// `true` when any mitigation (watchdog, verification, breaker) is on.
    pub fn enabled(&self) -> bool {
        self.watchdog.is_some() || self.verification.is_on() || self.breaker.is_some()
    }

    /// Check internal consistency: slack > 1, probabilities in `[0, 1]`,
    /// alpha in `(0, 1]`, trip threshold ≥ 1.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(w) = &self.watchdog {
            if w.slack <= 1.0 || w.slack.is_nan() {
                return Err(format!("watchdog slack {} must be > 1.0", w.slack));
            }
        }
        if let VerificationPolicy::DupCheck { sample_rate } = self.verification {
            if !(0.0..=1.0).contains(&sample_rate) {
                return Err(format!("sample_rate {sample_rate} outside [0, 1]"));
            }
        }
        if let Some(b) = &self.breaker {
            if b.trip_after == 0 {
                return Err("breaker trip_after must be >= 1".into());
            }
        }
        if !(self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0) {
            return Err(format!("ewma_alpha {} outside (0, 1]", self.ewma_alpha));
        }
        Ok(())
    }
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig::disabled()
    }
}

/// Circuit-breaker state of one device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: the device accepts work.
    #[default]
    Closed,
    /// Quarantined: new bindings redirect to survivors.
    Open,
    /// Cool-down elapsed: one probe task is let through; a clean probe
    /// closes the circuit, a bad one re-opens it.
    HalfOpen,
}

/// One quarantine interval of one device. `until` is `None` while the
/// device is still quarantined when the run ends.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuarantineSpan {
    /// The quarantined device.
    pub dev: DeviceId,
    /// When the circuit opened.
    pub from: SimTime,
    /// When the circuit closed again (`None` = still open at run end).
    pub until: Option<SimTime>,
}

/// What the gray-failure machinery observed and did during one run (all
/// zeros/empty for a healthy run or with monitoring disabled). Reported
/// through `RunReport::health`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Final per-device EWMA health scores in `[0, 1]` (1.0 = perfectly
    /// healthy; empty when health monitoring was disabled).
    pub scores: Vec<f64>,
    /// Hedged duplicates launched by the straggler watchdog.
    pub hedges_issued: u64,
    /// Hedges that finished before their straggling primary.
    pub hedges_won: u64,
    /// Slot time of cancelled hedge losers (straggling primaries overtaken
    /// by their hedge, and hedges overtaken by their primary), net of
    /// fault losses already booked to `FaultCounters::time_lost`.
    pub time_hedged: SimTime,
    /// Silently corrupted task results injected by the schedule (ground
    /// truth; counted whether or not verification was on).
    pub corruptions_injected: u64,
    /// Injected corruptions caught by the verification policy.
    pub corruptions_detected: u64,
    /// Task results still corrupt when the run committed them (escaped
    /// detection; 0 under `DupCheck` with `sample_rate` 1.0).
    pub corrupt_committed: u64,
    /// Tasks re-executed on a peer device for verification.
    pub tasks_verified: u64,
    /// Simulated time spent on verification re-execution.
    pub time_verifying: SimTime,
    /// Epochs rolled back to their checkpoint after a detected corruption.
    pub epoch_rollbacks: u64,
    /// Circuit-breaker trips (device quarantined).
    pub circuit_opens: u64,
    /// Circuits closed again after a clean probe.
    pub circuit_closes: u64,
    /// Probe tasks dispatched to half-open devices.
    pub probes: u64,
    /// Quarantine intervals, in open order.
    pub quarantine: Vec<QuarantineSpan>,
}

impl HealthReport {
    /// Injected corruptions that were neither detected nor discarded (a
    /// hedge or rollback can discard a corrupt result without detecting
    /// it): the run's residual SDC exposure.
    pub fn detection_shortfall(&self) -> u64 {
        self.corruptions_injected
            .saturating_sub(self.corruptions_detected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_is_inert_and_valid() {
        let c = HealthConfig::disabled();
        assert!(!c.enabled());
        assert!(c.validate().is_ok());
        assert_eq!(c, HealthConfig::default());
    }

    #[test]
    fn monitored_config_is_enabled_and_valid() {
        let c = HealthConfig::monitored();
        assert!(c.enabled());
        assert!(c.validate().is_ok());
        assert!(c.watchdog.unwrap().hedging);
        assert!(c.verification.is_on());
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let mut c = HealthConfig::monitored();
        c.watchdog = Some(WatchdogConfig {
            slack: 1.0,
            hedging: true,
        });
        assert!(c.validate().is_err());

        let mut c = HealthConfig::monitored();
        c.verification = VerificationPolicy::DupCheck { sample_rate: 1.5 };
        assert!(c.validate().is_err());

        let mut c = HealthConfig::monitored();
        c.breaker = Some(BreakerConfig {
            trip_after: 0,
            cooldown: SimTime::ZERO,
        });
        assert!(c.validate().is_err());

        let mut c = HealthConfig::monitored();
        c.ewma_alpha = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn report_shortfall() {
        let r = HealthReport {
            corruptions_injected: 5,
            corruptions_detected: 3,
            ..HealthReport::default()
        };
        assert_eq!(r.detection_shortfall(), 2);
        assert_eq!(HealthReport::default().detection_shortfall(), 0);
    }
}
