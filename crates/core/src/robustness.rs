//! Robustness-aware strategy ranking.
//!
//! The paper's matchmaker ranks strategies by *healthy* performance
//! (Table I). On a platform that misbehaves mid-run — a throttled GPU, a
//! flaky PCIe link, an accelerator that drops out — the best healthy
//! strategy is not necessarily the best survivor: a static plan that
//! pinned everything to the dead device pays a full failover storm, while
//! a dynamic policy reroutes around it. This module replays every
//! candidate configuration under a [`FaultSchedule`] and ranks them by
//! **degradation** — faulty makespan over healthy makespan — so the
//! matchmaker can also answer "which strategy loses the least when the
//! platform fails?".

use crate::analyzer::Analyzer;
use crate::descriptor::AppDescriptor;
use crate::plan::Planner;
use crate::strategy::ExecutionConfig;
use hetero_platform::{FaultSchedule, FaultTrace, RetryPolicy, SimTime};
use hetero_runtime::{JournalError, NullObserver, RunReport, RunSpec};

/// One configuration's healthy/faulty pair from [`Analyzer::rank_by_degradation`].
#[derive(Clone, Debug)]
pub struct DegradationEntry {
    /// The execution configuration that was replayed.
    pub config: ExecutionConfig,
    /// Its fault-free run.
    pub healthy: RunReport,
    /// The same plan under the fault schedule.
    pub faulty: RunReport,
}

impl DegradationEntry {
    /// Faulty makespan over healthy makespan (1.0 = faults cost nothing).
    pub fn degradation(&self) -> f64 {
        self.faulty.degradation_vs(&self.healthy)
    }

    /// Slot time the faulty run burnt on fault handling and mitigation,
    /// summed over devices: fault loss + hedge waste + rollback + verify
    /// (from the faulty run's blame breakdown).
    pub fn resilience_overhead(&self) -> SimTime {
        self.faulty
            .breakdown
            .per_device
            .iter()
            .map(|b| b.resilience_overhead())
            .sum()
    }
}

impl<'a> Analyzer<'a> {
    /// Run `config` under `schedule` and record the run's *effective*
    /// fault trace: the input schedule plus every event synthesized
    /// during the run by correlated fault domains.
    /// [`FaultTrace::replay_schedule`] turns the result into a plain
    /// schedule — triggers baked in as ordinary windowed events,
    /// conditional triggering disabled — that replays this run
    /// byte-identically, and the trace's JSON form
    /// ([`FaultTrace::to_json`]) can be archived or handed back to
    /// [`Analyzer::rank_by_degradation`] as a what-if.
    pub fn record_fault_trace(
        &self,
        desc: &AppDescriptor,
        config: ExecutionConfig,
        schedule: &FaultSchedule,
        policy: RetryPolicy,
    ) -> Result<(RunReport, FaultTrace), JournalError> {
        let spec = RunSpec {
            policy,
            ..RunSpec::faulty(schedule.clone())
        };
        let report = self.execute(desc, config, &spec, &mut NullObserver, None)?;
        let schedule = spec.schedule.expect("a faulty spec carries its schedule");
        let trace = FaultTrace::new(schedule, report.synthesized_faults.clone());
        Ok((report, trace))
    }

    /// A planner that saw the perturbed platform while profiling: every
    /// device's profiled rate is scaled by the schedule's
    /// [`FaultSchedule::profile_factor`] at time zero (planning precedes
    /// the run). With no `ProfilePerturb` events this is the analyzer's
    /// own planner, unchanged.
    pub(crate) fn misprediction_planner(&self, schedule: &FaultSchedule) -> Planner<'a> {
        let p = self.planner();
        let cpu = schedule.profile_factor(p.platform.cpu().id, SimTime::ZERO);
        let gpu = p
            .platform
            .gpu()
            .map(|g| schedule.profile_factor(g.id, SimTime::ZERO))
            .unwrap_or(1.0);
        Planner {
            platform: p.platform,
            instances_per_kernel: p.instances_per_kernel,
            dynamic_instances_per_kernel: p.dynamic_instances_per_kernel,
            decision: p.decision,
            profile_skew: (p.profile_skew.0 * cpu, p.profile_skew.1 * gpu),
            profiles: p.profiles.clone(),
        }
    }

    /// Replay the §IV comparison (both single-device baselines plus every
    /// suitable strategy) healthy and under `spec`, and return the entries
    /// sorted by [`DegradationEntry::degradation`], most robust first.
    /// Ties (and everything else) stay in Table I order, so the ranking is
    /// deterministic.
    ///
    /// The mode decides the question asked: [`hetero_runtime::RunMode::Faulty`]
    /// asks "which strategy loses the least when the platform fails?",
    /// `Resilient` adds gray-failure mitigation to the loop, and
    /// `Adaptive` applies the misprediction to every candidate's plan with
    /// the controller fighting back. The healthy baseline is always the
    /// faithful fault-free run, so degradation measures the full cost net
    /// of whatever mitigation recovered.
    pub fn rank_by_degradation(
        &self,
        desc: &AppDescriptor,
        spec: &RunSpec,
    ) -> Result<Vec<DegradationEntry>, JournalError> {
        let configs = self.analyze(desc).compared_configs();
        let mut entries = configs
            .into_iter()
            .map(|config| {
                Ok(DegradationEntry {
                    config,
                    healthy: self.simulate(desc, config),
                    faulty: self.execute(desc, config, spec, &mut NullObserver, None)?,
                })
            })
            .collect::<Result<Vec<_>, JournalError>>()?;
        entries.sort_by(|a, b| {
            a.degradation()
                .partial_cmp(&b.degradation())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{
        AccessPattern, AppDescriptor, BufferSpec, ExecutionFlow, KernelSpec, SyncPolicy,
    };
    use hetero_platform::{DeviceId, Efficiency, KernelProfile, Platform, Precision, SimTime};
    use hetero_runtime::{AccessMode, HealthConfig};

    fn app() -> AppDescriptor {
        let n = 1u64 << 18;
        AppDescriptor {
            name: "robust".into(),
            buffers: vec![BufferSpec {
                name: "data".into(),
                items: n,
                item_bytes: 8,
            }],
            kernels: vec![KernelSpec {
                name: "kernel".into(),
                profile: KernelProfile {
                    flops_per_item: 65536.0,
                    bytes_per_item: 8.0,
                    fixed_flops: 0.0,
                    fixed_bytes: 0.0,
                    precision: Precision::Single,
                    cpu_efficiency: Efficiency {
                        compute: 0.25,
                        bandwidth: 0.6,
                    },
                    gpu_efficiency: Efficiency {
                        compute: 0.35,
                        bandwidth: 0.7,
                    },
                },
                domain: n,
                accesses: vec![AccessPattern::part(0, AccessMode::InOut)],
                weights: None,
            }],
            flow: ExecutionFlow::Sequence,
            sync: SyncPolicy {
                between_kernels: false,
                between_iterations: false,
            },
        }
    }

    #[test]
    fn healthy_schedule_means_no_degradation() {
        let platform = Platform::test_small();
        let analyzer = Analyzer::new(&platform);
        let schedule = FaultSchedule::new(1);
        let entries = analyzer
            .rank_by_degradation(&app(), &RunSpec::faulty(schedule))
            .unwrap();
        assert!(!entries.is_empty());
        for e in &entries {
            assert!(
                (e.degradation() - 1.0).abs() < 1e-9,
                "{}: empty schedule must not degrade (got {})",
                e.config,
                e.degradation()
            );
        }
    }

    #[test]
    fn gray_schedule_ranks_with_mitigation_in_the_loop() {
        let platform = Platform::test_small();
        let analyzer = Analyzer::new(&platform);
        // The GPU goes gray (4x straggler) for the whole run.
        let schedule = FaultSchedule::new(21).with_throttle(
            DeviceId(1),
            SimTime::ZERO,
            SimTime::from_millis(1),
            4.0,
            4.0,
        );
        let plain = analyzer
            .rank_by_degradation(&app(), &RunSpec::faulty(schedule.clone()))
            .unwrap();
        let resilient = RunSpec::resilient(schedule, HealthConfig::monitored());
        let mitigated = analyzer.rank_by_degradation(&app(), &resilient).unwrap();
        assert_eq!(plain.len(), mitigated.len());
        // Only-CPU never touches the gray device either way.
        assert_eq!(plain[0].config, ExecutionConfig::OnlyCpu);
        assert_eq!(mitigated[0].config, ExecutionConfig::OnlyCpu);
        // The mitigated replay is deterministic.
        let again = analyzer.rank_by_degradation(&app(), &resilient).unwrap();
        for (a, b) in mitigated.iter().zip(&again) {
            assert_eq!(a.faulty.makespan, b.faulty.makespan);
        }
    }

    #[test]
    fn gpu_dropout_ranks_cpu_baseline_as_most_robust() {
        let platform = Platform::test_small();
        let analyzer = Analyzer::new(&platform);
        // The GPU dies almost immediately: anything that leaned on it
        // degrades; Only-CPU never notices.
        let schedule = FaultSchedule::new(3).with_dropout(DeviceId(1), SimTime::from_micros(50));
        let entries = analyzer
            .rank_by_degradation(&app(), &RunSpec::faulty(schedule))
            .unwrap();
        let best = &entries[0];
        assert_eq!(best.config, ExecutionConfig::OnlyCpu);
        assert!((best.degradation() - 1.0).abs() < 1e-9);
        // Everything that used the GPU degraded strictly.
        let worst = entries.last().unwrap();
        assert!(worst.degradation() > 1.0);
    }
}
