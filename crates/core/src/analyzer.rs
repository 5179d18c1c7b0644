//! The application analyzer (Fig. 2 of the paper).
//!
//! Input: an application descriptor (the "source code" view of the
//! parallelised application). Output: the application's class, the ranked
//! suitable strategies, the selected best strategy, and — on request — the
//! planned program and its simulated execution.

use crate::class::{classify, AppClass};
use crate::descriptor::AppDescriptor;
use crate::plan::{Plan, Planner};
use crate::ranking::{best_strategy, ranking, SyncMode};
use crate::strategy::{ExecutionConfig, Strategy};
use hetero_platform::Platform;
use hetero_runtime::{
    execute, DepScheduler, JournalError, JournalSink, NullObserver, Observer, PerfScheduler,
    PinnedScheduler, RunMode, RunReport, RunSpec,
};
use serde::{Deserialize, Serialize};

/// The analyzer's verdict for one application.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Analysis {
    /// Application name.
    pub app: String,
    /// Detected class (Fig. 3).
    pub class: AppClass,
    /// Whether inter-kernel synchronisation is required.
    pub sync: SyncMode,
    /// Suitable strategies, best first (Table I).
    pub ranking: Vec<Strategy>,
    /// The selected strategy.
    pub best: Strategy,
}

impl Analysis {
    /// The paper's §IV comparison set: both single-device baselines, then
    /// every suitable strategy in Table I rank order.
    pub fn compared_configs(&self) -> Vec<ExecutionConfig> {
        [ExecutionConfig::OnlyGpu, ExecutionConfig::OnlyCpu]
            .into_iter()
            .chain(self.ranking.iter().map(|&s| ExecutionConfig::Strategy(s)))
            .collect()
    }
}

/// The application analyzer, bound to a platform.
pub struct Analyzer<'a> {
    planner: Planner<'a>,
}

impl<'a> Analyzer<'a> {
    /// An analyzer with default planning parameters for `platform`.
    pub fn new(platform: &'a Platform) -> Self {
        Analyzer {
            planner: Planner::new(platform),
        }
    }

    /// Access the underlying planner (to tweak `m` or decision floors).
    pub fn planner_mut(&mut self) -> &mut Planner<'a> {
        &mut self.planner
    }

    /// The underlying planner.
    pub fn planner(&self) -> &Planner<'a> {
        &self.planner
    }

    /// Step 2–3 of Fig. 2: classify and select the best strategy.
    pub fn analyze(&self, desc: &AppDescriptor) -> Analysis {
        let class = classify(desc);
        let sync = SyncMode::from(desc.sync);
        Analysis {
            app: desc.name.clone(),
            class,
            sync,
            ranking: ranking(class, sync),
            best: best_strategy(class, sync),
        }
    }

    /// [`Analyzer::analyze`] with MK-DAG refinement (the paper's §VII
    /// future work, implemented in [`crate::dag`]): chain-shaped DAGs are
    /// reclassified as MK-Seq, unlocking the static strategies for them.
    pub fn analyze_refined(&self, desc: &AppDescriptor) -> Analysis {
        let class = crate::dag::refine_class(desc);
        let sync = SyncMode::from(desc.sync);
        Analysis {
            app: desc.name.clone(),
            class,
            sync,
            ranking: ranking(class, sync),
            best: best_strategy(class, sync),
        }
    }

    /// Step 4: plan a program for an execution configuration.
    pub fn plan(&self, desc: &AppDescriptor, config: ExecutionConfig) -> Plan {
        self.planner.plan(desc, config)
    }

    /// Plan and simulate one configuration fault-free: [`Analyzer::execute`]
    /// with [`RunSpec::plain`], unobserved and unjournaled.
    pub fn simulate(&self, desc: &AppDescriptor, config: ExecutionConfig) -> RunReport {
        self.execute(desc, config, &RunSpec::plain(), &mut NullObserver, None)
            .expect("a plain unjournaled run cannot fail")
    }

    /// Plan and run one configuration with the layers `spec` enables: the
    /// analyzer's one run entry. Three rules live here and nowhere else:
    ///
    /// * the scheduler is chosen by `config`: DP-Dep and DP-Perf run their
    ///   dynamic schedulers, everything else runs its pinned plan;
    /// * DP-Perf first runs the paper's excluded profiling warm-up
    ///   ([`PerfScheduler::warmed`]: `spec` capped at
    ///   [`RunMode::Resilient`], schedule through
    ///   [`hetero_runtime::warmup_schedule`]), neither observed nor
    ///   journaled, so `obs` and `journal` see exactly the measured run;
    /// * [`RunMode::Adaptive`] and [`RunMode::Repairing`] plan with the
    ///   misprediction planner (profiled rates skewed by the schedule's
    ///   `ProfilePerturb` windows open at t = 0) and hand a static plan's
    ///   [`hetero_runtime::AdaptPlan`] to the controller, which re-solves
    ///   it against observed throughputs and can escalate to DP-Perf.
    ///
    /// `journal`, when present, must already be opened with
    /// [`JournalSink::begin`] (see [`Analyzer::simulate_journaled`]). A
    /// repairing run that gave up reports it in
    /// `RunReport::adapt.replan_error`. Errors are those of
    /// [`hetero_runtime::execute`]: an invalid spec, or a journal kill or
    /// divergent replay.
    pub fn execute(
        &self,
        desc: &AppDescriptor,
        config: ExecutionConfig,
        spec: &RunSpec,
        obs: &mut dyn Observer,
        journal: Option<&mut JournalSink>,
    ) -> Result<RunReport, JournalError> {
        let mispredicted;
        let planner = if spec.mode >= RunMode::Adaptive {
            // The misprediction planner reads the schedule before the
            // executor runs, so it must not see an invalid one.
            spec.validate()?;
            mispredicted = self.misprediction_planner(spec.require_schedule()?);
            &mispredicted
        } else {
            &self.planner
        };
        let plan = planner.plan(desc, config);
        let (program, platform) = (&plan.program, planner.platform);
        match config {
            ExecutionConfig::Strategy(Strategy::DpDep) => {
                let mut s = DepScheduler::new(platform);
                execute(program, platform, &mut s, spec, None, obs, journal)
            }
            ExecutionConfig::Strategy(Strategy::DpPerf) => {
                let mut s = PerfScheduler::warmed(program, platform, spec)?;
                execute(program, platform, &mut s, spec, None, obs, journal)
            }
            _ => {
                let adapt = (spec.mode >= RunMode::Adaptive)
                    .then(|| planner.adapt_plan(desc, config))
                    .flatten();
                execute(
                    program,
                    platform,
                    &mut PinnedScheduler,
                    spec,
                    adapt,
                    obs,
                    journal,
                )
            }
        }
    }

    /// Plan and simulate the analyzer-selected best strategy.
    pub fn run_best(&self, desc: &AppDescriptor) -> (Analysis, RunReport) {
        let analysis = self.analyze(desc);
        let report = self.simulate(desc, ExecutionConfig::Strategy(analysis.best));
        (analysis, report)
    }

    /// The paper's §IV experiment for one application: simulate the two
    /// single-device baselines and every suitable strategy; returns
    /// `(config, report)` pairs with the baselines first and strategies in
    /// Table I rank order.
    pub fn compare_all(&self, desc: &AppDescriptor) -> Vec<(ExecutionConfig, RunReport)> {
        let configs = self.analyze(desc).compared_configs();
        configs
            .into_iter()
            .map(|config| (config, self.simulate(desc, config)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::tests_support::toy_descriptor;
    use crate::descriptor::ExecutionFlow;

    #[test]
    fn analysis_matches_table_i() {
        let platform = Platform::icpp15();
        let a = Analyzer::new(&platform);
        let d = toy_descriptor(1, ExecutionFlow::Sequence);
        let an = a.analyze(&d);
        assert_eq!(an.class, AppClass::SkOne);
        assert_eq!(an.best, Strategy::SpSingle);
        assert_eq!(an.ranking.len(), 3);
    }

    #[test]
    fn run_best_produces_a_report() {
        let platform = Platform::icpp15();
        let a = Analyzer::new(&platform);
        let mut d = toy_descriptor(1, ExecutionFlow::Sequence);
        // Make the kernel big enough for a hybrid split.
        d.buffers[0].items = 1 << 20;
        d.kernels[0].domain = 1 << 20;
        let (an, report) = a.run_best(&d);
        assert_eq!(an.best, Strategy::SpSingle);
        assert!(report.makespan > hetero_platform::SimTime::ZERO);
        assert_eq!(report.scheduler, "pinned");
    }

    #[test]
    fn compare_all_covers_baselines_and_ranking() {
        let platform = Platform::icpp15();
        let a = Analyzer::new(&platform);
        let mut d = toy_descriptor(1, ExecutionFlow::Sequence);
        d.buffers[0].items = 1 << 18;
        d.kernels[0].domain = 1 << 18;
        let results = a.compare_all(&d);
        assert_eq!(results.len(), 2 + 3); // OG, OC + 3 suitable strategies
        assert_eq!(results[0].0, ExecutionConfig::OnlyGpu);
        assert_eq!(results[1].0, ExecutionConfig::OnlyCpu);
        assert_eq!(results[2].0, ExecutionConfig::Strategy(Strategy::SpSingle));
    }
}
