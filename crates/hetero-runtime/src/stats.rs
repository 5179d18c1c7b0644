//! Run reports: everything the paper's figures need from one execution.

use crate::adapt::AdaptReport;
use crate::health::HealthReport;
use crate::obs::TimeBreakdown;
use crate::program::KernelId;
use hetero_platform::{DeviceId, FaultCounters, FaultEvent, PlatformCounters, SimTime};
use serde::{Deserialize, Serialize};

/// Per-kernel placement statistics (Figure 10 reports per-kernel ratios for
/// SP-Varied).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct KernelStats {
    /// Kernel name.
    pub name: String,
    /// Items processed per device (index = `DeviceId.0`).
    pub items_per_device: Vec<u64>,
    /// Instances executed per device.
    pub tasks_per_device: Vec<u64>,
}

impl KernelStats {
    /// Fraction of this kernel's items processed by `dev`.
    pub fn item_share(&self, dev: DeviceId) -> f64 {
        let total: u64 = self.items_per_device.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.items_per_device[dev.0] as f64 / total as f64
        }
    }
}

/// The result of one simulated execution.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunReport {
    /// Scheduler name ("pinned", "DP-Dep", "DP-Perf").
    pub scheduler: String,
    /// End-to-end virtual execution time (the paper's y-axes).
    pub makespan: SimTime,
    /// Device/transfer/scheduling counters.
    pub counters: PlatformCounters,
    /// Per-kernel placement stats, indexed by `KernelId.0`.
    pub per_kernel: Vec<KernelStats>,
    /// `true` per device if it is a GPU (index = `DeviceId.0`).
    pub device_is_gpu: Vec<bool>,
    /// What the fault machinery did (all zeros for a healthy run).
    pub faults: FaultCounters,
    /// Fault events synthesized *during* the run by correlated fault
    /// domains (empty without domains). Appending these to the input
    /// schedule's events — `FaultTrace::replay_schedule` does exactly
    /// that — replays the run byte-identically.
    pub synthesized_faults: Vec<FaultEvent>,
    /// What the gray-failure machinery did (empty/default when health
    /// monitoring is disabled and no corruption was injected).
    pub health: HealthReport,
    /// What the adaptive-repartitioning controller did (all zeros when
    /// adaptation is disabled or the run stayed balanced).
    pub adapt: AdaptReport,
    /// Where the makespan went: per-device slot-time decomposed into
    /// compute / transfer / scheduling / adaptation / fault-loss /
    /// hedge-waste / rollback / verify / dead / idle. Per device, the
    /// components sum to `makespan × slots`.
    pub breakdown: TimeBreakdown,
}

impl RunReport {
    /// Fraction of all items processed on GPU devices — the paper's
    /// partitioning ratio (GPU side).
    pub fn gpu_item_share(&self) -> f64 {
        let (mut gpu, mut total) = (0u64, 0u64);
        for (i, c) in self.counters.devices.iter().enumerate() {
            total += c.items;
            if self.device_is_gpu[i] {
                gpu += c.items;
            }
        }
        if total == 0 {
            0.0
        } else {
            gpu as f64 / total as f64
        }
    }

    /// CPU-side partitioning ratio.
    pub fn cpu_item_share(&self) -> f64 {
        1.0 - self.gpu_item_share()
    }

    /// Fraction of task instances placed on GPU devices (how the paper
    /// reports ratios for dynamic strategies).
    pub fn gpu_task_share(&self) -> f64 {
        let (mut gpu, mut total) = (0u64, 0u64);
        for (i, c) in self.counters.devices.iter().enumerate() {
            total += c.tasks;
            if self.device_is_gpu[i] {
                gpu += c.tasks;
            }
        }
        if total == 0 {
            0.0
        } else {
            gpu as f64 / total as f64
        }
    }

    /// Per-kernel GPU item share.
    pub fn kernel_gpu_share(&self, kernel: KernelId) -> f64 {
        let ks = &self.per_kernel[kernel.0];
        let (mut gpu, mut total) = (0u64, 0u64);
        for (i, &n) in ks.items_per_device.iter().enumerate() {
            total += n;
            if self.device_is_gpu[i] {
                gpu += n;
            }
        }
        if total == 0 {
            0.0
        } else {
            gpu as f64 / total as f64
        }
    }

    /// Degradation of this (faulty) run relative to a healthy baseline:
    /// `makespan / healthy.makespan`. 1.0 means the faults cost nothing;
    /// the matchmaker's robustness ranking sorts strategies by this ratio.
    pub fn degradation_vs(&self, healthy: &RunReport) -> f64 {
        if healthy.makespan.is_zero() {
            1.0
        } else {
            self.makespan.as_secs_f64() / healthy.makespan.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_platform::PlatformCounters;

    #[test]
    fn shares() {
        let mut counters = PlatformCounters::new(2);
        counters.record_task(DeviceId(0), 60, SimTime::from_millis(1));
        counters.record_task(DeviceId(1), 40, SimTime::from_millis(1));
        let r = RunReport {
            scheduler: "pinned".into(),
            makespan: SimTime::from_millis(10),
            counters,
            per_kernel: vec![KernelStats {
                name: "k".into(),
                items_per_device: vec![60, 40],
                tasks_per_device: vec![1, 1],
            }],
            device_is_gpu: vec![false, true],
            faults: FaultCounters::default(),
            synthesized_faults: Vec::new(),
            health: HealthReport::default(),
            adapt: AdaptReport::default(),
            breakdown: TimeBreakdown::default(),
        };
        assert!((r.gpu_item_share() - 0.4).abs() < 1e-12);
        assert!((r.cpu_item_share() - 0.6).abs() < 1e-12);
        assert!((r.gpu_task_share() - 0.5).abs() < 1e-12);
        assert!((r.kernel_gpu_share(KernelId(0)) - 0.4).abs() < 1e-12);
    }
}
