//! Multi-accelerator partitioning.
//!
//! Glinda "supports various platforms, with one or more accelerators,
//! identical or non-identical" (§II-A). This module generalises the
//! two-way solver to a CPU plus `k` accelerators: the optimal split makes
//! every *used* device finish at the same moment.
//!
//! With per-item time `t_d` on device `d` (compute + its own link
//! transfers) and fixed offload cost `F_d`, equal finish time `T` gives
//! `n_d = (T − F_d) / t_d` and `Σ n_d = n`, hence
//!
//! ```text
//! T = (n + Σ_d F_d/t_d) / (Σ_d 1/t_d)
//! ```
//!
//! A device whose share comes out negative (its fixed cost exceeds the
//! common finish time) cannot pay for itself; it is dropped and the system
//! re-solved over the remaining devices — the multi-device analogue of the
//! paper's hardware-configuration decision.

use crate::problem::TransferModel;
use serde::{Deserialize, Serialize};

/// One accelerator's side of a multi-device problem.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorSide {
    /// Sustained kernel throughput, items/s.
    pub rate: f64,
    /// Transfer volume model for this accelerator's offload.
    pub transfer: TransferModel,
    /// Its host link bandwidth, bytes/s.
    pub link_bandwidth: f64,
    /// Partition granularity (warp size etc.).
    pub granularity: u64,
}

impl AcceleratorSide {
    /// Effective seconds per offloaded item (compute + variable transfer).
    pub fn time_per_item(&self) -> f64 {
        1.0 / self.rate + self.transfer.bytes_per_item() / self.link_bandwidth
    }

    /// Fixed seconds per offload decision.
    pub fn fixed_seconds(&self) -> f64 {
        self.transfer.fixed_bytes / self.link_bandwidth
    }
}

/// A CPU + k accelerators partitioning problem.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MultiDeviceProblem {
    /// Total items.
    pub items: u64,
    /// Whole-CPU sustained throughput, items/s.
    pub cpu_rate: f64,
    /// The accelerators.
    pub accelerators: Vec<AcceleratorSide>,
}

/// The multi-device split: `cpu_items + Σ accel_items = items`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MultiSolution {
    /// Items on the CPU.
    pub cpu_items: u64,
    /// Items per accelerator (same order as the problem's list; zero means
    /// the device was dropped by the decision).
    pub accel_items: Vec<u64>,
    /// Predicted co-execution time, seconds.
    pub predicted_time: f64,
}

impl MultiDeviceProblem {
    /// The model's co-execution time for an arbitrary split: the slowest
    /// device finishing its share (accelerators pay their fixed offload
    /// cost only when used).
    pub fn predicted_time(&self, cpu_items: u64, accel_items: &[u64]) -> f64 {
        let mut t = cpu_items as f64 / self.cpu_rate;
        for (i, a) in self.accelerators.iter().enumerate() {
            let n = accel_items.get(i).copied().unwrap_or(0);
            if n > 0 {
                t = t.max(n as f64 * a.time_per_item() + a.fixed_seconds());
            }
        }
        t
    }
}

/// Solve the equal-finish-time system, iteratively dropping accelerators
/// that cannot amortise their fixed costs, then round accelerator shares
/// to their granularities (remainder goes to the CPU).
pub fn solve_multi(problem: &MultiDeviceProblem) -> MultiSolution {
    assert!(problem.cpu_rate > 0.0 && problem.cpu_rate.is_finite());
    for a in &problem.accelerators {
        assert!(a.rate > 0.0 && a.link_bandwidth > 0.0);
    }
    let n = problem.items as f64;
    let tc = 1.0 / problem.cpu_rate;
    let k = problem.accelerators.len();
    let mut active: Vec<bool> = vec![true; k];

    // Iteratively solve; drop any active accelerator with negative share.
    let (t_star, shares) = loop {
        let mut inv_sum = 1.0 / tc; // CPU always participates
        let mut fixed_sum = 0.0;
        for (i, a) in problem.accelerators.iter().enumerate() {
            if active[i] {
                let t = a.time_per_item();
                inv_sum += 1.0 / t;
                fixed_sum += a.fixed_seconds() / t;
            }
        }
        let t_star = (n + fixed_sum) / inv_sum;
        let mut dropped = false;
        let mut shares = vec![0.0f64; k];
        for (i, a) in problem.accelerators.iter().enumerate() {
            if !active[i] {
                continue;
            }
            let share = (t_star - a.fixed_seconds()) / a.time_per_item();
            if share <= 0.0 {
                active[i] = false;
                dropped = true;
            } else {
                shares[i] = share;
            }
        }
        if !dropped {
            break (t_star, shares);
        }
    };

    // Round accelerator shares down to granularity; CPU takes the rest.
    let mut accel_items = vec![0u64; k];
    let mut assigned = 0u64;
    for (i, a) in problem.accelerators.iter().enumerate() {
        let g = a.granularity.max(1);
        let raw = shares[i].min(n) as u64;
        let rounded = (raw / g * g).min(problem.items - assigned);
        accel_items[i] = rounded;
        assigned += rounded;
    }
    let mut cpu_items = problem.items - assigned;

    let predict = |cpu_items: u64, accel_items: &[u64]| -> f64 {
        let mut t = cpu_items as f64 * tc;
        for (i, a) in problem.accelerators.iter().enumerate() {
            if accel_items[i] > 0 {
                t = t.max(accel_items[i] as f64 * a.time_per_item() + a.fixed_seconds());
            }
        }
        t
    };

    // Repair the rounding: the floor remainder landed on the CPU, which
    // may be far slower than the accelerators. Greedily move granules from
    // the CPU pool to accelerators (only onto already-used devices, so the
    // drop decision is preserved) while the predicted time improves.
    let mut predicted = predict(cpu_items, &accel_items);
    loop {
        let mut best: Option<(usize, f64)> = None;
        for (i, a) in problem.accelerators.iter().enumerate() {
            if accel_items[i] == 0 {
                continue;
            }
            let g = a.granularity.max(1);
            if cpu_items < g {
                // A partial granule stays on the CPU so accelerator shares
                // remain granularity-aligned.
                continue;
            }
            accel_items[i] += g;
            let t = predict(cpu_items - g, &accel_items);
            accel_items[i] -= g;
            if t < predicted && best.is_none_or(|(_, bt)| t < bt) {
                best = Some((i, t));
            }
        }
        match best {
            Some((i, t)) => {
                let g = problem.accelerators[i].granularity.max(1);
                accel_items[i] += g;
                cpu_items -= g;
                predicted = t;
            }
            None => break,
        }
    }

    let _ = t_star;
    MultiSolution {
        cpu_items,
        accel_items,
        predicted_time: predicted,
    }
}

/// Re-solve an N-way problem with *observed* device rates, warm-started
/// from a prior split — the multi-accelerator analogue of
/// [`crate::solve::resolve_with_observations`], and the re-solve the
/// degraded-mode plan repair feeds with the executor's measured
/// throughputs.
///
/// The original `problem` carries the transfer models and granularities;
/// the observed rates replace the (possibly mispredicted, possibly stale)
/// profile rates. `observed_accel_rates` is indexed like
/// `problem.accelerators`; a `None` entry keeps that accelerator's model
/// rate (no observation yet). The prior split competes on the corrected
/// model's terms so a repair that cannot beat the standing assignment does
/// not churn.
pub fn resolve_multi_with_observations(
    problem: &MultiDeviceProblem,
    prior: &MultiSolution,
    observed_cpu_rate: f64,
    observed_accel_rates: &[Option<f64>],
) -> MultiSolution {
    assert!(
        observed_cpu_rate.is_finite() && observed_cpu_rate > 0.0,
        "observed CPU rate must be positive and finite, got {observed_cpu_rate}"
    );
    let mut corrected = problem.clone();
    corrected.cpu_rate = observed_cpu_rate;
    for (i, a) in corrected.accelerators.iter_mut().enumerate() {
        if let Some(Some(r)) = observed_accel_rates.get(i) {
            assert!(
                r.is_finite() && *r > 0.0,
                "observed accelerator rate must be positive and finite, got {r}"
            );
            a.rate = *r;
        }
    }
    let fresh = solve_multi(&corrected);
    // Warm start: clamp the prior split to the item total, then keep it if
    // the corrected model says it already beats the fresh solve.
    let mut prior_accel: Vec<u64> = prior.accel_items.clone();
    prior_accel.resize(corrected.accelerators.len(), 0);
    let mut assigned: u64 = 0;
    for n in prior_accel.iter_mut() {
        *n = (*n).min(corrected.items - assigned);
        assigned += *n;
    }
    let prior_cpu = corrected.items - assigned;
    let prior_time = corrected.predicted_time(prior_cpu, &prior_accel);
    if prior_time < fresh.predicted_time {
        MultiSolution {
            cpu_items: prior_cpu,
            accel_items: prior_accel,
            predicted_time: prior_time,
        }
    } else {
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accel(rate: f64) -> AcceleratorSide {
        AcceleratorSide {
            rate,
            transfer: TransferModel::NONE,
            link_bandwidth: 1e9,
            granularity: 1,
        }
    }

    #[test]
    fn degenerates_to_two_way_solution() {
        // CPU 100/s, one GPU 400/s, no transfers: 80/20 like solve().
        let p = MultiDeviceProblem {
            items: 1000,
            cpu_rate: 100.0,
            accelerators: vec![accel(400.0)],
        };
        let s = solve_multi(&p);
        assert_eq!(s.cpu_items + s.accel_items[0], 1000);
        assert_eq!(s.accel_items[0], 800);
    }

    #[test]
    fn splits_proportionally_to_rates_across_three_devices() {
        let p = MultiDeviceProblem {
            items: 7000,
            cpu_rate: 100.0,
            accelerators: vec![accel(200.0), accel(400.0)],
        };
        let s = solve_multi(&p);
        assert_eq!(s.cpu_items + s.accel_items[0] + s.accel_items[1], 7000);
        // Shares proportional to 1:2:4.
        assert!((s.cpu_items as f64 - 1000.0).abs() <= 2.0, "{s:?}");
        assert!((s.accel_items[0] as f64 - 2000.0).abs() <= 2.0);
        assert!((s.accel_items[1] as f64 - 4000.0).abs() <= 2.0);
    }

    #[test]
    fn equalizes_finish_times() {
        let p = MultiDeviceProblem {
            items: 100_000,
            cpu_rate: 321.0,
            accelerators: vec![
                AcceleratorSide {
                    rate: 1234.0,
                    transfer: TransferModel {
                        h2d_bytes_per_item: 4.0,
                        d2h_bytes_per_item: 4.0,
                        fixed_bytes: 0.0,
                    },
                    link_bandwidth: 1e5,
                    granularity: 1,
                },
                accel(777.0),
            ],
        };
        let s = solve_multi(&p);
        let tc = s.cpu_items as f64 / p.cpu_rate;
        let t0 = s.accel_items[0] as f64 * p.accelerators[0].time_per_item();
        let t1 = s.accel_items[1] as f64 * p.accelerators[1].time_per_item();
        for t in [t0, t1] {
            assert!((t - tc).abs() / tc < 0.01, "tc={tc} t={t}");
        }
    }

    #[test]
    fn drops_accelerator_with_unamortisable_fixed_cost() {
        // Accelerator 1 has a huge fixed transfer (e.g. a large model
        // upload) on a tiny problem: it must be dropped.
        let p = MultiDeviceProblem {
            items: 100,
            cpu_rate: 100.0,
            accelerators: vec![
                accel(400.0),
                AcceleratorSide {
                    rate: 1e6,
                    transfer: TransferModel {
                        h2d_bytes_per_item: 0.0,
                        d2h_bytes_per_item: 0.0,
                        fixed_bytes: 1e12,
                    },
                    link_bandwidth: 1e9,
                    granularity: 1,
                },
            ],
        };
        let s = solve_multi(&p);
        assert_eq!(s.accel_items[1], 0);
        assert!(s.accel_items[0] > 0);
        assert_eq!(s.cpu_items + s.accel_items[0], 100);
    }

    #[test]
    fn granularity_rounding_conserves_total() {
        let p = MultiDeviceProblem {
            items: 10_000,
            cpu_rate: 100.0,
            accelerators: vec![
                AcceleratorSide {
                    rate: 300.0,
                    transfer: TransferModel::NONE,
                    link_bandwidth: 1e9,
                    granularity: 32,
                },
                AcceleratorSide {
                    rate: 500.0,
                    transfer: TransferModel::NONE,
                    link_bandwidth: 1e9,
                    granularity: 64,
                },
            ],
        };
        let s = solve_multi(&p);
        assert_eq!(s.accel_items[0] % 32, 0);
        assert_eq!(s.accel_items[1] % 64, 0);
        assert_eq!(s.cpu_items + s.accel_items.iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn empty_accelerator_list_gives_cpu_everything() {
        let p = MultiDeviceProblem {
            items: 500,
            cpu_rate: 10.0,
            accelerators: vec![],
        };
        let s = solve_multi(&p);
        assert_eq!(s.cpu_items, 500);
        assert!((s.predicted_time - 50.0).abs() < 1e-9);
    }

    #[test]
    fn observed_resolve_shifts_load_to_the_truly_faster_device() {
        // The model thought both accelerators ran at 400/s; in truth the
        // first runs at 100/s. The corrected split must shrink its share.
        let p = MultiDeviceProblem {
            items: 9_000,
            cpu_rate: 100.0,
            accelerators: vec![accel(400.0), accel(400.0)],
        };
        let prior = solve_multi(&p);
        let re = resolve_multi_with_observations(&p, &prior, 100.0, &[Some(100.0), None]);
        assert_eq!(re.cpu_items + re.accel_items.iter().sum::<u64>(), 9_000);
        assert!(
            re.accel_items[0] < re.accel_items[1],
            "slow device must get less: {re:?}"
        );
        assert!(re.accel_items[0] < prior.accel_items[0]);
    }

    #[test]
    fn observed_resolve_keeps_a_prior_the_corrected_model_prefers() {
        let p = MultiDeviceProblem {
            items: 1_000,
            cpu_rate: 100.0,
            accelerators: vec![accel(400.0)],
        };
        let prior = solve_multi(&p);
        // Observations match the model exactly: the prior must survive
        // (predicted times tie at worst; the prior wins only strictly, so
        // either way the split is unchanged).
        let re = resolve_multi_with_observations(&p, &prior, 100.0, &[Some(400.0)]);
        assert_eq!(re.cpu_items, prior.cpu_items);
        assert_eq!(re.accel_items, prior.accel_items);
    }

    #[test]
    fn predicted_time_matches_solver_prediction() {
        let p = MultiDeviceProblem {
            items: 7_000,
            cpu_rate: 100.0,
            accelerators: vec![accel(200.0), accel(400.0)],
        };
        let s = solve_multi(&p);
        let t = p.predicted_time(s.cpu_items, &s.accel_items);
        assert!((t - s.predicted_time).abs() < 1e-12);
    }

    #[test]
    fn identical_accelerators_get_identical_shares() {
        let p = MultiDeviceProblem {
            items: 9_000,
            cpu_rate: 100.0,
            accelerators: vec![accel(400.0), accel(400.0)],
        };
        let s = solve_multi(&p);
        assert_eq!(s.accel_items[0], s.accel_items[1]);
    }
}
