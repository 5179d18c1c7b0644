//! TriTransform — a triangular row transform with an *imbalanced* workload.
//!
//! Demonstrates the ICS'14 Glinda extension ("Improving Performance by
//! Matching Imbalanced Workloads with Heterogeneous Platforms", cited as
//! the paper's reference \[9\]): row `i` of `out = L·x` costs `i+1`
//! multiply-adds — a triangular workload where splitting by item *count*
//! misloads the devices and Glinda's split-by-*work* solver is needed.
//!
//! The kernel computes `out[i] = Σ_{j ≤ i} L[i][j] · x[j]` (a forward
//! substitution-style sweep with a dense lower-triangular matrix stored in
//! full rows).

use hetero_platform::{Efficiency, KernelProfile, Precision};
use hetero_runtime::{AccessMode, BufferId, HostBuffers, KernelFn};
use matchmaker::{AccessPattern, AppDescriptor, BufferSpec, ExecutionFlow, KernelSpec, SyncPolicy};

/// The triangular matrix (one item = one row of `n` floats).
pub const BUF_L: usize = 0;
/// The input vector (read whole by every instance).
pub const BUF_X: usize = 1;
/// The output vector.
pub const BUF_OUT: usize = 2;

/// Build the descriptor: domain = rows, row `i` weighted `i+1`.
pub fn descriptor(n: u64) -> AppDescriptor {
    AppDescriptor {
        name: "TriTransform".into(),
        buffers: vec![
            BufferSpec {
                name: "L".into(),
                items: n,
                item_bytes: 4 * n,
            },
            BufferSpec {
                name: "x".into(),
                items: n,
                item_bytes: 4,
            },
            BufferSpec {
                name: "out".into(),
                items: n,
                item_bytes: 4,
            },
        ],
        kernels: vec![KernelSpec {
            name: "tritransform".into(),
            profile: KernelProfile {
                // The *average* row does (n+1)/2 MACs = ~n flops.
                flops_per_item: n as f64,
                // ... and streams ~(n/2)·4 bytes of L.
                bytes_per_item: 2.0 * n as f64,
                fixed_flops: 0.0,
                fixed_bytes: 0.0,
                precision: Precision::Single,
                cpu_efficiency: Efficiency {
                    compute: 0.30,
                    bandwidth: 0.6,
                },
                gpu_efficiency: Efficiency {
                    compute: 0.35,
                    bandwidth: 0.7,
                },
            },
            domain: n,
            accesses: vec![
                AccessPattern::part(BUF_L, AccessMode::In),
                AccessPattern::Full {
                    buffer: BUF_X,
                    mode: AccessMode::In,
                },
                AccessPattern::part(BUF_OUT, AccessMode::Out),
            ],
            weights: Some((1..=n).map(|i| i as f32).collect()),
        }],
        flow: ExecutionFlow::Sequence,
        sync: SyncPolicy::NONE,
    }
}

/// The same application with the weights *omitted* — what a count-based
/// (uniform) partitioner sees. Used to quantify the imbalance penalty.
pub fn descriptor_unweighted(n: u64) -> AppDescriptor {
    let mut d = descriptor(n);
    d.kernels[0].weights = None;
    d
}

/// Host implementation for native validation.
pub fn host_kernels(n: u64) -> Vec<KernelFn<'static>> {
    let n = n as usize;
    let kernel: KernelFn<'static> = Box::new(move |hb: &HostBuffers, task| {
        let span = task.accesses[2].region.span;
        let l = hb.get(BufferId(BUF_L));
        let x = hb.get(BufferId(BUF_X));
        let mut out = hb.get_mut(BufferId(BUF_OUT));
        for i in span.start as usize..span.end as usize {
            let mut acc = 0.0f32;
            for j in 0..=i {
                acc += l[i * n + j] * x[j];
            }
            out[i] = acc;
        }
    });
    vec![kernel]
}

/// Deterministic inputs (strictly lower-triangular-plus-diagonal `L`).
pub fn init(hb: &HostBuffers, n: u64) {
    let n = n as usize;
    let mut l = hb.get_mut(BufferId(BUF_L));
    let mut x = hb.get_mut(BufferId(BUF_X));
    for i in 0..n {
        x[i] = 1.0 + (i % 7) as f32 * 0.5;
        for j in 0..n {
            l[i * n + j] = if j <= i {
                ((i * 3 + j * 5) % 11) as f32 * 0.125 + 0.25
            } else {
                0.0
            };
        }
    }
}

/// Parallel reference.
pub fn reference(l: &[f32], x: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n];
    let band = n.div_ceil(8).max(1);
    crate::par::par_chunks_mut(&mut out, band, |b, chunk| {
        let i0 = b * band;
        for (d, o) in chunk.iter_mut().enumerate() {
            let i = i0 + d;
            let mut acc = 0.0f32;
            for j in 0..=i {
                acc += l[i * n + j] * x[j];
            }
            *o = acc;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use glinda::HardwareConfig;
    use matchmaker::{classify, AppClass, ExecutionConfig, KernelSplit, Planner};

    #[test]
    fn classified_as_sk_one_and_validates() {
        let d = descriptor(256);
        assert_eq!(classify(&d), AppClass::SkOne);
        d.validate().unwrap();
    }

    #[test]
    fn weighted_split_differs_from_count_split() {
        let platform = hetero_platform::Platform::icpp15();
        let planner = Planner::new(&platform);
        let n = 1 << 14;
        let weighted = planner.decide_kernel(&descriptor(n), 0);
        let uniform = planner.decide_kernel(&descriptor_unweighted(n), 0);
        let wg = weighted.gpu_items(n);
        let ug = uniform.gpu_items(n);
        // The GPU takes the light prefix, so by ITEM COUNT it receives more
        // items under the weighted split than under the count split.
        assert!(wg > ug, "weighted {wg} vs uniform {ug}");
    }

    #[test]
    fn weighted_plan_carries_cost_scales() {
        let platform = hetero_platform::Platform::icpp15();
        let planner = Planner::new(&platform);
        let n = 1 << 13;
        let plan = planner.plan(&descriptor(n), ExecutionConfig::OnlyCpu);
        let scales: Vec<f64> = plan
            .program
            .tasks()
            .iter()
            .map(|(_, t)| t.cost_scale)
            .collect();
        // Later instances carry heavier rows: strictly increasing scales.
        assert!(scales.windows(2).all(|w| w[0] < w[1]), "{scales:?}");
        // Scales are relative to the mean: weighted average over instances
        // (weighted by items) must be ~1.
        let total_items: u64 = plan.program.tasks().iter().map(|(_, t)| t.items).sum();
        let weighted_sum: f64 = plan
            .program
            .tasks()
            .iter()
            .map(|(_, t)| t.cost_scale * t.items as f64)
            .sum();
        assert!((weighted_sum / total_items as f64 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_bound_rows_make_weights_nearly_irrelevant() {
        // TriTransform streams each row of L across PCIe, so the GPU side
        // is transfer-bound — and transfers scale with item COUNT, not
        // weight. The imbalanced solver therefore lands close to the
        // count-based split's makespan (the interesting contrast is the
        // compute-bound case; see `binomial`). This test documents the
        // insight rather than demanding a win.
        let platform = hetero_platform::Platform::icpp15();
        let planner = Planner::new(&platform);
        let n = 1 << 14;
        let weighted = planner.decide_kernel(&descriptor(n), 0);
        let KernelSplit::Single(HardwareConfig::Hybrid(sol)) = weighted else {
            panic!("expected hybrid")
        };
        // GPU time and CPU time predicted equal by the solver.
        assert!(sol.predicted_time > 0.0);
        assert!(sol.gpu_items > 0 && sol.cpu_items > 0);
    }

    #[test]
    fn reference_matches_manual_row() {
        let n = 4;
        // L = row i has entries 1.0 up to the diagonal; x = [1,2,3,4].
        let mut l = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..=i {
                l[i * n + j] = 1.0;
            }
        }
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let out = reference(&l, &x, n);
        assert_eq!(out, vec![1.0, 3.0, 6.0, 10.0]);
    }
}
