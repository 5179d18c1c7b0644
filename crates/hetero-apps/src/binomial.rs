//! BinomialPricing — American option pricing on CRR binomial lattices with
//! *per-option* tree depths: a compute-bound **imbalanced** workload.
//!
//! Option `i` uses a lattice of `depth(i)` steps (longer-dated contracts
//! get deeper trees), so its cost grows as `depth²` while its data
//! footprint stays a constant 20 B in / 4 B out. This is the regime where
//! Glinda's imbalanced split (ICS'14, the paper's reference \[9\]) clearly
//! beats splitting by option count: the prefix of shallow trees is cheap,
//! and a count-based split starves one side.

use hetero_platform::{Efficiency, KernelProfile, Precision};
use hetero_runtime::{AccessMode, BufferId, HostBuffers, KernelFn};
use matchmaker::{AccessPattern, AppDescriptor, BufferSpec, ExecutionFlow, KernelSpec, SyncPolicy};

/// Option parameters (5 floats: S, K, T, r, v).
pub const BUF_IN: usize = 0;
/// Prices (1 float per option).
pub const BUF_OUT: usize = 1;

/// Flops per lattice node (up/down discounting + early-exercise max).
const FLOPS_PER_NODE: f64 = 6.0;

/// Lattice depth for option `i` of `n`: shallow for the early (short-dated)
/// options, deep for the late ones — 32..=32+spread steps, deterministic.
pub fn depth(i: u64, n: u64, spread: u64) -> u64 {
    32 + (i * spread) / n.max(1)
}

/// Per-option work weights (`depth²` lattice nodes, up to a constant).
pub fn weights(n: u64, spread: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let d = depth(i, n, spread) as f32;
            d * d
        })
        .collect()
}

/// Build the descriptor. `spread` controls the imbalance (max extra steps
/// of the deepest tree over the shallowest 32).
pub fn descriptor(n: u64, spread: u64) -> AppDescriptor {
    let w = weights(n, spread);
    let mean_nodes = w.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
    AppDescriptor {
        name: "BinomialPricing".into(),
        buffers: vec![
            BufferSpec {
                name: "options".into(),
                items: n,
                item_bytes: 20,
            },
            BufferSpec {
                name: "prices".into(),
                items: n,
                item_bytes: 4,
            },
        ],
        kernels: vec![KernelSpec {
            name: "binomial".into(),
            profile: KernelProfile {
                // The *average* option's lattice cost.
                flops_per_item: FLOPS_PER_NODE * mean_nodes,
                bytes_per_item: 24.0,
                fixed_flops: 0.0,
                fixed_bytes: 0.0,
                precision: Precision::Single,
                cpu_efficiency: Efficiency {
                    compute: 0.20,
                    bandwidth: 0.5,
                },
                gpu_efficiency: Efficiency {
                    compute: 0.30,
                    bandwidth: 0.8,
                },
            },
            domain: n,
            accesses: vec![
                AccessPattern::part(BUF_IN, AccessMode::In),
                AccessPattern::part(BUF_OUT, AccessMode::Out),
            ],
            weights: Some(w),
        }],
        flow: ExecutionFlow::Sequence,
        sync: SyncPolicy::NONE,
    }
}

/// The same application with weights omitted (count-based partitioning).
pub fn descriptor_unweighted(n: u64, spread: u64) -> AppDescriptor {
    let mut d = descriptor(n, spread);
    d.kernels[0].weights = None;
    d
}

/// Price one American put on a CRR lattice of `steps` steps.
pub fn price_put(s: f32, k: f32, t: f32, r: f32, v: f32, steps: usize) -> f32 {
    let dt = t / steps as f32;
    let up = (v * dt.sqrt()).exp();
    let down = 1.0 / up;
    let disc = (-r * dt).exp();
    let p = ((r * dt).exp() - down) / (up - down);
    let q = 1.0 - p;
    // Terminal payoffs.
    let mut values: Vec<f32> = (0..=steps)
        .map(|j| {
            let st = s * up.powi(j as i32) * down.powi((steps - j) as i32);
            (k - st).max(0.0)
        })
        .collect();
    // Backward induction with early exercise.
    for step in (0..steps).rev() {
        for j in 0..=step {
            let st = s * up.powi(j as i32) * down.powi((step - j) as i32);
            let cont = disc * (q * values[j] + p * values[j + 1]);
            values[j] = cont.max(k - st);
        }
    }
    values[0]
}

/// Host implementation for native validation. `n`/`spread` must match the
/// descriptor.
pub fn host_kernels(n: u64, spread: u64) -> Vec<KernelFn<'static>> {
    let kernel: KernelFn<'static> = Box::new(move |hb: &HostBuffers, task| {
        let span = task.accesses[1].region.span;
        let input = hb.get(BufferId(BUF_IN));
        let mut out = hb.get_mut(BufferId(BUF_OUT));
        for i in span.start..span.end {
            let ix = i as usize;
            let steps = depth(i, n, spread) as usize;
            out[ix] = price_put(
                input[ix * 5],
                input[ix * 5 + 1],
                input[ix * 5 + 2],
                input[ix * 5 + 3],
                input[ix * 5 + 4],
                steps,
            );
        }
    });
    vec![kernel]
}

/// Deterministic option book (maturities grow with the index, matching the
/// depth schedule).
pub fn init(hb: &HostBuffers, n: u64) {
    let mut input = hb.get_mut(BufferId(BUF_IN));
    for i in 0..n as usize {
        input[i * 5] = 80.0 + (i % 40) as f32;
        input[i * 5 + 1] = 100.0;
        input[i * 5 + 2] = 0.25 + 2.0 * i as f32 / n as f32;
        input[i * 5 + 3] = 0.03;
        input[i * 5 + 4] = 0.35;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchmaker::{classify, AppClass, KernelSplit, Planner};

    #[test]
    fn classified_and_valid() {
        let d = descriptor(4096, 480);
        assert_eq!(classify(&d), AppClass::SkOne);
        d.validate().unwrap();
    }

    #[test]
    fn american_put_dominates_european_intrinsic_bounds() {
        // Basic no-arbitrage sanity: price >= intrinsic, price >= 0,
        // deeper trees converge (successive refinements get close).
        let (s, k, t, r, v) = (90.0, 100.0, 1.0, 0.05, 0.3);
        let p64 = price_put(s, k, t, r, v, 64);
        let p128 = price_put(s, k, t, r, v, 128);
        let p256 = price_put(s, k, t, r, v, 256);
        assert!(p64 >= (k - s) - 1e-3);
        assert!((p128 - p256).abs() < (p64 - p256).abs() + 1e-4);
        assert!(p256 > 0.0 && p256 < k);
    }

    #[test]
    fn deep_in_the_money_put_is_exercised_immediately() {
        let p = price_put(10.0, 100.0, 1.0, 0.05, 0.3, 128);
        assert!((p - 90.0).abs() < 0.5, "{p}");
    }

    #[test]
    fn weighted_split_beats_count_split_in_the_device_model() {
        let platform = hetero_platform::Platform::icpp15();
        let planner = Planner::new(&platform);
        let n = 1 << 16;
        let spread = 960;
        let evaluate = |split: &KernelSplit| -> f64 {
            let ng = split.gpu_items(n);
            let desc = descriptor(n, spread);
            let profile = &desc.kernels[0].profile;
            let w = weights(n, spread);
            let total: f64 = w.iter().map(|&x| x as f64).sum();
            let mean = total / n as f64;
            let gpu_work: f64 = w[..ng as usize].iter().map(|&x| x as f64).sum::<f64>() / mean;
            let cpu_work: f64 = w[ng as usize..].iter().map(|&x| x as f64).sum::<f64>() / mean;
            let t_gpu = platform
                .gpu()
                .unwrap()
                .exec_time_whole_device_weighted(profile, ng, gpu_work / ng.max(1) as f64)
                .as_secs_f64();
            let t_cpu = platform
                .cpu()
                .exec_time_whole_device_weighted(profile, n - ng, cpu_work / (n - ng).max(1) as f64)
                .as_secs_f64();
            t_gpu.max(t_cpu)
        };
        let weighted = planner.decide_kernel(&descriptor(n, spread), 0);
        let uniform = planner.decide_kernel(&descriptor_unweighted(n, spread), 0);
        let tw = evaluate(&weighted);
        let tu = evaluate(&uniform);
        assert!(
            tw < tu * 0.92,
            "weighted {tw:.4}s should beat count-based {tu:.4}s by >8%"
        );
    }

    #[test]
    fn simulated_execution_confirms_the_weighted_win() {
        // Same comparison through the full simulator: plan both splits,
        // run both against the TRUE weighted program.
        let platform = hetero_platform::Platform::icpp15();
        let planner = Planner::new(&platform);
        let n = 1 << 16;
        let spread = 960;
        let run_with_split = |ng: u64| {
            // Emit a weighted program manually with the given GPU share.
            let desc = descriptor(n, spread);
            let plan_src = planner.plan(&desc, matchmaker::ExecutionConfig::OnlyCpu);
            let _ = plan_src;
            let mut b = hetero_runtime::Program::builder();
            let bin = b.buffer("options", n, 20);
            let bout = b.buffer("prices", n, 4);
            let k = b.kernel("binomial", desc.kernels[0].profile);
            let w = weights(n, spread);
            let total: f64 = w.iter().map(|&x| x as f64).sum();
            let mean = total / n as f64;
            let mut emit = |s: u64, e: u64, dev: hetero_platform::DeviceId| {
                let work: f64 = w[s as usize..e as usize].iter().map(|&x| x as f64).sum();
                b.submit(hetero_runtime::TaskDesc {
                    kernel: k,
                    items: e - s,
                    accesses: vec![
                        hetero_runtime::Access::read(hetero_runtime::Region::new(bin, s, e)),
                        hetero_runtime::Access::write(hetero_runtime::Region::new(bout, s, e)),
                    ],
                    pinned: Some(dev),
                    cost_scale: work / ((e - s) as f64 * mean),
                });
            };
            if ng > 0 {
                emit(0, ng, hetero_platform::DeviceId(1));
            }
            // CPU side in 24 chunks.
            for (s, e) in hetero_runtime::split_even(n - ng, 24) {
                emit(ng + s, ng + e, hetero_platform::DeviceId(0));
            }
            let program = b.build();
            hetero_runtime::simulate(&program, &platform, &mut hetero_runtime::PinnedScheduler)
                .makespan
        };
        let weighted_ng = planner
            .decide_kernel(&descriptor(n, spread), 0)
            .gpu_items(n);
        let uniform_ng = planner
            .decide_kernel(&descriptor_unweighted(n, spread), 0)
            .gpu_items(n);
        let tw = run_with_split(weighted_ng);
        let tu = run_with_split(uniform_ng);
        assert!(
            tw.as_secs_f64() < tu.as_secs_f64() * 0.95,
            "weighted {tw} vs count-based {tu}"
        );
    }
}
