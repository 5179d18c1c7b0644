//! Synthetic application generators.
//!
//! Used by the corpus (coverage study), by the MK-DAG experiments (the
//! paper excludes MK-DAG from the static-vs-dynamic comparison but
//! evaluates its two dynamic strategies in \[20\]), and by examples that need
//! a configurable application without a real kernel body.

use hetero_platform::{Efficiency, KernelProfile, Precision};
use hetero_runtime::AccessMode;
use matchmaker::{AccessPattern, AppDescriptor, BufferSpec, ExecutionFlow, KernelSpec, SyncPolicy};

fn profile(flops_per_item: f64) -> KernelProfile {
    KernelProfile {
        flops_per_item,
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
    }
}

/// A single-kernel application over one in-out buffer.
pub fn single_kernel(
    name: &str,
    n: u64,
    flops_per_item: f64,
    flow: ExecutionFlow,
    sync_iterations: bool,
) -> AppDescriptor {
    AppDescriptor {
        name: name.into(),
        buffers: vec![BufferSpec {
            name: "data".into(),
            items: n,
            item_bytes: 8,
        }],
        kernels: vec![KernelSpec {
            name: "kernel".into(),
            profile: profile(flops_per_item),
            domain: n,
            accesses: vec![AccessPattern::part(0, AccessMode::InOut)],
            weights: None,
        }],
        flow,
        sync: SyncPolicy {
            between_kernels: false,
            between_iterations: sync_iterations,
        },
    }
}

/// A multi-kernel pipeline: kernel `k` reads buffer `k` and writes buffer
/// `k+1 (mod 2)` alternating over two buffers, so consecutive kernels form
/// per-partition dependence chains (like STREAM).
pub fn multi_kernel(
    name: &str,
    n: u64,
    kernels: usize,
    flops_per_item: f64,
    flow: ExecutionFlow,
    sync: bool,
) -> AppDescriptor {
    let buffer = |bname: &str| BufferSpec {
        name: bname.into(),
        items: n,
        item_bytes: 8,
    };
    let kernels = (0..kernels)
        .map(|k| KernelSpec {
            name: format!("stage{k}"),
            profile: profile(flops_per_item * (1.0 + (k % 3) as f64)),
            domain: n,
            accesses: vec![
                AccessPattern::part(k % 2, AccessMode::In),
                AccessPattern::part((k + 1) % 2, AccessMode::Out),
            ],
            weights: None,
        })
        .collect();
    AppDescriptor {
        name: name.into(),
        buffers: vec![buffer("ping"), buffer("pong")],
        kernels,
        flow,
        sync: if sync {
            SyncPolicy::FULL
        } else {
            SyncPolicy::NONE
        },
    }
}

/// A fork-join DAG: kernel 0 produces a buffer; kernels `1..k-1` each
/// consume it and produce their own buffer; the final kernel reduces all
/// intermediate buffers. The middle kernels are mutually independent —
/// exactly the inter-kernel parallelism dynamic scheduling exploits.
pub fn dag(name: &str, n: u64, kernels: usize, flops_per_item: f64) -> AppDescriptor {
    assert!(
        kernels >= 3,
        "DAG needs a source, a sink and >=1 middle kernel"
    );
    let buffer = |bname: String| BufferSpec {
        name: bname,
        items: n,
        item_bytes: 8,
    };
    // Buffer 0: source output. Buffers 1..k-1: per-middle-kernel outputs.
    // Buffer k-1: sink output.
    let middles = kernels - 2;
    let mut buffers = vec![buffer("source_out".into())];
    for m in 0..middles {
        buffers.push(buffer(format!("mid{m}_out")));
    }
    buffers.push(buffer("sink_out".into()));

    let mut kspecs = vec![KernelSpec {
        name: "source".into(),
        profile: profile(flops_per_item),
        domain: n,
        accesses: vec![AccessPattern::part(0, AccessMode::Out)],
        weights: None,
    }];
    let mut edges = Vec::new();
    for m in 0..middles {
        kspecs.push(KernelSpec {
            name: format!("mid{m}"),
            profile: profile(flops_per_item * (1.0 + m as f64)),
            domain: n,
            accesses: vec![
                AccessPattern::part(0, AccessMode::In),
                AccessPattern::part(1 + m, AccessMode::Out),
            ],
            weights: None,
        });
        edges.push((0, 1 + m));
        edges.push((1 + m, kernels - 1));
    }
    let sink_reads: Vec<AccessPattern> = (0..middles)
        .map(|m| AccessPattern::part(1 + m, AccessMode::In))
        .collect();
    let mut sink_accesses = sink_reads;
    sink_accesses.push(AccessPattern::part(middles + 1, AccessMode::Out));
    kspecs.push(KernelSpec {
        name: "sink".into(),
        profile: profile(flops_per_item),
        domain: n,
        accesses: sink_accesses,
        weights: None,
    });

    AppDescriptor {
        name: name.into(),
        buffers,
        kernels: kspecs,
        flow: ExecutionFlow::Dag { edges },
        sync: SyncPolicy::NONE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchmaker::{classify, AppClass};

    #[test]
    fn generators_produce_expected_classes() {
        assert_eq!(
            classify(&single_kernel(
                "s",
                1024,
                8.0,
                ExecutionFlow::Sequence,
                false
            )),
            AppClass::SkOne
        );
        assert_eq!(
            classify(&multi_kernel(
                "m",
                1024,
                3,
                8.0,
                ExecutionFlow::Loop { iterations: 4 },
                true
            )),
            AppClass::MkLoop
        );
        assert_eq!(classify(&dag("d", 1024, 4, 8.0)), AppClass::MkDag);
    }

    #[test]
    fn dag_descriptor_validates_and_has_fork_join_shape() {
        let d = dag("d", 512, 5, 16.0);
        d.validate().unwrap();
        assert_eq!(d.kernels.len(), 5);
        assert_eq!(d.buffers.len(), 5); // source + 3 middles + sink
        let ExecutionFlow::Dag { edges } = &d.flow else {
            panic!()
        };
        assert_eq!(edges.len(), 6); // 3 fan-out + 3 fan-in
    }

    #[test]
    #[should_panic(expected = "DAG needs")]
    fn dag_requires_three_kernels() {
        let _ = dag("d", 64, 2, 1.0);
    }
}
