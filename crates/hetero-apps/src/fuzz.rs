//! Seeded random instantiation of the [`synth`] generators —
//! the application half of the scenario fuzzing harness (DESIGN.md §8.5).
//!
//! `matchmaker::fuzz` grows *structurally* random DAGs from scratch; this
//! module instead draws from the same synthetic shapes the coverage corpus
//! uses (SK-One, SK-Loop, MK-Seq, MK-Loop, MK-DAG), with randomized sizes
//! and intensities. Both feed the same oracle bank: the structural
//! generator explores wiring the corpus never exhibits, while this one
//! keeps the fuzzer anchored to the paper's application classes.

use hetero_platform::fuzz::{chance, pick, range_f64};
use hetero_platform::FaultRng;
use matchmaker::{AppDescriptor, ExecutionFlow};

use crate::synth;

/// Draw a random corpus-shaped application: one of the five paper classes,
/// with domain size (1–64 Ki items), arithmetic intensity (4–2000
/// flops/item), kernel count (2–5 for MK shapes) and loop depth (2–6)
/// sampled from `rng`. Deterministic in the RNG stream: the same draw
/// sequence reproduces the same descriptor.
pub fn gen_corpus_app(rng: &mut FaultRng) -> AppDescriptor {
    let n = 1u64 << (10 + pick(rng, 7)); // 1 Ki .. 64 Ki items
    let flops = range_f64(rng, 4.0, 2000.0);
    match pick(rng, 5) {
        0 => synth::single_kernel("fuzz-sk-one", n, flops, ExecutionFlow::Sequence, false),
        1 => {
            let iters = 2 + pick(rng, 5) as u32;
            synth::single_kernel(
                "fuzz-sk-loop",
                n,
                flops,
                ExecutionFlow::Loop { iterations: iters },
                chance(rng, 0.5),
            )
        }
        2 => {
            let k = 2 + pick(rng, 4);
            synth::multi_kernel(
                "fuzz-mk-seq",
                n,
                k,
                flops,
                ExecutionFlow::Sequence,
                chance(rng, 0.5),
            )
        }
        3 => {
            let k = 2 + pick(rng, 4);
            let iters = 2 + pick(rng, 5) as u32;
            synth::multi_kernel(
                "fuzz-mk-loop",
                n,
                k,
                flops,
                ExecutionFlow::Loop { iterations: iters },
                chance(rng, 0.5),
            )
        }
        _ => {
            let k = 3 + pick(rng, 3);
            synth::dag("fuzz-mk-dag", n, k, flops)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchmaker::classify;

    #[test]
    fn corpus_apps_are_seed_deterministic_and_valid() {
        for seed in 0..100u64 {
            let a = gen_corpus_app(&mut FaultRng::new(seed));
            let b = gen_corpus_app(&mut FaultRng::new(seed));
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap()
            );
            assert_eq!(a.validate(), Ok(()));
            let _ = classify(&a); // classification must not panic
        }
    }

    #[test]
    fn all_five_classes_are_reachable() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..200u64 {
            let a = gen_corpus_app(&mut FaultRng::new(seed));
            seen.insert(format!("{}", classify(&a)));
        }
        assert!(seen.len() >= 5, "only reached classes: {seen:?}");
    }
}
