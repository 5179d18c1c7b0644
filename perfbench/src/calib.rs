//! Reference-speed time: the clock every end-to-end time is read on.
//!
//! On a shared machine the host speed of this benchmark's process moves by
//! up to 2× between runs and within one (other tenants on the same cores),
//! far more than any bound a regression gate could use. So every timed
//! stretch — an op, or a batch of set-up builds — is divided by the time
//! of this fixed, benchmark-owned kernel, run right before and right after
//! it: a slow patch slows both, and the ratio keeps only the program's own
//! cost. The ratio is then multiplied by [`REF_PASS_S`], which turns it
//! back into seconds as the defining machine measures them when quiet.
//!
//! The kernel formats, parses and orders small JSON-like strings in a
//! `BTreeMap` — allocation-, string- and branch-heavy like the codec, the
//! planner and the event loop. Of the candidate kernels measured, it
//! tracked the workloads' host-speed swings best.
//!
//! Never change the kernel or [`REF_PASS_S`] without re-measuring every
//! baseline: the end-to-end times are read on them.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::Rng;

/// Host seconds of one kernel pass on the defining machine (a 2-vCPU KVM
/// guest, Intel Xeon) in a quiet period: the median over the paper-matrix
/// and journaled-run runs that fixed the baselines.
pub const REF_PASS_S: f64 = 5.07e-3;

/// Reference time on each side of a timed stretch, as a share of it.
const SHARE: f64 = 0.2;

/// One pass of the reference kernel.
fn kernel() {
    let mut rng = Rng::new(9);
    let mut map: BTreeMap<String, u64> = BTreeMap::new();
    for _ in 0..10_000 {
        let key = format!(
            "{{\"key\":{},\"v\":{:.3}}}",
            rng.next_u64() % 50_000,
            (rng.next_u64() % 1000) as f64 / 7.0
        );
        *map.entry(key).or_insert(0) += 1;
    }
    let mut digits = 0u64;
    for key in map.keys() {
        digits += key.chars().filter(|c| c.is_ascii_digit()).count() as u64;
    }
    std::hint::black_box(digits);
}

/// Run kernel passes for about `SHARE` of `stretch_s` (at least one) and
/// return the host seconds per pass.
pub fn pass_s(stretch_s: f64) -> f64 {
    let start = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || start.elapsed().as_secs_f64() < SHARE * stretch_s {
        kernel();
        passes += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(passes)
}

/// `host_s` read on the reference clock, given the kernel's pass time
/// measured right before and right after it.
pub fn reference_s(host_s: f64, pass_before: f64, pass_after: f64) -> f64 {
    host_s / ((pass_before + pass_after) / 2.0) * REF_PASS_S
}
