#![warn(missing_docs)]

//! # glinda
//!
//! A from-scratch implementation of the **Glinda** static workload
//! partitioning approach (Shen et al., HPCC 2014 "Look Before You Leap",
//! extended for imbalanced workloads in ICS 2014), which the ICPP'15
//! *matchmaking* paper uses as its static-partitioning engine (§II-A).
//!
//! Glinda answers, for a single data-parallel kernel on a heterogeneous
//! platform: *how should the `n` data items be split between the CPU and
//! the GPU so that both finish at the same moment?* It proceeds in three
//! steps, mirrored by this crate's modules:
//!
//! 1. **Modeling** ([`problem`], [`solve`](mod@solve)) — the execution of a partition
//!    is modelled per device; the optimal split equalises CPU and GPU
//!    completion times. The model is expressed through two derived metrics
//!    ([`metrics`]): the *relative hardware capability* `R` (ratio of GPU
//!    to CPU throughput) and the *GPU computation to data-transfer gap* `G`
//!    (ratio of GPU throughput to interconnect throughput).
//! 2. **Profiling** ([`profiling`]) — a low-cost probe estimates the two
//!    metrics on the actual platform/application/dataset combination.
//! 3. **Decision** ([`decision`]) — given the predicted split, choose the
//!    hardware configuration: Only-CPU, Only-GPU, or CPU+GPU with the
//!    predicted partitioning, based on whether each partition can use its
//!    processor efficiently.
//!
//! The [`imbalanced`] module extends the solver to non-uniform per-item
//! workloads (the ICS'14 contribution): the split point is found on the
//! workload's prefix sums instead of assuming cost ∝ item count;
//! [`multi`] generalises to several (non-identical) accelerators.
//!
//! ```
//! use glinda::{decide, DecisionConfig, HardwareConfig, PartitionProblem, TransferModel};
//! use glinda::profiling::estimate_rates;
//! use hetero_platform::{KernelProfile, Platform};
//!
//! let platform = Platform::icpp15();
//! let kernel = KernelProfile::compute_only(1e5);
//! let rates = estimate_rates(&platform, &kernel, 1 << 16);   // low-cost profiling
//! let problem = PartitionProblem {
//!     items: 1 << 22,
//!     cpu_rate: rates.cpu_rate,
//!     gpu_rate: rates.gpu_rate,
//!     transfer: TransferModel { h2d_bytes_per_item: 4.0, d2h_bytes_per_item: 4.0, fixed_bytes: 0.0 },
//!     link_bandwidth: 6e9,
//!     gpu_granularity: 32,
//! };
//! let config = decide(&problem, &DecisionConfig::default());  // the decision step
//! let HardwareConfig::Hybrid(split) = config else { panic!("co-execution expected") };
//! assert!(split.gpu_items > split.cpu_items); // compute-bound: GPU-heavy
//! ```

pub mod decision;
pub mod imbalanced;
pub mod metrics;
pub mod multi;
pub mod problem;
pub mod profiling;
pub mod solve;

pub use decision::{decide, DecisionConfig, HardwareConfig};
pub use imbalanced::solve_imbalanced;
pub use metrics::PartitionMetrics;
pub use multi::{
    resolve_multi_with_observations, solve_multi, AcceleratorSide, MultiDeviceProblem,
    MultiSolution,
};
pub use problem::{PartitionProblem, TransferModel};
pub use profiling::{estimate_rates, RateEstimates};
pub use solve::{resolve_with_observations, solve, PartitionSolution};
