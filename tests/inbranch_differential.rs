//! Differential test of Algorithm 2 against frozen copies of its original
//! implementation.
//!
//! `frozen::for_target` and `frozen::InBranchOptimizer::optimize` below are the
//! first versions of `Parallelism::for_target` and
//! `InBranchOptimizer::optimize`, rebuilt on the public `fcad-accel` API
//! only: every divisor pair visited with `continue` prunes, and every trial
//! re-deriving every stage's parallelism and unit cost. The current code
//! prunes with `break`, hoists loop invariants and resolves each
//! (stage, lanes) once per call; it must return exactly the same designs.

use fcad::Construction;
use fcad_accel::{ConvStage, ElasticAccelerator, Parallelism, Platform, ResourceBudget};
use fcad_dse::InBranchOptimizer;
use fcad_nnir::models::{classic_benchmarks, targeted_decoder};
use fcad_nnir::{Network, Precision};
use fcad_profiler::NetworkProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod frozen {
    use fcad_accel::{
        BranchConfig, BranchPipeline, ConvStage, CostModel, Parallelism, ResourceBudget,
        StageConfig, UnitModel,
    };
    use fcad_nnir::Precision;

    pub fn for_target(stage: &ConvStage, target_lanes: usize) -> Parallelism {
        let target = target_lanes.max(1) as f64;
        let max = Parallelism::max_for(stage);
        let ideal_cycles = stage.macs.max(1) as f64;
        let mut best = Parallelism::unit();
        let mut best_score = (f64::INFINITY, 0usize);
        for &cpf in &divisors(max.cpf) {
            if cpf as f64 > target * 2.0 && cpf > 1 {
                continue;
            }
            for &kpf in &divisors(max.kpf) {
                let channel_lanes = cpf * kpf;
                if channel_lanes as f64 > target * 2.0 && channel_lanes > 1 {
                    continue;
                }
                let h_ideal = (target / channel_lanes as f64).round() as usize;
                // `h_ideal + 1` as a release build computed it: at a target
                // of `usize::MAX` lanes it wrapped to 0 (clamped to 1
                // below), where a build with overflow checks panicked.
                for h in [h_ideal, h_ideal.wrapping_add(1), h_ideal.saturating_sub(1)] {
                    let h = h.clamp(1, max.h);
                    let candidate = Parallelism::new(cpf, kpf, h);
                    let quantized_cycles = (max.cpf.div_ceil(candidate.cpf)
                        * max.kpf.div_ceil(candidate.kpf)
                        * max.h.div_ceil(candidate.h))
                        as f64
                        * (ideal_cycles / (max.cpf * max.kpf * max.h) as f64);
                    let effective_lanes = ideal_cycles / quantized_cycles.max(1.0);
                    let distance = (effective_lanes - target).abs();
                    let score = (distance, usize::MAX - channel_lanes);
                    if score.0 < best_score.0 || (score.0 == best_score.0 && score.1 < best_score.1)
                    {
                        best_score = score;
                        best = candidate;
                    }
                }
            }
        }
        best
    }

    fn divisors(n: usize) -> Vec<usize> {
        if n == 0 {
            return vec![1];
        }
        let mut out = Vec::new();
        let mut i = 1;
        while i * i <= n {
            if n.is_multiple_of(i) {
                out.push(i);
                if i != n / i {
                    out.push(n / i);
                }
            }
            i += 1;
        }
        out.sort_unstable();
        out
    }

    pub struct InBranchOptimizer<'a> {
        pub pipeline: &'a BranchPipeline,
        pub precision: Precision,
        pub frequency_hz: f64,
        pub cost: CostModel,
    }

    impl InBranchOptimizer<'_> {
        pub fn optimize(&self, budget: &ResourceBudget, target_batch: usize) -> BranchConfig {
            let stages = self.pipeline.stages();
            if stages.is_empty() {
                return BranchConfig::new(target_batch, Vec::new());
            }
            let weight_bytes: u64 = self.pipeline.weight_bytes_per_frame(self.precision).max(1);
            let bandwidth_fps =
                budget.bandwidth_bytes_per_sec * self.cost.dram_efficiency / weight_bytes as f64;
            let mut targets: Vec<usize> = stages
                .iter()
                .map(|stage| {
                    let lanes = (stage.macs as f64 * bandwidth_fps / self.frequency_hz).ceil();
                    (lanes as usize).max(1)
                })
                .collect();
            let target_batch = target_batch.max(1);
            loop {
                let batch = self.supported_batch(&targets, budget);
                if batch >= target_batch {
                    break;
                }
                if targets.iter().all(|&t| t <= 1) {
                    break;
                }
                for t in &mut targets {
                    *t = (*t / 2).max(1);
                }
            }
            let mut growable = vec![true; targets.len()];
            let mut guard = 0usize;
            while growable.iter().any(|&g| g) && guard < 512 {
                guard += 1;
                let Some(slowest) = self.slowest_growable_stage(&targets, &growable) else {
                    break;
                };
                let stage = &stages[slowest];
                let max_lanes = Parallelism::max_for(stage).total();
                let current = targets[slowest];
                if current >= max_lanes {
                    growable[slowest] = false;
                    continue;
                }
                let attempt = (current * 2).min(max_lanes);
                let mut trial = targets.clone();
                trial[slowest] = attempt;
                if self.supported_batch(&trial, budget) >= target_batch {
                    targets = trial;
                } else {
                    growable[slowest] = false;
                }
            }
            let configs = stages
                .iter()
                .zip(&targets)
                .map(|(stage, &lanes)| StageConfig::new(for_target(stage, lanes)))
                .collect();
            BranchConfig::new(target_batch, configs)
        }

        fn supported_batch(&self, targets: &[usize], budget: &ResourceBudget) -> usize {
            let mut dsp = 0usize;
            let mut bram = 0usize;
            let mut max_latency = 1u64;
            let mut weight_bytes = 0u64;
            for (stage, &lanes) in self.pipeline.stages().iter().zip(targets) {
                let unit = UnitModel::with_cost_model(
                    stage,
                    for_target(stage, lanes),
                    self.precision,
                    &self.cost,
                );
                dsp += unit.dsp();
                bram += unit.bram();
                max_latency = max_latency.max(unit.latency_cycles());
                weight_bytes += unit.weight_bytes_per_frame();
            }
            let copies_by_dsp = budget.dsp / dsp.max(1);
            let copies_by_bram = budget.bram / bram.max(1);
            let fps_single = self.frequency_hz / max_latency as f64;
            let bw_per_copy =
                weight_bytes as f64 * fps_single / self.cost.dram_efficiency.max(1e-6);
            let copies_by_bw = if bw_per_copy <= 0.0 {
                usize::MAX
            } else {
                (budget.bandwidth_bytes_per_sec / bw_per_copy).floor() as usize
            };
            copies_by_dsp.min(copies_by_bram).min(copies_by_bw)
        }

        fn slowest_growable_stage(&self, targets: &[usize], growable: &[bool]) -> Option<usize> {
            self.pipeline
                .stages()
                .iter()
                .enumerate()
                .filter(|(i, _)| growable[*i])
                .max_by_key(|(i, stage)| {
                    let p = for_target(stage, targets[*i]);
                    (stage.macs as f64 / p.total() as f64).ceil() as u64
                })
                .map(|(i, _)| i)
        }
    }
}

fn accelerator(network: &Network, platform: &Platform) -> ElasticAccelerator {
    Construction::of(network, &NetworkProfile::of(network)).instantiate(network.name(), platform)
}

/// Every stage of the decoder's accelerator and of the four classic
/// benchmarks'.
fn all_stages() -> Vec<ConvStage> {
    let platform = Platform::zu9cg();
    std::iter::once(targeted_decoder())
        .chain(classic_benchmarks())
        .flat_map(|network| {
            accelerator(&network, &platform)
                .branches()
                .iter()
                .flat_map(|branch| branch.stages().to_vec())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Lanes 1..=4096, plus every power of two up to the stage's maximum
/// parallelism and the lane counts one either side of it.
fn lane_targets(stage: &ConvStage) -> Vec<usize> {
    let max = Parallelism::max_for(stage).total();
    let mut lanes: Vec<usize> = (1..=4096).collect();
    let mut power = 1usize;
    while power <= max {
        lanes.extend([power - 1, power, power + 1]);
        match power.checked_mul(2) {
            Some(next) => power = next,
            None => break,
        }
    }
    lanes
}

#[test]
fn for_target_matches_the_frozen_copy_on_every_stage_and_lane_target() {
    let stages = all_stages();
    assert!(stages.len() > 40, "only {} stages collected", stages.len());
    for stage in &stages {
        for lanes in lane_targets(stage) {
            assert_eq!(
                Parallelism::for_target(stage, lanes),
                frozen::for_target(stage, lanes),
                "stage {} at {lanes} lanes",
                stage.name
            );
        }
    }
}

/// A seeded grid of branch budgets, from starved to far beyond any
/// platform.
fn budgets() -> Vec<ResourceBudget> {
    let mut budgets = vec![
        ResourceBudget::new(0, 0, 0.0),
        ResourceBudget::new(1, 1, 0.001),
        ResourceBudget::new(3, 3, 0.001),
        ResourceBudget::new(2520, 1824, 0.0),
        ResourceBudget::new(0, 1824, 19.2),
        ResourceBudget::new(2520, 0, 19.2),
        ResourceBudget::new(1_000_000, 1_000_000, 10_000.0),
        ResourceBudget {
            dsp: usize::MAX,
            bram: usize::MAX,
            bandwidth_bytes_per_sec: f64::INFINITY,
        },
    ];
    let mut rng = StdRng::seed_from_u64(0xF_CAD);
    for _ in 0..96 {
        budgets.push(ResourceBudget::new(
            rng.gen_range(0..4000usize),
            rng.gen_range(0..3000usize),
            // Log-uniform from 1 MB/s to 100 GB/s.
            10f64.powf(rng.gen_range(-3.0..2.0)),
        ));
    }
    budgets
}

#[test]
fn optimize_matches_the_frozen_copy_on_every_decoder_branch() {
    let budgets = budgets();
    let network = targeted_decoder();
    for platform in [Platform::zu9cg(), Platform::asic(4096, 4096, 25.6, 800.0)] {
        let acc = accelerator(&network, &platform);
        assert_eq!(acc.branch_count(), 3);
        for pipeline in acc.branches() {
            for precision in [Precision::Int8, Precision::Int16] {
                let current = InBranchOptimizer::new(pipeline, precision, acc.frequency_hz())
                    .with_cost_model(*acc.cost_model());
                let original = frozen::InBranchOptimizer {
                    pipeline,
                    precision,
                    frequency_hz: acc.frequency_hz(),
                    cost: *acc.cost_model(),
                };
                for budget in &budgets {
                    for batch in [1, 2] {
                        assert_eq!(
                            current.optimize(budget, batch),
                            original.optimize(budget, batch),
                            "branch {} on {} at {precision}, batch {batch}, budget {budget:?}",
                            pipeline.name(),
                            platform.name()
                        );
                    }
                }
            }
        }
    }
}
