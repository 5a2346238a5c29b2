//! Inputs that used to hang the serving engine must fail fast instead.
//!
//! A `BranchService.max_batch` of 0 makes the batch scheduler pop an
//! empty batch from a non-empty queue; the dispatch loop would then spin
//! forever in release builds. Both the sequential engine and the windowed
//! engine's per-shard kernel must panic with a message naming the field
//! and the branch.

mod common;

use common::three_branch_model;
use fcad_serve::{
    simulate, simulate_windowed, AdmissionKind, Autoscaler, DeadlinePolicy, FailurePlan,
    FleetConfig, LoadBalancerKind, Scenario, SchedulerKind, ServiceModel, WindowPlan,
};

/// The three-branch model with the texture branch unable to batch.
fn zero_batch_model() -> ServiceModel {
    let mut model = three_branch_model();
    model.branches[1].max_batch = 0;
    model
}

#[test]
#[should_panic(expected = "BranchService.max_batch is 0 for branch 1 (`texture`)")]
fn zero_max_batch_fails_fast_in_the_sequential_engine() {
    simulate(
        &zero_batch_model(),
        &Scenario::a1(),
        SchedulerKind::BatchAggregating,
    );
}

#[test]
#[should_panic(expected = "BranchService.max_batch is 0 for branch 1 (`texture`)")]
fn zero_max_batch_fails_fast_in_the_one_worker_kernel() {
    let config =
        FleetConfig::uniform(zero_batch_model(), 4).with_balancer(LoadBalancerKind::RoundRobin);
    simulate_windowed(
        &config,
        &Scenario::metropolis().with_sessions(2_000),
        SchedulerKind::BatchAggregating,
        &Autoscaler::none(),
        &FailurePlan::none(),
        AdmissionKind::AdmitAll,
        DeadlinePolicy::Off,
        &WindowPlan::new(1),
    );
}
