//! The three workloads. Each has a set-up, a timed body, and — when the
//! tracer is on — the same calls decomposed into one span per layer.

use std::hint::black_box;
use std::time::Instant;

use fcad::{Construction, Customization, DseParams, Fcad, FcadResult, ValidationReport};
use fcad_accel::Platform;
use fcad_bench::table4_cases;
use fcad_cyclesim::Simulator;
use fcad_dse::{DseEngine, InBranchOptimizer, ResourceDistribution};
use fcad_nnir::models::targeted_decoder;
use fcad_nnir::Precision;
use fcad_profiler::NetworkProfile;
use fcad_serve::{
    simulate_windowed, simulate_windowed_traced, AdmissionKind, Autoscaler, ClassMix,
    DeadlinePolicy, FailurePlan, FleetConfig, LoadBalancerKind, Recorder, Scenario, SchedulerKind,
    ServeReport, WindowPlan,
};

use crate::procfs;
use crate::spans::Tracer;

/// Input scale: `Full` is the benchmark of record, `Tiny` feeds the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// What one sample process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Set-up and body, tracing off: the end-to-end measurement.
    Plain,
    /// The same calls with one span per layer call.
    Traced,
    /// serve_metropolis on two window workers.
    Workers2,
    /// serve_coupled with round-robin placement in place of least-loaded.
    RoundRobin,
    /// serve_coupled narrated into an `fcad-obs` `Recorder`.
    Recorder,
}

/// One operation's outcome: a DSE case or a serve run.
#[derive(Debug, Clone)]
pub struct Op {
    pub name: String,
    /// Digest of the outputs pinned in `digests.json`; empty on error.
    pub digest: String,
    /// Whether the seed-independent checks held (design fits its budget,
    /// report conserves requests).
    pub ok: bool,
    pub why: String,
}

impl Op {
    /// An operation with outputs; `why` explains a failed check.
    fn checked(name: &str, digest: String, ok: bool, why: &str) -> Self {
        Self {
            name: name.to_owned(),
            digest,
            ok,
            why: if ok { String::new() } else { why.to_owned() },
        }
    }

    /// An operation that produced no output.
    fn failed(name: &str, why: String) -> Self {
        Self {
            name: name.to_owned(),
            digest: String::new(),
            ok: false,
            why,
        }
    }
}

/// Everything one sample measured.
#[derive(Debug)]
pub struct Sample {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of the timed body.
    pub wall_s: f64,
    /// CPU ticks (all threads) spent in the body.
    pub body_cpu_ticks: u64,
    /// Mean over the designs found of the slowest branch's FPS.
    pub design_min_fps: f64,
    pub ops: Vec<Op>,
}

/// A layer's seed derived from the benchmark seed. Seed 0 keeps the
/// repository's default, so the default-seed digests pin the inputs that
/// `reproduce` runs.
fn derive(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

const FAILURE_SEED_BASE: u64 = 0xFA11;
/// Calls per probe loop: enough for a microsecond-scale call to dominate
/// the two clock reads around the loop.
const PROBE_CALLS: u64 = 200;
/// Rounds of in-branch optimizer calls (one per branch each); a call takes
/// hundreds of microseconds, so fewer rounds suffice.
const INBRANCH_PROBE_ROUNDS: u64 = 10;
/// Set-up repetitions for design_table4, whose set-up takes microseconds.
const DESIGN_SETUP_REPS: usize = 20;

/// The harness DSE setting (`fcad_bench::dse_params(false)`, P = 48,
/// N = 12) at a seed derived from `seed`; the tiny size shrinks it to
/// P = 8, N = 2.
fn dse_params(size: Size, seed: u64) -> DseParams {
    let harness = fcad_bench::dse_params(false);
    let params = match size {
        Size::Full => harness,
        Size::Tiny => DseParams {
            population: 8,
            iterations: 2,
            ..harness
        },
    };
    params.with_seed(derive(harness.seed, seed))
}

/// One F-CAD flow ready to run: the network is built, the flow configured.
struct DesignCase {
    name: String,
    flow: Fcad,
    customization: Customization,
    params: DseParams,
}

impl DesignCase {
    fn build(
        name: String,
        platform: Platform,
        precision: Precision,
        params: DseParams,
        t: &mut Tracer,
    ) -> Self {
        t.enter("nnir.build");
        let network = black_box(targeted_decoder());
        t.exit();
        let customization = Customization::codec_avatar(precision);
        Self {
            name,
            flow: Fcad::new(network, platform)
                .with_customization(customization.clone())
                .with_dse_params(params),
            customization,
            params,
        }
    }

    /// Runs the flow: `Fcad::run` with the tracer off, the same steps
    /// called one layer at a time with it on.
    fn run(&self, t: &mut Tracer) -> fcad::Result<FcadResult> {
        if !t.is_on() {
            return self.flow.run();
        }
        let network = self.flow.network();
        let platform = self.flow.platform();
        t.enter("nnir.validate");
        let valid = network.validate();
        t.exit();
        valid?;
        t.enter("profiler.profile");
        let profile = NetworkProfile::of(network);
        t.exit();
        t.enter("core.construct");
        let construction = Construction::of(network, &profile);
        let accelerator =
            construction.instantiate(format!("{}-accelerator", network.name()), platform);
        t.exit();
        t.enter("dse.explore");
        let dse = DseEngine::new(self.params).explore(&accelerator, platform, &self.customization);
        t.exit();
        let dse = dse?;
        t.count("dse.explore.calls", 1.0);
        t.count(
            "dse.evals",
            (dse.iterations_run * self.params.population.max(1)) as f64,
        );
        t.count("dse.convergence_iter", dse.convergence_iteration as f64);
        Ok(FcadResult {
            profile,
            construction,
            accelerator,
            customization: self.customization.clone(),
            dse,
        })
    }

    /// Times single calls into the in-branch optimizer, the analytical
    /// model and the cycle-level simulator on the found design.
    fn probe(&self, result: &FcadResult, t: &mut Tracer) {
        let accelerator = &result.accelerator;
        let config = &result.dse.best_config;
        let budget = self.flow.platform().budget();
        let split = ResourceDistribution::uniform(accelerator.branch_count());

        t.enter_probe("dse.inbranch");
        for _ in 0..INBRANCH_PROBE_ROUNDS {
            for (index, pipeline) in accelerator.branches().iter().enumerate() {
                let optimizer = InBranchOptimizer::new(
                    pipeline,
                    self.customization.precision,
                    accelerator.frequency_hz(),
                )
                .with_cost_model(*accelerator.cost_model());
                black_box(optimizer.optimize(
                    &split.branch_budget(index, budget),
                    self.customization.batch_size(index),
                ));
            }
        }
        t.exit();
        t.count(
            "dse.inbranch.calls",
            (INBRANCH_PROBE_ROUNDS * accelerator.branch_count() as u64) as f64,
        );

        t.enter_probe("accel.evaluate");
        for _ in 0..PROBE_CALLS {
            black_box(accelerator.evaluate(black_box(config)).ok());
        }
        t.exit();
        t.count("accel.evaluate.calls", PROBE_CALLS as f64);

        let simulator = Simulator::for_accelerator(accelerator, budget.bandwidth_bytes_per_sec);
        t.enter_probe("cyclesim.simulate");
        for _ in 0..PROBE_CALLS {
            black_box(simulator.simulate_accelerator(accelerator, black_box(config)));
        }
        t.exit();
        t.count("cyclesim.simulate.calls", PROBE_CALLS as f64);
        let stages: usize = accelerator.branches().iter().map(|b| b.stage_count()).sum();
        t.count("cyclesim.stages", (PROBE_CALLS * stages as u64) as f64);
    }
}

/// Outcome of one design: its digest fields and budget check.
fn design_op(
    name: &str,
    platform: &Platform,
    outcome: Result<(FcadResult, Option<ValidationReport>), String>,
) -> (Op, f64) {
    match outcome {
        Err(why) => (Op::failed(name, why), 0.0),
        Ok((result, validation)) => {
            let report = result.report();
            let mut pinned = format!(
                "{:016x}|{:016x}|{}|{}",
                result.dse.best_fitness.to_bits(),
                report.min_fps.to_bits(),
                report.total_usage.dsp,
                report.total_usage.bram
            );
            if let Some(v) = &validation {
                pinned.push_str(&format!("|{:016x}", v.max_fps_error().to_bits()));
            }
            let ok = report.fits(platform.budget()) && report.min_fps > 0.0;
            let op = Op::checked(
                name,
                crate::fnv1a_hex(&pinned),
                ok,
                "design does not fit its platform or has no throughput",
            );
            (op, report.min_fps)
        }
    }
}

/// `design_table4`: the five Table IV cases through `Fcad::run`, each
/// winner checked against the cycle-level simulator. `search` picks one of
/// the workload's DSE seeds derived from `seed`; search 0 is `seed`'s own.
pub fn design_table4(size: Size, seed: u64, search: u64, t: &mut Tracer) -> Sample {
    let params = dse_params(size, seed);
    let params = params.with_seed(derive(params.seed, search));
    let table: Vec<(String, Platform, Precision)> = table4_cases()
        .into_iter()
        .enumerate()
        .map(|(index, (_, platform, precision))| {
            let name = format!(
                "case{}_{}_int{}/s{search}",
                index + 1,
                platform.name().to_lowercase(),
                precision.bits()
            );
            (name, platform, precision)
        })
        .collect();
    let reps = if t.is_on() { 1 } else { DESIGN_SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut cases = Vec::new();
    for _ in 0..reps {
        let started = Instant::now();
        cases = table
            .iter()
            .map(|(name, platform, precision)| {
                DesignCase::build(name.clone(), platform.clone(), *precision, params, t)
            })
            .collect();
        setup_s.push(started.elapsed().as_secs_f64());
    }

    let cpu_before = procfs::cpu_ticks();
    let started = Instant::now();
    let mut outcomes = Vec::with_capacity(cases.len());
    for case in &cases {
        let outcome = case.run(t).map_err(|e| e.to_string()).and_then(|result| {
            let platform = case.flow.platform();
            t.enter("core.validate");
            let validation = ValidationReport::compare(
                &result.accelerator,
                &result.dse.best_config,
                platform.budget().bandwidth_bytes_per_sec,
            );
            t.exit();
            if t.is_on() {
                case.probe(&result, t);
            }
            let validation = validation.map_err(|e| e.to_string())?;
            Ok((result, Some(validation)))
        });
        outcomes.push(outcome);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let body_cpu_ticks = procfs::cpu_ticks() - cpu_before;

    let mut ops = Vec::with_capacity(cases.len());
    let mut fps_sum = 0.0;
    for (case, outcome) in cases.iter().zip(outcomes) {
        let (op, fps) = design_op(&case.name, case.flow.platform(), outcome);
        fps_sum += fps;
        ops.push(op);
    }
    Sample {
        setup_s,
        wall_s,
        body_cpu_ticks,
        design_min_fps: fps_sum / cases.len() as f64,
        ops,
    }
}

/// Which serve workload, and the variant's substitutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeWorkload {
    Metropolis,
    Coupled,
}

/// One serve run, fully specified.
struct ServeCell {
    config: FleetConfig,
    scenario: Scenario,
    kind: SchedulerKind,
    policy: Autoscaler,
    failures: FailurePlan,
    admission: AdmissionKind,
    deadline: DeadlinePolicy,
    plan: WindowPlan,
}

impl ServeCell {
    fn new(
        workload: ServeWorkload,
        size: Size,
        seed: u64,
        variant: Variant,
        design: &FcadResult,
    ) -> Self {
        let workers = if variant == Variant::Workers2 { 2 } else { 1 };
        match workload {
            ServeWorkload::Metropolis => {
                let (sessions, min, max) = match size {
                    Size::Full => (1_050_000, 192, 256),
                    Size::Tiny => (20_000, 8, 12),
                };
                let base = Scenario::metropolis();
                let base_seed = base.seed;
                Self {
                    config: design
                        .fleet_config(min)
                        .with_balancer(LoadBalancerKind::RoundRobin),
                    scenario: base
                        .with_sessions(sessions)
                        .with_seed(derive(base_seed, seed)),
                    kind: SchedulerKind::BatchAggregating,
                    policy: Autoscaler::reactive(min, max)
                        .with_cooldown_us(0)
                        .with_idle_retire_us(0),
                    failures: FailurePlan::none(),
                    admission: AdmissionKind::AdmitAll,
                    deadline: DeadlinePolicy::Off,
                    plan: WindowPlan::new(workers),
                }
            }
            ServeWorkload::Coupled => {
                let (shards, max, kills) = match size {
                    Size::Full => (256, 320, 32),
                    Size::Tiny => (16, 20, 4),
                };
                let balancer = if variant == Variant::RoundRobin {
                    LoadBalancerKind::RoundRobin
                } else {
                    LoadBalancerKind::LeastLoaded
                };
                let base = Scenario::b2_failover(shards);
                let base_seed = base.seed;
                Self {
                    config: design.fleet_config(shards).with_balancer(balancer),
                    scenario: base
                        .with_class_mix(ClassMix::telepresence())
                        .with_seed(derive(base_seed, seed)),
                    kind: SchedulerKind::Deadline,
                    policy: Autoscaler::reactive(shards, max)
                        .with_scale_up_queue_depth(4)
                        .with_warmup_us(25_000)
                        .with_cooldown_us(80_000),
                    failures: FailurePlan::seeded(
                        derive(FAILURE_SEED_BASE, seed),
                        kills,
                        3_000_000,
                    ),
                    admission: AdmissionKind::BudgetAware,
                    deadline: DeadlinePolicy::CullExpired,
                    plan: WindowPlan::new(workers),
                }
            }
        }
    }

    fn run(&self, variant: Variant, t: &mut Tracer) -> ServeReport {
        if variant == Variant::Recorder {
            let mut recorder = Recorder::new();
            let report = simulate_windowed_traced(
                &self.config,
                &self.scenario,
                self.kind,
                &self.policy,
                &self.failures,
                self.admission,
                self.deadline,
                &mut recorder,
                &self.plan,
            );
            black_box(recorder.len());
            return report;
        }
        if t.is_on() {
            // Generation timed on its own; the engine call below repeats it.
            t.enter_probe("serve.generate");
            drop(black_box(
                self.scenario.generate(self.config.branch_count()),
            ));
            t.exit();
        }
        t.enter("serve.engine");
        let report = simulate_windowed(
            &self.config,
            &self.scenario,
            self.kind,
            &self.policy,
            &self.failures,
            self.admission,
            self.deadline,
            &self.plan,
        );
        t.exit();
        report
    }
}

/// A serve workload: the harness DSE flow (ZU17EG, 8-bit) yields the
/// service model in set-up; the body is one `simulate_windowed` run.
///
/// The set-up searches at the harness's default seed whatever `seed` is:
/// designs found at other seeds differ by up to 25 % in FPS, which would
/// swamp the serve engine's own seed-to-seed variation. `seed` varies the
/// traffic and the failures.
pub fn serve(
    workload: ServeWorkload,
    size: Size,
    seed: u64,
    variant: Variant,
    t: &mut Tracer,
) -> Sample {
    let started = Instant::now();
    let platform = Platform::zu17eg();
    let case = DesignCase::build(
        "design".to_owned(),
        platform.clone(),
        Precision::Int8,
        dse_params(size, 0),
        t,
    );
    let design = case.run(t);
    t.enter("serve.setup");
    let cell = design
        .as_ref()
        .ok()
        .map(|d| ServeCell::new(workload, size, seed, variant, d));
    t.exit();
    let setup_s = vec![started.elapsed().as_secs_f64()];

    let cpu_before = procfs::cpu_ticks();
    let started = Instant::now();
    let report = cell.as_ref().map(|cell| cell.run(variant, t));
    let wall_s = started.elapsed().as_secs_f64();
    let body_cpu_ticks = procfs::cpu_ticks() - cpu_before;

    let (design_op, design_min_fps) = design_op(
        "design",
        &platform,
        design.map(|d| (d, None)).map_err(|e| e.to_string()),
    );
    let mut ops = vec![design_op];
    let serve_name = if variant == Variant::RoundRobin {
        "serve_rr"
    } else {
        "serve"
    };
    match report {
        None => ops.push(Op::failed(serve_name, "no design to serve on".to_owned())),
        Some(report) => {
            t.count("serve.issued", report.issued as f64);
            t.count("serve.completed", report.completed as f64);
            t.count(
                "serve.events",
                (report.issued
                    + report.completed
                    + report.dropped
                    + report.lost
                    + report.shed
                    + report.expired) as f64,
            );
            ops.push(Op::checked(
                serve_name,
                crate::fnv1a_hex(&report.to_json_line()),
                report.conserves_requests() && report.issued > 0,
                "report does not conserve requests",
            ));
        }
    }
    Sample {
        setup_s,
        wall_s,
        body_cpu_ticks,
        design_min_fps,
        ops,
    }
}
