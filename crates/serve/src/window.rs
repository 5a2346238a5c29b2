//! Windowed execution: the one engine for every fleet whose placement is
//! load-oblivious, static or coupled (autoscaled, failure-injected,
//! admission-shedding), bit-identical to the sequential calendar engine
//! at every worker count.
//!
//! Lifecycle events (spawn / warm / drain / fail), autoscale trigger
//! evaluations and orphan re-placement read or write **cross-shard**
//! state, so their ordering against every other event is load-bearing.
//! The windowed engine runs the *same* [`EngineCore`] the sequential
//! engine runs, but drives it in two alternating modes:
//!
//! 1. **Sequential spans.** Every event that touches cross-shard state is
//!    processed by [`EngineCore::step`] on the coordinator thread — the
//!    exact code path `run()` takes, so the interleaving is the
//!    sequential one by construction.
//! 2. **Windows.** Between those events the fleet is *quiescent*: no
//!    lifecycle event is pending before a provable horizon, placement is
//!    pure cursor arithmetic over a frozen placeable snapshot, and no
//!    autoscale trigger can fire ([`EngineCore::quiescent_horizon`]
//!    proves all three). Within `[start, horizon)` every shard's events
//!    are then independent, so the coordinator pre-places the window's
//!    arrivals (advancing the real balancer cursor) and runs each shard
//!    through the per-shard kernel [`advance_shard`], which skips the
//!    global calendar heap and the dispatch-epoch churn on every event.
//!    At one worker the kernel runs inline on the coordinator; at more,
//!    the shards fan out across `std::thread::scope` workers. At the
//!    window edge the coordinator re-derives exactly the cross-shard
//!    state the sequential engine would hold: queue totals, refreshed
//!    dispatch calendar entries, merged tallies and the sorted trace
//!    stream.
//!
//! A static fleet is the special case of a window with no pinned edges:
//! the `simulate_fleet_*_parallel` entry points run it as one window
//! spanning the whole run.
//!
//! **Window-edge pinning rules** (what forces a window to end):
//!
//! - the earliest pending lifecycle event — scheduled kill, drain,
//!   warm-up completion or idle check (idle-retirement runs disable
//!   windows outright: in-window dispatches would need to *schedule* new
//!   idle checks, a cross-shard calendar write);
//! - an armed queue-depth autoscale trigger: windows may not extend past
//!   `last_scale_up + cooldown`, the first instant the trigger could
//!   fire again (before the first spawn no bound exists, so execution
//!   stays sequential while the trigger is armed);
//! - a configured p99 trigger pins everything — its rolling latency
//!   window is global per-completion state — until the fleet is
//!   provably terminal (at `max_shards` with no lifecycle pending), after
//!   which the trigger is dead and windows reopen;
//! - the plan's `window_us` chunk size, bounding memory and barrier
//!   latency when no coupling event is pending at all.
//!
//! **What takes the fully sequential engine and why:** only load-aware
//! balancers (least-loaded, affinity-with-spill), which read every
//! shard's live load *per arrival*, so each placement is itself a
//! cross-shard read and no window can open, and one-shard fleets, which
//! have nothing to split. That placement is O(log n), not a fleet scan:
//! the sequential engine answers it from the load board's least-loaded
//! index ([`crate::fleet::LoadBoard`]).
//!
//! Identical inputs produce **byte-identical** reports and recorder
//! streams at every worker count — pinned across the coupled grid
//! (balancer × {static, autoscaled, failure-injected} × admission ×
//! deadline × workers) by `tests/engine_equivalence.rs` and the
//! worker-count invariance proptests.

use fcad_obs::{BatchEvent, Off, RequestEventKind, TraceEvent, TraceSink};

use crate::admission::{admit_traced, AdmissionController, AdmissionKind};
use crate::autoscale::{Autoscaler, FailurePlan};
use crate::calendar::{LANE_ARRIVAL, LANE_DISPATCH, LANE_LIFECYCLE};
use crate::cast::{u32_to_usize, u64_to_usize, usize_to_u32, usize_to_u64};
use crate::deadline::DeadlinePolicy;
use crate::engine::{refresh_dispatch, run, EngineCore, Shard, Tally};
use crate::fleet::{FleetConfig, LoadBalancerKind};
use crate::report::ServeReport;
use crate::request::Request;
use crate::scenario::Scenario;
use crate::scheduler::{Scheduler, SchedulerKind};

/// Tuning knobs for windowed execution. The plan never affects results —
/// only how much of the run executes in windows versus sequential spans,
/// and on how many threads.
#[derive(Debug, Clone, Copy)]
pub struct WindowPlan {
    /// Worker threads for the windows; `0` counts as `1`. One worker runs
    /// the per-shard kernel inline on the calling thread; more fan the
    /// shards out across scoped threads. Only load-aware balancers and
    /// one-shard fleets take the sequential engine instead.
    pub workers: usize,
    /// Maximum window length in microseconds of simulated time; windows
    /// end earlier at any pinned edge (lifecycle event, armed trigger
    /// gate).
    pub window_us: u64,
    /// Minimum in-window workload (pending arrivals plus queued requests)
    /// worth a window; smaller spans execute through the sequential step.
    pub min_parallel_events: usize,
}

impl WindowPlan {
    /// A plan with `workers` threads and the default window shape
    /// (100 ms windows, 128-event window threshold).
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            window_us: 100_000,
            min_parallel_events: 128,
        }
    }

    /// Replaces the maximum window length (must be non-zero).
    pub fn with_window_us(mut self, window_us: u64) -> Self {
        assert!(window_us > 0, "a window must span at least 1 us");
        self.window_us = window_us;
        self
    }

    /// Replaces the window threshold.
    pub fn with_min_parallel_events(mut self, min_parallel_events: usize) -> Self {
        self.min_parallel_events = min_parallel_events;
        self
    }
}

/// [`crate::engine::simulate_fleet`] executed by the windowed engine on
/// `workers` threads: a static fleet is a window with no pinned edges.
///
/// Identical `(config, scenario, kind)` inputs produce a report
/// byte-identical to the sequential engine at **every** worker count.
pub fn simulate_fleet_parallel(
    config: &FleetConfig,
    scenario: &Scenario,
    kind: SchedulerKind,
    workers: usize,
) -> ServeReport {
    simulate_fleet_qos_parallel(config, scenario, kind, AdmissionKind::AdmitAll, workers)
}

/// [`crate::engine::simulate_fleet_qos`] executed by the windowed engine
/// on `workers` threads. [`AdmissionKind::AdmitAll`] reproduces
/// [`simulate_fleet_parallel`] bit for bit.
pub fn simulate_fleet_qos_parallel(
    config: &FleetConfig,
    scenario: &Scenario,
    kind: SchedulerKind,
    admission: AdmissionKind,
    workers: usize,
) -> ServeReport {
    simulate_fleet_traced_parallel(config, scenario, kind, admission, &mut Off, workers)
}

/// [`simulate_fleet_qos_parallel`] with every engine event delivered to
/// `sink`, in the exact order the sequential
/// [`crate::engine::simulate_traced`] would record them.
pub fn simulate_fleet_traced_parallel(
    config: &FleetConfig,
    scenario: &Scenario,
    kind: SchedulerKind,
    admission: AdmissionKind,
    sink: &mut dyn TraceSink,
    workers: usize,
) -> ServeReport {
    simulate_windowed_traced(
        config,
        scenario,
        kind,
        &Autoscaler::none(),
        &FailurePlan::none(),
        admission,
        DeadlinePolicy::Off,
        sink,
        &static_fleet_plan(workers),
    )
}

/// [`crate::engine::simulate_fleet_deadline`] executed by the windowed
/// engine on `workers` threads. [`DeadlinePolicy::Off`] reproduces
/// [`simulate_fleet_qos_parallel`] bit for bit.
pub fn simulate_fleet_deadline_parallel(
    config: &FleetConfig,
    scenario: &Scenario,
    kind: SchedulerKind,
    admission: AdmissionKind,
    deadline: DeadlinePolicy,
    workers: usize,
) -> ServeReport {
    simulate_windowed_traced(
        config,
        scenario,
        kind,
        &Autoscaler::none(),
        &FailurePlan::none(),
        admission,
        deadline,
        &mut Off,
        &static_fleet_plan(workers),
    )
}

/// The plan behind the `simulate_fleet_*_parallel` wrappers: one window
/// spanning the whole run. Nothing pins a static fleet's windows, so
/// chunking would only add barriers and revisit every shard's state once
/// per chunk, while the window's arrival indices cost 4 bytes each.
fn static_fleet_plan(workers: usize) -> WindowPlan {
    WindowPlan::new(workers).with_window_us(u64::MAX)
}

/// [`crate::engine::simulate_autoscaled_deadline`] — the full coupled
/// stack: QoS classes, admission shedding, autoscaling, failure injection
/// and deadline culling — executed by the windowed engine.
///
/// Identical inputs produce a report byte-identical to the sequential
/// engine at every worker count; load-aware balancers and one-shard
/// fleets run the sequential loop directly (see the module docs).
#[allow(clippy::too_many_arguments)]
pub fn simulate_windowed(
    config: &FleetConfig,
    scenario: &Scenario,
    kind: SchedulerKind,
    policy: &Autoscaler,
    failures: &FailurePlan,
    admission: AdmissionKind,
    deadline: DeadlinePolicy,
    plan: &WindowPlan,
) -> ServeReport {
    simulate_windowed_traced(
        config, scenario, kind, policy, failures, admission, deadline, &mut Off, plan,
    )
}

/// [`simulate_windowed`] with every engine event delivered to `sink`, in
/// the exact order the sequential [`crate::engine::simulate_traced`]
/// would record them: sequential spans write straight through, window
/// events carry deterministic step keys and merge by sort at each window
/// edge.
#[allow(clippy::too_many_arguments)]
pub fn simulate_windowed_traced(
    config: &FleetConfig,
    scenario: &Scenario,
    kind: SchedulerKind,
    policy: &Autoscaler,
    failures: &FailurePlan,
    admission: AdmissionKind,
    deadline: DeadlinePolicy,
    sink: &mut dyn TraceSink,
    plan: &WindowPlan,
) -> ServeReport {
    windowed_run(
        config, scenario, kind, policy, failures, admission, deadline, sink, plan,
    )
    .0
}

/// The windowed engine proper: the report, plus the number of events the
/// per-shard kernel processed inside windows (`0` when the configuration
/// takes the sequential engine).
#[allow(clippy::too_many_arguments)]
fn windowed_run(
    config: &FleetConfig,
    scenario: &Scenario,
    kind: SchedulerKind,
    policy: &Autoscaler,
    failures: &FailurePlan,
    admission: AdmissionKind,
    deadline: DeadlinePolicy,
    sink: &mut dyn TraceSink,
    plan: &WindowPlan,
) -> (ServeReport, usize) {
    let windowable = matches!(
        config.balancer,
        LoadBalancerKind::RoundRobin | LoadBalancerKind::BranchSharded
    );
    let schedulers: Vec<Box<dyn Scheduler>> =
        (0..config.shard_count()).map(|_| kind.build()).collect();
    let mut controller = admission.build();
    if config.shard_count() <= 1 || !windowable {
        let report = run(
            config,
            scenario,
            schedulers,
            Some(kind),
            policy,
            failures,
            controller.as_mut(),
            deadline,
            sink,
        );
        return (report, 0);
    }
    let mut core = EngineCore::new(
        config,
        scenario,
        schedulers,
        Some(kind),
        policy,
        failures,
        controller.as_mut(),
        deadline,
        sink,
    );
    let in_windows = core.run_windowed(plan, admission);
    (core.finish(), in_windows)
}

impl<'a> EngineCore<'a, '_> {
    /// Drives the core to completion, alternating sequential spans and
    /// windows as the module docs describe. Returns the number of events
    /// the per-shard kernel processed inside windows.
    fn run_windowed(&mut self, plan: &WindowPlan, admission: AdmissionKind) -> usize {
        let mut scratch = WindowScratch::default();
        let mut in_windows = 0usize;
        while let Some(start) = self.next_instant() {
            match self.quiescent_horizon() {
                Some(horizon) => {
                    let cap = horizon.min(start.saturating_add(plan.window_us));
                    // `cap <= start`: the pinning event *is* the next event.
                    // `run_window == 0`: the window is below the threshold
                    // (or holds only work dispatchable at or after the
                    // edge). Either way, advance sequentially — `step()` is
                    // the sequential engine and is always correct.
                    let ran = if cap > start {
                        self.run_window(cap, plan, admission, &mut scratch)
                    } else {
                        0
                    };
                    in_windows += ran;
                    if ran == 0 && !self.step_until(cap) {
                        break;
                    }
                }
                None => {
                    if !self.step() {
                        break;
                    }
                }
            }
        }
        // Worker tallies only ever add (integer counts, fixed-bucket
        // histograms) and nothing reads the fleet tally mid-run, so one
        // fold at the end equals a fold per window.
        for tally in &scratch.tallies {
            self.tally.absorb(tally);
        }
        in_windows
    }

    /// The earliest pending event instant (arrival cursor vs. live
    /// calendar front), or `None` when the run is complete. Discards
    /// stale dispatch entries exactly as [`EngineCore::step`] would.
    fn next_instant(&mut self) -> Option<u64> {
        let due_arrival = self.arrivals.get(self.next_arrival).map(|r| r.issued_at_us);
        if due_arrival.is_none() && self.queued_total == 0 {
            return None;
        }
        let front = loop {
            match self.calendar.peek_key() {
                Some(key)
                    if key.lane == LANE_DISPATCH
                        && key.b != self.shards[u64_to_usize(key.a)].dispatch_epoch =>
                {
                    self.calendar.pop();
                }
                other => break other,
            }
        };
        match (due_arrival, front) {
            (Some(arrival), Some(key)) => Some(arrival.min(key.at_us)),
            (Some(arrival), None) => Some(arrival),
            (None, Some(key)) => Some(key.at_us),
            (None, None) => None,
        }
    }

    /// Runs sequential steps through every event strictly before `cap`,
    /// taking at least one step (the pinning event at the window edge
    /// when the window itself was empty). Returns `false` on run
    /// completion.
    fn step_until(&mut self, cap: u64) -> bool {
        if !self.step() {
            return false;
        }
        while self.next_instant().is_some_and(|at| at < cap) {
            if !self.step() {
                return false;
            }
        }
        true
    }

    /// Proves a quiescent horizon: the earliest instant at which an event
    /// *could* read or write cross-shard state. Every event strictly
    /// before the horizon touches only its own shard, so `[now, horizon)`
    /// may execute as a parallel window. Returns `None` when no horizon
    /// can be proved and execution must stay sequential.
    ///
    /// The proof obligations, matching the sequential engine arm by arm:
    ///
    /// - placement must be load-oblivious (`dense`) — load-aware
    ///   balancers read every shard's load per arrival;
    /// - no shard may be Warming or Draining (their transitions interact
    ///   with in-window dispatches), and at least one must be Active
    ///   (otherwise arrivals take the global lost path);
    /// - idle retirement must be off — in-window dispatch-to-empty would
    ///   have to push new idle-check calendar entries, reordering the
    ///   shared lifecycle sequence;
    /// - the earliest pending lifecycle event bounds the horizon;
    /// - a configured p99 trigger demands sequential execution until the
    ///   fleet is terminal (`max_shards` reached, no lifecycle pending):
    ///   its rolling latency window is global state written on *every*
    ///   completion, and only in the terminal state is that write
    ///   provably unobservable (the trigger is permanently gated on
    ///   `alive < max_shards`, and alive can no longer change);
    /// - an armed queue-depth trigger (arrivals remain, `alive <
    ///   max_shards`) bounds the horizon by `last_scale_up + cooldown` —
    ///   the first instant it could fire again; before the first
    ///   scale-up there is no bound, so no window opens.
    fn quiescent_horizon(&self) -> Option<u64> {
        let active = self.board.active();
        if !self.dense
            || self.policy.idle_retire_us > 0
            || self.board.warming_or_draining() > 0
            || active == 0
        {
            return None;
        }
        let next_life = self.calendar.earliest_in_lane(LANE_LIFECYCLE);
        let mut horizon = next_life.unwrap_or(u64::MAX);
        if self.spawn.is_some() {
            let terminal = active >= self.policy.max_shards && next_life.is_none();
            if self.policy.scale_up_p99_ms > 0.0 && !terminal {
                return None;
            }
            let depth_armed = self.policy.scale_up_queue_depth > 0
                && active < self.policy.max_shards
                && self.next_arrival < self.arrivals.len();
            if depth_armed {
                match self.last_scale_up {
                    Some(last) => {
                        horizon = horizon.min(last.saturating_add(self.policy.cooldown_us));
                    }
                    None => return None,
                }
            }
        }
        Some(horizon)
    }

    /// Executes every event strictly before `cap` as one window:
    /// pre-places the window's arrivals through the dense snapshot
    /// (advancing the real balancer cursor) as indices into
    /// `self.arrivals`, one list per shard, runs every shard through
    /// [`advance_shard`] — inline at one worker, across scoped threads at
    /// more — then re-derives the coordinator's cross-shard state at the
    /// window edge: queue totals, dispatch calendar entries and the
    /// sorted trace stream. Threaded workers count into the per-worker
    /// tallies in `scratch`, which [`EngineCore::run_windowed`] folds in
    /// once at the end of the run.
    ///
    /// Returns the number of events processed; `0` means the window was
    /// below the plan's threshold (nothing ran — the caller advances
    /// sequentially instead).
    fn run_window(
        &mut self,
        cap: u64,
        plan: &WindowPlan,
        admission_kind: AdmissionKind,
        scratch: &mut WindowScratch,
    ) -> usize {
        let in_window =
            self.arrivals[self.next_arrival..].partition_point(|r| r.issued_at_us < cap);
        if in_window + self.queued_total < plan.min_parallel_events.max(1) {
            return 0;
        }
        if self.placeable_dirty {
            self.rebuild_placeable();
        }
        let shard_count = self.shards.len();
        let placed = &mut scratch.placed;
        placed.resize_with(shard_count, Vec::new);
        for list in placed.iter_mut() {
            list.clear();
        }
        for index in self.next_arrival..self.next_arrival + in_window {
            let dst = self
                .balancer
                .place_dense(&self.arrivals[index], &self.placeable_ids)
                .expect("windowed execution covers only load-oblivious balancers");
            placed[dst].push(usize_to_u32(index));
        }
        self.next_arrival += in_window;

        let window = ShardWindow {
            arrivals: &self.arrivals,
            capacity: self.capacity,
            deadline: self.deadline,
            horizon_us: cap,
            split_us: self.split_us,
        };
        let tracing = self.tracing;
        let worker_count = plan.workers.clamp(1, shard_count);
        let shards = self
            .shards
            .iter_mut()
            .zip(placed.iter())
            .enumerate()
            .map(|(shard_id, (shard, order))| (shard_id, shard, order.as_slice()));
        let mut processed = 0usize;
        let mut trace: Vec<(StepKey, TraceEvent)> = Vec::new();
        if worker_count == 1 {
            let mut sink = StepSink::new(tracing);
            processed = advance_shards(shards, &window, admission_kind, &mut self.tally, &mut sink);
            trace = sink.events;
        } else {
            let mut assignments: Vec<Vec<(usize, &mut Shard<'a>, &[u32])>> =
                (0..worker_count).map(|_| Vec::new()).collect();
            for assigned in shards {
                assignments[assigned.0 % worker_count].push(assigned);
            }
            let branch_count = self.tally.issued.len();
            if scratch.tallies.len() < worker_count {
                scratch
                    .tallies
                    .resize_with(worker_count, || Tally::new(branch_count));
            }
            let window = &window;
            std::thread::scope(|scope| {
                let handles: Vec<_> = assignments
                    .into_iter()
                    .zip(scratch.tallies.iter_mut())
                    .map(|(mine, tally)| {
                        scope.spawn(move || {
                            let mut sink = StepSink::new(tracing);
                            let steps =
                                advance_shards(mine, window, admission_kind, tally, &mut sink);
                            (sink.events, steps)
                        })
                    })
                    .collect();
                for handle in handles {
                    let (events, steps) = handle.join().expect("window worker thread panicked");
                    trace.extend(events);
                    processed += steps;
                }
            });
        }

        // Barrier: re-derive the cross-shard state the sequential engine
        // would hold at the window edge. Queue total is a plain re-sum;
        // dispatch entries are refreshed and board rows re-synced per
        // shard in ascending id order (epoch bumps invalidate every
        // pre-window entry lazily); window trace events sort by step key
        // into exactly the sequential emission order, all strictly before
        // any post-window event.
        self.queued_total = self.shards.iter().map(|s| s.scheduler.queued()).sum();
        for shard in 0..shard_count {
            refresh_dispatch(&mut self.calendar, &mut self.shards, shard);
            self.sync(shard);
        }
        if tracing {
            trace.sort_unstable_by_key(|(key, _)| *key);
            for (_, event) in trace {
                self.sink.record(event);
            }
        }
        processed
    }
}

/// Buffers [`EngineCore::run_window`] reuses across the windows of one
/// run: each shard's window arrivals as indices into the arrival stream,
/// and one tally per thread worker.
#[derive(Default)]
struct WindowScratch {
    placed: Vec<Vec<u32>>,
    tallies: Vec<Tally>,
}

/// What every shard of one window shares, read-only: the run's arrival
/// stream (each shard reads its own arrivals through its index list) and
/// the window's bounds and policies.
#[derive(Clone, Copy)]
struct ShardWindow<'w> {
    arrivals: &'w [Request],
    capacity: usize,
    deadline: DeadlinePolicy,
    horizon_us: u64,
    split_us: Option<u64>,
}

/// One worker's share of a window: runs [`advance_shard`] over each
/// assigned shard in ascending id order, accumulating into one tally and
/// one step-keyed sink. Returns the events processed.
fn advance_shards<'s, 'm: 's>(
    mine: impl IntoIterator<Item = (usize, &'s mut Shard<'m>, &'s [u32])>,
    window: &ShardWindow<'_>,
    admission_kind: AdmissionKind,
    tally: &mut Tally,
    sink: &mut StepSink,
) -> usize {
    let mut processed = 0usize;
    for (shard_id, shard, order) in mine {
        let mut controller = admission_kind.build();
        processed += advance_shard(
            shard_id,
            shard,
            controller.as_mut(),
            window,
            order,
            tally,
            sink,
        );
    }
    processed
}

/// The processing-step key ordering merged trace events: the instant, the
/// lane (arrivals before dispatches, exactly the engine's tie rule), the
/// in-lane tiebreak (arrival id — global arrival order within an instant —
/// or dispatching shard id), and the event's index within its step.
type StepKey = (u64, u8, u64, u64);

/// A shard-tagging trace sink: every recorded event is stamped with the
/// current processing-step key so per-shard streams merge into the
/// sequential recording order by a plain sort.
struct StepSink {
    on: bool,
    at_us: u64,
    lane: u8,
    tie: u64,
    seq: u64,
    events: Vec<(StepKey, TraceEvent)>,
}

impl StepSink {
    fn new(on: bool) -> Self {
        Self {
            on,
            at_us: 0,
            lane: LANE_ARRIVAL,
            tie: 0,
            seq: 0,
            events: Vec::new(),
        }
    }

    fn begin_step(&mut self, at_us: u64, lane: u8, tie: u64) {
        self.at_us = at_us;
        self.lane = lane;
        self.tie = tie;
        self.seq = 0;
    }
}

impl TraceSink for StepSink {
    fn enabled(&self) -> bool {
        self.on
    }

    fn record(&mut self, event: TraceEvent) {
        self.events
            .push(((self.at_us, self.lane, self.tie, self.seq), event));
        self.seq += 1;
    }
}

/// Runs one shard's discrete-event loop over its window arrivals (`order`
/// indexes `window.arrivals`, ascending) until every event strictly
/// before the window's horizon is processed: the per-shard restriction of
/// the engine's loop — only arrival and dispatch events exist, the shard
/// never changes lifecycle phase, and arrivals win same-instant ties
/// against dispatches exactly as the calendar's lane order dictates.
/// Queued work whose dispatch instant lands at or past the horizon stays
/// queued for the next window (or the sequential engine). Returns the
/// number of events processed.
fn advance_shard(
    shard_id: usize,
    shard: &mut Shard<'_>,
    admission: &mut dyn AdmissionController,
    window: &ShardWindow<'_>,
    order: &[u32],
    tally: &mut Tally,
    sink: &mut StepSink,
) -> usize {
    let ShardWindow {
        arrivals,
        capacity,
        deadline,
        horizon_us,
        split_us,
    } = *window;
    let tracing = sink.enabled();
    let mut next_arrival = 0usize;
    let mut processed = 0usize;
    loop {
        let due_arrival = order
            .get(next_arrival)
            .map(|&index| arrivals[u32_to_usize(index)]);
        if due_arrival.is_none() && shard.scheduler.queued() == 0 {
            break;
        }
        let arrival_at = due_arrival.map_or(u64::MAX, |r| r.issued_at_us);
        if shard.scheduler.queued() > 0 && shard.dispatch_at() < arrival_at {
            let now_us = shard.dispatch_at();
            if now_us >= horizon_us {
                break;
            }
            processed += 1;
            sink.begin_step(now_us, LANE_DISPATCH, usize_to_u64(shard_id));
            // Same culling discipline as the sequential dispatch arm:
            // already-expired requests retire straight out of the queue,
            // and a fully-dead batch is followed by another pop at the
            // same instant — culling costs no fabric time.
            let batch = loop {
                let popped = shard.scheduler.next_batch(&shard.model, now_us, &[]);
                assert!(!popped.is_empty(), "{}", shard.model.empty_batch_message());
                let live = if deadline.culls() {
                    let mut live = Vec::with_capacity(popped.len());
                    for request in popped {
                        if now_us > request.deadline_us() {
                            let single_us = shard.single_cost_us[request.branch];
                            let class = request.class.index();
                            shard.backlog_us = shard.backlog_us.saturating_sub(single_us);
                            shard.class_backlog_us[class] =
                                shard.class_backlog_us[class].saturating_sub(single_us);
                            shard.expired += 1;
                            tally.expired[request.branch] += 1;
                            tally.class_expired[class] += 1;
                            if tracing {
                                sink.record(request.trace(
                                    now_us,
                                    Some(shard_id),
                                    RequestEventKind::Expired,
                                ));
                            }
                        } else {
                            live.push(request);
                        }
                    }
                    live
                } else {
                    popped
                };
                if !live.is_empty() || shard.scheduler.queued() == 0 {
                    break live;
                }
            };
            if batch.is_empty() {
                // Expiry drained the whole queue without touching the
                // fabric — `free_at_us` stays put.
                shard.pending_since_us = 0;
                continue;
            }
            let branch = batch[0].branch;
            debug_assert!(batch.iter().all(|r| r.branch == branch));
            let service_us = shard.model.batch_service_us(branch, batch.len());
            let done_us = now_us + service_us;
            shard.busy_us += service_us;
            if tracing {
                sink.record(TraceEvent::Batch(BatchEvent {
                    at_us: now_us,
                    shard: shard_id,
                    branch,
                    len: batch.len(),
                    service_us,
                }));
            }
            for request in &batch {
                let latency_us = request.latency_us(done_us);
                if tracing {
                    sink.record(request.trace(
                        now_us,
                        Some(shard_id),
                        RequestEventKind::ServiceStart,
                    ));
                    sink.record(request.trace(
                        done_us,
                        Some(shard_id),
                        RequestEventKind::Complete { latency_us },
                    ));
                }
                tally.branch_histograms[request.branch].record(latency_us);
                tally.completed[request.branch] += 1;
                let class = request.class.index();
                tally.class_histograms[class].record(latency_us);
                tally.class_completed[class] += 1;
                if request.meets_slo(done_us) {
                    tally.within_budget[class] += 1;
                }
                shard.histogram.record(latency_us);
                shard.completed += 1;
                let single_us = shard.single_cost_us[request.branch];
                shard.backlog_us = shard.backlog_us.saturating_sub(single_us);
                shard.class_backlog_us[class] =
                    shard.class_backlog_us[class].saturating_sub(single_us);
                if let Some(split) = split_us {
                    if done_us < split {
                        tally.pre_failure.record(latency_us);
                    } else {
                        tally.post_failure.record(latency_us);
                    }
                }
            }
            shard.free_at_us = done_us;
            shard.pending_since_us = 0;
        } else {
            let request = due_arrival.expect("arrival_at is finite");
            debug_assert!(
                request.issued_at_us < horizon_us,
                "window arrivals are pre-filtered to the horizon"
            );
            next_arrival += 1;
            processed += 1;
            let now_us = request.issued_at_us;
            sink.begin_step(now_us, LANE_ARRIVAL, request.id);
            if tracing {
                sink.record(request.trace(now_us, Some(shard_id), RequestEventKind::Arrival));
            }
            shard.issued += 1;
            let single_us = shard.single_cost_us[request.branch];
            let view = shard.admission_view(capacity, single_us, request.branch);
            if !admit_traced(
                admission, &request, &view, now_us, shard_id, &mut *sink, tracing,
            ) {
                tally.shed[request.branch] += 1;
                tally.class_shed[request.class.index()] += 1;
                shard.shed += 1;
            } else if shard.scheduler.queued() >= capacity {
                tally.dropped[request.branch] += 1;
                tally.class_dropped[request.class.index()] += 1;
                shard.dropped += 1;
                if tracing {
                    sink.record(request.trace(now_us, Some(shard_id), RequestEventKind::Drop));
                }
            } else {
                if shard.scheduler.queued() == 0 {
                    shard.pending_since_us = now_us;
                }
                shard.backlog_us += single_us;
                shard.class_backlog_us[request.class.index()] += single_us;
                shard.scheduler.enqueue(request, now_us);
                if tracing {
                    sink.record(request.trace(now_us, Some(shard_id), RequestEventKind::Enqueue));
                }
            }
        }
    }
    processed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate_fleet, simulate_fleet_qos, simulate_traced};
    use crate::model::test_model;
    use fcad_obs::Recorder;

    fn fleet(shards: usize, balancer: LoadBalancerKind) -> FleetConfig {
        let mut config = FleetConfig::uniform(test_model(), shards);
        config.balancer = balancer;
        config
    }

    #[test]
    fn parallel_matches_sequential_for_every_worker_count() {
        let config = fleet(4, LoadBalancerKind::RoundRobin);
        let scenario = Scenario::a2_fleet(4);
        let sequential = simulate_fleet(&config, &scenario, SchedulerKind::BatchAggregating);
        for workers in [0, 1, 2, 3, 4, 8] {
            let parallel = simulate_fleet_parallel(
                &config,
                &scenario,
                SchedulerKind::BatchAggregating,
                workers,
            );
            assert_eq!(
                sequential.to_json_line(),
                parallel.to_json_line(),
                "worker count {workers} diverged"
            );
        }
    }

    #[test]
    fn branch_sharded_and_qos_admission_decompose_too() {
        let config = fleet(3, LoadBalancerKind::BranchSharded);
        let scenario = Scenario::b2_qos().with_sessions(12);
        for admission in [
            AdmissionKind::AdmitAll,
            AdmissionKind::QueueThreshold,
            AdmissionKind::BudgetAware,
        ] {
            let sequential = simulate_fleet_qos(
                &config,
                &scenario,
                SchedulerKind::PriorityByBranch,
                admission,
            );
            let parallel = simulate_fleet_qos_parallel(
                &config,
                &scenario,
                SchedulerKind::PriorityByBranch,
                admission,
                4,
            );
            assert_eq!(sequential.to_json_line(), parallel.to_json_line());
        }
    }

    #[test]
    fn load_aware_balancers_fall_back_to_the_sequential_engine() {
        let config = fleet(3, LoadBalancerKind::LeastLoaded);
        let scenario = Scenario::b1_fleet(3);
        let sequential = simulate_fleet(&config, &scenario, SchedulerKind::Fifo);
        let parallel = simulate_fleet_parallel(&config, &scenario, SchedulerKind::Fifo, 4);
        assert_eq!(sequential.to_json_line(), parallel.to_json_line());
    }

    #[test]
    fn traced_parallel_replays_the_sequential_event_stream() {
        let config = fleet(3, LoadBalancerKind::RoundRobin);
        let scenario = Scenario::b2_fleet(3);
        let mut sequential_rec = Recorder::new();
        let sequential = simulate_traced(
            &config,
            &scenario,
            SchedulerKind::PriorityByBranch,
            &Autoscaler::none(),
            &FailurePlan::none(),
            AdmissionKind::QueueThreshold,
            &mut sequential_rec,
        );
        let mut parallel_rec = Recorder::new();
        let parallel = simulate_fleet_traced_parallel(
            &config,
            &scenario,
            SchedulerKind::PriorityByBranch,
            AdmissionKind::QueueThreshold,
            &mut parallel_rec,
            4,
        );
        assert_eq!(sequential.to_json_line(), parallel.to_json_line());
        assert_eq!(sequential_rec.events(), parallel_rec.events());
    }

    #[test]
    fn one_worker_runs_the_shard_kernel_and_matches_every_worker_count() {
        let config = fleet(8, LoadBalancerKind::RoundRobin);
        let scenario = Scenario::metropolis().with_sessions(2_000);
        let kind = SchedulerKind::BatchAggregating;
        let traced = |workers: usize| {
            let mut recorder = Recorder::new();
            let (report, in_windows) = windowed_run(
                &config,
                &scenario,
                kind,
                &Autoscaler::none(),
                &FailurePlan::none(),
                AdmissionKind::AdmitAll,
                DeadlinePolicy::Off,
                &mut recorder,
                &WindowPlan::new(workers),
            );
            (report.to_json_line(), recorder, in_windows)
        };
        // The kernel, not the sequential engine, carries the one-worker
        // run: its windows process events.
        let (one_report, one_rec, in_windows) = traced(1);
        assert!(in_windows > 0, "one worker must execute windows");
        let sequential = simulate_fleet(&config, &scenario, kind);
        assert_eq!(one_report, sequential.to_json_line());
        for workers in [0, 2] {
            let (report, recorder, _) = traced(workers);
            assert_eq!(report, one_report, "{workers} workers diverged");
            assert_eq!(
                recorder.events(),
                one_rec.events(),
                "{workers} workers' trace diverged"
            );
        }
    }
}
