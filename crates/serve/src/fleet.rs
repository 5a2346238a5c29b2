//! Fleet configuration and load balancing: many accelerators, one queue of
//! avatar traffic.
//!
//! Auto-CARD-style deployments judge a codec-avatar pipeline under many
//! concurrent users, not single-decoder FPS, and one time-multiplexed
//! accelerator tops out at a handful of sessions. A [`FleetConfig`] scales
//! the serving simulation to a fleet of devices: each shard is one
//! accelerator with its own [`ServiceModel`] (heterogeneous fleets mix
//! fast and slow devices), its own scheduler instance and its own
//! front-end queue, while a fleet-level [`LoadBalancerKind`] places every
//! arriving request on a shard.
//!
//! Placement is where identity weights matter. A codec-avatar shard keeps
//! the per-identity decoder weights of the sessions it serves resident, so
//! a session that sticks to one shard amortizes its weight fill across
//! dispatches, while a session that wanders re-streams weights everywhere.
//! The affinity-first balancer models exactly that: a session is pinned to
//! the shard that last admitted its identity and only spills (re-pinning)
//! when the pinned shard's queue is full. The least-loaded balancer instead
//! chases the readiness signal the [`Scheduler`](crate::Scheduler) trait
//! already exposes as `branch_free_us`: each shard's fabric-free instant
//! plus its queued backlog, in microseconds.

use crate::autoscale::ShardState;
use crate::model::ServiceModel;
use crate::request::Request;
use serde::{Deserialize, Serialize};

/// How the fleet front end places arriving requests on shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoadBalancerKind {
    /// Static rotation over the shards, one request at a time. Ignores
    /// load entirely — the baseline every adaptive policy must beat.
    RoundRobin,
    /// Picks the shard with the smallest load in microseconds: the
    /// fabric-free hint (`branch_free_us` at fleet granularity) plus the
    /// estimated service backlog of its queue; ties fall to the shallower
    /// queue, then the lowest shard index. Shards with queue space win
    /// over full ones. The engine answers each pick from an O(log n)
    /// index over the shards' loads, not a scan of the fleet.
    LeastLoaded,
    /// Session affinity with spill: a session is pinned to the shard that
    /// last admitted one of its requests (its identity weights are
    /// resident there), and spills to the least-loaded shard with queue
    /// space — re-pinning, as the weights migrate — only when the pinned
    /// shard's queue is full.
    AffinityFirst,
    /// Static per-branch sharding: branch `b` lands on shard
    /// `b % shard_count`, so each shard streams weights for only a slice
    /// of the branches.
    BranchSharded,
}

impl LoadBalancerKind {
    /// All built-in balancing policies. Returns a slice so adding a
    /// policy does not ripple a fixed array length through every call
    /// site.
    pub fn all() -> &'static [LoadBalancerKind] {
        &[
            LoadBalancerKind::RoundRobin,
            LoadBalancerKind::LeastLoaded,
            LoadBalancerKind::AffinityFirst,
            LoadBalancerKind::BranchSharded,
        ]
    }

    /// Policy name (used in reports).
    pub fn name(&self) -> &'static str {
        match self {
            LoadBalancerKind::RoundRobin => "round_robin",
            LoadBalancerKind::LeastLoaded => "least_loaded",
            LoadBalancerKind::AffinityFirst => "affinity",
            LoadBalancerKind::BranchSharded => "branch_sharded",
        }
    }
}

/// A fleet of accelerator shards serving one scenario's traffic.
///
/// Every shard needs the same branch structure (the scenario issues one
/// request per branch per frame), but shards may differ in speed: a
/// heterogeneous fleet mixes, say, a ZU17EG shard with a smaller ZCU104
/// one, and the balancer sees the difference through each shard's backlog.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Per-shard service models, in shard order.
    pub shards: Vec<ServiceModel>,
    /// Placement policy for arriving requests.
    pub balancer: LoadBalancerKind,
}

impl FleetConfig {
    /// A homogeneous fleet: `shard_count` copies of `model` (at least one),
    /// balanced round-robin until [`FleetConfig::with_balancer`] says
    /// otherwise.
    pub fn uniform(model: ServiceModel, shard_count: usize) -> Self {
        Self {
            shards: vec![model; shard_count.max(1)],
            balancer: LoadBalancerKind::RoundRobin,
        }
    }

    /// A heterogeneous fleet from explicit per-shard models. Every model
    /// must expose the same branch structure — same count, same names and
    /// same priorities in the same order (speeds, fills and batch sizes
    /// may differ); an empty list is rejected. The report's per-branch
    /// rows merge shards by branch index and quote one priority per
    /// branch, so mismatched structures would sum unrelated branches or
    /// misreport how half the fleet scheduled them.
    pub fn heterogeneous(shards: Vec<ServiceModel>) -> Self {
        let config = Self {
            shards,
            balancer: LoadBalancerKind::RoundRobin,
        };
        config.assert_valid();
        config
    }

    /// Panics unless the fleet is well-formed: at least one shard, every
    /// branch priority finite, and every shard sharing one branch
    /// structure (same count, names and priorities). The constructors
    /// enforce this, but the fields are public (and deserializable), so
    /// the engine re-checks through the same gate before a run.
    pub fn assert_valid(&self) {
        assert!(!self.shards.is_empty(), "a fleet needs at least one shard");
        // Checked first: a NaN priority differs from itself, so the
        // structure check below would misreport it as a mismatch.
        for model in &self.shards {
            for (index, branch) in model.branches.iter().enumerate() {
                assert!(
                    branch.priority.is_finite(),
                    "branch {index} (`{}`) has a non-finite priority: {}",
                    branch.name,
                    branch.priority
                );
            }
        }
        assert!(
            self.shards.iter().all(|m| {
                m.branch_count() == self.shards[0].branch_count()
                    && m.branches
                        .iter()
                        .zip(&self.shards[0].branches)
                        .all(|(a, b)| a.name == b.name && a.priority == b.priority)
            }),
            "every shard must expose the same branch structure"
        );
    }

    /// Replaces the placement policy.
    pub fn with_balancer(mut self, balancer: LoadBalancerKind) -> Self {
        self.balancer = balancer;
        self
    }

    /// Number of shards in the fleet.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Branch count of the fleet (shared by every shard).
    pub fn branch_count(&self) -> usize {
        self.shards.first().map_or(0, ServiceModel::branch_count)
    }
}

/// One shard's live load, as the balancer sees it at placement time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardLoad {
    /// Requests currently queued on the shard.
    pub queued: usize,
    /// Instant the shard's fabric frees (its last dispatch completion).
    pub free_at_us: u64,
    /// Estimated service time of the queued requests, µs (each counted at
    /// its unbatched single-request cost).
    pub backlog_us: u64,
}

impl ShardLoad {
    /// The shard's load in microseconds as of `now_us`: remaining busy
    /// time plus queued backlog — the fleet-level reading of the
    /// `branch_free_us` readiness hint.
    fn load_us(&self, now_us: u64) -> u64 {
        self.free_at_us.saturating_sub(now_us) + self.backlog_us
    }
}

/// One shard's row on the [`LoadBoard`]: its lifecycle phase and live
/// load, mirrored from the engine's shard after every mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BoardRow {
    pub phase: ShardState,
    pub load: ShardLoad,
}

/// A least-loaded index key: `(load, queued, global id)`. The idle tree
/// stores the load itself (the backlog); the busy tree stores
/// `free_at + backlog`, which orders busy shards by load at any fixed
/// instant.
type LoadKey = (u64, usize, usize);
const NO_LOAD: LoadKey = (u64::MAX, usize::MAX, usize::MAX);
/// A busy shard's `(free_at, global id)`, ordering the busy-to-idle moves.
type ExpiryKey = (u64, usize);
const NO_EXPIRY: ExpiryKey = (u64::MAX, usize::MAX);

/// A min-tournament tree over shard ids: leaf `id` holds that shard's key
/// (or the `absent` sentinel) and every inner node the smaller of its two
/// children, so the fleet-wide minimum is the root and an update costs
/// one leaf-to-root walk.
#[derive(Debug)]
struct MinTree<K> {
    /// `nodes[1]` is the root; the leaves are `nodes[leaves..]`.
    nodes: Vec<K>,
    absent: K,
}

impl<K: Copy + Ord> MinTree<K> {
    fn new(absent: K) -> Self {
        Self {
            nodes: vec![absent; 2],
            absent,
        }
    }

    fn leaves(&self) -> usize {
        self.nodes.len() / 2
    }

    fn min(&self) -> K {
        self.nodes[1]
    }

    fn set(&mut self, id: usize, key: K) {
        let mut node = self.leaves() + id;
        if self.nodes[node] == key {
            return;
        }
        self.nodes[node] = key;
        while node > 1 {
            node /= 2;
            let best = self.nodes[2 * node].min(self.nodes[2 * node + 1]);
            if self.nodes[node] == best {
                return;
            }
            self.nodes[node] = best;
        }
    }

    /// Grows to hold `len` leaves (rounded up to a power of two), keeping
    /// every key.
    fn grow(&mut self, len: usize) {
        let old = self.leaves();
        let leaves = len.next_power_of_two();
        if leaves <= old {
            return;
        }
        let mut nodes = vec![self.absent; 2 * leaves];
        nodes[leaves..leaves + old].copy_from_slice(&self.nodes[old..]);
        for node in (1..leaves).rev() {
            nodes[node] = nodes[2 * node].min(nodes[2 * node + 1]);
        }
        self.nodes = nodes;
    }
}

/// The sequential engine's per-shard load board: one row per shard, the
/// fleet counters the autoscaler and the lifecycle guards read, and —
/// for load-aware balancers — an exact least-loaded index.
///
/// The engine re-syncs a shard's row after every mutation of its phase,
/// queue, fabric-free instant or backlog, so placement and the
/// queue-depth trigger read O(1) counters and an O(log n) index instead
/// of rescanning the fleet per arrival.
///
/// The index reproduces [`least_loaded`]'s order `(load_us(now), queued,
/// id)` over the Active shards with queue space. A shard's load is its
/// backlog once its fabric is free, and `free_at − now + backlog` while it
/// is busy, so idle and busy shards live in separate trees whose keys do
/// not move with time; a third tree over the busy shards' `free_at`
/// moves them to the idle tree as the placement clock passes it. When no
/// Active shard has space (or none is Active) the pick falls back to a
/// scan of the board — the rare case.
#[derive(Debug)]
pub(crate) struct LoadBoard {
    rows: Vec<BoardRow>,
    capacity: usize,
    active: usize,
    alive: usize,
    warming_or_draining: usize,
    active_queued: usize,
    /// Whether the index is kept (load-aware balancers only: the
    /// load-oblivious ones never read it).
    indexed: bool,
    /// The last placement instant; event time never decreases.
    clock_us: u64,
    /// Active shards with queue space and a free fabric
    /// (`free_at ≤ clock`).
    idle: MinTree<LoadKey>,
    /// Active shards with queue space and a busy fabric
    /// (`free_at > clock`).
    busy: MinTree<LoadKey>,
    expiry: MinTree<ExpiryKey>,
}

impl LoadBoard {
    pub(crate) fn new(capacity: usize, indexed: bool) -> Self {
        Self {
            rows: Vec::new(),
            capacity,
            active: 0,
            alive: 0,
            warming_or_draining: 0,
            active_queued: 0,
            indexed,
            clock_us: 0,
            idle: MinTree::new(NO_LOAD),
            busy: MinTree::new(NO_LOAD),
            expiry: MinTree::new(NO_EXPIRY),
        }
    }

    /// Appends the row of a newly constructed or spawned shard.
    pub(crate) fn push(&mut self, row: BoardRow) {
        let id = self.rows.len();
        // A retired, empty row counts towards nothing; `sync` then moves
        // every counter and the index to the real row.
        self.rows.push(BoardRow {
            phase: ShardState::Retired,
            load: ShardLoad {
                queued: 0,
                free_at_us: 0,
                backlog_us: 0,
            },
        });
        if self.indexed {
            self.idle.grow(id + 1);
            self.busy.grow(id + 1);
            self.expiry.grow(id + 1);
        }
        self.sync(id, row);
    }

    /// Replaces shard `id`'s row, updating the counters and the index.
    pub(crate) fn sync(&mut self, id: usize, row: BoardRow) {
        let old = std::mem::replace(&mut self.rows[id], row);
        if old == row {
            return;
        }
        if old.phase == ShardState::Active {
            self.active -= 1;
            self.active_queued -= old.load.queued;
        }
        if old.phase.is_alive() {
            self.alive -= 1;
        }
        if matches!(old.phase, ShardState::Warming | ShardState::Draining) {
            self.warming_or_draining -= 1;
        }
        if row.phase == ShardState::Active {
            self.active += 1;
            self.active_queued += row.load.queued;
        }
        if row.phase.is_alive() {
            self.alive += 1;
        }
        if matches!(row.phase, ShardState::Warming | ShardState::Draining) {
            self.warming_or_draining += 1;
        }
        if self.indexed {
            self.reindex(id);
        }
    }

    /// Shard `id`'s current row.
    pub(crate) fn row(&self, id: usize) -> BoardRow {
        self.rows[id]
    }

    /// Shards serving and accepting placements.
    pub(crate) fn active(&self) -> usize {
        self.active
    }

    /// Shards still in the fleet (warming, active or draining).
    pub(crate) fn alive(&self) -> usize {
        self.alive
    }

    /// Shards mid-transition (warming or draining).
    pub(crate) fn warming_or_draining(&self) -> usize {
        self.warming_or_draining
    }

    /// Requests queued on the Active shards.
    pub(crate) fn active_queued(&self) -> usize {
        self.active_queued
    }

    /// The phase of the placeable shards: Active, or — only when none is
    /// Active — Warming (their queues hold until warmed, but the work is
    /// not lost).
    fn placeable_phase(&self) -> ShardState {
        if self.active > 0 {
            ShardState::Active
        } else {
            ShardState::Warming
        }
    }

    /// The placeable rows in ascending id order.
    pub(crate) fn placeable(&self) -> impl Iterator<Item = (usize, &BoardRow)> + '_ {
        let wanted = self.placeable_phase();
        self.rows
            .iter()
            .enumerate()
            .filter(move |(_, row)| row.phase == wanted)
    }

    /// The `(global id, load)` candidates [`Balancer::place`] takes.
    fn placeable_loads(&self) -> Vec<(usize, ShardLoad)> {
        self.placeable().map(|(id, row)| (id, row.load)).collect()
    }

    /// Whether shard `id` is placeable and has queue space.
    fn has_space(&self, id: usize) -> bool {
        self.rows.get(id).is_some_and(|row| {
            row.load.queued < self.capacity && row.phase == self.placeable_phase()
        })
    }

    /// The least-loaded placeable shard at `now_us`, exactly as
    /// [`least_loaded`] picks it over [`LoadBoard::placeable`]; `None`
    /// when no shard is placeable.
    fn least_loaded(&mut self, now_us: u64) -> Option<usize> {
        debug_assert!(self.indexed, "the least-loaded index is off");
        debug_assert!(
            now_us >= self.clock_us,
            "placement time went backwards: {now_us} < {}",
            self.clock_us
        );
        self.clock_us = now_us;
        loop {
            let (free_at_us, id) = self.expiry.min();
            if (free_at_us, id) == NO_EXPIRY || free_at_us > now_us {
                break;
            }
            self.reindex(id);
        }
        let idle = Some(self.idle.min()).filter(|&key| key != NO_LOAD);
        let busy = Some(self.busy.min())
            .filter(|&key| key != NO_LOAD)
            .map(|(due_us, queued, id)| (due_us - now_us, queued, id));
        match idle.into_iter().chain(busy).min() {
            Some((_, _, id)) => Some(id),
            None => {
                let loads = self.placeable_loads();
                (!loads.is_empty()).then(|| least_loaded(&loads, now_us, self.capacity))
            }
        }
    }

    /// Moves shard `id` to the tree its row and the clock call for (an
    /// unchanged leaf costs no tree walk).
    fn reindex(&mut self, id: usize) {
        let BoardRow { phase, load } = self.rows[id];
        let (idle, busy, expiry) = if phase != ShardState::Active || load.queued >= self.capacity {
            (NO_LOAD, NO_LOAD, NO_EXPIRY)
        } else if load.free_at_us <= self.clock_us {
            ((load.backlog_us, load.queued, id), NO_LOAD, NO_EXPIRY)
        } else {
            (
                NO_LOAD,
                (load.free_at_us + load.backlog_us, load.queued, id),
                (load.free_at_us, id),
            )
        };
        self.idle.set(id, idle);
        self.busy.set(id, busy);
        self.expiry.set(id, expiry);
    }
}

/// The stateful placement engine behind a [`LoadBalancerKind`]: a
/// round-robin cursor and the per-session affinity table.
#[derive(Debug)]
pub(crate) struct Balancer {
    kind: LoadBalancerKind,
    next_round_robin: usize,
    affinity: Vec<Option<usize>>,
}

impl Balancer {
    pub(crate) fn new(kind: LoadBalancerKind) -> Self {
        Self {
            kind,
            next_round_robin: 0,
            affinity: Vec::new(),
        }
    }

    /// Picks the shard for `request` among the placeable candidates, given
    /// as `(global shard id, load)` pairs — a dynamic fleet's warming,
    /// draining and dead shards are simply absent from the slice, and the
    /// returned id is the global one. The engine still drops the request
    /// if the chosen shard's queue is full; adaptive policies steer away
    /// from full queues when any candidate has space.
    pub(crate) fn place(
        &mut self,
        request: &Request,
        shards: &[(usize, ShardLoad)],
        now_us: u64,
        capacity: usize,
    ) -> usize {
        match self.kind {
            LoadBalancerKind::RoundRobin => {
                let shard = shards[self.next_round_robin % shards.len()].0;
                self.next_round_robin = (self.next_round_robin + 1) % shards.len();
                shard
            }
            LoadBalancerKind::BranchSharded => shards[request.branch % shards.len()].0,
            LoadBalancerKind::LeastLoaded => least_loaded(shards, now_us, capacity),
            LoadBalancerKind::AffinityFirst => {
                match self.affinity.get(request.session).copied().flatten() {
                    // The pinned shard holds this identity's weights; stay
                    // while it is placeable and has queue space. A pin to a
                    // failed or draining shard is simply not among the
                    // candidates, so the session re-places (and re-pins)
                    // through the least-loaded fallback.
                    Some(pinned)
                        if shards
                            .iter()
                            .any(|&(id, load)| id == pinned && load.queued < capacity) =>
                    {
                        pinned
                    }
                    _ => least_loaded(shards, now_us, capacity),
                }
            }
        }
    }

    /// [`Balancer::place`] plus the arrival trace event: the placement
    /// decision is the first thing that happens to a request, so the
    /// balancer is where its `Arrival` event (stamped with the chosen
    /// shard) enters the trace.
    pub(crate) fn place_traced(
        &mut self,
        request: &Request,
        shards: &[(usize, ShardLoad)],
        now_us: u64,
        capacity: usize,
        sink: &mut dyn fcad_obs::TraceSink,
        tracing: bool,
    ) -> usize {
        let shard = self.place(request, shards, now_us, capacity);
        if tracing {
            sink.record(request.trace(now_us, Some(shard), fcad_obs::RequestEventKind::Arrival));
        }
        shard
    }

    /// O(1) placement over a *placeable-id snapshot*: the engine's
    /// piecewise-static fast path hands in the sorted global ids of the
    /// currently placeable shards (rebuilt only after a lifecycle event),
    /// and round-robin / branch-sharding place by the same cursor
    /// arithmetic [`Balancer::place`] applies to a candidate slice — the
    /// ids play the role of the `(id, load)` pairs, which these two kinds
    /// never read. Load-aware kinds return `None`: they need live loads.
    pub(crate) fn place_dense(&mut self, request: &Request, ids: &[usize]) -> Option<usize> {
        match self.kind {
            LoadBalancerKind::RoundRobin => {
                let shard = ids[self.next_round_robin % ids.len()];
                self.next_round_robin = (self.next_round_robin + 1) % ids.len();
                Some(shard)
            }
            LoadBalancerKind::BranchSharded => Some(ids[request.branch % ids.len()]),
            LoadBalancerKind::LeastLoaded | LoadBalancerKind::AffinityFirst => None,
        }
    }

    /// Load-aware placement through the [`LoadBoard`]'s index: the pick
    /// [`Balancer::place`] makes over the board's placeable rows, without
    /// the per-arrival fleet scan. Affinity keeps its pin while the pinned
    /// shard is placeable with queue space and spills through the index
    /// otherwise. Returns `None` when no shard is placeable.
    pub(crate) fn place_indexed(
        &mut self,
        request: &Request,
        board: &mut LoadBoard,
        now_us: u64,
    ) -> Option<usize> {
        debug_assert!(
            matches!(
                self.kind,
                LoadBalancerKind::LeastLoaded | LoadBalancerKind::AffinityFirst
            ),
            "indexed placement covers only load-aware balancers"
        );
        let pinned = if self.kind == LoadBalancerKind::AffinityFirst {
            self.affinity
                .get(request.session)
                .copied()
                .flatten()
                .filter(|&id| board.has_space(id))
        } else {
            None
        };
        let pick = pinned.or_else(|| board.least_loaded(now_us));
        debug_assert_eq!(
            pick,
            {
                let loads = board.placeable_loads();
                (!loads.is_empty()).then(|| self.place(request, &loads, now_us, board.capacity))
            },
            "indexed placement diverged from the linear scan"
        );
        pick
    }

    /// Pre-sizes the affinity table for `sessions` sessions so the
    /// affinity-first policy never re-grows it mid-run (a no-op for every
    /// other policy). Purely an allocation hint: an unpinned entry reads
    /// as `None` either way.
    pub(crate) fn reserve_sessions(&mut self, sessions: usize) {
        if self.kind == LoadBalancerKind::AffinityFirst && self.affinity.len() < sessions {
            self.affinity.resize(sessions, None);
        }
    }

    /// Records a successful admission so affinity follows the shard that
    /// last served the session's identity.
    pub(crate) fn note_admitted(&mut self, session: usize, shard: usize) {
        if self.kind != LoadBalancerKind::AffinityFirst {
            return;
        }
        if session >= self.affinity.len() {
            self.affinity.resize(session + 1, None);
        }
        self.affinity[session] = Some(shard);
    }
}

/// The least-loaded candidate by `(load_us, queued, global id)`, preferring
/// shards with queue space; only when every queue is full does the pick
/// fall back to the least-loaded full shard (where the engine will record
/// the drop).
fn least_loaded(shards: &[(usize, ShardLoad)], now_us: u64, capacity: usize) -> usize {
    let pick = |require_space: bool| {
        shards
            .iter()
            .filter(|(_, load)| !require_space || load.queued < capacity)
            .min_by_key(|(id, load)| (load.load_us(now_us), load.queued, *id))
            .map(|(id, _)| *id)
    };
    pick(true)
        .or_else(|| pick(false))
        .expect("placement needs at least one candidate shard")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_model;

    fn request(session: usize, branch: usize) -> Request {
        Request {
            id: 0,
            session,
            branch,
            issued_at_us: 0,
            class: crate::QosClass::Standard,
        }
    }

    fn idle(shards: usize) -> Vec<(usize, ShardLoad)> {
        (0..shards)
            .map(|id| {
                (
                    id,
                    ShardLoad {
                        queued: 0,
                        free_at_us: 0,
                        backlog_us: 0,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_over_the_shards() {
        let mut balancer = Balancer::new(LoadBalancerKind::RoundRobin);
        let loads = idle(3);
        let picks: Vec<usize> = (0..6)
            .map(|_| balancer.place(&request(0, 0), &loads, 0, 16))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn branch_sharding_is_static_by_branch() {
        let mut balancer = Balancer::new(LoadBalancerKind::BranchSharded);
        let loads = idle(2);
        assert_eq!(balancer.place(&request(0, 0), &loads, 0, 16), 0);
        assert_eq!(balancer.place(&request(3, 1), &loads, 0, 16), 1);
        assert_eq!(balancer.place(&request(7, 2), &loads, 0, 16), 0);
    }

    #[test]
    fn least_loaded_follows_the_free_hint_and_backlog() {
        let mut balancer = Balancer::new(LoadBalancerKind::LeastLoaded);
        let loads = vec![
            (
                0,
                ShardLoad {
                    queued: 2,
                    free_at_us: 9_000,
                    backlog_us: 8_000,
                },
            ),
            (
                1,
                ShardLoad {
                    queued: 1,
                    free_at_us: 4_000,
                    backlog_us: 2_000,
                },
            ),
        ];
        // Shard 1: 3_000 µs remaining busy + 2_000 backlog < shard 0's
        // 8_000 + 8_000.
        assert_eq!(balancer.place(&request(0, 0), &loads, 1_000, 16), 1);
    }

    #[test]
    fn least_loaded_avoids_full_queues_while_space_remains() {
        let mut balancer = Balancer::new(LoadBalancerKind::LeastLoaded);
        let loads = vec![
            (
                0,
                ShardLoad {
                    queued: 4,
                    free_at_us: 0,
                    backlog_us: 0,
                },
            ),
            (
                1,
                ShardLoad {
                    queued: 3,
                    free_at_us: 50_000,
                    backlog_us: 40_000,
                },
            ),
        ];
        // Shard 0 is lighter but full (capacity 4): the heavier shard with
        // space wins; once both are full the lighter one takes the drop.
        assert_eq!(balancer.place(&request(0, 0), &loads, 0, 4), 1);
        assert_eq!(balancer.place(&request(0, 0), &loads, 0, 3), 0);
    }

    #[test]
    fn affinity_pins_a_session_and_spills_only_when_full() {
        let mut balancer = Balancer::new(LoadBalancerKind::AffinityFirst);
        let mut loads = idle(2);
        // First placement: least-loaded picks shard 0; admission pins it.
        assert_eq!(balancer.place(&request(5, 0), &loads, 0, 2), 0);
        balancer.note_admitted(5, 0);
        // Even with shard 0 busier, the pin holds while it has space…
        loads[0].1 = ShardLoad {
            queued: 1,
            free_at_us: 90_000,
            backlog_us: 9_000,
        };
        assert_eq!(balancer.place(&request(5, 1), &loads, 0, 2), 0);
        // …and spills (re-pinning on admission) once the queue fills.
        loads[0].1.queued = 2;
        assert_eq!(balancer.place(&request(5, 2), &loads, 0, 2), 1);
        balancer.note_admitted(5, 1);
        assert_eq!(balancer.place(&request(5, 0), &loads, 0, 2), 1);
    }

    #[test]
    fn affinity_re_places_when_the_pinned_shard_leaves_the_candidate_set() {
        // A session pinned to a shard that failed (or is draining) no
        // longer finds it among the placeable candidates and falls back to
        // the least-loaded survivor.
        let mut balancer = Balancer::new(LoadBalancerKind::AffinityFirst);
        balancer.note_admitted(3, 0);
        let survivors = vec![(
            1,
            ShardLoad {
                queued: 1,
                free_at_us: 5_000,
                backlog_us: 4_000,
            },
        )];
        assert_eq!(balancer.place(&request(3, 0), &survivors, 0, 16), 1);
    }

    /// SplitMix64: a small seeded stream for the index differential test.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            crate::cast::u64_to_usize((z ^ (z >> 31)) % crate::cast::usize_to_u64(n))
        }
    }

    /// The placeable candidates the engine scanned before the board: the
    /// Active rows, or the Warming ones when none is Active.
    fn linear_candidates(rows: &[BoardRow]) -> Vec<(usize, ShardLoad)> {
        for wanted in [ShardState::Active, ShardState::Warming] {
            let loads: Vec<(usize, ShardLoad)> = rows
                .iter()
                .enumerate()
                .filter(|(_, row)| row.phase == wanted)
                .map(|(id, row)| (id, row.load))
                .collect();
            if !loads.is_empty() {
                return loads;
            }
        }
        Vec::new()
    }

    const PHASES: [ShardState; 5] = [
        ShardState::Warming,
        ShardState::Active,
        ShardState::Draining,
        ShardState::Retired,
        ShardState::Failed,
    ];

    #[test]
    fn the_index_matches_the_linear_scan_under_random_mutations() {
        // Cases the random walk must reach at least once each.
        let (mut load_ties, mut all_full, mut warming_only, mut none_placeable) = (0, 0, 0, 0);
        let mut grew_past = [false; 2];
        for seed in 0..64u64 {
            let mut rng = Mix(seed);
            let capacity = 1 + rng.below(2);
            let mut board = LoadBoard::new(capacity, true);
            let mut rows: Vec<BoardRow> = Vec::new();
            let mut least = Balancer::new(LoadBalancerKind::LeastLoaded);
            let mut affinity = Balancer::new(LoadBalancerKind::AffinityFirst);
            let start = [4, 8][rng.below(2)];
            let mut now = 0u64;
            for step in 0..600 {
                let spawn = rows.len() < start || (rows.len() < 12 && rng.below(40) == 0);
                if spawn {
                    let row = BoardRow {
                        phase: if step == 0 {
                            ShardState::Active
                        } else {
                            PHASES[rng.below(2)]
                        },
                        load: ShardLoad {
                            queued: 0,
                            free_at_us: 0,
                            backlog_us: 0,
                        },
                    };
                    if step > 0 && rows.len() == 4 {
                        grew_past[0] = true;
                    }
                    if step > 0 && rows.len() == 8 {
                        grew_past[1] = true;
                    }
                    rows.push(row);
                    board.push(row);
                } else {
                    // Time never decreases and often stands still; small
                    // value grids make load and queue ties common.
                    now += 50 * crate::cast::usize_to_u64(rng.below(3));
                    let id = rng.below(rows.len());
                    let row = &mut rows[id];
                    match rng.below(5) {
                        0 => row.load.queued = rng.below(capacity + 1),
                        1 => {
                            row.load.free_at_us = (now
                                + 50 * crate::cast::usize_to_u64(rng.below(5)))
                            .saturating_sub(100)
                        }
                        2 => row.load.backlog_us = 50 * crate::cast::usize_to_u64(rng.below(4)),
                        3 => row.phase = PHASES[rng.below(PHASES.len())],
                        _ => row.phase = ShardState::Active,
                    }
                    board.sync(id, *row);
                }

                let loads = linear_candidates(&rows);
                let expected = (!loads.is_empty()).then(|| least_loaded(&loads, now, capacity));
                assert_eq!(board.least_loaded(now), expected, "seed {seed} step {step}");
                let request = request(rng.below(3), 0);
                if rng.below(4) == 0 {
                    affinity.note_admitted(request.session, rng.below(rows.len()));
                }
                let expected_affinity =
                    (!loads.is_empty()).then(|| affinity.place(&request, &loads, now, capacity));
                assert_eq!(
                    affinity.place_indexed(&request, &mut board, now),
                    expected_affinity,
                    "affinity: seed {seed} step {step}"
                );
                assert_eq!(least.place_indexed(&request, &mut board, now), expected);

                let active: Vec<&BoardRow> = rows
                    .iter()
                    .filter(|row| row.phase == ShardState::Active)
                    .collect();
                assert_eq!(board.active(), active.len());
                assert_eq!(
                    board.active_queued(),
                    active.iter().map(|row| row.load.queued).sum::<usize>()
                );
                assert_eq!(
                    board.alive(),
                    rows.iter().filter(|row| row.phase.is_alive()).count()
                );
                assert_eq!(
                    board.warming_or_draining(),
                    rows.iter()
                        .filter(|row| matches!(
                            row.phase,
                            ShardState::Warming | ShardState::Draining
                        ))
                        .count()
                );
                match expected {
                    None => none_placeable += 1,
                    Some(_) if active.is_empty() => warming_only += 1,
                    Some(_) if active.iter().all(|row| row.load.queued >= capacity) => {
                        all_full += 1
                    }
                    Some(pick) => {
                        let key = |load: &ShardLoad| (load.load_us(now), load.queued);
                        let best = key(&rows[pick].load);
                        if loads.iter().filter(|(_, load)| key(load) == best).count() > 1 {
                            load_ties += 1;
                        }
                    }
                }
            }
        }
        let reached = [load_ties, all_full, warming_only, none_placeable];
        assert!(reached.iter().all(|&n| n > 0), "case counts {reached:?}");
        assert_eq!(grew_past, [true, true], "growth past 4 and past 8 shards");
    }

    #[test]
    fn the_index_breaks_ties_by_queue_then_id_and_tracks_growth() {
        let idle_row = |queued| BoardRow {
            phase: ShardState::Active,
            load: ShardLoad {
                queued,
                free_at_us: 0,
                backlog_us: 100,
            },
        };
        let mut board = LoadBoard::new(4, true);
        for queued in [2, 1, 1, 3] {
            board.push(idle_row(queued));
        }
        // Equal loads: the shallower queue, then the lower id.
        assert_eq!(board.least_loaded(0), Some(1));
        // A busy shard whose fabric frees at 500 carries 400 µs of load
        // at 100 and ties the idle shards' 100 µs only once time reaches
        // 400; with an empty queue it then wins on depth.
        board.push(BoardRow {
            phase: ShardState::Active,
            load: ShardLoad {
                queued: 0,
                free_at_us: 500,
                backlog_us: 100,
            },
        });
        assert_eq!(board.least_loaded(100), Some(1));
        assert_eq!(board.least_loaded(500), Some(4));
        // Every queue full: the least-loaded full shard takes the drop.
        for id in 0..5 {
            board.sync(
                id,
                BoardRow {
                    load: ShardLoad {
                        queued: 4,
                        ..idle_row(4).load
                    },
                    ..idle_row(4)
                },
            );
        }
        assert_eq!(board.least_loaded(600), Some(0));
        // No Active shard: the Warming ones are placeable; none at all
        // is `None`.
        for id in 0..5 {
            board.sync(
                id,
                BoardRow {
                    phase: ShardState::Failed,
                    ..idle_row(0)
                },
            );
        }
        assert_eq!(board.least_loaded(700), None);
        board.push(BoardRow {
            phase: ShardState::Warming,
            ..idle_row(0)
        });
        assert_eq!(board.least_loaded(800), Some(5));
        assert_eq!((board.active(), board.alive()), (0, 1));
    }

    #[test]
    fn uniform_fleets_clamp_to_at_least_one_shard() {
        let config = FleetConfig::uniform(test_model(), 0);
        assert_eq!(config.shard_count(), 1);
        assert_eq!(config.branch_count(), 3);
        assert_eq!(config.balancer, LoadBalancerKind::RoundRobin);
        let fleet =
            FleetConfig::uniform(test_model(), 4).with_balancer(LoadBalancerKind::AffinityFirst);
        assert_eq!(fleet.shard_count(), 4);
        assert_eq!(fleet.balancer.name(), "affinity");
    }

    #[test]
    #[should_panic(expected = "same branch structure")]
    fn heterogeneous_fleets_reject_mismatched_branch_counts() {
        let mut small = test_model();
        small.branches.pop();
        FleetConfig::heterogeneous(vec![test_model(), small]);
    }

    #[test]
    #[should_panic(expected = "same branch structure")]
    fn heterogeneous_fleets_reject_mismatched_branch_names() {
        let mut renamed = test_model();
        renamed.branches[1].name = "warp".into();
        FleetConfig::heterogeneous(vec![test_model(), renamed]);
    }

    #[test]
    #[should_panic(expected = "same branch structure")]
    fn heterogeneous_fleets_reject_mismatched_priorities() {
        // The report quotes one priority per branch row, so per-shard
        // priority skew would misreport half the fleet.
        let mut skewed = test_model();
        skewed.branches[2].priority = 0.9;
        FleetConfig::heterogeneous(vec![test_model(), skewed]);
    }

    #[test]
    #[should_panic(expected = "branch 1 (`texture`) has a non-finite priority: NaN")]
    fn fleets_reject_a_nan_priority_by_name() {
        let mut model = test_model();
        model.branches[1].priority = f64::NAN;
        FleetConfig::uniform(model, 2).assert_valid();
    }

    #[test]
    #[should_panic(expected = "branch 2 (`audio`) has a non-finite priority: inf")]
    fn fleets_reject_an_infinite_priority_by_name() {
        let mut model = test_model();
        model.branches[2].priority = f64::INFINITY;
        FleetConfig::heterogeneous(vec![test_model(), model]);
    }

    #[test]
    fn heterogeneous_fleets_accept_same_structure_at_different_speeds() {
        let mut slow = test_model();
        for branch in &mut slow.branches {
            branch.frame_time_us *= 3;
        }
        let config = FleetConfig::heterogeneous(vec![test_model(), slow]);
        assert_eq!(config.shard_count(), 2);
    }
}
