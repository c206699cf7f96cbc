//! Multi-SoC cluster scheduler: shards sessions across simulated nodes.
//!
//! The paper's runtime schedules one SoC; the ROADMAP's north star is heavy
//! traffic from millions of users. This module adds the placement layer on
//! top of the PR-9 session protocol: a [`ClusterScheduler`] owns N nodes of
//! heterogeneous [`DeviceClass`]es, each running its own [`FleetService`]
//! with its own engine and per-platform characterization. Admission stays
//! delegated — the cluster only picks *which* node probes an arrival, the
//! node's own projection says yes or no — and a periodic rebalance pass
//! live-migrates one session from the most- to the least-loaded node:
//! the stream re-attaches on the destination resuming at the frame it had
//! reached ([`AttachRequest::with_start_frame`]), the model re-warm is
//! charged by the destination's loader exactly like any attach, and the
//! state transfer itself is costed through [`shift_soc::network`] and lands
//! on the migrated stream's next frame like a loader miss.
//!
//! Everything is keyed on the cluster's own discrete clock (one sweep over
//! all nodes per tick, nodes stepped in index order), so a run is
//! byte-identical for any worker count.

use crate::fleet::FleetFrameOutcome;
use crate::service::{
    AttachRequest, FleetService, RejectReason, ServicePolicy, SessionEvent, SessionId,
    SessionRequest,
};
use crate::{characterize::Characterization, des::ExecutionMode, fleet::FleetBuilder, ShiftError};
use serde::{Deserialize, Serialize};
use shift_soc::{DeviceClass, ExecutionEngine, NetworkLink};

/// Opaque identity of one cluster session, minted at schedule time (1-based,
/// in schedule order) and never reused. Distinct from the per-node
/// [`SessionId`]s a session's incarnations are known by locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClusterSessionId(u64);

impl ClusterSessionId {
    /// The raw identity value (1-based, in schedule order).
    pub fn value(self) -> u64 {
        self.0
    }

    /// Reconstructs an identity from its raw value (for trace replay).
    pub fn from_value(value: u64) -> Self {
        Self(value)
    }
}

impl std::fmt::Display for ClusterSessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cluster-session-{}", self.0)
    }
}

/// Cluster-level policy knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterPolicy {
    /// Per-node admission policy (every node runs the same one).
    pub service: ServicePolicy,
    /// The link model state crosses during a live migration.
    pub link: NetworkLink,
    /// Serialized stream state shipped per migration, megabytes (context
    /// graph, tracker state, warm statistics — not the model weights, which
    /// the destination re-warms through its own loader).
    pub migration_payload_mb: f64,
    /// Consider one migration every this many cluster ticks (`0` disables
    /// rebalancing).
    pub rebalance_period: u64,
    /// Minimum normalized-load gap (sessions per capacity weight) between
    /// the most- and least-loaded node before a migration is worth its cost.
    pub rebalance_gap: f64,
}

impl ClusterPolicy {
    /// The default policy: per-node [`ServicePolicy::defaults`], a Wi-Fi
    /// class interconnect, 24 MB of stream state per move, a rebalance scan
    /// every 8 ticks gated on a 1.0 normalized-load gap.
    pub fn defaults() -> Self {
        Self {
            service: ServicePolicy::defaults(),
            link: NetworkLink::wifi(),
            migration_payload_mb: 24.0,
            rebalance_period: 8,
            rebalance_gap: 1.0,
        }
    }

    /// Returns a copy with a different rebalance cadence and gap.
    pub fn with_rebalance(mut self, period: u64, gap: f64) -> Self {
        self.rebalance_period = period;
        self.rebalance_gap = gap;
        self
    }

    /// Returns a copy with a different interconnect.
    pub fn with_link(mut self, link: NetworkLink) -> Self {
        self.link = link;
        self
    }
}

impl Default for ClusterPolicy {
    fn default() -> Self {
        Self::defaults()
    }
}

/// Cluster-level protocol events, stamped with the cluster clock.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterEvent {
    /// The session was placed and admitted on a node.
    Admitted {
        /// The cluster identity.
        session: ClusterSessionId,
        /// The node that admitted it.
        node: usize,
        /// The goal the node's admission granted.
        admitted_goal: f64,
    },
    /// Every candidate node rejected the session.
    Rejected {
        /// The cluster identity.
        session: ClusterSessionId,
        /// The last candidate's rejection reason.
        reason: RejectReason,
    },
    /// The session detached by request.
    Detached {
        /// The cluster identity.
        session: ClusterSessionId,
        /// The node it detached from.
        node: usize,
        /// Total frames processed across all nodes it ran on.
        frames: usize,
    },
    /// A node's overload shedding evicted the session.
    Shed {
        /// The cluster identity.
        session: ClusterSessionId,
        /// The node that shed it.
        node: usize,
    },
    /// The session was live-migrated between nodes.
    Migrated {
        /// The cluster identity.
        session: ClusterSessionId,
        /// Source node.
        from: usize,
        /// Destination node.
        to: usize,
        /// Scenario frame the destination resumed at.
        resumed_at_frame: usize,
    },
    /// A request named a session this cluster never scheduled (or one
    /// already gone).
    UnknownSession {
        /// The unknown identity.
        session: ClusterSessionId,
    },
}

/// One completed live migration (the audit trail behind the capacity
/// artifact's migration count).
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRecord {
    /// Cluster tick the move happened at.
    pub tick: u64,
    /// The moved session.
    pub session: ClusterSessionId,
    /// Source node.
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// Scenario frame the destination resumed at.
    pub resumed_at_frame: usize,
    /// State-transfer latency charged to the stream, seconds.
    pub transfer_s: f64,
    /// State-transfer energy charged to the stream, joules.
    pub transfer_j: f64,
}

/// One frame outcome, tagged with the node that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterFrameOutcome {
    /// Index of the producing node.
    pub node: usize,
    /// The node-local fleet outcome.
    pub inner: FleetFrameOutcome,
}

/// Lifecycle snapshot of one cluster session.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSessionRecord {
    /// The cluster identity.
    pub session: ClusterSessionId,
    /// Its label.
    pub name: String,
    /// The node it currently (or last) ran on, when ever admitted.
    pub node: Option<usize>,
    /// The device class of that node.
    pub class: Option<DeviceClass>,
    /// `None` when admitted (or still pending); the final rejection reason
    /// otherwise.
    pub rejected: Option<RejectReason>,
    /// Whether the session is attached right now.
    pub attached: bool,
    /// Whether a node's overload shedding evicted it.
    pub shed: bool,
    /// The goal the request asked for.
    pub requested_goal: f64,
    /// The goal its current (or last) node admitted it at.
    pub admitted_goal: f64,
    /// Completed live migrations.
    pub migrations: u32,
    /// Frames processed across every node it ran on.
    pub frames: usize,
}

/// Where a cluster session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Scheduled, not yet due.
    Pending,
    /// Admitted and running on `node`.
    Attached,
    /// Every candidate node rejected it.
    Rejected(RejectReason),
    /// Detached by request.
    Detached,
    /// Evicted by a node's overload shedding.
    Shed,
}

/// Cluster-side bookkeeping for one session.
#[derive(Debug, Clone)]
struct LedgerEntry {
    request: AttachRequest,
    phase: Phase,
    node: Option<usize>,
    local: Option<SessionId>,
    admitted_goal: f64,
    /// Frames completed on nodes the session no longer runs on.
    frames_prior: usize,
    migrations: u32,
}

/// A scheduled cluster operation.
#[derive(Debug, Clone)]
enum ClusterOp {
    /// Place and admit ledger entry `usize`.
    Attach(usize),
    /// Detach a session.
    Detach(ClusterSessionId),
}

/// One node: a device class and its private service stack.
#[derive(Debug, Clone)]
struct Node {
    class: DeviceClass,
    service: FleetService,
}

/// Builder for a [`ClusterScheduler`].
///
/// Each node brings its own [`ExecutionEngine`] (over the platform of its
/// [`DeviceClass`]) and the characterization computed *on that platform* —
/// an OAK-D-only node only knows the models its VPU can run.
#[derive(Debug)]
pub struct ClusterBuilder {
    policy: ClusterPolicy,
    nodes: Vec<(DeviceClass, ExecutionEngine, Characterization)>,
}

impl ClusterBuilder {
    /// Starts an empty builder with [`ClusterPolicy::defaults`].
    pub fn new() -> Self {
        Self {
            policy: ClusterPolicy::defaults(),
            nodes: Vec::new(),
        }
    }

    /// Sets the cluster policy.
    pub fn policy(mut self, policy: ClusterPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Does nothing: the fleet has one inner loop. This exists only so the
    /// benchmark, which still passes `ExperimentContext::execution_mode()`
    /// here, builds unchanged.
    pub fn execution_mode(self, _mode: ExecutionMode) -> Self {
        self
    }

    /// Adds one node of `class` with its engine and per-platform
    /// characterization.
    pub fn node(
        mut self,
        class: DeviceClass,
        engine: ExecutionEngine,
        characterization: Characterization,
    ) -> Self {
        self.nodes.push((class, engine, characterization));
        self
    }

    /// Builds the scheduler.
    ///
    /// # Errors
    ///
    /// Propagates node-service construction errors.
    pub fn build(self) -> Result<ClusterScheduler, ShiftError> {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for (class, engine, characterization) in self.nodes {
            let service =
                FleetBuilder::new(engine, &characterization).build_service(self.policy.service)?;
            nodes.push(Node { class, service });
        }
        Ok(ClusterScheduler {
            policy: self.policy,
            nodes,
            ledger: Vec::new(),
            ops: Vec::new(),
            next_op: 0,
            clock: 0,
            migrations: Vec::new(),
            log: Vec::new(),
        })
    }
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The placement scheduler over N per-node [`FleetService`]s.
///
/// Schedule arrivals and departures on the cluster clock, then drive with
/// [`ClusterScheduler::run_until_idle`]. Each tick processes due operations,
/// steps every node once in index order, and (on the rebalance cadence)
/// considers one live migration from the most- to the least-loaded node.
#[derive(Debug, Clone)]
pub struct ClusterScheduler {
    policy: ClusterPolicy,
    nodes: Vec<Node>,
    ledger: Vec<LedgerEntry>,
    /// Scheduled operations ordered by (tick, insertion sequence);
    /// `next_op` is the consumption cursor.
    ops: Vec<(u64, ClusterOp)>,
    next_op: usize,
    clock: u64,
    migrations: Vec<MigrationRecord>,
    log: Vec<(u64, ClusterEvent)>,
}

impl ClusterScheduler {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The device class of node `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn node_class(&self, index: usize) -> DeviceClass {
        self.nodes[index].class
    }

    /// The service stack of node `index` (for inspecting telemetry, session
    /// records and stream views).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn node(&self, index: usize) -> &FleetService {
        &self.nodes[index].service
    }

    /// The cluster policy.
    pub fn policy(&self) -> &ClusterPolicy {
        &self.policy
    }

    /// The cluster clock (sweeps completed so far).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Completed live migrations, in occurrence order.
    pub fn migrations(&self) -> &[MigrationRecord] {
        &self.migrations
    }

    /// Takes the clock-stamped cluster event log accumulated so far.
    pub fn drain_events(&mut self) -> Vec<(u64, ClusterEvent)> {
        std::mem::take(&mut self.log)
    }

    /// Sessions currently attached somewhere in the cluster (the ledger's
    /// view; [`ClusterScheduler::node`] exposes each node's own count for
    /// conservation checks).
    pub fn attached_sessions(&self) -> usize {
        self.ledger
            .iter()
            .filter(|e| e.phase == Phase::Attached)
            .count()
    }

    /// Lifecycle snapshot of every session ever scheduled, in schedule
    /// order.
    pub fn sessions(&self) -> Vec<ClusterSessionRecord> {
        self.ledger
            .iter()
            .enumerate()
            .map(|(index, e)| {
                let live = match (e.phase, e.node, e.local) {
                    (Phase::Attached, Some(node), Some(local)) => self.nodes[node]
                        .service
                        .stream_of(local)
                        .map(|h| {
                            self.nodes[node]
                                .service
                                .fleet()
                                .stream(h)
                                .frames_processed()
                        })
                        .unwrap_or(0),
                    _ => 0,
                };
                ClusterSessionRecord {
                    session: ClusterSessionId(index as u64 + 1),
                    name: e.request.name.clone(),
                    node: e.node,
                    class: e.node.map(|n| self.nodes[n].class),
                    rejected: match e.phase {
                        Phase::Rejected(reason) => Some(reason),
                        _ => None,
                    },
                    attached: e.phase == Phase::Attached,
                    shed: e.phase == Phase::Shed,
                    requested_goal: e.request.config.accuracy_goal,
                    admitted_goal: e.admitted_goal,
                    migrations: e.migrations,
                    frames: e.frames_prior + live,
                }
            })
            .collect()
    }

    /// Schedules an attach for cluster tick `tick`, minting the session's
    /// cluster identity immediately. Placement happens when the tick
    /// arrives.
    pub fn schedule_attach(&mut self, tick: u64, request: AttachRequest) -> ClusterSessionId {
        let id = ClusterSessionId(self.ledger.len() as u64 + 1);
        self.ledger.push(LedgerEntry {
            admitted_goal: request.config.accuracy_goal,
            request,
            phase: Phase::Pending,
            node: None,
            local: None,
            frames_prior: 0,
            migrations: 0,
        });
        self.push_op(tick, ClusterOp::Attach(self.ledger.len() - 1));
        id
    }

    /// Schedules a detach for cluster tick `tick`. A session already gone
    /// by then (shed, detached, rejected) is answered with
    /// [`ClusterEvent::UnknownSession`].
    pub fn schedule_detach(&mut self, tick: u64, session: ClusterSessionId) {
        self.push_op(tick, ClusterOp::Detach(session));
    }

    fn push_op(&mut self, tick: u64, op: ClusterOp) {
        // Ops are appended in schedule order and consumed in (tick, order)
        // order; a tick already in the past fires on the next sweep.
        let tick = tick.max(self.clock);
        let at = self.ops[self.next_op..]
            .iter()
            .position(|&(t, _)| t > tick)
            .map(|p| self.next_op + p)
            .unwrap_or(self.ops.len());
        self.ops.insert(at, (tick, op));
    }

    /// Runs until every scheduled operation has fired and every node is
    /// drained, returning all frame outcomes in production order (tick by
    /// tick, node-index order within a tick — a total order independent of
    /// worker count).
    ///
    /// # Errors
    ///
    /// Propagates the first unrecoverable node error.
    pub fn run_until_idle(&mut self) -> Result<Vec<ClusterFrameOutcome>, ShiftError> {
        let mut outcomes = Vec::new();
        loop {
            self.process_due_ops();
            let mut progressed = false;
            for node in 0..self.nodes.len() {
                if let Some(inner) = self.nodes[node].service.step()? {
                    outcomes.push(ClusterFrameOutcome { node, inner });
                    progressed = true;
                }
                self.sync_node_events(node);
            }
            if self.policy.rebalance_period > 0
                && self
                    .clock
                    .checked_rem(self.policy.rebalance_period)
                    .is_some_and(|r| r == self.policy.rebalance_period - 1)
            {
                self.try_migrate();
            }
            self.clock += 1;
            if !progressed && self.next_op >= self.ops.len() {
                return Ok(outcomes);
            }
        }
    }

    /// Pops and processes every operation due at or before the cluster
    /// clock, in schedule order.
    fn process_due_ops(&mut self) {
        while self
            .ops
            .get(self.next_op)
            .is_some_and(|&(tick, _)| tick <= self.clock)
        {
            let (_, op) = self.ops[self.next_op].clone();
            self.next_op += 1;
            match op {
                ClusterOp::Attach(index) => self.place(index),
                ClusterOp::Detach(id) => self.detach(id),
            }
        }
    }

    /// Normalized load of node `index`: attached sessions that still have
    /// frames to play, divided by the class's capacity weight.
    fn node_load(&self, index: usize) -> f64 {
        let node = &self.nodes[index];
        let busy = self
            .ledger
            .iter()
            .filter(|e| e.phase == Phase::Attached && e.node == Some(index))
            .filter(|e| {
                e.local
                    .and_then(|local| node.service.stream_of(local))
                    .is_some_and(|h| !node.service.fleet().stream(h).is_idle())
            })
            .count();
        busy as f64 / node.class.capacity_weight()
    }

    /// Places ledger entry `index`: candidate nodes are probed in ascending
    /// (normalized load, node index) order and the first node whose own
    /// admission says yes wins.
    fn place(&mut self, index: usize) {
        let id = ClusterSessionId(index as u64 + 1);
        let request = self.ledger[index].request.clone();
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by(|&a, &b| {
            self.node_load(a)
                .partial_cmp(&self.node_load(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut last_reason = RejectReason::InfeasibleGoal;
        for node in order {
            let event = self.nodes[node]
                .service
                .submit(SessionRequest::Attach(request.clone()));
            match event {
                SessionEvent::Admitted {
                    session,
                    admitted_goal,
                    ..
                } => {
                    // Admission may have shed a lower-priority session on
                    // this node to make room — fold that in first.
                    self.sync_node_events(node);
                    let entry = &mut self.ledger[index];
                    entry.phase = Phase::Attached;
                    entry.node = Some(node);
                    entry.local = Some(session);
                    entry.admitted_goal = admitted_goal;
                    self.log.push((
                        self.clock,
                        ClusterEvent::Admitted {
                            session: id,
                            node,
                            admitted_goal,
                        },
                    ));
                    return;
                }
                SessionEvent::Rejected { reason, .. } => {
                    self.sync_node_events(node);
                    last_reason = reason;
                }
                _ => unreachable!("attach answers Admitted or Rejected"),
            }
        }
        self.ledger[index].phase = Phase::Rejected(last_reason);
        self.log.push((
            self.clock,
            ClusterEvent::Rejected {
                session: id,
                reason: last_reason,
            },
        ));
    }

    /// Detaches a session wherever it currently runs.
    fn detach(&mut self, id: ClusterSessionId) {
        let Some(index) = (id.0 as usize)
            .checked_sub(1)
            .filter(|&i| i < self.ledger.len())
        else {
            self.log
                .push((self.clock, ClusterEvent::UnknownSession { session: id }));
            return;
        };
        let (node, local) = match (&self.ledger[index].phase, self.ledger[index].node) {
            (Phase::Attached, Some(node)) => (node, self.ledger[index].local.expect("attached")),
            _ => {
                self.log
                    .push((self.clock, ClusterEvent::UnknownSession { session: id }));
                return;
            }
        };
        let event = self.nodes[node]
            .service
            .submit(SessionRequest::Detach(local));
        self.sync_node_events(node);
        let frames = match event {
            SessionEvent::Detached { frames, .. } => frames,
            _ => 0,
        };
        let entry = &mut self.ledger[index];
        entry.phase = Phase::Detached;
        entry.frames_prior += frames;
        let total = entry.frames_prior;
        self.log.push((
            self.clock,
            ClusterEvent::Detached {
                session: id,
                node,
                frames: total,
            },
        ));
    }

    /// Folds a node's protocol events into the ledger. Only shed events
    /// matter here — admits, rejects and detaches are translated directly at
    /// their submission sites.
    fn sync_node_events(&mut self, node: usize) {
        for (_, event) in self.nodes[node].service.drain_events() {
            let SessionEvent::Shed { session, .. } = event else {
                continue;
            };
            let Some(index) = self.ledger.iter().position(|e| {
                e.phase == Phase::Attached && e.node == Some(node) && e.local == Some(session)
            }) else {
                continue;
            };
            let frames = self.nodes[node]
                .service
                .sessions()
                .iter()
                .find(|r| r.session == session)
                .map(|r| r.frames)
                .unwrap_or(0);
            let entry = &mut self.ledger[index];
            entry.phase = Phase::Shed;
            entry.frames_prior += frames;
            self.log.push((
                self.clock,
                ClusterEvent::Shed {
                    session: ClusterSessionId(index as u64 + 1),
                    node,
                },
            ));
        }
    }

    /// Considers one live migration: when the normalized-load gap between
    /// the most- and least-loaded node exceeds the policy gap, the source's
    /// lowest-priority session (lowest deadline class, then lowest cluster
    /// id) re-attaches on the destination resuming at the frame it reached.
    /// The destination is attached *first*; only an admitted move detaches
    /// the source, so a refused migration leaves the session untouched.
    fn try_migrate(&mut self) {
        if self.nodes.len() < 2 {
            return;
        }
        let loads: Vec<f64> = (0..self.nodes.len()).map(|i| self.node_load(i)).collect();
        let src = (0..loads.len())
            .max_by(|&a, &b| {
                loads[a]
                    .partial_cmp(&loads[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a))
            })
            .expect("non-empty");
        let dst = (0..loads.len())
            .min_by(|&a, &b| {
                loads[a]
                    .partial_cmp(&loads[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            })
            .expect("non-empty");
        if src == dst || loads[src] - loads[dst] < self.policy.rebalance_gap {
            return;
        }
        // Only move when the move strictly shrinks the imbalance — moving a
        // node's sole session to an empty peer just mirrors the gap and
        // would ping-pong on every cadence.
        let after_src = loads[src] - 1.0 / self.nodes[src].class.capacity_weight();
        let after_dst = loads[dst] + 1.0 / self.nodes[dst].class.capacity_weight();
        if (after_src - after_dst).abs() >= loads[src] - loads[dst] - 1e-9 {
            return;
        }
        // Victim: the source's cheapest still-running session.
        let Some(index) = self
            .ledger
            .iter()
            .enumerate()
            .filter(|(_, e)| e.phase == Phase::Attached && e.node == Some(src))
            .filter(|(_, e)| {
                e.local
                    .and_then(|local| self.nodes[src].service.stream_of(local))
                    .is_some_and(|h| !self.nodes[src].service.fleet().stream(h).is_idle())
            })
            .min_by_key(|&(i, e)| (e.request.deadline.priority(), i))
            .map(|(i, _)| i)
        else {
            return;
        };
        let local = self.ledger[index].local.expect("attached");
        let Some(handle) = self.nodes[src].service.stream_of(local) else {
            return;
        };
        let done_here = self.nodes[src]
            .service
            .fleet()
            .stream(handle)
            .frames_processed();
        let resumed_at_frame = self.ledger[index].frames_prior + done_here;
        if resumed_at_frame >= self.ledger[index].request.scenario.num_frames() {
            return;
        }
        // The state transfer rides the interconnect; a link outage at this
        // tick skips the round (the next cadence retries).
        let Some(report) =
            self.policy
                .link
                .round_trip(self.clock as usize, self.policy.migration_payload_mb, 0.0)
        else {
            return;
        };
        let request = self.ledger[index]
            .request
            .clone()
            .with_start_frame(resumed_at_frame);
        let event = self.nodes[dst]
            .service
            .submit(SessionRequest::Attach(request));
        self.sync_node_events(dst);
        let SessionEvent::Admitted {
            session: new_local,
            admitted_goal,
            ..
        } = event
        else {
            // The destination refused; the session stays where it was.
            return;
        };
        let _ = self.nodes[src]
            .service
            .submit(SessionRequest::Detach(local));
        self.sync_node_events(src);
        // The transfer lands on the migrated stream's next frame like a
        // loader miss; the model re-warm was already charged by the
        // destination's attach path.
        self.nodes[dst]
            .service
            .charge_session_load(new_local, report.latency_s, report.energy_j);
        let entry = &mut self.ledger[index];
        entry.node = Some(dst);
        entry.local = Some(new_local);
        entry.admitted_goal = admitted_goal;
        entry.frames_prior = resumed_at_frame;
        entry.migrations += 1;
        let session = ClusterSessionId(index as u64 + 1);
        self.migrations.push(MigrationRecord {
            tick: self.clock,
            session,
            from: src,
            to: dst,
            resumed_at_frame,
            transfer_s: report.latency_s,
            transfer_j: report.energy_j,
        });
        self.log.push((
            self.clock,
            ClusterEvent::Migrated {
                session,
                from: src,
                to: dst,
                resumed_at_frame,
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::characterize;
    use crate::config::ShiftConfig;
    use crate::service::DeadlineClass;
    use shift_models::{ModelZoo, ResponseModel};
    use shift_video::{CharacterizationDataset, Scenario};

    fn builder_with(classes: &[DeviceClass], seed: u64) -> ClusterBuilder {
        let dataset = CharacterizationDataset::generate(60, seed);
        let mut builder = ClusterBuilder::new();
        for &class in classes {
            let engine = ExecutionEngine::new(
                class.platform(),
                ModelZoo::standard(),
                ResponseModel::new(seed),
            );
            let characterization = characterize(&engine, &dataset);
            builder = builder.node(class, engine, characterization);
        }
        builder
    }

    fn attach(name: &str, frames: usize) -> AttachRequest {
        AttachRequest::new(
            name,
            Scenario::scenario_3().with_num_frames(frames),
            ShiftConfig::paper_defaults().with_accuracy_goal(0.3),
            DeadlineClass::Standard,
        )
    }

    #[test]
    fn placement_spreads_sessions_across_nodes() {
        let mut cluster = builder_with(&[DeviceClass::NxClass, DeviceClass::NxClass], 5)
            .policy(ClusterPolicy::defaults().with_rebalance(0, 1.0))
            .build()
            .unwrap();
        cluster.schedule_attach(0, attach("a", 12));
        cluster.schedule_attach(0, attach("b", 12));
        cluster.run_until_idle().unwrap();
        let sessions = cluster.sessions();
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].node, Some(0), "first arrival lands on node 0");
        assert_eq!(sessions[1].node, Some(1), "second spreads to node 1");
        assert_eq!(sessions[0].frames, 12);
        assert_eq!(sessions[1].frames, 12);
    }

    #[test]
    fn migration_moves_a_session_and_conserves_frames() {
        // Placement puts the two long sessions on node 0 (the short one
        // holds node 1's slot at placement time). Once the short session
        // drains, node 0 carries 2.0 normalized load against node 1's 0 —
        // the rebalance pass must move exactly one long session over (the
        // second move would not shrink the imbalance), and the moved stream
        // must play every frame exactly once.
        let mut cluster = builder_with(&[DeviceClass::NxClass, DeviceClass::NxClass], 7)
            .policy(ClusterPolicy::defaults().with_rebalance(4, 0.9))
            .build()
            .unwrap();
        let long_a = cluster.schedule_attach(0, attach("long-a", 40));
        cluster.schedule_attach(0, attach("short", 4));
        cluster.schedule_attach(0, attach("long-b", 40));
        let outcomes = cluster.run_until_idle().unwrap();
        assert_eq!(
            cluster.migrations().len(),
            1,
            "one move balances the cluster; more would ping-pong"
        );
        let moved = &cluster.migrations()[0];
        assert_eq!(moved.session, long_a, "lowest cluster id moves first");
        assert_eq!((moved.from, moved.to), (0, 1));
        assert!(moved.resumed_at_frame > 0, "resumes mid-scenario");
        assert!(moved.transfer_s > 0.0);
        let sessions = cluster.sessions();
        assert_eq!(sessions[0].frames, 40, "no frame lost or duplicated");
        assert_eq!(sessions[2].frames, 40);
        assert_eq!(sessions[0].migrations, 1);
        assert_eq!(sessions[0].node, Some(1));
        assert_eq!(outcomes.len(), 84, "every scheduled frame ran exactly once");
    }

    #[test]
    fn ledger_and_node_session_counts_agree() {
        let mut cluster = builder_with(
            &[
                DeviceClass::NxClass,
                DeviceClass::OakDOnly,
                DeviceClass::GpuRich,
            ],
            9,
        )
        .build()
        .unwrap();
        for i in 0..4 {
            cluster.schedule_attach(i, attach(&format!("s{i}"), 20));
        }
        cluster.run_until_idle().unwrap();
        let node_total: usize = (0..cluster.node_count())
            .map(|i| cluster.node(i).active_sessions())
            .sum();
        assert_eq!(cluster.attached_sessions(), node_total);
    }

    #[test]
    fn detach_of_a_gone_session_answers_unknown() {
        let mut cluster = builder_with(&[DeviceClass::NxClass], 11).build().unwrap();
        let id = cluster.schedule_attach(0, attach("once", 6));
        cluster.schedule_detach(2, id);
        cluster.schedule_detach(5, id);
        cluster.schedule_detach(5, ClusterSessionId::from_value(99));
        cluster.run_until_idle().unwrap();
        let events = cluster.drain_events();
        let unknowns = events
            .iter()
            .filter(|(_, e)| matches!(e, ClusterEvent::UnknownSession { .. }))
            .count();
        assert_eq!(
            unknowns, 2,
            "second detach and bogus id both answer unknown"
        );
    }

    #[test]
    fn identical_schedules_replay_identically() {
        let run = || {
            let mut cluster = builder_with(&[DeviceClass::NxClass, DeviceClass::GpuRich], 13)
                .policy(ClusterPolicy::defaults().with_rebalance(4, 0.9))
                .build()
                .unwrap();
            cluster.schedule_attach(0, attach("a", 24));
            cluster.schedule_attach(1, attach("b", 6));
            cluster.schedule_attach(3, attach("c", 10));
            let outcomes = cluster.run_until_idle().unwrap();
            (outcomes, cluster.sessions(), cluster.drain_events())
        };
        assert_eq!(run(), run());
    }
}
