//! Cluster-scheduler properties at the workspace tier.
//!
//! The multi-SoC cluster layer carries three contracts this suite locks
//! from the outside, through the same public surface `repro -- cluster`
//! uses:
//!
//! 1. **Determinism**: the `CLUSTER_capacity.csv` artifact is byte-identical
//!    for any `--jobs` worker count — placement, migration and admission
//!    decisions are pure functions of cluster state, never of scheduling
//!    order on the host.
//! 2. **Liveness of rebalancing**: the seeded diurnal trace actually drives
//!    live migrations on multi-node clusters — the rebalancer is exercised,
//!    not dead code behind an unreachable threshold.
//! 3. **Conservation**: migration moves a session, it never loses or
//!    duplicates one — ledger counts agree with per-node session counts and
//!    every processed frame is attributed to exactly one session.
//!
//! Plus the cluster's request order: FIFO within a tick, with no rank
//! between attaches and detaches, and a tick already past fires at the
//! cluster clock.

use proptest::prelude::*;
use shift_core::cluster::{
    ClusterBuilder, ClusterEvent, ClusterPolicy, ClusterScheduler, ClusterSessionId,
};
use shift_core::{AttachRequest, DeadlineClass, ShiftConfig};
use shift_experiments::cluster::{
    self, class_characterizations, diurnal_trace, node_classes, ClusterOptions, ClusterTraceOp,
};
use shift_experiments::ExperimentContext;
use shift_video::Scenario;

/// Builds a cluster of `size` nodes, replays the diurnal trace into it and
/// runs it to idle — the same replay `run_size` performs, but keeping the
/// scheduler for inspection.
fn replay(
    ctx: &ExperimentContext,
    size: usize,
    options: &ClusterOptions,
) -> (shift_core::ClusterScheduler, usize) {
    let characterizations = class_characterizations(ctx);
    let mut builder = ClusterBuilder::new().policy(
        ClusterPolicy::defaults().with_rebalance(options.rebalance_period, options.rebalance_gap),
    );
    for class in node_classes(size) {
        builder = builder.node(
            class,
            ctx.engine_on(class.platform()),
            characterizations[&class].clone(),
        );
    }
    let mut scheduler = builder.build().expect("cluster builds");
    for entry in diurnal_trace(ctx, options) {
        match entry.op {
            ClusterTraceOp::Attach(request) => {
                scheduler.schedule_attach(entry.tick, *request);
            }
            ClusterTraceOp::Detach(id) => scheduler.schedule_detach(entry.tick, id),
        }
    }
    let outcomes = scheduler.run_until_idle().expect("cluster run succeeds");
    (scheduler, outcomes.len())
}

#[test]
fn capacity_csv_replays_byte_identically_across_jobs_and_modes() {
    let options = ClusterOptions::smoke();
    let run = |jobs: usize| {
        let ctx = ExperimentContext::quick(2024).with_jobs(jobs);
        cluster::artifact(&ctx, &options)
            .expect("cluster artifact generates")
            .csv
            .into_bytes()
    };
    let reference = run(1);
    assert!(!reference.is_empty());
    for jobs in [2, 4, 8] {
        assert_eq!(
            reference,
            run(jobs),
            "--jobs {jobs} must not change a byte of the capacity CSV"
        );
    }
}

#[test]
fn diurnal_trace_exercises_a_live_migration() {
    // The artifact's own reduction must report rebalancing work somewhere in
    // the 1→8 sweep: parse the migrations column straight out of the CSV the
    // way a downstream consumer would.
    let ctx = ExperimentContext::quick(2024);
    let options = ClusterOptions::smoke();
    let artifact = cluster::artifact(&ctx, &options).expect("cluster artifact generates");
    let migrations: usize = artifact
        .csv
        .lines()
        .skip(1)
        .map(|line| {
            line.split(',')
                .nth(6)
                .expect("migrations column present")
                .parse::<usize>()
                .expect("migrations column is a count")
        })
        .sum();
    assert!(
        migrations >= 1,
        "the diurnal trace must drive at least one live migration across the sweep"
    );
    // And the scheduler-level record agrees: a multi-node replay produces
    // well-formed migration records (distinct source/destination, in-bounds
    // nodes, a real transfer charge).
    let (scheduler, _) = replay(&ctx, 4, &options);
    assert!(
        !scheduler.migrations().is_empty(),
        "the 4-node replay must migrate at least once"
    );
    for record in scheduler.migrations() {
        assert_ne!(record.from, record.to, "a migration changes nodes");
        assert!(record.from < scheduler.node_count());
        assert!(record.to < scheduler.node_count());
        assert!(record.transfer_s > 0.0, "state transfer takes time");
        assert!(record.transfer_j > 0.0, "state transfer costs energy");
    }
}

#[test]
fn migration_conserves_sessions_and_frames() {
    let ctx = ExperimentContext::quick(2024);
    let options = ClusterOptions::smoke();
    for size in [2, 4] {
        let (scheduler, total_frames) = replay(&ctx, size, &options);
        let sessions = scheduler.sessions();
        // Every offered session has exactly one ledger record.
        assert_eq!(sessions.len(), options.sessions);
        // The cluster ledger and the per-node services agree on who is
        // attached — no session was lost or duplicated by a migration.
        let node_total: usize = (0..scheduler.node_count())
            .map(|i| scheduler.node(i).active_sessions())
            .sum();
        assert_eq!(
            scheduler.attached_sessions(),
            node_total,
            "ledger and node session counts must agree (size {size})"
        );
        // Every processed frame is attributed to exactly one session, and
        // migrated sessions carry their pre-move frames with them.
        let attributed: usize = sessions.iter().map(|s| s.frames).sum();
        assert_eq!(
            attributed, total_frames,
            "frame attribution must conserve across migrations (size {size})"
        );
    }
}

/// Schedules `requests` — `(tick, is a detach)`, in call order — on
/// `scheduler` and returns, per request, the cluster id its answer names:
/// an attach's minted id (a zero-node cluster rejects it), or a tagged id
/// the cluster never mints for a detach (answered `UnknownSession`).
fn schedule_tagged(scheduler: &mut ClusterScheduler, requests: &[(u64, bool)]) -> Vec<u64> {
    requests
        .iter()
        .enumerate()
        .map(|(index, &(tick, detach))| {
            if detach {
                let tag = 1_000_000 + index as u64;
                scheduler.schedule_detach(tick, ClusterSessionId::from_value(tag));
                tag
            } else {
                let request = AttachRequest::new(
                    "probe",
                    Scenario::scenario_1().with_num_frames(4),
                    ShiftConfig::paper_defaults(),
                    DeadlineClass::Standard,
                );
                scheduler.schedule_attach(tick, request).value()
            }
        })
        .collect()
}

/// The drained cluster log as `(tick, named cluster id)` pairs.
fn fired(scheduler: &mut ClusterScheduler) -> Vec<(u64, u64)> {
    scheduler
        .drain_events()
        .into_iter()
        .map(|(tick, event)| match event {
            ClusterEvent::Rejected { session, .. } | ClusterEvent::UnknownSession { session } => {
                (tick, session.value())
            }
            other => panic!("a zero-node cluster only rejects or answers unknown, got {other:?}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Requests fire in (tick, schedule order) with no detach-first rank;
    /// after a run ends at clock C, requests scheduled for earlier ticks all
    /// fire at C, in schedule order.
    #[test]
    fn cluster_requests_fire_fifo_within_a_tick_and_past_ticks_at_the_clock(
        first in proptest::collection::vec((0u64..8, 0usize..2), 1..24),
        late in proptest::collection::vec((0u64..8, 0usize..2), 1..12),
    ) {
        let mut scheduler = ClusterBuilder::new().build().expect("an empty cluster builds");
        let first: Vec<(u64, bool)> = first.iter().map(|&(t, k)| (t, k == 0)).collect();
        let tags = schedule_tagged(&mut scheduler, &first);
        scheduler.run_until_idle().expect("an empty cluster runs");
        let mut expected: Vec<(u64, u64)> = first.iter().map(|&(t, _)| t).zip(tags).collect();
        expected.sort_by_key(|&(tick, _)| tick);
        prop_assert_eq!(fired(&mut scheduler), expected);

        let clock = scheduler.clock();
        let late: Vec<(u64, bool)> = late.iter().map(|&(t, k)| (t % clock, k == 0)).collect();
        let tags = schedule_tagged(&mut scheduler, &late);
        scheduler.run_until_idle().expect("an empty cluster runs");
        let expected: Vec<(u64, u64)> = tags.into_iter().map(|tag| (clock, tag)).collect();
        prop_assert_eq!(fired(&mut scheduler), expected);
    }
}
