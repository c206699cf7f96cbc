//! Property tests for the discrete-event queue ([`shift_core::des`]).
//!
//! The queue promises a *total*, deterministic pop order under the
//! documented `(time, event-kind rank, stream id, sequence number)`
//! tie-break. Each case below samples a random schedule (times, kinds,
//! streams, insertion order) and checks:
//!
//! 1. pop order is total: drained keys are strictly increasing, so no two
//!    events ever compare equal,
//! 2. pop order is stable under random insertion orders: events with
//!    distinct `(time, kind, stream)` coordinates drain in the same order
//!    no matter how their insertion was shuffled,
//! 3. same-timestamp events respect the documented tie-break: rank first,
//!    then stream id, then insertion (FIFO) order,
//! 4. a drained queue replayed from the same seed is byte-identical.

use proptest::prelude::*;
use shift_core::des::{EventKey, EventKind, EventQueue};

/// Deterministic SplitMix64 stream — the shuffle and replay source.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// In-place Fisher–Yates over a SplitMix64 stream.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn kind_at(index: usize) -> EventKind {
    EventKind::ALL[index % EventKind::ALL.len()]
}

/// Schedules `entries` (in slice order) and drains the queue, returning the
/// popped `(key, kind, payload)` sequence.
fn drain(entries: &[(u64, usize, u64)]) -> Vec<(EventKey, EventKind, usize)> {
    let mut queue = EventQueue::new();
    for (payload, &(time, kind, stream)) in entries.iter().enumerate() {
        queue.schedule(time, kind_at(kind), stream as u32, payload);
    }
    let mut out = Vec::with_capacity(queue.len());
    while let Some(event) = queue.pop() {
        out.push((event.key, event.kind, event.payload));
    }
    assert!(queue.is_empty() && queue.pop().is_none());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1: drained keys are strictly increasing — the order is
    /// total, and every key carries the rank its kind documents.
    #[test]
    fn pop_order_is_total_and_strictly_increasing(
        entries in proptest::collection::vec((0u64..40, 0usize..4, 0u64..8), 0..48),
    ) {
        let drained = drain(&entries);
        prop_assert_eq!(drained.len(), entries.len());
        for pair in drained.windows(2) {
            prop_assert!(pair[0].0 < pair[1].0, "keys must strictly increase");
        }
        for (key, kind, payload) in &drained {
            prop_assert_eq!(key.rank, kind.rank());
            let (time, kind_index, stream) = entries[*payload];
            prop_assert_eq!(key.time, time);
            prop_assert_eq!(*kind, kind_at(kind_index));
            prop_assert_eq!(key.stream, stream as u32);
        }
    }

    /// Invariant 2: for events with distinct `(time, kind, stream)`
    /// coordinates, pop order does not depend on insertion order.
    #[test]
    fn pop_order_is_stable_under_random_insertion_orders(
        entries in proptest::collection::vec((0u64..40, 0usize..4, 0u64..8), 1..48),
        shuffle_seed in 0u64..10_000,
    ) {
        let mut distinct = entries;
        distinct.sort_unstable();
        distinct.dedup();
        let baseline: Vec<(u64, usize, u64)> =
            drain(&distinct).iter().map(|&(_, _, p)| distinct[p]).collect();
        let mut shuffled = distinct.clone();
        shuffle(&mut shuffled, shuffle_seed);
        let reshuffled: Vec<(u64, usize, u64)> =
            drain(&shuffled).iter().map(|&(_, _, p)| shuffled[p]).collect();
        prop_assert_eq!(baseline, reshuffled);
    }

    /// Invariant 3: at one timestamp, events drain by kind rank, then
    /// stream id, then insertion (FIFO) order — exactly a stable sort of
    /// the insertion sequence on `(rank, stream)`.
    #[test]
    fn same_timestamp_events_respect_the_documented_tiebreak(
        entries in proptest::collection::vec((0usize..4, 0u64..8), 1..48),
        time in 0u64..1_000,
    ) {
        let timed: Vec<(u64, usize, u64)> =
            entries.iter().map(|&(kind, stream)| (time, kind, stream)).collect();
        let drained: Vec<usize> = drain(&timed).iter().map(|&(_, _, p)| p).collect();
        let mut expected: Vec<usize> = (0..timed.len()).collect();
        expected.sort_by_key(|&p| (kind_at(timed[p].1).rank(), timed[p].2));
        prop_assert_eq!(drained, expected, "stable (rank, stream) order at one timestamp");
    }

    /// Invariant 4: the same seed replays a byte-identical drain.
    #[test]
    fn drained_queue_replayed_from_the_same_seed_is_byte_identical(
        seed in 0u64..10_000,
        len in 1usize..64,
    ) {
        let run = |seed: u64| {
            let mut state = seed;
            let entries: Vec<(u64, usize, u64)> = (0..len)
                .map(|_| {
                    (
                        splitmix(&mut state) % 32,
                        (splitmix(&mut state) % 4) as usize,
                        splitmix(&mut state) % 6,
                    )
                })
                .collect();
            format!("{:?}", drain(&entries)).into_bytes()
        };
        prop_assert_eq!(run(seed), run(seed));
        // And a different seed genuinely perturbs the drain for any
        // non-trivial schedule length.
        if len >= 8 {
            prop_assert!(
                run(seed) != run(seed.wrapping_add(1)),
                "adjacent seeds must not collide"
            );
        }
    }
}

/// The worked ordering example from the module docs, pinned as a plain test.
#[test]
fn documented_tiebreak_example() {
    let mut queue = EventQueue::new();
    queue.schedule(1, EventKind::FrameArrival, 0, "next-tick");
    queue.schedule(0, EventKind::InferenceComplete, 0, "infer");
    queue.schedule(0, EventKind::FrameArrival, 1, "arrival-s1");
    queue.schedule(0, EventKind::FrameArrival, 0, "arrival-s0-first");
    queue.schedule(0, EventKind::FrameArrival, 0, "arrival-s0-second");
    queue.schedule(0, EventKind::SessionDetach, 7, "detach");
    let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|e| e.payload)).collect();
    assert_eq!(
        order,
        [
            "detach",
            "arrival-s0-first",
            "arrival-s0-second",
            "arrival-s1",
            "infer",
            "next-tick",
        ]
    );
}
