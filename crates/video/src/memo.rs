//! The whole-frame NCC of a scenario's consecutive frames, computed once per
//! scenario value.
//!
//! A scenario's frame `i` is a pure function of the scenario and `i`, so the
//! whole-frame [`ncc`](crate::ncc()) of frames `i − 1` and `i` is too: every
//! replay of the scenario, by any runtime, fleet or cluster, correlates the
//! same pair to the same bits. Every [`Scenario`](crate::Scenario) therefore
//! holds an [`NccMemo`], one 8-byte slot per frame, which all its clones
//! share and every constructor and builder call starts afresh. The renderer
//! tags each frame with its scenario's memo and its index ([`MemoTag`], kept
//! in the image's moment cache, so a mutation drops it). `ncc(p, c)` reads
//! slot `i` when `p` and `c` carry one memo and indices `i − 1` and `i`;
//! otherwise, or while the slot is empty, it computes the value exactly as it
//! would without the memo (lane pass or serial loop) and fills the slot.
//!
//! Filling needs no lock: a slot is one atomic word, and two threads that
//! race to fill it computed the same bits. Relaxed ordering suffices,
//! because a slot publishes no data but its own value, whole in that word,
//! and the miss count is a statistic.

use crate::image::GrayImage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One scenario value's whole-frame NCC of each frame with the frame before
/// it, shared by the scenario's clones and by every frame rendered from them.
#[derive(Debug)]
pub(crate) struct NccMemo {
    /// Slot `i` holds `ncc(frame i − 1, frame i)` as the complement of its
    /// bits, so that an empty slot reads 0; slot 0 stays empty.
    slots: Box<[AtomicU64]>,
    /// The correlations of consecutive frames that found their slot empty.
    misses: AtomicU64,
}

impl NccMemo {
    /// An empty memo for a scenario of `frames` frames.
    pub(crate) fn new(frames: usize) -> Arc<Self> {
        Arc::new(Self {
            slots: (0..frames).map(|_| AtomicU64::new(0)).collect(),
            misses: AtomicU64::new(0),
        })
    }

    /// How many correlations of consecutive frames found their slot empty
    /// and computed the value.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// What the renderer attaches to a frame: its scenario's memo and its index.
#[derive(Debug)]
pub(crate) struct MemoTag {
    memo: Arc<NccMemo>,
    index: usize,
}

impl MemoTag {
    pub(crate) fn new(memo: &Arc<NccMemo>, index: usize) -> Self {
        Self {
            memo: Arc::clone(memo),
            index,
        }
    }
}

/// The memo slot a correlation of `p` with `c` reads and fills.
#[derive(Debug)]
pub(crate) struct Slot<'a> {
    memo: &'a NccMemo,
    index: usize,
}

/// `(p, c)`'s slot: `c`'s, when both frames carry one memo and `p`'s index
/// is one below `c`'s. `None` for any other pair.
pub(crate) fn slot<'a>(p: &'a GrayImage, c: &'a GrayImage) -> Option<Slot<'a>> {
    let (p, c) = (p.memo_tag()?, c.memo_tag()?);
    (Arc::ptr_eq(&p.memo, &c.memo) && p.index.checked_add(1) == Some(c.index)).then(|| Slot {
        memo: &c.memo,
        index: c.index,
    })
}

impl Slot<'_> {
    /// The slot's value, once some correlation has filled it.
    pub(crate) fn get(&self) -> Option<f64> {
        match self.memo.slots.get(self.index)?.load(Ordering::Relaxed) {
            0 => None,
            bits => Some(f64::from_bits(!bits)),
        }
    }

    /// Counts a miss and stores `value`. A NaN with every bit set
    /// complements to 0 and so reads as empty: it is computed again when
    /// asked.
    pub(crate) fn fill(&self, value: f64) {
        self.memo.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.memo.slots.get(self.index) {
            slot.store(!value.to_bits(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::block::count;
    use crate::block::tests::{own_memo, unlinked};
    use crate::{ncc, Frame, GrayImage, Scenario};

    /// Frame `index` of `scenario`, rendered on its own.
    fn frame(scenario: &Scenario, index: usize) -> GrayImage {
        scenario.stream().frame_at(index).expect("in range").image
    }

    /// Every consecutive pair's whole-frame NCC over `scenario`'s stream.
    fn stream_nccs(scenario: &Scenario) -> Vec<u64> {
        let frames: Vec<Frame> = scenario.stream().collect();
        frames
            .windows(2)
            .map(|w| ncc(&w[0].image, &w[1].image).unwrap().to_bits())
            .collect()
    }

    #[test]
    fn a_memo_filled_by_one_clone_answers_every_other_with_the_same_bits() {
        let scenario = Scenario::scenario_1().with_num_frames(20);
        let reference = stream_nccs(&own_memo(&scenario));
        let before = count::read();
        assert_eq!(stream_nccs(&scenario), reference);
        let filled = count::read();
        // Blocks of 8, 8 and 4 frames; no serial loop.
        assert_eq!((filled.0 - before.0, filled.1 - before.1), (3, 0));
        assert_eq!(scenario.ncc_memo_misses(), 19);

        // A clone's stream, and frames of a clone rendered one at a time,
        // read every pair.
        let clone = scenario.clone();
        assert_eq!(stream_nccs(&clone), reference);
        let one_by_one: Vec<u64> = (1..20)
            .map(|i| {
                let value = ncc(&frame(&clone, i - 1), &frame(&clone, i));
                value.unwrap().to_bits()
            })
            .collect();
        assert_eq!(one_by_one, reference);
        let after = count::read();
        assert_eq!((after.0 - filled.0, after.1 - filled.1), (0, 0));
        assert_eq!(scenario.ncc_memo_misses(), 19);
        assert_eq!(clone.ncc_memo_misses(), 19, "clones share the count");
    }

    #[test]
    fn a_previous_frame_that_is_not_frame_i_minus_one_is_correlated_not_read() {
        let scenario = Scenario::scenario_2().with_num_frames(12);
        stream_nccs(&scenario);
        assert_eq!(scenario.ncc_memo_misses(), 11);
        // A detector that skipped frames 3 and 4: frame 2, then frame 5.
        // Slot 5 holds the NCC of frames 4 and 5, which is not this one.
        let (p, c) = (frame(&scenario, 2), frame(&scenario, 5));
        let before = count::read();
        let skipped = ncc(&p, &c).unwrap();
        let mid = count::read();
        let expected = ncc(&unlinked(&p), &unlinked(&c)).unwrap();
        assert_eq!(skipped.to_bits(), expected.to_bits());
        assert_eq!(mid.1 - before.1, 1, "the skipped pair runs the serial loop");
        // A detector whose previous frame is frame 4 of another scenario
        // value, equal in content: the same pixels, but not the same memo.
        let other = own_memo(&scenario);
        let (p, c) = (frame(&other, 4), frame(&scenario, 5));
        let before = count::read();
        let across = ncc(&p, &c).unwrap();
        let after = count::read();
        assert_eq!(across.to_bits(), stream_nccs(&own_memo(&scenario))[4]);
        assert_eq!(
            after.1 - before.1,
            1,
            "two values' frames run the serial loop"
        );
        // Neither correlation counts as a miss of either memo.
        assert_eq!(scenario.ncc_memo_misses(), 11);
        assert_eq!(other.ncc_memo_misses(), 0);
        // A frame after itself is not a consecutive pair either.
        let before = count::read();
        assert_eq!(ncc(&c, &c).unwrap(), 1.0);
        assert_eq!(count::read().1 - before.1, 1);
        assert_eq!(scenario.ncc_memo_misses(), 11);
    }

    #[test]
    fn each_constructor_and_builder_starts_a_fresh_memo() {
        let fill = |scenario: &Scenario| {
            ncc(&frame(scenario, 0), &frame(scenario, 1)).unwrap();
            scenario.ncc_memo_misses()
        };
        let original = Scenario::scenario_3().with_num_frames(6);
        assert_eq!(fill(&original), 1);
        assert_eq!(fill(&original.clone()), 1, "a clone shares the memo");
        let built = [
            ("constructor", Scenario::scenario_3().with_num_frames(6)),
            ("with_seed", original.clone().with_seed(original.seed())),
            ("with_num_frames", original.clone().with_num_frames(6)),
            ("with_frame_size", original.clone().with_frame_size(64, 64)),
            (
                "with_camera_shake",
                original.clone().with_camera_shake(original.camera_shake()),
            ),
        ];
        for (how, scenario) in &built {
            assert_eq!(scenario, &original, "{how} keeps the content");
            assert_eq!(scenario.ncc_memo_misses(), 0, "{how}");
            assert_eq!(fill(scenario), 1, "{how} computes its own");
        }
        assert_eq!(original.ncc_memo_misses(), 1);
    }

    #[test]
    fn equality_and_debug_ignore_the_memo() {
        let a = Scenario::scenario_4().with_num_frames(5);
        let b = a.clone().with_seed(a.seed());
        stream_nccs(&a);
        assert_ne!(a.ncc_memo_misses(), b.ncc_memo_misses());
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!format!("{a:?}").contains("memo"));
        assert_ne!(a, b.with_seed(a.seed() + 1));
    }

    #[test]
    fn set_drops_a_frames_memo_tag() {
        let scenario = Scenario::scenario_2().with_num_frames(4);
        let (p, mut c) = (frame(&scenario, 0), frame(&scenario, 1));
        let shared = c.clone();
        ncc(&p, &c).unwrap();
        assert!(c.memo_tag().is_some());
        let old = c.get(3, 3);
        c.set(3, 3, 1.0 - old);
        assert!(c.memo_tag().is_none());
        assert!(shared.memo_tag().is_some(), "the unchanged clone keeps it");
        let before = count::read();
        let changed = ncc(&p, &c).unwrap();
        assert_eq!(
            count::read().1 - before.1,
            1,
            "a changed frame is correlated"
        );
        let expected = ncc(&unlinked(&p), &unlinked(&c)).unwrap();
        assert_eq!(changed.to_bits(), expected.to_bits());
        assert_eq!(scenario.ncc_memo_misses(), 1);
        // A second `set`, on the now unshared image, clears in place.
        c.set(3, 3, old);
        assert!(c.memo_tag().is_none());
    }

    #[test]
    fn two_threads_over_clones_get_the_same_bits() {
        let scenario = Scenario::scenario_6().with_num_frames(40);
        let reference = stream_nccs(&own_memo(&scenario));
        let start = std::sync::Barrier::new(2);
        let results: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    let (clone, start) = (scenario.clone(), &start);
                    scope.spawn(move || {
                        start.wait();
                        stream_nccs(&clone)
                    })
                })
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("the thread runs"))
                .collect()
        });
        assert_eq!(results[0], reference);
        assert_eq!(results[1], reference);
        // Each of the 39 pairs was computed by one thread or by both.
        assert!((39..=78).contains(&scenario.ncc_memo_misses()));
        assert_eq!(stream_nccs(&scenario), reference);
    }
}
