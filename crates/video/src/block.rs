//! Frame blocks: the whole-frame NCC of eight consecutive frame pairs in one
//! pass, one pair per f64 lane.
//!
//! [`ncc`](crate::ncc())'s serial loop adds a pair's cross term and
//! centered norm one pixel at a time: two chains of dependent f64 additions
//! whose order bit-identity pins. The chains of *different* pairs are
//! independent, though. A [`FrameStream`](crate::FrameStream) renders its
//! frames in blocks of [`BLOCK_LEN`] and links each block, together with the
//! previous block's last frame, into one shared [`BlockRecord`]. The first
//! correlation that asks for one of the block's consecutive pairs runs every
//! pair of the block at once: lane k carries pair k's cross term and the
//! centered norm of its right-hand frame, and adds them in exactly the order
//! of the serial loop, so every lane ends with the serial loop's bits. Later
//! pairs of the block are answered from the record.
//!
//! Three rules keep the record cheap and correct:
//!
//! - It never keeps pixels alive: it holds `Weak` references to the pixel
//!   buffers, plus the means the renderer cached. A pair whose buffer was
//!   dropped before the pass, or whose pixels were mutated (which moves the
//!   buffer, see `GrayImage::pixels_mut`), takes the serial path.
//! - The pass runs only when a correlation asks for it: a stream that is
//!   only rendered, like the characterization dataset's, never pays for it.
//! - A pair counts as linked only when the right-hand frame's record names
//!   the left-hand frame's own buffer as its predecessor. Any other pair,
//!   and every frame rendered one at a time through
//!   [`FrameStream::frame_at`](crate::FrameStream::frame_at), takes the
//!   serial path.
//!
//! The pass has two compiled copies. The portable one is a per-lane loop.
//! On a host with AVX-512 (the renderer's detection) a copy centers eight
//! pixels of each frame, transposes them in registers so that one register
//! holds one pixel of eight frames, and runs all eight chains in the lanes
//! of one register. The lanes do the serial loop's operations in its order,
//! and Rust never fuses a multiply and an add, so both copies give the same
//! bits.

use crate::image::{has_avx512, GrayImage};
use std::ops::Range;
use std::sync::{Arc, OnceLock, Weak};

/// Frames a stream renders at a time, and the pairs one pass correlates: the
/// f64 lanes of an AVX-512 register.
pub(crate) const BLOCK_LEN: usize = 8;

/// The most frames one record holds: a block and its predecessor.
const MEMBERS: usize = BLOCK_LEN + 1;

/// A frame as a block record knows it: its pixel buffer, held weakly so the
/// record never keeps pixels alive, and its cached mean.
#[derive(Debug, Clone)]
pub(crate) struct Member {
    pixels: Weak<Vec<f32>>,
    mean: f64,
}

impl Member {
    pub(crate) fn of(image: &GrayImage) -> Self {
        Self {
            pixels: Arc::downgrade(image.buffer()),
            mean: image.mean(),
        }
    }
}

/// One pair's sums: the cross term `Σ (p − mean(p)) (c − mean(c))` and the
/// right-hand frame's centered norm `Σ (c − mean(c))²`.
type PairSums = (f64, f64);

/// The record a block's frames share.
#[derive(Debug)]
pub(crate) struct BlockRecord {
    /// The frames in stream order: the previous block's last frame when the
    /// block continues it, then the block's own. Pair k is
    /// `(members[k], members[k + 1])`.
    members: Vec<Member>,
    /// Every pair's sums, filled by the first pass; `None` for a pair one of
    /// whose buffers was gone when the pass ran.
    sums: OnceLock<[Option<PairSums>; BLOCK_LEN]>,
}

/// A frame's place in its block's record: `slot` indexes the record's
/// members, so the frame is the right-hand side of pair `slot − 1`.
#[derive(Debug)]
pub(crate) struct BlockLink {
    record: Arc<BlockRecord>,
    slot: usize,
}

/// Links `images`, consecutive frames rendered together, into one record,
/// after `previous`, the frame just before them when the stream rendered it.
pub(crate) fn link<'a>(
    previous: Option<Member>,
    images: impl Iterator<Item = &'a GrayImage> + Clone,
) {
    let offset = usize::from(previous.is_some());
    let members: Vec<Member> = previous
        .into_iter()
        .chain(images.clone().map(Member::of))
        .collect();
    debug_assert!(
        members.len() <= MEMBERS,
        "a block links at most {MEMBERS} frames"
    );
    let record = Arc::new(BlockRecord {
        members,
        sums: OnceLock::new(),
    });
    for (i, image) in images.enumerate() {
        image.set_block_link(BlockLink {
            record: Arc::clone(&record),
            slot: offset + i,
        });
    }
}

/// `(p, c)`'s sums from `c`'s block record, when the record names `p`'s
/// pixel buffer as `c`'s predecessor; the first question to a record runs
/// its pass. `None` sends the pair down the serial path.
pub(crate) fn linked_sums(p: &GrayImage, c: &GrayImage) -> Option<PairSums> {
    let BlockLink { record, slot } = c.block_link()?;
    let pair = slot.checked_sub(1)?;
    // The record's weak reference keeps the predecessor's allocation from
    // being reused, so an equal address is the same buffer.
    if !std::ptr::eq(
        record.members[pair].pixels.as_ptr(),
        Arc::as_ptr(p.buffer()),
    ) {
        return None;
    }
    record.sums.get_or_init(|| record.pass())[pair]
}

impl BlockRecord {
    /// Correlates every pair whose two buffers are still alive.
    fn pass(&self) -> [Option<PairSums>; BLOCK_LEN] {
        #[cfg(test)]
        count::PASSES.with(|n| n.set(n.get() + 1));
        let buffers: Vec<Option<Arc<Vec<f32>>>> =
            self.members.iter().map(|m| m.pixels.upgrade()).collect();
        let mut sums = [None; BLOCK_LEN];
        // The caller holds both frames of the pair it asked for, so at least
        // one buffer is alive. Lanes without a pair run on it and are
        // discarded.
        let Some(filler) = buffers.iter().flatten().next() else {
            return sums;
        };
        let mut rows = [filler.as_slice(); MEMBERS];
        let mut means = [0.0; MEMBERS];
        for ((row, mean), (buffer, member)) in rows
            .iter_mut()
            .zip(&mut means)
            .zip(buffers.iter().zip(&self.members))
        {
            if let Some(buffer) = buffer {
                *row = buffer;
                *mean = member.mean;
            }
        }
        let lanes = lane_sums(&rows, &means);
        for (k, pair) in buffers.windows(2).enumerate() {
            if pair[0].is_some() && pair[1].is_some() {
                sums[k] = Some((lanes.num[k], lanes.norm[k]));
            }
        }
        sums
    }
}

/// Each lane's running sums: lane k is pair `(rows[k], rows[k + 1])`.
#[derive(Debug)]
struct LaneSums {
    num: [f64; BLOCK_LEN],
    norm: [f64; BLOCK_LEN],
}

impl LaneSums {
    /// Where [`ncc`](crate::ncc())'s serial loop starts its sums.
    const ZERO: Self = Self {
        num: [0.0; BLOCK_LEN],
        norm: [0.0; BLOCK_LEN],
    };
}

/// The sums of pairs `(rows[k], rows[k + 1])` for every lane k, on the
/// AVX-512 copy when [`has_avx512`] finds its features, else on the
/// portable one. Every row must have the same length.
#[allow(unsafe_code)]
fn lane_sums(rows: &[&[f32]; MEMBERS], means: &[f64; MEMBERS]) -> LaneSums {
    #[cfg(target_arch = "x86_64")]
    if has_avx512() {
        // SAFETY: `lane_sums_avx512` may only run on a CPU with avx512f,
        // avx512dq and avx512vl, its `target_feature` set, and `has_avx512`
        // has just detected all three on this CPU.
        return unsafe { lane_sums_avx512(rows, means) };
    }
    let mut sums = LaneSums::ZERO;
    per_lane(rows, means, 0..rows[0].len(), &mut sums);
    sums
}

/// Pixels per step: the f64 lanes of an AVX-512 register.
const STEP: usize = 8;

/// The portable copy, and the AVX-512 copy's tail: adds pixels `pixels` of
/// every lane's pair into `sums` in [`ncc`](crate::ncc())'s serial order,
/// pixel by pixel. Whole steps of [`STEP`] pixels read fixed-size arrays, so
/// their loads carry no bounds checks. Inlined always, so each caller
/// compiles its own copy for its own target features.
#[inline(always)]
fn per_lane(
    rows: &[&[f32]; MEMBERS],
    means: &[f64; MEMBERS],
    pixels: Range<usize>,
    sums: &mut LaneSums,
) {
    let mut start = pixels.start;
    while start + STEP <= pixels.end {
        let step: [&[f32; STEP]; MEMBERS] = std::array::from_fn(|k| {
            rows[k][start..start + STEP]
                .try_into()
                .expect("a step is STEP pixels")
        });
        let step: [[f32; MEMBERS]; STEP] = std::array::from_fn(|j| step.map(|row| row[j]));
        for pixel in step {
            add_pixel(pixel, means, sums);
        }
        start += STEP;
    }
    for pixel in (start..pixels.end).map(|i| rows.map(|row| row[i])) {
        add_pixel(pixel, means, sums);
    }
}

/// Adds one pixel of every row to every lane: the cross term before the
/// norm, as [`ncc`](crate::ncc())'s loop does. A frame's centered value is
/// the left-hand term of one lane and the right-hand term of the lane
/// before, so it is computed once.
#[inline(always)]
fn add_pixel(pixel: [f32; MEMBERS], means: &[f64; MEMBERS], sums: &mut LaneSums) {
    let d: [f64; MEMBERS] = std::array::from_fn(|k| pixel[k] as f64 - means[k]);
    for k in 0..BLOCK_LEN {
        sums.num[k] += d[k] * d[k + 1];
        sums.norm[k] += d[k + 1] * d[k + 1];
    }
}

/// The AVX-512 copy. Each step centers [`STEP`] pixels of every row, then
/// transposes the first eight rows so that register j holds pixel j of rows
/// 0–7, the left-hand frames; a permute shifts in the ninth row's pixel to
/// get rows 1–8, the right-hand frames. The pixels that do not fill a step
/// run through [`per_lane`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn lane_sums_avx512(rows: &[&[f32]; MEMBERS], means: &[f64; MEMBERS]) -> LaneSums {
    use std::arch::x86_64::*;

    let len = rows[0].len();
    let steps = len - len % STEP;
    let rows = rows.map(|row| &row[..len]);
    // Lanes 1–7 of the first source, then lane j of the second.
    let shift: [__m512i; STEP] =
        std::array::from_fn(|j| _mm512_setr_epi64(1, 2, 3, 4, 5, 6, 7, 8 + j as i64));
    let (mut num, mut norm) = (_mm512_setzero_pd(), _mm512_setzero_pd());
    for start in (0..steps).step_by(STEP) {
        // Row k's pixels minus its mean, pixel j in lane j.
        let centered = |k: usize| {
            let px: &[f32; STEP] = rows[k][start..start + STEP]
                .try_into()
                .expect("a step is STEP pixels");
            let px = _mm256_setr_ps(px[0], px[1], px[2], px[3], px[4], px[5], px[6], px[7]);
            _mm512_sub_pd(_mm512_cvtps_pd(px), _mm512_set1_pd(means[k]))
        };
        let left = transpose(std::array::from_fn(centered));
        let last = centered(BLOCK_LEN);
        for (da, shift) in left.into_iter().zip(shift) {
            let db = _mm512_permutex2var_pd(da, shift, last);
            num = _mm512_add_pd(num, _mm512_mul_pd(da, db));
            norm = _mm512_add_pd(norm, _mm512_mul_pd(db, db));
        }
    }
    let lane = |v: __m512d, k: usize| {
        let at = _mm512_set1_epi64(k as i64);
        _mm_cvtsd_f64(_mm512_castpd512_pd128(_mm512_permutexvar_pd(at, v)))
    };
    let mut sums = LaneSums {
        num: std::array::from_fn(|k| lane(num, k)),
        norm: std::array::from_fn(|k| lane(norm, k)),
    };
    per_lane(&rows, means, steps..len, &mut sums);
    sums
}

/// Transposes eight rows of eight f64: lane k of output j is lane j of input
/// k. Three rounds of two-source shuffles: pairs of lanes, then pairs of
/// 128-bit chunks, then 256-bit halves.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
#[inline]
fn transpose(r: [std::arch::x86_64::__m512d; 8]) -> [std::arch::x86_64::__m512d; 8] {
    use std::arch::x86_64::*;

    // t[2i] holds rows 2i and 2i+1 at even pixels, t[2i+1] at odd ones.
    let t: [__m512d; 8] = std::array::from_fn(|k| {
        let (a, b) = (r[k & !1], r[k | 1]);
        if k % 2 == 0 {
            _mm512_unpacklo_pd(a, b)
        } else {
            _mm512_unpackhi_pd(a, b)
        }
    });
    // u[4h + m]: rows 4h..4h+4 at pixels m' and m' + 4, where m' is 0, 2,
    // 1, 3 for m = 0, 1, 2, 3.
    let low = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    let high = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    let u: [__m512d; 8] = std::array::from_fn(|k| {
        let (h, m) = (k / 4, k % 4);
        let (a, b) = (t[4 * h + m / 2], t[4 * h + 2 + m / 2]);
        _mm512_permutex2var_pd(a, if m % 2 == 0 { low } else { high }, b)
    });
    // Pixel j: rows 0–3 from u[m], rows 4–7 from u[4 + m], taking the low
    // 256-bit halves for j < 4 and the high ones for j ≥ 4.
    std::array::from_fn(|j| {
        let m = [0, 2, 1, 3][j % 4];
        if j < 4 {
            _mm512_shuffle_f64x2(u[m], u[4 + m], 0b01_00_01_00)
        } else {
            _mm512_shuffle_f64x2(u[m], u[4 + m], 0b11_10_11_10)
        }
    })
}

/// Counts of the two whole-frame NCC paths on the current thread, for the
/// tests that pin which path a correlation takes.
#[cfg(test)]
pub(crate) mod count {
    use std::cell::Cell;

    thread_local! {
        /// Block passes run.
        pub(crate) static PASSES: Cell<usize> = const { Cell::new(0) };
        /// Serial cross-term loops run.
        pub(crate) static SERIAL: Cell<usize> = const { Cell::new(0) };
    }

    /// `(passes, serial loops)` so far on this thread.
    pub(crate) fn read() -> (usize, usize) {
        (PASSES.with(Cell::get), SERIAL.with(Cell::get))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{render_frame, SceneAppearance};
    use crate::{ncc, BoundingBox, Frame, Scenario};

    /// [`ncc`](crate::ncc())'s serial loop for one pair, written out: the cross
    /// term and the right-hand norm every lane must reproduce.
    fn serial(p: &[f32], mp: f64, c: &[f32], mc: f64) -> PairSums {
        let (mut num, mut norm) = (0.0f64, 0.0f64);
        for (a, b) in p.iter().zip(c) {
            let da = *a as f64 - mp;
            let db = *b as f64 - mc;
            num += da * db;
            norm += db * db;
        }
        (num, norm)
    }

    /// The same pixels in a buffer of their own, linked to nothing.
    fn unlinked(image: &GrayImage) -> GrayImage {
        GrayImage::from_fn(image.width(), image.height(), |x, y| image.get(x, y))
    }

    fn bits(sums: PairSums) -> (u64, u64) {
        (sums.0.to_bits(), sums.1.to_bits())
    }

    /// Nine frames of one size whose consecutive pairs cover both `EPS`
    /// branches of [`ncc`] (flat beside textured, flat beside flat) and a
    /// frame beside an identical one in another buffer.
    fn mixed_frames(width: usize, height: usize) -> Vec<GrayImage> {
        let look = |background_id| SceneAppearance {
            background_id,
            clutter: 0.9,
            ..SceneAppearance::default()
        };
        let (w, h) = (width as f64, height as f64);
        let target = BoundingBox::from_center(w / 2.0, h / 2.0, w / 3.0, h / 3.0);
        let textured = |id: u32, seed| render_frame(width, height, &look(id), Some(&target), seed);
        let flat = |v| GrayImage::from_fn(width, height, |_, _| v);
        let repeat = textured(2, 11);
        vec![
            textured(0, 1),
            flat(0.5),
            flat(0.25),
            textured(1, 7),
            unlinked(&repeat),
            repeat,
            textured(3, 5),
            flat(0.5),
            textured(4, 9),
        ]
    }

    const SIZES: [(usize, usize); 5] = [(1, 1), (3, 5), (17, 9), (64, 64), (65, 63)];

    #[test]
    fn lane_copies_are_bit_identical_to_the_serial_loop() {
        // `lane_sums` runs the AVX-512 copy on a host that has it; here the
        // portable loop also runs directly, and both must give every pair
        // the serial loop's bits. Lanes past the block's pairs run on the
        // filler row and must still agree between the copies.
        for (width, height) in SIZES {
            let frames = mixed_frames(width, height);
            for len in 2..=MEMBERS {
                let block = &frames[..len];
                let mut rows = [block[0].pixels(); MEMBERS];
                let mut means = [0.0; MEMBERS];
                for (k, frame) in block.iter().enumerate() {
                    rows[k] = frame.pixels();
                    means[k] = frame.mean();
                }
                let dispatched = lane_sums(&rows, &means);
                let mut portable = LaneSums::ZERO;
                per_lane(&rows, &means, 0..width * height, &mut portable);
                let case = format!("{width}x{height}, {len} frames");
                for k in 0..BLOCK_LEN {
                    assert_eq!(
                        bits((dispatched.num[k], dispatched.norm[k])),
                        bits((portable.num[k], portable.norm[k])),
                        "{case}, lane {k}"
                    );
                }
                for k in 0..len - 1 {
                    let expected = serial(rows[k], means[k], rows[k + 1], means[k + 1]);
                    assert_eq!(
                        bits((portable.num[k], portable.norm[k])),
                        bits(expected),
                        "{case}, pair {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn linked_pairs_give_the_serial_ncc_and_its_norms() {
        for (width, height) in SIZES {
            let frames = mixed_frames(width, height);
            let copies: Vec<GrayImage> = frames.iter().map(unlinked).collect();
            link(None, frames.iter());
            let before = count::read();
            for (pair, copy) in frames.windows(2).zip(copies.windows(2)) {
                let (linked, expected) = (ncc(&pair[0], &pair[1]), ncc(&copy[0], &copy[1]));
                assert_eq!(linked.unwrap().to_bits(), expected.unwrap().to_bits());
            }
            let after = count::read();
            assert_eq!(after.0 - before.0, 1, "{width}x{height}: one pass");
            assert_eq!(after.1 - before.1, 8, "{width}x{height}: only the copies");
            for (frame, copy) in frames.iter().zip(&copies) {
                assert_eq!(
                    frame.centered_norm().to_bits(),
                    copy.centered_norm().to_bits()
                );
            }
        }
    }

    /// Each consecutive pair's whole-frame NCC, from frames rendered one at
    /// a time and so linked to nothing.
    fn serial_nccs(scenario: &Scenario) -> Vec<u64> {
        let stream = scenario.stream();
        (1..scenario.num_frames())
            .map(|i| {
                let p = stream.frame_at(i - 1).expect("in range").image;
                let c = stream.frame_at(i).expect("in range").image;
                ncc(&p, &c).expect("one size").to_bits()
            })
            .collect()
    }

    #[test]
    fn a_stream_runs_one_pass_per_block_and_no_serial_loop() {
        let scenario = Scenario::scenario_1().with_num_frames(30);
        let before = count::read();
        let expected = serial_nccs(&scenario);
        let after = count::read();
        assert_eq!((after.0 - before.0, after.1 - before.1), (0, 29));

        let frames: Vec<Frame> = scenario.stream().collect();
        let before = count::read();
        let got: Vec<u64> = frames
            .windows(2)
            .map(|w| ncc(&w[0].image, &w[1].image).unwrap().to_bits())
            .collect();
        let after = count::read();
        assert_eq!(got, expected);
        // Blocks of 8, 8, 8 and 6 frames.
        assert_eq!((after.0 - before.0, after.1 - before.1), (4, 0));
    }

    #[test]
    fn nth_links_the_blocks_it_renders() {
        let scenario = Scenario::scenario_2().with_num_frames(30);
        let serial = serial_nccs(&scenario);
        let mut stream = scenario.stream();
        let mut last = stream.next().expect("frame 0");
        let before = count::read();
        let mut yielded = Vec::new();
        let steps = [
            // Frame 3, inside block 0..8: not frame 0's successor.
            stream.nth(2),
            stream.next(),
            // Past the block: frame 10 starts block 10..18, linked to nothing.
            stream.nth(5),
            stream.next(),
            // Exactly the rest of the block: block 18..26 continues it.
            stream.nth(6),
        ];
        for frame in steps.into_iter().chain(stream.by_ref().map(Some)) {
            let frame = frame.expect("the stream has the frame");
            let value = ncc(&last.image, &frame.image).unwrap();
            if frame.index == last.index + 1 {
                assert_eq!(value.to_bits(), serial[last.index]);
            }
            yielded.push(frame.index);
            last = frame;
        }
        let after = count::read();
        let mut expected = vec![3, 4, 10, 11];
        expected.extend(18..30);
        assert_eq!(yielded, expected);
        // Serial: (0, 3), (4, 10) and (11, 18). One pass each for blocks
        // 0..8, 10..18, 18..26 and 26..30.
        assert_eq!((after.0 - before.0, after.1 - before.1), (4, 3));
    }

    #[test]
    fn a_dropped_or_mutated_member_takes_the_serial_path() {
        let scenario = Scenario::scenario_2().with_num_frames(9);
        let expected = serial_nccs(&scenario);
        let fresh = |i: usize| scenario.stream().frame_at(i).expect("in range").image;

        // Frame 4 dropped and frame 6 changed before the first correlation.
        let mut frames: Vec<Option<GrayImage>> =
            scenario.stream().map(|frame| Some(frame.image)).collect();
        frames[4] = None;
        let changed = frames[6].as_mut().expect("frame 6");
        let old = changed.get(0, 0);
        changed.set(0, 0, 1.0 - old);
        let before = count::read();
        for i in 1..9 {
            let p = frames[i - 1].clone().unwrap_or_else(|| fresh(i - 1));
            let c = frames[i].clone().unwrap_or_else(|| fresh(i));
            let value = ncc(&p, &c).unwrap().to_bits();
            let reference = ncc(&unlinked(&p), &unlinked(&c)).unwrap().to_bits();
            assert_eq!(value, reference, "pair {i}");
            if !(4..=7).contains(&i) {
                assert_eq!(value, expected[i - 1], "pair {i}");
            }
        }
        let after = count::read();
        // Pairs 1, 2 and 3 from block 0..8's pass and pair 8 from block
        // 8..9's; pairs 4 to 7 serially, plus the eight references.
        assert_eq!((after.0 - before.0, after.1 - before.1), (2, 4 + 8));

        // Frame 5 changed after the pass: its two pairs go serial too.
        let mut frames: Vec<GrayImage> = scenario.stream().map(|frame| frame.image).collect();
        ncc(&frames[0], &frames[1]).unwrap();
        frames[5].set(1, 0, 0.0);
        let before = count::read();
        for i in [5, 6] {
            let value = ncc(&frames[i - 1], &frames[i]).unwrap().to_bits();
            let reference = ncc(&unlinked(&frames[i - 1]), &unlinked(&frames[i]));
            assert_eq!(value, reference.unwrap().to_bits(), "pair {i}");
        }
        let after = count::read();
        assert_eq!((after.0 - before.0, after.1 - before.1), (0, 4));
    }

    #[test]
    fn a_cloned_stream_yields_frames_linked_to_the_same_records() {
        let scenario = Scenario::scenario_3().with_num_frames(12);
        let mut stream = scenario.stream();
        let first = stream.next().expect("frame 0");
        let mut clone = stream.clone();
        let record = |frame: &Frame| {
            let link = frame.image.block_link().expect("stream frames are linked");
            (Arc::as_ptr(&link.record), link.slot)
        };
        let before = count::read();
        let mut previous = first.clone();
        for (a, b) in stream.by_ref().zip(clone.by_ref()).take(7) {
            assert_eq!(record(&a), record(&b));
            // The clone's frames run the pass; the original's read it.
            let from_clone = ncc(&previous.image, &b.image).unwrap();
            let from_original = ncc(&previous.image, &a.image).unwrap();
            assert_eq!(from_clone.to_bits(), from_original.to_bits());
            previous = a;
        }
        let after = count::read();
        assert_eq!((after.0 - before.0, after.1 - before.1), (1, 0));
        // Past the shared block, each stream renders and links its own.
        let (a, b) = (
            stream.next().expect("frame 8"),
            clone.next().expect("frame 8"),
        );
        assert_eq!(a, b);
        assert_ne!(record(&a).0, record(&b).0);
    }
}
