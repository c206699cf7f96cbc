//! Linked frame pairs: the whole-frame NCC of up to eight frame pairs in one
//! pass, one pair per f64 lane.
//!
//! [`ncc`](crate::ncc())'s serial loop adds a pair's cross term and
//! centered norm one pixel at a time: two chains of dependent f64 additions
//! whose order bit-identity pins. The chains of *different* pairs are
//! independent, though. A [`BlockRecord`] holds up to [`BLOCK_LEN`]
//! explicit (left, right) pairs, and each right-hand frame names the record
//! and its pair. The first correlation that asks for one of the record's
//! pairs runs all of them at once: lane k carries pair k's cross term and
//! the centered norm of its right-hand frame, and adds them in exactly the
//! order of the serial loop, so every lane ends with the serial loop's
//! bits. Later pairs of the record are answered from it.
//!
//! Two callers link pairs:
//!
//! - A [`FrameStream`](crate::FrameStream) renders its frames in blocks of
//!   [`BLOCK_LEN`] and links each block's consecutive pairs, the first one
//!   starting at the previous block's last frame when the block continues
//!   it.
//! - A fleet links the pending pairs of several streams, unrelated frames
//!   whose only tie is that they are correlated soon, through
//!   [`link_pairs`].
//!
//! Three rules keep a record cheap and correct:
//!
//! - It never keeps pixels alive: it holds `Weak` references to the pixel
//!   buffers, plus the means the renderer cached. A pair whose buffer was
//!   dropped before the pass, or whose pixels were mutated (which moves the
//!   buffer, see `GrayImage::pixels_mut`), takes the serial path.
//! - The pass runs only when a correlation asks for it: a stream whose
//!   frames are only rendered, never correlated, never pays for it.
//! - A pair counts as linked only when the right-hand frame's record names
//!   the left-hand frame's own buffer as that pair's left. Any other pair,
//!   and every frame rendered one at a time through
//!   [`FrameStream::frame_at`](crate::FrameStream::frame_at) and never
//!   linked, takes the serial path.
//!
//! The pass has a portable copy, a per-lane loop, and on a host with
//! AVX-512 (the renderer's detection) two more. Both load eight pixels of
//! each frame and transpose them in registers, so that one register holds
//! one pixel of eight frames, and run all eight chains in the lanes of one
//! register. Unrelated pairs transpose the left-hand and the right-hand
//! frames separately. A chain, where each pair's left-hand frame is the
//! previous pair's right-hand one as in a stream's block, loads each frame
//! once and shifts the right-hand frames out of the left-hand ones. The
//! lanes do the serial loop's operations in its order, and Rust never fuses
//! a multiply and an add, so every copy gives the same bits.

use crate::image::{has_avx512, GrayImage};
use std::ops::Range;
use std::sync::{Arc, OnceLock, Weak};

/// The pairs one record holds and one pass correlates, the f64 lanes of an
/// AVX-512 register; also the frames a stream renders at a time.
pub(crate) const BLOCK_LEN: usize = 8;

/// A frame as a record knows it: its pixel buffer, held weakly so the
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

/// The record the right-hand frames of up to [`BLOCK_LEN`] pairs share.
#[derive(Debug)]
pub(crate) struct BlockRecord {
    /// The (left, right) pairs, every buffer of one length.
    pairs: Vec<(Member, Member)>,
    /// Every pair's sums, filled by the first pass; `None` for a pair one of
    /// whose buffers was gone when the pass ran.
    sums: OnceLock<[Option<PairSums>; BLOCK_LEN]>,
}

/// A right-hand frame's place in its record: the index of its pair.
#[derive(Debug)]
pub(crate) struct BlockLink {
    record: Arc<BlockRecord>,
    pair: usize,
}

/// Links the (left, right) `pairs` into one record. Every buffer must have
/// the same length, and no right-hand frame may be linked already.
pub(crate) fn link<'a>(pairs: impl IntoIterator<Item = (Member, &'a GrayImage)>) {
    let (lefts, rights): (Vec<Member>, Vec<&GrayImage>) = pairs.into_iter().unzip();
    if rights.is_empty() {
        return;
    }
    debug_assert!(
        rights.len() <= BLOCK_LEN,
        "a record links at most {BLOCK_LEN} pairs"
    );
    let record = Arc::new(BlockRecord {
        pairs: lefts
            .into_iter()
            .zip(rights.iter().map(|image| Member::of(image)))
            .collect(),
        sums: OnceLock::new(),
    });
    for (pair, image) in rights.into_iter().enumerate() {
        image.set_block_link(BlockLink {
            record: Arc::clone(&record),
            pair,
        });
    }
}

/// Links up to eight (previous, current) frame pairs into one record, so
/// that the first [`ncc`](crate::ncc())`(previous, current)` asked of any
/// of them correlates all of them in one pass, one pair per f64 lane, with
/// the serial loop's bits; the others then read their results. Pairs are
/// taken in order, skipping any whose two frames differ in size from each
/// other or from the first pair taken, and any whose current frame is
/// linked already (each frame is the current frame of at most one linked
/// pair, so a current frame listed twice keeps its first pair). Returns the
/// number of pairs taken into the record.
///
/// The record holds the pixel buffers weakly and keeps none of them alive;
/// a pair whose frame was dropped or changed before the pass takes the
/// serial loop, as does a correlation of the current frame with any frame
/// but its linked previous one.
///
/// ```
/// use shift_video::{link_pairs, ncc, GrayImage};
///
/// let frames: Vec<GrayImage> = (0..6)
///     .map(|i| GrayImage::from_fn(8, 8, |x, y| ((x * y + i) % 7) as f32 / 7.0))
///     .collect();
/// let pairs = [(&frames[0], &frames[1]), (&frames[2], &frames[3]), (&frames[4], &frames[5])];
/// assert_eq!(link_pairs(pairs), 3);
/// // Linking again links nothing: each current frame is linked already.
/// assert_eq!(link_pairs(pairs), 0);
/// assert!(ncc(&frames[2], &frames[3])? < 1.0);
/// # Ok::<(), shift_video::VideoError>(())
/// ```
pub fn link_pairs<'a>(pairs: impl IntoIterator<Item = (&'a GrayImage, &'a GrayImage)>) -> usize {
    let mut shape = None;
    let pairs: Vec<(Member, &GrayImage)> = pairs
        .into_iter()
        .filter(|(previous, current)| {
            let dims = (current.width(), current.height());
            current.block_link().is_none()
                && (previous.width(), previous.height()) == dims
                && *shape.get_or_insert(dims) == dims
        })
        .take(BLOCK_LEN)
        .map(|(previous, current)| (Member::of(previous), current))
        .collect();
    let linked = pairs.len();
    link(pairs);
    linked
}

/// `(p, c)`'s sums from `c`'s record, when the record names `p`'s pixel
/// buffer as the left of `c`'s pair; the first question to a record runs
/// its pass. `None` sends the pair down the serial path.
pub(crate) fn linked_sums(p: &GrayImage, c: &GrayImage) -> Option<PairSums> {
    let BlockLink { record, pair } = c.block_link()?;
    // The record's weak reference keeps the left buffer's allocation from
    // being reused, so an equal address is the same buffer.
    if !std::ptr::eq(
        record.pairs[*pair].0.pixels.as_ptr(),
        Arc::as_ptr(p.buffer()),
    ) {
        return None;
    }
    record.sums.get_or_init(|| record.pass())[*pair]
}

impl BlockRecord {
    /// Correlates every pair whose two buffers are still alive.
    fn pass(&self) -> [Option<PairSums>; BLOCK_LEN] {
        #[cfg(test)]
        count::PASSES.with(|n| n.set(n.get() + 1));
        let buffers: Vec<[Option<Arc<Vec<f32>>>; 2]> = self
            .pairs
            .iter()
            .map(|(left, right)| [left.pixels.upgrade(), right.pixels.upgrade()])
            .collect();
        let mut sums = [None; BLOCK_LEN];
        // The caller holds both frames of the pair it asked for, so at least
        // one buffer is alive. Rows without a live frame run on it, and
        // their lanes are discarded.
        let Some(filler) = buffers.iter().flatten().flatten().next() else {
            return sums;
        };
        let side = || Side {
            rows: [filler.as_slice(); BLOCK_LEN],
            means: [0.0; BLOCK_LEN],
        };
        let (mut left, mut right) = (side(), side());
        for (k, (buffers, members)) in buffers.iter().zip(&self.pairs).enumerate() {
            for (side, (buffer, member)) in [&mut left, &mut right]
                .into_iter()
                .zip(buffers.iter().zip([&members.0, &members.1]))
            {
                if let Some(buffer) = buffer {
                    (side.rows[k], side.means[k]) = (buffer, member.mean);
                }
            }
        }
        // A stream's block is a chain: each pair's left-hand frame is the
        // previous pair's right-hand one.
        let chain = self
            .pairs
            .windows(2)
            .all(|w| Weak::ptr_eq(&w[0].1.pixels, &w[1].0.pixels));
        let lanes = lane_sums(&left, &right, chain);
        for (k, [l, r]) in buffers.iter().enumerate() {
            if l.is_some() && r.is_some() {
                sums[k] = Some((lanes.num[k], lanes.norm[k]));
            }
        }
        sums
    }
}

/// One side of every lane's pair: lane k's frame's pixels and its mean.
#[derive(Debug)]
struct Side<'a> {
    rows: [&'a [f32]; BLOCK_LEN],
    means: [f64; BLOCK_LEN],
}

/// Each lane's running sums: lane k is pair `(left.rows[k], right.rows[k])`.
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

/// The sums of every lane's pair `(left.rows[k], right.rows[k])`, on an
/// AVX-512 copy when [`has_avx512`] finds its features, else on the portable
/// one. Every row must have the same length. A `chain`, where
/// `left.rows[k]` is `right.rows[k - 1]`'s frame for every pair the caller
/// keeps, runs on the AVX-512 copy that loads each frame once; lanes the
/// caller discards may then differ between the copies.
#[allow(unsafe_code)]
fn lane_sums(left: &Side, right: &Side, chain: bool) -> LaneSums {
    #[cfg(target_arch = "x86_64")]
    if has_avx512() {
        // SAFETY: `chain_avx512` and `pairs_avx512` may only run on a CPU
        // with avx512f, avx512dq and avx512vl, their `target_feature` set,
        // and `has_avx512` has just detected all three on this CPU.
        return unsafe {
            if chain {
                chain_avx512(left, right)
            } else {
                pairs_avx512(left, right)
            }
        };
    }
    // The portable copy reads each lane's two frames, chained or not.
    let _ = chain;
    let mut sums = LaneSums::ZERO;
    per_lane(left, right, 0..left.rows[0].len(), &mut sums);
    sums
}

/// Pixels per step: the f64 lanes of an AVX-512 register.
const STEP: usize = 8;

impl Side<'_> {
    /// Pixels `start..start + STEP` of every row, pixel-major: element j is
    /// pixel `start + j` of each lane's frame. The rows are read as
    /// fixed-size arrays, so the loads carry no bounds checks.
    #[inline(always)]
    fn step(&self, start: usize) -> [[f32; BLOCK_LEN]; STEP] {
        let step: [&[f32; STEP]; BLOCK_LEN] = std::array::from_fn(|k| {
            self.rows[k][start..start + STEP]
                .try_into()
                .expect("a step is STEP pixels")
        });
        std::array::from_fn(|j| step.map(|row| row[j]))
    }
}

/// The portable copy, and the AVX-512 copies' tail: adds pixels `pixels` of
/// every lane's pair into `sums` in [`ncc`](crate::ncc())'s serial order,
/// pixel by pixel, whole steps of [`STEP`] pixels first. Inlined always, so
/// each caller compiles its own copy for its own target features.
#[inline(always)]
fn per_lane(left: &Side, right: &Side, pixels: Range<usize>, sums: &mut LaneSums) {
    let mut start = pixels.start;
    while start + STEP <= pixels.end {
        for (l, r) in left.step(start).into_iter().zip(right.step(start)) {
            add_pixel(l, r, left, right, sums);
        }
        start += STEP;
    }
    for i in start..pixels.end {
        let pixel = |side: &Side| side.rows.map(|row| row[i]);
        add_pixel(pixel(left), pixel(right), left, right, sums);
    }
}

/// Adds one pixel of every lane's pair: the cross term before the norm, as
/// [`ncc`](crate::ncc())'s loop does.
#[inline(always)]
fn add_pixel(
    l: [f32; BLOCK_LEN],
    r: [f32; BLOCK_LEN],
    left: &Side,
    right: &Side,
    sums: &mut LaneSums,
) {
    for k in 0..BLOCK_LEN {
        let da = l[k] as f64 - left.means[k];
        let db = r[k] as f64 - right.means[k];
        sums.num[k] += da * db;
        sums.norm[k] += db * db;
    }
}

/// Pixels `start..start + STEP` of `row` as f64, pixel j in lane j.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
#[inline]
fn load(row: &[f32], start: usize) -> std::arch::x86_64::__m512d {
    use std::arch::x86_64::*;

    let px: &[f32; STEP] = row[start..start + STEP]
        .try_into()
        .expect("a step is STEP pixels");
    _mm512_cvtps_pd(_mm256_setr_ps(
        px[0], px[1], px[2], px[3], px[4], px[5], px[6], px[7],
    ))
}

/// The lanes of the running sums, then the pixels of `left` and `right`
/// from `done` on added by [`per_lane`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
#[inline]
fn finish(
    num: std::arch::x86_64::__m512d,
    norm: std::arch::x86_64::__m512d,
    left: &Side,
    right: &Side,
    done: usize,
) -> LaneSums {
    use std::arch::x86_64::*;

    let lane = |v: __m512d, k: usize| {
        let at = _mm512_set1_epi64(k as i64);
        _mm_cvtsd_f64(_mm512_castpd512_pd128(_mm512_permutexvar_pd(at, v)))
    };
    let mut sums = LaneSums {
        num: std::array::from_fn(|k| lane(num, k)),
        norm: std::array::from_fn(|k| lane(norm, k)),
    };
    per_lane(left, right, done..left.rows[0].len(), &mut sums);
    sums
}

/// The AVX-512 copy for unrelated pairs. Each step loads [`STEP`] pixels
/// of every row and transposes each side's eight rows, so that register j
/// holds pixel j of the eight left-hand frames, and another pixel j of the
/// eight right-hand ones; centering then subtracts one register of means
/// from each.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn pairs_avx512(left: &Side, right: &Side) -> LaneSums {
    use std::arch::x86_64::*;

    let len = left.rows[0].len();
    let steps = len - len % STEP;
    // Closures passed to `array::map` would not inherit the target
    // features, so every step builds its arrays with `from_fn`.
    let sides = [left, right].map(|side| {
        let m = side.means;
        let means = _mm512_setr_pd(m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7]);
        let rows: [&[f32]; BLOCK_LEN] = std::array::from_fn(|k| &side.rows[k][..len]);
        (rows, means)
    });
    let (mut num, mut norm) = (_mm512_setzero_pd(), _mm512_setzero_pd());
    for start in (0..steps).step_by(STEP) {
        // Register j: pixel j of one side's eight frames, minus each
        // frame's mean.
        let centered = |(rows, means): &([&[f32]; BLOCK_LEN], __m512d)| {
            let pixels = transpose(std::array::from_fn(|k| load(rows[k], start)));
            let centered: [__m512d; STEP] =
                std::array::from_fn(|j| _mm512_sub_pd(pixels[j], *means));
            centered
        };
        let (da, db) = (centered(&sides[0]), centered(&sides[1]));
        for (da, db) in da.into_iter().zip(db) {
            num = _mm512_add_pd(num, _mm512_mul_pd(da, db));
            norm = _mm512_add_pd(norm, _mm512_mul_pd(db, db));
        }
    }
    finish(num, norm, left, right, steps)
}

/// The AVX-512 copy for a chain. Its rows are the first pair's left-hand
/// frame and every pair's right-hand one, so lane k is rows k and k + 1.
/// Each step centers [`STEP`] pixels of every row, then transposes the
/// first eight rows so that register j holds pixel j of rows 0–7, the
/// left-hand frames; a permute shifts in the ninth row's pixel to get rows
/// 1–8, the right-hand frames.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn chain_avx512(left: &Side, right: &Side) -> LaneSums {
    use std::arch::x86_64::*;

    let len = left.rows[0].len();
    let steps = len - len % STEP;
    let row = |k: usize| match k.checked_sub(1) {
        None => (left.rows[0], left.means[0]),
        Some(pair) => (right.rows[pair], right.means[pair]),
    };
    let rows: [&[f32]; BLOCK_LEN + 1] = std::array::from_fn(|k| &row(k).0[..len]);
    let means: [f64; BLOCK_LEN + 1] = std::array::from_fn(|k| row(k).1);
    // Lanes 1–7 of the first source, then lane j of the second.
    let shift: [__m512i; STEP] =
        std::array::from_fn(|j| _mm512_setr_epi64(1, 2, 3, 4, 5, 6, 7, 8 + j as i64));
    let (mut num, mut norm) = (_mm512_setzero_pd(), _mm512_setzero_pd());
    for start in (0..steps).step_by(STEP) {
        // Row k's pixels minus its mean, pixel j in lane j.
        let centered = |k: usize| _mm512_sub_pd(load(rows[k], start), _mm512_set1_pd(means[k]));
        let lefts = transpose(std::array::from_fn(centered));
        let last = centered(BLOCK_LEN);
        for (da, shift) in lefts.into_iter().zip(shift) {
            let db = _mm512_permutex2var_pd(da, shift, last);
            num = _mm512_add_pd(num, _mm512_mul_pd(da, db));
            norm = _mm512_add_pd(norm, _mm512_mul_pd(db, db));
        }
    }
    finish(num, norm, left, right, steps)
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
        /// Record passes run.
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
pub(crate) mod tests {
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

    /// The same pixels in a buffer of their own, linked to nothing and
    /// tagged with no scenario's NCC memo.
    pub(crate) fn unlinked(image: &GrayImage) -> GrayImage {
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

    /// Eight unrelated pairs of [`mixed_frames`]: textured beside flat, flat
    /// beside flat, flat beside textured, identical pixels in two buffers,
    /// one buffer on both sides (textured and flat), and textured pairs
    /// apart in the list.
    const PAIRS: [(usize, usize); BLOCK_LEN] = [
        (0, 1),
        (1, 2),
        (2, 3),
        (4, 5),
        (5, 5),
        (8, 0),
        (3, 6),
        (7, 7),
    ];

    const SIZES: [(usize, usize); 5] = [(1, 1), (3, 5), (17, 9), (64, 64), (65, 63)];

    #[test]
    fn lane_copies_are_bit_identical_to_the_serial_loop() {
        // `lane_sums` runs an AVX-512 copy on a host that has it; here the
        // portable loop also runs directly, and both must give every pair
        // the serial loop's bits. Each count of 1 to 8 pairs runs in every
        // rotation, so each pair meets every lane: unrelated pairs from
        // `PAIRS`, and chains of consecutive frames as a stream links them.
        for (width, height) in SIZES {
            let frames = mixed_frames(width, height);
            for len in 1..=BLOCK_LEN {
                for rotation in 0..BLOCK_LEN {
                    let unrelated: Vec<(usize, usize)> = (0..len)
                        .map(|k| PAIRS[(k + rotation) % BLOCK_LEN])
                        .collect();
                    let chain: Vec<(usize, usize)> = (0..len)
                        .map(|k| ((k + rotation) % 9, (k + rotation + 1) % 9))
                        .collect();
                    for (pairs, is_chain) in [(unrelated, false), (chain, true)] {
                        let side = |pick: fn((usize, usize)) -> usize| {
                            let mut side = Side {
                                rows: [frames[pick(pairs[0])].pixels(); BLOCK_LEN],
                                means: [0.0; BLOCK_LEN],
                            };
                            for (k, &pair) in pairs.iter().enumerate() {
                                side.rows[k] = frames[pick(pair)].pixels();
                                side.means[k] = frames[pick(pair)].mean();
                            }
                            side
                        };
                        let (left, right) = (side(|(l, _)| l), side(|(_, r)| r));
                        let dispatched = lane_sums(&left, &right, is_chain);
                        let mut portable = LaneSums::ZERO;
                        per_lane(&left, &right, 0..width * height, &mut portable);
                        let case = format!("{width}x{height}, pairs {pairs:?}");
                        for k in 0..len {
                            let expected =
                                serial(left.rows[k], left.means[k], right.rows[k], right.means[k]);
                            for (copy, sums) in
                                [("dispatched", &dispatched), ("portable", &portable)]
                            {
                                assert_eq!(
                                    bits((sums.num[k], sums.norm[k])),
                                    bits(expected),
                                    "{case}, {copy}, pair {k}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn linked_pairs_give_the_serial_ncc_and_its_norms() {
        for (width, height) in SIZES {
            // Consecutive pairs, as a stream links them.
            let frames = mixed_frames(width, height);
            let copies: Vec<GrayImage> = frames.iter().map(unlinked).collect();
            link(frames.windows(2).map(|w| (Member::of(&w[0]), &w[1])));
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

            // Unrelated pairs, as a fleet links them. Each current frame is
            // a fresh clone's buffer so that it can be linked again; frame 5
            // also sits on both sides of one pair.
            for len in 1..=BLOCK_LEN {
                let frames = mixed_frames(width, height);
                let pairs: Vec<(GrayImage, GrayImage)> = PAIRS[..len]
                    .iter()
                    .map(|&(l, r)| {
                        let right = if l == r {
                            frames[r].clone()
                        } else {
                            unlinked(&frames[r])
                        };
                        (frames[l].clone(), right)
                    })
                    .collect();
                let linked = link_pairs(pairs.iter().map(|(l, r)| (l, r)));
                assert_eq!(linked, len, "{width}x{height}: every pair links");
                let before = count::read();
                for (k, (l, r)) in pairs.iter().enumerate() {
                    let expected = ncc(&unlinked(l), &unlinked(r)).unwrap();
                    assert_eq!(
                        ncc(l, r).unwrap().to_bits(),
                        expected.to_bits(),
                        "{width}x{height}, {len} pairs, pair {k}"
                    );
                    assert_eq!(
                        r.centered_norm().to_bits(),
                        unlinked(r).centered_norm().to_bits()
                    );
                }
                let after = count::read();
                assert_eq!(
                    (after.0 - before.0, after.1 - before.1),
                    (1, len),
                    "{width}x{height}, {len} pairs: one pass, serial only for the references"
                );
            }
        }
    }

    #[test]
    fn link_pairs_takes_eight_pairs_of_one_size_whose_current_frames_are_unlinked() {
        let small = mixed_frames(3, 5);
        let large = mixed_frames(17, 9);
        let fresh: Vec<GrayImage> = small.iter().chain(&large).map(unlinked).collect();
        let (s, l) = (&fresh[..9], &fresh[9..]);
        // A pair of two sizes, and a pair of another size than the first
        // pair taken, are skipped; of the nine pairs of the first size, the
        // ninth is left out.
        let windows: Vec<_> = s.windows(2).map(|w| (&w[0], &w[1])).collect();
        let pairs = [(&l[0], &s[1])]
            .into_iter()
            .chain(windows[..4].iter().copied())
            .chain([(&l[0], &l[1])])
            .chain(windows[4..].iter().copied())
            .chain([(&s[8], &s[0])]);
        assert_eq!(link_pairs(pairs), BLOCK_LEN);
        assert!(l[1].block_link().is_none());
        assert!(s[0].block_link().is_none(), "the ninth pair is not linked");
        // Frames 1 to 8 are linked now, so only the pair onto frame 0 links.
        let again = s.windows(2).map(|w| (&w[0], &w[1])).chain([(&s[8], &s[0])]);
        assert_eq!(link_pairs(again), 1);
        assert_eq!(link_pairs(std::iter::empty()), 0);
    }

    /// An equal scenario value with an NCC memo of its own (every builder
    /// starts a fresh one), so that its correlations neither read nor fill
    /// `scenario`'s memo.
    pub(crate) fn own_memo(scenario: &Scenario) -> Scenario {
        scenario.clone().with_seed(scenario.seed())
    }

    /// Each consecutive pair's whole-frame NCC, from frames rendered one at
    /// a time, and so linked to nothing, from a value with a memo of its
    /// own: the serial loop runs for every pair, and `scenario`'s memo stays
    /// empty.
    fn serial_nccs(scenario: &Scenario) -> Vec<u64> {
        let stream = own_memo(scenario).stream();
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

        // Frame 5 changed after the pass: its two pairs go serial too. The
        // frames come from a value whose memo is empty, so that the first
        // correlation runs the pass.
        let mut frames: Vec<GrayImage> = own_memo(&scenario)
            .stream()
            .map(|frame| frame.image)
            .collect();
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
    fn unrelated_pairs_with_a_dropped_mutated_or_other_left_take_the_serial_path() {
        let frames = mixed_frames(17, 9);
        let fresh = || -> Vec<GrayImage> { frames.iter().map(unlinked).collect() };
        let reference =
            |p: &GrayImage, c: &GrayImage| ncc(&unlinked(p), &unlinked(c)).unwrap().to_bits();

        // Before the pass: pair 0's left dropped, pair 1's right dropped,
        // pair 2's left and pair 3's right changed. Pairs 4 and 5 stay whole.
        let (f, g) = (fresh(), fresh());
        let mut lefts: Vec<Option<GrayImage>> =
            [0, 1, 2, 3, 4, 5].map(|i| Some(f[i].clone())).into();
        let mut rights: Vec<Option<GrayImage>> =
            [6, 7, 8, 0, 1, 2].map(|i| Some(g[i].clone())).into();
        drop((f, g));
        assert_eq!(
            link_pairs(
                lefts
                    .iter()
                    .zip(&rights)
                    .map(|(l, r)| (l.as_ref().unwrap(), r.as_ref().unwrap()))
            ),
            6
        );
        let kept_left = lefts[0].take().map(|image| unlinked(&image)).unwrap();
        rights[1] = None;
        lefts[2].as_mut().unwrap().set(0, 0, 0.75);
        rights[3].as_mut().unwrap().set(2, 1, 0.125);
        let before = count::read();
        // Pair 0 with a copy of its dropped left, pair 2 with the changed
        // left, pair 3 with the changed right: serial. Pairs 4 and 5 come
        // from one pass, which skips pairs 0 and 1 for their dead buffers.
        let serial_pairs = [
            (&kept_left, rights[0].as_ref().unwrap()),
            (lefts[2].as_ref().unwrap(), rights[2].as_ref().unwrap()),
            (lefts[3].as_ref().unwrap(), rights[3].as_ref().unwrap()),
        ];
        let linked_pairs =
            [4, 5].map(|k| (lefts[k].as_ref().unwrap(), rights[k].as_ref().unwrap()));
        let expected: Vec<u64> = serial_pairs
            .iter()
            .chain(&linked_pairs)
            .map(|(p, c)| reference(p, c))
            .collect();
        let mid = count::read();
        let got: Vec<u64> = serial_pairs
            .iter()
            .chain(&linked_pairs)
            .map(|(p, c)| ncc(p, c).unwrap().to_bits())
            .collect();
        let after = count::read();
        assert_eq!(got, expected);
        assert_eq!(
            (mid.0 - before.0, mid.1 - before.1),
            (0, 5),
            "the references"
        );
        assert_eq!((after.0 - mid.0, after.1 - mid.1), (1, 3));

        // A current frame correlated with a frame that is not its pair's
        // left, even one with the same pixels, takes the serial path and
        // leaves the pass to its own pair.
        let f = fresh();
        let (left, right) = (f[3].clone(), f[6].clone());
        assert_eq!(link_pairs([(&left, &right)]), 1);
        let before = count::read();
        for other in [unlinked(&left), f[5].clone(), right.clone()] {
            assert_eq!(
                ncc(&other, &right).unwrap().to_bits(),
                reference(&other, &right)
            );
        }
        assert_eq!(
            ncc(&left, &right).unwrap().to_bits(),
            reference(&left, &right)
        );
        let after = count::read();
        assert_eq!((after.0 - before.0, after.1 - before.1), (1, 3 + 4));

        // Frame 3's right changed after the pass: serial again.
        let mut right = right;
        right.set(0, 0, 0.5);
        let before = count::read();
        assert_eq!(
            ncc(&left, &right).unwrap().to_bits(),
            reference(&left, &right)
        );
        let after = count::read();
        assert_eq!((after.0 - before.0, after.1 - before.1), (0, 2));
    }

    #[test]
    fn a_cloned_stream_yields_frames_linked_to_the_same_records() {
        let scenario = Scenario::scenario_3().with_num_frames(12);
        let mut stream = scenario.stream();
        let first = stream.next().expect("frame 0");
        let mut clone = stream.clone();
        let record = |frame: &Frame| {
            let link = frame.image.block_link().expect("stream frames are linked");
            (Arc::as_ptr(&link.record), link.pair)
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
