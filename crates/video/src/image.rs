//! Grayscale images and procedural scene rendering.
//!
//! Frames are rendered as small grayscale buffers: a background whose texture
//! is controlled by the scenario's clutter/lighting parameters plus a target
//! blob whose size and intensity follow the UAV's distance and the
//! target/background contrast. The pixels feed the normalized
//! cross-correlation used by both the SHIFT context detector and the Marlin
//! tracker baseline, so they must actually change when the scene context
//! changes — this is what makes the scheduler's NCC gate meaningful.

use crate::bbox::BoundingBox;
use crate::block::BlockLink;
use crate::memo::MemoTag;
use crate::sincosf::Trig;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The lazily computed per-image statistics consumed by the NCC hot path:
/// the mean and the centered squared norm `Σ (v − mean)²`. Both are
/// bit-identical to a left-to-right accumulation in row-major order: the
/// mean's sum comes from [`pixel_sum`], which gives the left-to-right fold's
/// bits, and the norm is accumulated left to right. Each sits in a cell of
/// its own, so whichever pass over the pixels happens to compute one can
/// store it: [`render_frame`] seeds the mean from the pixels it just wrote,
/// and [`crate::ncc`] stores every norm it computes beside its cross term.
/// Keeping those bits is what keeps every consumer bit-identical to the
/// historical three-sum formulation, with each statistic computed once per
/// image instead of once per correlation.
///
/// A frame that is the right-hand side of a linked pair (a
/// [`FrameStream`](crate::FrameStream) block's frame, or a fleet stream's
/// pending frame linked by [`link_pairs`](crate::link_pairs)) also names
/// its pair's shared record here, which holds the whole-frame NCC of every
/// pair of the record once a correlation asks for one of them (see
/// [`crate::block`]).
///
/// A frame rendered from a [`Scenario`](crate::Scenario) also carries a tag
/// here: its scenario's NCC memo and its index, so that the whole-frame NCC
/// of two consecutive frames of one scenario value is computed once and read
/// by every clone's replay (see [`crate::memo`]).
///
/// A mutation replaces or clears every cell, the record's name and the memo
/// tag included, so only unchanged pixels are ever linked or answered from a
/// memo.
#[derive(Debug, Default)]
struct Moments {
    mean: OnceLock<f64>,
    centered_norm: OnceLock<f64>,
    block: OnceLock<BlockLink>,
    memo: OnceLock<MemoTag>,
}

/// Where every pixel sum starts: `-0.0`, the neutral element `f64`'s `Sum`
/// starts from, so [`pixel_sum`] equals `.sum()` over the buffer.
const PIXEL_SUM_START: f64 = -0.0;

/// The number of independent accumulators [`pixel_sum`] adds into.
const SUM_LANES: usize = 16;

/// The longest buffer [`pixel_sum`] adds in lanes: 2¹³ pixels of magnitude
/// at most 1, so no partial sum exceeds 2¹³ = 2⁵³ · 2⁻⁴⁰.
const LANE_SUM_MAX_LEN: usize = 8192;

/// The smallest non-zero pixel magnitude [`pixel_sum`] adds in lanes: 2⁻¹⁷.
/// An `f32` at or above it has no bit below 2⁻¹⁷⁻²³ = 2⁻⁴⁰.
const LANE_SUM_MIN_MAGNITUDE: f32 = 1.0 / 131_072.0;

/// Whether [`pixel_sum`] may add `v` in a lane: `v` is ±0 or has magnitude
/// in [2⁻¹⁷, 1] (so not NaN, not infinite, not subnormal).
#[inline(always)]
fn lane_exact(v: f32) -> bool {
    (v == 0.0) | (LANE_SUM_MIN_MAGNITUDE..=1.0).contains(&v.abs())
}

/// The sum of `pixels` as `f64`, bit-identical to adding them left to right
/// from [`PIXEL_SUM_START`].
///
/// That fold is one chain of dependent adds, so it runs at one add per add
/// latency. When the buffer holds at most [`LANE_SUM_MAX_LEN`] pixels and
/// every pixel is ±0 or has magnitude in [2⁻¹⁷, 1], the pixels go into
/// [`SUM_LANES`] independent accumulators instead, which the compiler keeps
/// in vector registers. That re-association cannot move a bit:
///
/// - every such pixel is a multiple of 2⁻⁴⁰;
/// - so every partial sum, in any order, is a multiple of 2⁻⁴⁰ of magnitude
///   at most 8,192 = 2⁵³ · 2⁻⁴⁰, which an `f64` holds exactly;
/// - so no addition rounds, and both orders give the exact sum. Signed zeros
///   agree too: a sum that starts at `-0.0` stays `-0.0` only while every
///   term added to it is `-0.0`, in a lane as in the fold.
///
/// Any other buffer (longer, or with a subnormal, a tiny, a large or a
/// non-finite pixel) takes the fold. Inlined always, so it compiles into
/// [`render_frame`]'s AVX-512 copy.
#[inline(always)]
fn pixel_sum(pixels: &[f32]) -> f64 {
    if pixels.len() <= LANE_SUM_MAX_LEN {
        let mut lanes = [PIXEL_SUM_START; SUM_LANES];
        let mut exact = true;
        let chunks = pixels.chunks_exact(SUM_LANES);
        let tail = chunks.remainder();
        for chunk in chunks {
            for (lane, &v) in lanes.iter_mut().zip(chunk) {
                *lane += v as f64;
                exact &= lane_exact(v);
            }
        }
        for (lane, &v) in lanes.iter_mut().zip(tail) {
            *lane += v as f64;
            exact &= lane_exact(v);
        }
        if exact {
            return lanes.iter().fold(PIXEL_SUM_START, |sum, &lane| sum + lane);
        }
    }
    pixels
        .iter()
        .fold(PIXEL_SUM_START, |sum, &v| sum + v as f64)
}

/// A row-major grayscale image with `f32` pixel intensities in `[0, 1]`.
///
/// The pixel buffer is shared (`Arc`), so cloning an image — e.g. the
/// context detector remembering the previous frame — is O(1) and keeps the
/// moment cache warm; mutation goes copy-on-write through
/// [`set`](Self::set). A frame rendered from a
/// [`Scenario`](crate::Scenario) also carries, in that cache, its
/// scenario's NCC memo and its index, which [`ncc`](crate::ncc()) reads for
/// consecutive frames; `set` drops them with every other cached value.
///
/// ```
/// use shift_video::GrayImage;
///
/// let img = GrayImage::from_fn(4, 4, |x, y| (x + y) as f32 / 8.0);
/// assert_eq!(img.get(3, 3), 0.75);
/// assert!((img.mean() - 0.375).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Arc<Vec<f32>>,
    /// Lazy moment cache, shared with clones of this image: the mean, the
    /// centered norm, for the right-hand frame of a linked pair the pair's
    /// record, and for a frame rendered from a scenario that scenario's NCC
    /// memo and the frame's index. A mutation replaces (or clears) every
    /// cell, so stale moments, stale linked results and stale memo answers
    /// can never leak across copy-on-write boundaries.
    moments: Arc<Moments>,
}

impl PartialEq for GrayImage {
    fn eq(&self, other: &Self) -> bool {
        // The moment cache is derived state: two images are equal iff their
        // geometry and pixels are.
        self.width == other.width && self.height == other.height && self.data == other.data
    }
}

impl GrayImage {
    /// Creates an image filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        Self {
            width,
            height,
            data: Arc::new(vec![0.0; width * height]),
            moments: Arc::default(),
        }
    }

    /// Creates an image by evaluating `f(x, y)` at every pixel.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(width: usize, height: usize, mut f: F) -> Self {
        let mut img = GrayImage::new(width, height);
        let data = img.pixels_mut();
        for y in 0..height {
            for x in 0..width {
                data[y * width + x] = f(x, y);
            }
        }
        img
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of pixels (`width * height`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the image has no pixels (never the case for constructed
    /// images; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`, clamping the value to `[0, 1]`. The image
    /// drops every cached moment, its pair record and its scenario's NCC
    /// memo tag: it is no longer the frame it was rendered as.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set(&mut self, x: usize, y: usize, value: f32) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let width = self.width;
        self.pixels_mut()[y * width + x] = value.clamp(0.0, 1.0);
    }

    /// Mutable access to the pixel buffer: unshares it (copy-on-write) and
    /// invalidates every moment cell, the memo tag included, since the
    /// caller is about to change pixel values. A buffer that a block record
    /// references weakly moves to a new allocation here (`Arc::make_mut`
    /// disassociates weak references), so the record can no longer mistake
    /// it for the pixels it linked.
    pub(crate) fn pixels_mut(&mut self) -> &mut [f32] {
        match Arc::get_mut(&mut self.moments) {
            // Uniquely owned cache: clearing in place avoids an allocation
            // per mutation (`set` calls this per pixel).
            Some(moments) => *moments = Moments::default(),
            // The cache is shared with a clone whose pixels stay unchanged;
            // it keeps the old cells, this image starts fresh ones.
            None => self.moments = Arc::default(),
        }
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Borrow of the raw pixel buffer in row-major order.
    pub fn pixels(&self) -> &[f32] {
        &self.data
    }

    /// Mean pixel intensity, cached. Its sum has the bits of a
    /// left-to-right accumulation over the row-major buffer: the sum runs in
    /// parallel lanes only when every partial sum is provably exact. A
    /// rendered frame's mean arrives already cached: [`render_frame`] sums
    /// the pixels right after writing them.
    pub fn mean(&self) -> f64 {
        *self.moments.mean.get_or_init(|| {
            if self.data.is_empty() {
                return 0.0;
            }
            pixel_sum(&self.data) / self.data.len() as f64
        })
    }

    /// The centered squared norm `Σ (v − mean)²` of the pixel intensities,
    /// accumulated left-to-right and cached beside [`mean`](Self::mean).
    /// This is the self-correlation term of the NCC denominator; see
    /// [`crate::ncc()`], which computes it in the same loop as its cross term
    /// when it is not cached yet, and stores it.
    pub fn centered_norm(&self) -> f64 {
        *self.moments.centered_norm.get_or_init(|| {
            let mean = self.mean();
            self.data
                .iter()
                .map(|&v| {
                    let d = v as f64 - mean;
                    d * d
                })
                .sum::<f64>()
        })
    }

    /// The centered norm, if some pass has already computed it.
    pub(crate) fn cached_centered_norm(&self) -> Option<f64> {
        self.moments.centered_norm.get().copied()
    }

    /// Caches `norm` as the centered norm unless one is cached already, and
    /// returns the cached value. `norm` must be `Σ (v − mean)²` accumulated
    /// left-to-right, as [`centered_norm`](Self::centered_norm) builds it.
    pub(crate) fn store_centered_norm(&self, norm: f64) -> f64 {
        *self.moments.centered_norm.get_or_init(|| norm)
    }

    /// The shared pixel buffer, whose address identifies these pixels for
    /// as long as a record holds a weak reference to it.
    pub(crate) fn buffer(&self) -> &Arc<Vec<f32>> {
        &self.data
    }

    /// The record this image was linked into as a pair's right-hand frame,
    /// if any.
    pub(crate) fn block_link(&self) -> Option<&BlockLink> {
        self.moments.block.get()
    }

    /// Links this image into a record, unless it is linked already.
    pub(crate) fn set_block_link(&self, link: BlockLink) {
        let _ = self.moments.block.set(link);
    }

    /// The scenario memo and index this image was rendered with, if any.
    pub(crate) fn memo_tag(&self) -> Option<&MemoTag> {
        self.moments.memo.get()
    }

    /// Tags this image as a scenario's frame, unless it is tagged already.
    /// Only the renderer tags, and only the pixels it has just written.
    pub(crate) fn set_memo_tag(&self, tag: MemoTag) {
        let _ = self.moments.memo.set(tag);
    }

    /// Population variance of the pixel intensities.
    pub fn variance(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.centered_norm() / self.data.len() as f64
    }

    /// Extracts the sub-image covered by `bbox`, clamped to the image bounds.
    ///
    /// Returns `None` when the clamped region is smaller than one pixel.
    pub fn crop(&self, bbox: &BoundingBox) -> Option<GrayImage> {
        let clamped = bbox.clamped(self.width, self.height);
        let x0 = clamped.x.floor() as usize;
        let y0 = clamped.y.floor() as usize;
        let x1 = (clamped.right().ceil() as usize).min(self.width);
        let y1 = (clamped.bottom().ceil() as usize).min(self.height);
        if x1 <= x0 || y1 <= y0 {
            return None;
        }
        Some(GrayImage::from_fn(x1 - x0, y1 - y0, |x, y| {
            self.get(x0 + x, y0 + y)
        }))
    }

    /// Resamples the image to `(width, height)` with nearest-neighbour
    /// interpolation.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn resized(&self, width: usize, height: usize) -> GrayImage {
        assert!(
            width > 0 && height > 0,
            "resize dimensions must be non-zero"
        );
        GrayImage::from_fn(width, height, |x, y| {
            let sx = ((x as f64 + 0.5) / width as f64 * self.width as f64).floor() as usize;
            let sy = ((y as f64 + 0.5) / height as f64 * self.height as f64).floor() as usize;
            self.get(sx.min(self.width - 1), sy.min(self.height - 1))
        })
    }

    /// Adds `delta` to every pixel, clamping to `[0, 1]`.
    pub fn brightened(&self, delta: f32) -> GrayImage {
        GrayImage::from_fn(self.width, self.height, |x, y| {
            (self.get(x, y) + delta).clamp(0.0, 1.0)
        })
    }
}

/// Parameters describing the visual appearance of one rendered frame.
///
/// The renderer is intentionally simple; what matters is that the NCC between
/// consecutive frames drops when the background pattern, target position or
/// lighting change abruptly, mirroring the signal the real system would see.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SceneAppearance {
    /// Identifier of the background pattern (changes the procedural phase).
    pub background_id: u32,
    /// High-frequency texture amplitude in `[0, 1]`; higher means a busier
    /// background that is harder to distinguish the target from.
    pub clutter: f64,
    /// Target/background intensity contrast in `[0, 1]`.
    pub contrast: f64,
    /// Global illumination level in `[0, 1]`.
    pub lighting: f64,
    /// Per-frame sensor-noise amplitude in `[0, 1]`.
    pub noise: f64,
    /// Horizontal camera-shake offset for this frame, as a fraction of the
    /// frame width. Platform vibration and ego-motion shift the background
    /// pattern between consecutive frames, which is what makes the NCC-based
    /// context detector react more strongly on cluttered scenes.
    pub camera_dx: f64,
    /// Vertical camera-shake offset, as a fraction of the frame height.
    pub camera_dy: f64,
}

impl Default for SceneAppearance {
    fn default() -> Self {
        Self {
            background_id: 0,
            clutter: 0.3,
            contrast: 0.7,
            lighting: 0.8,
            noise: 0.02,
            camera_dx: 0.0,
            camera_dy: 0.0,
        }
    }
}

/// Renders a frame: procedural background plus (optionally) the UAV target.
///
/// `target` is the ground-truth bounding box in pixel coordinates; `None`
/// renders a frame without the target (the paper's scenarios contain windows
/// where the UAV leaves the camera's field of view). `seed` controls the
/// deterministic sensor noise so identical calls produce identical pixels.
///
/// The returned image's mean is already cached: the renderer sums the pixels
/// right after writing them. On an x86-64 host with AVX-512 (F, DQ and VL)
/// the frame's plan, the pixel loop and that sum run in a copy of the same
/// code compiled for those units. That copy builds the background's sine and
/// cosine tables sixteen lanes at a time with a port of glibc 2.36's FMA
/// build of `sinf` and `cosf`, and does the noise hash's 64-bit multiplies
/// and its `u64 → f64` conversion natively, eight lanes at a time. The
/// portable copy calls the host's libm for each table value. Where that libm
/// is glibc's FMA build (glibc on an x86-64 CPU with FMA and AVX2), both
/// copies give the same bits: the port reproduces that build bit for bit,
/// the hash is exact integer arithmetic, the float expressions are evaluated
/// as written (Rust never fuses a multiply and an add into one FMA; the
/// port's explicit `f64::mul_add` stands where libm fuses), and the sum
/// re-associates only when no addition can round. With another libm the
/// portable copy's pixels follow it. [`render_kernel`] names the copy this
/// host runs.
pub fn render_frame(
    width: usize,
    height: usize,
    appearance: &SceneAppearance,
    target: Option<&BoundingBox>,
    seed: u64,
) -> GrayImage {
    let mut img = GrayImage::new(width, height);
    let sum = paint(width, height, appearance, target, seed, img.pixels_mut());
    let _ = img.moments.mean.set(sum / img.len() as f64);
    img
}

/// The copy of the frame's plan and pixel loop [`render_frame`] runs on this
/// host: `"avx512"` when it is an x86-64 host with AVX-512 F, DQ and VL, else
/// `"portable"`. Where the host's libm is glibc's FMA build both give the
/// same pixels and the same mean, and only the speed differs, which is why
/// timing snapshots record it.
pub fn render_kernel() -> &'static str {
    if has_avx512() {
        "avx512"
    } else {
        "portable"
    }
}

/// Whether this host has the AVX-512 subsets [`paint_avx512`] and the block
/// NCC's AVX-512 copy are compiled for. The standard library caches the
/// detection.
pub(crate) fn has_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Plans the frame and paints it into `pixels`, returning their
/// [`pixel_sum`]: on the AVX-512 copy when [`has_avx512`] finds its
/// features, else on the portable one, which takes its table values from
/// libm.
#[allow(unsafe_code)]
fn paint(
    width: usize,
    height: usize,
    appearance: &SceneAppearance,
    target: Option<&BoundingBox>,
    seed: u64,
    pixels: &mut [f32],
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if has_avx512() {
        // SAFETY: `paint_avx512` may only run on a CPU with avx512f,
        // avx512dq and avx512vl, its `target_feature` set, and `has_avx512`
        // has just detected all three on this CPU.
        return unsafe { paint_avx512(width, height, appearance, target, seed, pixels) };
    }
    FramePlan::new(width, height, appearance, target, seed, Tables::Libm).paint_pixels(pixels)
}

/// [`FramePlan::new`] with its tables from the lanes, and
/// [`FramePlan::paint_pixels`], compiled for AVX-512.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn paint_avx512(
    width: usize,
    height: usize,
    appearance: &SceneAppearance,
    target: Option<&BoundingBox>,
    seed: u64,
    pixels: &mut [f32],
) -> f64 {
    FramePlan::new(width, height, appearance, target, seed, Tables::Lanes).paint_pixels(pixels)
}

/// How [`FramePlan::new`] evaluates the background's sines and cosines.
/// Both give the same bits on a host whose libm is glibc's FMA build.
#[derive(Debug, Clone, Copy)]
enum Tables {
    /// One call into the host's libm per value: the portable copy's way.
    Libm,
    /// [`Trig::apply`], sixteen values at a time: the AVX-512 copy's way.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Lanes,
}

/// The background's four per-axis tables before evaluation: each table's
/// function and its arguments, in the order low x, high x, low y, high y.
///
/// The background texture is separable: every trigonometric factor depends
/// on x alone or y alone, so the sin/cos evaluations are hoisted out of the
/// pixel loop into four per-axis tables (`width + height` evaluations
/// instead of `width * height`). The per-pixel expression multiplies the
/// identical factors in the identical order, so the rendered pixels are
/// bit-for-bit the same as the fused form.
#[inline(always)]
pub(crate) fn table_args(
    width: usize,
    height: usize,
    appearance: &SceneAppearance,
) -> [(Trig, Vec<f32>); 4] {
    let phase = appearance.background_id as f32 * 1.7 + 0.31;
    let fx = |x: usize| x as f32 / width as f32 + appearance.camera_dx as f32;
    let fy = |y: usize| y as f32 / height as f32 + appearance.camera_dy as f32;
    [
        (Trig::Sin, (0..width).map(|x| fx(x) * 6.3 + phase).collect()),
        (
            Trig::Sin,
            (0..width).map(|x| fx(x) * 61.0 + phase * 3.0).collect(),
        ),
        (
            Trig::Cos,
            (0..height).map(|y| fy(y) * 4.7 + phase * 0.5).collect(),
        ),
        (
            Trig::Sin,
            (0..height).map(|y| fy(y) * 53.0 + phase * 2.0).collect(),
        ),
    ]
}

/// Everything [`render_frame`]'s pixel loop reads, computed once per frame.
struct FramePlan {
    width: usize,
    base: f32,
    clutter: f32,
    noise_amp: f32,
    /// The noise hash's seed term.
    base_h: u64,
    low_x: Vec<f32>,
    high_x: Vec<f32>,
    low_y: Vec<f32>,
    high_y: Vec<f32>,
    /// The noise hash's per-column terms.
    hash_x: Vec<u64>,
    target: Option<Target>,
}

impl FramePlan {
    /// The plan of one frame, its table values computed the way `tables`
    /// says. Inlined always, so each copy of the renderer compiles its own.
    #[inline(always)]
    fn new(
        width: usize,
        height: usize,
        appearance: &SceneAppearance,
        target: Option<&BoundingBox>,
        seed: u64,
        tables: Tables,
    ) -> Self {
        let mut args = table_args(width, height, appearance);
        // Plain loops, not closures: the lanes must inline into the
        // AVX-512 copy.
        for (trig, values) in &mut args {
            match tables {
                Tables::Libm => {
                    for value in values.iter_mut() {
                        *value = trig.libm(*value);
                    }
                }
                Tables::Lanes => trig.apply(values),
            }
        }
        let [(_, low_x), (_, high_x), (_, low_y), (_, high_y)] = args;
        // The noise hash mixes its three inputs with independent wrapping
        // multiplies, so the seed term hoists out of the loop entirely, the
        // y term out of each row, and the x terms into a per-frame table.
        // Wrapping u64 multiplication and addition are exact (no rounding),
        // hence associativity/commutativity hold bit-for-bit and the
        // regrouped hash input is the *same integer* the fused per-pixel
        // form produced.
        Self {
            width,
            base: (0.25 + 0.55 * appearance.lighting) as f32,
            clutter: appearance.clutter as f32,
            noise_amp: appearance.noise as f32,
            base_h: (seed ^ appearance.background_id as u64).wrapping_mul(HASH_SEED_MUL),
            low_x,
            high_x,
            low_y,
            high_y,
            hash_x: (0..width)
                .map(|x| (x as u64).wrapping_mul(HASH_X_MUL))
                .collect(),
            target: target.and_then(|bbox| Target::new(bbox, width, height, appearance)),
        }
    }

    /// The pixel loop: each row's background and noise, then the target's
    /// strokes on that row, then the sum of the finished frame. Inlined
    /// always, like everything it calls, so each caller compiles its own
    /// copy for its own target features.
    #[inline(always)]
    fn paint_pixels(&self, pixels: &mut [f32]) -> f64 {
        for (y, row) in pixels.chunks_exact_mut(self.width).enumerate() {
            let row_h = self
                .base_h
                .wrapping_add((y as u64).wrapping_mul(HASH_Y_MUL));
            let (ly, hy) = (self.low_y[y], self.high_y[y]);
            for (((px, &lx), &hx), &xh) in row
                .iter_mut()
                .zip(&self.low_x)
                .zip(&self.high_x)
                .zip(&self.hash_x)
            {
                // Low-frequency structure unique to the background id.
                let lowf = (lx * ly) * 0.18;
                // High-frequency clutter texture.
                let highf = (hx * hy) * 0.30;
                let noise = finish_hash(row_h.wrapping_add(xh)) * self.noise_amp;
                *px = (self.base + lowf + self.clutter * highf + noise).clamp(0.0, 1.0);
            }
            if let Some(target) = &self.target {
                target.draw_row(y, row);
            }
        }
        pixel_sum(pixels)
    }
}

/// The UAV target: a cross-shaped blob whose intensity offset from the
/// background is proportional to the contrast parameter. Its geometry is
/// fixed per frame, so [`render_frame`] draws it onto each row right after
/// rendering that row's background.
struct Target {
    cy: f64,
    half_h: f64,
    delta: f32,
    columns: Range<usize>,
    /// Each column's normalized distance from the centre,
    /// `|x + 0.5 − cx| / half_w`, for the columns in `columns`: the same
    /// expression the per-pixel pass evaluated, once per frame.
    dx: Vec<f64>,
    rows: Range<usize>,
}

impl Target {
    /// The target under `bbox` in a `width` × `height` frame, or `None` when
    /// `bbox` does not overlap the frame.
    fn new(
        bbox: &BoundingBox,
        width: usize,
        height: usize,
        appearance: &SceneAppearance,
    ) -> Option<Self> {
        let clamped = bbox.clamped(width, height);
        if clamped.is_empty() {
            return None;
        }
        let (cx, cy) = clamped.center();
        let half_w = (clamped.w / 2.0).max(0.5);
        let columns =
            clamped.x.floor().max(0.0) as usize..(clamped.right().ceil() as usize).min(width);
        Some(Self {
            cy,
            half_h: (clamped.h / 2.0).max(0.5),
            delta: (0.25 + 0.6 * appearance.contrast) as f32,
            dx: columns
                .clone()
                .map(|x| (x as f64 + 0.5 - cx).abs() / half_w)
                .collect(),
            columns,
            rows: clamped.y.floor().max(0.0) as usize
                ..(clamped.bottom().ceil() as usize).min(height),
        })
    }

    /// Darkens the pixels of row `y` that the blob covers, clamping to
    /// `[0, 1]` as [`GrayImage::set`] does. Inlined always, so it compiles
    /// into both copies of [`FramePlan::paint_pixels`].
    #[inline(always)]
    fn draw_row(&self, y: usize, row: &mut [f32]) {
        if !self.rows.contains(&y) {
            return;
        }
        let dy = (y as f64 + 0.5 - self.cy).abs() / self.half_h;
        // A row past the blob draws nothing. The pixel test below still
        // checks both distances, so the drawn pixels are the per-pixel
        // pass's for any `dy`.
        if dy > 1.0 {
            return;
        }
        for (px, &dx) in row[self.columns.clone()].iter_mut().zip(&self.dx) {
            // Cross/rotor shape: bright body along both axes, dimmer corners.
            let body = if dx < 0.35 || dy < 0.35 { 1.0 } else { 0.55 };
            if dx <= 1.0 && dy <= 1.0 {
                let falloff = (1.0 - (dx.max(dy)).powi(2)) as f32;
                *px = (*px - self.delta * body as f32 * falloff).clamp(0.0, 1.0);
            }
        }
    }
}

/// The seed/x/y mixing multipliers of the noise hash (splitmix64's
/// golden-ratio increment and finalizer constants). Named so
/// [`render_frame`]'s hoisted row/column terms provably feed
/// [`finish_hash`] the same integer [`hash_noise`] would build.
const HASH_SEED_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const HASH_X_MUL: u64 = 0xBF58_476D_1CE4_E5B9;
const HASH_Y_MUL: u64 = 0x94D0_49BB_1331_11EB;

/// Deterministic pseudo-random value in `[-0.5, 0.5]` derived from pixel
/// coordinates and a seed (splitmix-style hash), used for sensor noise so the
/// renderer does not need to thread an RNG through every pixel. This fused
/// form is the specification; [`render_frame`] inlines it with the seed/y/x
/// terms hoisted, and the test suite pins the two bit-identical.
#[cfg(test)]
fn hash_noise(x: u64, y: u64, seed: u64) -> f32 {
    finish_hash(
        seed.wrapping_mul(HASH_SEED_MUL)
            .wrapping_add(x.wrapping_mul(HASH_X_MUL))
            .wrapping_add(y.wrapping_mul(HASH_Y_MUL)),
    )
}

/// The avalanche + `[-0.5, 0.5]` mapping half of [`hash_noise`], split out so
/// the renderer can feed it pre-mixed row/column terms. Inlined always, so
/// it compiles into both copies of [`FramePlan::paint_pixels`]: on the
/// AVX-512 copy its 64-bit multiplies and its `u64 → f64` conversion are
/// single vector instructions, and the results are the same integers and
/// the same correctly rounded floats.
#[inline(always)]
fn finish_hash(mut h: u64) -> f32 {
    h ^= h >> 30;
    h = h.wrapping_mul(HASH_X_MUL);
    h ^= h >> 27;
    h = h.wrapping_mul(HASH_Y_MUL);
    h ^= h >> 31;
    // The conversion through f64 is the definition of the noise, and it is
    // not the direct `h as f32`: it rounds twice, and when the f64 rounding
    // lands on a tie between two f32 values the second rounding goes to
    // even. For 2^63 + 2^39 + 1 it gives f32 bits 0x5F000000, the direct
    // conversion 0x5F000001; about one uniformly random u64 in 2^29
    // differs. Both copies of the pixel loop convert through f64 (on
    // AVX-512, `vcvtuqq2pd` then `vcvtpd2ps`), and a one-step u64 -> f32
    // conversion such as `vcvtuqq2ps` would move pixels. Through f64 is also
    // the fast way on baseline x86-64: scalar u64 -> f32 branches on the
    // (here uniformly random) sign bit and mispredicts about half the time,
    // while u64 -> f64 lowers branch-free. The divisor 2^64 is a power of
    // two, so the division is an exact multiply.
    (h as f64 as f32 / u64::MAX as f32) - 0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sincosf::libm_is_the_fma_build;
    use crate::stream::noise_seed;
    use crate::stream::tests::edge_indices;
    use crate::Scenario;

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_size_image_panics() {
        let _ = GrayImage::new(0, 4);
    }

    #[test]
    fn from_fn_and_get_set() {
        let mut img = GrayImage::from_fn(3, 2, |x, y| (x * 10 + y) as f32 / 100.0);
        assert_eq!(img.get(2, 1), 0.21);
        img.set(0, 0, 2.0);
        assert_eq!(img.get(0, 0), 1.0, "set clamps to [0,1]");
        assert_eq!(img.len(), 6);
        assert!(!img.is_empty());
    }

    #[test]
    fn mean_and_variance_of_constant_image() {
        let img = GrayImage::from_fn(8, 8, |_, _| 0.5);
        assert!((img.mean() - 0.5).abs() < 1e-9);
        assert!(img.variance() < 1e-12);
    }

    #[test]
    fn crop_inside_bounds() {
        let img = GrayImage::from_fn(10, 10, |x, y| if x >= 5 && y >= 5 { 1.0 } else { 0.0 });
        let crop = img
            .crop(&BoundingBox::new(5.0, 5.0, 5.0, 5.0))
            .expect("crop exists");
        assert_eq!(crop.width(), 5);
        assert_eq!(crop.height(), 5);
        assert!((crop.mean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn crop_outside_bounds_is_none() {
        let img = GrayImage::new(10, 10);
        assert!(img.crop(&BoundingBox::new(50.0, 50.0, 5.0, 5.0)).is_none());
    }

    #[test]
    fn resized_preserves_constant_image() {
        let img = GrayImage::from_fn(16, 16, |_, _| 0.25);
        let small = img.resized(4, 4);
        assert_eq!(small.width(), 4);
        assert!((small.mean() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn render_is_deterministic() {
        let appearance = SceneAppearance::default();
        let bbox = BoundingBox::from_center(32.0, 32.0, 12.0, 10.0);
        let a = render_frame(64, 64, &appearance, Some(&bbox), 42);
        let b = render_frame(64, 64, &appearance, Some(&bbox), 42);
        assert_eq!(a, b);
    }

    #[test]
    fn render_changes_with_background_id() {
        let mut a_app = SceneAppearance::default();
        let mut b_app = SceneAppearance::default();
        a_app.background_id = 0;
        b_app.background_id = 7;
        let a = render_frame(32, 32, &a_app, None, 1);
        let b = render_frame(32, 32, &b_app, None, 1);
        assert_ne!(a, b, "different backgrounds must produce different pixels");
    }

    #[test]
    fn target_darkens_its_region() {
        let appearance = SceneAppearance {
            clutter: 0.0,
            noise: 0.0,
            contrast: 1.0,
            ..SceneAppearance::default()
        };
        let bbox = BoundingBox::from_center(16.0, 16.0, 10.0, 10.0);
        let with = render_frame(32, 32, &appearance, Some(&bbox), 3);
        let without = render_frame(32, 32, &appearance, None, 3);
        let inside_with = with.crop(&bbox).expect("crop").mean();
        let inside_without = without.crop(&bbox).expect("crop").mean();
        assert!(
            inside_with < inside_without - 0.1,
            "target should darken pixels: {inside_with} vs {inside_without}"
        );
    }

    #[test]
    fn brightened_clamps() {
        let img = GrayImage::from_fn(4, 4, |_, _| 0.9).brightened(0.5);
        assert!((img.mean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hash_noise_range_and_determinism() {
        for i in 0..100u64 {
            let v = hash_noise(i, i * 3, 7);
            assert!((-0.5..=0.5).contains(&v));
            assert_eq!(v, hash_noise(i, i * 3, 7));
        }
    }

    #[test]
    fn hoisted_render_noise_is_bit_identical_to_hash_noise() {
        // `render_frame` regroups the hash input as
        // `(seed·S + y·Y) + x·X` instead of the fused `seed·S + x·X + y·Y`;
        // wrapping u64 arithmetic is exact, so both build the same integer
        // and therefore the same f32. Locked here per pixel so a future
        // "simplification" of either side cannot silently change frames.
        for seed in [0u64, 7, 0xDEAD_BEEF, u64::MAX] {
            let base_h = seed.wrapping_mul(HASH_SEED_MUL);
            for y in 0..24u64 {
                let row_h = base_h.wrapping_add(y.wrapping_mul(HASH_Y_MUL));
                for x in 0..24u64 {
                    let hoisted = finish_hash(row_h.wrapping_add(x.wrapping_mul(HASH_X_MUL)));
                    assert_eq!(hoisted.to_bits(), hash_noise(x, y, seed).to_bits());
                }
            }
        }
    }

    fn bits(pixels: &[f32]) -> Vec<u32> {
        pixels.iter().map(|v| v.to_bits()).collect()
    }

    /// The left-to-right fold [`pixel_sum`] must reproduce bit for bit.
    fn serial_sum(pixels: &[f32]) -> f64 {
        pixels.iter().fold(-0.0, |sum, &v| sum + v as f64)
    }

    /// The background as one formula per pixel: the sin/cos factors
    /// evaluated at the pixel and the fused [`hash_noise`], with nothing
    /// hoisted into tables.
    fn per_pixel_background(
        width: usize,
        height: usize,
        appearance: &SceneAppearance,
        seed: u64,
    ) -> Vec<f32> {
        let base = (0.25 + 0.55 * appearance.lighting) as f32;
        let phase = appearance.background_id as f32 * 1.7 + 0.31;
        let noise_seed = seed ^ appearance.background_id as u64;
        let mut pixels = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                let fx = x as f32 / width as f32 + appearance.camera_dx as f32;
                let fy = y as f32 / height as f32 + appearance.camera_dy as f32;
                let lowf = ((fx * 6.3 + phase).sin() * (fy * 4.7 + phase * 0.5).cos()) * 0.18;
                let highf =
                    ((fx * 61.0 + phase * 3.0).sin() * (fy * 53.0 + phase * 2.0).sin()) * 0.30;
                let noise = hash_noise(x as u64, y as u64, noise_seed) * appearance.noise as f32;
                let value = base + lowf + appearance.clutter as f32 * highf + noise;
                pixels.push(value.clamp(0.0, 1.0));
            }
        }
        pixels
    }

    /// Whether [`render_frame`] runs the lanes on this host while its libm
    /// is not the build they reproduce: then the AVX-512 copy is compared
    /// with the portable body on the lanes' tables, not on libm's.
    fn lanes_differ_from_libm() -> bool {
        has_avx512() && !libm_is_the_fma_build()
    }

    /// Renders through [`render_frame`] and through the portable body
    /// directly, and compares pixels, each sum against the serial fold and
    /// the stored mean, all by bits. The portable body takes its tables
    /// from libm, or from the lanes where [`lanes_differ_from_libm`].
    /// Returns the dispatched render and the portable body's pixels on
    /// libm's tables.
    fn check_against_portable(
        width: usize,
        height: usize,
        appearance: &SceneAppearance,
        target: Option<&BoundingBox>,
        seed: u64,
        case: &str,
    ) -> (GrayImage, Vec<f32>) {
        let portable = |tables| {
            let plan = FramePlan::new(width, height, appearance, target, seed, tables);
            let mut pixels = vec![0.0f32; width * height];
            let sum = plan.paint_pixels(&mut pixels);
            assert_eq!(sum.to_bits(), serial_sum(&pixels).to_bits(), "{case}");
            (pixels, sum)
        };
        let (libm, libm_sum) = portable(Tables::Libm);
        let (expected, sum) = if lanes_differ_from_libm() {
            portable(Tables::Lanes)
        } else {
            (libm.clone(), libm_sum)
        };
        let dispatched = render_frame(width, height, appearance, target, seed);
        assert_eq!(bits(dispatched.pixels()), bits(&expected), "{case}");
        let mean = sum / expected.len() as f64;
        assert_eq!(dispatched.mean().to_bits(), mean.to_bits(), "{case}");
        (dispatched, libm)
    }

    #[test]
    fn dispatched_render_is_bit_identical_to_the_portable_body() {
        // `render_frame` runs the AVX-512 copy, whose tables come from the
        // lanes, on a host that has it; here the portable body with libm's
        // tables runs directly, and the two must agree on every pixel and
        // on the stored mean wherever libm is the build the lanes
        // reproduce. On a host without AVX-512 `render_frame` runs the
        // portable body as well, so the two sides are one path there, and
        // the per-pixel background and the serial fold remain the
        // independent checks.
        let defaults = SceneAppearance::default();
        let appearances = [
            defaults,
            SceneAppearance {
                noise: 0.0,
                ..defaults
            },
            SceneAppearance {
                background_id: 9,
                clutter: 1.0,
                contrast: 1.0,
                lighting: 1.0,
                noise: 1.0,
                ..defaults
            },
            SceneAppearance {
                background_id: u32::MAX,
                lighting: 0.0,
                camera_dx: 37.5,
                camera_dy: -12.25,
                ..defaults
            },
        ];
        for (width, height) in [(1, 1), (3, 5), (17, 9), (64, 64), (65, 63), (100, 7)] {
            let (w, h) = (width as f64, height as f64);
            let (bw, bh) = (w / 2.0 + 1.0, h / 2.0 + 1.0);
            let targets = [
                None,
                Some(BoundingBox::from_center(w / 2.0, h / 2.0, w / 3.0, h / 3.0)),
                // Clipped at the left, right, top and bottom edges.
                Some(BoundingBox::from_center(0.0, h / 2.0, bw, bh)),
                Some(BoundingBox::from_center(w, h / 2.0, bw, bh)),
                Some(BoundingBox::from_center(w / 2.0, 0.0, bw, bh)),
                Some(BoundingBox::from_center(w / 2.0, h, bw, bh)),
            ];
            for appearance in &appearances {
                for seed in [0, 7, u64::MAX] {
                    for target in &targets {
                        let case =
                            format!("{width}x{height}, {appearance:?}, seed {seed}, {target:?}");
                        let (_, portable) = check_against_portable(
                            width,
                            height,
                            appearance,
                            target.as_ref(),
                            seed,
                            &case,
                        );
                        if target.is_none() {
                            let reference = per_pixel_background(width, height, appearance, seed);
                            assert_eq!(bits(&portable), bits(&reference), "{case}");
                        }
                    }
                }
            }
        }
        // Real frames: the first, the last and both sides of every window
        // edge of the six evaluation scenarios, with the stream's inputs.
        // On an AVX-512 host whose libm is glibc's FMA build this is where
        // the lanes meet libm pixel by pixel.
        for scenario in Scenario::evaluation_set() {
            let (indices, _) = edge_indices(&scenario);
            let stream = scenario.stream();
            for index in indices {
                let frame = stream.frame_at(index).expect("index in range");
                let case = format!("{} frame {index}", scenario.name());
                let (dispatched, _) = check_against_portable(
                    scenario.frame_width(),
                    scenario.frame_height(),
                    &scenario.appearance_at(index),
                    frame.truth.as_ref(),
                    noise_seed(&scenario, index),
                    &case,
                );
                assert_eq!(
                    bits(frame.image.pixels()),
                    bits(dispatched.pixels()),
                    "{case}"
                );
            }
        }
        if lanes_differ_from_libm() {
            println!(
                "skipped the AVX-512 copy against libm's tables: libm is not glibc's FMA build"
            );
        }
    }

    #[test]
    fn lane_sum_is_bit_identical_to_the_serial_fold() {
        let check = |pixels: &[f32], case: &str| {
            let serial = serial_sum(pixels);
            assert_eq!(pixel_sum(pixels).to_bits(), serial.to_bits(), "{case}");
            let img = GrayImage::from_fn(pixels.len(), 1, |x, _| pixels[x]);
            let mean = serial / pixels.len() as f64;
            assert_eq!(img.mean().to_bits(), mean.to_bits(), "{case} (mean)");
        };
        // Random images in [0, 1] with full-precision pixels: every lane
        // remainder, and both sides of the length bound.
        let mut h = 0x243F_6A88_85A3_08D3u64;
        let mut unit = || {
            // splitmix64: a Weyl step, then the finalizer.
            h = h.wrapping_add(HASH_SEED_MUL);
            let mut z = (h ^ (h >> 30)).wrapping_mul(HASH_X_MUL);
            z = (z ^ (z >> 27)).wrapping_mul(HASH_Y_MUL);
            z ^= z >> 31;
            ((z >> 11) as f64 / (1u64 << 53) as f64) as f32
        };
        let lengths = (1..=64).chain((65..8_176).step_by(97)).chain(8_176..=8_200);
        for len in lengths {
            let pixels: Vec<f32> = (0..len).map(|_| unit()).collect();
            check(&pixels, &format!("random, {len} pixels"));
        }

        // `len` pixels: the first `ones` are 1.0, then zeros, with `puts`
        // written over them.
        let image = |len: usize, ones: usize, puts: &[(usize, f32)]| {
            let mut pixels = vec![0.0f32; len];
            pixels[..ones].fill(1.0);
            for &(at, v) in puts {
                pixels[at] = v;
            }
            pixels
        };
        // Spelled from 2⁻¹⁷ itself, not from the constant under test.
        let floor = 2f32.powi(-17);
        let below_floor = f32::from_bits(floor.to_bits() - 1);
        let above_floor = f32::from_bits(floor.to_bits() + 1);
        let tiny = 2f32.powi(-53);
        let subnormal = f32::from_bits(1);
        let nan_a = f32::from_bits(0x7FC0_0001);
        let nan_b = f32::from_bits(0xFFC0_0002);
        // Edge cases. Those that would sum differently in lanes than left
        // to right name the check that keeps them off the lanes.
        let adversarial = [
            // Magnitude floor: 2⁻⁵³ twice in lane 1 beside 1.0 in lane 0.
            // Left to right each 2⁻⁵³ is half an ulp of 1 and rounds away;
            // in lanes they add to 2⁻⁵² first, and 1 + 2⁻⁵² is exact.
            ("2^-53 beside 1.0", image(18, 1, &[(1, tiny), (17, tiny)])),
            // Magnitude floor: just below 2⁻¹⁷ has a bit at 2⁻⁴¹, which
            // rounds in a sum of 4,096 but not in a lane's 256.
            (
                "just below 2^-17 beside 4096 ones",
                image(8_192, 4_096, &[(4_096, below_floor), (4_112, below_floor)]),
            ),
            (
                "subnormals beside ones",
                image(
                    64,
                    16,
                    &[(16, subnormal), (32, -subnormal), (48, subnormal)],
                ),
            ),
            // Magnitude ceiling: 200 ones in lane 1 vanish one by one
            // beside 2⁶⁰, but not as one lane sum of 200.
            ("ones beside 2^60", {
                let mut pixels = vec![0.0f32; 16 * 200];
                pixels[0] = 2f32.powi(60);
                for k in 0..200 {
                    pixels[1 + 16 * k] = 1.0;
                }
                pixels
            }),
            (
                "above 1",
                image(40, 20, &[(3, 1.5), (19, 3.25), (35, 1.0e30)]),
            ),
            (
                "negative",
                image(40, 20, &[(3, -0.5), (19, -2.0), (35, -1.0e30)]),
            ),
            // Non-finite pixels: two NaN payloads meet in a different order
            // in lanes, and ±∞ make a NaN either way.
            ("two NaNs", image(40, 8, &[(1, nan_a), (16, nan_b)])),
            (
                "±infinity",
                image(40, 8, &[(2, f32::INFINITY), (19, f32::NEG_INFINITY)]),
            ),
            ("infinity", image(40, 8, &[(5, f32::INFINITY)])),
            // Signed zeros: the sum stays -0.0 only if every pixel is -0.0.
            ("all -0.0", vec![-0.0f32; 37]),
            ("all -0.0, one lane", vec![-0.0f32; 5]),
            ("mixed ±0", image(37, 0, &[(3, -0.0), (20, -0.0)])),
            ("-0.0 then +0.0", {
                let mut pixels = vec![-0.0f32; 37];
                pixels[36] = 0.0;
                pixels
            }),
            ("±1 cancel to +0.0", image(32, 0, &[(0, 1.0), (17, -1.0)])),
            // Length bound: past 8,192 ones, 2⁻¹⁷ + 2⁻⁴⁰ is an odd multiple
            // of half an ulp and rounds, twice; a lane holds both exactly.
            (
                "8,192 ones, then 2^-17 + 2^-40 twice in one lane",
                image(8_212, 8_192, &[(8_192, above_floor), (8_208, above_floor)]),
            ),
        ];
        for (case, pixels) in &adversarial {
            check(pixels, case);
        }
    }

    #[test]
    fn noise_converts_u64_to_f32_through_f64_which_can_differ_from_one_rounding() {
        // 2^63 + 2^39 + 1 rounds to 2^63 + 2^39 in f64, a tie between the
        // f32 neighbours 2^63 and 2^63 + 2^40, and the tie goes to even; the
        // direct conversion sees the + 1 and rounds up.
        let h = (1u64 << 63) + (1u64 << 39) + 1;
        assert_eq!((h as f64 as f32).to_bits(), 0x5F00_0000);
        assert_eq!((h as f32).to_bits(), 0x5F00_0001);

        // `finish_hash`'s avalanche is a bijection, so some input ends on
        // `h`: undo each step, last first. `finish_hash` must give that
        // input the noise of the conversion through f64.
        let inverse = |m: u64| {
            // Newton's iteration doubles the correct low bits each round.
            (0..6).fold(m, |inv, _| {
                inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)))
            })
        };
        // `y = x ^ (x >> s)` gives `x = y ^ (y >> s) ^ (y >> 2s) ^ …`.
        let unshift =
            |y: u64, s: u32| (0..=64 / s).fold(0, |x, j| x ^ y.checked_shr(j * s).unwrap_or(0));
        let input = unshift(
            unshift(unshift(h, 31).wrapping_mul(inverse(HASH_Y_MUL)), 27)
                .wrapping_mul(inverse(HASH_X_MUL)),
            30,
        );
        let through_f64 = (h as f64 as f32 / u64::MAX as f32) - 0.5;
        let direct = (h as f32 / u64::MAX as f32) - 0.5;
        assert_ne!(through_f64.to_bits(), direct.to_bits());
        assert_eq!(finish_hash(input).to_bits(), through_f64.to_bits());
    }
}
