//! Normalized cross-correlation (Eq. 1 of the paper).
//!
//! The SHIFT scheduler assesses frame similarity with the normalized
//! cross-correlation between consecutive grayscale frames and between the
//! crops under consecutive bounding-box detections:
//!
//! ```text
//! NCC(p, c) = sum((p - mean(p)) * (c - mean(c)))
//!             / (sqrt(sum((c - mean(c))^2)) * sqrt(sum((p - mean(p))^2)))
//! ```
//!
//! A value near `1` means the scene barely changed; a sharp drop signals a
//! context change that should trigger re-scheduling.
//!
//! # Error handling on the hot path
//!
//! [`ncc`] can only fail with [`VideoError::DimensionMismatch`], and a
//! stream's dimensions never legitimately change mid-video — a mismatch is
//! always a wiring bug in the caller. The per-frame helpers here and the
//! `ContextDetector` in `shift-core` therefore assert matching dimensions in
//! debug builds and, in release builds, fall back to similarity `0.0`
//! ("everything changed"). The fallback keeps a miswired release binary
//! running, but note its cost: a permanent scene cut forces a full
//! re-scheduling pass on every frame and thrashes the shared loader, which
//! is why the debug assertion exists to catch the bug early.

use crate::bbox::BoundingBox;
use crate::block;
use crate::image::GrayImage;
use crate::memo;
use crate::VideoError;

/// Size (width and height) that bounding-box crops are resampled to before
/// computing their NCC, so that boxes of different sizes remain comparable.
pub const REGION_NCC_SIZE: usize = 16;

/// Computes the normalized cross-correlation between two images of identical
/// dimensions.
///
/// Returns a value in `[-1, 1]`. When either image has (numerically) zero
/// variance the correlation is defined as `1.0` if both are flat and `0.0`
/// otherwise, which matches the intuitive reading of "nothing changed" /
/// "everything changed" used by the scheduler.
///
/// The per-image means come from each [`GrayImage`]'s cached moments (a
/// rendered frame's mean is seeded by the renderer). The cross term
/// `Σ (p − mean(p)) (c − mean(c))` runs in one pairwise loop together with
/// each self-correlation term `Σ (v − mean)²` that is not cached yet, and
/// the loop stores those norms on their images. Each sum is a serially
/// dependent chain of f64 additions whose order bit-identity pins, so it is
/// bound by add latency; but the sums are independent of one another, so
/// they run side by side at little more than the cost of one. The result is
/// bit-identical to the historical three-sum loop, because every
/// accumulator sees the same operand sequence left-to-right (the cross term
/// is deliberately *not* rewritten as `dot(p, c) − n·mean(p)·mean(c)`,
/// which rounds differently).
///
/// A linked pair skips that loop: the consecutive frames of one
/// [`FrameStream`](crate::FrameStream) block, and the pending pairs of up
/// to eight streams that a fleet links with [`link_pairs`](crate::link_pairs).
/// When `c`'s record names `p`'s pixel buffer as the left of `c`'s pair, the
/// first such call runs every pair of the record in one pass, one pair per
/// f64 lane, with the same operand order per lane; this and every later
/// pair of the record read their cross term and `c`'s norm from the record,
/// which is stored on `c` like any other norm. Any other pair runs the loop
/// above.
///
/// Frames rendered from a [`Scenario`](crate::Scenario) carry its NCC memo
/// and their index. When `p` and `c` carry one memo and `p`'s index is one
/// below `c`'s, the call returns the memo's value for that pair once some
/// correlation has computed it, by either path above, from this scenario
/// value or a clone; otherwise, or while the memo has no value for the pair,
/// it computes as above and stores the value. The pixels of both frames are
/// a pure function of the scenario and the index, so the value read is the
/// value the call would compute.
///
/// # Errors
///
/// Returns [`VideoError::DimensionMismatch`] when the images have different
/// sizes.
///
/// ```
/// use shift_video::{GrayImage, ncc};
///
/// let a = GrayImage::from_fn(8, 8, |x, y| (x + y) as f32 / 16.0);
/// let same = ncc(&a, &a)?;
/// assert!((same - 1.0).abs() < 1e-6);
/// # Ok::<(), shift_video::VideoError>(())
/// ```
pub fn ncc(p: &GrayImage, c: &GrayImage) -> Result<f64, VideoError> {
    if p.width() != c.width() || p.height() != c.height() {
        return Err(VideoError::DimensionMismatch {
            lhs: (p.width(), p.height()),
            rhs: (c.width(), c.height()),
        });
    }
    let slot = memo::slot(p, c);
    if let Some(value) = slot.as_ref().and_then(memo::Slot::get) {
        return Ok(value);
    }
    let value = correlate(p, c);
    if let Some(slot) = slot {
        slot.fill(value);
    }
    Ok(value)
}

/// The NCC of two images of one size, from `c`'s pair record when it links
/// `p` and from the serial loop otherwise.
fn correlate(p: &GrayImage, c: &GrayImage) -> f64 {
    let (num, dp, dc) = match block::linked_sums(p, c) {
        Some((num, dc)) => (num, p.centered_norm(), c.store_centered_norm(dc)),
        None => serial_sums(p, c),
    };
    const EPS: f64 = 1e-12;
    if dp < EPS && dc < EPS {
        return 1.0;
    }
    if dp < EPS || dc < EPS {
        return 0.0;
    }
    (num / (dp.sqrt() * dc.sqrt())).clamp(-1.0, 1.0)
}

/// The cross term and both centered norms of an unlinked pair: one
/// [`centered_sums`] loop that also computes each norm not cached yet, and
/// stores it.
fn serial_sums(p: &GrayImage, c: &GrayImage) -> (f64, f64, f64) {
    #[cfg(test)]
    block::count::SERIAL.with(|n| n.set(n.get() + 1));
    let (p_pixels, mp) = (p.pixels(), p.mean());
    let (c_pixels, mc) = (c.pixels(), c.mean());
    let cached = (p.cached_centered_norm(), c.cached_centered_norm());
    let (num, dp, dc) = match cached {
        (None, None) => centered_sums::<true, true>(p_pixels, mp, c_pixels, mc),
        (None, Some(_)) => centered_sums::<true, false>(p_pixels, mp, c_pixels, mc),
        (Some(_), None) => centered_sums::<false, true>(p_pixels, mp, c_pixels, mc),
        (Some(_), Some(_)) => centered_sums::<false, false>(p_pixels, mp, c_pixels, mc),
    };
    let dp = cached.0.unwrap_or_else(|| p.store_centered_norm(dp));
    let dc = cached.1.unwrap_or_else(|| c.store_centered_norm(dc));
    (num, dp, dc)
}

/// One left-to-right pass over both images: the cross term
/// `Σ (p − mp) (c − mc)`, plus `Σ (p − mp)²` when `P` and `Σ (c − mc)²` when
/// `C` (a norm not asked for comes back as `0.0`). The flags are constants,
/// so each of [`ncc`]'s four cases compiles to a loop holding only its sums.
fn centered_sums<const P: bool, const C: bool>(
    p: &[f32],
    mp: f64,
    c: &[f32],
    mc: f64,
) -> (f64, f64, f64) {
    let (mut num, mut dp, mut dc) = (0.0f64, 0.0f64, 0.0f64);
    for (a, b) in p.iter().zip(c) {
        let da = *a as f64 - mp;
        let db = *b as f64 - mc;
        num += da * db;
        if P {
            dp += da * da;
        }
        if C {
            dc += db * db;
        }
    }
    (num, dp, dc)
}

/// One side of [`RegionNcc`]'s scratch state: a reusable
/// [`REGION_NCC_SIZE`]² target buffer plus the nearest-neighbour index map
/// of the last crop shape sampled into it. Bounding boxes are near-constant
/// within a stream, so the map — the `floor((i + 0.5) / REGION_NCC_SIZE ·
/// crop_extent)` source index per target row/column, exactly the arithmetic
/// of [`GrayImage::resized`] — is recomputed only when the crop shape
/// actually changes.
#[derive(Debug, Clone)]
struct RegionSlot {
    target: GrayImage,
    source_x: [usize; REGION_NCC_SIZE],
    source_y: [usize; REGION_NCC_SIZE],
    crop_shape: (usize, usize),
}

impl RegionSlot {
    fn new() -> Self {
        Self {
            target: GrayImage::new(REGION_NCC_SIZE, REGION_NCC_SIZE),
            source_x: [0; REGION_NCC_SIZE],
            source_y: [0; REGION_NCC_SIZE],
            crop_shape: (0, 0),
        }
    }

    /// Samples `frame`'s crop under `bbox` into the scratch target — the
    /// fusion of `frame.crop(bbox)` + `crop.resized(16, 16)` without the two
    /// intermediate allocations; the sampled source pixels are identical.
    /// Returns `false` when the clamped crop is empty (the out-of-frame
    /// case, which the caller maps to similarity `0.0`).
    fn fill(&mut self, frame: &GrayImage, bbox: &BoundingBox) -> bool {
        let clamped = bbox.clamped(frame.width(), frame.height());
        let x0 = clamped.x.floor() as usize;
        let y0 = clamped.y.floor() as usize;
        let x1 = (clamped.right().ceil() as usize).min(frame.width());
        let y1 = (clamped.bottom().ceil() as usize).min(frame.height());
        if x1 <= x0 || y1 <= y0 {
            return false;
        }
        let (crop_w, crop_h) = (x1 - x0, y1 - y0);
        if self.crop_shape != (crop_w, crop_h) {
            // Same arithmetic as `GrayImage::resized`, evaluated once per
            // axis instead of once per pixel.
            for (x, sx) in self.source_x.iter_mut().enumerate() {
                let s =
                    ((x as f64 + 0.5) / REGION_NCC_SIZE as f64 * crop_w as f64).floor() as usize;
                *sx = s.min(crop_w - 1);
            }
            for (y, sy) in self.source_y.iter_mut().enumerate() {
                let s =
                    ((y as f64 + 0.5) / REGION_NCC_SIZE as f64 * crop_h as f64).floor() as usize;
                *sy = s.min(crop_h - 1);
            }
            self.crop_shape = (crop_w, crop_h);
        }
        let source = frame.pixels();
        let stride = frame.width();
        let target = self.target.pixels_mut();
        for (y, &sy) in self.source_y.iter().enumerate() {
            let row = &source[(y0 + sy) * stride..];
            for (x, &sx) in self.source_x.iter().enumerate() {
                target[y * REGION_NCC_SIZE + x] = row[x0 + sx];
            }
        }
        true
    }
}

/// Reusable scratch state for the bounding-box NCC term: two
/// [`REGION_NCC_SIZE`]² buffers the crops are sampled straight into, making
/// the steady-state region path allocation-free (the historical path
/// allocated two crops plus two resized images per call).
///
/// Results are bit-identical to [`ncc_regions`]; holders that score many
/// frames (the context detector, the tracker baselines) keep one of these
/// alive instead of calling the allocating free function.
#[derive(Debug, Clone)]
pub struct RegionNcc {
    prev: RegionSlot,
    cur: RegionSlot,
}

impl Default for RegionNcc {
    fn default() -> Self {
        Self::new()
    }
}

impl RegionNcc {
    /// Creates the scratch buffers (the only allocation this type performs).
    pub fn new() -> Self {
        Self {
            prev: RegionSlot::new(),
            cur: RegionSlot::new(),
        }
    }

    /// Computes the NCC between the regions of two frames selected by two
    /// bounding boxes, reusing the scratch buffers. See [`ncc_regions`] for
    /// the semantics; the two are bit-identical.
    pub fn ncc_regions(
        &mut self,
        prev_frame: &GrayImage,
        prev_bbox: &BoundingBox,
        cur_frame: &GrayImage,
        cur_bbox: &BoundingBox,
    ) -> f64 {
        if !self.prev.fill(prev_frame, prev_bbox) || !self.cur.fill(cur_frame, cur_bbox) {
            return 0.0;
        }
        // The scratch targets always share the 16×16 shape, so the dimension
        // check inside `ncc` cannot fail; `unwrap_or` documents the release
        // fallback regardless (see the module-level error-handling note).
        ncc(&self.prev.target, &self.cur.target).unwrap_or(0.0)
    }
}

/// Computes the NCC between the regions of two frames selected by two
/// bounding boxes (the "bounding-box NCC" term of the scheduler's similarity
/// score).
///
/// Both crops are resampled to [`REGION_NCC_SIZE`]² before correlation so
/// that boxes of different sizes remain comparable. If either box does not
/// overlap its frame the function returns `0.0`, signalling maximal change —
/// this is what drives re-scheduling when a detection disappears.
///
/// This convenience form allocates a fresh [`RegionNcc`] scratch per call;
/// per-frame callers hold a [`RegionNcc`] instead.
pub fn ncc_regions(
    prev_frame: &GrayImage,
    prev_bbox: &BoundingBox,
    cur_frame: &GrayImage,
    cur_bbox: &BoundingBox,
) -> f64 {
    RegionNcc::new().ncc_regions(prev_frame, prev_bbox, cur_frame, cur_bbox)
}

/// Convenience helper computing the scheduler's combined similarity score:
/// `min(NCC(last image, image), NCC(last bbox crop, bbox crop))`.
///
/// The full-frame term treats a dimension mismatch as maximal change
/// (`0.0`): stream dimensions never legitimately change mid-video, so the
/// fallback only matters for miswired callers, and the debug-mode assertion
/// at the `ContextDetector` boundary is what actually surfaces those.
pub fn frame_similarity(
    prev_frame: &GrayImage,
    prev_bbox: &BoundingBox,
    cur_frame: &GrayImage,
    cur_bbox: &BoundingBox,
) -> f64 {
    let image_ncc = ncc(prev_frame, cur_frame).unwrap_or(0.0);
    let bbox_ncc = ncc_regions(prev_frame, prev_bbox, cur_frame, cur_bbox);
    image_ncc.min(bbox_ncc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{render_frame, SceneAppearance};

    fn gradient(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| (x as f32 + y as f32) / (w + h) as f32)
    }

    #[test]
    fn self_ncc_is_one() {
        let img = gradient(16, 16);
        assert!((ncc(&img, &img).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inverted_image_has_ncc_minus_one() {
        let img = gradient(16, 16);
        let inv = GrayImage::from_fn(16, 16, |x, y| 1.0 - img.get(x, y));
        assert!((ncc(&img, &inv).unwrap() + 1.0).abs() < 1e-6);
    }

    #[test]
    fn flat_images_are_perfectly_similar() {
        let a = GrayImage::from_fn(8, 8, |_, _| 0.3);
        let b = GrayImage::from_fn(8, 8, |_, _| 0.9);
        // Both have zero variance: defined as identical structure.
        assert_eq!(ncc(&a, &b).unwrap(), 1.0);
    }

    #[test]
    fn flat_vs_textured_is_zero() {
        let flat = GrayImage::from_fn(8, 8, |_, _| 0.5);
        let tex = gradient(8, 8);
        assert_eq!(ncc(&flat, &tex).unwrap(), 0.0);
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let a = GrayImage::new(4, 4);
        let b = GrayImage::new(8, 8);
        assert!(matches!(
            ncc(&a, &b),
            Err(VideoError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn ncc_in_unit_range_for_rendered_frames() {
        let app_a = SceneAppearance::default();
        let app_b = SceneAppearance {
            background_id: 3,
            clutter: 0.9,
            ..SceneAppearance::default()
        };
        let a = render_frame(48, 48, &app_a, None, 1);
        let b = render_frame(48, 48, &app_b, None, 2);
        let v = ncc(&a, &b).unwrap();
        assert!((-1.0..=1.0).contains(&v));
    }

    #[test]
    fn background_change_lowers_ncc() {
        let same = SceneAppearance::default();
        let different = SceneAppearance {
            background_id: 9,
            lighting: 0.3,
            clutter: 0.9,
            ..SceneAppearance::default()
        };
        let a = render_frame(48, 48, &same, None, 10);
        let b = render_frame(48, 48, &same, None, 11);
        let c = render_frame(48, 48, &different, None, 12);
        let similar = ncc(&a, &b).unwrap();
        let dissimilar = ncc(&a, &c).unwrap();
        assert!(
            similar > dissimilar,
            "same background should correlate more: {similar} vs {dissimilar}"
        );
        assert!(similar > 0.8);
    }

    #[test]
    fn region_ncc_of_identical_crops_is_high() {
        let app = SceneAppearance::default();
        let bbox = BoundingBox::from_center(24.0, 24.0, 12.0, 12.0);
        let frame = render_frame(48, 48, &app, Some(&bbox), 5);
        let v = ncc_regions(&frame, &bbox, &frame, &bbox);
        assert!(v > 0.99, "identical crops should correlate, got {v}");
    }

    #[test]
    fn region_ncc_with_out_of_frame_box_is_zero() {
        let frame = render_frame(32, 32, &SceneAppearance::default(), None, 5);
        let inside = BoundingBox::from_center(16.0, 16.0, 8.0, 8.0);
        let outside = BoundingBox::new(500.0, 500.0, 8.0, 8.0);
        assert_eq!(ncc_regions(&frame, &inside, &frame, &outside), 0.0);
    }

    #[test]
    fn frame_similarity_is_min_of_terms() {
        let app = SceneAppearance::default();
        let bbox = BoundingBox::from_center(20.0, 20.0, 10.0, 10.0);
        let a = render_frame(40, 40, &app, Some(&bbox), 1);
        let moved = bbox.translated(10.0, 0.0);
        let b = render_frame(40, 40, &app, Some(&moved), 2);
        let sim = frame_similarity(&a, &bbox, &b, &moved);
        let img = ncc(&a, &b).unwrap();
        let reg = ncc_regions(&a, &bbox, &b, &moved);
        assert!((sim - img.min(reg)).abs() < 1e-12);
    }
}
