//! `sinf` and `cosf` sixteen arguments at a time, with the bits of the host
//! libm's.
//!
//! The renderer's background multiplies four per-axis tables of sines and
//! cosines (see [`render_frame`](crate::image::render_frame)), 256 values
//! for a 64 × 64 frame. Every frame has its own camera shake, so no table
//! can be shared between frames. The renderer's AVX-512 copy builds its
//! tables here, sixteen lanes at a time; its portable copy calls libm
//! through `f32::sin` and `f32::cos`.
//!
//! # Provenance
//!
//! This is a transcription of `sinf` and `cosf` from ARM's optimized-routines
//! (MIT OR Apache-2.0 WITH LLVM-exception), as glibc ships them: glibc 2.36's
//! ifuncs select a copy compiled for FMA on an x86-64 CPU with FMA and AVX2.
//! The constants were read from Debian glibc 2.36-9+deb12u14's
//! `libm.so.6` with `objdump -s`:
//!
//! - `__sincosf_table` at .rodata 0xae280: two rows of 14 doubles, `sign[4]`,
//!   2/π · 2²⁴, π/2, `c0`, `c1`, `s1`, `c2`, `s2`, `c3`, `s3`, `c4`. The
//!   second row is the first with the cosine coefficients negated.
//! - `__inv_pio4` at 0xae220: 2/π as 24 overlapping 32-bit words.
//! - π · 2⁻⁶³ at 0x97a28.
//!
//! The multiply-adds that the FMA copies of `sinf` (0x73720) and `cosf`
//! (0x73280) fuse were read with `objdump -d`: one in the reduction below
//! 120, three in the odd polynomial, four in the even one. Here they are
//! `f64::mul_add`, the only fused multiply-adds in the repository; every
//! other operation is exact integer arithmetic or one correctly rounded f64
//! or f32 operation, as in libm. The lanes therefore give the same bits on
//! every host: those of glibc's FMA build, which equal the host's libm only
//! where the host's libm is that build.
//!
//! # The algorithm
//!
//! For an argument `y`, with `top` bits 20–30 of its encoding (the exponent
//! and the first three mantissa bits) and `x = y as f64`:
//!
//! - `top < 0x398` (|y| < 2⁻¹²): `sinf` returns `y` and `cosf` 1.
//! - `top < 0x42f` (|y| < 120): `n = (trunc(x · 2/π · 2²⁴) + 2²³) >> 24` in
//!   `i32` arithmetic and `r = x − n · π/2`, fused. Below π/4 libm skips this
//!   step and takes `n = 0`, `r = x`, which is what the step gives there.
//! - `top < 0x7f8` (finite): `n` and `r` from three words of `__inv_pio4` in
//!   64-bit integer arithmetic, in the manner of Payne and Hanek ("Radian
//!   reduction for trigonometric functions", SIGNUM Newsletter, 1983). The
//!   quadrant adds 1 for a negative argument.
//! - Otherwise (±∞, NaN): `y − y`, the NaN libm's `(y − y) / (y − y)` gives.
//!
//! Bit 1 of the quadrant picks the row; bits 0–1 pick the sign. When `n` is
//! even (`sinf`) or odd (`cosf`), the result is the odd polynomial of `r`
//! times the sign; otherwise it is the even polynomial of `r²`, with the
//! second row's negated coefficients when bit 1 of the quadrant is set.
//!
//! # Lanes
//!
//! [`Trig::lanes`] evaluates sixteen arguments without a branch per lane:
//! the compiler turns each lane's choices into selects and the lane loop
//! into vector instructions. It computes only the table reduction when all
//! sixteen arguments are 120 or more, and both reductions otherwise; the
//! renderer's arguments at the evaluation scenarios' seeds are all 120 or
//! more.
//!
//! # Why the portable renderer keeps libm
//!
//! Compiled for baseline x86-64, which has no FMA unit, every `mul_add`
//! becomes a call into `fma`. On a 2-core AVX-512 Xeon, for scenario 1's
//! frames, the lanes then took 3.8–4.4 µs per frame's 256 values against
//! libm's 1.5–1.6 µs in the same runs, and 0.73–0.83 µs compiled for
//! AVX-512. The AVX-512 copy's pixels no longer depend on the host's libm;
//! the portable copy's pixels equal them wherever libm is this one.

/// Arguments per call of [`Trig::lanes`].
const LANES: usize = 16;

/// 2/π · 2²⁴, `__sincosf_table`'s `hpi_inv`.
const HPI_INV: f64 = f64::from_bits(0x4164_5f30_6dc9_c883);

/// π/2, `__sincosf_table`'s `hpi`.
const HPI: f64 = f64::from_bits(0x3ff9_21fb_5444_2d18);

/// The even polynomial's `c0`–`c4`, as `__sincosf_table[0]` holds them.
/// `__sincosf_table[1]` holds them negated.
const C: [f64; 5] = [
    f64::from_bits(0x3ff0_0000_0000_0000),
    f64::from_bits(0xbfdf_ffff_fd0c_621c),
    f64::from_bits(0x3fa5_5553_e106_8f19),
    f64::from_bits(0xbf56_c087_e89a_359d),
    f64::from_bits(0x3ef9_9343_027b_f8c3),
];

/// The odd polynomial's `s1`–`s3`, the same in both rows.
const S: [f64; 3] = [
    f64::from_bits(0xbfc5_5554_5995_a603),
    f64::from_bits(0x3f81_1076_0523_0bc4),
    f64::from_bits(0xbf29_94eb_3774_cf24),
];

/// π · 2⁻⁶³: the weight of the large reduction's fixed-point remainder.
const PI63: f64 = f64::from_bits(0x3c19_21fb_5444_2d18);

/// `__inv_pio4`: the bits of 2/π, word `i` holding bits 8(i − 3) to
/// 8i + 7 after the binary point.
const INV_PIO4: [u32; 24] = [
    0xa2, 0xa2f9, 0xa2f983, 0xa2f9836e, 0xf9836e4e, 0x836e4e44, 0x6e4e4415, 0x4e441529, 0x441529fc,
    0x1529fc27, 0x29fc2757, 0xfc2757d1, 0x2757d1f5, 0x57d1f534, 0xd1f534dd, 0xf534ddc0, 0x34ddc0db,
    0xddc0db62, 0xc0db6295, 0xdb629599, 0x6295993c, 0x95993c43, 0x993c4390, 0x3c439041,
];

/// [`top12`] of 2⁻¹²: below it `sinf` returns its argument and `cosf` 1.
const TOP12_TINY: u32 = 0x398;

/// [`top12`] of 120: from it on the reduction uses `__inv_pio4`.
const TOP12_LARGE: u32 = 0x42f;

/// [`top12`] of ∞: from it on the argument is not finite.
const TOP12_INF: u32 = 0x7f8;

/// Bits 20–30 of `y`'s encoding: its exponent and the first three bits of
/// its mantissa, without the sign.
#[inline(always)]
fn top12(y: f32) -> u32 {
    (y.to_bits() >> 20) & 0x7ff
}

/// The two functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Trig {
    Sin,
    Cos,
}

/// An argument reduced by `n` quarter turns.
#[derive(Clone, Copy)]
struct Reduced {
    /// The remainder, in about [−π/4, π/4].
    r: f64,
    /// Bits 0–1 pick the sign and bit 1 the coefficient row: `n`, plus 1
    /// for a negative argument of the large reduction.
    quadrant: u32,
    /// Whether `n` is odd.
    odd: bool,
}

/// Which reductions a batch of lanes computes.
#[derive(Clone, Copy)]
enum Reduction {
    /// Only the table reduction: every argument is 120 or more.
    Large,
    /// Both, each lane selecting its own.
    Both,
}

/// 2⁵² + 2⁵¹: an integer-valued f64 `n` with |n| < 2³¹ plus this has
/// `n`'s two's-complement bits in the low 32 bits of its encoding.
const INT_BITS: f64 = f64::from_bits(0x4338_0000_0000_0000);

/// The reduction below 120: `n` rounded from `x · 2/π` in fixed point,
/// then `x − n · π/2` with one rounding.
///
/// libm forms `n = (trunc(x · 2/π · 2²⁴) as i32 + 2²³) >> 24`. Here the same
/// integer comes from f64 operations that are all exact below 120: the
/// truncation, adding 2²³ to an integer under 2³¹, scaling by 2⁻²⁴ and
/// flooring (an arithmetic shift floors). Unlike `as i32`, which saturates,
/// they compile to vector instructions and never branch or panic on the
/// lanes whose argument is 120 or more, whose result is not this one.
#[inline(always)]
fn reduce_medium(y: f32) -> Reduced {
    let x = f64::from(y);
    let n = (((x * HPI_INV).trunc() + TWO_23) * TWO_MINUS_24).floor();
    let bits = (n + INT_BITS).to_bits() as u32;
    Reduced {
        r: (-n).mul_add(HPI, x),
        quadrant: bits,
        odd: bits & 1 != 0,
    }
}

/// 2²³, half a quarter turn in the medium reduction's fixed point.
const TWO_23: f64 = 8_388_608.0;

/// 2⁻²⁴, the medium reduction's fixed-point unit.
const TWO_MINUS_24: f64 = 1.0 / 16_777_216.0;

/// The reduction from 120 on: the mantissa times the 96 bits of 2/π that
/// its exponent selects, in 64-bit fixed point with 2 integer bits.
#[inline(always)]
fn reduce_large(y: f32) -> Reduced {
    let xi = y.to_bits();
    let word = ((xi >> 26) & 15) as usize;
    let m = ((xi & 0x7f_ffff) | 0x80_0000) << ((xi >> 23) & 7);
    let low = u64::from(m.wrapping_mul(INV_PIO4[word]));
    let mid = u64::from(m) * u64::from(INV_PIO4[word + 4]);
    let high = u64::from(m) * u64::from(INV_PIO4[word + 8]);
    let turns = ((high >> 32) | (low << 32)).wrapping_add(mid);
    let n = turns.wrapping_add(1 << 61) >> 62;
    let frac = turns.wrapping_sub(n << 62) as i64;
    Reduced {
        r: frac as f64 * PI63,
        quadrant: n as u32 + (xi >> 31),
        odd: n & 1 != 0,
    }
}

impl Trig {
    /// This function as the host's libm computes it.
    pub(crate) fn libm(self, y: f32) -> f32 {
        match self {
            Trig::Sin => y.sin(),
            Trig::Cos => y.cos(),
        }
    }

    /// Replaces every argument in `values` with this function of it,
    /// [`LANES`] at a time. A short tail is padded with its last argument.
    /// Inlined always, so it compiles for its caller's target features.
    #[inline(always)]
    pub(crate) fn apply(self, values: &mut [f32]) {
        let mut chunks = values.chunks_exact_mut(LANES);
        for chunk in &mut chunks {
            let args: &mut [f32; LANES] = chunk.try_into().expect("a whole chunk");
            *args = self.lanes(args);
        }
        let tail = chunks.into_remainder();
        if let Some(&last) = tail.last() {
            let mut args = [last; LANES];
            args[..tail.len()].copy_from_slice(tail);
            tail.copy_from_slice(&self.lanes(&args)[..tail.len()]);
        }
    }

    /// This function of sixteen arguments, each with libm's bits. Only the
    /// table reduction runs when every argument is 120 or more.
    #[inline(always)]
    fn lanes(self, y: &[f32; LANES]) -> [f32; LANES] {
        let large = y.iter().filter(|&&v| top12(v) >= TOP12_LARGE).count();
        // One loop per case, so that each compiles with its reduction fixed.
        if large == LANES {
            self.lane_loop(y, Reduction::Large)
        } else {
            self.lane_loop(y, Reduction::Both)
        }
    }

    #[inline(always)]
    fn lane_loop(self, y: &[f32; LANES], how: Reduction) -> [f32; LANES] {
        let mut out = [0.0; LANES];
        for (out, &y) in out.iter_mut().zip(y) {
            *out = self.lane(y, how);
        }
        out
    }

    /// One lane: every path is computed and the lane's is selected.
    #[inline(always)]
    #[allow(clippy::eq_op, reason = "y - y is the NaN libm returns")]
    fn lane(self, y: f32, how: Reduction) -> f32 {
        let top = top12(y);
        let Reduced { r, quadrant, odd } = match how {
            Reduction::Large => reduce_large(y),
            Reduction::Both => {
                let (medium, large) = (reduce_medium(y), reduce_large(y));
                if top < TOP12_LARGE {
                    medium
                } else {
                    large
                }
            }
        };
        // `sign[quadrant & 3]`, [1, −1, −1, 1]: −1 where bits 0 and 1 differ.
        let sign = if (quadrant ^ (quadrant >> 1)) & 1 == 0 {
            1.0
        } else {
            -1.0
        };
        let x = r * sign;
        let x2 = r * r;
        let row = |c: f64| if quadrant & 2 == 0 { c } else { -c };
        // The even polynomial when n is odd for the sine, even for the
        // cosine; it reads x only through x2.
        let even = odd != (self == Trig::Cos);
        let (base, k1, k2, k3, head) = if even {
            (
                x2,
                row(C[2]),
                row(C[3]),
                row(C[4]),
                x2.mul_add(row(C[1]), row(C[0])),
            )
        } else {
            (x, S[0], S[1], S[2], x)
        };
        // Odd: x3 = x·x2, x5 = x3·x2, (s2 + x2·s3)·x5 + (x + x3·s1).
        // Even: x4 = x2·x2, x6 = x4·x2, (c3 + x2·c4)·x6 + (c1' + x4·c2),
        // with c1' = c0 + x2·c1.
        let t = base * x2;
        let poly = x2.mul_add(k3, k2).mul_add(t * x2, t.mul_add(k1, head)) as f32;
        if top < TOP12_TINY {
            match self {
                Trig::Sin => y,
                Trig::Cos => 1.0,
            }
        } else if top >= TOP12_INF {
            y - y
        } else {
            poly
        }
    }
}

/// Whether the host's libm is the build the constants come from: glibc on
/// x86-64 selects its FMA build of `sinf` and `cosf` on a CPU with FMA and
/// AVX2 (unless its hwcaps tunables mask them). Tests compare the lanes
/// with libm only where this holds.
#[cfg(test)]
pub(crate) fn libm_is_the_fma_build() -> bool {
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    {
        is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{ScenarioGenerator, ScenarioLibrary};
    use crate::image::{has_avx512, table_args};
    use crate::Scenario;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    /// libm's code path by path, one argument at a time: the reference the
    /// lanes must equal.
    #[allow(clippy::eq_op, reason = "libm's NaN is (y - y) / (y - y)")]
    fn reference(f: Trig, y: f32) -> f32 {
        let top = top12(y);
        let x = f64::from(y);
        if top < 0x3f4 {
            // |y| < π/4: no reduction.
            if top < TOP12_TINY {
                return match f {
                    Trig::Sin => y,
                    Trig::Cos => 1.0,
                };
            }
            return poly(f == Trig::Cos, x, x * x, false);
        }
        let (r, n, quadrant) = if top < TOP12_LARGE {
            let n = ((x * HPI_INV) as i32 + 0x80_0000) >> 24;
            ((-f64::from(n)).mul_add(HPI, x), n as u32, n as u32)
        } else if top < TOP12_INF {
            let xi = y.to_bits();
            let arr = &INV_PIO4[((xi >> 26) & 15) as usize..];
            let shift = (xi >> 23) & 7;
            let xi = ((xi & 0xff_ffff) | 0x80_0000) << shift;
            let res0 = u64::from(xi.wrapping_mul(arr[0]));
            let res1 = u64::from(xi) * u64::from(arr[4]);
            let res2 = u64::from(xi) * u64::from(arr[8]);
            let res0 = ((res2 >> 32) | (res0 << 32)).wrapping_add(res1);
            let n = res0.wrapping_add(1 << 61) >> 62;
            let res0 = res0.wrapping_sub(n << 62);
            let sign = y.to_bits() >> 31;
            (res0 as i64 as f64 * PI63, n as u32, n as u32 + sign)
        } else {
            return (y - y) / (y - y);
        };
        const SIGN: [f64; 4] = [1.0, -1.0, -1.0, 1.0];
        let s = SIGN[(quadrant & 3) as usize];
        let odd = n & 1 != 0;
        poly(odd != (f == Trig::Cos), r * s, r * r, quadrant & 2 != 0)
    }

    /// `sinf_poly`: the odd polynomial of `x`, or the even one of `x2` with
    /// the second row's coefficients when `negated`.
    fn poly(even: bool, x: f64, x2: f64, negated: bool) -> f32 {
        if even {
            let c = C.map(|c| if negated { -c } else { c });
            let x4 = x2 * x2;
            let c2 = x2.mul_add(c[4], c[3]);
            let c1 = x2.mul_add(c[1], c[0]);
            let x6 = x4 * x2;
            let c = x4.mul_add(c[2], c1);
            c2.mul_add(x6, c) as f32
        } else {
            let x3 = x * x2;
            let s1 = x2.mul_add(S[2], S[1]);
            let x5 = x3 * x2;
            let s = x3.mul_add(S[0], x);
            s1.mul_add(x5, s) as f32
        }
    }

    /// Equal bits, or both NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// [`Trig::apply`] compiled for AVX-512, as the renderer's AVX-512 copy
    /// compiles it.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    fn apply_avx512(f: Trig, values: &mut [f32]) {
        f.apply(values);
    }

    /// `values` through every compiled copy of the lanes this host runs:
    /// as compiled for the build target, and for AVX-512 when the host has
    /// it. Each copy's name and results.
    #[allow(unsafe_code)]
    fn lane_copies(f: Trig, values: &[f32]) -> Vec<(&'static str, Vec<f32>)> {
        let mut portable = values.to_vec();
        f.apply(&mut portable);
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut copies = vec![("portable", portable)];
        #[cfg(target_arch = "x86_64")]
        if has_avx512() {
            let mut lanes = values.to_vec();
            // SAFETY: `apply_avx512` may only run on a CPU with avx512f,
            // avx512dq and avx512vl, and `has_avx512` has just detected all
            // three on this CPU.
            unsafe { apply_avx512(f, &mut lanes) };
            copies.push(("avx512", lanes));
        }
        copies
    }

    /// Checks every copy of the lanes against the reference on `values`,
    /// and the reference against libm where libm is the FMA build.
    fn check(values: &[f32], case: &str) {
        let libm = libm_is_the_fma_build();
        for f in [Trig::Sin, Trig::Cos] {
            let expected: Vec<f32> = values.iter().map(|&y| reference(f, y)).collect();
            for (copy, got) in lane_copies(f, values) {
                for ((&y, &want), &got) in values.iter().zip(&expected).zip(&got) {
                    assert!(
                        same(got, want),
                        "{case}: {f:?} lanes ({copy}) of {y:e} ({:#010x}): {got:e}, reference {want:e}",
                        y.to_bits()
                    );
                }
            }
            if libm {
                for (&y, &want) in values.iter().zip(&expected) {
                    let host = f.libm(y);
                    assert!(
                        same(want, host),
                        "{case}: {f:?} reference of {y:e} ({:#010x}): {want:e}, libm {host:e}",
                        y.to_bits()
                    );
                }
            }
        }
    }

    /// Every exponent and both signs, each with edge and strided mantissas;
    /// the bits on both sides of each path boundary; NaN payloads.
    fn structured_sample() -> Vec<f32> {
        let mut bits = Vec::new();
        let mantissas = [
            0, 1, 2, 0x3f_ffff, 0x40_0000, 0x40_0001, 0x7f_fffe, 0x7f_ffff,
        ]
        .into_iter()
        .chain((0..0x80_0000).step_by(0x1_0003));
        for exponent in 0..=255u32 {
            for mantissa in mantissas.clone() {
                bits.push((exponent << 23) | mantissa);
            }
        }
        // Both sides of 2⁻¹², π/4, 120 and ∞ on the top-12 grid, with the
        // low 20 bits at their edges and between.
        for top in [0x397u32, 0x398, 0x3f3, 0x3f4, 0x42e, 0x42f, 0x7f7, 0x7f8] {
            for low in [0, 1, 0x5_5555, 0x8_0000, 0xf_fffe, 0xf_ffff] {
                bits.push((top << 20) | low);
            }
        }
        // π/4 itself, 120 and the largest finite value.
        bits.extend([
            0x3f49_0fdb,
            0x3f49_0fda,
            0x42f0_0000,
            0x42ef_ffff,
            0x7f7f_ffff,
        ]);
        // Quiet and signalling NaNs with payloads.
        bits.extend([0x7fc0_0000, 0x7fc0_0001, 0x7fa0_0000, 0x7f80_0001]);
        let positive = bits.len();
        for i in 0..positive {
            bits.push(bits[i] | 0x8000_0000);
        }
        bits.into_iter().map(f32::from_bits).collect()
    }

    /// `values` in an order that puts arguments of every path into most
    /// batches of sixteen: a stride prime to the length.
    fn interleaved(values: &[f32]) -> Vec<f32> {
        let stride = (0..)
            .map(|k| values.len() / 16 + 1 + k)
            .find(|&s| gcd(s, values.len()) == 1)
            .expect("a stride prime to the length");
        (0..values.len())
            .map(|i| values[(i * stride) % values.len()])
            .collect()
    }

    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    #[test]
    fn lanes_equal_the_reference_and_libm_on_a_structured_sample() {
        let sample = structured_sample();
        check(&sample, "structured");
        let mixed = interleaved(&sample);
        let paths = |batch: &[f32]| {
            let mut kinds = batch
                .iter()
                .map(|&y| match top12(y) {
                    t if t < TOP12_TINY => 0,
                    t if t < TOP12_LARGE => 1,
                    t if t < TOP12_INF => 2,
                    _ => 3,
                })
                .collect::<Vec<_>>();
            kinds.sort_unstable();
            kinds.dedup();
            kinds.len()
        };
        let mixing = mixed.chunks(LANES).filter(|b| paths(b) >= 3).count();
        assert!(
            mixing * 2 > mixed.len() / LANES,
            "{mixing} batches mix three paths"
        );
        check(&mixed, "interleaved");
        if !libm_is_the_fma_build() {
            println!("skipped the reference against libm: not glibc's FMA build");
        }
    }

    /// Every table argument the renderer forms for `frames` frames spread
    /// over `scenario`, first and last included.
    fn renderer_args(scenario: &Scenario, frames: usize) -> Vec<f32> {
        let last = scenario.num_frames() - 1;
        let mut args = Vec::new();
        for k in 0..frames {
            let index = last * k / (frames - 1);
            let appearance = scenario.appearance_at(index);
            for (_, values) in
                table_args(scenario.frame_width(), scenario.frame_height(), &appearance)
            {
                args.extend(values);
            }
        }
        args
    }

    #[test]
    fn lanes_equal_the_reference_and_libm_on_the_renderers_arguments() {
        let mut scenarios = Scenario::evaluation_set();
        let generator = ScenarioGenerator::new(2024);
        for spec in ScenarioLibrary::standard().specs() {
            scenarios.push(generator.generate(spec, 0));
        }
        assert_eq!(scenarios.len(), 14);
        let (mut below, mut total) = (0, 0);
        for scenario in &scenarios {
            for scenario in [scenario.clone(), scenario.clone().with_seed(0)] {
                let args = renderer_args(&scenario, 24);
                below += args.iter().filter(|y| y.abs() < 120.0).count();
                total += args.len();
                check(&args, scenario.name());
            }
        }
        // Seed 0 puts most arguments below 120, so the medium reduction
        // and mixed batches are covered.
        assert!(below * 4 > total, "{below} of {total} arguments below 120");
    }

    /// Counts the inputs in `range` on which each comparison fails: every
    /// copy of the lanes against the reference, and the reference against
    /// libm when `libm` is set.
    fn mismatches(f: Trig, range: std::ops::Range<u64>, libm: bool, counts: &[AtomicU64]) {
        const BATCH: u64 = 1 << 12;
        let mut start = range.start;
        while start < range.end {
            let end = range.end.min(start + BATCH);
            let values: Vec<f32> = (start..end).map(|b| f32::from_bits(b as u32)).collect();
            let expected: Vec<f32> = values.iter().map(|&y| reference(f, y)).collect();
            for (slot, (_, got)) in lane_copies(f, &values).into_iter().enumerate() {
                let bad = got.iter().zip(&expected).filter(|(&g, &e)| !same(g, e));
                counts[slot].fetch_add(bad.count() as u64, Ordering::Relaxed);
            }
            if libm {
                let bad = values
                    .iter()
                    .zip(&expected)
                    .filter(|(&y, &e)| !same(e, f.libm(y)));
                counts[2].fetch_add(bad.count() as u64, Ordering::Relaxed);
            }
            start = end;
        }
    }

    #[test]
    #[ignore = "walks all 2^32 inputs of both functions; run with --release -- --ignored"]
    fn lanes_equal_the_reference_and_libm_on_every_input() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let libm = libm_is_the_fma_build();
        let names = ["lanes (portable)", "lanes (avx512)", "reference vs libm"];
        let mut failed = false;
        for f in [Trig::Sin, Trig::Cos] {
            let started = Instant::now();
            let counts: Vec<AtomicU64> = names.iter().map(|_| AtomicU64::new(0)).collect();
            let total = 1u64 << 32;
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let counts = &counts;
                    scope.spawn(move || {
                        mismatches(
                            f,
                            total * t / threads..total * (t + 1) / threads,
                            libm,
                            counts,
                        )
                    });
                }
            });
            let ran = [true, has_avx512(), libm];
            for ((name, count), ran) in names.iter().zip(&counts).zip(ran) {
                let count = count.load(Ordering::Relaxed);
                if ran {
                    println!("{f:?}: {name}: {count} mismatches of {total}");
                    failed |= count > 0;
                } else {
                    println!("{f:?}: {name}: skipped on this host");
                }
            }
            println!(
                "{f:?}: {:.1} s on {threads} threads",
                started.elapsed().as_secs_f64()
            );
        }
        assert!(!failed, "some comparison found a mismatch");
    }
}
