//! The two transcendentals of the forward pass, owned by this crate.
//!
//! `f32::exp` and `f32::tanh` are whatever the host's libm makes them —
//! `std` documents their last bits as platform- and version-dependent — and
//! every logit, label and golden in the repository sits downstream of them.
//! [`exp`] and [`tanh`] are made of `+ − × ÷`, comparisons that select,
//! and bit casts only, all IEEE-exact, so their bits are a function of this
//! file. They evaluate in `f64` and round once to `f32`: each result is
//! within 1 ulp of the `f64` evaluation rounded once (every one of the 2³²
//! inputs is swept by the `#[ignore]`d tests below), monotone non-decreasing,
//! and straight-line, so the loops that call them vectorise.

/// Adding `1.5 · 2⁵²` rounds a small `f64` to the nearest integer (ties to
/// even) and leaves that integer, two's complement, in the low mantissa bits.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// `ln 2` split for Cody–Waite reduction: `LN2_HI` is its leading 32
/// significant bits, so `k · LN2_HI` is exact for every `|k| < 2²¹`, and
/// `LN2_LO` is the rest (the tests derive both from the series for `ln 2`).
const LN2_HI: f64 = 0.693_147_180_369_123_8;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// `1/n!` for `n = 2..=8`, highest degree first: `eʳ` by Taylor's polynomial,
/// whose remainder on `|r| ≤ ln 2 / 2` is below `2.3e-10`. Each quotient has
/// an exactly representable divisor, so the compiler rounds it once.
const INV_FACTORIAL: [f64; 7] =
    [1.0 / 40320.0, 1.0 / 5040.0, 1.0 / 720.0, 1.0 / 120.0, 1.0 / 24.0, 1.0 / 6.0, 1.0 / 2.0];

/// Inputs beyond these round to `0` and `+inf` in `f32`; clamping to them
/// keeps `k` where `2ᵏ` is a normal `f64`.
const EXP_LO: f64 = -104.0;
const EXP_HI: f64 = 89.0;

/// `eˣ` for `EXP_LO ≤ x ≤ EXP_HI` as `2ᵏ · eʳ`, `k = round(x / ln 2)` and
/// `|r| ≤ ln 2 / 2`. NaN in, NaN out.
#[inline(always)]
fn exp_f64(x: f64) -> f64 {
    let shifted = x * std::f64::consts::LOG2_E + ROUND;
    let k = shifted - ROUND;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let [leading, lower @ ..] = INV_FACTORIAL;
    let tail = lower.iter().fold(leading, |p, c| p * r + c);
    let e_r = 1.0 + r * (1.0 + r * tail);
    // The biased exponent `k + 1023` moved from the low mantissa bits of
    // `shifted` to the exponent field; everything above it shifts out.
    e_r * f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52)
}

/// `eˣ`. Exact at the ends: `exp(0) = 1`, `exp(-inf) = 0`, `exp(inf) = inf`;
/// subnormal results are rounded like any other; NaN in, NaN out.
#[inline]
pub(crate) fn exp(x: f32) -> f32 {
    let x = f64::from(x);
    // Selects, not `f64::clamp` / `max`, so that a NaN passes through.
    let x = if x < EXP_LO { EXP_LO } else { x };
    let x = if x > EXP_HI { EXP_HI } else { x };
    exp_f64(x) as f32
}

/// Below this `tanh(x)` rounds to `x` (`x³/3` is under a third of an ulp),
/// and above it `1 − 2/(e²ˣ + 1)` cancels at most 12 of an `f64`'s 53 bits.
const TANH_IS_X: f64 = 1.0 / 4096.0;
/// From here on (from 9.02, in fact) `tanh` rounds to `1`.
const TANH_IS_ONE: f64 = 10.0;

/// `tanh(x)` through [`exp_f64`]. Odd, so `tanh(±0) = ±0`; `tanh(±inf) =
/// ±1`; NaN in, NaN out.
#[inline]
pub(crate) fn tanh(x: f32) -> f32 {
    let a = f64::from(x.abs());
    let clamped = if a > TANH_IS_ONE { TANH_IS_ONE } else { a };
    let t = 1.0 - 2.0 / (exp_f64(2.0 * clamped) + 1.0);
    let t = if a < TANH_IS_X { a } else { t };
    (t as f32).copysign(x)
}

// The host libm's `exp` / `tanh` are the oracles here, and only here (the
// crate's `clippy.toml` disallows them everywhere else).
#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::parallel::parallel_map;

    /// Distance in representable values, ±0 as one point.
    fn ulps(a: f32, b: f32) -> u64 {
        (ordered(a) - ordered(b)).unsigned_abs()
    }

    /// The index of a non-NaN `f32` in ascending order, `-0 = +0 = 0`.
    fn ordered(x: f32) -> i64 {
        let magnitude = i64::from(x.to_bits() & 0x7fff_ffff);
        if x.is_sign_negative() {
            -magnitude
        } else {
            magnitude
        }
    }

    /// Every bit pattern of `f32`, in 4096 chunks of 2²⁰ across the cores:
    /// `ours` is within 1 ulp of `reference` (the `f64` libm result rounded
    /// once — `std`'s `f32` functions are themselves up to 2 ulp from it),
    /// NaN exactly where the input is, and non-decreasing from each input
    /// to its neighbour of the same sign. Returns the worst distance seen.
    fn sweep(ours: fn(f32) -> f32, reference: fn(f64) -> f64) -> u64 {
        const CHUNK: u32 = 1 << 20;
        let worst = parallel_map(1 << 12, |chunk| {
            let first = chunk as u32 * CHUNK;
            let mut worst = 0;
            let mut prev = None;
            // One pattern into the next chunk, so no neighbouring pair of
            // one sign is left unchecked.
            for bits in first..=first.saturating_add(CHUNK) {
                let x = f32::from_bits(bits);
                let y = ours(x);
                if x.is_nan() {
                    assert!(y.is_nan(), "{x:?} (bits {bits:#x}) gave {y:?}");
                    prev = None;
                    continue;
                }
                let want = reference(f64::from(x)) as f32;
                assert!(!y.is_nan(), "{x:?} gave NaN");
                let off = ulps(y, want);
                assert!(off <= 1, "{x:?}: {y:?} is {off} ulp from {want:?}");
                worst = worst.max(off);
                // Ascending bits are ascending magnitudes: upwards for
                // positive inputs, downwards for negative ones.
                if let Some((px, py)) = prev {
                    if x.is_sign_negative() == f32::is_sign_negative(px) {
                        let ordered_ok = if x.is_sign_negative() { y <= py } else { y >= py };
                        assert!(ordered_ok, "not monotone: f({px:?}) = {py:?}, f({x:?}) = {y:?}");
                    }
                }
                prev = Some((x, y));
            }
            worst
        });
        worst.into_iter().max().expect("chunks")
    }

    #[test]
    #[ignore = "2^32 inputs: a few minutes under --release, run in CI"]
    fn exp_is_within_one_ulp_and_monotone_on_every_f32() {
        assert!(sweep(exp, f64::exp) <= 1);
    }

    #[test]
    #[ignore = "2^32 inputs: a few minutes under --release, run in CI"]
    fn tanh_is_within_one_ulp_odd_and_monotone_on_every_f32() {
        assert!(sweep(tanh, f64::tanh) <= 1);
        // Odd by construction; a strided pass over the magnitudes says so.
        for bits in (0..=0x7f80_0000u32).step_by(257) {
            let x = f32::from_bits(bits);
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "{x:?}");
        }
    }

    #[test]
    fn special_values_are_exact() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(89.0), f32::INFINITY);
        assert_eq!(exp(-104.0), 0.0);
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(9.5), 1.0);
        assert!(tanh(f32::NAN).is_nan());
        assert!(tanh(-f32::NAN).is_nan());
    }

    /// The default-run share of the sweeps: a prime stride over every
    /// exponent, plus the neighbourhoods where a branch or a clamp changes.
    #[test]
    fn strided_inputs_are_within_one_ulp_of_the_f64_evaluation() {
        let edges = [0.0f32, 1.0 / 4096.0, 0.173, 0.346_573_6, 9.02, 10.0, 88.722_84, 103.972];
        let near_edges = edges.iter().flat_map(|&e| {
            (-64i32..=64).map(move |step| f32::from_bits((e.to_bits() as i32 + step) as u32))
        });
        let strided = (0..=0x7f80_0000u32).step_by(104_729).map(f32::from_bits);
        for x in near_edges.chain(strided).filter(|x| !x.is_nan()).flat_map(|x| [x, -x]) {
            let (e, t) = (f64::from(x).exp() as f32, f64::from(x).tanh() as f32);
            assert!(ulps(exp(x), e) <= 1, "exp({x:?}) = {:?}, f64 says {e:?}", exp(x));
            assert!(ulps(tanh(x), t) <= 1, "tanh({x:?}) = {:?}, f64 says {t:?}", tanh(x));
        }
    }

    /// `ln 2 = Σ 1/(n·2ⁿ)` in 2⁻¹²⁰ fixed point: `LN2_HI` is its first 32
    /// significant bits exactly, `LN2_LO` the remainder rounded to `f64`.
    #[test]
    fn reduction_constants_are_ln2_split_in_two() {
        let ln2: u128 = (1..=120u32).map(|n| ((1u128 << 120) / u128::from(n)) >> n).sum();
        // ln 2 is in [1/2, 1): its leading bit is bit 119.
        let hi = ln2 >> 88 << 88;
        let scale = (2.0f64).powi(-120);
        assert_eq!(LN2_HI, hi as f64 * scale);
        assert_eq!(LN2_HI.to_bits().trailing_zeros(), 21, "k · LN2_HI must be exact");
        let lo = (ln2 - hi) as f64 * scale;
        assert!((LN2_LO - lo).abs() <= lo * 1e-15, "{LN2_LO:e} vs {lo:e}");
        assert_eq!(LN2_HI + LN2_LO, std::f64::consts::LN_2);
    }
}
