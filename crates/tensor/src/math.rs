//! The program's transcendentals, owned by this crate.
//!
//! `std`'s `f32` and `f64` transcendentals are whatever the host's libm makes
//! them — `std` documents their last bits as platform- and version-dependent —
//! and every weight, dataset, logit, label and golden in the repository sits
//! downstream of the five below. Their bits are a function of this file.
//!
//! **The forward pass's two.** `exp` and `tanh` (crate-private) are made of
//! `+ − × ÷`, comparisons that select, and bit casts only, all IEEE-exact.
//! They evaluate in `f64` and round once to `f32`: each result is within
//! 1 ulp of the `f64` evaluation rounded once (every one of the 2³² inputs is
//! swept by the `#[ignore]`d tests below), monotone non-decreasing, and
//! straight-line, so the loops that call them vectorise.
//!
//! **Set-up's three.** [`ln`], [`sin_cos`] (the Box–Muller draws of
//! [`Rng::next_gaussian`](crate::Rng::next_gaussian), and the Gaussian
//! outlier fit's normaliser) and [`powf`] (the token skew of the synthetic
//! datasets) replicate the algorithms the program's draws were made with
//! before the repository owned them: Arm's optimized-routines `logf`,
//! `powf` and `sincosf` (<https://github.com/ARM-software/optimized-routines>,
//! MIT OR Apache-2.0 WITH LLVM-exception; glibc ships them since 2.28). Each
//! is table-driven and evaluated in `f64` with plain `+ − ×`, bit casts and
//! integer arithmetic — no `mul_add`, `floor`, `round` or `trunc`, each of
//! which is a libm call itself on an x86-64 target without FMA or SSE4.1 —
//! and rounded once to `f32`. Their tables and polynomial coefficients are
//! copied bit for bit from Debian glibc 2.36's x86-64 `libm.so.6`, from the
//! data its FMA builds read (`__logf_data`, `__powf_log2_data`,
//! `__exp2f_data`, `__sincosf_table` and `__inv_pio4`, at `0xadea0`,
//! `0xae0e0`, `0xadd40`, `0xae280` and `0xae220` in that file). The FMA
//! builds fuse a product and a sum in several steps. The two reductions
//! (`z/c − 1` of `ln` and `powf`, `x − n·π/2` of `sin_cos`) are rounded once
//! here too, exactly, by splitting a constant so that each partial product
//! and difference is exact; the polynomials are evaluated unfused, and no
//! input has been found where that moves an `f32` result. The `#[ignore]`d
//! host sweeps below pin `ln` and `sin_cos` equal to that libm on all 2³²
//! inputs and `powf` on every token draw; the default suite pins each
//! replica's bits over the program's domain by a checked-in FNV-1a digest,
//! which holds on any host.
//!
//! [`round`] and [`ceil`] are here for the same reason: `f64::round` and
//! `f64::ceil` are libm calls on such a target too.

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

/// Below `2⁵²` an `f64` may have a fraction; from there on it is an integer.
const INTEGRAL_FROM: f64 = 4_503_599_627_370_496.0;

/// `x` rounded to the nearest integer, ties away from zero: `f64::round`'s
/// result, bit for bit, on every input.
#[inline]
pub fn round(x: f64) -> f64 {
    // A NaN, an infinity or an integer past 2⁵² is its own result.
    if x.abs() >= INTEGRAL_FROM || x.is_nan() {
        return x;
    }
    // Both exact below 2⁵²: the conversion truncates, the difference is the
    // fraction.
    let t = x as i64 as f64;
    let frac = x - t;
    let r = if frac >= 0.5 {
        t + 1.0
    } else if frac <= -0.5 {
        t - 1.0
    } else {
        t
    };
    r.copysign(x)
}

/// The least integer not below `x`: `f64::ceil`'s result, bit for bit, on
/// every input.
#[inline]
pub fn ceil(x: f64) -> f64 {
    if x.abs() >= INTEGRAL_FROM || x.is_nan() {
        return x;
    }
    let t = x as i64 as f64;
    let r = if x > t { t + 1.0 } else { t };
    r.copysign(x)
}

/// Builds an `f64` table from its bit patterns.
const fn from_bits<const N: usize>(bits: [u64; N]) -> [f64; N] {
    let mut out = [0.0; N];
    let mut i = 0;
    while i < N {
        out[i] = f64::from_bits(bits[i]);
        i += 1;
    }
    out
}

/// `logf`'s and `powf`'s reduction `x = 2ᵏ · z`: `z`'s bits lie in
/// `[LOG_OFF, LOG_OFF + 2²³)` (`z` in about `[0.7, 1.4)`), and the top four
/// bits of `z − LOG_OFF`'s mantissa pick one of 16 subintervals.
const LOG_OFF: u32 = 0x3f33_0000;
/// Per subinterval with centre `c`, as bits: `1/c` and `ln c`
/// (`__logf_data`), and `log₂ c` (`__powf_log2_data`, whose `1/c` column is
/// the same).
const LOG_TABLE: [[u64; 3]; 16] = [
    [0x3ff6_61ec_79f8_f3be, 0xbfd5_7bf7_808c_aade, 0xbfde_fec6_5b96_3019],
    [0x3ff5_71ed_4aaf_883d, 0xbfd2_bef0_a7c0_6ddb, 0xbfdb_0b68_32d4_fca4],
    [0x3ff4_9539_f0f0_10b0, 0xbfd0_1eae_7f51_3a67, 0xbfd7_418b_0a1f_b77b],
    [0x3ff3_c995_b0b8_0385, 0xbfcb_31d8_a682_24e9, 0xbfd3_9de9_1a6d_cf7b],
    [0x3ff3_0d19_0c88_64a5, 0xbfc6_574f_0ac0_7758, 0xbfd0_1d9b_f3f2_b631],
    [0x3ff2_5e22_7b0b_8ea0, 0xbfc1_aa2b_c79c_8100, 0xbfc9_7c1d_1b3b_7af0],
    [0x3ff1_bb4a_4a1a_343f, 0xbfba_4e76_ce8c_0e5e, 0xbfc2_f9e3_93af_3c9f],
    [0x3ff1_2358_f08a_e5ba, 0xbfb1_973c_5a61_1ccc, 0xbfb9_60cb_bf78_8d5c],
    [0x3ff0_953f_4199_00a7, 0xbfa2_52f4_38e1_0c1e, 0xbfaa_6f9d_b647_5fce],
    [0x3ff0_0000_0000_0000, 0x0000_0000_0000_0000, 0x0000_0000_0000_0000],
    [0x3fee_608c_fd9a_47ac, 0x3faa_a5aa_5df2_5984, 0x3fb3_38ca_9f24_f53d],
    [0x3fec_a4b3_1f02_6aa0, 0x3fbc_5e53_aa36_2eb4, 0x3fc4_76a9_5438_91ba],
    [0x3feb_2036_576a_fce6, 0x3fc5_26e5_7720_db08, 0x3fce_840b_4ac4_e4d2],
    [0x3fe9_c2d1_63a1_aa2d, 0x3fcb_c286_0d22_4770, 0x3fd4_0645_f0c6_651c],
    [0x3fe8_86e6_0378_41ed, 0x3fd1_058b_c8a0_7ee1, 0x3fd8_8e9c_2c1b_9ff8],
    [0x3fe7_67dc_f553_4862, 0x3fd4_0430_57b6_ee09, 0x3fdc_e0a4_4eb1_7bcc],
];
/// `ln(1 + r) ≈ r + A₂r² + A₁r³ + A₀r⁴` (`__logf_data`).
const LN_POLY: [f64; 3] =
    from_bits([0xbfd0_0ea3_48b8_8334, 0x3fd5_575b_0be0_0b6a, 0xbfdf_fffe_f20a_4123]);
/// `log₂(1 + r) ≈ A₄r + A₃r² + A₂r³ + A₁r⁴ + A₀r⁵` (`__powf_log2_data`).
#[rustfmt::skip]
const LOG2_POLY: [f64; 5] = from_bits([
    0x3fd2_7616_c949_6e0b, 0xbfd7_1969_a075_c67a, 0x3fde_c70a_6ca7_badd,
    0xbfe7_1547_48be_f6c8, 0x3ff7_1547_652a_b82b,
]);

/// The shared reduction of `ln` and `log₂` for the bits `ix` of a positive
/// normal `x` (or of a subnormal one rescaled, its exponent field gone
/// negative): the exponent `k`, `r = z/c − 1` and the subinterval's row of
/// [`LOG_TABLE`].
#[inline(always)]
fn log_reduce(ix: u32) -> (f64, f64, [u64; 3]) {
    let tmp = ix.wrapping_sub(LOG_OFF);
    let row = LOG_TABLE[((tmp >> 19) & 15) as usize];
    let top = tmp & 0xff80_0000;
    let k = f64::from(top as i32 >> 23);
    let z = f64::from(f32::from_bits(ix.wrapping_sub(top)));
    // z/c − 1 rounded once, as the fused multiply-subtract of the FMA build
    // rounds it: `1/c` in a 29-bit head and the rest, so both products with
    // the 24-bit `z` are exact, and the head's product is within a factor of 2
    // of 1, so subtracting 1 is exact too.
    let inv_c_hi = f64::from_bits(row[0] & !0xff_ffff);
    let inv_c_lo = f64::from_bits(row[0]) - inv_c_hi;
    (k, (z * inv_c_hi - 1.0) + z * inv_c_lo, row)
}

/// `ln x`: optimized-routines' `logf`. `ln(±0) = −inf`, `ln(inf) = inf`;
/// a negative input or NaN gives NaN.
pub fn ln(x: f32) -> f32 {
    let mut ix = x.to_bits();
    if ix.wrapping_sub(0x0080_0000) >= 0x7f80_0000 - 0x0080_0000 {
        // Zero, subnormal, negative, infinite or NaN.
        if ix << 1 == 0 {
            return f32::NEG_INFINITY;
        }
        if ix == 0x7f80_0000 {
            return x;
        }
        if ix >> 31 != 0 || ix << 1 >= 0xff00_0000 {
            return f32::NAN;
        }
        // Subnormal: scaled into the normals, its exponent field 23 lower.
        ix = (x * 8_388_608.0).to_bits().wrapping_sub(23 << 23);
    }
    let (k, r, [_, ln_c, _]) = log_reduce(ix);
    let [a0, a1, a2] = LN_POLY;
    let y0 = f64::from_bits(ln_c) + k * std::f64::consts::LN_2;
    let r2 = r * r;
    let y = a1 * r + a2;
    let y = a0 * r2 + y;
    (y * r2 + (y0 + r)) as f32
}

/// `2^(j/32)` for `j = 0..32` as bits, less `j << 47`, so that adding
/// `k << 47` for `k ≡ j (mod 32)` multiplies by `2^((k − j)/32)`
/// (`__exp2f_data`).
#[rustfmt::skip]
const EXP2_TABLE: [u64; 32] = [
    0x3ff0_0000_0000_0000, 0x3fef_d9b0_d315_8574, 0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51, 0x3fef_72b8_3c7d_517b, 0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238, 0x3fef_1e9d_f51f_dee1, 0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb, 0x3fee_dea6_4c12_3422, 0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27, 0x3fee_b42b_569d_4f82, 0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585, 0x3fee_a09e_667f_3bcd, 0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187, 0x3fee_a589_994c_ce13, 0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5, 0x3fee_c491_82a3_f090, 0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad, 0x3fee_ff76_f2fb_5e47, 0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069, 0x3fef_5818_dcfb_a487, 0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da, 0x3fef_d076_5b6e_4540,
];
/// `2ʳ ≈ 1 + C₂r + C₁r² + C₀r³` for `|r| ≤ 1/64` (`__exp2f_data`).
const EXP2_POLY: [f64; 3] =
    from_bits([0x3fac_6af8_4b91_2394, 0x3fce_bfce_50fa_c4f3, 0x3fe6_2e42_ff0c_52d6]);
/// Added to the count of 32nds before its shift left by 47, this lands on
/// bit 63: the sign of the result.
const POWF_NEGATE: u64 = 1 << 16;

/// Adding `1.5 · 2⁴⁷` rounds a small `f64` to a multiple of 1/32 and leaves
/// it, in 32nds, in the low mantissa bits.
const EXP2_SHIFT: f64 = ROUND / 32.0;

/// `2^xd`, negated when `sign_bias` is [`POWF_NEGATE`], rounded once to
/// `f32`, for `xd` in `(−150, 128)`.
#[inline(always)]
fn exp2(xd: f64, sign_bias: u64) -> f32 {
    let kd = xd + EXP2_SHIFT;
    let ki = kd.to_bits();
    let r = xd - (kd - EXP2_SHIFT);
    let t = EXP2_TABLE[(ki % 32) as usize].wrapping_add(ki.wrapping_add(sign_bias) << 47);
    let s = f64::from_bits(t);
    let [c0, c1, c2] = EXP2_POLY;
    let z = c0 * r + c1;
    let r2 = r * r;
    let y = c2 * r + 1.0;
    let y = z * r2 + y;
    (y * s) as f32
}

/// `|y · log₂ x|` from here on takes `powf` out of the normal range.
const POWF_OVERFLOW: f64 = f64::from_bits(0x405f_ffff_ffd1_d571);

/// Whether the bits `i` are a zero, an infinity or a NaN.
fn zero_inf_nan(i: u32) -> bool {
    (i << 1).wrapping_sub(1) >= 0xff00_0000 - 1
}

/// For the bits of a nonzero finite `y`: `None` if `y` is not an integer,
/// else whether it is odd.
fn odd_integer(iy: u32) -> Option<bool> {
    let e = (iy >> 23) & 0xff;
    if e < 0x7f {
        return None;
    }
    if e > 0x7f + 23 {
        return Some(false);
    }
    let unit = 1 << (0x7f + 23 - e);
    if iy & (unit - 1) != 0 {
        None
    } else {
        Some(iy & unit != 0)
    }
}

/// `x^y`: optimized-routines' `powf`, computed as `2^(y · log₂ x)`.
/// `x⁰ = 1⁰ = 1` even for a NaN; a negative `x` takes an integer `y` (its
/// sign from `y`'s parity) and gives NaN for any other; overflow is `±inf`
/// and underflow `±0`.
pub fn powf(x: f32, y: f32) -> f32 {
    let mut ix = x.to_bits();
    let iy = y.to_bits();
    let mut sign_bias = 0;
    if ix.wrapping_sub(0x0080_0000) >= 0x7f80_0000 - 0x0080_0000 || zero_inf_nan(iy) {
        // x is zero, subnormal, negative, infinite or NaN, or y is zero,
        // infinite or NaN.
        if zero_inf_nan(iy) {
            if iy << 1 == 0 || ix == 0x3f80_0000 {
                return 1.0;
            }
            if ix << 1 > 0xff00_0000 || iy << 1 > 0xff00_0000 {
                return x + y;
            }
            if ix << 1 == 0x7f00_0000 {
                return 1.0;
            }
            // |x| < 1 and y = inf, or |x| > 1 and y = −inf.
            if (ix << 1 < 0x7f00_0000) == (iy >> 31 == 0) {
                return 0.0;
            }
            return y * y;
        }
        if zero_inf_nan(ix) {
            let x2 = x * x;
            let x2 = if ix >> 31 != 0 && odd_integer(iy) == Some(true) { -x2 } else { x2 };
            return if iy >> 31 != 0 { 1.0 / x2 } else { x2 };
        }
        // x and y are nonzero and finite.
        if ix >> 31 != 0 {
            match odd_integer(iy) {
                None => return f32::NAN,
                Some(true) => sign_bias = POWF_NEGATE,
                Some(false) => {}
            }
            ix &= 0x7fff_ffff;
        }
        if ix < 0x0080_0000 {
            // Subnormal: scaled into the normals, its exponent field 23 lower.
            ix = ((x * 8_388_608.0).to_bits() & 0x7fff_ffff).wrapping_sub(23 << 23);
        }
    }
    let (k, r, [.., log2_c]) = log_reduce(ix);
    let [a0, a1, a2, a3, a4] = LOG2_POLY;
    let y0 = f64::from_bits(log2_c) + k;
    let r2 = r * r;
    let p = a0 * r + a1;
    let q = a2 * r + a3;
    let r4 = r2 * r2;
    let q = q * r2 + (a4 * r + y0);
    let log2_x = p * r4 + q;
    let ylogx = f64::from(y) * log2_x;
    if ((ylogx.to_bits() >> 47) & 0xffff) >= (126f64.to_bits() >> 47) {
        // |y · log₂ x| ≥ 126: near or past either end of the range.
        let negative = sign_bias != 0;
        let signed = |v: f32| if negative { -v } else { v };
        if ylogx > POWF_OVERFLOW {
            return signed(f32::INFINITY);
        }
        if ylogx <= -150.0 {
            return signed(0.0);
        }
        if ylogx < -149.0 {
            return signed(f32::from_bits(1));
        }
    }
    exp2(ylogx, sign_bias)
}

/// `2/π · 2²⁴`: the quadrant of `|x| < 120` lands in bits 24 and up.
const FRAC_2_PI_SCALED: f64 = std::f64::consts::FRAC_2_PI * 16_777_216.0;
/// `π/2` split in two: `FRAC_PI_2_HI` is its leading 26 significant bits,
/// so `n · FRAC_PI_2_HI` and `n · FRAC_PI_2_LO` are both exact for every
/// quadrant `|n| < 2⁷`.
const FRAC_PI_2_HI: f64 = f64::from_bits(std::f64::consts::FRAC_PI_2.to_bits() & !0x7ff_ffff);
const FRAC_PI_2_LO: f64 = std::f64::consts::FRAC_PI_2 - FRAC_PI_2_HI;
/// `π/2 · 2⁻⁶²`: a fraction of a quarter turn in 2⁻⁶² fixed point, to radians.
const FRAC_PI_2_FIXED: f64 = std::f64::consts::FRAC_PI_2 / 4_611_686_018_427_387_904.0;
/// `sin(x) ≈ x + S₀x³ + S₁x⁵ + S₂x⁷` on `|x| ≤ π/4` (`__sincosf_table`).
const SIN_POLY: [f64; 3] =
    from_bits([0xbfc5_5554_5995_a603, 0x3f81_1076_0523_0bc4, 0xbf29_94eb_3774_cf24]);
/// `cos(x) ≈ C₀ + C₁x² + C₂x⁴ + C₃x⁶ + C₄x⁸` on `|x| ≤ π/4`
/// (`__sincosf_table`, whose second row is this one negated).
#[rustfmt::skip]
const COS_POLY: [f64; 5] = from_bits([
    0x3ff0_0000_0000_0000, 0xbfdf_ffff_fd0c_621c, 0x3fa5_5553_e106_8f19,
    0xbf56_c087_e89a_359d, 0x3ef9_9343_027b_f8c3,
]);
/// `4/π` to 192 bits, as 24 sliding 32-bit windows a byte apart
/// (`__inv_pio4`).
#[rustfmt::skip]
const INV_PIO4: [u32; 24] = [
    0x0000_00a2, 0x0000_a2f9, 0x00a2_f983, 0xa2f9_836e, 0xf983_6e4e, 0x836e_4e44,
    0x6e4e_4415, 0x4e44_1529, 0x4415_29fc, 0x1529_fc27, 0x29fc_2757, 0xfc27_57d1,
    0x2757_d1f5, 0x57d1_f534, 0xd1f5_34dd, 0xf534_ddc0, 0x34dd_c0db, 0xddc0_db62,
    0xc0db_6295, 0xdb62_9599, 0x6295_993c, 0x9599_3c43, 0x993c_4390, 0x3c43_9041,
];

/// `(sin x, cos x)` for `|x| ≤ π/4` and `x2 = x²`, handed out for quadrant
/// `n`: an odd quadrant swaps the two, and `negate_cos` (the second row of
/// `__sincosf_table`) negates the cosine polynomial, which is exact.
#[inline(always)]
fn sin_cos_poly(x: f64, x2: f64, n: u32, negate_cos: bool) -> (f32, f32) {
    let [s0, s1, s2] = SIN_POLY;
    let [c0, c1, c2, c3, c4] = COS_POLY;
    let x4 = x2 * x2;
    let x3 = x2 * x;
    let c_hi = c3 + x2 * c4;
    let s_hi = s1 + x2 * s2;
    let c_lo = c0 + x2 * c1;
    let x5 = x3 * x2;
    let x6 = x4 * x2;
    let s = x + x3 * s0;
    let c = c_lo + x4 * c2;
    let sin = (s + x5 * s_hi) as f32;
    let cos = (c + x6 * c_hi) as f32;
    let cos = if negate_cos { -cos } else { cos };
    if n & 1 == 0 {
        (sin, cos)
    } else {
        (cos, sin)
    }
}

/// The sign of the sine polynomial per quadrant.
const QUADRANT_SIGN: [f64; 4] = [1.0, -1.0, -1.0, 1.0];

/// `(sin y, cos y)`: optimized-routines' `sincosf`. Exact for `|y| < 2⁻¹²`
/// (`sin y = y`, `cos y = 1`); an infinity or a NaN gives NaN for both.
pub fn sin_cos(y: f32) -> (f32, f32) {
    let x = f64::from(y);
    // The top 12 bits of `|y|`, compared with those of π/4, 2⁻¹², 120 and
    // infinity.
    let top = (y.to_bits() >> 20) & 0x7ff;
    if top < 0x3f4 {
        if top < 0x398 {
            return (y, 1.0);
        }
        return sin_cos_poly(x, x * x, 0, false);
    }
    if top < 0x42f {
        // x − n·π/2, n the nearest quadrant, rounded once as the fused
        // multiply-subtract of the FMA build rounds it: `x − n · FRAC_PI_2_HI`
        // is exact (the two are within a factor of 2), and so is the product
        // taken from it.
        let n = ((x * FRAC_2_PI_SCALED) as i32 + 0x80_0000) >> 24;
        let x = (x - f64::from(n) * FRAC_PI_2_HI) - f64::from(n) * FRAC_PI_2_LO;
        let n = n as u32;
        return sin_cos_poly(x * QUADRANT_SIGN[(n & 3) as usize], x * x, n, n & 2 != 0);
    }
    if top < 0x7f8 {
        // Payne–Hanek: the fraction of |y| · 4/π in 2⁻⁶² fixed point.
        let iy = y.to_bits();
        let window = &INV_PIO4[((iy >> 26) & 15) as usize..];
        let m = ((iy & 0x7f_ffff) | 0x80_0000) << ((iy >> 23) & 7);
        let lo = u64::from(m.wrapping_mul(window[0])) << 32;
        let mid = u64::from(m) * u64::from(window[4]);
        let hi = u64::from(m) * u64::from(window[8]);
        let frac = ((hi >> 32) | lo).wrapping_add(mid);
        let n = frac.wrapping_add(1 << 61) >> 62;
        let frac = frac.wrapping_sub(n << 62) as i64 as f64;
        let x = frac * FRAC_PI_2_FIXED;
        let quadrant = (n as u32 + (iy >> 31)) & 3;
        let n = n as u32;
        return sin_cos_poly(x * QUADRANT_SIGN[quadrant as usize], x * x, n, quadrant & 2 != 0);
    }
    (f32::NAN, f32::NAN)
}

// The host libm's `exp`, `tanh`, `ln`, `sin`, `cos`, `powf`, `round` and
// `ceil` are the oracles here, and only here (the crate's `clippy.toml`
// disallows them everywhere else).
#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::parallel::parallel_map;
    use std::hint::black_box;

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

    /// The constants spelled through `std` or through each other are the
    /// bits of the libm data they stand for.
    #[test]
    fn spelled_constants_are_the_libm_bits() {
        assert_eq!(std::f64::consts::LN_2.to_bits(), 0x3fe6_2e42_fefa_39ef, "__logf_data.ln2");
        assert_eq!(EXP2_SHIFT.to_bits(), 0x42e8_0000_0000_0000, "__exp2f_data.shift_scaled");
        assert_eq!(FRAC_2_PI_SCALED.to_bits(), 0x4164_5f30_6dc9_c883, "__sincosf_table hpi_inv");
        assert_eq!(std::f64::consts::FRAC_PI_2.to_bits(), 0x3ff9_21fb_5444_2d18, "hpi");
        assert_eq!(FRAC_PI_2_FIXED.to_bits(), 0x3c19_21fb_5444_2d18, "sincosf's pi63");
        // The split halves of π/2: 26 and at most 27 significant bits.
        assert_eq!(FRAC_PI_2_HI + FRAC_PI_2_LO, std::f64::consts::FRAC_PI_2);
        assert!(FRAC_PI_2_HI.to_bits().trailing_zeros() >= 27);
        assert!(FRAC_PI_2_LO.abs() < FRAC_PI_2_HI * f64::EPSILON * f64::from(1 << 27));
    }

    #[test]
    fn set_ups_special_values_are_exact() {
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits();
        assert!(same(ln(1.0), 0.0));
        assert_eq!(ln(0.0), f32::NEG_INFINITY);
        assert_eq!(ln(-0.0), f32::NEG_INFINITY);
        assert_eq!(ln(f32::INFINITY), f32::INFINITY);
        for x in [-1.0, f32::NEG_INFINITY, f32::NAN, -f32::NAN, -1e-45] {
            assert!(ln(x).is_nan(), "ln({x:?})");
        }
        assert_eq!(ln(f32::from_bits(1)), -103.278_93);
        assert_eq!(powf(f32::NAN, 0.0), 1.0);
        assert_eq!(powf(1.0, f32::NAN), 1.0);
        assert!(powf(2.0, f32::NAN).is_nan() && powf(f32::NAN, 2.0).is_nan());
        assert_eq!(powf(-1.0, f32::INFINITY), 1.0);
        assert!(same(powf(0.5, f32::INFINITY), 0.0) && same(powf(2.0, f32::NEG_INFINITY), 0.0));
        assert_eq!(powf(2.0, f32::INFINITY), f32::INFINITY);
        assert_eq!(powf(0.0, -1.0), f32::INFINITY);
        assert_eq!(powf(-0.0, -1.0), f32::NEG_INFINITY);
        assert!(same(powf(-0.0, 3.0), -0.0) && same(powf(-0.0, 2.0), 0.0));
        assert_eq!(powf(f32::NEG_INFINITY, 3.0), f32::NEG_INFINITY);
        assert_eq!(powf(-2.0, 3.0), -8.0);
        assert_eq!(powf(-2.0, 2.0), 4.0);
        assert!(powf(-2.0, 0.5).is_nan());
        assert_eq!(powf(2.0, 128.0), f32::INFINITY);
        assert_eq!(powf(-2.0, 129.0), f32::NEG_INFINITY);
        assert!(same(powf(2.0, -150.0), 0.0) && same(powf(-2.0, -151.0), -0.0));
        assert_eq!(powf(2.0, -149.5), f32::from_bits(1));
        assert_eq!(powf(2.0, -149.0), f32::from_bits(1));
        assert_eq!(powf(f32::from_bits(1), 1.0), f32::from_bits(1));
        let (sin, cos) = sin_cos(-0.0);
        assert!(same(sin, -0.0) && same(cos, 1.0));
        assert_eq!(sin_cos(1e-5), (1e-5, 1.0));
        for x in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let (sin, cos) = sin_cos(x);
            assert!(sin.is_nan() && cos.is_nan(), "sin_cos({x:?})");
        }
    }

    /// Every branch of the three, the Payne–Hanek reduction and the powf
    /// special cases included, within 1 ulp of the `f64` evaluation rounded
    /// once: a prime stride over every exponent, both signs.
    #[test]
    fn set_ups_strided_inputs_are_within_one_ulp_of_the_f64_evaluation() {
        let strided = (0..0x7f80_0000u32).step_by(104_729).map(f32::from_bits);
        for x in strided.clone() {
            let want = f64::from(x).ln() as f32;
            assert!(ulps(ln(x), want) <= 1, "ln({x:?}) = {:?}, f64 says {want:?}", ln(x));
        }
        for x in strided.clone().flat_map(|x| [x, -x]) {
            let (sin, cos) = sin_cos(x);
            let (s, c) = (f64::from(x).sin() as f32, f64::from(x).cos() as f32);
            assert!(ulps(sin, s) <= 1, "sin({x:?}) = {sin:?}, f64 says {s:?}");
            assert!(ulps(cos, c) <= 1, "cos({x:?}) = {cos:?}, f64 says {c:?}");
        }
        for x in strided.step_by(7) {
            for y in [0.5f32, 1.2, 2.0, 3.0, -1.3, 7.5, -40.0] {
                let want = f64::from(x).powf(f64::from(y)) as f32;
                let got = powf(x, y);
                assert!(ulps(got, want) <= 1, "powf({x:?}, {y:?}) = {got:?}, f64 says {want:?}");
                if y == 3.0 {
                    assert_eq!(powf(-x, y).to_bits(), (-got).to_bits(), "odd y keeps the sign");
                }
            }
        }
    }

    /// `round` and `ceil` against `f64::round` and `f64::ceil`, by bits:
    /// the halves around small integers of both signs and their neighbours,
    /// the ends of the fractional range, and a stride over every pattern.
    #[test]
    fn round_and_ceil_equal_std_by_bits() {
        let halves = (-64i32..=64).flat_map(|n| {
            let half = f64::from(n) + 0.5;
            [f64::from(n), half.next_down(), half, half.next_up()]
        });
        let ends = [
            0.0,
            0.499_999_999_999_999_94,
            INTEGRAL_FROM - 0.5,
            INTEGRAL_FROM,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        let strided = (0..=u64::MAX).step_by((1 << 44) + 1).map(f64::from_bits);
        for x in halves.chain(ends.into_iter().flat_map(|x| [x, -x])).chain(strided) {
            let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
            assert!(same(round(x), x.round()), "round({x:?}) = {:?}", round(x));
            assert!(same(ceil(x), x.ceil()), "ceil({x:?}) = {:?}", ceil(x));
        }
    }

    /// `Rng::next_f32`'s 2²⁴ values, in ascending order.
    fn next_f32_grid() -> impl Iterator<Item = f32> {
        (0..1u32 << 24).map(|k| k as f32 * (1.0 / (1u64 << 24) as f32))
    }

    /// What `Rng::next_gaussian` takes the logarithm of: the grid, with 0
    /// clamped to `1e-12`.
    fn box_muller_radii() -> impl Iterator<Item = f32> {
        next_f32_grid().map(|u| if u < 1e-12 { 1e-12 } else { u })
    }

    /// The angles `Rng::next_gaussian` takes the sine and cosine of.
    fn box_muller_angles() -> impl Iterator<Item = f32> {
        next_f32_grid().map(|u| 2.0 * std::f32::consts::PI * u)
    }

    /// The synthetic tasks' token skews (`TaskKind::token_skew`).
    const TOKEN_SKEWS: [f32; 4] = [1.2, 1.3, 1.6, 2.0];

    /// Every `(u, skew)` the token draws raise: the grid under each skew.
    fn token_draws() -> impl Iterator<Item = (f32, f32)> {
        TOKEN_SKEWS.into_iter().flat_map(|skew| next_f32_grid().map(move |u| (u, skew)))
    }

    /// 64-bit FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: impl Iterator<Item = u32>) -> u64 {
        words
            .flat_map(u32::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    // The replicas' output bits over the program's domains, which are those
    // of the host libm they replaced (the `#[ignore]`d sweeps below say so).
    // A change that moves any of them moves a synthetic weight or dataset.

    #[test]
    fn ln_bits_on_the_box_muller_radii_are_pinned() {
        assert_eq!(fnv1a(box_muller_radii().map(|u| ln(u).to_bits())), 0xc80c_5616_1438_8760);
    }

    #[test]
    fn sin_cos_bits_on_the_box_muller_angles_are_pinned() {
        let bits = box_muller_angles().flat_map(|t| {
            let (sin, cos) = sin_cos(t);
            [sin.to_bits(), cos.to_bits()]
        });
        assert_eq!(fnv1a(bits), 0x10b8_03ef_4d07_34d2);
    }

    #[test]
    fn powf_bits_on_the_token_draws_are_pinned() {
        assert_eq!(
            fnv1a(token_draws().map(|(u, skew)| powf(u, skew).to_bits())),
            0xe9b9_aca9_fbbb_953d
        );
    }

    /// Counts the inputs among `inputs` on which `ours` and `host` differ
    /// (NaN equals NaN whatever its bits), and returns the count and the
    /// first such input.
    fn mismatches<I: Copy + std::fmt::Debug>(
        inputs: impl Iterator<Item = I>,
        ours: impl Fn(I) -> [f32; 2],
        host: impl Fn(I) -> [f32; 2],
    ) -> (usize, Option<I>) {
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        inputs.fold((0, None), |(n, first), i| {
            let ([a0, a1], [b0, b1]) = (ours(i), host(i));
            if same(a0, b0) && same(a1, b1) {
                (n, first)
            } else {
                (n + 1, first.or(Some(i)))
            }
        })
    }

    /// [`mismatches`] over every bit pattern of `f32`, in 4096 chunks of
    /// 2²⁰ across the cores.
    fn mismatches_on_every_f32(
        ours: fn(f32) -> [f32; 2],
        host: fn(f32) -> [f32; 2],
    ) -> (usize, Option<f32>) {
        const CHUNK: u32 = 1 << 20;
        let found = parallel_map(1 << 12, |chunk| {
            let first = chunk as u32 * CHUNK;
            mismatches((first..=first + (CHUNK - 1)).map(f32::from_bits), ours, host)
        });
        (found.iter().map(|&(n, _)| n).sum(), found.iter().find_map(|&(_, x)| x))
    }

    #[test]
    #[ignore = "2^32 inputs: under a minute under --release, run in CI"]
    fn ln_equals_the_host_logf_on_every_f32() {
        let (count, first) = mismatches_on_every_f32(|x| [ln(x), 0.0], |x| [x.ln(), 0.0]);
        assert_eq!(count, 0, "{count} inputs differ, the first {first:?}");
    }

    #[test]
    #[ignore = "2^32 inputs: under a minute under --release, run in CI"]
    fn sin_cos_equals_the_host_sin_and_cos_on_every_f32() {
        let (count, first) = mismatches_on_every_f32(|x| sin_cos(x).into(), |x| [x.sin(), x.cos()]);
        assert_eq!(count, 0, "{count} inputs differ, the first {first:?}");
    }

    // `black_box`: with the exponent in sight, the compiler computes
    // `u.powf(2.0)` as `u * u`, whose bits are not the libm's.
    #[test]
    #[ignore = "the host libm is the oracle: run in CI under --release"]
    fn powf_equals_the_host_powf_on_the_token_draws() {
        let (count, first) = mismatches(
            token_draws(),
            |(u, s)| [powf(u, s), 0.0],
            |(u, s)| [u.powf(black_box(s)), 0.0],
        );
        assert_eq!(count, 0, "{count} draws differ, the first {first:?}");
    }
}
