//! Gaussian density, CDF and inverse CDF.
//!
//! The paper's Eq. (5) defines the Gaussian density
//! `Φ_{μ,σ}(x) = exp(-(x-μ)²/(2σ²)) / sqrt(2πσ²)`, which drives both the
//! commonness scores (Definition 3) and the truncated-normal perturbation
//! distribution `R_σ` (Eq. 6), whose inverse-CDF branch needs the
//! normal CDF.

/// `1 / sqrt(2π)`.
pub const FRAC_1_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// Gaussian probability density function with mean `mu` and standard
/// deviation `sigma` (the paper's `Φ_{μ,σ}`, Eq. 5).
///
/// Returns 0 for `sigma <= 0` unless `x == mu`, in which case the density
/// degenerates; callers in this crate never pass `sigma <= 0`.
#[inline]
pub fn norm_pdf(x: f64, mu: f64, sigma: f64) -> f64 {
    debug_assert!(sigma > 0.0, "norm_pdf requires sigma > 0");
    let z = (x - mu) / sigma;
    FRAC_1_SQRT_2PI / sigma * (-0.5 * z * z).exp()
}

/// The standard Gaussian density `φ(z) = Φ_{0,1}(z)`.
#[inline]
pub fn phi(z: f64) -> f64 {
    FRAC_1_SQRT_2PI * (-0.5 * z * z).exp()
}

/// Error function via the Abramowitz & Stegun 7.1.26-style rational
/// approximation refined by W. J. Cody; absolute error below `1.5e-7` is
/// insufficient for our inverse-CDF needs, so we use the higher-precision
/// expansion below (max relative error ~1e-12 on |x| <= 6).
///
/// Implementation: rational Chebyshev approximation from Cody (1969) as
/// popularised in Numerical Recipes' `erfc` with double precision
/// coefficients.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Chebyshev coefficients of `exp(x²)·erfc(x)` used by [`erfc`].
const ERFC_COF: [f64; 28] = [
    -1.3026537197817094,
    6.419_697_923_564_902e-1,
    1.9476473204185836e-2,
    -9.561_514_786_808_63e-3,
    -9.46595344482036e-4,
    3.66839497852761e-4,
    4.2523324806907e-5,
    -2.0278578112534e-5,
    -1.624290004647e-6,
    1.303655835580e-6,
    1.5626441722e-8,
    -8.5238095915e-8,
    6.529054439e-9,
    5.059343495e-9,
    -9.91364156e-10,
    -2.27365122e-10,
    9.6467911e-11,
    2.394038e-12,
    -6.886027e-12,
    8.94487e-13,
    3.13092e-13,
    -1.12708e-13,
    3.81e-16,
    7.106e-15,
    -1.523e-15,
    -9.4e-17,
    1.21e-16,
    -2.8e-17,
];

/// Complementary error function, accurate to roughly 1e-12 in relative
/// terms over the useful range.
#[inline]
pub fn erfc(x: f64) -> f64 {
    // Based on the expansion used by Numerical Recipes (erfc via Chebyshev
    // fitting of exp(x^2) * erfc(x)); symmetric continuation for x < 0.
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    let mut d = 0.0f64;
    let mut dd = 0.0f64;
    for &c in ERFC_COF.iter().rev().take(ERFC_COF.len() - 1) {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    let ans = t * (-z * z + 0.5 * (ERFC_COF[0] + ty * d) - dd).exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal cumulative distribution function `Φ(z) = P(Z <= z)`.
#[inline]
pub fn std_norm_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Normal CDF with mean `mu` and standard deviation `sigma`.
#[inline]
pub fn norm_cdf(x: f64, mu: f64, sigma: f64) -> f64 {
    debug_assert!(sigma > 0.0, "norm_cdf requires sigma > 0");
    std_norm_cdf((x - mu) / sigma)
}

/// Inverse of the standard normal CDF (the probit function), computed with
/// Peter Acklam's rational approximation followed by one step of Halley's
/// method, giving full double precision for `p` in `(0, 1)`.
///
/// Returns `-INFINITY` for `p <= 0` and `INFINITY` for `p >= 1`.
pub fn std_norm_inv_cdf(p: f64) -> f64 {
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }

    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement using the high-precision CDF.
    let e = std_norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Inverse CDF for a normal with mean `mu` and standard deviation `sigma`.
#[inline]
pub fn norm_inv_cdf(p: f64, mu: f64, sigma: f64) -> f64 {
    mu + sigma * std_norm_inv_cdf(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdf_standard_at_zero() {
        assert!((norm_pdf(0.0, 0.0, 1.0) - FRAC_1_SQRT_2PI).abs() < 1e-15);
    }

    #[test]
    fn pdf_is_symmetric() {
        for &x in &[0.1, 0.5, 1.0, 2.3] {
            assert!((norm_pdf(x, 0.0, 1.0) - norm_pdf(-x, 0.0, 1.0)).abs() < 1e-15);
        }
    }

    #[test]
    fn pdf_scales_with_sigma() {
        // Φ_{0,σ}(0) = 1/(σ sqrt(2π)).
        assert!((norm_pdf(0.0, 0.0, 2.0) - FRAC_1_SQRT_2PI / 2.0).abs() < 1e-15);
        assert!((norm_pdf(0.0, 0.0, 0.5) - FRAC_1_SQRT_2PI * 2.0).abs() < 1e-15);
    }

    #[test]
    fn erf_known_values() {
        // Reference values from Abramowitz & Stegun tables.
        assert!((erf(0.0)).abs() < 1e-14);
        assert!((erf(0.5) - 0.520_499_877_813_046_5).abs() < 1e-10);
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-10);
        assert!((erf(2.0) - 0.995_322_265_018_952_7).abs() < 1e-10);
        assert!((erf(-1.0) + 0.842_700_792_949_714_9).abs() < 1e-10);
    }

    #[test]
    fn erfc_complements_erf() {
        for &x in &[-3.0, -1.0, -0.2, 0.0, 0.7, 1.5, 4.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn cdf_known_values() {
        assert!((std_norm_cdf(0.0) - 0.5).abs() < 1e-14);
        assert!((std_norm_cdf(1.0) - 0.841_344_746_068_542_9).abs() < 1e-10);
        assert!((std_norm_cdf(-1.96) - 0.024_997_895_148_220_4).abs() < 1e-9);
        assert!((std_norm_cdf(3.0) - 0.998_650_101_968_369_9).abs() < 1e-10);
    }

    #[test]
    fn cdf_monotone() {
        let mut prev = 0.0;
        let mut x = -8.0;
        while x <= 8.0 {
            let c = std_norm_cdf(x);
            assert!(c >= prev - 1e-15);
            prev = c;
            x += 0.05;
        }
    }

    #[test]
    fn inv_cdf_round_trips() {
        for &p in &[
            1e-10,
            1e-6,
            0.01,
            0.1,
            0.25,
            0.5,
            0.75,
            0.9,
            0.99,
            1.0 - 1e-9,
        ] {
            let z = std_norm_inv_cdf(p);
            let back = std_norm_cdf(z);
            assert!(
                (back - p).abs() < 1e-11 * (1.0 + 1.0 / p.min(1.0 - p)).min(1e4),
                "p={p} z={z} back={back}"
            );
        }
    }

    #[test]
    fn inv_cdf_known_quantiles() {
        assert!((std_norm_inv_cdf(0.5)).abs() < 1e-12);
        assert!((std_norm_inv_cdf(0.975) - 1.959_963_984_540_054).abs() < 1e-9);
        assert!((std_norm_inv_cdf(0.841_344_746_068_542_9) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inv_cdf_extremes() {
        assert_eq!(std_norm_inv_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(std_norm_inv_cdf(1.0), f64::INFINITY);
        assert_eq!(std_norm_inv_cdf(-0.5), f64::NEG_INFINITY);
    }

    #[test]
    fn scaled_inv_cdf() {
        let x = norm_inv_cdf(0.975, 10.0, 2.0);
        assert!((x - (10.0 + 2.0 * 1.959_963_984_540_054)).abs() < 1e-8);
    }
}
