//! Maximum-likelihood fitting of the distributions in [`crate::dist`].
//!
//! Fig. 11 of the paper overlays an Exponentiated-Weibull fit on reaction
//! times; Fig. 12 overlays Exponential fits on accident speeds. The fitters
//! here reproduce those steps:
//!
//! * [`fit_exponential`] — closed-form MLE (`λ = 1 / x̄`).
//! * [`fit_weibull`] — profile likelihood: solve the one-dimensional shape
//!   equation by bisection, then the scale in closed form.
//! * [`fit_exponentiated_weibull`] — three-parameter MLE by a
//!   Levenberg-damped Newton ascent over `θ = (ln k, ln λ, ln α)`, seeded
//!   from the Weibull fit. Each pass over the sample returns the
//!   log-likelihood with its analytic gradient and Hessian
//!   ([`ew_derivatives`]); a step is taken only if the likelihood does not
//!   drop, so the fit converges quadratically near the optimum (5–15
//!   passes on full-scale Fig. 11 samples, against 238–314 simplex
//!   evaluations) and never falls below its seed.
//!
//! The Nelder–Mead simplex fit this replaced survives unchanged as
//! [`spec::fit_exponentiated_weibull`], the executable reference the
//! Newton fit is tested and benchmarked against; no production path
//! reaches it.
//!
//! **Ridge contract.** On small samples the Exponentiated-Weibull
//! likelihood can have no interior maximum: it keeps rising along the
//! `k → ∞, α → 0` ridge (or `k → 0, λ → 0, α → ∞`). The Newton fit then
//! returns the best point it reached inside the parameter box
//! `k ∈ [1e-6, 1e6)`, `λ ∈ [1e-9, 1e9)`, `α ∈ [1e-6, 1e6)` (the simplex
//! fit's box), usually on one of its faces. That result is `Ok` wherever
//! the simplex fit is `Ok`, finite, and never below the likelihood of the
//! Weibull seed.

use crate::dist::{Continuous, Exponential, ExponentiatedWeibull, Weibull};
use crate::optimize::bisect;
use crate::{Result, StatsError};

/// A fitted distribution with its goodness-of-fit summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Fitted<D> {
    /// The fitted distribution.
    pub dist: D,
    /// Maximized log-likelihood.
    pub log_likelihood: f64,
    /// Number of observations used in the fit.
    pub n: usize,
    /// Akaike information criterion, `2k − 2·lnL`.
    pub aic: f64,
}

fn validate_positive_sample(xs: &[f64], min_n: usize) -> Result<()> {
    if xs.len() < min_n {
        return Err(StatsError::InsufficientData {
            required: min_n,
            actual: xs.len(),
        });
    }
    for &x in xs {
        if !x.is_finite() {
            return Err(StatsError::NonFinite);
        }
        if x <= 0.0 {
            return Err(StatsError::OutOfDomain {
                expected: "strictly positive observations",
                value: x,
            });
        }
    }
    Ok(())
}

fn log_likelihood<D: Continuous>(d: &D, xs: &[f64]) -> f64 {
    xs.iter().map(|&x| d.ln_pdf(x)).sum()
}

fn fitted<D: Continuous>(d: D, xs: &[f64], k_params: usize) -> Fitted<D> {
    let ll = log_likelihood(&d, xs);
    Fitted {
        log_likelihood: ll,
        n: xs.len(),
        aic: 2.0 * k_params as f64 - 2.0 * ll,
        dist: d,
    }
}

/// MLE fit of an [`Exponential`]: `λ̂ = 1 / x̄`.
///
/// # Errors
///
/// Returns an error for an empty or non-positive sample.
///
/// # Examples
///
/// ```
/// # use disengage_stats::fit::fit_exponential;
/// # use disengage_stats::dist::Continuous;
/// let f = fit_exponential(&[1.0, 2.0, 3.0]).unwrap();
/// assert!((f.dist.mean() - 2.0).abs() < 1e-12);
/// ```
pub fn fit_exponential(xs: &[f64]) -> Result<Fitted<Exponential>> {
    validate_positive_sample(xs, 1)?;
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let dist = Exponential::with_mean(mean)?;
    Ok(fitted(dist, xs, 1))
}

/// MLE fit of a [`Weibull`] via the profile-likelihood shape equation.
///
/// The shape `k` solves
/// `Σ xᵢᵏ ln xᵢ / Σ xᵢᵏ − 1/k − (1/n) Σ ln xᵢ = 0`,
/// which is monotone in `k`; we bracket and bisect. The scale follows as
/// `λ̂ = (Σ xᵢᵏ / n)^{1/k}`.
///
/// # Errors
///
/// Returns an error for fewer than 2 observations, non-positive values, or
/// a degenerate (all-equal) sample.
pub fn fit_weibull(xs: &[f64]) -> Result<Fitted<Weibull>> {
    validate_positive_sample(xs, 2)?;
    weibull_from_logs(xs, &ln_sample(xs))
}

fn ln_sample(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| x.ln()).collect()
}

/// [`fit_weibull`] on a validated sample with its logs `ln_xs` computed
/// once, not once per shape-equation evaluation.
fn weibull_from_logs(xs: &[f64], ln_xs: &[f64]) -> Result<Fitted<Weibull>> {
    if xs.windows(2).all(|w| w[0] == w[1]) {
        return Err(StatsError::DegenerateSample(
            "all observations identical; weibull shape unbounded",
        ));
    }
    let n = xs.len() as f64;
    let mean_ln: f64 = ln_xs.iter().sum::<f64>() / n;
    // Normalize by the sample maximum so x^k stays finite for large k.
    let x_max = xs.iter().copied().fold(f64::MIN, f64::max);
    let scaled: Vec<f64> = xs.iter().map(|x| x / x_max).collect();
    let g = |k: f64| -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (&s, &lx) in scaled.iter().zip(ln_xs) {
            let w = s.powf(k);
            num += w * lx;
            den += w;
        }
        num / den - 1.0 / k - mean_ln
    };
    // Bracket the root: g is increasing in k; g(k→0⁺) → −∞.
    let mut lo = 1e-3;
    let mut hi = 1.0;
    let mut iter = 0;
    while g(hi) < 0.0 {
        lo = hi;
        hi *= 2.0;
        iter += 1;
        if iter > 60 {
            return Err(StatsError::NoConvergence {
                algorithm: "weibull shape bracketing",
                iterations: iter,
            });
        }
    }
    let shape = bisect(g, lo, hi, 1e-12, 200)?;
    let scale = {
        let s: f64 = scaled.iter().map(|x| x.powf(shape)).sum::<f64>() / n;
        x_max * s.powf(1.0 / shape)
    };
    let dist = Weibull::new(shape, scale)?;
    Ok(fitted(dist, xs, 2))
}

/// MLE fit of an [`ExponentiatedWeibull`] by Levenberg-damped Newton
/// ascent over `θ = (ln k, ln λ, ln α)`, seeded from the plain Weibull fit
/// (`α = 1`).
///
/// Each step solves `(−H + μ·D) δ = g` (`D` the floored `diag|H|`) and is
/// accepted only if the log-likelihood does not drop (then `μ` shrinks
/// ×10, recovering plain Newton steps); a rejected step or an indefinite
/// system grows `μ` ×10. Trial points are projected onto the parameter
/// box. The ascent stops when the largest step component falls below
/// `1e-12`, when an accepted step gains at most `1e-15·(1 + |ℓ|)`, or
/// after 400 passes. See the module docs for the ridge contract.
///
/// # Errors
///
/// Returns an error for fewer than 3 observations, non-positive values, or
/// a failed Weibull seed fit.
pub fn fit_exponentiated_weibull(xs: &[f64]) -> Result<Fitted<ExponentiatedWeibull>> {
    validate_positive_sample(xs, 3)?;
    let ln_xs = ln_sample(xs);
    let seed = weibull_from_logs(xs, &ln_xs)?;
    let (k0, l0) = (seed.dist.shape(), seed.dist.scale());
    let theta = newton_ascent(&ln_xs, [k0.ln(), l0.ln(), 0.0]);
    let fit = fitted(
        ExponentiatedWeibull::new(theta[0].exp(), theta[1].exp(), theta[2].exp())?,
        xs,
        3,
    );
    if fit.log_likelihood >= seed.log_likelihood {
        return Ok(fit);
    }
    // At α = 1 the EW log-density reduces to the Weibull one term for
    // term, so this fallback's likelihood is the seed's, bit for bit.
    Ok(fitted(ExponentiatedWeibull::new(k0, l0, 1.0)?, xs, 3))
}

/// The Exponentiated-Weibull log-likelihood at `θ = (ln k, ln λ, ln α)`
/// with its gradient and Hessian in `θ` — one [`ew_derivatives`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwDerivatives {
    /// Log-likelihood `ℓ(θ)`.
    pub ll: f64,
    /// Gradient `∂ℓ/∂θ`.
    pub grad: [f64; 3],
    /// Hessian `∂²ℓ/∂θ∂θᵀ` (symmetric).
    pub hess: [[f64; 3]; 3],
}

/// One pass over the log-sample `ln_xs`: the EW log-likelihood at
/// `θ = (ln k, ln λ, ln α)` with its analytic gradient and Hessian.
///
/// Per sample, with `t = ln x − ln λ`, `u = k·t`, `z = eᵘ`,
/// `w = ln(1 − e^{−z})`, `r = 1/(e^z − 1)`, `s = r·z` and `s' = ds/dz`:
/// `ℓᵢ = ln α + ln k − ln λ + (k − 1)·t − z + (α − 1)·w`, and with
/// `D = 1 − z + (α − 1)·s`, `E = dD/dz = −1 + (α − 1)·s'`,
/// `∂ℓᵢ/∂θ = (1 + u·D, −k·D, 1 + α·w)`,
/// `∂²ℓᵢ/∂θ² = [[u·D + u²zE, −k(D + uzE), α·u·s],
///             [·, k²zE, −kα·s], [·, ·, α·w]]`.
pub fn ew_derivatives(ln_xs: &[f64], theta: [f64; 3]) -> EwDerivatives {
    let [ln_k, ln_l, ln_a] = theta;
    let (k, a) = (ln_k.exp(), ln_a.exp());
    let am1 = a - 1.0;
    let (mut ll, mut ga, mut gb, mut sw) = (0.0, 0.0, 0.0, 0.0);
    let (mut haa, mut hab, mut hbb, mut has, mut hs) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &lx in ln_xs {
        let t = lx - ln_l;
        let u = k * t;
        let z = u.exp();
        // For small z, s and s' come from the Bernoulli series of
        // z/(e^z − 1), exact to rounding below 1e-2, where the closed form
        // r − s·(1 + r) cancels catastrophically; w = ln z − z/2 + O(z²)
        // stays finite after e^u underflows.
        let (s, ds) = if z < 1e-2 {
            let z2 = z * z;
            (
                1.0 - z / 2.0 + z2 / 12.0 - z2 * z2 / 720.0,
                -0.5 + z / 6.0 - z * z2 / 180.0 + z * z2 * z2 / 5040.0,
            )
        } else {
            let r = 1.0 / z.exp_m1();
            (z * r, r - z * r * (1.0 + r))
        };
        let w = if z < 1e-8 {
            u - 0.5 * z
        } else {
            (-(-z).exp_m1()).ln()
        };
        let d = 1.0 - z + am1 * s;
        let e = -1.0 + am1 * ds;
        let uze = u * z * e;
        ll += (k - 1.0) * t - z + am1 * w;
        ga += u * d;
        gb += d;
        sw += w;
        haa += u * d + u * uze;
        hab += d + uze;
        hbb += z * e;
        has += u * s;
        hs += s;
    }
    let n = ln_xs.len() as f64;
    let hab = -k * hab;
    let hac = a * has;
    let hbc = -k * a * hs;
    let hcc = a * sw;
    EwDerivatives {
        ll: n * (ln_a + ln_k - ln_l) + ll,
        grad: [n + ga, -k * gb, n + hcc],
        hess: [[haa, hab, hac], [hab, k * k * hbb, hbc], [hac, hbc, hcc]],
    }
}

/// Iteration cap of [`newton_ascent`]; each iteration makes at most one
/// pass over the sample.
const MAX_PASSES: usize = 400;

/// The fit's parameter box `[lo, hi)` for `k`, `λ` and `α` — the simplex
/// fit's overflow guard.
const BOX: [(f64, f64); 3] = [(1e-6, 1e6), (1e-9, 1e9), (1e-6, 1e6)];

/// Whether `θ = (ln k, ln λ, ln α)` lies in [`BOX`].
fn in_box(theta: [f64; 3]) -> bool {
    theta
        .iter()
        .zip(BOX)
        .all(|(t, (lo, hi))| (lo..hi).contains(&t.exp()))
}

/// Levenberg-damped Newton ascent from `theta`; returns the best in-box
/// point reached.
///
/// A trial point outside the box is projected onto it, and a coordinate
/// pinned at a bound with the gradient pointing out is held fixed while
/// the others take the Newton step. The ridge optimum of a small sample
/// lies on a face of the box, and this converges there like an interior
/// optimum instead of creeping toward the face by rejected steps.
fn newton_ascent(ln_xs: &[f64], mut theta: [f64; 3]) -> [f64; 3] {
    // θ-space bounds, nudged inside so a projected point is in the box.
    let lo = BOX.map(|(lo, _)| lo.ln() + 1e-12);
    let hi = BOX.map(|(_, hi)| hi.ln() - 1e-12);
    let mut cur = ew_derivatives(ln_xs, theta);
    if !(in_box(theta) && cur.ll.is_finite()) {
        return theta;
    }
    let mut mu = 1e-3;
    for _ in 0..MAX_PASSES {
        let pinned = std::array::from_fn(|i| {
            (theta[i] <= lo[i] + 1e-10 && cur.grad[i] < 0.0)
                || (theta[i] >= hi[i] - 1e-10 && cur.grad[i] > 0.0)
        });
        let Some(step) = damped_step(&cur, mu, pinned) else {
            mu *= 10.0;
            continue;
        };
        if step.iter().all(|d| d.abs() < 1e-12) {
            break;
        }
        let trial = std::array::from_fn(|i| (theta[i] + step[i]).clamp(lo[i], hi[i]));
        if !in_box(trial) {
            mu *= 10.0;
            continue;
        }
        let next = ew_derivatives(ln_xs, trial);
        let finite = next
            .grad
            .iter()
            .chain(next.hess.iter().flatten())
            .all(|v| v.is_finite());
        if !(next.ll >= cur.ll && next.ll.is_finite() && finite) {
            mu *= 10.0;
            continue;
        }
        let gain = next.ll - cur.ll;
        theta = trial;
        cur = next;
        mu *= 0.1;
        if gain <= 1e-15 * (1.0 + cur.ll.abs()) {
            break;
        }
    }
    theta
}

/// Solves `(−H + μ·D) δ = g` by Cholesky, with `δᵢ = 0` for the `pinned`
/// coordinates; `None` when the damped system is not positive definite.
///
/// `D = diag|Hᵢᵢ|`, each entry floored at `1e-6·maxⱼ|Hⱼⱼ|`: along the
/// ridge one curvature can vanish while its gradient does not, and an
/// unfloored entry would leave that coordinate undamped.
fn damped_step(p: &EwDerivatives, mu: f64, pinned: [bool; 3]) -> Option<[f64; 3]> {
    let h_max = (0..3).map(|i| p.hess[i][i].abs()).fold(0.0, f64::max);
    let mut m = p.hess.map(|row| row.map(|h| -h));
    let mut y = p.grad;
    for i in 0..3 {
        let d = p.hess[i][i].abs().max(1e-6 * h_max);
        m[i][i] += mu * if d > 0.0 { d } else { 1.0 };
    }
    for i in (0..3).filter(|&i| pinned[i]) {
        for j in 0..3 {
            m[i][j] = 0.0;
            m[j][i] = 0.0;
        }
        m[i][i] = 1.0;
        y[i] = 0.0;
    }
    // In-place Cholesky: the lower triangle of `m` becomes L, m = L·Lᵀ.
    for j in 0..3 {
        let mut d = m[j][j];
        for k in 0..j {
            d -= m[j][k] * m[j][k];
        }
        if !(d > 0.0 && d.is_finite()) {
            return None;
        }
        m[j][j] = d.sqrt();
        for i in j + 1..3 {
            let mut v = m[i][j];
            for k in 0..j {
                v -= m[i][k] * m[j][k];
            }
            m[i][j] = v / m[j][j];
        }
    }
    for i in 0..3 {
        for k in 0..i {
            y[i] -= m[i][k] * y[k];
        }
        y[i] /= m[i][i];
    }
    for i in (0..3).rev() {
        for k in i + 1..3 {
            y[i] -= m[k][i] * y[k];
        }
        y[i] /= m[i][i];
    }
    y.iter().all(|v| v.is_finite()).then_some(y)
}

/// The Nelder–Mead simplex Exponentiated-Weibull fit, kept as the
/// executable reference for [`fit_exponentiated_weibull`]. Tests and
/// benches only: the Newton fit must match it where the likelihood has an
/// interior maximum and never fall below it on a ridge (see
/// `tests/ew_fit_equivalence.rs`).
pub mod spec {
    use super::{fit_weibull, fitted, log_likelihood, validate_positive_sample, Fitted};
    use crate::dist::ExponentiatedWeibull;
    use crate::optimize::{nelder_mead, NelderMeadOptions};
    use crate::Result;

    /// MLE fit of an [`ExponentiatedWeibull`] via Nelder–Mead, seeded from the
    /// plain Weibull fit (`α = 1`).
    ///
    /// The optimization runs over `(ln k, ln λ, ln α)` so the positivity
    /// constraints are built into the parameterization.
    ///
    /// # Errors
    ///
    /// Returns an error for fewer than 3 observations, non-positive values, or
    /// optimizer failure.
    pub fn fit_exponentiated_weibull(xs: &[f64]) -> Result<Fitted<ExponentiatedWeibull>> {
        validate_positive_sample(xs, 3)?;
        let seed = fit_weibull(xs)?;
        let x0 = [
            seed.dist.shape().ln(),
            seed.dist.scale().ln(),
            0.0, // ln α = 0  →  α = 1
        ];
        let objective = |theta: &[f64]| -> f64 {
            let (k, l, a) = (theta[0].exp(), theta[1].exp(), theta[2].exp());
            // Guard against overflow in extreme corners of the search space.
            if !(1e-6..1e6).contains(&k) || !(1e-9..1e9).contains(&l) || !(1e-6..1e6).contains(&a) {
                return f64::INFINITY;
            }
            match ExponentiatedWeibull::new(k, l, a) {
                Ok(d) => -log_likelihood(&d, xs),
                Err(_) => f64::INFINITY,
            }
        };
        let min = nelder_mead(
            objective,
            &x0,
            NelderMeadOptions {
                max_iter: 4000,
                ..Default::default()
            },
        )?;
        let dist = ExponentiatedWeibull::new(min.x[0].exp(), min.x[1].exp(), min.x[2].exp())?;
        Ok(fitted(dist, xs, 3))
    }
}

/// Compares two fitted models by AIC; returns `true` when `a` is the
/// better (lower-AIC) model.
pub fn prefer_by_aic<A, B>(a: &Fitted<A>, b: &Fitted<B>) -> bool {
    a.aic <= b.aic
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Continuous;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_recovers_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let truth = Exponential::new(0.4).unwrap();
        let xs = truth.sample_n(&mut rng, 10_000);
        let f = fit_exponential(&xs).unwrap();
        assert!((f.dist.rate() - 0.4).abs() < 0.02, "rate {}", f.dist.rate());
        assert_eq!(f.n, 10_000);
    }

    #[test]
    fn exponential_rejects_negatives() {
        assert!(matches!(
            fit_exponential(&[1.0, -2.0]),
            Err(StatsError::OutOfDomain { .. })
        ));
        assert!(fit_exponential(&[]).is_err());
    }

    #[test]
    fn weibull_recovers_parameters() {
        let mut rng = StdRng::seed_from_u64(2);
        let truth = Weibull::new(1.8, 3.0).unwrap();
        let xs = truth.sample_n(&mut rng, 10_000);
        let f = fit_weibull(&xs).unwrap();
        assert!(
            (f.dist.shape() - 1.8).abs() < 0.1,
            "shape {}",
            f.dist.shape()
        );
        assert!(
            (f.dist.scale() - 3.0).abs() < 0.1,
            "scale {}",
            f.dist.scale()
        );
    }

    #[test]
    fn weibull_shape_below_one() {
        // Long-tailed regime (like the reaction-time data).
        let mut rng = StdRng::seed_from_u64(3);
        let truth = Weibull::new(0.6, 1.0).unwrap();
        let xs = truth.sample_n(&mut rng, 8_000);
        let f = fit_weibull(&xs).unwrap();
        assert!(
            (f.dist.shape() - 0.6).abs() < 0.05,
            "shape {}",
            f.dist.shape()
        );
    }

    #[test]
    fn weibull_degenerate_sample_rejected() {
        assert!(matches!(
            fit_weibull(&[2.0, 2.0, 2.0]),
            Err(StatsError::DegenerateSample(_))
        ));
    }

    #[test]
    fn weibull_exponential_data_gives_shape_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let truth = Exponential::new(1.0).unwrap();
        let xs = truth.sample_n(&mut rng, 10_000);
        let f = fit_weibull(&xs).unwrap();
        assert!(
            (f.dist.shape() - 1.0).abs() < 0.05,
            "shape {}",
            f.dist.shape()
        );
    }

    #[test]
    fn exp_weibull_recovers_weibull_subfamily() {
        let mut rng = StdRng::seed_from_u64(5);
        let truth = Weibull::new(1.5, 2.0).unwrap();
        let xs = truth.sample_n(&mut rng, 4_000);
        let f = fit_exponentiated_weibull(&xs).unwrap();
        // The fitted EW should reproduce the CDF of the truth closely
        // (parameters themselves are weakly identified when α ≈ 1).
        for &x in &[0.5, 1.0, 2.0, 4.0] {
            assert!(
                (f.dist.cdf(x) - truth.cdf(x)).abs() < 0.03,
                "cdf mismatch at {x}: {} vs {}",
                f.dist.cdf(x),
                truth.cdf(x)
            );
        }
    }

    #[test]
    fn exp_weibull_likelihood_at_least_weibull() {
        // The EW family nests Weibull, so its maximized likelihood can't be
        // (materially) lower.
        let mut rng = StdRng::seed_from_u64(6);
        let truth = Weibull::new(0.9, 1.2).unwrap();
        let xs = truth.sample_n(&mut rng, 2_000);
        let w = fit_weibull(&xs).unwrap();
        let ew = fit_exponentiated_weibull(&xs).unwrap();
        assert!(
            ew.log_likelihood >= w.log_likelihood - 1e-3,
            "EW ll {} < W ll {}",
            ew.log_likelihood,
            w.log_likelihood
        );
    }

    #[test]
    fn aic_selects_correct_family() {
        // On strongly non-exponential (Weibull k=2) data, the Weibull fit
        // must win by AIC despite its extra parameter.
        let mut rng = StdRng::seed_from_u64(7);
        let truth = Weibull::new(2.0, 1.0).unwrap();
        let xs = truth.sample_n(&mut rng, 3_000);
        let e = fit_exponential(&xs).unwrap();
        let w = fit_weibull(&xs).unwrap();
        assert!(prefer_by_aic(&w, &e), "AIC w={} e={}", w.aic, e.aic);
        // And on exponential data the two AICs stay within the 2-point
        // parameter penalty plus sampling noise of each other.
        let truth = Exponential::new(1.0).unwrap();
        let xs = truth.sample_n(&mut rng, 3_000);
        let e = fit_exponential(&xs).unwrap();
        let w = fit_weibull(&xs).unwrap();
        assert!((e.aic - w.aic).abs() < 6.0, "AIC e={} w={}", e.aic, w.aic);
    }

    #[test]
    fn fit_requires_min_n() {
        assert!(fit_weibull(&[1.0]).is_err());
        assert!(fit_exponentiated_weibull(&[1.0, 2.0]).is_err());
    }
}
