//! Derivative-free optimization used by maximum-likelihood fitting.
//!
//! Provides a Nelder–Mead downhill simplex minimizer (behind the
//! reference Exponentiated Weibull fit, `fit::spec`) and a
//! bracketing/bisection root finder (for the Weibull profile-likelihood
//! shape equation).

use crate::{Result, StatsError};

/// Options controlling [`nelder_mead`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadOptions {
    /// Maximum number of iterations before giving up.
    pub max_iter: usize,
    /// Convergence tolerance on the simplex function-value spread.
    pub f_tol: f64,
    /// Convergence tolerance on the simplex size.
    pub x_tol: f64,
    /// Initial simplex step as a fraction of each coordinate (absolute step
    /// of `initial_step` is used for zero coordinates).
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_iter: 2000,
            f_tol: 1e-10,
            x_tol: 1e-10,
            initial_step: 0.1,
        }
    }
}

/// Result of a [`nelder_mead`] minimization.
#[derive(Debug, Clone, PartialEq)]
pub struct Minimum {
    /// Location of the minimum found.
    pub x: Vec<f64>,
    /// Function value at the minimum.
    pub f: f64,
    /// Number of iterations used.
    pub iterations: usize,
    /// Whether the tolerances were met (vs. hitting `max_iter`).
    pub converged: bool,
}

/// Minimizes `f` starting from `x0` using the Nelder–Mead simplex method.
///
/// Infinite or NaN objective values are treated as "worse than anything",
/// which lets callers encode hard constraints by returning
/// `f64::INFINITY` outside the feasible region.
///
/// # Errors
///
/// Returns [`StatsError::EmptyInput`] if `x0` is empty, and
/// [`StatsError::NoConvergence`] only if the simplex degenerates entirely
/// (every vertex at an infinite objective).
///
/// # Examples
///
/// ```
/// # use disengage_stats::optimize::{nelder_mead, NelderMeadOptions};
/// let min = nelder_mead(
///     |x| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2),
///     &[0.0, 0.0],
///     NelderMeadOptions::default(),
/// ).unwrap();
/// assert!((min.x[0] - 3.0).abs() < 1e-4);
/// assert!((min.x[1] + 1.0).abs() < 1e-4);
/// ```
pub fn nelder_mead<F>(mut f: F, x0: &[f64], opts: NelderMeadOptions) -> Result<Minimum>
where
    F: FnMut(&[f64]) -> f64,
{
    let n = x0.len();
    if n == 0 {
        return Err(StatsError::EmptyInput);
    }
    // Standard coefficients.
    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    let eval = |f: &mut F, x: &[f64]| -> f64 {
        let v = f(x);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };

    // Build the initial simplex: x0 plus n perturbed vertices.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut v = x0.to_vec();
        let step = if v[i] != 0.0 {
            v[i].abs() * opts.initial_step
        } else {
            opts.initial_step
        };
        v[i] += step;
        simplex.push(v);
    }
    let mut values: Vec<f64> = simplex.iter().map(|v| eval(&mut f, v)).collect();

    if values.iter().all(|v| !v.is_finite()) {
        return Err(StatsError::NoConvergence {
            algorithm: "nelder-mead (infeasible start)",
            iterations: 0,
        });
    }

    let mut iterations = 0;
    let mut converged = false;
    while iterations < opts.max_iter {
        iterations += 1;
        // Order vertices by objective.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("no NaNs"));
        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        // Convergence checks.
        let f_spread = values[worst] - values[best];
        let x_spread = simplex
            .iter()
            .flat_map(|v| v.iter().zip(&simplex[best]).map(|(a, b)| (a - b).abs()))
            .fold(0.0_f64, f64::max);
        if f_spread.is_finite() && f_spread < opts.f_tol && x_spread < opts.x_tol {
            converged = true;
            break;
        }

        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for (i, v) in simplex.iter().enumerate() {
            if i == worst {
                continue;
            }
            for (c, x) in centroid.iter_mut().zip(v) {
                *c += x / n as f64;
            }
        }

        let lerp = |a: &[f64], b: &[f64], t: f64| -> Vec<f64> {
            a.iter().zip(b).map(|(x, y)| x + t * (y - x)).collect()
        };

        // Reflection.
        let reflected = lerp(&centroid, &simplex[worst], -ALPHA);
        let f_r = eval(&mut f, &reflected);
        if f_r < values[best] {
            // Expansion.
            let expanded = lerp(&centroid, &simplex[worst], -GAMMA);
            let f_e = eval(&mut f, &expanded);
            if f_e < f_r {
                simplex[worst] = expanded;
                values[worst] = f_e;
            } else {
                simplex[worst] = reflected;
                values[worst] = f_r;
            }
        } else if f_r < values[second_worst] {
            simplex[worst] = reflected;
            values[worst] = f_r;
        } else {
            // Contraction.
            let contracted = lerp(&centroid, &simplex[worst], RHO);
            let f_c = eval(&mut f, &contracted);
            if f_c < values[worst] {
                simplex[worst] = contracted;
                values[worst] = f_c;
            } else {
                // Shrink towards the best vertex.
                let best_vertex = simplex[best].clone();
                for (i, v) in simplex.iter_mut().enumerate() {
                    if i == best {
                        continue;
                    }
                    *v = lerp(&best_vertex, v, SIGMA);
                    values[i] = eval(&mut f, v);
                }
            }
        }
    }

    let (best_idx, &best_val) = values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaNs"))
        .expect("simplex is non-empty");
    Ok(Minimum {
        x: simplex[best_idx].clone(),
        f: best_val,
        iterations,
        converged,
    })
}

/// Finds a root of `f` in `[lo, hi]` by bisection.
///
/// `f(lo)` and `f(hi)` must bracket a sign change.
///
/// # Errors
///
/// * [`StatsError::InvalidParameter`] if `lo >= hi` or the endpoints do not
///   bracket a sign change.
/// * [`StatsError::NoConvergence`] if the tolerance is not met in
///   `max_iter` bisections (practically unreachable with 200 iterations).
pub fn bisect<F>(mut f: F, lo: f64, hi: f64, tol: f64, max_iter: usize) -> Result<f64>
where
    F: FnMut(f64) -> f64,
{
    if lo >= hi {
        return Err(StatsError::InvalidParameter {
            name: "lo/hi ordering",
            value: lo,
        });
    }
    let mut a = lo;
    let mut b = hi;
    let mut fa = f(a);
    let fb = f(b);
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(StatsError::InvalidParameter {
            name: "bracket (no sign change)",
            value: fa,
        });
    }
    for _ in 0..max_iter {
        let mid = (a + b) / 2.0;
        let fm = f(mid);
        if fm == 0.0 || (b - a) / 2.0 < tol {
            return Ok(mid);
        }
        if fm.signum() == fa.signum() {
            a = mid;
            fa = fm;
        } else {
            b = mid;
        }
    }
    Err(StatsError::NoConvergence {
        algorithm: "bisection",
        iterations: max_iter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_minimum_found() {
        let m = nelder_mead(
            |x| (x[0] - 1.0).powi(2) + 2.0 * (x[1] - 2.0).powi(2) + 3.0,
            &[10.0, -10.0],
            NelderMeadOptions::default(),
        )
        .unwrap();
        assert!(m.converged);
        assert!((m.x[0] - 1.0).abs() < 1e-4);
        assert!((m.x[1] - 2.0).abs() < 1e-4);
        assert!((m.f - 3.0).abs() < 1e-6);
    }

    #[test]
    fn rosenbrock_two_d() {
        let m = nelder_mead(
            |x| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2),
            &[-1.2, 1.0],
            NelderMeadOptions {
                max_iter: 5000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((m.x[0] - 1.0).abs() < 1e-3, "x = {:?}", m.x);
        assert!((m.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn constraint_via_infinity() {
        // Minimize x² subject to x >= 2 by returning +inf below 2.
        let m = nelder_mead(
            |x| {
                if x[0] < 2.0 {
                    f64::INFINITY
                } else {
                    x[0] * x[0]
                }
            },
            &[5.0],
            NelderMeadOptions::default(),
        )
        .unwrap();
        assert!((m.x[0] - 2.0).abs() < 1e-3, "x = {:?}", m.x);
    }

    #[test]
    fn one_dimensional() {
        let m = nelder_mead(
            |x| (x[0] + 4.0).powi(2),
            &[0.0],
            NelderMeadOptions::default(),
        )
        .unwrap();
        assert!((m.x[0] + 4.0).abs() < 1e-4);
    }

    #[test]
    fn empty_start_rejected() {
        assert!(nelder_mead(|_| 0.0, &[], NelderMeadOptions::default()).is_err());
    }

    #[test]
    fn infeasible_everywhere_rejected() {
        let r = nelder_mead(|_| f64::INFINITY, &[1.0], NelderMeadOptions::default());
        assert!(matches!(r, Err(StatsError::NoConvergence { .. })));
    }

    #[test]
    fn nan_treated_as_infinite() {
        // Objective returns NaN off the feasible set; minimizer should
        // still find the minimum inside it.
        let m = nelder_mead(
            |x| {
                if x[0] <= 0.0 {
                    f64::NAN
                } else {
                    (x[0].ln()).powi(2)
                }
            },
            &[3.0],
            NelderMeadOptions::default(),
        )
        .unwrap();
        assert!((m.x[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn bisect_finds_sqrt2() {
        let root = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 200).unwrap();
        assert!((root - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_endpoint_root() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12, 100).unwrap(), 0.0);
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        assert!(bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100).is_err());
        assert!(bisect(|x| x, 1.0, 0.0, 1e-12, 100).is_err());
    }
}
