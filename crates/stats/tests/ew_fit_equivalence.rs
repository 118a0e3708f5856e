//! Equivalence contract for the Exponentiated-Weibull MLE: the damped
//! Newton fit (`fit::fit_exponentiated_weibull`) against the Nelder–Mead
//! reference it replaced (`fit::spec`), plus the exactness of the pieces
//! it is built from.
//!
//! * the analytic gradient and Hessian of `fit::ew_derivatives` agree with
//!   central differences;
//! * on full-scale corpora both fits print the same Fig. 11 text;
//! * over many small corpora and seeded Weibull draws the Newton fit is
//!   `Ok` wherever the reference is, finite, never materially below the
//!   reference's likelihood, and never below its Weibull seed (the ridge
//!   contract);
//! * `fit_weibull` with its logs hoisted is bit-identical to the original
//!   per-evaluation body.
//!
//! Built as a test of the root package (see the root `Cargo.toml`), so it
//! can drive the full pipeline.

use disengage::core::constants::REACTION_OUTLIER_CUTOFF_S;
use disengage::core::pipeline::{Pipeline, PipelineConfig};
use disengage::core::{figures, report};
use disengage::corpus::CorpusConfig;
use disengage::reports::Manufacturer;
use disengage::stats::dist::{Continuous, ExponentiatedWeibull, Weibull};
use disengage::stats::fit::{
    ew_derivatives, fit_exponentiated_weibull, fit_weibull, spec, EwDerivatives,
};
use disengage::stats::optimize::bisect;
use disengage::stats::{Result, StatsError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fig. 11's sample for one manufacturer: positive reaction times up to
/// the outlier cutoff, in database order.
fn fig11_times(db: &disengage::reports::FailureDatabase, m: Manufacturer) -> Vec<f64> {
    db.reaction_times(m)
        .into_iter()
        .filter(|&t| t > 0.0 && t <= REACTION_OUTLIER_CUTOFF_S)
        .collect()
}

fn database(seed: u64, scale: f64) -> disengage::reports::FailureDatabase {
    Pipeline::new(PipelineConfig {
        corpus: CorpusConfig { seed, scale },
        ..PipelineConfig::default()
    })
    .run()
    .expect("pipeline runs")
    .database
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// The `fit_weibull` body before its logs were hoisted out of the
/// shape equation: `x.ln()` recomputed for every sample on every
/// bracketing and bisection step.
fn weibull_reference(xs: &[f64]) -> Result<Weibull> {
    if xs.windows(2).all(|w| w[0] == w[1]) {
        return Err(StatsError::DegenerateSample("constant"));
    }
    let n = xs.len() as f64;
    let mean_ln: f64 = xs.iter().map(|x| x.ln()).sum::<f64>() / n;
    let x_max = xs.iter().copied().fold(f64::MIN, f64::max);
    let scaled: Vec<f64> = xs.iter().map(|x| x / x_max).collect();
    let g = |k: f64| -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (&s, &x) in scaled.iter().zip(xs) {
            let w = s.powf(k);
            num += w * x.ln();
            den += w;
        }
        num / den - 1.0 / k - mean_ln
    };
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
    Weibull::new(shape, scale)
}

/// Checks one sample against the reference fits; returns whether the
/// reference fit succeeded.
fn check_sample(label: &str, xs: &[f64]) -> bool {
    let seed = fit_weibull(xs).unwrap_or_else(|e| panic!("{label}: weibull seed failed: {e}"));
    let old = weibull_reference(xs).expect("reference weibull");
    assert_eq!(
        (seed.dist.shape().to_bits(), seed.dist.scale().to_bits()),
        (old.shape().to_bits(), old.scale().to_bits()),
        "{label}: hoisted fit_weibull diverged from the original body"
    );
    let reference = spec::fit_exponentiated_weibull(xs);
    let prod = fit_exponentiated_weibull(xs);
    let Ok(reference) = reference else {
        return false;
    };
    let prod = prod.unwrap_or_else(|e| panic!("{label}: newton failed where spec is Ok: {e}"));
    let (lp, ls) = (prod.log_likelihood, reference.log_likelihood);
    assert!(lp.is_finite(), "{label}: non-finite newton ll {lp}");
    assert!(
        lp >= ls - 1e-9 * (1.0 + ls.abs()),
        "{label}: newton ll {lp} below spec ll {ls} ({:?} vs {:?})",
        prod.dist,
        reference.dist
    );
    assert!(
        lp >= seed.log_likelihood,
        "{label}: newton ll {lp} below its weibull seed {}",
        seed.log_likelihood
    );
    true
}

#[test]
fn analytic_derivatives_match_central_differences() {
    let mut rng = StdRng::seed_from_u64(0xE3F1);
    let xs = Weibull::new(1.5, 2.0).unwrap().sample_n(&mut rng, 100);
    let ln_xs: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    // Richardson-extrapolated central differences, error O(h⁴): plain
    // central differences at a step small enough for 1e-6 agreement lose
    // that much to rounding on the large-z summands.
    let h = 1e-3;
    let diff = |theta: [f64; 3], i: usize, f: &dyn Fn(&EwDerivatives) -> f64| {
        let central = |h: f64| {
            let (mut up, mut down) = (theta, theta);
            up[i] += h;
            down[i] -= h;
            (f(&ew_derivatives(&ln_xs, up)) - f(&ew_derivatives(&ln_xs, down))) / (2.0 * h)
        };
        (4.0 * central(h / 2.0) - central(h)) / 3.0
    };
    for point in 0..200 {
        let theta = [
            rng.gen_range(0.3f64.ln()..6.0f64.ln()),
            rng.gen_range(0.5f64.ln()..8.0f64.ln()),
            rng.gen_range(0.2f64.ln()..5.0f64.ln()),
        ];
        let p = ew_derivatives(&ln_xs, theta);
        for i in 0..3 {
            let fd = diff(theta, i, &|d| d.ll);
            assert!(
                rel(p.grad[i], fd) < 1e-6,
                "point {point} θ={theta:?}: grad[{i}] {} vs {fd}",
                p.grad[i]
            );
            for j in 0..3 {
                let fd = diff(theta, i, &|d| d.grad[j]);
                assert!(
                    rel(p.hess[i][j], fd) < 1e-6,
                    "point {point} θ={theta:?}: hess[{i}][{j}] {} vs {fd}",
                    p.hess[i][j]
                );
            }
        }
        // The pass's likelihood is the one `Fitted` reports.
        let d = ExponentiatedWeibull::new(theta[0].exp(), theta[1].exp(), theta[2].exp()).unwrap();
        let ll: f64 = xs.iter().map(|&x| d.ln_pdf(x)).sum();
        assert!(rel(p.ll, ll) < 1e-12, "point {point}: ll {} vs {ll}", p.ll);
    }
}

#[test]
fn full_scale_panels_render_identically() {
    for seed in 0..6 {
        let db = database(seed, 1.0);
        for m in [Manufacturer::MercedesBenz, Manufacturer::Waymo] {
            let label = format!("seed {seed} {}", m.name());
            let panel = figures::fig11(&db, m).expect("fig11");
            let reference =
                spec::fit_exponentiated_weibull(&fig11_times(&db, m)).expect("spec fit");
            let (lp, ls) = (panel.fit.log_likelihood, reference.log_likelihood);
            assert!(
                (lp - ls).abs() <= 1e-9 * ls.abs(),
                "{label}: ll {lp} vs {ls}"
            );
            let (p, r) = (&panel.fit.dist, &reference.dist);
            for (name, a, b) in [
                ("shape", p.shape(), r.shape()),
                ("scale", p.scale(), r.scale()),
                ("alpha", p.alpha(), r.alpha()),
            ] {
                assert!(
                    (a - b).abs() <= 1e-5 * b.abs(),
                    "{label}: {name} {a} vs {b}"
                );
            }
            let text = report::render_fig11(&panel);
            let mut spec_panel = panel.clone();
            spec_panel.fit = reference;
            assert_eq!(text, report::render_fig11(&spec_panel), "{label}");
            assert!(check_sample(&label, &fig11_times(&db, m)));
        }
    }
}

#[test]
fn small_corpora_keep_the_ridge_contract() {
    let mut samples = 0;
    for scale in [0.05, 0.1, 0.25] {
        for seed in 0..40 {
            let db = database(seed, scale);
            for m in Manufacturer::ANALYZED {
                let xs = fig11_times(&db, m);
                if xs.len() >= 10 {
                    check_sample(&format!("scale {scale} seed {seed} {}", m.name()), &xs);
                    samples += 1;
                }
            }
        }
    }
    assert!(samples > 300, "only {samples} corpus samples checked");
}

#[test]
fn weibull_draws_keep_the_ridge_contract() {
    let mut rng = StdRng::seed_from_u64(0x11EB);
    let shapes = [0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0, 4.5, 6.0];
    let mut spec_ok = 0;
    for draw in 0..300 {
        let n = [10, 25, 100, 1000][draw % 4];
        let k = shapes[draw % shapes.len()];
        let lambda = rng.gen_range(0.5..20.0);
        let xs = Weibull::new(k, lambda).unwrap().sample_n(&mut rng, n);
        if check_sample(&format!("draw {draw} n={n} k={k} λ={lambda:.3}"), &xs) {
            spec_ok += 1;
        }
    }
    assert!(spec_ok > 250, "spec fit Ok on only {spec_ok} of 300 draws");
}
