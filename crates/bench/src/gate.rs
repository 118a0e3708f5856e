//! Perf-baseline artifacts and the regression gate over them.
//!
//! `parbench` and `repro` write versioned benchmark envelopes
//! (`BENCH_par.json`, `BENCH_pipeline.json`); `benchgate` compares a
//! fresh candidate against the committed baseline and fails the build
//! when a metric regresses beyond a relative tolerance. The envelope:
//!
//! ```json
//! {
//!   "schema": "disengage-bench/par",
//!   "schema_version": 1,
//!   "generated_utc": "2026-08-09T12:00:00Z",
//!   "machine": {"cores": 4, "os": "linux", "arch": "x86_64"},
//!   "metrics": {"sequential_s": 1.23, "speedup": 3.1, ...}
//! }
//! ```
//!
//! Each metric's *direction* is carried by its name, so the gate needs
//! no side table: `*_s` is wall time (lower is better), `*_per_s`,
//! `speedup`, and `*hit_rate` are rates (higher is better). Anything
//! else is informational and never gates. Relative comparisons are
//! skipped — with a warning, not a failure — when the baseline was
//! taken on a machine with a different core count, since a pool
//! speedup measured on 8 cores says nothing about a 2-core box. The
//! absolute budget ceilings ([`ceiling`]) are checked regardless.
//!
//! Timing on shared machines is noisy; the default tolerance is
//! deliberately loose (±40%) and meant to catch step-change
//! regressions (an accidentally quadratic loop, a serialized pool),
//! not single-digit drift. Override per-run with `--tolerance=F` or
//! the `DISENGAGE_BENCH_TOLERANCE` environment variable.

use disengage_obs::json::Value;

/// Envelope schema version; bump on any breaking layout change.
pub const SCHEMA_VERSION: f64 = 1.0;

/// Default relative tolerance for gated metrics.
pub const DEFAULT_TOLERANCE: f64 = 0.40;

/// Wall-time metrics where both sides sit below this floor are too
/// small to gate relatively — scheduler noise alone swamps a 40%
/// band on a sub-50ms measurement. Either side growing past the
/// floor still gates (that is the step change we care about).
pub const MIN_GATED_SECONDS: f64 = 0.05;

/// Environment variable overriding the gate tolerance (a fraction,
/// e.g. `0.6` for ±60%). The escape hatch for noisy CI machines.
pub const TOLERANCE_ENV: &str = "DISENGAGE_BENCH_TOLERANCE";

/// Which way a metric should move to count as an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Wall-clock style: smaller is better (`*_s`).
    LowerBetter,
    /// Rate style: bigger is better (`*_per_s`, `speedup`, `*hit_rate`).
    HigherBetter,
}

/// Absolute budget ceilings, keyed by metric name. Unlike the
/// relative direction gate, a ceilinged metric is checked against a
/// fixed cap on the *candidate alone* — no baseline drift can loosen
/// it, and it gates even when the baseline predates the metric.
/// Currently: `obs_overhead_frac`, the flight-recorder self-overhead
/// as a fraction of pipeline wall, budgeted at 2%; and
/// `stress_rss_ratio`, the peak-RSS growth across `parbench
/// --scale-stress`'s 8× corpus-scale ladder, budgeted at 1.25× —
/// the memory-flatness contract of shard-at-a-time streaming.
pub fn ceiling(name: &str) -> Option<f64> {
    match name {
        "obs_overhead_frac" => Some(0.02),
        "stress_rss_ratio" => Some(1.25),
        _ => None,
    }
}

/// Infers a metric's direction from its name; `None` means the metric
/// is informational and the gate ignores it.
pub fn direction(name: &str) -> Option<Direction> {
    if name.ends_with("_per_s")
        || name == "speedup"
        || name.ends_with("_speedup")
        || name.ends_with("hit_rate")
    {
        Some(Direction::HigherBetter)
    } else if name.ends_with("_s") {
        Some(Direction::LowerBetter)
    } else {
        None
    }
}

/// Builds a benchmark envelope around a flat metric list. `schema` is
/// the artifact kind (`"disengage-bench/par"`); the machine
/// fingerprint and UTC timestamp are taken from the current process.
pub fn envelope(schema: &str, metrics: &[(String, f64)]) -> Value {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    envelope_at(schema, metrics, now)
}

/// [`envelope`] with an explicit Unix timestamp, for deterministic
/// tests.
pub fn envelope_at(schema: &str, metrics: &[(String, f64)], unix_secs: u64) -> Value {
    let machine = Value::Obj(vec![
        (
            "cores".to_owned(),
            Value::num(disengage_par::available_jobs() as f64),
        ),
        ("os".to_owned(), Value::Str(std::env::consts::OS.to_owned())),
        (
            "arch".to_owned(),
            Value::Str(std::env::consts::ARCH.to_owned()),
        ),
    ]);
    let metrics = Value::Obj(
        metrics
            .iter()
            .map(|(k, v)| (k.clone(), Value::num(*v)))
            .collect(),
    );
    Value::Obj(vec![
        ("schema".to_owned(), Value::Str(schema.to_owned())),
        ("schema_version".to_owned(), Value::num(SCHEMA_VERSION)),
        (
            "generated_utc".to_owned(),
            Value::Str(utc_timestamp(unix_secs)),
        ),
        ("machine".to_owned(), machine),
        ("metrics".to_owned(), metrics),
    ])
}

/// Renders a Unix timestamp as `YYYY-MM-DDTHH:MM:SSZ` using the civil
/// calendar algorithm (Howard Hinnant's `days_from_civil` inverted) —
/// no clock libraries in a zero-dependency workspace.
pub fn utc_timestamp(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let rem = unix_secs % 86_400;
    let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    // civil_from_days, shifted so the era starts on 0000-03-01.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m_civil = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m_civil <= 2 { y + 1 } else { y };
    format!("{y:04}-{m_civil:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

/// One gated comparison that moved the wrong way past tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Relative change, signed so that positive = worse.
    pub worse_by: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.4} -> {:.4} ({:+.0}% worse)",
            self.name,
            self.baseline,
            self.candidate,
            self.worse_by * 100.0
        )
    }
}

/// Result of gating a candidate envelope against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum GateOutcome {
    /// All gated metrics within tolerance; `usize` = metrics compared.
    Pass(usize),
    /// At least one metric regressed beyond tolerance.
    Fail(Vec<Regression>),
    /// Comparison skipped (reason) — e.g. core-count mismatch.
    Skipped(String),
}

fn metrics_of(v: &Value) -> Result<Vec<(String, f64)>, String> {
    match v.get("metrics") {
        Some(Value::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| format!("metric `{k}` is not a number"))
            })
            .collect(),
        _ => Err("envelope has no `metrics` object".to_owned()),
    }
}

fn cores_of(v: &Value) -> Option<f64> {
    v.get("machine")?.get("cores")?.as_f64()
}

/// Compares `candidate` against `baseline` with a relative
/// `tolerance`. Errors on schema mismatch or malformed envelopes.
/// Absolute [`ceiling`]s are checked first, on any machine; when the
/// two machines have different core counts the relative comparison is
/// then skipped (the outcome is `Skipped` unless a ceiling failed).
/// Metrics present in only one envelope are ignored — adding a metric
/// must not invalidate old baselines.
pub fn gate(baseline: &Value, candidate: &Value, tolerance: f64) -> Result<GateOutcome, String> {
    let b_schema = baseline
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("baseline has no `schema`")?;
    let c_schema = candidate
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("candidate has no `schema`")?;
    if b_schema != c_schema {
        return Err(format!("schema mismatch: `{b_schema}` vs `{c_schema}`"));
    }
    let b_version = baseline.get("schema_version").and_then(Value::as_f64);
    if b_version != Some(SCHEMA_VERSION) {
        return Err(format!(
            "baseline schema_version {b_version:?} != supported {SCHEMA_VERSION}"
        ));
    }
    let base = metrics_of(baseline)?;
    let cand = metrics_of(candidate)?;
    // Budget ceilings gate on the candidate alone: the cap is fixed,
    // so a slowly-regressing baseline can never launder an overage,
    // and a core-count mismatch cannot skip it.
    let mut compared = 0usize;
    let mut regressions = Vec::new();
    for (name, c) in &cand {
        let Some(cap) = ceiling(name) else { continue };
        compared += 1;
        if *c > cap {
            regressions.push(Regression {
                name: name.clone(),
                baseline: cap,
                candidate: *c,
                worse_by: (c - cap) / cap,
            });
        }
    }
    if let (Some(b), Some(c)) = (cores_of(baseline), cores_of(candidate)) {
        if b != c {
            return Ok(if regressions.is_empty() {
                GateOutcome::Skipped(format!(
                    "baseline measured on {b} core(s), this machine has {c} — not comparable \
                     ({compared} ceiling(s) checked and within budget)"
                ))
            } else {
                GateOutcome::Fail(regressions)
            });
        }
    }
    for (name, b) in &base {
        let Some(dir) = direction(name) else { continue };
        let Some((_, c)) = cand.iter().find(|(k, _)| k == name) else {
            continue;
        };
        if *b <= 0.0 {
            continue; // degenerate baseline; nothing meaningful to gate
        }
        if dir == Direction::LowerBetter && *b < MIN_GATED_SECONDS && *c < MIN_GATED_SECONDS {
            continue; // both too fast to time meaningfully
        }
        compared += 1;
        let worse_by = match dir {
            Direction::LowerBetter => (c - b) / b,
            Direction::HigherBetter => (b - c) / b,
        };
        if worse_by > tolerance {
            regressions.push(Regression {
                name: name.clone(),
                baseline: *b,
                candidate: *c,
                worse_by,
            });
        }
    }
    if regressions.is_empty() {
        Ok(GateOutcome::Pass(compared))
    } else {
        Ok(GateOutcome::Fail(regressions))
    }
}

/// The gate tolerance for this process: `DISENGAGE_BENCH_TOLERANCE`
/// when set and parseable, else the supplied default.
pub fn tolerance_from_env(default: f64) -> f64 {
    std::env::var(TOLERANCE_ENV)
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|t| t.is_finite() && *t >= 0.0)
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(metrics: &[(&str, f64)]) -> Value {
        let metrics: Vec<(String, f64)> =
            metrics.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
        envelope_at("disengage-bench/par", &metrics, 1_754_700_000)
    }

    #[test]
    fn directions_follow_the_naming_convention() {
        assert_eq!(direction("sequential_s"), Some(Direction::LowerBetter));
        assert_eq!(direction("stage_i_ocr_s"), Some(Direction::LowerBetter));
        assert_eq!(direction("docs_per_s"), Some(Direction::HigherBetter));
        assert_eq!(direction("speedup"), Some(Direction::HigherBetter));
        assert_eq!(direction("cache_hit_rate"), Some(Direction::HigherBetter));
        assert_eq!(direction("cores"), None);
        assert_eq!(direction("identical"), None);
    }

    #[test]
    fn envelope_round_trips_through_the_parser() {
        let v = env(&[("sequential_s", 1.5), ("speedup", 3.0)]);
        let parsed = Value::parse(&v.render()).expect("valid json");
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some("disengage-bench/par")
        );
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("speedup"))
                .and_then(Value::as_f64),
            Some(3.0)
        );
        assert!(parsed.get("machine").and_then(|m| m.get("cores")).is_some());
    }

    #[test]
    fn utc_timestamps_are_civil() {
        assert_eq!(utc_timestamp(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_timestamp(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_timestamp(1_754_700_000), "2025-08-09T00:40:00Z");
    }

    #[test]
    fn within_tolerance_passes() {
        let base = env(&[("sequential_s", 1.0), ("speedup", 3.0)]);
        let cand = env(&[("sequential_s", 1.2), ("speedup", 2.5)]);
        match gate(&base, &cand, 0.4).expect("gates") {
            GateOutcome::Pass(n) => assert_eq!(n, 2),
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn slower_wall_time_fails_the_gate() {
        let base = env(&[("sequential_s", 1.0)]);
        let cand = env(&[("sequential_s", 1.6)]);
        match gate(&base, &cand, 0.4).expect("gates") {
            GateOutcome::Fail(regs) => {
                assert_eq!(regs.len(), 1);
                assert_eq!(regs[0].name, "sequential_s");
                assert!((regs[0].worse_by - 0.6).abs() < 1e-9);
            }
            other => panic!("expected fail, got {other:?}"),
        }
    }

    #[test]
    fn lower_speedup_fails_and_higher_passes() {
        let base = env(&[("speedup", 3.0)]);
        let slow = env(&[("speedup", 1.0)]);
        assert!(matches!(
            gate(&base, &slow, 0.4).expect("gates"),
            GateOutcome::Fail(_)
        ));
        let fast = env(&[("speedup", 9.0)]);
        assert!(matches!(
            gate(&base, &fast, 0.4).expect("gates"),
            GateOutcome::Pass(1)
        ));
    }

    #[test]
    fn informational_and_missing_metrics_never_gate() {
        let base = env(&[("cores", 4.0), ("old_only_s", 1.0), ("identical", 1.0)]);
        let cand = env(&[("cores", 400.0), ("new_only_s", 9.0), ("identical", 0.0)]);
        assert!(matches!(
            gate(&base, &cand, 0.0).expect("gates"),
            GateOutcome::Pass(0)
        ));
    }

    #[test]
    fn sub_floor_wall_times_do_not_gate_until_they_step_change() {
        // 5ms -> 8ms is +60% but both are noise-scale: not gated.
        let base = env(&[("stage_i_ocr_s", 0.005)]);
        let jitter = env(&[("stage_i_ocr_s", 0.008)]);
        assert!(matches!(
            gate(&base, &jitter, 0.4).expect("gates"),
            GateOutcome::Pass(0)
        ));
        // 5ms -> 600ms crosses the floor: a real step change, gated.
        let step = env(&[("stage_i_ocr_s", 0.6)]);
        assert!(matches!(
            gate(&base, &step, 0.4).expect("gates"),
            GateOutcome::Fail(_)
        ));
    }

    #[test]
    fn budget_ceiling_gates_the_candidate_absolutely() {
        // Under the 2% cap: passes, and counts as a comparison even
        // though the baseline never recorded the metric.
        let base = env(&[("sequential_s", 1.0)]);
        let under = env(&[("sequential_s", 1.0), ("obs_overhead_frac", 0.011)]);
        assert!(matches!(
            gate(&base, &under, 0.4).expect("gates"),
            GateOutcome::Pass(2)
        ));
        // Over the cap: fails regardless of tolerance or baseline.
        let over = env(&[("sequential_s", 1.0), ("obs_overhead_frac", 0.05)]);
        match gate(&base, &over, 10.0).expect("gates") {
            GateOutcome::Fail(regs) => {
                assert_eq!(regs.len(), 1);
                assert_eq!(regs[0].name, "obs_overhead_frac");
                assert!((regs[0].baseline - 0.02).abs() < 1e-12);
            }
            other => panic!("expected fail, got {other:?}"),
        }
        // A generous baseline cannot launder the overage.
        let loose_base = env(&[("obs_overhead_frac", 0.9)]);
        assert!(matches!(
            gate(&loose_base, &over, 10.0).expect("gates"),
            GateOutcome::Fail(_)
        ));
    }

    #[test]
    fn stress_rss_ratio_has_an_absolute_ceiling() {
        assert_eq!(ceiling("stress_rss_ratio"), Some(1.25));
        let base = env(&[("sequential_s", 1.0)]);
        // Flat memory across the scale ladder: passes.
        let flat = env(&[("stress_rss_ratio", 1.08)]);
        assert!(matches!(
            gate(&base, &flat, 0.4).expect("gates"),
            GateOutcome::Pass(1)
        ));
        // Memory scaling with the corpus: fails even at huge tolerance,
        // and even though the baseline never recorded the metric.
        let scaling = env(&[("stress_rss_ratio", 3.0)]);
        match gate(&base, &scaling, 10.0).expect("gates") {
            GateOutcome::Fail(regs) => {
                assert_eq!(regs.len(), 1);
                assert_eq!(regs[0].name, "stress_rss_ratio");
            }
            other => panic!("expected fail, got {other:?}"),
        }
    }

    fn on_cores(mut v: Value, cores: f64) -> Value {
        if let Value::Obj(pairs) = &mut v {
            for (k, v) in pairs.iter_mut() {
                if k == "machine" {
                    *v = Value::Obj(vec![("cores".to_owned(), Value::num(cores))]);
                }
            }
        }
        v
    }

    #[test]
    fn core_count_mismatch_skips_instead_of_failing() {
        // A baseline core count no machine has.
        let base = on_cores(env(&[("sequential_s", 1.0)]), 9999.0);
        let cand = env(&[("sequential_s", 100.0), ("obs_overhead_frac", 0.01)]);
        match gate(&base, &cand, 0.4).expect("gates") {
            GateOutcome::Skipped(why) => assert!(why.contains("1 ceiling(s) checked"), "{why}"),
            other => panic!("expected skip, got {other:?}"),
        }
    }

    #[test]
    fn over_ceiling_fails_even_when_core_counts_differ() {
        let base = on_cores(env(&[("sequential_s", 1.0)]), 9999.0);
        for (name, value) in [("obs_overhead_frac", 0.03), ("stress_rss_ratio", 1.4)] {
            let cand = env(&[("sequential_s", 100.0), (name, value)]);
            match gate(&base, &cand, 0.4).expect("gates") {
                GateOutcome::Fail(regs) => {
                    assert_eq!(regs.len(), 1, "only the ceiling gates: {regs:?}");
                    assert_eq!(regs[0].name, name);
                }
                other => panic!("{name}: expected fail, got {other:?}"),
            }
        }
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let base = envelope_at("disengage-bench/pipeline", &[], 0);
        let cand = env(&[]);
        assert!(gate(&base, &cand, 0.4).is_err());
    }

    #[test]
    fn tolerance_env_overrides_when_valid() {
        // Process-global env: test the parse path via set/remove.
        std::env::set_var(TOLERANCE_ENV, "0.75");
        assert!((tolerance_from_env(0.4) - 0.75).abs() < 1e-12);
        std::env::set_var(TOLERANCE_ENV, "garbage");
        assert!((tolerance_from_env(0.4) - 0.4).abs() < 1e-12);
        std::env::remove_var(TOLERANCE_ENV);
        assert!((tolerance_from_env(0.4) - 0.4).abs() < 1e-12);
    }
}
