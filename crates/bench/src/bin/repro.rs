//! `repro` — regenerate every table and figure of the paper.
//!
//! Runs the full-scale pipeline (the calibrated 5,328-disengagement /
//! 42-accident / 1.1M-mile corpus) and prints the reproduction of each
//! table (I–VIII), each figure's summary statistics (4–12), and the five
//! research-question analyses.
//!
//! Usage:
//!
//! ```text
//! repro                    # everything
//! repro table4 fig8        # selected artifacts
//! repro q5                 # one analysis
//! repro --telemetry=tree   # append the run's span tree
//! repro --telemetry=json   # also write repro_metrics.json
//! repro --telemetry=stable-json  # same, with wall-clock fields zeroed
//! repro --chaos=0.05       # fault-injection campaign at 5%/line
//! repro --chaos=0.05,7     # same, explicit injection seed
//! repro --jobs=8           # Stage I–III across 8 workers
//! repro --jobs=0           # ... across all available cores
//! repro --lineage=lineage.jsonl  # export the per-record provenance log
//! repro --trace=trace.json       # export a Chrome trace-event timeline
//! repro --cache-dir=.disengage-cache  # content-addressed stage cache
//! repro --cache-cap=0                 # unbounded per-stage cache
//! repro --bench=BENCH_pipeline.json   # write a perf-baseline envelope
//! repro --crash-campaign=25           # crash-recovery campaign, 25 trials
//! repro --crash-campaign=25,7         # same, explicit campaign seed
//! ```
//!
//! `--crash-campaign=TRIALS[,SEED]` replaces the normal reproduction
//! flow with the [`disengage_bench::crash`] campaign: each trial runs
//! the pipeline into a fresh cache directory, kills it at a seeded
//! point between stage commits (often with seeded I/O faults and
//! crashed-peer litter armed), restarts it, and requires byte-identical
//! convergence with a cold run plus a clean cache-directory audit. The
//! outcome ledger lands in `crash_report.json`; any non-recovered trial
//! exits nonzero. `--scale`, `--seed`, `--jobs`, and `--cache-cap`
//! shape the workload under test.
//!
//! `--bench=PATH` writes a versioned [`disengage_bench::gate`]
//! envelope with the per-stage wall times (from the pipeline span
//! tree), end-to-end throughput, and — when a cache is armed — the
//! stage-cache hit rate. `scripts/verify.sh` gates a fresh candidate
//! against the committed `BENCH_pipeline.json` baseline via
//! `benchgate`.
//!
//! Flag parsing is shared with the `disengage` front-end
//! ([`disengage_core::args`]): unknown `--` flags are rejected with
//! usage text, `--help`/`-h` exits 0, and every value-taking flag
//! accepts both the `--flag value` and `--flag=value` spellings
//! (`--telemetry` and `--lineage` have optional values, so theirs
//! must be inline).
//!
//! `--jobs` only changes wall-clock time: the pipeline is
//! deterministic at every worker count, so stdout and
//! `repro_metrics.json` under `--telemetry=stable-json` (which zeroes
//! the only nondeterministic fields, the span/log timestamps) are
//! byte-identical between `--jobs=1` and `--jobs=N`. `scripts/verify.sh`
//! diffs exactly that. The same invariant holds for `--cache-dir`: a
//! warm run replays Stages I–II from the artifact cache (watch the
//! `cache.hit.*` counters under `--telemetry=json`) and still prints
//! the same bytes as a cold one.
//!
//! Every run cross-checks the pipeline's telemetry counters
//! ([`disengage_core::telemetry::reconcile`]) and exits nonzero if a
//! stage dropped or double-counted records. A chaos campaign
//! additionally writes `chaos_report.json` (injected vs corrected vs
//! quarantined vs silently absorbed, per fault kind) and exits nonzero
//! unless the outcome ledger reconciles; `--chaos=0` proves the
//! injection path is inert by diffing against a clean run. Under chaos
//! an artifact that cannot be produced at full fidelity prints itself
//! as DEGRADED and the run continues — one broken table never takes
//! down the campaign.

use disengage_bench::full_scale_config;
use disengage_core::args::{ArgError, CommonArgs, TelemetryMode};
use disengage_core::pipeline::RunTrace;
use disengage_core::telemetry::{execution_trace_json, reconcile, timed};
use disengage_core::{degrade, exposure, figures, questions, report, tables, whatif, RunSession};
use disengage_nlp::Classifier;
use disengage_obs::{flight, health, Collector, ProvenanceEvent, ProvenanceLog, Subject};
use disengage_reports::Manufacturer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Tracks artifacts that degraded instead of rendering, so the run can
/// summarize them (and the chaos report can list them) at the end. Each
/// degradation also lands in the run's provenance log as a Stage IV
/// `Degraded` event (so `--lineage` exports carry the full story), a
/// warn-level log line, and a `degrade` flight-ring event.
struct Degradations<'a>(Vec<&'static str>, &'a ProvenanceLog, &'a Collector);

impl Degradations<'_> {
    /// Prints a rendered artifact, or its degradation notice; never
    /// propagates the error.
    fn emit(&mut self, artifact: &'static str, result: disengage_core::Result<String>) {
        match degrade(artifact, result) {
            Ok(text) => print(text),
            Err(e) => {
                print(format!("== {artifact}: DEGRADED ==\n{e}"));
                self.2.warn(&format!("artifact {artifact} degraded: {e}"));
                self.2.event("degrade", artifact);
                if self.1.is_enabled() {
                    self.1.push(
                        Subject::Run,
                        ProvenanceEvent::Degraded {
                            artifact: artifact.to_owned(),
                            reason: e.to_string(),
                        },
                    );
                }
                self.0.push(artifact);
            }
        }
    }
}

fn usage() -> String {
    format!(
        "usage: repro [artifact ...] [flags]

artifacts: table1..table8, fig4..fig12, q1..q5, exposure, whatif,
accuracy (none selects everything)

repro-only flags:
  --bench=PATH        write a perf-baseline envelope (see benchgate)
  --crash-campaign=TRIALS[,SEED]
                      run the crash-recovery campaign instead of the
                      reproduction (writes crash_report.json)

flags (shared with the `disengage` front-end; both --flag VALUE and
--flag=VALUE spellings work, except optional values must be inline):
{}",
        CommonArgs::shared_usage()
    )
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut bench_out: Option<String> = None;
    let mut crash_campaign: Option<(usize, u64)> = None;
    let parsed = CommonArgs::parse_with(&raw, |flag, value| match flag {
        "--bench" => {
            let v = value.ok_or_else(|| ArgError {
                flag: flag.to_owned(),
                reason: "expected --bench=PATH".to_owned(),
            })?;
            bench_out = Some(v.to_owned());
            Ok(true)
        }
        "--crash-campaign" => {
            let v = value.ok_or_else(|| ArgError {
                flag: flag.to_owned(),
                reason: "expected --crash-campaign=TRIALS[,SEED]".to_owned(),
            })?;
            crash_campaign = Some(parse_crash_campaign(v).map_err(|reason| ArgError {
                flag: flag.to_owned(),
                reason,
            })?);
            Ok(true)
        }
        _ => Ok(false),
    });
    let args = match parsed {
        Ok(args) => args,
        Err(ArgError { flag, reason }) => {
            eprintln!("error: {flag}: {reason}");
            eprintln!();
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }

    // The full-scale paper corpus by default; --scale/--seed shrink or
    // reseed it (the cache-smoke tests run at a fraction of full scale).
    let mut config = full_scale_config().with_jobs(args.jobs.unwrap_or(0));
    if let Some(scale) = args.scale {
        config.corpus.scale = scale;
    }
    if let Some(seed) = args.seed {
        config.corpus.seed = seed;
    }
    if let Some(plan) = args.chaos {
        // An inert (rate-0) plan is armed but filtered out by
        // `RunConfig::active_chaos`, keeping it byte- and key-identical
        // to a clean run — which the diff below then proves.
        config = config.with_chaos(plan);
    }
    if let Some(dir) = args.effective_cache_dir() {
        config = config.with_cache_dir(dir);
    }
    if let Some(cap) = args.cache_cap {
        config = config.with_cache_cap(cap);
    }
    if let Some(shards) = &args.shards {
        config = config.with_shards(shards.clone());
    }

    // The crash-recovery campaign replaces the reproduction flow
    // entirely: N interrupted-then-resumed sessions, each required to
    // recover byte-identically and leave a clean cache directory.
    if let Some((trials, seed)) = crash_campaign {
        return run_crash_campaign(
            &config,
            trials,
            seed,
            args.effective_cache_dir().map(PathBuf::from),
        );
    }

    let want = |name: &str| args.positional.is_empty() || args.positional.iter().any(|a| a == name);

    let obs_arc = Arc::new(Collector::with_echo());
    let obs: &Collector = &obs_arc;
    let trace = if args.wants_trace() {
        RunTrace::new(obs)
    } else {
        RunTrace::disabled()
    };
    install_panic_dump(&obs_arc, trace.flight_tasks());
    obs.log("running full-scale pipeline (5,328 disengagements, 42 accidents)...");
    if let Some(p) = config.active_chaos() {
        obs.log(&format!(
            "chaos campaign armed: rate {:.3}, seed {:#x}",
            p.rate, p.seed
        ));
    }
    let o = match RunSession::new(config.clone()).run_traced(&obs, &trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    obs.log(&format!(
        "pipeline done: {} disengagements, {} accidents, {:.0} miles recovered",
        o.database.disengagements().len(),
        o.database.accidents().len(),
        o.database.total_miles()
    ));
    if let Some(audit) = &o.chaos {
        obs.log(&format!(
            "chaos: {} injected = {} corrected + {} quarantined + {} absorbed",
            audit.totals.injected,
            audit.totals.corrected,
            audit.totals.quarantined,
            audit.totals.absorbed
        ));
    }

    // The rate-0 invariant: an inert plan must leave every byte of the
    // outcome untouched. Proven by rerunning clean (no chaos armed, no
    // cache — a cached replay would make the diff vacuous) and diffing.
    if let Some(p) = args.chaos {
        if !p.active() {
            obs.log("chaos rate 0: diffing against a clean reference run...");
            let mut clean = config.clone().without_cache();
            clean.chaos = None;
            let reference = match RunSession::new(clean).run_with(&Collector::new()) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: clean reference run failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let identical = format!("{:?}", reference.database) == format!("{:?}", o.database)
                && reference.tagged == o.tagged
                && reference.parse_failures == o.parse_failures;
            if !identical {
                eprintln!("chaos rate 0 diverged from the clean run: injection path is not inert");
                return ExitCode::FAILURE;
            }
            obs.log("chaos rate 0: byte-identical to the clean run");
        }
    }

    let classifier = Classifier::with_default_dictionary();
    let mut deg = Degradations(Vec::new(), trace.provenance(), obs);

    if want("table1") {
        let r = timed(&obs, "stage_iv_table1", || tables::table1(&o.database));
        deg.emit(
            "table1",
            r.map(|t| report::render_table("Table I: fleet, miles, disengagements, accidents", &t)),
        );
    }
    if want("table2") {
        let r = timed(&obs, "stage_iv_table2", || tables::table2(&classifier));
        deg.emit(
            "table2",
            r.map(|t| report::render_table("Table II: sample raw logs with recovered tags", &t)),
        );
    }
    if want("table3") {
        let r = timed(&obs, "stage_iv_table3", tables::table3);
        deg.emit(
            "table3",
            r.map(|t| report::render_table("Table III: fault tags and categories", &t)),
        );
    }
    if want("table4") {
        let r = timed(&obs, "stage_iv_table4", || tables::table4(&o.tagged));
        deg.emit(
            "table4",
            r.map(|t| report::render_table("Table IV: disengagements by failure category (%)", &t)),
        );
    }
    if want("table5") {
        let r = timed(&obs, "stage_iv_table5", || tables::table5(&o.database));
        deg.emit(
            "table5",
            r.map(|t| report::render_table("Table V: disengagements by modality (%)", &t)),
        );
    }
    if want("table6") {
        let r = timed(&obs, "stage_iv_table6", || tables::table6(&o.database));
        deg.emit(
            "table6",
            r.map(|t| report::render_table("Table VI: accidents and DPA", &t)),
        );
    }
    if want("table7") {
        let r = timed(&obs, "stage_iv_table7", || tables::table7(&o.database));
        deg.emit(
            "table7",
            r.map(|t| report::render_table("Table VII: reliability vs human drivers", &t)),
        );
    }
    if want("table8") {
        let r = timed(&obs, "stage_iv_table8", || tables::table8(&o.database));
        deg.emit(
            "table8",
            r.map(|t| {
                report::render_table("Table VIII: reliability vs other safety-critical systems", &t)
            }),
        );
    }
    if want("fig4") {
        let r = timed(&obs, "stage_iv_fig4", || figures::fig4(&o.database));
        deg.emit("fig4", r.map(|f| report::render_fig4(&f)));
    }
    if want("fig5") {
        timed(&obs, "stage_iv_fig5", || {
            let series = figures::fig5(&o.database);
            let mut out = String::from("== Figure 5: cumulative disengagements vs miles ==\n");
            for s in &series {
                if let Some(fit) = &s.fit {
                    out.push_str(&format!(
                        "{:<16} final ({:>10.0} mi, {:>5.0} dis)  log-log slope {:.2}\n",
                        s.manufacturer.name(),
                        s.points.last().map_or(0.0, |p| p.0),
                        s.points.last().map_or(0.0, |p| p.1),
                        fit.exponent
                    ));
                }
            }
            print(out);
        });
    }
    if want("fig6") {
        timed(&obs, "stage_iv_fig6", || {
            let f = figures::fig6(&o.tagged);
            let mut out = String::from("== Figure 6: fault-tag fractions per manufacturer ==\n");
            for (m, stack) in &f.stacks {
                out.push_str(&format!("{}:\n", m.name()));
                let mut sorted = stack.clone();
                sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
                for (tag, frac) in sorted.iter().take(5) {
                    out.push_str(&format!(
                        "    {:<32} {:>5.1}%\n",
                        tag.to_string(),
                        frac * 100.0
                    ));
                }
            }
            print(out);
        });
    }
    if want("fig7") {
        let r = timed(&obs, "stage_iv_fig7", || figures::fig7(&o.database));
        deg.emit(
            "fig7",
            r.map(|f| {
                let mut out = String::from("== Figure 7: per-car DPM by manufacturer and year ==\n");
                for (m, year, b) in &f.panels {
                    out.push_str(&format!(
                        "{:<16} {}  median {:.6}  iqr {:.6}\n",
                        m.name(),
                        year,
                        b.median,
                        b.iqr()
                    ));
                }
                out
            }),
        );
    }
    if want("fig8") {
        let r = timed(&obs, "stage_iv_fig8", || figures::fig8(&o.database));
        deg.emit("fig8", r.map(|f| report::render_fig8(&f)));
    }
    if want("fig9") {
        timed(&obs, "stage_iv_fig9", || {
            let series = figures::fig9(&o.database);
            let mut out = String::from("== Figure 9: DPM vs cumulative miles (fits) ==\n");
            for s in &series {
                if let Some(fit) = &s.fit {
                    out.push_str(&format!(
                        "{:<16} log-log slope {:.2} over {} months\n",
                        s.manufacturer.name(),
                        fit.exponent,
                        s.points.len()
                    ));
                }
            }
            print(out);
        });
    }
    if want("fig10") {
        let r = timed(&obs, "stage_iv_fig10", || figures::fig10(&o.database));
        deg.emit("fig10", r.map(|f| report::render_fig10(&f)));
    }
    if want("fig11") {
        timed(&obs, "stage_iv_fig11", || {
            for m in [Manufacturer::MercedesBenz, Manufacturer::Waymo] {
                deg.emit(
                    "fig11",
                    figures::fig11(&o.database, m).map(|p| report::render_fig11(&p)),
                );
            }
        });
    }
    if want("fig12") {
        timed(&obs, "stage_iv_fig12", || {
            for kind in [
                figures::SpeedKind::Av,
                figures::SpeedKind::Manual,
                figures::SpeedKind::Relative,
            ] {
                deg.emit(
                    "fig12",
                    figures::fig12(&o.database, kind).map(|f| report::render_fig12(&f)),
                );
            }
        });
    }
    if want("q1") {
        let r = timed(&obs, "stage_iv_q1", || questions::q1_assessment(&o.database));
        deg.emit("q1", r.map(|q| report::render_q1(&q)));
    }
    if want("q2") {
        print(timed(&obs, "stage_iv_q2", || {
            report::render_q2(&questions::q2_causes(&o.tagged))
        }));
    }
    if want("q3") {
        let r = timed(&obs, "stage_iv_q3", || questions::q3_dynamics(&o.database));
        deg.emit("q3", r.map(|q| report::render_q3(&q)));
    }
    if want("q4") {
        let r = timed(&obs, "stage_iv_q4", || questions::q4_alertness(&o.database));
        deg.emit("q4", r.map(|q| report::render_q4(&q)));
    }
    if want("q5") {
        let r = timed(&obs, "stage_iv_q5", || questions::q5_comparison(&o.database));
        deg.emit("q5", r.map(|q| report::render_q5(&q)));
    }
    if want("exposure") {
        timed(&obs, "stage_iv_exposure", || {
            let road = exposure::road_type_mix(&o.database);
            let weather = exposure::weather_mix(&o.database);
            let coverage = exposure::field_coverage(&o.database);
            let mut out = String::from("== Exposure: road/weather context (SIII-C, SVI) ==\n");
            for (rt, frac) in &road {
                out.push_str(&format!(
                    "road {:<14} {:>5.1}%\n",
                    rt.to_string(),
                    frac * 100.0
                ));
            }
            for (w, frac) in &weather {
                out.push_str(&format!(
                    "weather {:<11} {:>5.1}%\n",
                    w.to_string(),
                    frac * 100.0
                ));
            }
            out.push_str(&format!(
                "field coverage: road {:.0}%, weather {:.0}%, reaction {:.0}% of {} records\n",
                coverage.road_type * 100.0,
                coverage.weather * 100.0,
                coverage.reaction_time * 100.0,
                coverage.n
            ));
            match exposure::modality_association(&o.database) {
                Ok(t) => out.push_str(&format!(
                    "modality x manufacturer chi-square = {:.0} (df {}, p = {:.2e})\n",
                    t.statistic, t.df, t.p_value
                )),
                Err(e) => out.push_str(&format!("modality association DEGRADED: {e}\n")),
            }
            match exposure::category_association(&o.tagged) {
                Ok(t) => out.push_str(&format!(
                    "category x manufacturer chi-square = {:.0} (df {}, p = {:.2e})\n",
                    t.statistic, t.df, t.p_value
                )),
                Err(e) => out.push_str(&format!("category association DEGRADED: {e}\n")),
            }
            print(out);
        });
    }
    if want("whatif") {
        timed(&obs, "stage_iv_whatif", || {
            let mut out = String::from("== What-if projections (SV-C1) ==\n");
            for m in [
                Manufacturer::Waymo,
                Manufacturer::Nissan,
                Manufacturer::GmCruise,
            ] {
                match whatif::miles_to_target_dpm(&o.database, m, 1e-4) {
                    Ok(p) => out.push_str(&format!(
                        "{:<14} DPM ~ miles^{:+.2}; extra miles to 1e-4: {}\n",
                        m.name(),
                        p.fit.exponent,
                        p.additional_miles()
                            .map_or("never".to_owned(), |x| format!("{x:.0}"))
                    )),
                    Err(e) => out.push_str(&format!("{:<14} DEGRADED: {e}\n", m.name())),
                }
            }
            if let Ok(g) = whatif::demonstration_gap(&o.database, 0.95) {
                out.push_str(&format!(
                    "demonstrating human-level safety at 95%: {:.2}M failure-free miles ({:.1}x this program)\n",
                    g.required_miles / 1e6,
                    g.programs_needed
                ));
            }
            if let Ok(p) = whatif::fleet_scale_projection(2.35e-5) {
                out.push_str(&format!(
                    "fleet-scale at today's best APM: {:.1}M accidents/year ({:.0}x aviation)\n",
                    p.annual_av_accidents / 1e6,
                    p.ratio_to_aviation
                ));
            }
            print(out);
        });
    }
    if want("accuracy") {
        timed(&obs, "stage_iv_accuracy", || {
            let acc = disengage_core::tagging::tagging_accuracy(&o.tagged, &o.corpus.intended_tags);
            print(format!(
                "== Stage III evaluation against generator ground truth ==\n\
                 tag accuracy: {:.1}%  category accuracy: {:.1}%  (n = {})\n",
                acc.tag_accuracy * 100.0,
                acc.category_accuracy * 100.0,
                acc.n
            ));
        });
    }

    if !deg.0.is_empty() {
        eprintln!(
            "{} artifact(s) degraded under this run: {}",
            deg.0.len(),
            deg.0.join(", ")
        );
    }

    // Telemetry self-check: refuse to bless a run whose counters do not
    // reconcile across stages (see disengage_core::telemetry::reconcile).
    let snapshot = obs.report();

    // Perf-baseline envelope: per-stage wall summed over every shard,
    // Stage IV's total, end-to-end throughput, and (with a cache armed)
    // the hit rate.
    if let Some(path) = &bench_out {
        let mut metrics: Vec<(String, f64)> =
            vec![("scale".to_owned(), config.corpus.scale)];
        for span in [
            "pipeline",
            "stage_i_corpus",
            "stage_i_ocr",
            "stage_ii_parse",
            "stage_iii_tag",
        ] {
            if let Some(total) = snapshot.span_total_s(span) {
                metrics.push((format!("{span}_s"), total));
            }
        }
        // Stage IV: every table, figure and question span, summed.
        let mut stage_iv = std::collections::BTreeSet::new();
        let mut open: Vec<_> = snapshot.spans.iter().collect();
        while let Some(node) = open.pop() {
            if node.name.starts_with("stage_iv_") {
                stage_iv.insert(node.name.as_str());
            } else {
                open.extend(&node.children);
            }
        }
        if !stage_iv.is_empty() {
            let total = stage_iv.iter().filter_map(|n| snapshot.span_total_s(n)).sum();
            metrics.push(("stage_iv_s".to_owned(), total));
        }
        if let Some(node) = snapshot.find_span("pipeline") {
            if node.duration_s > 0.0 {
                metrics.push((
                    "records_per_s".to_owned(),
                    o.database.disengagements().len() as f64 / node.duration_s,
                ));
            }
        }
        let probes = snapshot.counter("cache.hit") + snapshot.counter("cache.miss");
        if probes > 0 {
            metrics.push((
                "cache_hit_rate".to_owned(),
                snapshot.counter("cache.hit") as f64 / probes as f64,
            ));
        }
        // Recorder self-overhead: flight-ring time / pipeline wall.
        // Gated by an absolute ceiling (not baseline-relative) so the
        // always-on recorder can never quietly grow past its budget.
        if let Some(frac) = snapshot.gauge("obs.overhead.frac") {
            metrics.push(("obs_overhead_frac".to_owned(), frac));
        }
        let body = disengage_bench::gate::envelope("disengage-bench/pipeline", &metrics).render();
        match std::fs::write(path, body) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let violations = reconcile(&snapshot);
    for v in &violations {
        eprintln!("telemetry reconciliation FAILED: {v}");
    }
    if !violations.is_empty() {
        // A non-reconciling run is a postmortem subject: dump the full
        // flight ring next to the error output.
        let suspects = flight::suspects(trace.provenance(), 8);
        match flight::write_dump(
            Path::new(flight::DEFAULT_DUMP_PATH),
            obs,
            Some(trace.flight_tasks()),
            "telemetry reconciliation failed",
            &suspects,
            false,
        ) {
            Ok(()) => eprintln!("wrote {} (postmortem)", flight::DEFAULT_DUMP_PATH),
            Err(e) => eprintln!("error: could not write {}: {e}", flight::DEFAULT_DUMP_PATH),
        }
    }

    // Health gate: evaluate the declarative rules (--health=FILE or the
    // built-in defaults) against the run's telemetry; a Fail-severity
    // breach fails the process and is recorded in chaos_report.json.
    let mut health_ok = true;
    let mut health_value: Option<String> = None;
    if let Some(rule_file) = &args.health {
        let rules = match rule_file {
            Some(path) => match std::fs::read_to_string(path)
                .map_err(|e| format!("{e}"))
                .and_then(|text| health::parse_rules(&text))
            {
                Ok(rules) => rules,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => health::default_rules(),
        };
        let verdict = health::evaluate(&rules, &snapshot);
        print!("{}", verdict.render());
        health_value = Some(verdict.to_value().render());
        if verdict.failed() {
            eprintln!("health gate FAILED");
            health_ok = false;
        }
    }

    // Chaos campaigns leave an auditable report on disk and must
    // account for every injected fault.
    let mut chaos_ok = true;
    if let Some(audit) = &o.chaos {
        if !audit.totals.reconciles() {
            eprintln!(
                "chaos ledger FAILED to reconcile: {} injected vs {} corrected + {} quarantined + {} absorbed",
                audit.totals.injected,
                audit.totals.corrected,
                audit.totals.quarantined,
                audit.totals.absorbed
            );
            chaos_ok = false;
        }
        let degraded: Vec<String> = deg.0.iter().map(|a| format!("\"{a}\"")).collect();
        let body = format!(
            "{{\"audit\":{},\"dict_dropped\":{},\"quarantine_records\":{},\"degraded_artifacts\":[{}],\"health\":{}}}",
            audit.to_json(),
            snapshot.counter("chaos.dict.dropped"),
            snapshot.counter("quarantine.records"),
            degraded.join(","),
            health_value.as_deref().unwrap_or("null")
        );
        let path = "chaos_report.json";
        match std::fs::write(path, body) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                chaos_ok = false;
            }
        }
    }

    // Provenance and execution-trace exports. The lineage log is
    // wall-clock-free and entry-ordered, so the file is byte-identical
    // across worker counts; the Chrome trace is wall-clock by nature
    // and only format-checked.
    if let Some(Some(path)) = &args.lineage {
        let prov = trace.provenance();
        match std::fs::write(path, prov.to_jsonl()) {
            Ok(()) => eprintln!("wrote {path} ({} events)", prov.len()),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.trace {
        let body = execution_trace_json(&snapshot, trace.timeline());
        match std::fs::write(path, body) {
            Ok(()) => eprintln!("wrote {path} ({} tasks)", trace.timeline().len()),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Observability exports: the canonical flight-recorder dump
    // (wall-clock-free, worker-count-independent — verify.sh diffs it
    // across --jobs) and the Prometheus/OpenMetrics exposition.
    if let Some(path) = &args.flight {
        let suspects = flight::suspects(trace.provenance(), 8);
        match flight::write_dump(
            Path::new(path),
            obs,
            None,
            "run complete",
            &suspects,
            true,
        ) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.prom {
        match std::fs::write(path, disengage_obs::render_prometheus(&snapshot)) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    match args.telemetry {
        TelemetryMode::Off => {}
        TelemetryMode::Tree => print!("{}", snapshot.render_tree()),
        TelemetryMode::Json | TelemetryMode::StableJson => {
            // stable-json zeroes every wall-clock field (and drops the
            // cache.* environment counters) so the file is
            // byte-comparable across runs, worker counts, and cache
            // temperatures.
            let body = if args.telemetry == TelemetryMode::StableJson {
                snapshot.clone().canonical().to_json()
            } else {
                snapshot.to_json()
            };
            let path = "repro_metrics.json";
            match std::fs::write(path, body) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => {
                    eprintln!("error: could not write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    if violations.is_empty() && chaos_ok && health_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print(text: String) {
    println!("{text}");
}

/// Arms a panic hook that dumps the full flight ring to `flight.json`
/// before the default hook prints the backtrace. Gated to the main
/// thread: pool-worker panics are caught by `par_map_catch` and
/// quarantined as part of normal chaos operation, so they must not
/// leave postmortem litter behind a successful run.
fn install_panic_dump(obs: &Arc<Collector>, tasks: &disengage_obs::TaskLog) {
    let hook_obs = Arc::clone(obs);
    let hook_tasks = tasks.clone();
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name() == Some("main") {
            let _ = flight::write_dump(
                Path::new(flight::DEFAULT_DUMP_PATH),
                &hook_obs,
                Some(&hook_tasks),
                "panic",
                &[],
                false,
            );
            eprintln!(
                "wrote {} (postmortem; inspect with `disengage doctor`)",
                flight::DEFAULT_DUMP_PATH
            );
        }
        default_hook(info);
    }));
}

/// Parses `--crash-campaign=TRIALS[,SEED]` (seed defaults to `0xC4A54`).
fn parse_crash_campaign(v: &str) -> Result<(usize, u64), String> {
    let (trials, seed) = match v.split_once(',') {
        Some((n, s)) => (n, Some(s)),
        None => (v, None),
    };
    let trials: usize = trials
        .trim()
        .parse()
        .map_err(|_| format!("`{v}` is not TRIALS[,SEED] (e.g. 25 or 25,7)"))?;
    if trials == 0 {
        return Err("at least one trial is required".to_owned());
    }
    let seed = match seed {
        Some(s) => s
            .trim()
            .parse()
            .map_err(|_| format!("`{v}` has a non-numeric SEED"))?,
        None => 0xC4A54,
    };
    Ok((trials, seed))
}

/// Runs the crash-recovery campaign, writes `crash_report.json`, and
/// maps the verdict to the process exit code. Trial caches live under
/// `--cache-dir` when given, else `.disengage-crash-cache`; passing
/// trials clean up after themselves, a failing trial's directory stays
/// behind for inspection.
fn run_crash_campaign(
    config: &disengage_core::RunConfig,
    trials: usize,
    seed: u64,
    cache_dir: Option<PathBuf>,
) -> ExitCode {
    let root = cache_dir.unwrap_or_else(|| PathBuf::from(".disengage-crash-cache"));
    eprintln!(
        "crash campaign: {trials} trial(s), seed {seed:#x}, cache root {}",
        root.display()
    );
    let report =
        match disengage_bench::crash::run_crash_campaign(config, trials, seed, &root, |line| {
            eprintln!("{line}")
        }) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
    let (replayed, recomputed, retried, absorbed, reclaimed) = report.totals();
    eprintln!(
        "crash campaign: {}/{} trials recovered byte-identically \
         ({replayed} replayed, {recomputed} recomputed, {retried} faults retried, \
         {absorbed} absorbed, {reclaimed} files reclaimed)",
        report.passed(),
        report.trials.len(),
    );
    let path = "crash_report.json";
    if let Err(e) = std::fs::write(path, report.to_json()) {
        eprintln!("error: could not write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {path}");
    if report.all_passed() {
        // Every per-trial directory is already gone; drop the root.
        let _ = std::fs::remove_dir_all(&root);
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
