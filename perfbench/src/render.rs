//! Stage IV: every artifact the `repro` harness prints, rendered to text
//! through the public `core::{tables, figures, questions, exposure,
//! whatif}` analyses and `core::report::render_*`.
//!
//! The text matches what `repro` prints for each artifact. An analysis
//! that `repro` would print as DEGRADED is an error here: a benchmark
//! iteration must reproduce every artifact in full.

use disengage_core::tagging::{tagging_accuracy, TaggedDisengagement};
use disengage_core::{exposure, figures, questions, report, tables, whatif, Result};
use disengage_nlp::{Classifier, FaultTag};
use disengage_reports::{FailureDatabase, Manufacturer};
use std::fmt::Write as _;

/// Every artifact, in `repro` order (25).
pub const ARTIFACTS: [&str; 25] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "fig4", "fig5",
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "q1", "q2", "q3", "q4", "q5",
    "exposure", "whatif", "accuracy",
];

/// What Stage IV reads: the merged database, the Stage III verdicts,
/// the generator's intended tags, and the classifier Table II samples.
pub struct Inputs<'a> {
    pub database: &'a FailureDatabase,
    pub tagged: &'a [TaggedDisengagement],
    pub intended: &'a [FaultTag],
    pub classifier: &'a Classifier,
}

/// Renders every artifact and concatenates the texts.
pub fn render_all(x: &Inputs) -> Result<String> {
    let mut out = String::new();
    for name in ARTIFACTS {
        out.push_str(&render(name, x)?);
        out.push('\n');
    }
    Ok(out)
}

/// Renders one artifact by name.
///
/// # Panics
///
/// Panics on a name outside [`ARTIFACTS`].
pub fn render(name: &str, x: &Inputs) -> Result<String> {
    let db = x.database;
    let tagged = x.tagged;
    Ok(match name {
        "table1" => report::render_table(
            "Table I: fleet, miles, disengagements, accidents",
            &tables::table1(db)?,
        ),
        "table2" => report::render_table(
            "Table II: sample raw logs with recovered tags",
            &tables::table2(x.classifier)?,
        ),
        "table3" => {
            report::render_table("Table III: fault tags and categories", &tables::table3()?)
        }
        "table4" => report::render_table(
            "Table IV: disengagements by failure category (%)",
            &tables::table4(tagged)?,
        ),
        "table5" => report::render_table(
            "Table V: disengagements by modality (%)",
            &tables::table5(db)?,
        ),
        "table6" => report::render_table("Table VI: accidents and DPA", &tables::table6(db)?),
        "table7" => report::render_table(
            "Table VII: reliability vs human drivers",
            &tables::table7(db)?,
        ),
        "table8" => report::render_table(
            "Table VIII: reliability vs other safety-critical systems",
            &tables::table8(db)?,
        ),
        "fig4" => report::render_fig4(&figures::fig4(db)?),
        "fig5" => {
            let mut out = String::from("== Figure 5: cumulative disengagements vs miles ==\n");
            for s in &figures::fig5(db) {
                if let Some(fit) = &s.fit {
                    let _ = writeln!(
                        out,
                        "{:<16} final ({:>10.0} mi, {:>5.0} dis)  log-log slope {:.2}",
                        s.manufacturer.name(),
                        s.points.last().map_or(0.0, |p| p.0),
                        s.points.last().map_or(0.0, |p| p.1),
                        fit.exponent
                    );
                }
            }
            out
        }
        "fig6" => {
            let f = figures::fig6(tagged);
            let mut out = String::from("== Figure 6: fault-tag fractions per manufacturer ==\n");
            for (m, stack) in &f.stacks {
                let _ = writeln!(out, "{}:", m.name());
                let mut sorted = stack.clone();
                sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
                for (tag, frac) in sorted.iter().take(5) {
                    let _ = writeln!(out, "    {:<32} {:>5.1}%", tag.to_string(), frac * 100.0);
                }
            }
            out
        }
        "fig7" => {
            let f = figures::fig7(db)?;
            let mut out = String::from("== Figure 7: per-car DPM by manufacturer and year ==\n");
            for (m, year, b) in &f.panels {
                let _ = writeln!(
                    out,
                    "{:<16} {}  median {:.6}  iqr {:.6}",
                    m.name(),
                    year,
                    b.median,
                    b.iqr()
                );
            }
            out
        }
        "fig8" => report::render_fig8(&figures::fig8(db)?),
        "fig9" => {
            let mut out = String::from("== Figure 9: DPM vs cumulative miles (fits) ==\n");
            for s in &figures::fig9(db) {
                if let Some(fit) = &s.fit {
                    let _ = writeln!(
                        out,
                        "{:<16} log-log slope {:.2} over {} months",
                        s.manufacturer.name(),
                        fit.exponent,
                        s.points.len()
                    );
                }
            }
            out
        }
        "fig10" => report::render_fig10(&figures::fig10(db)?),
        "fig11" => {
            let mut out = String::new();
            for m in [Manufacturer::MercedesBenz, Manufacturer::Waymo] {
                out.push_str(&report::render_fig11(&figures::fig11(db, m)?));
            }
            out
        }
        "fig12" => {
            let mut out = String::new();
            for kind in [
                figures::SpeedKind::Av,
                figures::SpeedKind::Manual,
                figures::SpeedKind::Relative,
            ] {
                out.push_str(&report::render_fig12(&figures::fig12(db, kind)?));
            }
            out
        }
        "q1" => report::render_q1(&questions::q1_assessment(db)?),
        "q2" => report::render_q2(&questions::q2_causes(tagged)),
        "q3" => report::render_q3(&questions::q3_dynamics(db)?),
        "q4" => report::render_q4(&questions::q4_alertness(db)?),
        "q5" => report::render_q5(&questions::q5_comparison(db)?),
        "exposure" => render_exposure(db, tagged),
        "whatif" => render_whatif(db),
        "accuracy" => {
            let acc = tagging_accuracy(tagged, x.intended);
            format!(
                "== Stage III evaluation against generator ground truth ==\n\
                 tag accuracy: {:.1}%  category accuracy: {:.1}%  (n = {})\n",
                acc.tag_accuracy * 100.0,
                acc.category_accuracy * 100.0,
                acc.n
            )
        }
        other => panic!("unknown artifact {other}"),
    })
}

fn render_exposure(db: &FailureDatabase, tagged: &[TaggedDisengagement]) -> String {
    let mut out = String::from("== Exposure: road/weather context (SIII-C, SVI) ==\n");
    for (rt, frac) in &exposure::road_type_mix(db) {
        let _ = writeln!(out, "road {:<14} {:>5.1}%", rt.to_string(), frac * 100.0);
    }
    for (w, frac) in &exposure::weather_mix(db) {
        let _ = writeln!(out, "weather {:<11} {:>5.1}%", w.to_string(), frac * 100.0);
    }
    let coverage = exposure::field_coverage(db);
    let _ = writeln!(
        out,
        "field coverage: road {:.0}%, weather {:.0}%, reaction {:.0}% of {} records",
        coverage.road_type * 100.0,
        coverage.weather * 100.0,
        coverage.reaction_time * 100.0,
        coverage.n
    );
    let _ = match exposure::modality_association(db) {
        Ok(t) => writeln!(
            out,
            "modality x manufacturer chi-square = {:.0} (df {}, p = {:.2e})",
            t.statistic, t.df, t.p_value
        ),
        Err(e) => writeln!(out, "modality association DEGRADED: {e}"),
    };
    let _ = match exposure::category_association(tagged) {
        Ok(t) => writeln!(
            out,
            "category x manufacturer chi-square = {:.0} (df {}, p = {:.2e})",
            t.statistic, t.df, t.p_value
        ),
        Err(e) => writeln!(out, "category association DEGRADED: {e}"),
    };
    out
}

fn render_whatif(db: &FailureDatabase) -> String {
    let mut out = String::from("== What-if projections (SV-C1) ==\n");
    for m in [
        Manufacturer::Waymo,
        Manufacturer::Nissan,
        Manufacturer::GmCruise,
    ] {
        let _ = match whatif::miles_to_target_dpm(db, m, 1e-4) {
            Ok(p) => writeln!(
                out,
                "{:<14} DPM ~ miles^{:+.2}; extra miles to 1e-4: {}",
                m.name(),
                p.fit.exponent,
                p.additional_miles()
                    .map_or("never".to_owned(), |x| format!("{x:.0}"))
            ),
            Err(e) => writeln!(out, "{:<14} DEGRADED: {e}", m.name()),
        };
    }
    if let Ok(g) = whatif::demonstration_gap(db, 0.95) {
        let _ = writeln!(
            out,
            "demonstrating human-level safety at 95%: {:.2}M failure-free miles ({:.1}x this program)",
            g.required_miles / 1e6,
            g.programs_needed
        );
    }
    if let Ok(p) = whatif::fleet_scale_projection(2.35e-5) {
        let _ = writeln!(
            out,
            "fleet-scale at today's best APM: {:.1}M accidents/year ({:.0}x aviation)",
            p.annual_av_accidents / 1e6,
            p.ratio_to_aviation
        );
    }
    out
}
