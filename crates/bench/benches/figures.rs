//! One bench per paper figure: the cost of computing each figure's data
//! series (box statistics, regressions, correlations, MLE fits).

use disengage_bench::{bench_outcome, full_scale_outcome, timing};
use disengage_core::figures;
use disengage_reports::Manufacturer;

fn main() {
    let o = bench_outcome();
    let mut g = timing::group("figures");
    g.sample_size(20);
    g.bench("fig4_dpm_boxes", || figures::fig4(&o.database).expect("fig4"));
    g.bench("fig5_cumulative_fits", || figures::fig5(&o.database));
    g.bench("fig6_tag_stacks", || figures::fig6(&o.tagged));
    g.bench("fig7_yearly_boxes", || {
        figures::fig7(&o.database).expect("fig7")
    });
    g.bench("fig8_loglog_correlation", || {
        figures::fig8(&o.database).expect("fig8")
    });
    g.bench("fig9_dpm_fits", || figures::fig9(&o.database));
    g.bench("fig10_reaction_boxes", || {
        figures::fig10(&o.database).expect("fig10")
    });
    g.bench("fig11_weibull_fit_waymo", || {
        figures::fig11(&o.database, Manufacturer::Waymo).expect("fig11")
    });
    // The paper's larger panel, on the full-scale corpus (n ≈ 1,330).
    let full = full_scale_outcome();
    g.bench("fig11_weibull_fit_benz", || {
        figures::fig11(&full.database, Manufacturer::MercedesBenz).expect("fig11")
    });
    g.bench("fig12_speed_fits", || {
        for kind in [
            figures::SpeedKind::Av,
            figures::SpeedKind::Manual,
            figures::SpeedKind::Relative,
        ] {
            figures::fig12(&o.database, kind).expect("fig12");
        }
    });
}
