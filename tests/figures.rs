//! The §7.2 figures through the public facade: every quick table is
//! pinned byte for byte under `tests/golden/`, the paper's qualitative
//! claims hold on the pinned numbers, and the §6.3 `AggTrans` windows
//! are what keep a reordering domain's loss count exact.

use vpm::core::verify::{join_aggregates, JoinResult};
use vpm::netsim::channel::ChannelConfig;
use vpm::netsim::reorder::ReorderModel;
use vpm::packet::{HopId, SimDuration};
use vpm::sim::figures::{self, Fig2Config, Fig2Point, Fig3Config, Fig3Point, VerifiabilityConfig};
use vpm::sim::{Figure1, RunConfig, Scenario};
use vpm::trace::TraceConfig;

/// Compare `table` with `tests/golden/<name>`. Regenerate (after a
/// change that is meant to move the numbers) with
/// `UPDATE_GOLDEN=1 cargo test --test figures table_renders`.
fn check_golden(name: &str, table: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, table).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path).expect("read golden");
    assert_eq!(table, golden, "{name} drifted from its golden file");
}

fn fig2_at(points: &[Fig2Point], rate: f64, loss: f64) -> &Fig2Point {
    points
        .iter()
        .find(|p| p.sampling_rate == rate && p.loss_rate == loss)
        .expect("the configuration has this cell")
}

#[test]
fn fig2_quick_run_shapes() {
    let cfg = Fig2Config::quick(3);
    let points = figures::fig2(&cfg);
    assert_eq!(
        points.len(),
        cfg.sampling_rates.len() * cfg.loss_rates.len()
    );
    for p in &points {
        assert!(p.accuracy_ms.is_finite(), "{p:?}");
        assert!(p.matched > 0, "{p:?}");
    }
}

/// At a fixed loss, 5 % sampling beats 1 % (2× slack for one seed's
/// noise).
#[test]
fn fig2_more_sampling_is_more_accurate() {
    let cfg = Fig2Config::quick(5);
    let points = figures::fig2(&cfg);
    for &loss in &cfg.loss_rates {
        let (hi, lo) = (fig2_at(&points, 0.05, loss), fig2_at(&points, 0.01, loss));
        assert!(
            hi.accuracy_ms <= lo.accuracy_ms * 2.0 + 0.3,
            "{hi:?} vs {lo:?}"
        );
    }
}

#[test]
fn fig2_loss_degrades_match_count() {
    let points = figures::fig2(&Fig2Config::quick(7));
    assert!(fig2_at(&points, 0.05, 0.25).matched < fig2_at(&points, 0.05, 0.0).matched);
}

#[test]
fn fig2_table_renders_all_cells() {
    let table = figures::render_fig2(&figures::fig2(&Fig2Config::quick(5)));
    check_golden("fig2_quick.txt", &table);
    assert!(table.contains("Figure 2"));
    assert!(table.contains("5.0%"));
    assert!(table.contains("25%"));
    assert!(!table.contains("n/a"));
}

#[test]
fn averaging_reduces_to_single_run_for_one_seed() {
    let cfg = Fig2Config::quick(11);
    let single = figures::fig2(&cfg);
    let averaged = figures::fig2_averaged(&cfg, 1);
    assert_eq!(single.len(), averaged.len());
    for (a, b) in single.iter().zip(&averaged) {
        assert_eq!((a.accuracy_ms, a.matched), (b.accuracy_ms, b.matched));
    }
}

/// Figure 2 degrades smoothly: on means of 3 seeds at 5 % sampling,
/// more loss does not *improve* accuracy beyond noise.
#[test]
fn averaged_accuracy_monotone_in_loss_at_fixed_rate() {
    let points = figures::fig2_averaged(&Fig2Config::quick(13), 3);
    let acc = |loss| fig2_at(&points, 0.05, loss).accuracy_ms;
    assert!(acc(0.25) + 0.4 >= acc(0.0), "loss improved accuracy?");
}

fn fig3_at(points: &[Fig3Point], loss: f64) -> &Fig3Point {
    points
        .iter()
        .find(|p| p.loss_rate == loss)
        .expect("the configuration has this loss rate")
}

/// With no loss every aggregate joins 1:1: granularity is the
/// aggregate size and the computed loss is zero.
#[test]
fn fig3_no_loss_granularity_equals_aggregate_size() {
    let cfg = Fig3Config::quick(1);
    let points = figures::fig3(&cfg);
    let p0 = fig3_at(&points, 0.0);
    let size = cfg.aggregate_size as f64;
    assert!((p0.granularity_pkts - size).abs() < 0.35 * size, "{p0:?}");
    assert!(p0.computed_loss.abs() < 1e-9, "{p0:?}");
}

/// Granularity grows with loss, boundedly: the paper sees 1.5× the
/// base granularity at 25 % loss; allow up to ~2.5×.
#[test]
fn fig3_granularity_degrades_smoothly_with_loss() {
    let points = figures::fig3(&Fig3Config::quick(2));
    let g = |loss| fig3_at(&points, loss).granularity_pkts;
    assert!(g(0.25) >= g(0.0) * 0.99, "{points:?}");
    assert!(g(0.25) < g(0.0) * 2.5, "{points:?}");
    assert!(g(0.50) >= g(0.25) * 0.9, "{points:?}");
    assert!(g(0.50) < g(0.0) * 5.0, "{points:?}");
}

/// The joined receipts recover the injected loss rate.
#[test]
fn fig3_computed_loss_tracks_injected_loss() {
    for p in &figures::fig3(&Fig3Config::quick(3)) {
        assert!(p.joined > 5, "{p:?}");
        assert!((p.computed_loss - p.loss_rate).abs() < 0.05, "{p:?}");
    }
}

#[test]
fn fig3_table_renders() {
    let table = figures::render_fig3(&figures::fig3(&Fig3Config::quick(2)));
    check_golden("fig3_quick.txt", &table);
    assert!(table.contains("Figure 3"));
    assert!(table.lines().count() >= 5);
}

/// Fewer neighbour samples match fewer packets and do not verify
/// better.
#[test]
fn verifiability_lower_neighbor_rate_worsens_verification() {
    let points = figures::verifiability(&VerifiabilityConfig::quick(3));
    let [hi, lo] = points.as_slice() else {
        panic!("two neighbour rates, got {points:?}");
    };
    assert!(hi.matched_verify > lo.matched_verify);
    assert!(
        lo.verify_accuracy_ms >= hi.verify_accuracy_ms * 0.8,
        "{lo:?} vs {hi:?}"
    );
}

/// Neighbours at `X`'s own rate verify within ~3× of `X`'s own
/// accuracy: the same information content on a different segment.
#[test]
fn verifiability_matched_neighbor_rate_verifies_at_self_accuracy() {
    let points = figures::verifiability(&VerifiabilityConfig::quick(5));
    let p = &points[0];
    assert!(
        p.verify_accuracy_ms <= p.self_accuracy_ms * 3.0 + 0.5,
        "{p:?}"
    );
}

#[test]
fn verifiability_table_renders() {
    let table =
        figures::render_verifiability(&figures::verifiability(&VerifiabilityConfig::quick(5)));
    check_golden("verifiability_quick.txt", &table);
    assert!(table.contains("Verifiability"));
}

/// §6.3 ablation: `X` loses nothing but reorders packets across
/// aggregate boundaries (held back < `J`). The collector's join
/// re-aligns the counts through the `AggTrans` windows and finds no
/// loss; the same receipts with their windows stripped disagree.
#[test]
fn aggtrans_fixes_reordering_miscounts() {
    let abs_error =
        |j: &JoinResult| -> u64 { j.joined.iter().map(|a| a.lost.unsigned_abs()).sum() };
    for seed in [1, 2, 3, 5] {
        let trace = TraceConfig {
            target_pps: 50_000.0,
            duration: SimDuration::from_millis(800),
            ..TraceConfig::paper_default(1, seed)
        };
        let reorder = ReorderModel {
            p_reorder: 0.3,
            max_shift: SimDuration::from_micros(800),
        };
        let x_transit = ChannelConfig {
            reorder,
            seed,
            ..ChannelConfig::ideal(SimDuration::from_micros(300))
        };
        let topology = Figure1 {
            x_transit,
            ..Figure1::ideal()
        }
        .build();
        let cfg = RunConfig {
            aggregate_size: 500,
            j_window: SimDuration::from_millis(1),
            ..RunConfig::default()
        };
        let (run, analysis) = Scenario::new(trace, topology, cfg).evaluate();
        let aligned = &analysis.domain("X").unwrap().estimate.join;
        let stripped = |hop| {
            let mut aggregates = run.hop(HopId(hop)).unwrap().batch.aggregates.clone();
            aggregates.iter_mut().for_each(|a| a.agg_trans.clear());
            aggregates
        };
        let unaligned = join_aggregates(&stripped(4), &stripped(5));
        assert!(
            aligned.joined.len() > 10 && aligned.alignments_applied > 0,
            "seed {seed}"
        );
        assert_eq!(abs_error(aligned), 0, "seed {seed}: windows must align");
        assert!(
            abs_error(&unaligned) > 0,
            "seed {seed}: no miscount without windows?"
        );
    }
}
