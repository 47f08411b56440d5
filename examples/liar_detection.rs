//! Liar detection: the §3.1 exposure story, end to end.
//!
//! Domain X drops 20% of the traffic it carries, then lies: its egress
//! HOP fabricates receipts claiming everything was delivered to N with
//! a pleasant 200 µs transit. The run shows three acts:
//!
//!   1. honest world — every link consistent, X's loss measured;
//!   2. X lies alone — the X→N link becomes inconsistent; the
//!      inconsistency implicates exactly {X, N}, and N (who knows it
//!      didn't receive those packets) knows X is the liar;
//!   3. N colludes and covers for X — the X→N link looks clean again,
//!      but now N's own books show the loss: covering a neighbor's lie
//!      means taking the blame yourself.
//!
//! Run: `cargo run --release --example liar_detection`

use vpm::netsim::channel::{ChannelConfig, DelayModel};
use vpm::netsim::reorder::ReorderModel;
use vpm::packet::SimDuration;
use vpm::sim::run::RunConfig;
use vpm::sim::topology::{Figure1, Topology};
use vpm::sim::verdict::PathAnalysis;
use vpm::sim::{Lie, Scenario};
use vpm::trace::TraceConfig;

fn report(title: &str, topo: &Topology, analysis: &PathAnalysis) {
    println!("\n=== {title} ===");
    for d in &analysis.domains {
        let s = d.summary();
        println!(
            "  {:>2}: loss {:>6.2}%  ({} matched samples)",
            s.name,
            s.loss_rate.unwrap_or(f64::NAN) * 100.0,
            s.matched_samples
        );
    }
    let flagged = analysis.flagged_links();
    if flagged.is_empty() {
        println!("  links: all consistent");
    } else {
        for l in flagged {
            let (a, b) = l.implicates;
            let name = |id| {
                topo.domains
                    .iter()
                    .find(|d| d.id == id)
                    .map(|d| d.name.clone())
                    .unwrap_or_default()
            };
            println!(
                "  link {}→{}: INCONSISTENT ({} violations) — implicates {{{}, {}}}",
                l.up,
                l.down,
                l.report.inconsistencies.len(),
                name(a),
                name(b)
            );
        }
    }
}

fn main() {
    // X drops 20% of everything it carries.
    let mut fig = Figure1::ideal();
    fig.x_transit = ChannelConfig {
        delay: DelayModel::Constant(SimDuration::from_micros(200)),
        loss: Some((0.20, 5.0)),
        reorder: ReorderModel::none(),
        seed: 3,
    };
    let honest = Scenario::new(
        TraceConfig {
            target_pps: 100_000.0,
            duration: SimDuration::from_millis(500),
            ..TraceConfig::paper_default(1, 23)
        },
        fig.build(),
        RunConfig {
            sampling_rate: 0.02,
            aggregate_size: 2_000,
            ..RunConfig::default()
        },
    );
    let topo = &honest.topology;
    let blame_shift = Lie::BlameShift {
        liar: "X",
        claimed_delay: SimDuration::from_micros(200),
    };
    let lying = |lies| Scenario {
        lies,
        ..honest.clone()
    };

    // Act 1: honesty.
    report("Act 1: everyone honest", topo, &honest.evaluate().1);
    println!("  → X's 20% loss is on the record; nobody is implicated falsely.");

    // Act 2: X lies alone.
    let a2 = lying(vec![blame_shift]).evaluate().1;
    report("Act 2: X fabricates delivery receipts", topo, &a2);
    println!(
        "  → X's own books look clean now, but the X→N link screams: N never\n    acknowledged those packets. The rest of the world sees {{X, N}}; N knows\n    exactly who lied (it was implicated)."
    );

    // Act 3: N covers for X.
    let a3 = lying(vec![blame_shift, Lie::CoverUp { accomplice: "N" }])
        .evaluate()
        .1;
    report("Act 3: N colludes and covers the lie", topo, &a3);
    println!(
        "  → The X→N link is quiet, but the loss did not vanish: N's ingress now\n    claims packets its egress never delivered, so the books pin X's loss on N.\n    Colluding with a liar means absorbing the liar's losses (§3.1)."
    );
}
