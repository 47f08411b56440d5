//! Experiment drivers regenerating the paper's evaluation (§7).
//!
//! Each submodule produces the rows/series of one published artifact;
//! the `vpm` subcommands and the runnable examples call into these
//! drivers so figures are regenerated from one code path.
//!
//! | driver | artifact |
//! |--------|----------|
//! | [`fig2`] | Figure 2: delay-estimation accuracy vs sampling rate × loss |
//! | [`fig3`] | Figure 3: loss-computation granularity vs loss rate |
//! | [`verifiability`] | §7.2 "Verifiability": cross-domain verification accuracy |
//! | [`ablation`] | design-choice ablations (future-marker keying, AggTrans) |

pub mod ablation;
pub mod fig2;
pub mod fig3;
pub mod verifiability;
