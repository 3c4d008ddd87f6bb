//! # experiments — regenerating the paper's evaluation
//!
//! One module per table/figure. Each `run` function returns a structured
//! [`report::Experiment`] with modeled-vs-actual rows and notes; the
//! `run_experiments` binary prints them all and emits the markdown body
//! of EXPERIMENTS.md.
//!
//! | Paper item | Module |
//! |---|---|
//! | Tables 1–4 (intro example) | [`tables_intro`] |
//! | Figure 1 (CM2 transfers, p = 0/3) | [`fig1`] |
//! | Figure 2 (instruction interleaving) | [`fig2`] |
//! | Figure 3 (GE on the CM2, crossover) | [`fig3`] |
//! | Figure 4 (dedicated bursts, 1-HOP/2-HOPS) | [`fig4`] |
//! | Figures 5–6 (non-dedicated bursts) | [`fig56`] |
//! | Figures 7–8 (SOR on the Sun, j-sensitivity) | [`fig78`] |
//! | §3.1/§3.2 synthetic-suite claims | [`synthetic`] |
//! | §1's load-characteristics argument | [`load_chars`] |
//! | §4's time-varying-load future work | [`phased_load`] |
//! | §2's rank-candidate-schedules purpose | [`ranking`] |
//! | online forecasting (loadcast replay) | [`forecast_replay`] |

#![warn(missing_docs)]

pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig56;
pub mod fig78;
pub mod forecast_replay;
pub mod load_chars;
pub mod par;
pub mod phased_load;
pub mod ranking;
pub mod report;
pub mod scenarios;
pub mod setup;
pub mod synthetic;
pub mod tables_intro;
