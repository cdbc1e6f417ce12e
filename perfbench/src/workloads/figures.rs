//! `figures`: the paper-reproduction user's run — Table 1 and Figs. 3,
//! 7, 8 and 9 through the public experiment drivers, at paper scale,
//! sequentially (sweeps never spawn threads here).
//!
//! One operation regenerates the whole set of five; the end-to-end
//! metrics describe the first [`SETS_PER_S`] × window sets (at least one). (An experiment alone is a poor unit:
//! the median of five unlike experiments is one experiment's single
//! time, which read 0.57 s or 0.75 s from run to run.) Set-up is a
//! warm-up pass of the same five experiments at quick scale. Every
//! result is checked against the paper's qualitative claims, and every
//! set after the first must regenerate byte-identical tables.

use std::time::Instant;

use bristle_netsim::transit_stub::TransitStubConfig;
use bristle_proto::transport::FaultConfig;
use bristle_sim::experiments::{fig3, fig7, fig8, fig9, table1};

use crate::checks::{self, Verdict};
use crate::metrics::{json_num, json_str, Outcome};
use crate::stats::{median, nanos_since};
use crate::workloads::{build_messaging, traced_probe};
use crate::{quota, repeated_setup, Args, Recorder};

/// The five experiments, in run order.
pub const EXPERIMENTS: [&str; 5] = ["table1", "fig3", "fig7", "fig8", "fig9"];

/// Sets per second of window that the end-to-end metrics cover: one per
/// 12.5 s, about what a set takes, so every set a window holds counts.
pub const SETS_PER_S: f64 = 0.08;

/// One configuration per experiment.
#[derive(Debug, Clone)]
pub struct Configs {
    t1: table1::Table1Config,
    f3: fig3::Fig3Config,
    f7: fig7::Fig7Config,
    f8: fig8::Fig8Config,
    f9: fig9::Fig9Config,
}

/// Experiment scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Populations small enough for tests (those of `experiment_shapes`).
    Smoke,
    /// The drivers' `quick()` scale.
    Quick,
    /// The drivers' `paper()` scale.
    Paper,
}

impl Configs {
    /// Every experiment at `scale`, seeded with `seed`, sweeps sequential.
    pub fn new(scale: Scale, seed: u64) -> Configs {
        let mut c = match scale {
            Scale::Paper => Configs {
                t1: table1::Table1Config::paper(),
                f3: fig3::Fig3Config::paper(),
                f7: fig7::Fig7Config::paper(),
                f8: fig8::Fig8Config::paper(),
                f9: fig9::Fig9Config::paper(),
            },
            Scale::Quick => Configs {
                t1: table1::Table1Config::quick(),
                f3: fig3::Fig3Config::quick(),
                f7: fig7::Fig7Config::quick(),
                f8: fig8::Fig8Config::quick(),
                f9: fig9::Fig9Config::quick(),
            },
            Scale::Smoke => Configs {
                t1: table1::Table1Config {
                    n_stationary: 60,
                    n_mobile: 25,
                    moves: 40,
                    lookups: 60,
                    agent_failure_prob: 0.2,
                    move_interval: 25,
                    topology: TransitStubConfig::tiny(),
                    seed,
                },
                f3: fig3::Fig3Config {
                    measured_n: 200,
                    fractions: vec![0.2, 0.5, 0.8],
                    ..fig3::Fig3Config::quick()
                },
                f7: fig7::Fig7Config {
                    n_stationary: 80,
                    fractions: vec![0.0, 0.3, 0.5, 0.8],
                    routes: 150,
                    topology: TransitStubConfig::tiny(),
                    ..fig7::Fig7Config::quick()
                },
                f8: fig8::Fig8Config {
                    n_nodes: 400,
                    max_capacities: vec![1, 8, 15],
                    tree_sample: Some(150),
                    detail_trees: 10,
                    ..fig8::Fig8Config::quick()
                },
                f9: fig9::Fig9Config {
                    max_nodes: 240,
                    fractions: vec![0.25, 1.0],
                    tree_sample: Some(120),
                    topology: TransitStubConfig::tiny(),
                    ..fig9::Fig9Config::quick()
                },
            },
        };
        c.t1.seed = seed;
        c.f3.seed = seed;
        c.f7.seed = seed;
        c.f8.seed = seed;
        c.f9.seed = seed;
        c.f7.parallel = false;
        c.f9.parallel = false;
        c
    }
}

/// What one experiment produced.
#[derive(Debug, Clone)]
pub struct Produced {
    /// The paper's claims, checked.
    pub verdict: Verdict,
    /// Digest of the rendered tables.
    pub digest: u64,
    /// Table 1's Bristle messages per move (Table 1 only).
    pub msgs_per_move: Option<f64>,
}

/// Runs experiment `which` (an index into [`EXPERIMENTS`]).
pub fn run_experiment(which: usize, c: &Configs) -> Produced {
    let (verdict, text, msgs_per_move) = match which {
        0 => {
            let r = table1::run(&c.t1);
            let bristle = r.systems.iter().find(|s| s.name == "Bristle").map(|s| s.msgs_per_move);
            (checks::table1_claims(&r), table1::to_table(&r).render(), bristle)
        }
        1 => {
            let r = fig3::run(&c.f3);
            (checks::fig3_claims(&r), fig3::to_table(&r).render(), None)
        }
        2 => {
            let r = fig7::run(&c.f7);
            let text = fig7::to_table_hops(&r).render() + &fig7::to_table_rdp(&r).render();
            (checks::fig7_claims(&r), text, None)
        }
        3 => {
            let r = fig8::run(&c.f8);
            let text = fig8::to_table_levels(&r).render() + &fig8::to_table_detail(&r).render();
            (checks::fig8_claims(&r), text, None)
        }
        _ => {
            let r = fig9::run(&c.f9);
            (checks::fig9_claims(&r), fig9::to_table(&r).render(), None)
        }
    };
    Produced { verdict, digest: checks::digest(&text), msgs_per_move }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let (warmup, timed) =
        if args.smoke { (Scale::Smoke, Scale::Smoke) } else { (Scale::Quick, Scale::Paper) };
    let ((configs, warmup_violations), setup_s) = repeated_setup(args.smoke, |_| {
        let warm = Configs::new(warmup, args.seed);
        let violations: Vec<String> = (0..EXPERIMENTS.len())
            .filter_map(|which| run_experiment(which, &warm).verdict.err())
            .map(|e| format!("warm-up: {e}"))
            .collect();
        (Configs::new(timed, args.seed), violations)
    });

    let mut per_exp: Vec<Vec<f64>> = vec![Vec::new(); EXPERIMENTS.len()];
    let mut digests: Vec<Option<u64>> = vec![None; EXPERIMENTS.len()];
    let mut msgs_per_move = 0.0;
    let mut rec = Recorder::start(args.seconds, quota(args.seconds, SETS_PER_S));
    rec.violations.extend(warmup_violations);
    while !rec.expired() {
        let set_start = Instant::now();
        let mut ok = true;
        for (which, name) in EXPERIMENTS.iter().enumerate() {
            let t0 = Instant::now();
            let mut produced = run_experiment(which, &configs);
            per_exp[which].push(t0.elapsed().as_secs_f64());
            if args.corrupt && rec.attempted() == 0 {
                produced.digest ^= 1;
                produced.verdict = Err(format!("{name}: deliberately corrupted result"));
            }
            let reference = *digests[which].get_or_insert(produced.digest);
            let same = checks::same_digest(reference, produced.digest, name);
            ok &= produced.verdict.is_ok() && same.is_ok();
            rec.violation(produced.verdict);
            rec.violation(same);
            if let Some(m) = produced.msgs_per_move {
                msgs_per_move = m;
            }
        }
        rec.op(nanos_since(set_start), ok, || 0);
    }
    let window_s = rec.elapsed_s();
    let mut outcome = rec.finish(0);
    outcome.values.set("setup_s", setup_s);
    outcome.values.set("msgs_per_op", msgs_per_move);

    let split: Vec<String> = EXPERIMENTS
        .iter()
        .zip(&per_exp)
        .map(|(name, times)| {
            format!("{}: {}", json_str(&format!("{name}_s")), json_num(median(times)))
        })
        .collect();
    let digest = digests.iter().fold(0u64, |h, d| h.rotate_left(13) ^ d.unwrap_or(0));
    outcome
        .notes
        .push(format!("{{\"figures\": {{{}, \"digest\": \"{digest:016x}\"}}}}", split.join(", ")));

    if args.trace {
        // No messaging system runs here: the layers are measured on a
        // probe system on the paper's ≈10k-router topology, driven by the
        // same call mix the other workloads' traced runs fill in.
        let (stationary, mobile, topology) = if args.smoke {
            (160, 40, TransitStubConfig::small())
        } else {
            (2_400, 600, TransitStubConfig::paper())
        };
        let probe =
            build_messaging(args.seed, stationary, mobile, topology, FaultConfig::perfect());
        traced_probe(args, probe, window_s, None, &mut outcome);
    }
    outcome
}
