//! `loopback`: the sim-vs-socket conformance scenario over real
//! nonblocking UDP loopback sockets — the only workload that reaches
//! `bristle-net` and the datagram codec boundary.
//!
//! Set-up computes the simulator's reference report for each of
//! [`SCENARIOS`] seeds drawn from the run's seed; each operation runs one
//! scenario over sockets and compares it with its reference.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bristle_netsim::rng::Pcg64;
use bristle_netsim::transit_stub::TransitStubConfig;
use bristle_proto::transport::FaultConfig;
use bristle_sim::conformance::{run_sim, run_sockets, ConformanceReport};

use crate::checks;
use crate::metrics::Outcome;
use crate::stats::{nanos_since, Mean};
use crate::workloads::{build_messaging, traced_probe};
use crate::{quota, repeated_setup, Args, Recorder};

/// Scenario seeds per run.
pub const SCENARIOS: usize = 32;

/// Scenarios per second of window that the end-to-end metrics cover.
pub const QUOTA_PER_S: f64 = 10.0;

/// RNG stream of the scenario seeds.
const SEED_STREAM: u64 = 0x1b0c;

/// The scenario seeds of a run.
fn scenario_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Pcg64::new(seed, SEED_STREAM);
    (0..n).map(|_| rng.next_u64() >> 16).collect()
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let seeds = scenario_seeds(args.seed, if args.smoke { 2 } else { SCENARIOS });
    let (refs, setup_s) = repeated_setup(args.smoke, |_| {
        seeds.iter().map(|&s| run_sim(s)).collect::<Vec<ConformanceReport>>()
    });
    let msgs: u64 = refs.iter().flat_map(|r| r.tallies.iter().map(|t| t.1)).sum();

    let mut socket = Mean::default();
    let mut rec = Recorder::start(args.seconds, quota(args.seconds, QUOTA_PER_S));
    let mut i = 0usize;
    while !rec.expired() {
        let k = i % seeds.len();
        i += 1;
        let t0 = Instant::now();
        let net = catch_unwind(AssertUnwindSafe(|| run_sockets(seeds[k])));
        let ns = nanos_since(t0);
        socket.add(ns);
        let verdict = match net {
            Ok(mut net) => {
                // `--corrupt` tampers with the first socket report.
                if args.corrupt && rec.attempted() == 0 {
                    net.profile.push_str("corrupted\n");
                }
                checks::conformant(&refs[k], &net)
            }
            Err(_) => Err(format!("socket scenario at seed {} panicked", seeds[k])),
        };
        let ok = verdict.is_ok();
        rec.violation(verdict);
        rec.op(ns, ok, || 0);
    }
    let window_s = rec.elapsed_s();
    let mut outcome = rec.finish(0);
    outcome.values.set("setup_s", setup_s);
    outcome.values.set("msgs_per_op", msgs as f64 / refs.len() as f64);

    if args.trace {
        // The layers below the drivers are measured on the scenario's own
        // population (40 stationary, 12 mobile nodes, tiny topology).
        let probe =
            build_messaging(args.seed, 40, 12, TransitStubConfig::tiny(), FaultConfig::perfect());
        let sim_ms = setup_s * 1e3 / seeds.len() as f64;
        traced_probe(args, probe, window_s, Some((sim_ms, socket.mean() / 1e6)), &mut outcome);
    }
    outcome
}
