//! `roam`: location management under mobility, lookups and the updates
//! that moves force on the stationary repository. On a lossy transport
//! with a write-ahead log behind a sample of stationary nodes, the client
//! cycles through four operations in equal parts:
//!
//! 0. an announced move — `move_node`, then `disseminate_update`;
//! 1. a move scheduled one tick into a route toward the mover, so the
//!    route meets a stale address and recovers through `_discovery`;
//! 2. a registration on a mobile node;
//! 3. a route to a mobile node.
//!
//! A heartbeat round runs in the middle of every [`HEARTBEAT_EVERY`]
//! operations.
//!
//! The window is a series of epochs. Each builds a fresh system (the
//! timed set-up) and runs the same [`EPOCH_OPS`] operations on it; every
//! metric is the median over the epochs. Repeating identical work gives
//! the run replicates, so a busy spell of a shared host moves one epoch
//! and not the result, and the state that a system accumulates (transport
//! trace, registrations) is the same in every run however fast it goes.

use std::path::{Path, PathBuf};
use std::time::Instant;

use bristle_core::time::SimTime;
use bristle_netsim::rng::Pcg64;
use bristle_netsim::transit_stub::TransitStubConfig;
use bristle_overlay::key::Key;
use bristle_proto::machine::RetryPolicy;
use bristle_proto::transport::FaultConfig;
use bristle_sim::messaging::MessagingBristleSystem;
use bristle_store::WalBackend;

use crate::checks;
use crate::metrics::Outcome;
use crate::probe::{pick_other, timed, Spans};
use crate::stats::nanos_since;
use crate::workloads::{all_keys, build_system, counter_metrics, traced_layers, Counters};
use crate::{epochs_outcome, Args, Recorder};

/// Operations between heartbeat rounds.
pub const HEARTBEAT_EVERY: u64 = 3_000;

/// Per-frame drop probability of the transport.
pub const LOSS: f64 = 0.05;

/// Stationary nodes with a write-ahead log. Each WAL directory frees
/// three filesystem blocks when it is removed, and on a disk that
/// discards freed blocks synchronously that costs milliseconds apiece:
/// a WAL on all 8 000 stationary nodes would add minutes of clean-up to
/// every run (see `README.md`).
pub const WAL_NODES: usize = 256;

/// Send attempts per frame. The default budget of 4 leaves about one LDT
/// edge in 10^4 unacked at this loss rate; with 10 none fails, and the
/// retransmissions and timeouts still do their work.
pub const MAX_ATTEMPTS: u32 = 10;

/// Operations per epoch: four heartbeat periods, so that set-up takes
/// about a fifth of the window.
pub const EPOCH_OPS: u64 = 4 * HEARTBEAT_EVERY;

/// Epochs per run, at least, however short the window.
pub const MIN_EPOCHS: usize = 3;

/// RNG stream of the operation inputs.
const OP_STREAM: u64 = 0x20a3;

/// Stationary and mobile nodes and the topology of a run.
fn population(smoke: bool) -> (usize, usize, TransitStubConfig) {
    if smoke {
        (400, 100, TransitStubConfig::small())
    } else {
        (8_000, 2_000, TransitStubConfig::medium())
    }
}

/// The WAL directory of the `i`-th WAL node.
fn wal_dir(root: &Path, i: usize) -> PathBuf {
    root.join(i.to_string())
}

/// Builds the lossy system and attaches a WAL (no automatic snapshots)
/// in `root` to [`WAL_NODES`] stationary nodes spread evenly over the
/// stationary key list.
fn setup(args: &Args, root: &Path) -> MessagingBristleSystem {
    let (stationary, mobile, topology) = population(args.smoke);
    let sys = build_system(args.seed, stationary, mobile, topology);
    let policy = RetryPolicy { max_attempts: MAX_ATTEMPTS, ..RetryPolicy::default() };
    let mut msys =
        MessagingBristleSystem::with_policy(sys, FaultConfig::lossy(LOSS), args.seed, policy);
    let stationary = msys.sys.stationary_keys().to_vec();
    let wal_nodes = WAL_NODES.min(stationary.len());
    for i in 0..wal_nodes {
        let node = stationary[i * stationary.len() / wal_nodes];
        let wal = WalBackend::open(wal_dir(root, i), 0).expect("WAL opens");
        msys.sys.stores.attach_wal(node, wal);
    }
    msys
}

/// Empties every WAL directory under `root`, keeping the directories: a
/// log that was never written back to disk leaves without a discard, a
/// directory does not (see `README.md`).
fn clear_wals(root: &Path, wal_nodes: usize) {
    for i in 0..wal_nodes {
        for file in ["wal.log", "snapshot.bin"] {
            let _ = std::fs::remove_file(wal_dir(root, i).join(file));
        }
    }
}

/// What the traced run carries from epoch to epoch.
struct Traced {
    spans: Spans,
    pairs: Vec<(Key, Key)>,
    window_s: f64,
}

/// Runs one epoch of `ops` operations on the fresh system `msys`, drawing
/// inputs from `rng`, and returns its outcome (without `setup_s`).
fn epoch(
    args: &Args,
    msys: &mut MessagingBristleSystem,
    rng: &mut Pcg64,
    ops: u64,
    traced: &mut Traced,
) -> Outcome {
    let keys = all_keys(msys);
    let mobile = msys.sys.mobile_keys().to_vec();
    let heartbeat_every = if args.smoke { 50 } else { HEARTBEAT_EVERY };
    let (trace, spans, pairs) = (args.trace, &mut traced.spans, &mut traced.pairs);
    let mut routes = 0u64;

    let before = Counters::read(msys);
    let mut rec = Recorder::start(0.0, ops);
    for i in 0..ops {
        // Rounds fall mid-period, so every epoch holds the same number.
        if i % heartbeat_every == heartbeat_every / 2 {
            let dead = timed(trace, &mut spans.heartbeat, || msys.heartbeat_round());
            rec.violation(checks::no_burials(&dead));
        }
        let target = mobile[rng.index(mobile.len())];
        let src = pick_other(rng, &keys, target);
        let kind = i % 4;
        // The tree the move will be disseminated through (moving changes
        // neither the registry nor capacities, so it is built up front).
        let edges = match kind {
            0 => msys.sys.build_ldt(target).map(|l| l.edges().count()).unwrap_or(0),
            _ => 0,
        };
        let t0 = Instant::now();
        let ok = match kind {
            0 => {
                let moved = timed(trace, &mut spans.moves, || msys.sys.move_node(target, None));
                let acked =
                    timed(trace, &mut spans.disseminate, || msys.disseminate_update(target));
                match (moved, acked) {
                    (Ok(_), Ok(acked)) => {
                        // `--corrupt` claims one ack more than the tree has edges.
                        let acked = acked + usize::from(args.corrupt && rec.attempted() == 0);
                        rec.violation(checks::edges_accounted(edges, acked));
                        acked == edges
                    }
                    _ => false,
                }
            }
            1 | 3 => {
                if kind == 1 {
                    let at = SimTime(msys.micro_now().0 + 1);
                    msys.schedule_move(at, target, None);
                }
                routes += 1;
                let started = msys.micro_now();
                let report = timed(trace, &mut spans.route, || msys.route(src, target));
                if trace {
                    pairs.push((src, target));
                    if let Ok(r) = &report {
                        spans.route_done(started, r);
                    }
                }
                report.is_ok()
            }
            _ => timed(trace, &mut spans.register, || msys.register(src, target)).is_ok(),
        };
        msys.settle();
        rec.op_of(kind as usize, nanos_since(t0), ok, || msys.transport().trace().len());
    }
    let after = Counters::read(msys);
    traced.window_s += rec.elapsed_s();
    rec.violation(checks::no_burials(&msys.wrongly_buried()));
    let mut outcome = rec.finish(msys.transport().trace().len());
    counter_metrics(before, after, ops, routes, &mut outcome);
    outcome
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let root = args.scratch.join("roam");
    let _ = std::fs::remove_dir_all(&root);
    let wal_nodes = WAL_NODES.min(population(args.smoke).0);
    for i in 0..wal_nodes {
        std::fs::create_dir_all(wal_dir(&root, i)).expect("WAL directory is created");
    }
    let (ops, min_epochs) = if args.smoke { (200, 2) } else { (EPOCH_OPS, MIN_EPOCHS) };
    let mut traced = Traced { spans: Spans::default(), pairs: Vec::new(), window_s: 0.0 };
    let mut epochs = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while epochs.len() < min_epochs || start.elapsed().as_secs_f64() < args.seconds {
        drop(last.take());
        clear_wals(&root, wal_nodes);
        let t0 = Instant::now();
        let mut msys = setup(args, &root);
        let setup_s = t0.elapsed().as_secs_f64();
        // Every epoch draws the same inputs.
        let mut rng = Pcg64::new(args.seed, OP_STREAM);
        let mut outcome = epoch(args, &mut msys, &mut rng, ops, &mut traced);
        outcome.values.set("setup_s", setup_s);
        epochs.push(outcome);
        last = Some((msys, rng));
    }
    let mut outcome = epochs_outcome(epochs);
    if let (true, Some((msys, rng))) = (args.trace, &mut last) {
        let Traced { spans, pairs, window_s } = &mut traced;
        traced_layers(args, msys, rng, spans, pairs, *window_s, None, &mut outcome);
    }
    drop(last);
    let _ = std::fs::remove_dir_all(&root);
    outcome
}
