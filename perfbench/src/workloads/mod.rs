//! The three workloads and what their traced runs share.

pub mod figures;
pub mod loopback;
pub mod roam;

use bristle_core::config::BristleConfig;
use bristle_core::system::{BristleBuilder, BristleSystem};
use bristle_netsim::rng::Pcg64;
use bristle_netsim::transit_stub::TransitStubConfig;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_proto::transport::FaultConfig;
use bristle_sim::messaging::MessagingBristleSystem;

use crate::metrics::Outcome;
use crate::probe::{self, Spans};
use crate::Args;

/// Builds a system of `stationary` + `mobile` nodes.
pub fn build_system(
    seed: u64,
    stationary: usize,
    mobile: usize,
    topology: TransitStubConfig,
) -> BristleSystem {
    BristleBuilder::new(seed)
        .stationary_nodes(stationary)
        .mobile_nodes(mobile)
        .topology(topology)
        .config(BristleConfig::recommended())
        .build()
        .expect("system builds")
}

/// Builds a messaging system of `stationary` + `mobile` nodes.
pub fn build_messaging(
    seed: u64,
    stationary: usize,
    mobile: usize,
    topology: TransitStubConfig,
    faults: FaultConfig,
) -> MessagingBristleSystem {
    MessagingBristleSystem::new(build_system(seed, stationary, mobile, topology), faults, seed)
}

/// Every live node's key, stationary first.
pub fn all_keys(msys: &MessagingBristleSystem) -> Vec<Key> {
    msys.sys.stationary_keys().iter().chain(msys.sys.mobile_keys()).copied().collect()
}

/// Meter readings taken around a timed window.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    /// Every metered message.
    pub msgs: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// `_discovery` sessions resolved or abandoned.
    pub discoveries: u64,
}

impl Counters {
    /// Reads the counters now.
    pub fn read(msys: &MessagingBristleSystem) -> Counters {
        Counters {
            msgs: msys.sys.meter.total_messages(),
            timeouts: msys.sys.meter.count(MessageKind::Timeout),
            discoveries: msys.obs().discovery_latency.count(),
        }
    }
}

/// Records `msgs_per_op` and the meter-delta layer metrics of a window
/// of `ops` operations containing `routes` routes.
pub fn counter_metrics(
    before: Counters,
    after: Counters,
    ops: u64,
    routes: u64,
    outcome: &mut Outcome,
) {
    outcome.values.set("msgs_per_op", (after.msgs - before.msgs) as f64 / ops.max(1) as f64);
    layer_counters(before, after, ops, routes, outcome);
}

/// Records the meter-delta layer metrics (`proto.*` per operation and
/// per route) of `ops` operations containing `routes` routes.
pub fn layer_counters(
    before: Counters,
    after: Counters,
    ops: u64,
    routes: u64,
    outcome: &mut Outcome,
) {
    let v = &mut outcome.values;
    v.set("proto.timeouts_per_op", (after.timeouts - before.timeouts) as f64 / ops.max(1) as f64);
    v.set(
        "proto.discovery_per_route",
        (after.discoveries - before.discoveries) as f64 / routes.max(1) as f64,
    );
}

/// The traced run's work after the timed window: fill in the driver
/// spans the window did not exercise, replay every layer on `msys`, and
/// estimate the span overhead. `net_ms` carries the `(sim, socket)`
/// scenario times when the window measured them; otherwise one scenario
/// pair is timed here.
#[allow(clippy::too_many_arguments)]
pub fn traced_layers(
    args: &Args,
    msys: &mut MessagingBristleSystem,
    rng: &mut Pcg64,
    spans: &mut Spans,
    pairs: &mut Vec<(Key, Key)>,
    window_s: f64,
    net_ms: Option<(f64, f64)>,
    outcome: &mut Outcome,
) {
    let recorded = spans.recorded();
    let fill = if args.smoke { 8 } else { 64 };
    probe::fill_spans(msys, rng, fill, spans, pairs);
    probe::span_metrics(spans, &mut outcome.values);
    let scratch = args.scratch.join("probe");
    let _ = std::fs::remove_dir_all(&scratch);
    let codec = probe::layer_metrics(msys, pairs, &scratch, &mut outcome.values);
    let _ = std::fs::remove_dir_all(&scratch);
    outcome.violations.extend(codec);
    let (sim_ms, socket_ms) = net_ms.unwrap_or_else(|| probe::scenario_pair_ms(args.seed));
    probe::net_metrics(sim_ms, socket_ms, &mut outcome.values);
    outcome.values.set("bench.span_overhead_pct", probe::span_overhead_pct(recorded, window_s));
    outcome.correct = outcome.correct && outcome.violations.is_empty();
}

/// The traced run of a workload whose window runs no messaging system:
/// every layer is measured on `probe`, driven only by the calls
/// [`probe::fill_spans`] makes.
pub fn traced_probe(
    args: &Args,
    mut probe: MessagingBristleSystem,
    window_s: f64,
    net_ms: Option<(f64, f64)>,
    outcome: &mut Outcome,
) {
    let mut rng = Pcg64::new(args.seed, PROBE_STREAM);
    let mut spans = Spans::default();
    let before = Counters::read(&probe);
    traced_layers(
        args,
        &mut probe,
        &mut rng,
        &mut spans,
        &mut Vec::new(),
        window_s,
        net_ms,
        outcome,
    );
    let calls = spans.route.n + spans.register.n + spans.moves.n;
    layer_counters(before, Counters::read(&probe), calls, spans.route.n, outcome);
}

/// RNG stream of a probe system's calls.
const PROBE_STREAM: u64 = 0x9b0e;
