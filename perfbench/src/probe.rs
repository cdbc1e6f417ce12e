//! The traced run's per-layer numbers.
//!
//! Spans wrap the benchmark's own calls into the messaging driver
//! ([`Spans`]); everything below the driver is measured by replaying the
//! run's inputs — its route pairs, its transport trace, its nodes'
//! stored records — through each layer's public functions after the
//! timed window. Nothing here reaches inside a crate.

use std::path::Path;
use std::time::Instant;

use bristle_core::time::SimTime;
use bristle_netsim::dijkstra::single_source;
use bristle_netsim::graph::RouterId;
use bristle_netsim::rng::Pcg64;
use bristle_overlay::key::Key;
use bristle_proto::wire::{Envelope, WireAddr, WireMessage};
use bristle_sim::conformance::{run_sim, run_sockets};
use bristle_sim::engine::EventQueue;
use bristle_sim::messaging::{MessagingBristleSystem, MessagingRouteReport};
use bristle_store::{StateStore, WalBackend};

use crate::metrics::Values;
use crate::stats::{nanos_since, percentile, Mean};

/// Wall nanoseconds of the driver calls a run made, by call.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    /// `MessagingBristleSystem::route`.
    pub route: Mean,
    /// `MessagingBristleSystem::register`.
    pub register: Mean,
    /// `MessagingBristleSystem::disseminate_update`.
    pub disseminate: Mean,
    /// `MessagingBristleSystem::heartbeat_round`.
    pub heartbeat: Mean,
    /// `BristleSystem::move_node`.
    pub moves: Mean,
    /// Events the driver processed per completed route (a count, not a
    /// time).
    pub route_events: Mean,
    /// Virtual micro-ticks from each completed route's start to its
    /// delivery.
    pub route_vlat: Vec<u64>,
}

impl Spans {
    /// Records a completed route that started at micro-time `started`.
    pub fn route_done(&mut self, started: SimTime, report: &MessagingRouteReport) {
        self.route_events.add(report.events);
        self.route_vlat.push(report.delivered_at.since(started));
    }

    /// Spans recorded so far.
    pub fn recorded(&self) -> u64 {
        self.route.n + self.register.n + self.disseminate.n + self.heartbeat.n + self.moves.n
    }
}

/// Times `f` into `span` when `on`; runs it untimed otherwise.
pub fn timed<T>(on: bool, span: &mut Mean, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    span.add(nanos_since(t0));
    out
}

/// Picks a uniformly random live node other than `not`.
pub fn pick_other(rng: &mut Pcg64, keys: &[Key], not: Key) -> Key {
    loop {
        let k = keys[rng.index(keys.len())];
        if k != not {
            return k;
        }
    }
}

/// Drives whichever driver calls the timed window did not make, `count`
/// of each, so every span has a measurement on every workload: routes
/// between random pairs, registrations on mobile nodes, announced moves
/// with their dissemination, and one heartbeat round.
pub fn fill_spans(
    msys: &mut MessagingBristleSystem,
    rng: &mut Pcg64,
    count: usize,
    spans: &mut Spans,
    pairs: &mut Vec<(Key, Key)>,
) {
    let all: Vec<Key> =
        msys.sys.stationary_keys().iter().chain(msys.sys.mobile_keys()).copied().collect();
    let mobile = msys.sys.mobile_keys().to_vec();
    if spans.route.n == 0 {
        for _ in 0..count {
            let src = all[rng.index(all.len())];
            let dst = pick_other(rng, &all, src);
            pairs.push((src, dst));
            let (started, t0) = (msys.micro_now(), Instant::now());
            let report = msys.route(src, dst);
            spans.route.add(nanos_since(t0));
            if let Ok(r) = report {
                spans.route_done(started, &r);
            }
            msys.settle();
        }
    }
    if mobile.is_empty() {
        return;
    }
    if spans.register.n == 0 {
        for _ in 0..count {
            let target = mobile[rng.index(mobile.len())];
            let who = pick_other(rng, &all, target);
            timed(true, &mut spans.register, || msys.register(who, target)).ok();
            msys.settle();
        }
    }
    if spans.moves.n == 0 {
        for _ in 0..count {
            let mover = mobile[rng.index(mobile.len())];
            timed(true, &mut spans.moves, || msys.sys.move_node(mover, None)).ok();
            timed(true, &mut spans.disseminate, || msys.disseminate_update(mover)).ok();
            msys.settle();
        }
    }
    if spans.heartbeat.n == 0 {
        timed(true, &mut spans.heartbeat, || msys.heartbeat_round());
    }
}

/// Records the driver-call spans.
pub fn span_metrics(spans: &Spans, values: &mut Values) {
    values.set("sim.route_us", spans.route.mean() / 1e3);
    values.set("sim.register_us", spans.register.mean() / 1e3);
    values.set("sim.disseminate_us", spans.disseminate.mean() / 1e3);
    values.set("sim.heartbeat_round_ms", spans.heartbeat.mean() / 1e6);
    values.set("core.move_us", spans.moves.mean() / 1e3);
    values.set("sim.events_per_op", spans.route_events.mean());
    let mut vlat = spans.route_vlat.clone();
    vlat.sort_unstable();
    values.set("sim.route_vlat_p50", percentile(&vlat, 50.0) as f64);
    values.set("sim.route_vlat_p99", percentile(&vlat, 99.0) as f64);
}

/// Estimated share of the timed window spent in span bookkeeping.
pub fn span_overhead_pct(recorded: u64, window_s: f64) -> f64 {
    const N: u64 = 100_000;
    let mut span = Mean::default();
    let t0 = Instant::now();
    for i in 0..N {
        timed(true, &mut span, || std::hint::black_box(i));
    }
    let per_span_s = t0.elapsed().as_secs_f64() / N as f64;
    100.0 * recorded as f64 * per_span_s / window_s.max(1e-9)
}

/// Every layer below the driver, replayed on `msys` after the timed
/// window: distance oracle, ring routing, LDT building, wire codec,
/// event queue and durable stores.
/// Returns a description of each codec round trip that did not
/// reproduce its envelope.
pub fn layer_metrics(
    msys: &mut MessagingBristleSystem,
    pairs: &[(Key, Key)],
    scratch: &Path,
    values: &mut Values,
) -> Vec<String> {
    netsim_metrics(msys, values);
    overlay_metrics(msys, pairs, values);
    core_metrics(msys, values);
    let violations = proto_metrics(msys, values);
    queue_metrics(msys, values);
    store_metrics(msys, scratch, values);
    values.set("sim.trace_len", msys.transport().trace().len() as f64);
    violations
}

/// Records cap: replays past this many inputs add time, not precision.
const REPLAY_CAP: usize = 1_000_000;

fn netsim_metrics(msys: &MessagingBristleSystem, values: &mut Values) {
    let dc = msys.sys.distances();
    let trace = msys.transport().trace();
    let n = trace.len().min(REPLAY_CAP);
    let t0 = Instant::now();
    let mut sum = 0u64;
    for rec in &trace[..n] {
        sum = sum.wrapping_add(dc.distance(rec.from, rec.to));
    }
    std::hint::black_box(sum);
    values.set("netsim.distance_ns", nanos_since(t0) as f64 / n.max(1) as f64);

    let graph = dc.graph();
    let routers = graph.vertex_count();
    let sample = 8.min(routers);
    let t0 = Instant::now();
    for i in 0..sample {
        let src = RouterId((i * routers / sample) as u32);
        std::hint::black_box(single_source(graph, src));
    }
    values.set("netsim.cold_row_ms", nanos_since(t0) as f64 / 1e6 / sample.max(1) as f64);
    values.set("netsim.row_fill", dc.len() as f64 / dc.capacity() as f64);
}

fn overlay_metrics(msys: &MessagingBristleSystem, pairs: &[(Key, Key)], values: &mut Values) {
    let ring = &msys.sys.mobile;
    let pairs = &pairs[..pairs.len().min(20_000)];
    let mut hops = 0u64;
    let t0 = Instant::now();
    for &(src, target) in pairs {
        let mut cur = src;
        for _ in 0..128 {
            match ring.next_hop(cur, target) {
                Ok(Some(next)) => {
                    hops += 1;
                    cur = next;
                }
                _ => break,
            }
        }
    }
    let ns = nanos_since(t0) as f64;
    // Each walk makes one more call than it has hops (the owner's answer).
    values.set("overlay.next_hop_ns", ns / (hops + pairs.len() as u64).max(1) as f64);
    values.set("overlay.hops_per_route", hops as f64 / pairs.len().max(1) as f64);
}

fn core_metrics(msys: &MessagingBristleSystem, values: &mut Values) {
    let mobile = msys.sys.mobile_keys();
    let sample = mobile.len().min(256);
    let mut edges = 0usize;
    let t0 = Instant::now();
    for i in 0..sample {
        if let Ok(ldt) = msys.sys.build_ldt(mobile[i * mobile.len() / sample]) {
            edges += ldt.edges().count();
        }
    }
    let ns = nanos_since(t0) as f64;
    values.set("core.build_ldt_us", ns / 1e3 / sample.max(1) as f64);
    values.set("core.ldt_edges_per_move", edges as f64 / sample.max(1) as f64);
}

/// A representative envelope for wire tag `tag`.
fn sample_envelope(tag: u8, i: u64) -> Envelope {
    let k = Key(0x9e37_79b9_7f4a_7c15 ^ i);
    let addr = WireAddr { host: 7 + i as u32, router: 42, epoch: 3 + i };
    let msg = match tag {
        0 => WireMessage::RouteHop { origin: k, route_id: i, target: Key(!k.0) },
        1 => WireMessage::HopAck { acked: i },
        2 => WireMessage::Discovery { subject: k, asker: Key(!k.0), session: i, probe: None },
        3 => WireMessage::DiscoveryReply { subject: k, session: i, addr: Some(addr) },
        4 => WireMessage::ProbeMiss { subject: k, asker: Key(!k.0), session: i },
        5 => WireMessage::Register { target: k, capacity: 9 },
        6 => WireMessage::RegisterAck { acked: i },
        7 => WireMessage::Update { subject: k, addr, seq: i },
        8 => WireMessage::UpdateAck { acked: i },
        9 => WireMessage::Publish { subject: k, addr, seq: i },
        10 => WireMessage::JoinProbe { key: k },
        11 => WireMessage::Leave { key: k },
        12 => WireMessage::Refresh { key: k },
        13 => WireMessage::Heartbeat { seq: i, incarnation: 1 },
        14 => WireMessage::HeartbeatAck { seq: i, incarnation: 1 },
        15 => WireMessage::SuspectNotify { suspect: k, incarnation: 1 },
        16 => WireMessage::Alive { node: k, incarnation: 2 },
        17 => WireMessage::Rejoin { incarnation: 2 },
        _ => WireMessage::RejoinAck { incarnation: 2 },
    };
    Envelope { src: k, dst: Key(k.0.rotate_left(17)), msg_id: i, trace_id: i, msg, auth: None }
}

fn proto_metrics(msys: &MessagingBristleSystem, values: &mut Values) -> Vec<String> {
    let trace = msys.transport().trace();
    let n = trace.len().min(200_000);
    let frames: Vec<Envelope> =
        trace[..n].iter().enumerate().map(|(i, r)| sample_envelope(r.tag, i as u64)).collect();
    let t0 = Instant::now();
    let bytes: Vec<Vec<u8>> = frames.iter().map(Envelope::encode).collect();
    values.set("proto.encode_ns", nanos_since(t0) as f64 / n.max(1) as f64);
    let t0 = Instant::now();
    let decoded: Vec<_> = bytes.iter().map(|b| Envelope::decode(b)).collect();
    values.set("proto.decode_ns", nanos_since(t0) as f64 / n.max(1) as f64);
    let bad = frames.iter().zip(&decoded).filter(|(f, d)| d.as_ref() != Ok(*f)).count();
    if bad == 0 {
        Vec::new()
    } else {
        vec![format!("{bad} of {n} frames did not survive an encode/decode round trip")]
    }
}

fn queue_metrics(msys: &MessagingBristleSystem, values: &mut Values) {
    let trace = msys.transport().trace();
    let n = trace.len().min(REPLAY_CAP);
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut ops = 0u64;
    let t0 = Instant::now();
    for (i, rec) in trace[..n].iter().enumerate() {
        while q.peek_time().is_some_and(|t| t <= rec.sent_at) {
            q.pop();
            ops += 1;
        }
        for &at in &rec.arrivals {
            q.schedule_at(SimTime(at.0.max(q.now().0)), i as u32);
            ops += 1;
        }
    }
    while q.pop().is_some() {
        ops += 1;
    }
    values.set("sim.queue_ns", nanos_since(t0) as f64 / ops.max(1) as f64);
}

fn store_metrics(msys: &mut MessagingBristleSystem, scratch: &Path, values: &mut Values) {
    let stationary = msys.sys.stationary_keys().to_vec();
    let sample = stationary.len().min(64);
    let (mut records, mut apply_ns, mut nodes) = (0u64, 0u64, 0u64);
    let mut replay = Mean::default();
    for i in 0..sample {
        let node = stationary[i * stationary.len() / sample];
        let recs = msys.sys.stores.state(node).map(|s| s.to_records()).unwrap_or_default();
        if recs.is_empty() {
            continue;
        }
        let dir = scratch.join(format!("apply-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let Ok(mut wal) = WalBackend::open(&dir, 0) else { continue };
        let t0 = Instant::now();
        for rec in &recs {
            wal.apply(rec);
        }
        apply_ns += nanos_since(t0);
        records += recs.len() as u64;
        nodes += 1;
        drop(wal);
        // A WAL-backed node replays its own log; any other replays the
        // copy just written.
        let t0 = Instant::now();
        if msys.sys.stores.kind(node) == "wal" {
            msys.sys.stores.reopen_wal(node);
        } else {
            std::hint::black_box(WalBackend::open(&dir, 0).ok());
        }
        replay.add(nanos_since(t0));
    }
    values.set("store.apply_us", apply_ns as f64 / 1e3 / records.max(1) as f64);
    values.set("store.replay_ms", replay.mean() / 1e6);
    values.set("store.records_per_node", records as f64 / nodes.max(1) as f64);
}

/// Times one simulator and one socket run of the conformance scenario at
/// `seed`, returning `(sim_ms, socket_ms)`.
pub fn scenario_pair_ms(seed: u64) -> (f64, f64) {
    let t0 = Instant::now();
    std::hint::black_box(run_sim(seed));
    let sim = nanos_since(t0) as f64 / 1e6;
    let t0 = Instant::now();
    std::hint::black_box(run_sockets(seed));
    (sim, nanos_since(t0) as f64 / 1e6)
}

/// Records the `net.*` metrics from simulator and socket scenario times.
pub fn net_metrics(sim_ms: f64, socket_ms: f64, values: &mut Values) {
    values.set("net.sim_scenario_ms", sim_ms);
    values.set("net.socket_scenario_ms", socket_ms);
    values.set("net.socket_over_sim", socket_ms / sim_ms.max(1e-9));
}
