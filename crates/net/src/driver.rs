//! The poll loop: sans-I/O machines over nonblocking UDP sockets.
//!
//! One [`UdpSocket`] per node, bound to loopback; datagram payloads are
//! exactly [`Envelope::encode`] bytes, nothing more. The driver owns
//! the machines and the timer wheel but *not* the world model — every
//! call takes a `&mut dyn NodeEnv`, the same window the simulator's
//! driver hands its machines, which is what makes the two backends
//! meter-identical: the machines cannot tell which one is driving them.
//!
//! Time is the [`WallClock`] adapter's virtual ticks. The loop pumps
//! sockets first and fires due timers second (an ack sitting in a
//! kernel buffer always clears its session before the retry timer can
//! fire), and once the network is quiet fast-forwards the clock to the
//! next timer deadline instead of waiting it out. Quiet is proven by
//! accounting, not guessed: every datagram sent from one hosted socket
//! to another counts as in flight until a hosted socket reads it, so
//! with nothing in flight and nothing due the skip is immediate. Only a
//! send to an endpoint this driver does not host, or a datagram the
//! kernel has not handed over yet, falls back to a real-time grace
//! window; whatever is still missing when it runs out is declared lost.
//! Stale timers fired after a fast-forward are ignored by the machines
//! (their sessions are gone), exactly as in the simulator.
//!
//! The datagram boundary is hardened: a frame longer than [`MAX_FRAME`]
//! or one that fails [`Envelope::decode`] is dropped and metered
//! ([`MessageKind::MalformedFrame`]), never parsed further, never
//! panicking the loop.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{Error, ErrorKind, Result};
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use bristle_core::time::SimTime;
use bristle_overlay::key::Key;
use bristle_overlay::meter::MessageKind;
use bristle_proto::machine::{Completion, Event, NodeEnv, Output, ProtoMachine, TimerKind};
use bristle_proto::wire::Envelope;

use crate::book::AddressBook;
use crate::clock::WallClock;

/// Largest datagram payload the driver accepts or emits. Well-formed
/// envelopes top out under 100 bytes; the cap keeps a hostile jumbo
/// datagram from ever reaching the codec.
pub const MAX_FRAME: usize = 256;

/// Counters for everything the socket boundary did that the protocol
/// never saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams put on the wire.
    pub datagrams_sent: u64,
    /// Datagrams read off the wire (including dropped ones).
    pub datagrams_received: u64,
    /// Received datagrams dropped for exceeding [`MAX_FRAME`].
    pub dropped_oversized: u64,
    /// Received datagrams dropped for failing to decode, or decoding to
    /// an envelope for a node this socket does not host.
    pub dropped_garbage: u64,
    /// Sends suppressed because the destination address was stale (the
    /// simulator's arrival-time black-hole, applied at send time).
    pub stale_blackholed: u64,
    /// Times the clock fast-forwarded a quiet network to the next
    /// timer deadline.
    pub fast_forwards: u64,
    /// Times quiet could not be proven by accounting and a grace window
    /// ran out instead: datagrams to a foreign endpoint, or datagrams
    /// between hosted sockets that never arrived (declared lost).
    pub grace_expiries: u64,
}

/// One node: its identity, its socket, its machine.
struct NetNode {
    key: Key,
    socket: UdpSocket,
    machine: ProtoMachine,
}

/// Runs a set of [`ProtoMachine`]s over nonblocking UDP sockets.
pub struct SocketDriver {
    clock: WallClock,
    book: AddressBook,
    nodes: Vec<NetNode>,
    by_key: HashMap<Key, usize>,
    /// Endpoints of the sockets this driver hosts.
    hosted: HashSet<SocketAddr>,
    /// Datagrams sent between hosted sockets and not yet read back.
    in_flight: u64,
    /// Set when a datagram went to an endpoint this driver does not
    /// host: its fate is unknowable, so quiet cannot be proven until a
    /// grace window runs out.
    unaccounted: bool,
    /// Armed timers, ordered by deadline; the `u64` sequence breaks
    /// ties FIFO, mirroring the simulator's event queue.
    timers: BTreeMap<(SimTime, u64), (Key, TimerKind)>,
    timer_seq: u64,
    /// `(src, msg_id)` of every frame a machine here has processed; a
    /// later transmission of the same frame is a spurious retry, bumped
    /// exactly as the simulator's driver bumps it.
    delivered: HashSet<(Key, u64)>,
    /// Completions surfaced by the machines, for the caller to drain.
    pub completions: Vec<Completion>,
    /// Real-time window the loop waits, when quiet is not proven, before
    /// declaring missing datagrams lost and fast-forwarding anyway.
    grace: Duration,
    stats: NetStats,
}

impl SocketDriver {
    /// A driver with no nodes, reading time from `clock`.
    pub fn new(clock: WallClock) -> Self {
        SocketDriver {
            clock,
            book: AddressBook::new(),
            nodes: Vec::new(),
            by_key: HashMap::new(),
            hosted: HashSet::new(),
            in_flight: 0,
            unaccounted: false,
            timers: BTreeMap::new(),
            timer_seq: 0,
            delivered: HashSet::new(),
            completions: Vec::new(),
            grace: Duration::from_millis(5),
            stats: NetStats::default(),
        }
    }

    /// Overrides the loss-fallback grace window (default 5 ms — orders
    /// of magnitude above a loopback round trip). It is waited out only
    /// when quiet cannot be proven: a datagram to a foreign endpoint, or
    /// one between hosted sockets that has not arrived.
    pub fn set_grace(&mut self, grace: Duration) {
        self.grace = grace;
    }

    /// Binds a loopback socket for `key`, whose overlay address is
    /// `addr`, and installs `machine` behind it. Returns the endpoint.
    pub fn bind_node(
        &mut self,
        key: Key,
        addr: bristle_proto::wire::WireAddr,
        machine: ProtoMachine,
    ) -> Result<SocketAddr> {
        if self.by_key.contains_key(&key) {
            return Err(Error::new(ErrorKind::AddrInUse, format!("{key} already bound")));
        }
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_nonblocking(true)?;
        let endpoint = socket.local_addr()?;
        self.book.register(addr, endpoint);
        self.hosted.insert(endpoint);
        self.by_key.insert(key, self.nodes.len());
        self.nodes.push(NetNode { key, socket, machine });
        Ok(endpoint)
    }

    /// The address book (moves re-seat hosts through it).
    pub fn book_mut(&mut self) -> &mut AddressBook {
        &mut self.book
    }

    /// Boundary counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The machine bound for `key`, for starting operations on it. The
    /// returned [`Output`] of any `start_*` call must be handed back
    /// through [`Self::dispatch`].
    pub fn machine_mut(&mut self, key: Key) -> Option<&mut ProtoMachine> {
        self.by_key.get(&key).map(|&i| &mut self.nodes[i].machine)
    }

    /// Earliest armed timer deadline, if any.
    pub fn next_timer(&self) -> Option<SimTime> {
        self.timers.keys().next().map(|&(at, _)| at)
    }

    /// Turns one machine's [`Output`] into datagrams and armed timers,
    /// mirroring the simulator driver's dispatch step: spurious-retry
    /// accounting, the stale-address black-hole (applied here at send
    /// time; the simulator applies it at arrival), then one encoded
    /// envelope per surviving send.
    pub fn dispatch(&mut self, from: Key, out: Output, env: &mut dyn NodeEnv) -> Result<()> {
        let Some(&from_idx) = self.by_key.get(&from) else {
            return Err(Error::new(ErrorKind::NotFound, format!("{from} is not bound")));
        };
        for o in out.outgoing {
            if self.delivered.contains(&(o.env.src, o.env.msg_id)) {
                env.bump(MessageKind::SpuriousRetry);
            }
            // The simulator delivers to the addressed router and drops
            // at arrival if the destination moved away; with a real
            // socket the equivalent check runs before the send.
            if !env.addr_current(o.to_addr) {
                self.stats.stale_blackholed += 1;
                continue;
            }
            let Some(endpoint) = self.book.resolve(o.to_addr) else {
                self.stats.stale_blackholed += 1;
                continue;
            };
            let bytes = o.env.encode();
            if bytes.len() > MAX_FRAME {
                self.stats.dropped_oversized += 1;
                env.bump(MessageKind::MalformedFrame);
                continue;
            }
            self.nodes[from_idx].socket.send_to(&bytes, endpoint)?;
            self.stats.datagrams_sent += 1;
            if self.hosted.contains(&endpoint) {
                self.in_flight += 1;
            } else {
                self.unaccounted = true;
            }
        }
        for t in out.timers {
            self.timers.insert((t.at, self.timer_seq), (from, t.kind));
            self.timer_seq += 1;
        }
        self.completions.extend(out.completions);
        Ok(())
    }

    /// Drains every readable socket once: decodes, delivers to the
    /// hosting machine, dispatches the reactions. Oversized or
    /// undecodable datagrams are dropped and metered; they never reach
    /// a machine. Returns how many datagrams were read.
    pub fn pump(&mut self, env: &mut dyn NodeEnv) -> Result<usize> {
        let mut buf = [0u8; MAX_FRAME + 1];
        let mut handled = 0usize;
        for idx in 0..self.nodes.len() {
            loop {
                let n = match self.nodes[idx].socket.recv_from(&mut buf) {
                    Ok((n, src)) => {
                        // Foreign senders (attackers included) never
                        // touch the in-flight accounting. Saturating: a
                        // datagram already declared lost may still turn up.
                        if self.hosted.contains(&src) {
                            self.in_flight = self.in_flight.saturating_sub(1);
                        }
                        n
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                };
                handled += 1;
                self.stats.datagrams_received += 1;
                if n > MAX_FRAME {
                    self.stats.dropped_oversized += 1;
                    env.bump(MessageKind::MalformedFrame);
                    continue;
                }
                let envelope = match Envelope::decode(&buf[..n]) {
                    Ok(envelope) => envelope,
                    Err(_) => {
                        self.stats.dropped_garbage += 1;
                        env.bump(MessageKind::MalformedFrame);
                        continue;
                    }
                };
                if envelope.dst != self.nodes[idx].key {
                    // Decodes, but claims a destination this socket
                    // does not host: misdirected or spoofed.
                    self.stats.dropped_garbage += 1;
                    env.bump(MessageKind::MalformedFrame);
                    continue;
                }
                self.delivered.insert((envelope.src, envelope.msg_id));
                let now = self.clock.now();
                let out = self.nodes[idx].machine.poll(now, Event::Deliver(envelope), env);
                let key = self.nodes[idx].key;
                self.dispatch(key, out, env)?;
            }
        }
        Ok(handled)
    }

    /// Fires every timer whose deadline has passed. Returns how many
    /// fired (stale ones included — their machines ignore them).
    pub fn fire_due(&mut self, env: &mut dyn NodeEnv) -> Result<usize> {
        let mut fired = 0usize;
        loop {
            let now = self.clock.now();
            let Some((&(at, seq), _)) = self.timers.iter().next() else { break };
            if at > now {
                break;
            }
            let (key, kind) = self.timers.remove(&(at, seq)).expect("just observed");
            if let Some(&idx) = self.by_key.get(&key) {
                let out = self.nodes[idx].machine.poll(now, Event::Timer(kind), env);
                self.dispatch(key, out, env)?;
            }
            fired += 1;
        }
        Ok(fired)
    }

    /// Pumps and fires until the network is quiet *and* no timers
    /// remain, fast-forwarding the clock over dead air: when nothing is
    /// due and no datagram is in flight, the clock jumps to the next
    /// timer deadline at once (the machines cannot observe the skip —
    /// they only ever see `now` as an argument). If quiet cannot be
    /// proven, the loop first waits up to the grace window for the
    /// missing datagrams (see [`Self::set_grace`]). Returns the number
    /// of datagrams plus timer firings processed, or `TimedOut` once
    /// `max_events` is exceeded — the same runaway-retry backstop the
    /// simulator's event budget gives.
    pub fn run_until_quiet(&mut self, env: &mut dyn NodeEnv, max_events: u64) -> Result<u64> {
        self.run_until(env, max_events, |_| false)
    }

    /// Like [`Self::run_until_quiet`], but also stops — leaving the
    /// remaining state intact — as soon as a surfaced completion
    /// matches `found` (the completion stays in
    /// [`Self::completions`] for the caller to consume).
    pub fn run_until(
        &mut self,
        env: &mut dyn NodeEnv,
        max_events: u64,
        mut found: impl FnMut(&Completion) -> bool,
    ) -> Result<u64> {
        let mut events = 0u64;
        loop {
            if self.completions.iter().any(&mut found) {
                return Ok(events);
            }
            let n = self.pump(env)? + self.fire_due(env)?;
            if n > 0 {
                events += n as u64;
                if events > max_events {
                    return Err(Error::new(
                        ErrorKind::TimedOut,
                        "event budget exhausted: retry loop not converging",
                    ));
                }
                continue;
            }
            // Nothing readable and nothing due. Unless the accounting
            // proves the network quiet, in-flight bytes get a real-time
            // grace window before the clock may skip ahead; what is
            // still missing after it is declared lost.
            if self.in_flight > 0 || self.unaccounted {
                if self.pump_for(env, self.grace)? > 0 {
                    events += 1;
                    continue;
                }
                self.in_flight = 0;
                self.unaccounted = false;
                self.stats.grace_expiries += 1;
            }
            match self.next_timer() {
                Some(at) => {
                    self.clock.advance_to(at);
                    self.stats.fast_forwards += 1;
                }
                None => return Ok(events),
            }
        }
    }

    /// Polls the sockets for up to `window` of real time, returning at
    /// the first datagram (handled, with its reactions dispatched).
    fn pump_for(&mut self, env: &mut dyn NodeEnv, window: Duration) -> Result<usize> {
        let deadline = Instant::now() + window;
        loop {
            let n = self.pump(env)?;
            if n > 0 || Instant::now() >= deadline {
                return Ok(n);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_netsim::graph::RouterId;
    use bristle_overlay::meter::Meter;
    use bristle_proto::machine::RetryPolicy;
    use bristle_proto::wire::{WireAddr, WireMessage};

    /// A fixed little world, modeled on the machine tests' MockEnv.
    #[derive(Default)]
    struct MiniEnv {
        mobile_hops: HashMap<(Key, Key), Key>,
        stat_hops: HashMap<(Key, Key), Key>,
        mobile: HashSet<Key>,
        addrs: HashMap<Key, WireAddr>,
        valid: HashSet<(u32, u64)>,
        believed: HashMap<(Key, Key), WireAddr>,
        records: HashMap<(Key, Key), WireAddr>,
        replica_sets: HashMap<Key, Vec<Key>>,
        entries: HashMap<Key, Key>,
        meter: Meter,
    }

    impl MiniEnv {
        fn with_node(mut self, key: Key, host: u32, router: u32) -> Self {
            self.addrs.insert(key, WireAddr { host, router, epoch: 0 });
            self.valid.insert((host, 0));
            self.entries.insert(key, key);
            self
        }
    }

    impl NodeEnv for MiniEnv {
        fn next_hop_mobile(&self, cur: Key, target: Key) -> Option<Key> {
            self.mobile_hops.get(&(cur, target)).copied()
        }
        fn next_hop_stationary(&self, cur: Key, target: Key) -> Option<Key> {
            self.stat_hops.get(&(cur, target)).copied()
        }
        fn is_mobile(&self, key: Key) -> bool {
            self.mobile.contains(&key)
        }
        fn entry_stationary(&self, from: Key) -> Key {
            self.entries[&from]
        }
        fn replicas(&self, subject: Key) -> Vec<Key> {
            self.replica_sets.get(&subject).cloned().unwrap_or_default()
        }
        fn current_addr(&self, key: Key) -> WireAddr {
            self.addrs[&key]
        }
        fn addr_current(&self, addr: WireAddr) -> bool {
            self.valid.contains(&(addr.host, addr.epoch))
        }
        fn believed_addr(&self, holder: Key, subject: Key) -> Option<WireAddr> {
            self.believed.get(&(holder, subject)).copied()
        }
        fn location_record(&self, holder: Key, subject: Key) -> Option<WireAddr> {
            self.records.get(&(holder, subject)).copied()
        }
        fn distance(&self, a: RouterId, b: RouterId) -> u64 {
            (a.0 as i64 - b.0 as i64).unsigned_abs()
        }
        fn meter(&mut self, kind: MessageKind, cost: u64) {
            self.meter.record(kind, cost);
        }
        fn bump(&mut self, kind: MessageKind) {
            self.meter.bump(kind, 1);
        }
        fn commit_resolution(&mut self, asker: Key, subject: Key, addr: WireAddr) {
            self.believed.insert((asker, subject), addr);
        }
        fn apply_update(&mut self, _receiver: Key, _subject: Key, _addr: WireAddr, _seq: u64) {}
        fn apply_register(&mut self, _target: Key, _who: Key, _capacity: u32) {}
        fn commit_register(&mut self, _who: Key, _target: Key) {}
    }

    const A: Key = Key(10);
    const B: Key = Key(20);

    fn policy() -> RetryPolicy {
        RetryPolicy { ack_timeout: 100, discovery_timeout: 1000, max_attempts: 3 }
    }

    /// A driver whose grace window keeps tests quick: 1 ms virtual
    /// ticks and a 2 ms loss fallback (still ≫ a loopback round trip).
    fn fast_driver() -> SocketDriver {
        let mut d = SocketDriver::new(WallClock::new(SimTime::ZERO, Duration::from_millis(1)));
        d.set_grace(Duration::from_millis(2));
        d
    }

    /// A driver whose grace window is long enough that a kernel slow to
    /// hand over a loopback datagram never expires it: a test on it
    /// that sees an expiry saw an unproven fast-forward.
    fn patient_driver() -> SocketDriver {
        let mut d = SocketDriver::new(WallClock::new(SimTime::ZERO, Duration::from_millis(1)));
        d.set_grace(Duration::from_secs(1));
        d
    }

    #[test]
    fn route_over_loopback_sockets_delivers() {
        let mut env = MiniEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.mobile_hops.insert((A, B), B);
        let mut d = patient_driver();
        d.bind_node(A, env.addrs[&A], ProtoMachine::new(A, policy())).unwrap();
        d.bind_node(B, env.addrs[&B], ProtoMachine::new(B, policy())).unwrap();
        let now = d.now();
        let (route_id, out) = d.machine_mut(A).unwrap().start_route(now, &mut env, B);
        d.dispatch(A, out, &mut env).unwrap();
        d.run_until(&mut env, 10_000, |c| {
            matches!(c, Completion::Delivered { origin, route_id: r } if *origin == A && *r == route_id)
        })
        .unwrap();
        assert!(d
            .completions
            .iter()
            .any(|c| matches!(c, Completion::Delivered { origin, .. } if *origin == A)));
        // One metered hop, acked before its retry timer could fire.
        assert_eq!(env.meter.count(MessageKind::RouteHop), 1);
        assert_eq!(env.meter.count(MessageKind::SpuriousRetry), 0);
        let s = d.stats();
        assert!(s.datagrams_sent >= 2, "hop plus ack, got {}", s.datagrams_sent);
        assert_eq!(s.dropped_oversized + s.dropped_garbage, 0);
        // The hop's ack timer stays armed after the ack clears its
        // session, so reaching quiet takes a fast-forward; had it not
        // been proven by the accounting, it would show as an expiry.
        d.run_until_quiet(&mut env, 10_000).unwrap();
        let s = d.stats();
        assert!(s.fast_forwards >= 1, "the stale ack timer must be skipped to");
        assert_eq!(s.grace_expiries, 0, "every fast-forward proven quiet");
        assert_eq!(s.datagrams_sent, s.datagrams_received);
    }

    #[test]
    fn hostile_datagrams_are_dropped_and_metered() {
        let mut env = MiniEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.mobile_hops.insert((A, B), B);
        let mut d = patient_driver();
        let ep = d.bind_node(A, env.addrs[&A], ProtoMachine::new(A, policy())).unwrap();
        d.bind_node(B, env.addrs[&B], ProtoMachine::new(B, policy())).unwrap();
        let attacker = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        // Undecodable bytes, an oversized frame, and a well-formed
        // envelope addressed to a node this socket does not host.
        attacker.send_to(&[0xFF; 40], ep).unwrap();
        attacker.send_to(&[0u8; 300], ep).unwrap();
        let misdirected = Envelope {
            src: B,
            dst: B,
            msg_id: 7,
            trace_id: 0,
            msg: WireMessage::HopAck { acked: 1 },
            auth: None,
        };
        attacker.send_to(&misdirected.encode(), ep).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while d.stats().datagrams_received < 3 && Instant::now() < deadline {
            d.pump(&mut env).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let s = d.stats();
        assert_eq!(s.datagrams_received, 3);
        assert_eq!(s.dropped_oversized, 1);
        assert_eq!(s.dropped_garbage, 2);
        assert_eq!(env.meter.count(MessageKind::MalformedFrame), 3);
        // The machine never saw any of it: nothing sent, nothing done.
        assert_eq!(s.datagrams_sent, 0);
        assert!(d.completions.is_empty());
        // Nor did the in-flight accounting: a hosted route afterwards
        // still reaches quiet without a single grace expiry.
        assert_eq!((d.in_flight, d.unaccounted), (0, false));
        let now = d.now();
        let (_, out) = d.machine_mut(A).unwrap().start_route(now, &mut env, B);
        d.dispatch(A, out, &mut env).unwrap();
        d.run_until_quiet(&mut env, 10_000).unwrap();
        assert!(d.completions.iter().any(|c| matches!(c, Completion::Delivered { .. })));
        assert_eq!(d.stats().grace_expiries, 0);
    }

    #[test]
    fn stale_addresses_are_blackholed_at_send() {
        let mut env = MiniEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        env.mobile_hops.insert((A, B), B);
        let mut d = fast_driver();
        d.bind_node(A, env.addrs[&A], ProtoMachine::new(A, policy())).unwrap();
        d.bind_node(B, env.addrs[&B], ProtoMachine::new(B, policy())).unwrap();
        // B's epoch-0 address is retired before A's hop goes out: the
        // send-time check mirrors the simulator's arrival-time drop.
        env.valid.remove(&(2, 0));
        let now = d.now();
        let (_, out) = d.machine_mut(A).unwrap().start_route(now, &mut env, B);
        d.dispatch(A, out, &mut env).unwrap();
        let s = d.stats();
        assert_eq!(s.stale_blackholed, 1);
        assert_eq!(s.datagrams_sent, 0);
    }

    #[test]
    fn retry_ladder_runs_on_fast_forward_not_wall_time() {
        let mut env = MiniEnv::default().with_node(A, 1, 1).with_node(B, 2, 5);
        // A non-mobile next hop: exhaustion fails the route outright
        // (no stationary-layer rediscovery to fall back to).
        env.mobile_hops.insert((A, B), B);
        let mut d = fast_driver();
        d.bind_node(A, env.addrs[&A], ProtoMachine::new(A, policy())).unwrap();
        // B's endpoint is a deaf socket: bound, never polled, never acks.
        let deaf = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        d.book_mut().register(env.addrs[&B], deaf.local_addr().unwrap());
        let now = d.now();
        let (route_id, out) = d.machine_mut(A).unwrap().start_route(now, &mut env, B);
        d.dispatch(A, out, &mut env).unwrap();
        let started = Instant::now();
        d.run_until_quiet(&mut env, 10_000).unwrap();
        // Three 100-tick timeouts with backoff would be minutes of real
        // time at 1 ms/tick without fast-forward.
        assert!(started.elapsed() < Duration::from_secs(30), "must not sleep out the timers");
        assert!(d
            .completions
            .iter()
            .any(|c| matches!(c, Completion::RouteFailed { origin, route_id: r, .. } if *origin == A && *r == route_id)));
        assert_eq!(env.meter.count(MessageKind::Timeout), 3);
        // Initial send plus two retransmissions, all metered.
        assert_eq!(env.meter.count(MessageKind::RouteHop), 3);
        assert!(d.stats().fast_forwards >= 3, "quiet waits must fast-forward");
        // The deaf endpoint is foreign: quiet is never proven, so every
        // wait takes the grace-window fallback.
        assert!(d.stats().grace_expiries >= 1, "a foreign endpoint must fall back to the window");
    }
}
