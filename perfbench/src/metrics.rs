//! The benchmark's metric catalogue and result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names;
//! the smoke test checks the two agree.

use std::fmt::Write as _;

/// A declared metric: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// Metrics of the untraced run (`--trace 0`), printed by every workload.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s"),
    spec("ops_per_s", "1/s"),
    spec("op_p50_us", "us"),
    spec("op_tail_us", "us"),
    spec("peak_rss_mb", "MB"),
    spec("msgs_per_op", "count"),
];

/// Metrics of the traced run (`--trace 1`), printed by every workload.
pub const PER_LAYER: &[Spec] = &[
    spec("netsim.distance_ns", "ns"),
    spec("netsim.cold_row_ms", "ms"),
    spec("netsim.row_fill", "ratio"),
    spec("overlay.next_hop_ns", "ns"),
    spec("overlay.hops_per_route", "count"),
    spec("core.move_us", "us"),
    spec("core.build_ldt_us", "us"),
    spec("core.ldt_edges_per_move", "count"),
    spec("proto.encode_ns", "ns"),
    spec("proto.decode_ns", "ns"),
    spec("proto.timeouts_per_op", "count"),
    spec("proto.discovery_per_route", "count"),
    spec("sim.route_us", "us"),
    spec("sim.register_us", "us"),
    spec("sim.disseminate_us", "us"),
    spec("sim.heartbeat_round_ms", "ms"),
    spec("sim.events_per_op", "count"),
    spec("sim.queue_ns", "ns"),
    spec("sim.trace_len", "count"),
    spec("sim.route_vlat_p50", "utick"),
    spec("sim.route_vlat_p99", "utick"),
    spec("store.apply_us", "us"),
    spec("store.replay_ms", "ms"),
    spec("store.records_per_node", "count"),
    spec("net.socket_scenario_ms", "ms"),
    spec("net.sim_scenario_ms", "ms"),
    spec("net.socket_over_sim", "ratio"),
    spec("drift.ops_per_s.q1", "1/s"),
    spec("drift.ops_per_s.q2", "1/s"),
    spec("drift.ops_per_s.q3", "1/s"),
    spec("drift.ops_per_s.q4", "1/s"),
    spec("drift.trace_len.q1", "count"),
    spec("drift.trace_len.q2", "count"),
    spec("drift.trace_len.q3", "count"),
    spec("drift.trace_len.q4", "count"),
    spec("drift.rss_mb.q1", "MB"),
    spec("drift.rss_mb.q2", "MB"),
    spec("drift.rss_mb.q3", "MB"),
    spec("drift.rss_mb.q4", "MB"),
    spec("bench.traced_ops_per_s", "1/s"),
    spec("bench.span_overhead_pct", "%"),
    spec("bench.tail_pct", "%"),
    spec("bench.tail_beyond", "count"),
];

/// Metric values collected by one run, by name.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records (or overwrites) `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The recorded names, in recording order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|&(n, _)| n)
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What one benchmark run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that failed (errors, mismatches, undelivered edges).
    pub failed: u64,
    /// Collected metric values.
    pub values: Values,
    /// Descriptions of the checks that failed.
    pub violations: Vec<String>,
    /// Extra JSON lines printed before the result line.
    pub notes: Vec<String>,
}

/// Formats a float as JSON with all its digits (non-finite values,
/// which JSON cannot carry, become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// of `specs` with its unit.
///
/// # Panics
/// Panics if a metric of `specs` was never recorded — a benchmark bug,
/// not a measurement.
pub fn result_line(outcome: &Outcome, specs: &[Spec]) -> String {
    let mut metrics = Vec::with_capacity(specs.len());
    for s in specs {
        let v =
            outcome.values.get(s.name).unwrap_or_else(|| panic!("metric {} not recorded", s.name));
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(s.name),
            json_num(v),
            json_str(s.unit)
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, a) in all.iter().enumerate() {
            assert!(a.name.len() <= 64 && a.unit.len() <= 16);
            assert!(a.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(all[i + 1..].iter().all(|b| b.name != a.name), "{} twice", a.name);
        }
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_num(1.25), "1.25");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "0.0");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
