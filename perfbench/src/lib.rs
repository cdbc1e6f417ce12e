//! Wall-clock benchmark of the Bristle workspace.
//!
//! One process runs one workload: it sets the system up (several times,
//! reporting the median), drives it with one closed-loop client for a
//! fixed wall-clock window, checks that the outputs are correct, and
//! prints one JSON result line. `--trace 1` runs the same workload with
//! spans around every driver call and then replays the run's inputs
//! through each layer's public functions; see `README.md` for the map
//! from layers to metrics.

pub mod checks;
pub mod envinfo;
pub mod metrics;
pub mod probe;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use metrics::{Outcome, Values};
use stats::{median, proc_mem_mb, tail};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Moves, stale routes, registrations and routes on a lossy system
    /// with a write-ahead log on a sample of stationary nodes.
    Roam,
    /// Paper-scale regeneration of Table 1 and Figs. 3, 7, 8, 9.
    Figures,
    /// The conformance scenario over UDP loopback sockets.
    Loopback,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Roam, Workload::Figures, Workload::Loopback];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Roam => "roam",
            Workload::Figures => "figures",
            Workload::Loopback => "loopback",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny populations for tests: the same code paths in seconds.
    pub smoke: bool,
    /// Tamper with one output so the correctness checks must fire.
    pub corrupt: bool,
    /// Directory for files the run writes (WALs); emptied before use.
    pub scratch: PathBuf,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
    /// plus the test-only `--smoke`, `--corrupt` and `--scratch <dir>`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: Workload::Roam,
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
            corrupt: false,
            scratch: PathBuf::from(".bench_build/scratch"),
        };
        let mut workload = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == v)
                            .ok_or_else(|| format!("unknown workload {v}"))?,
                    );
                }
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                "--scratch" => args.scratch = PathBuf::from(value()?),
                "--smoke" => args.smoke = true,
                "--corrupt" => args.corrupt = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// Set-up runs at least this many times...
const SETUP_REPS: usize = 3;

/// ...and until this much set-up time has accumulated, so a set-up of a
/// few milliseconds is still reported as the median of many.
const SETUP_MIN_S: f64 = 1.0;

/// Runs `build` (given the repetition index) repeatedly, dropping each
/// result before the next build, and returns the last result with the
/// median build time in seconds. Smoke runs build twice.
pub fn repeated_setup<T>(smoke: bool, mut build: impl FnMut(usize) -> T) -> (T, f64) {
    let (reps, min_s) = if smoke { (2, 0.0) } else { (SETUP_REPS, SETUP_MIN_S) };
    let mut kept = None;
    let mut times: Vec<f64> = Vec::new();
    while times.len() < reps || times.iter().sum::<f64>() < min_s {
        drop(kept.take());
        let t0 = Instant::now();
        let v = build(times.len());
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(v);
    }
    (kept.expect("built at least once"), median(&times))
}

/// One drift snapshot, taken at the first operation to end after each
/// quarter of the window (of the quota, for a window of zero seconds).
#[derive(Debug, Clone, Copy)]
struct Quarter {
    at_s: f64,
    ops: u64,
    trace_len: u64,
    rss_mb: f64,
}

/// What the first `quota` operations cost: the fixed amount of work the
/// end-to-end metrics describe.
#[derive(Debug, Clone, Copy)]
struct Quota {
    /// Seconds from the window's start to the quota-th operation's end.
    at_s: f64,
    /// Successful operations among them.
    ok: u64,
    /// `VmHWM` at that moment.
    hwm_mb: f64,
}

/// The closed-loop client's bookkeeping for one timed window.
///
/// The window lasts at least `seconds` and at least `quota` operations.
/// End-to-end metrics describe the first `quota` operations only, so a
/// faster program is not charged for the extra state (transport trace,
/// registrations) that more operations in the same seconds accumulate;
/// the drift snapshots cover the whole window.
#[derive(Debug)]
pub struct Recorder {
    start: Instant,
    window: Duration,
    quota: u64,
    /// Wall nanoseconds of every successful operation within the quota,
    /// by operation kind.
    lat_ns: Vec<Vec<u64>>,
    attempted: u64,
    failed: u64,
    reached: Option<Quota>,
    quarters: Vec<Quarter>,
    /// Correctness violations seen so far.
    pub violations: Vec<String>,
}

impl Recorder {
    /// Starts a window of at least `seconds` and `quota` operations now;
    /// with `seconds` zero the window is exactly `quota` operations.
    pub fn start(seconds: f64, quota: u64) -> Recorder {
        Recorder {
            start: Instant::now(),
            window: Duration::from_secs_f64(seconds),
            quota: quota.max(1),
            lat_ns: Vec::new(),
            attempted: 0,
            failed: 0,
            reached: None,
            quarters: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Whether the window has run out (time and quota both spent).
    pub fn expired(&self) -> bool {
        self.reached.is_some() && self.start.elapsed() >= self.window
    }

    /// Records one operation that took `nanos` (latency is kept only for
    /// successes), then a drift snapshot if a quarter mark has passed.
    /// `trace_len` is asked only when a snapshot is due. Returns true
    /// exactly once: when this operation completes the quota.
    pub fn op(&mut self, nanos: u64, ok: bool, trace_len: impl FnOnce() -> usize) -> bool {
        self.op_of(0, nanos, ok, trace_len)
    }

    /// [`Recorder::op`] for an operation of kind `kind` in a workload
    /// that mixes kinds of unlike cost (see [`Recorder::finish`]).
    pub fn op_of(
        &mut self,
        kind: usize,
        nanos: u64,
        ok: bool,
        trace_len: impl FnOnce() -> usize,
    ) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        let elapsed = self.start.elapsed();
        let mut reached_now = false;
        if self.reached.is_none() {
            if ok {
                if self.lat_ns.len() <= kind {
                    self.lat_ns.resize_with(kind + 1, Vec::new);
                }
                self.lat_ns[kind].push(nanos);
            }
            if self.attempted == self.quota {
                self.reached = Some(Quota {
                    at_s: elapsed.as_secs_f64(),
                    ok: self.attempted - self.failed,
                    hwm_mb: proc_mem_mb("VmHWM"),
                });
                reached_now = true;
            }
        }
        let next = self.quarters.len() as u64 + 1;
        // A window of zero seconds is an operation count: its quarters
        // are quarters of the quota.
        let due = next < 4
            && if self.window.is_zero() {
                self.attempted * 4 >= self.quota * next
            } else {
                elapsed >= self.window.mul_f64(next as f64 / 4.0)
            };
        if due {
            self.snapshot(elapsed.as_secs_f64(), trace_len());
        }
        reached_now
    }

    /// Records a violated check.
    pub fn violation(&mut self, v: Result<(), String>) {
        if let Err(e) = v {
            self.violations.push(e);
        }
    }

    fn snapshot(&mut self, at_s: f64, trace_len: usize) {
        let ops = self.attempted - self.failed;
        self.quarters.push(Quarter {
            at_s,
            ops,
            trace_len: trace_len as u64,
            rss_mb: proc_mem_mb("VmRSS"),
        });
    }

    /// Closes the window: records throughput, latency, tail, memory and
    /// drift metrics and returns the outcome (set-up time and the
    /// workload's own metrics are added by the caller). The median is
    /// [`kind_median_mean`]; the tail is taken over every kind together.
    pub fn finish(mut self, trace_len: usize) -> Outcome {
        let wall = self.start.elapsed().as_secs_f64();
        while self.quarters.len() < 4 {
            self.snapshot(wall, trace_len);
        }
        let quota = self.reached.unwrap_or(Quota {
            at_s: wall,
            ok: self.attempted - self.failed,
            hwm_mb: proc_mem_mb("VmHWM"),
        });
        let mut values = Values::default();
        let ops_per_s = quota.ok as f64 / quota.at_s;
        values.set("ops_per_s", ops_per_s);
        values.set("bench.traced_ops_per_s", ops_per_s);
        values.set("peak_rss_mb", quota.hwm_mb);
        values.set("op_p50_us", kind_median_mean(&mut self.lat_ns) / 1e3);
        let mut all = self.lat_ns.concat();
        all.sort_unstable();
        let (pct, beyond, tail_ns) = tail(&all);
        values.set("op_tail_us", tail_ns as f64 / 1e3);
        values.set("bench.tail_pct", pct);
        values.set("bench.tail_beyond", beyond as f64);
        let names = [
            ("drift.ops_per_s.q1", "drift.trace_len.q1", "drift.rss_mb.q1"),
            ("drift.ops_per_s.q2", "drift.trace_len.q2", "drift.rss_mb.q2"),
            ("drift.ops_per_s.q3", "drift.trace_len.q3", "drift.rss_mb.q3"),
            ("drift.ops_per_s.q4", "drift.trace_len.q4", "drift.rss_mb.q4"),
        ];
        let (mut prev_t, mut prev_ops) = (0.0, 0u64);
        for (q, (ops_name, trace_name, rss_name)) in self.quarters.iter().zip(names) {
            let dt = q.at_s - prev_t;
            let rate = if dt > 0.0 { (q.ops - prev_ops) as f64 / dt } else { 0.0 };
            values.set(ops_name, rate);
            values.set(trace_name, q.trace_len as f64);
            values.set(rss_name, q.rss_mb);
            (prev_t, prev_ops) = (q.at_s, q.ops);
        }
        if self.attempted == 0 {
            self.violations.push("no operation completed in the window".into());
        }
        Outcome {
            correct: self.violations.is_empty(),
            attempted: self.attempted,
            failed: self.failed,
            values,
            violations: self.violations,
            notes: Vec::new(),
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Seconds since the window started.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// The mean over operation kinds of each kind's median latency, in
/// nanoseconds; sorts each kind. The median of a mix of unlike
/// operations falls in the gap between two kinds' latencies, where a
/// small change in the mix moves it far; the mean of the kinds' medians
/// does not. With one kind it is the plain median.
fn kind_median_mean(kinds: &mut [Vec<u64>]) -> f64 {
    let mut n = 0u32;
    let mut sum = 0.0;
    for v in kinds.iter_mut().filter(|v| !v.is_empty()) {
        v.sort_unstable();
        sum += stats::percentile(v, 50.0) as f64;
        n += 1;
    }
    sum / f64::from(n.max(1))
}

/// Combines the outcomes of runs of the same work into one: each metric
/// is the median of its values, the counts are summed, and the result is
/// correct only if every run was. Medians keep a run that met a busy
/// spell of a shared host from moving the result.
pub fn median_outcome(runs: Vec<Outcome>) -> Outcome {
    let mut values = Values::default();
    if let Some(first) = runs.first() {
        for name in first.values.names() {
            let v: Vec<f64> = runs.iter().filter_map(|r| r.values.get(name)).collect();
            values.set(name, median(&v));
        }
    }
    let mut out = Outcome {
        correct: !runs.is_empty(),
        attempted: 0,
        failed: 0,
        values,
        violations: Vec::new(),
        notes: Vec::new(),
    };
    for r in runs {
        out.correct &= r.correct;
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.violations.extend(r.violations);
        out.notes.extend(r.notes);
    }
    out
}

/// [`median_outcome`] of epochs that each built a system of their own,
/// except that `peak_rss_mb` is the first epoch's: one system's peak.
/// Later epochs' readings add whatever the allocator kept of the systems
/// dropped before them, which varies from run to run.
pub fn epochs_outcome(epochs: Vec<Outcome>) -> Outcome {
    let first_peak = epochs.first().and_then(|e| e.values.get("peak_rss_mb"));
    let mut out = median_outcome(epochs);
    if let Some(v) = first_peak {
        out.values.set("peak_rss_mb", v);
    }
    out
}

/// The operation quota of a `seconds`-long window at `per_second`
/// operations per second of window.
pub fn quota(seconds: f64, per_second: f64) -> u64 {
    (seconds * per_second).ceil().max(1.0) as u64
}

/// Runs the workload `args` names.
pub fn run(args: &Args) -> Outcome {
    match args.workload {
        Workload::Roam => workloads::roam::run(args),
        Workload::Figures => workloads::figures::run(args),
        Workload::Loopback => workloads::loopback::run(args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_contribute_their_own_medians() {
        // A median of the pooled sample would be 10 or 1000 depending on
        // one operation; the mean of the kinds' medians is stable.
        let mut kinds = vec![vec![12, 10, 11], vec![1000, 1001, 999, 1002]];
        assert_eq!(kind_median_mean(&mut kinds), (11.0 + 1000.0) / 2.0);
        assert_eq!(kind_median_mean(&mut [vec![3, 1, 2]]), 2.0);
        assert_eq!(kind_median_mean(&mut []), 0.0);
    }

    #[test]
    fn median_outcome_takes_medians_and_sums_counts() {
        let run = |v: f64, attempted: u64, ok: bool| {
            let mut values = Values::default();
            values.set("ops_per_s", v);
            Outcome {
                correct: ok,
                attempted,
                failed: 0,
                values,
                violations: if ok { Vec::new() } else { vec!["bad".into()] },
                notes: Vec::new(),
            }
        };
        let out = median_outcome(vec![run(1.0, 5, true), run(9.0, 5, true), run(2.0, 5, true)]);
        assert_eq!(out.values.get("ops_per_s"), Some(2.0));
        assert_eq!(out.attempted, 15);
        assert!(out.correct);
        let out = median_outcome(vec![run(1.0, 1, true), run(1.0, 1, false)]);
        assert!(!out.correct);
        assert_eq!(out.violations, ["bad"]);
        assert!(!median_outcome(Vec::new()).correct);
    }

    #[test]
    fn epochs_keep_the_first_peak() {
        let epoch = |peak: f64| {
            let mut values = Values::default();
            values.set("peak_rss_mb", peak);
            values.set("setup_s", peak / 100.0);
            Outcome {
                correct: true,
                attempted: 1,
                failed: 0,
                values,
                violations: Vec::new(),
                notes: Vec::new(),
            }
        };
        let out = epochs_outcome(vec![epoch(700.0), epoch(900.0), epoch(800.0)]);
        assert_eq!(out.values.get("peak_rss_mb"), Some(700.0));
        assert_eq!(out.values.get("setup_s"), Some(8.0));
    }
}
