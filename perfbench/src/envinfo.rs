//! The environment block printed with every result.

use std::path::Path;

use crate::metrics::json_str;

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest matching mount point wins).
fn fs_type(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else { return "unknown".into() };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(point), Some(kind)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if abs.starts_with(point) && best.as_ref().is_none_or(|(len, _)| point.len() > *len) {
            best = Some((point.len(), kind.to_string()));
        }
    }
    best.map(|(_, kind)| kind).unwrap_or_else(|| "unknown".into())
}

/// One JSON line describing where and how the run was measured. The
/// rustc version and source identity come from the launcher
/// (`PERFBENCH_RUSTC`, `PERFBENCH_SOURCE`), which can run commands the
/// measured process should not.
pub fn env_line(workload: &str, seed: u64, trace: bool, smoke: bool, wal_dir: &Path) -> String {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let fields = [
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("trace", trace.to_string()),
        ("smoke", smoke.to_string()),
        ("nproc", nproc.to_string()),
        ("rustc", json_str(&var("PERFBENCH_RUSTC"))),
        ("profile", json_str(profile)),
        ("source", json_str(&var("PERFBENCH_SOURCE"))),
        ("wal_fs", json_str(&fs_type(wal_dir))),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{\"env\": {{{}}}}}", body.join(", "))
}
