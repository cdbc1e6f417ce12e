//! Correctness checks. Each returns `Err(description)` when the program's
//! output is wrong; any failing check makes the whole run fail.
//!
//! The figure checks state the paper's qualitative claims the way
//! `tests/experiment_shapes.rs` does, with the sweep points located by
//! value so they hold for any configured sweep that contains them.

use bristle_overlay::key::Key;
use bristle_sim::conformance::ConformanceReport;
use bristle_sim::experiments::{fig3, fig7, fig8, fig9, table1};

/// A check's verdict.
pub type Verdict = Result<(), String>;

/// No crash is scripted in `roam`, so any node a heartbeat round
/// confirms dead was buried wrongfully.
pub fn no_burials(dead: &[Key]) -> Verdict {
    if dead.is_empty() {
        Ok(())
    } else {
        Err(format!("heartbeat round buried {} live node(s), first {}", dead.len(), dead[0]))
    }
}

/// Every disseminated LDT edge is acked or counted as failed: the acks
/// can never exceed the tree's edges.
pub fn edges_accounted(expected: usize, acked: usize) -> Verdict {
    if acked <= expected {
        Ok(())
    } else {
        Err(format!("{acked} acks for an LDT of {expected} edges"))
    }
}

/// The socket arm told the same story as the simulator.
pub fn conformant(sim: &ConformanceReport, net: &ConformanceReport) -> Verdict {
    if sim.tallies != net.tallies {
        return Err("per-kind meter tallies differ between simulator and sockets".into());
    }
    if sim.profile != net.profile {
        return Err("causal profiles differ between simulator and sockets".into());
    }
    Ok(())
}

/// Repeated runs at one seed regenerate byte-identical tables.
pub fn same_digest(reference: u64, got: u64, what: &str) -> Verdict {
    if reference == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: table digest {got:016x} differs from the first set's {reference:016x}"
        ))
    }
}

fn claim(ok: bool, what: &str) -> Verdict {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

fn at<'a, T>(rows: &'a [T], fraction: fn(&T) -> f64, f: f64, what: &str) -> Result<&'a T, String> {
    rows.iter()
        .find(|r| (fraction(r) - f).abs() < 1e-9)
        .ok_or_else(|| format!("{what}: sweep has no point at M/N = {f}"))
}

/// Table 1: Bristle keeps sessions alive and beats Type B on
/// availability and stretch; Type B pays the triangle.
pub fn table1_claims(r: &table1::Table1Result) -> Verdict {
    let [a, b, bristle] = r.systems.as_slice() else {
        return Err("table1: expected three systems".into());
    };
    claim(bristle.session_survival > 0.95, "table1: Bristle sessions survive moves")?;
    claim(a.session_survival == 0.0, "table1: Type A sessions break on a move")?;
    claim(b.session_survival < 0.99, "table1: home-agent failures dent Type B")?;
    claim(
        bristle.data_availability > b.data_availability,
        "table1: Bristle data stays more available than Type B",
    )?;
    claim(b.path_stretch > 1.01, "table1: Type B pays the triangle route")?;
    claim(bristle.path_stretch < b.path_stretch, "table1: Bristle stretch below Type B")?;
    claim(bristle.state_per_node > 0.0 && a.state_per_node > 0.0, "table1: state is kept")
}

/// Fig. 3: non-member-only responsibility exceeds member-only and grows
/// super-linearly in M/N.
pub fn fig3_claims(r: &fig3::Fig3Result) -> Verdict {
    for row in &r.rows {
        claim(
            row.analytic.non_member > row.analytic.member_only
                && row.measured_non_member > row.measured_member,
            "fig3: non-member responsibility exceeds member-only",
        )?;
    }
    let frac = |row: &fig3::Fig3Row| row.analytic.mobile_fraction;
    let low = at(&r.rows, frac, 0.2, "fig3")?;
    let high = at(&r.rows, frac, 0.8, "fig3")?;
    claim(
        high.measured_non_member > 2.0 * low.measured_non_member,
        "fig3: non-member responsibility grows super-linearly",
    )
}

/// Fig. 7: clustered naming beats scrambled, scrambled degrades with
/// mobility, and RDP starts at 1 and grows.
pub fn fig7_claims(r: &fig7::Fig7Result) -> Verdict {
    for row in &r.rows {
        claim(
            row.clustered.hops <= row.scrambled.hops + 0.5,
            "fig7: clustered naming never loses to scrambled",
        )?;
    }
    let frac = |row: &fig7::Fig7Row| row.fraction;
    let none = at(&r.rows, frac, 0.0, "fig7")?;
    let most = at(&r.rows, frac, 0.8, "fig7")?;
    claim(most.scrambled.hops > none.scrambled.hops * 1.6, "fig7: scrambled degrades steeply")?;
    claim((none.rdp_hops() - 1.0).abs() < 0.3, "fig7: RDP is about 1 without mobile nodes")?;
    claim(most.rdp_hops() > 1.2, "fig7: RDP grows with mobile nodes")?;
    claim(
        (most.rdp_hops() - most.rdp_cost()).abs() < most.rdp_hops(),
        "fig7: hop and cost RDP agree in direction",
    )
}

/// Fig. 8: LDT depth shrinks as MAX capacity grows, and assignments
/// concentrate on capable members.
pub fn fig8_claims(r: &fig8::Fig8Result) -> Verdict {
    let cap = |max: u32| {
        r.distributions
            .iter()
            .find(|d| d.max_capacity == max)
            .ok_or_else(|| format!("fig8: no population with MAX = {max}"))
    };
    let (d1, d8, d15) = (cap(1)?, cap(8)?, cap(15)?);
    claim(d1.mean_depth > d8.mean_depth, "fig8: depth shrinks from MAX 1 to 8")?;
    claim(d8.mean_depth >= d15.mean_depth, "fig8: depth shrinks from MAX 8 to 15")?;
    claim(d1.max_depth > 10, "fig8: MAX = 1 degenerates toward chains")?;
    claim(d15.mean_depth < 5.0, "fig8: MAX = 15 keeps trees shallow")?;
    let (mut strong, mut weak) = (0usize, 0usize);
    for tree in r.detail.iter().filter(|t| t.len() >= 3) {
        strong += tree[1].assigned;
        weak += tree[tree.len() - 1].assigned;
    }
    claim(strong >= weak, "fig8: assignments concentrate on capable members")
}

/// Fig. 9: locality-aware LDTs are cheaper at every density, and density
/// does not hurt them.
pub fn fig9_claims(r: &fig9::Fig9Result) -> Verdict {
    for row in &r.rows {
        claim(
            row.cost_with_locality < row.cost_without_locality,
            "fig9: locality-aware trees are cheaper",
        )?;
    }
    let (first, last) = match (r.rows.first(), r.rows.last()) {
        (Some(f), Some(l)) => (f, l),
        _ => return Err("fig9: empty sweep".into()),
    };
    claim(
        last.cost_with_locality <= first.cost_with_locality * 1.1,
        "fig9: density does not hurt locality-aware trees",
    )
}

/// FNV-1a over a rendered table set: the figures' digest at a seed.
pub fn digest(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bristle_overlay::meter::MessageKind;
    use bristle_sim::conformance::run_sim;
    use bristle_sim::experiments::fig7::{Fig7Row, SchemeMetrics};

    #[test]
    fn route_and_burial_checks_fire() {
        assert!(no_burials(&[]).is_ok());
        assert!(no_burials(&[Key(7)]).is_err());
        assert!(edges_accounted(3, 3).is_ok());
        assert!(edges_accounted(3, 4).is_err());
        assert!(same_digest(1, 1, "t").is_ok());
        assert!(same_digest(1, 2, "t").is_err());
    }

    #[test]
    fn conformance_check_fires_on_a_tampered_tally() {
        let sim = run_sim(8);
        assert!(conformant(&sim, &sim.clone()).is_ok());
        let mut bad = sim.clone();
        let slot = bad.tallies.iter_mut().find(|t| t.0 == MessageKind::RouteHop).unwrap();
        slot.1 += 1;
        assert!(conformant(&sim, &bad).is_err());
        let mut bad = sim.clone();
        bad.profile.push_str("extra\n");
        assert!(conformant(&sim, &bad).is_err());
    }

    #[test]
    fn fig7_check_fires_when_schemes_swap() {
        let m = |hops: f64, cost: f64| SchemeMetrics { hops, path_cost: cost, discoveries: 0.0 };
        let good = fig7::Fig7Result {
            rows: vec![
                Fig7Row { fraction: 0.0, scrambled: m(4.0, 10.0), clustered: m(4.0, 10.0) },
                Fig7Row { fraction: 0.8, scrambled: m(9.0, 30.0), clustered: m(5.0, 14.0) },
            ],
        };
        let verdict = fig7_claims(&good);
        assert!(verdict.is_ok(), "{verdict:?}");
        let mut bad = good.clone();
        let row = &mut bad.rows[1];
        std::mem::swap(&mut row.scrambled, &mut row.clustered);
        assert!(fig7_claims(&bad).is_err());
    }
}
