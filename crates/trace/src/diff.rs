//! Profile comparison and the perf-regression gate.
//!
//! `diff(A, B)` lines up the scalar metrics of two profiles and reports
//! relative change; metrics marked *higher-is-worse* feed the
//! `--fail-on-regression <pct>` gate ci.sh runs against a committed
//! baseline. Informational metrics (overlap efficiency, busy cycles) are
//! reported but never gate.

use crate::Profile;

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub name: &'static str,
    /// Value in the baseline profile.
    pub a: f64,
    /// Value in the candidate profile.
    pub b: f64,
    /// Relative change in percent (`(b-a)/a·100`; 0 when both are 0).
    pub pct: f64,
    /// Whether an increase in this metric is a regression.
    pub higher_is_worse: bool,
}

impl MetricDelta {
    /// Whether this metric regressed beyond `threshold_pct`.
    pub fn regressed(&self, threshold_pct: f64) -> bool {
        self.higher_is_worse && self.pct > threshold_pct
    }
}

fn delta(name: &'static str, a: f64, b: f64, higher_is_worse: bool) -> MetricDelta {
    let pct = if a == 0.0 && b == 0.0 {
        0.0
    } else if a == 0.0 {
        100.0
    } else {
        100.0 * (b - a) / a
    };
    MetricDelta {
        name,
        a,
        b,
        pct,
        higher_is_worse,
    }
}

/// Compares two profiles metric by metric. Latency percentiles appear only
/// when both profiles carry them (runtime streams).
pub fn diff(a: &Profile, b: &Profile) -> Vec<MetricDelta> {
    let mut out = vec![
        delta(
            "makespan_cycles",
            a.makespan as f64,
            b.makespan as f64,
            true,
        ),
        delta("energy_pj", a.energy_pj, b.energy_pj, true),
        delta("dram_bytes", a.dram_bytes as f64, b.dram_bytes as f64, true),
        delta(
            "idle_cycles",
            a.idle_cycles as f64,
            b.idle_cycles as f64,
            false,
        ),
        delta(
            "crit_stall_cycles",
            a.critical.stall as f64,
            b.critical.stall as f64,
            false,
        ),
        delta("overlap", a.overlap, b.overlap, false),
        delta(
            "busy_cycles",
            a.busy.total() as f64,
            b.busy.total() as f64,
            false,
        ),
    ];
    if let (Some((_, a95, _)), Some((_, b95, _))) = (a.latency, b.latency) {
        out.push(delta("latency_p95_cycles", a95 as f64, b95 as f64, true));
    }
    // Fault-injection metrics appear only when both sides ran with faults,
    // so fault-free baselines keep their pre-fault-injection diff shape.
    if (a.fault_events > 0 || a.fault_lost_cycles > 0)
        && (b.fault_events > 0 || b.fault_lost_cycles > 0)
    {
        out.push(delta(
            "fault_lost_cycles",
            a.fault_lost_cycles as f64,
            b.fault_lost_cycles as f64,
            true,
        ));
    }
    // SLO burn metrics gate only when both sides tracked an SLO over
    // windowed telemetry — a candidate that burns error budget faster (or
    // raises more alerts) than the baseline is a serving regression even
    // when mean throughput looks fine.
    if let (Some(sa), Some(sb)) = (
        a.windowed.as_ref().and_then(|w| w.slo.as_ref()),
        b.windowed.as_ref().and_then(|w| w.slo.as_ref()),
    ) {
        out.push(delta(
            "slo_burn_peak_slow",
            sa.burn_peak_slow,
            sb.burn_peak_slow,
            true,
        ));
        out.push(delta(
            "slo_alerts",
            sa.alerts as f64,
            sb.alerts as f64,
            true,
        ));
    }
    out
}

/// The metrics in `deltas` that regressed beyond `threshold_pct`.
pub fn regressions(deltas: &[MetricDelta], threshold_pct: f64) -> Vec<&MetricDelta> {
    deltas
        .iter()
        .filter(|d| d.regressed(threshold_pct))
        .collect()
}

/// Renders the comparison as the fixed-width table `trace diff` prints.
pub fn render(deltas: &[MetricDelta], threshold_pct: Option<f64>) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:>16} {:>16} {:>9}  gate",
        "metric", "baseline", "candidate", "delta"
    );
    for d in deltas {
        let gate = match threshold_pct {
            Some(t) if d.regressed(t) => "FAIL",
            Some(_) if d.higher_is_worse => "ok",
            _ => "-",
        };
        let _ = writeln!(
            out,
            "{:<20} {:>16.3} {:>16.3} {:>+8.2} %  {}",
            d.name, d.a, d.b, d.pct, gate
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::PhaseEnergy;
    use crate::tree::{CriticalPath, LaneCycles};

    fn profile(makespan: u64, energy_pj: f64) -> Profile {
        Profile {
            jobs: 1,
            groups: 1,
            tiles: 1,
            makespan,
            busy: LaneCycles {
                load: 10,
                compute: 20,
                store: 5,
            },
            critical: CriticalPath::default(),
            overlap: 1.2,
            idle_cycles: 0,
            idle_gaps: 0,
            dram_bytes: 1000,
            energy_pj,
            phases: PhaseEnergy::default(),
            layers: Vec::new(),
            latency: Some((10, 20, 30)),
            fault_events: 0,
            fault_lost_cycles: 0,
            alert_spans: 0,
            first_alert: None,
            windowed: None,
            fleet: None,
        }
    }

    #[test]
    fn identical_profiles_do_not_regress() {
        let p = profile(100, 5000.0);
        let deltas = diff(&p, &p);
        assert!(regressions(&deltas, 0.0).is_empty());
        assert!(deltas.iter().all(|d| d.pct == 0.0));
    }

    #[test]
    fn slower_or_hungrier_candidate_fails_the_gate() {
        let a = profile(100, 5000.0);
        let b = profile(110, 5000.0); // +10 % cycles
        let deltas = diff(&a, &b);
        let failed = regressions(&deltas, 5.0);
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].name, "makespan_cycles");
        assert!(regressions(&deltas, 15.0).is_empty(), "within threshold");
    }

    #[test]
    fn improvements_never_gate() {
        let a = profile(100, 5000.0);
        let b = profile(50, 2500.0);
        assert!(regressions(&diff(&a, &b), 0.0).is_empty());
    }

    #[test]
    fn latency_gates_only_when_both_sides_have_it() {
        let a = profile(100, 1.0);
        let mut b = profile(100, 1.0);
        b.latency = None;
        assert!(!diff(&a, &b).iter().any(|d| d.name.starts_with("latency")));
        let deltas = diff(&a, &a);
        assert!(deltas.iter().any(|d| d.name == "latency_p95_cycles"));
    }

    #[test]
    fn fault_metric_appears_only_when_both_sides_saw_faults() {
        let clean = profile(100, 1.0);
        let mut faulted = profile(100, 1.0);
        faulted.fault_events = 4;
        faulted.fault_lost_cycles = 250;
        assert!(!diff(&clean, &faulted)
            .iter()
            .any(|d| d.name.starts_with("fault")));
        let mut worse = faulted.clone();
        worse.fault_lost_cycles = 500;
        let deltas = diff(&faulted, &worse);
        let d = deltas
            .iter()
            .find(|d| d.name == "fault_lost_cycles")
            .expect("gated fault metric");
        assert!(d.regressed(5.0));
    }

    #[test]
    fn slo_burn_gates_only_when_both_sides_tracked_an_slo() {
        use crate::profile::{SloProfile, WindowProfile};
        let windowed = |alerts: u64, peak: f64| {
            let mut p = profile(100, 1.0);
            p.windowed = Some(WindowProfile {
                width: 1000,
                stride: 1000,
                count: 4,
                tail: Vec::new(),
                slo: Some(SloProfile {
                    alerts,
                    burn_peak_fast: peak,
                    burn_peak_slow: peak,
                }),
            });
            p
        };
        let plain = profile(100, 1.0);
        assert!(!diff(&plain, &windowed(1, 2.0))
            .iter()
            .any(|d| d.name.starts_with("slo")));
        let deltas = diff(&windowed(0, 0.5), &windowed(2, 2.0));
        let burn = deltas
            .iter()
            .find(|d| d.name == "slo_burn_peak_slow")
            .expect("burn metric");
        assert!(burn.regressed(5.0), "4x burn is a regression");
        assert!(deltas
            .iter()
            .any(|d| d.name == "slo_alerts" && d.higher_is_worse));
    }

    #[test]
    fn render_flags_failures() {
        let a = profile(100, 1000.0);
        let b = profile(200, 1000.0);
        let table = render(&diff(&a, &b), Some(5.0));
        assert!(table.contains("makespan_cycles"));
        assert!(table.contains("FAIL"));
        let info = render(&diff(&a, &b), None);
        assert!(!info.contains("FAIL"));
    }
}
