//! The benchmark's metric and workload registry.
//!
//! `BENCHMARK.json` at the repository root repeats these names, units and
//! directions (plus the regression bounds); a test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// The workloads, with the reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cnn-zoo",
        "cold Simulator::run with golden checks on alexnet@sparse and mobilenet_v1@dense: controller, codecs and golden model",
    ),
    (
        "serve-mix",
        "mocha-sim serve over TCP, open loop, repeated and new quick-mix jobs plus stats/metrics reads: reactor, scheduler, warm cache",
    ),
    (
        "fleet-openloop",
        "capacity planning over 25k heavy-tailed requests on a faulty 3-shard fleet: routing, queue model, windowed export, trace profile",
    ),
];

/// End-to-end metrics: every workload reports all of them (see the README
/// for what each means outside its home workload). Measured untraced.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("sim_gmacs_per_s", "GMAC/s", Higher),
    m("hw_gops_per_w", "GOPS/W", Higher),
    m("hw_gops", "GOPS", Higher),
    m("hw_storage_kb", "KB", Lower),
    m("serve_p50_ms", "ms", Lower),
    m("serve_p95_ms", "ms", Lower),
    m("serve_rps_at_slo", "1/s", Higher),
    m("fleet_kreq_per_s", "kreq/s", Higher),
    m("hw_goodput_per_mcycle", "1/Mcycle", Higher),
    m("hw_p99_kcycles", "kcycles", Lower),
];

/// Per-layer metrics of the traced run. `*_s` self times plus
/// `bench.unattributed_s` add up to `bench.traced_wall_s` per lane.
pub const PER_LAYER: &[Metric] = &[
    m("model.gen_s", "s", Lower),
    m("model.golden_s", "s", Lower),
    m("core.decide_s", "s", Lower),
    m("core.decide_calls", "count", Lower),
    m("core.candidates", "count", Lower),
    m("core.compression_fallbacks", "count", Lower),
    m("core.exec_s", "s", Lower),
    m("compress.encode_s", "s", Lower),
    m("compress.encode_gbps", "GB/s", Higher),
    m("compress.ratio", "ratio", Higher),
    m("core.cache_hit_ratio", "ratio", Higher),
    m("core.cache_decisions", "count", Lower),
    m("runtime.batch_s", "s", Lower),
    m("runtime.batch_ms", "ms", Lower),
    m("runtime.remorphs", "count", Lower),
    m("runtime.jobs_per_batch", "count", Higher),
    m("serve.wait_s", "s", Lower),
    m("serve.wait_ms", "ms", Lower),
    m("serve.query_s", "s", Lower),
    m("serve.query_ms", "ms", Lower),
    m("serve.lag_s", "s", Lower),
    m("serve.lag_ms", "ms", Lower),
    m("serve.latency_samples", "count", Higher),
    m("serve.traffic_s", "s", Lower),
    m("serve.calibrate_s", "s", Lower),
    m("fleet.openloop_s", "s", Lower),
    m("fleet.cold_ratio", "ratio", Lower),
    m("fleet.rebalanced", "count", Lower),
    m("fault.injected", "count", Lower),
    m("fault.quarantined", "count", Lower),
    m("obs.window_s", "s", Lower),
    m("obs.window_bytes", "bytes", Lower),
    m("obs.stream_s", "s", Lower),
    m("obs.stream_bytes", "bytes", Lower),
    m("trace.profile_s", "s", Lower),
    m("bench.traced_wall_s", "s", Lower),
    m("bench.untraced_wall_s", "s", Lower),
    m("bench.unattributed_s", "s", Lower),
    m("bench.overhead_s", "s", Lower),
    m("bench.lanes", "count", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Characters allowed in metric and workload names.
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Characters allowed in units.
    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for (w, why) in WORKLOADS {
            assert!(valid_name(w), "bad workload name {w:?}");
            assert!(seen.insert(w), "duplicate name {w}");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        assert!(!valid_name("has space"));
        assert!(!valid_name("_leading"));
        assert!(!valid_unit(""));
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = mocha_json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<mocha_json::Value> {
            match v.get(key) {
                Some(mocha_json::Value::Arr(a)) => a.clone(),
                other => panic!("{key}: expected an array, got {other:?}"),
            }
        };
        let s = |x: &mocha_json::Value, k: &str| -> String {
            x.get(k)
                .and_then(|f| f.as_str())
                .unwrap_or_else(|| panic!("missing string {k}"))
                .to_string()
        };
        let check = |key: &str, reg: &[Metric], bounded: bool| {
            let entries = list(key);
            assert_eq!(entries.len(), reg.len(), "{key}: count");
            for (e, m) in entries.iter().zip(reg) {
                assert_eq!(s(e, "name"), m.name, "{key}: order");
                assert_eq!(s(e, "unit"), m.unit, "{}", m.name);
                assert_eq!(s(e, "better"), m.better.name(), "{}", m.name);
                if bounded {
                    let b = e.get("bound").and_then(|b| b.as_f64()).expect("bound");
                    assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
                }
            }
        };
        check("end_to_end", END_TO_END, true);
        check("per_layer", PER_LAYER, false);
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (e, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(s(e, "name"), *name);
            assert_eq!(s(e, "why"), *why);
        }
    }
}
