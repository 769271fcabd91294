//! Property tests for the windowed telemetry layer: windowing must be
//! **lossless**. Tumbling windows partition the run, so merging every
//! per-window histogram (or summing every per-window counter) must
//! reproduce the whole-run aggregate bit for bit — the property that lets
//! an analyser trust window views as a decomposition rather than an
//! approximation. Rolling views must likewise be exact merges of their
//! base cells. The single-pass JSONL export must match the per-window
//! rescan it replaced byte for byte.

use mocha_obs::{Histogram, LabelSet, WindowSet, WindowSpec, WindowedMetrics};

/// Deterministic xorshift generator — the tests need arbitrary-looking
/// streams, not statistical quality.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A seeded stream of (cycle, value, label-choice) events.
fn events(seed: u64, n: usize, horizon: u64) -> Vec<(u64, u64, usize)> {
    let mut rng = Rng(seed | 1);
    (0..n)
        .map(|_| {
            let cycle = rng.next() % horizon;
            let value = rng.next() % 10_000;
            let label = (rng.next() % 3) as usize;
            (cycle, value, label)
        })
        .collect()
}

#[test]
fn merging_all_tumbling_windows_reproduces_the_whole_run_histogram() {
    for (seed, width, n, horizon) in [
        (3, 1u64, 500, 2_000),
        (7, 250, 4_000, 50_000),
        (11, 1_000, 4_000, 50_000),
        (13, 7_919, 4_000, 50_000),
    ] {
        let spec = WindowSpec::tumbling(width);
        let mut ws = WindowSet::new(spec);
        let labels = [
            LabelSet::EMPTY,
            ws.intern(&[("tenant", "0")]),
            ws.intern(&[("tenant", "1"), ("template", "vgg16")]),
        ];
        let mut whole = Histogram::new();
        for (cycle, value, l) in events(seed, n, horizon) {
            ws.sample_at("lat", labels[l], cycle, value);
            whole.record(value);
        }
        let mut merged = Histogram::new();
        for w in 0..ws.window_count() {
            merged.merge(&ws.window_hist("lat", w));
        }
        assert_eq!(
            merged, whole,
            "width {width}: windowing lost or duplicated samples"
        );
        assert_eq!(ws.merged_hist("lat"), whole, "whole-run merge across cells");
    }
}

#[test]
fn summing_all_tumbling_windows_reproduces_the_whole_run_counter() {
    let spec = WindowSpec::tumbling(512);
    let mut ws = WindowSet::new(spec);
    let labels = [
        LabelSet::EMPTY,
        ws.intern(&[("kind", "pe")]),
        ws.intern(&[("kind", "dram")]),
    ];
    let mut whole = 0u64;
    for (cycle, value, l) in events(17, 4_000, 50_000) {
        let delta = value % 7 + 1;
        ws.add_at("hits", labels[l], cycle, delta);
        whole += delta;
    }
    let windowed: u64 = (0..ws.window_count())
        .map(|w| ws.window_counter("hits", w))
        .sum();
    assert_eq!(windowed, whole);
    assert_eq!(ws.counter_total("hits"), whole);
}

#[test]
fn rolling_windows_are_exact_merges_of_their_base_cells() {
    let spec = WindowSpec::parse("rolling:2000/500").unwrap();
    let mut ws = WindowSet::new(spec);
    // A tumbling set at stride granularity is the base-cell oracle.
    let mut cells = WindowSet::new(WindowSpec::tumbling(500));
    for (cycle, value, _) in events(23, 3_000, 20_000) {
        ws.sample_at("lat", LabelSet::EMPTY, cycle, value);
        cells.sample_at("lat", LabelSet::EMPTY, cycle, value);
    }
    assert_eq!(ws.window_count(), cells.window_count());
    for w in 0..ws.window_count() {
        let mut oracle = Histogram::new();
        for c in w..(w + spec.cells_per_window()).min(cells.window_count()) {
            oracle.merge(&cells.window_hist("lat", c));
        }
        assert_eq!(ws.window_hist("lat", w), oracle, "window {w}");
    }
}

#[test]
fn stray_quantiles_inside_windows_match_a_sort_oracle() {
    // Windowed quantiles are the same exact nearest-rank walk as the
    // whole-run histogram: spot-check one window against a sorted vector.
    let spec = WindowSpec::tumbling(1_000);
    let mut ws = WindowSet::new(spec);
    let mut in_window: Vec<u64> = Vec::new();
    for (cycle, value, _) in events(29, 2_000, 10_000) {
        ws.sample_at("lat", LabelSet::EMPTY, cycle, value);
        if spec.cell(cycle) == 4 {
            in_window.push(value);
        }
    }
    in_window.sort_unstable();
    let h = ws.window_hist("lat", 4);
    assert_eq!(h.count(), in_window.len() as u64);
    for p in [50.0, 95.0, 99.0] {
        let rank = ((p / 100.0) * in_window.len() as f64).ceil() as usize;
        let oracle = in_window[rank.clamp(1, in_window.len()) - 1];
        assert_eq!(h.quantile(p), Some(oracle), "p{p}");
    }
}

/// One random windowed-metrics bundle: counters and histograms under a
/// label mix, optional SLO feed, optional trailing silence.
fn random_metrics(seed: u64, spec: WindowSpec, mix: usize) -> WindowedMetrics {
    const NAMES: [&str; 3] = ["serve.requests", "runtime.latency_cycles", "a"];
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut m = WindowedMetrics::new(spec);
    // Interned out of text order ("tenant=2" before "tenant=10"), so label
    // ids and label text sort differently.
    let labeled = [
        m.windows.intern(&[("tenant", "2")]),
        m.windows.intern(&[("tenant", "10"), ("template", "vgg16")]),
        m.windows
            .intern(&[("template", "alexnet"), ("tenant", "10")]),
        m.windows.intern(&[("kind", "pe")]),
    ];
    let pick = |rng: &mut Rng| -> LabelSet {
        match mix {
            // Unlabeled only.
            0 => LabelSet::EMPTY,
            // Labeled only.
            1 => labeled[(rng.next() % 4) as usize],
            // The empty set next to labeled sets of the same names.
            _ => match rng.next() % 5 {
                4 => LabelSet::EMPTY,
                i => labeled[i as usize],
            },
        }
    };
    let horizon = spec.width * (2 + rng.next() % 12);
    let n = 1 + rng.next() % 300;
    for _ in 0..n {
        let cycle = rng.next() % horizon;
        let name = NAMES[(rng.next() % 3) as usize];
        let labels = pick(&mut rng);
        // Mostly small repeating values; now and then past 2^53, where
        // the JSON number is no longer the exact integer.
        let value = match rng.next() % 20 {
            0 => (1u64 << 53) + rng.next() % 1_000,
            1 => u64::MAX - rng.next() % 1_000,
            _ => rng.next() % 50,
        };
        if rng.next() % 2 == 0 {
            m.windows.add_at(name, labels, cycle, value >> 8);
        } else {
            m.windows.sample_at(name, labels, cycle, value);
        }
    }
    if rng.next() % 2 == 0 {
        let slo = m.enable_slo();
        for _ in 0..rng.next() % 40 {
            let cell = spec.cell(rng.next() % horizon);
            match rng.next() % 3 {
                0 => slo.good(cell, 1 + rng.next() % 9),
                1 => slo.miss(cell, 1 + rng.next() % 9),
                _ => slo.error(cell, 1 + rng.next() % 9),
            }
        }
    }
    if rng.next() % 2 == 0 {
        // Trailing silence: empty windows past the last event.
        m.windows
            .observe_cycle(horizon + spec.stride * (1 + rng.next() % 5));
    }
    m
}

#[test]
fn single_pass_export_matches_the_per_window_rescan_oracle() {
    let specs = [
        "1",
        "700",
        "5000",
        "rolling:2/1",
        "rolling:4000/1000",
        "rolling:3000/1000",
        "rolling:6000/6000",
    ];
    for seed in 0..40u64 {
        for spec in specs {
            let spec = WindowSpec::parse(spec).unwrap();
            for mix in 0..3 {
                let m = random_metrics(seed, spec, mix);
                assert_eq!(
                    m.to_jsonl(),
                    m.to_jsonl_oracle(),
                    "seed {seed}, spec {spec:?}, label mix {mix}"
                );
            }
        }
    }
}

#[test]
fn export_oracle_covers_the_awkward_rows() {
    // Rolling windows over a labeled and an unlabeled histogram of one
    // name, a sample past 2^53, and silence after the last event.
    let spec = WindowSpec::parse("rolling:300/100").unwrap();
    let mut m = WindowedMetrics::new(spec);
    let l = m.windows.intern(&[("tenant", "1")]);
    m.windows.sample_at("lat", LabelSet::EMPTY, 0, 5);
    m.windows.sample_at("lat", l, 150, (1 << 53) + 1);
    m.windows.add_at("hits", l, 150, (1 << 53) + 1);
    m.windows.observe_cycle(999);
    let text = m.to_jsonl();
    assert_eq!(text, m.to_jsonl_oracle());
    assert_eq!(m.windows.window_count(), 10);
    // Window 0 spans both samples: its aggregate row counts both.
    assert!(
        text.contains(r#""count":2,"end":300,"event":"whist","labels":"","max":9007199254740992,"#)
    );
    assert!(text.contains(r#""value":9007199254740992,"window":1}"#));
    // Window 1 (cells 1-3) still holds the labeled sample; window 2 starts
    // past every event and emits no window/whist rows.
    assert!(text.contains(r#""start":100,"window":1}"#));
    assert!(!text.contains(r#""window":2}"#));
}
