//! The repository benchmark: one binary, three workloads.
//!
//! ```text
//! perfbench --workload cnn-zoo|serve-mix|fleet-openloop --seed N --seconds S --trace 0|1
//!           [--server PATH/TO/mocha-sim] [--out DIR]
//! ```
//!
//! Prints a human-readable report and, as its last stdout line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` holding every
//! end-to-end metric (`--trace 0`) or every per-layer metric (`--trace 1`).
//! `perfbench/run.py` builds this binary and `mocha-sim` and runs it.

mod cnn_zoo;
mod fleet;
mod metrics;
mod serve_mix;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Engine worker threads every workload runs with (the golden model's
/// data-parallel helpers size themselves from the host's core count).
pub const THREADS: usize = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server: Option<PathBuf>,
    pub out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        if !matches!(
            key,
            "workload" | "seed" | "seconds" | "trace" | "server" | "out"
        ) {
            return Err(format!("unknown option --{key}"));
        }
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key, v);
    }
    let get = |k: &str| opts.get(k).copied().ok_or(format!("--{k} is required"));
    let workload = get("workload")?.to_string();
    if !metrics::WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        server: opts.get("server").map(PathBuf::from),
        out: PathBuf::from(opts.get("out").copied().unwrap_or(".bench_build/perfbench")),
    })
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub violations: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Extra report lines (sample counts, recorded failures).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            metrics::END_TO_END
                .iter()
                .chain(metrics::PER_LAYER)
                .any(|m| m.name == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Derives an independent stream seed from the run seed (SplitMix64).
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set (`VmHWM`) of a process, MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM"))?;
    Ok(kb / 1024.0)
}

/// Fills the per-layer accounting metrics from a traced pass: self times
/// per layer, the wall time per lane they must add up to, and the tracing
/// overhead against an untraced pass of the same work. Self time of spans
/// not named in `self_names` (the per-network or per-round root spans) is
/// left in `bench.unattributed_s`.
pub fn account(
    out: &mut Outcome,
    tracer: &spans::Tracer,
    self_names: &[(&'static str, &'static str)],
    traced_wall: f64,
    untraced_wall: f64,
    lanes: usize,
) {
    let st = tracer.self_times();
    let mut attributed = 0.0;
    for (span, metric) in self_names {
        let v = st.get(span).copied().unwrap_or(0.0);
        attributed += v;
        *out.values.entry(metric).or_insert(0.0) += v;
    }
    out.set("bench.traced_wall_s", traced_wall);
    out.set("bench.untraced_wall_s", untraced_wall);
    out.set(
        "bench.unattributed_s",
        (traced_wall * lanes as f64 - attributed) / lanes as f64,
    );
    out.set("bench.overhead_s", traced_wall - untraced_wall);
    out.set("bench.lanes", lanes as f64);
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    mocha_engine::set_default_threads(THREADS);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} engine_threads={THREADS} host_cores={cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let run = match args.workload.as_str() {
        "cnn-zoo" => cnn_zoo::run(&args),
        "serve-mix" => serve_mix::run(&args),
        "fleet-openloop" => fleet::run(&args),
        _ => unreachable!("validated in parse_args"),
    };
    let out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for n in &out.notes {
        println!("  {n}");
    }
    for v in &out.violations {
        println!("  CHECK FAILED: {v}");
    }
    let set = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for m in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
        if let Some(v) = out.values.get(m.name) {
            println!(
                "  {:<28} {:>16.6} {:<8} ({} is better)",
                m.name,
                v,
                m.unit,
                m.better.name()
            );
        }
    }
    let mut obj = mocha_json::Value::object();
    for m in set {
        let v = match out.values.get(m.name) {
            Some(v) => *v,
            // Per-layer metrics a workload does not exercise read 0.
            None if args.trace => 0.0,
            None => panic!("{}: end-to-end metric {} missing", args.workload, m.name),
        };
        assert!(v.is_finite(), "{} is not finite", m.name);
        obj = obj.with(m.name, mocha_json::jobj! { "value" => v, "unit" => m.unit });
    }
    let result = mocha_json::jobj! {
        "correct" => out.violations.is_empty(),
        "attempted" => out.attempted,
        "failed" => out.failed,
        "metrics" => obj,
    };
    println!("{}", result.to_string_compact());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let v: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&v)
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload cnn-zoo --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload cnn-zoo --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--workload cnn-zoo --seed 7 --trace 0").is_err());
        assert!(args("--workload cnn-zoo --seed 7 --seconds 10 --trace 0 --bogus 1").is_err());
    }

    #[test]
    fn sub_seeds_are_stable_and_distinct() {
        assert_eq!(sub_seed(42, 1), sub_seed(42, 1));
        assert_ne!(sub_seed(42, 1), sub_seed(42, 2));
        assert_ne!(sub_seed(42, 1), sub_seed(43, 1));
    }
}
