//! The fleet front-end: `mocha-sim fleet` and the `serve --open-loop
//! --fleet` delegation target.
//!
//! `fleet` shards work across N simulated fabric instances of differing
//! geometry behind one deterministic router. The default (batch) mode is
//! the fleet twin of `runtime`: a seeded closed-loop trace routed over the
//! fleet and executed on each shard's cycle-accurate scheduler. With
//! `--open-loop` it becomes the fleet twin of `serve --open-loop` — the
//! engine behind experiment R5 — adding per-shard fault domains,
//! quarantine-triggered re-balancing, and template-warmth cold penalties.
//!
//! Both modes are byte-identical at any `--threads` and with the decision
//! cache on or off; `--fleet` / `--route` parse errors are one line on
//! stderr with exit code 2, the same contract as `--faults`.

use crate::args::Args;
use crate::commands;
use crate::config;
use crate::openloop::OpenLoopInput;
use mocha::fabric::FabricConfig;
use mocha::fleet::{
    run_fleet, run_fleet_open_loop, FleetConfig, FleetOpenLoopParams, FleetSpec, RouteKind,
};
use mocha::obs::{MemRecorder, NoopRecorder};
use mocha::runtime::{self, LeasePolicy, Mix, TrafficConfig};
use mocha_json::ToJson;

/// Parses `--fleet SPEC`, defaulting to a fleet of one quad fabric so
/// `fleet` without options is the exact off-switch for `runtime`.
fn fleet_spec(args: &Args) -> Result<FleetSpec, String> {
    match args.options.get("fleet") {
        None => Ok(FleetSpec::single(FabricConfig::mocha_quad())),
        Some(spec) => FleetSpec::parse(spec),
    }
}

/// Parses `--route POLICY` (default round-robin — the stateless baseline).
fn route_kind(args: &Args) -> Result<RouteKind, String> {
    match args.options.get("route") {
        None => Ok(RouteKind::RoundRobin),
        Some(s) => RouteKind::parse(s),
    }
}

/// `fleet` subcommand.
pub fn fleet(args: &Args) -> i32 {
    if args.flag("open-loop") {
        return open_loop(args);
    }
    if let Err(code) = commands::strict(
        args,
        0,
        &[
            "fleet",
            "route",
            "route-seed",
            "jobs",
            "load",
            "seed",
            "mix",
            "policy",
            "max-tenants",
            "no-verify",
            "json",
            "obs",
            "threads",
            "faults",
            "cache",
        ],
    ) {
        return code;
    }
    let fleet = match fleet_spec(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let route = match route_kind(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let policy_name = args.opt("policy", "adaptive");
    let Some(policy) = LeasePolicy::parse(&policy_name) else {
        eprintln!("unknown policy {policy_name:?} (adaptive|static)");
        return 2;
    };
    let max_tenants = args.opt_u64("max-tenants", 4) as usize;
    if max_tenants == 0 {
        eprintln!("--max-tenants must be at least 1");
        return 2;
    }
    let faults = match config::fault_plan(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mix_name = args.opt("mix", "quick");
    let Some(mix) = Mix::parse(&mix_name) else {
        eprintln!("unknown mix {mix_name:?} (quick|full)");
        return 2;
    };
    let traffic = TrafficConfig {
        jobs: args.opt_u64("jobs", 8) as usize,
        load: args.opt_f64("load", 2.0),
        seed: args.opt_u64("seed", 42),
        mix,
    };
    if traffic.load <= 0.0 {
        eprintln!("--load must be positive");
        return 2;
    }
    let cfg = FleetConfig {
        fleet,
        route,
        route_seed: args.opt_u64("route-seed", 42),
        policy,
        max_tenants,
        verify: !args.flag("no-verify"),
        threads: 0,
        faults,
        cache: args.flag("cache"),
    };
    let subs = runtime::generate(&traffic);
    let obs_path = args.options.get("obs").cloned();
    let mut rec = MemRecorder::new();
    let report = match &obs_path {
        None => run_fleet(&cfg, &subs, &mut NoopRecorder),
        Some(_) => run_fleet(&cfg, &subs, &mut rec),
    };

    use std::fmt::Write as _;
    let mut out = String::new();
    if args.flag("json") {
        let _ = writeln!(out, "{}", report.to_json().to_string_pretty());
    } else {
        let _ = writeln!(
            out,
            "{} jobs ({} mix, load {:.2}, seed {}) over {} shard(s), route {}",
            traffic.jobs,
            mix.name(),
            traffic.load,
            traffic.seed,
            report.shards.len(),
            report.route,
        );
        let _ = writeln!(
            out,
            "  {:>5} {:<12} {:>7} {:>10} {:>7} {:>8} {:>12}",
            "shard", "fabric", "routed", "completed", "failed", "retried", "horizon"
        );
        for s in &report.shards {
            let _ = writeln!(
                out,
                "  {:>5} {:<12} {:>7} {:>10} {:>7} {:>8} {:>12}",
                s.shard,
                s.label,
                s.routed,
                s.report.completed(),
                s.report.failed,
                s.report.retried,
                s.report.horizon,
            );
        }
        let _ = writeln!(
            out,
            "fleet: {} completed | {} failed | {} retried | horizon {} cycles",
            report.completed(),
            report.failed(),
            report.retried(),
            report.horizon(),
        );
        let _ = writeln!(
            out,
            "  p50 {} p95 {} p99 {} cycles | mean wait {:.0}",
            report.latency_percentile(50.0),
            report.latency_percentile(95.0),
            report.latency_percentile(99.0),
            report.mean_queue_wait(),
        );
    }

    commands::exit_code(commands::emit(obs_path.as_deref(), &rec, &out))
}

/// `fleet --open-loop` (also reached from `serve --open-loop --fleet`):
/// the fleet open-loop queueing simulation behind experiment R5.
pub fn open_loop(args: &Args) -> i32 {
    if let Err(code) = commands::strict(
        args,
        0,
        &[
            "open-loop",
            "fleet",
            "route",
            "route-seed",
            "cold-penalty",
            "requests",
            "tenants",
            "load",
            "seed",
            "mix",
            "slo",
            "shed-policy",
            "trace",
            "json",
            "obs",
            "max-tenants",
            "threads",
            "faults",
            "cache",
            "metrics-window",
            "metrics",
        ],
    ) {
        return code;
    }
    commands::exit_code(run_open_loop_cmd(args))
}

fn run_open_loop_cmd(args: &Args) -> Result<(), String> {
    let metrics = crate::serve::metrics_flags(args)?;
    let fleet = fleet_spec(args)?;
    let route = route_kind(args)?;
    let input = OpenLoopInput::parse(args)?;
    let fabrics: Vec<FabricConfig> = fleet.shards().iter().map(|s| s.fabric).collect();
    let services = input.services(args, &fabrics)?;
    let obs_path = args.options.get("obs").map(String::as_str);
    let params = FleetOpenLoopParams {
        fleet: &fleet,
        slots: input.slots,
        shed: input.shed,
        route,
        route_seed: args.opt_u64("route-seed", 42),
        faults: input.faults.as_ref(),
        cold_penalty: args.opt_u64("cold-penalty", 0),
        record_spans: obs_path.is_some(),
    };
    let mut rec = MemRecorder::new();
    let (report, outcomes) = run_fleet_open_loop(&params, &input.requests, &services, &mut rec);
    input.export_metrics(metrics, &outcomes, &report.fault_log, &mut rec)?;

    use std::fmt::Write as _;
    let mut out = String::new();
    if args.flag("json") {
        let _ = writeln!(out, "{}", report.to_json().to_string_pretty());
    } else {
        let _ = writeln!(
            out,
            "fleet open-loop ({}): {} requests over {} shard(s), route {}, policy {}",
            input.label,
            report.offered,
            report.shards.len(),
            report.route,
            report.policy,
        );
        let _ = writeln!(
            out,
            "  admitted {} | shed {} | completed {} | failed {} | in-SLO {} | misses {}",
            report.admitted,
            report.shed,
            report.completed,
            report.failed,
            report.in_slo,
            report.deadline_misses,
        );
        let _ = writeln!(
            out,
            "  routing: {} rebalanced | {} cold | {} warm",
            report.rebalanced, report.cold_misses, report.warm_hits,
        );
        if input.faults.is_some() {
            let _ = writeln!(
                out,
                "  faults: {} injected | {} quarantined | {} cycles lost",
                report.faults_injected, report.quarantined, report.lost_cycles,
            );
        }
        let _ = writeln!(
            out,
            "  goodput {:.3} /Mcycle | p50 {} p95 {} p99 {} cycles | mean wait {:.0} | util {:.1} %",
            report.goodput_per_mcycle(),
            report.latency_percentile(50.0),
            report.latency_percentile(95.0),
            report.latency_percentile(99.0),
            report.mean_queue_wait,
            100.0 * report.utilization(),
        );
        let _ = writeln!(
            out,
            "  {:>5} {:<12} {:>7} {:>7} {:>5} {:>9} {:>7} {:>7} {:>7} {:>10}",
            "shard",
            "fabric",
            "servers",
            "routed",
            "shed",
            "completed",
            "failed",
            "reb-in",
            "reb-out",
            "p99"
        );
        for (i, s) in report.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:>5} {:<12} {:>7} {:>7} {:>5} {:>9} {:>7} {:>7} {:>7} {:>10}",
                i,
                s.label,
                s.servers,
                s.routed,
                s.shed,
                s.completed,
                s.failed,
                s.rebalanced_in,
                s.rebalanced_out,
                s.latency_percentile(99.0),
            );
        }
    }
    commands::emit(obs_path, &rec, &out)
}
