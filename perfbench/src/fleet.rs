//! `fleet-openloop`: an in-process capacity-planning run.
//!
//! Set-up generates a heavy-tailed open-loop trace and calibrates per-shard
//! service times (the only simulation in this workload). Each measured
//! round then routes the trace over a faulty three-shard fleet, exports the
//! windowed metrics, serializes the obs stream and profiles it with
//! `mocha_trace` — the read path a capacity planner pays per question.

use std::time::Instant;

use mocha_core::{Accelerator, Objective, Simulator};
use mocha_energy::EnergyTable;
use mocha_engine::Engine;
use mocha_fault::FaultPlan;
use mocha_fleet::{run_fleet_open_loop, FleetOpenLoopParams, FleetSpec, RouteKind};
use mocha_model::gen::Workload;
use mocha_obs::{MemRecorder, WindowSpec};
use mocha_runtime::{JobSpec, Mix};
use mocha_serve::{traffic, windows_from_open_loop, Calibration, RequestOutcome, ShedPolicy};

use crate::spans::Tracer;
use crate::{account, peak_rss_mb, stats, sub_seed, Args, Outcome, THREADS};

const REQUESTS: usize = 25_000;
const TENANTS: usize = 1_000;
const LOAD: f64 = 6.0;
const SLO_CYCLES: u64 = 400_000;
const FLEET: &str = "preset=quad/preset=mocha,count=2";
const FAULTS: &str = "rate=0.05,seed=9";
const WINDOW: &str = "1000000";
const SLOTS: usize = 4;
const SETUP_REPEATS: usize = 5;
/// Nominal seconds per round on a 2-core 2.1 GHz Xeon host: the round
/// count is fixed from the requested time, so every run does the same work.
const ROUND_S: f64 = 0.5;
/// Pipeline steps per round: route+queue, window export, stream, profile.
const STEPS: u64 = 4;

/// Modelled figures of one served template (one simulation at seed 42).
#[derive(Debug, Clone)]
pub struct TemplateHw {
    pub network: String,
    pub profile: String,
    pub work_macs: u64,
    pub energy_pj: f64,
    pub peak_storage: usize,
}

/// Simulates each distinct template once on the mocha fabric: the
/// per-request energy and storage behind the `hw_*` figures of workloads
/// that serve templates rather than simulate networks themselves.
pub fn template_hw(specs: &[JobSpec]) -> Vec<TemplateHw> {
    let mut pairs: Vec<(String, String)> = specs
        .iter()
        .map(|s| (s.network.clone(), s.profile.clone()))
        .collect();
    pairs.sort();
    pairs.dedup();
    let sim = Simulator::new(Accelerator::mocha(Objective::Edp));
    pairs
        .into_iter()
        .map(|(network, profile)| {
            let spec = specs
                .iter()
                .find(|s| s.network == network && s.profile == profile)
                .expect("pair drawn from specs");
            let w = Workload::generate(
                mocha_model::network::by_name(&network).expect("validated network"),
                spec.sparsity_profile().expect("validated profile"),
                42,
            );
            let m = sim.run(&w);
            TemplateHw {
                work_macs: m.work_macs(),
                energy_pj: m.report(&sim.energy).energy.total_pj(),
                peak_storage: m.peak_storage(),
                network,
                profile,
            }
        })
        .collect()
}

pub fn find<'a>(hw: &'a [TemplateHw], spec: &JobSpec) -> &'a TemplateHw {
    hw.iter()
        .find(|t| t.network == spec.network && t.profile == spec.profile)
        .expect("every served template was simulated")
}

struct Setup {
    requests: Vec<traffic::Request>,
    services: Vec<Vec<u64>>,
    hw: Vec<TemplateHw>,
    traffic_s: f64,
    calibrate_s: f64,
    total_s: f64,
}

fn setup(seed: u64, fleet: &FleetSpec) -> Result<Setup, String> {
    let t0 = Instant::now();
    let requests = traffic::generate(&traffic::OpenLoopConfig {
        requests: REQUESTS,
        tenants: TENANTS,
        load: LOAD,
        seed: sub_seed(seed, 3),
        mix: Mix::Quick,
        slo: Some(SLO_CYCLES),
    });
    let traffic_s = t0.elapsed().as_secs_f64();
    let specs: Vec<JobSpec> = requests.iter().map(|r| r.spec.clone()).collect();
    let t1 = Instant::now();
    let mut cals: Vec<(mocha_fabric::FabricConfig, Calibration)> = Vec::new();
    for shard in fleet.shards() {
        if !cals.iter().any(|(f, _)| *f == shard.fabric) {
            let cal = Calibration::measure(&shard.fabric, SLOTS, &specs, Engine::new(THREADS))?;
            cals.push((shard.fabric, cal));
        }
    }
    let services: Vec<Vec<u64>> = fleet
        .shards()
        .iter()
        .map(|sh| {
            let cal = &cals
                .iter()
                .find(|(f, _)| *f == sh.fabric)
                .expect("calibrated")
                .1;
            requests.iter().map(|r| cal.service(&r.spec)).collect()
        })
        .collect();
    let calibrate_s = t1.elapsed().as_secs_f64();
    let hw = template_hw(&specs);
    Ok(Setup {
        requests,
        services,
        hw,
        traffic_s,
        calibrate_s,
        total_s: t0.elapsed().as_secs_f64(),
    })
}

/// The modelled and size figures of one round; must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct RoundFp {
    completed: usize,
    in_slo: usize,
    horizon: u64,
    p99: u64,
    rebalanced: usize,
    cold: usize,
    warm: usize,
    faults: usize,
    quarantined: usize,
    window_bytes: usize,
    stream_bytes: usize,
    completed_macs: u64,
    completed_pj_bits: u64,
    profile: Result<(), String>,
}

fn round(
    p: &FleetOpenLoopParams,
    s: &Setup,
    id: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> RoundFp {
    let mut rec = MemRecorder::new();
    let (report, outcomes) = tr.span("fleet.openloop", id, |_| {
        run_fleet_open_loop(p, &s.requests, &s.services, &mut rec)
    });
    let window_bytes = tr.span("obs.window", id, |_| {
        let spec = WindowSpec::parse(WINDOW).expect("valid window");
        let m = windows_from_open_loop(spec, &s.requests, &outcomes, &report.fault_log, p.shed);
        if m.slo.is_some() {
            m.record_alerts(&mut rec);
        }
        m.to_jsonl().len()
    });
    let stream = tr.span("obs.stream", id, |_| rec.to_jsonl());
    let profile = tr.span("trace.profile", id, |_| {
        mocha_trace::profile_input(&stream, &EnergyTable::default())
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
    out.attempted += STEPS;
    if profile.is_err() {
        out.failed += 1;
    }

    for (i, sh) in report.shards.iter().enumerate() {
        out.check(sh.conserved(), || {
            format!("shard {i} does not conserve requests")
        });
    }
    out.check(report.offered == REQUESTS, || {
        "offered != trace length".into()
    });
    out.check(report.admitted + report.shed == report.offered, || {
        "admitted + shed != offered".into()
    });
    out.check(report.completed + report.failed == report.admitted, || {
        "completed + failed != admitted".into()
    });
    let mut completed_macs = 0u64;
    let mut completed_pj = 0.0f64;
    for (r, o) in s.requests.iter().zip(&outcomes) {
        if let RequestOutcome::Done { .. } = o {
            let t = find(&s.hw, &r.spec);
            completed_macs += t.work_macs;
            completed_pj += t.energy_pj;
        }
    }
    RoundFp {
        completed: report.completed,
        in_slo: report.in_slo,
        horizon: report.horizon,
        p99: report.latency_percentile(99.0),
        rebalanced: report.rebalanced,
        cold: report.cold_misses,
        warm: report.warm_hits,
        faults: report.faults_injected,
        quarantined: report.quarantined,
        window_bytes,
        stream_bytes: stream.len(),
        completed_macs,
        completed_pj_bits: completed_pj.to_bits(),
        profile,
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let fleet = FleetSpec::parse(FLEET)?;
    let faults = FaultPlan::parse(FAULTS)?;

    let mut setups = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPEATS {
        let x = setup(args.seed, &fleet)?;
        setups.push((x.total_s, x.traffic_s, x.calibrate_s));
        s = Some(x);
    }
    let s = s.expect("set up at least once");
    let med = |f: fn(&(f64, f64, f64)) -> f64| {
        stats::median(&setups.iter().map(f).collect::<Vec<_>>()).expect("repeats")
    };
    out.set("setup_s", med(|x| x.0));

    let params = FleetOpenLoopParams {
        fleet: &fleet,
        slots: SLOTS,
        shed: ShedPolicy::parse("deadline")?,
        route: RouteKind::parse("locality")?,
        route_seed: 42,
        faults: Some(&faults),
        cold_penalty: 0,
        record_spans: true,
    };

    let origin = Instant::now();
    let mut off = Tracer::new(false, origin, 0);
    // Traced runs split the time between the untraced baseline rounds and
    // as many traced rounds.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let rounds = ((budget / ROUND_S).round() as usize).max(1);
    let mut lat = Vec::new();
    let mut first: Option<RoundFp> = None;
    for i in 0..rounds {
        let t = Instant::now();
        let fp = round(&params, &s, i as u64, &mut off, &mut out);
        lat.push(t.elapsed().as_secs_f64());
        match &first {
            None => first = Some(fp),
            Some(f) => out.check(*f == fp, || "round results differ between rounds".into()),
        }
    }
    let fp = first.expect("one round");
    let busy: f64 = lat.iter().sum();
    let per_s = rounds as f64 / busy;
    let clock_ghz = EnergyTable::default().clock_ghz;
    out.set("fleet_kreq_per_s", REQUESTS as f64 * per_s / 1e3);
    out.set("serve_rps_at_slo", fp.in_slo as f64 * per_s);
    out.set("sim_gmacs_per_s", fp.completed_macs as f64 * per_s / 1e9);
    let lat_ms: Vec<f64> = lat.iter().map(|x| x * 1e3).collect();
    let p95 = stats::tail(&lat_ms, 95.0).expect("rounds");
    out.set("serve_p50_ms", stats::median(&lat_ms).expect("rounds"));
    out.set("serve_p95_ms", p95.value);
    out.set(
        "hw_goodput_per_mcycle",
        fp.in_slo as f64 * 1e6 / fp.horizon as f64,
    );
    out.set("hw_p99_kcycles", fp.p99 as f64 / 1e3);
    let ops = 2.0 * fp.completed_macs as f64;
    out.set("hw_gops", ops / (fp.horizon as f64 / clock_ghz));
    out.set(
        "hw_gops_per_w",
        ops / f64::from_bits(fp.completed_pj_bits) * 1e3,
    );
    out.set(
        "hw_storage_kb",
        s.hw.iter().map(|t| t.peak_storage).max().unwrap_or(0) as f64 / 1024.0,
    );
    out.note(format!(
        "{rounds} rounds of {REQUESTS} requests; per-round p{} over {} samples",
        p95.pct, p95.count
    ));
    out.note(format!(
        "completed {} (in SLO {}), rebalanced {}, faults {} (quarantined {}), horizon {} cycles",
        fp.completed, fp.in_slo, fp.rebalanced, fp.faults, fp.quarantined, fp.horizon
    ));
    if let Err(e) = &fp.profile {
        out.note(format!(
            "trace profile step failed every round (counted in `failed`): {e}"
        ));
    }

    if args.trace {
        let mut tr = Tracer::new(true, origin, 0);
        let t = Instant::now();
        for i in 0..rounds {
            let fp2 = tr.span("round", i as u64, |tr| {
                round(&params, &s, i as u64, tr, &mut out)
            });
            out.check(fp2 == fp, || "traced round differs from untraced".into());
        }
        let traced = t.elapsed().as_secs_f64();
        account(
            &mut out,
            &tr,
            &[
                ("fleet.openloop", "fleet.openloop_s"),
                ("obs.window", "obs.window_s"),
                ("obs.stream", "obs.stream_s"),
                ("trace.profile", "trace.profile_s"),
            ],
            traced,
            busy,
            1,
        );
        out.set("serve.traffic_s", med(|x| x.1));
        out.set("serve.calibrate_s", med(|x| x.2));
        out.set(
            "fleet.cold_ratio",
            fp.cold as f64 / (fp.cold + fp.warm).max(1) as f64,
        );
        out.set("fleet.rebalanced", fp.rebalanced as f64);
        out.set("fault.injected", fp.faults as f64);
        out.set("fault.quarantined", fp.quarantined as f64);
        out.set("obs.window_bytes", fp.window_bytes as f64);
        out.set("obs.stream_bytes", fp.stream_bytes as f64);
        tr.write_jsonl(
            &args
                .out
                .join(format!("trace-fleet-openloop-{}.jsonl", args.seed)),
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    }

    out.set("peak_rss_mb", peak_rss_mb(None)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_a_function_of_the_seed() {
        let gen = |seed| {
            traffic::generate(&traffic::OpenLoopConfig {
                requests: 500,
                tenants: TENANTS,
                load: LOAD,
                seed: sub_seed(seed, 3),
                mix: Mix::Quick,
                slo: Some(SLO_CYCLES),
            })
        };
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
    }
}
