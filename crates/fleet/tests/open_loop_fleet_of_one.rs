//! A fleet of one is the single-fabric open loop.
//!
//! `run_fleet_open_loop` over `preset=quad` with no cold penalty must
//! reproduce `run_open_loop` on the quad fabric exactly: the same
//! per-request outcomes, the same value for every report field the two
//! share, and the same recorder stream once the fleet's own telemetry is
//! set aside (`fleet.*` counters and histograms, and the `fleet/shard0/`
//! span prefix). The matrix crosses every shed policy with no faults,
//! transient-heavy faults and quarantine-heavy faults, under every routing
//! policy, with span recording on.

use mocha_fabric::FabricConfig;
use mocha_fault::FaultPlan;
use mocha_fleet::{
    run_fleet_open_loop, template_ids, FleetOpenLoopParams, FleetOpenLoopReport, FleetSpec,
    RouteKind,
};
use mocha_obs::MemRecorder;
use mocha_runtime::Mix;
use mocha_serve::shed::ShedPolicy;
use mocha_serve::traffic::{self, OpenLoopConfig};
use mocha_serve::{run_open_loop, OpenLoopParams, OpenLoopReport, Request};

const SLOTS: usize = 4;

/// A heavy-tailed quick-mix trace with a deadline on every request, and a
/// per-template service time on the mix's own scale.
fn workload() -> (Vec<Request>, Vec<u64>) {
    let requests = traffic::generate(&OpenLoopConfig {
        requests: 600,
        tenants: 40,
        load: 3.0,
        seed: 11,
        mix: Mix::Quick,
        slo: Some(240_000),
    });
    let base = Mix::Quick.mean_service_cycles() as u64;
    let services = template_ids(&requests)
        .into_iter()
        .map(|t| base / 2 + t as u64 * base / 3)
        .collect();
    (requests, services)
}

/// The fleet stream with its own telemetry removed: `fleet.*` metric lines
/// dropped and the shard-0 span namespace stripped.
fn without_fleet_telemetry(stream: &str) -> String {
    stream
        .lines()
        .filter(|l| !l.contains("\"fleet."))
        .map(|l| l.replace("fleet/shard0/", "") + "\n")
        .collect()
}

fn assert_reports_agree(one: &OpenLoopReport, fleet: &FleetOpenLoopReport, case: &str) {
    assert_eq!(fleet.shards.len(), 1, "{case}");
    assert_eq!(one.servers, fleet.shards[0].servers, "{case}");
    assert_eq!(one.policy, fleet.policy, "{case}");
    assert_eq!(one.offered, fleet.offered, "{case}");
    assert_eq!(one.admitted, fleet.admitted, "{case}");
    assert_eq!(one.shed, fleet.shed, "{case}");
    assert_eq!(one.completed, fleet.completed, "{case}");
    assert_eq!(one.failed, fleet.failed, "{case}");
    assert_eq!(one.deadline_misses, fleet.deadline_misses, "{case}");
    assert_eq!(one.in_slo, fleet.in_slo, "{case}");
    assert_eq!(one.horizon, fleet.horizon, "{case}");
    assert_eq!(one.busy_cycles, fleet.busy_cycles, "{case}");
    assert_eq!(one.lost_cycles, fleet.lost_cycles, "{case}");
    assert_eq!(one.faults_injected, fleet.faults_injected, "{case}");
    assert_eq!(one.quarantined, fleet.quarantined, "{case}");
    assert_eq!(
        one.mean_queue_wait.to_bits(),
        fleet.mean_queue_wait.to_bits(),
        "{case}"
    );
    assert_eq!(one.fault_log, fleet.fault_log, "{case}");
    assert_eq!(
        one.goodput_per_mcycle().to_bits(),
        fleet.goodput_per_mcycle().to_bits(),
        "{case}"
    );
    assert_eq!(
        one.utilization().to_bits(),
        fleet.utilization().to_bits(),
        "{case}"
    );
    for p in [0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
        assert_eq!(
            one.latency_percentile(p),
            fleet.latency_percentile(p),
            "{case} p{p}"
        );
    }
    assert_eq!(fleet.rebalanced, 0, "{case}: nowhere to re-balance to");
}

#[test]
fn fleet_of_one_is_the_single_fabric_open_loop() {
    let (requests, services) = workload();
    let fabric = FabricConfig::mocha_quad();
    let fleet = FleetSpec::parse("preset=quad").unwrap();
    assert_eq!(fleet.shards()[0].fabric, fabric);
    let fleet_services = vec![services.clone()];
    let sheds = [ShedPolicy::None, ShedPolicy::Queue(8), ShedPolicy::Deadline];
    let plans = [
        None,
        Some(FaultPlan::parse("rate=40,seed=7,transient=0.3").unwrap()),
        Some(FaultPlan::parse("rate=80,seed=3,transient=0.1").unwrap()),
    ];
    let mut quarantined_somewhere = false;
    let mut shed_somewhere = false;
    for shed in sheds {
        for plan in &plans {
            let one_params = OpenLoopParams {
                fabric: &fabric,
                slots: SLOTS,
                shed,
                faults: plan.as_ref(),
                record_spans: true,
            };
            let mut one_rec = MemRecorder::new();
            let (one, one_outs) = run_open_loop(&one_params, &requests, &services, &mut one_rec);
            quarantined_somewhere |= one.quarantined > 0;
            shed_somewhere |= one.shed > 0;
            for route in RouteKind::all() {
                let case = format!("{shed:?} / {plan:?} / {}", route.name());
                let params = FleetOpenLoopParams {
                    fleet: &fleet,
                    slots: SLOTS,
                    shed,
                    route,
                    route_seed: 42,
                    faults: plan.as_ref(),
                    cold_penalty: 0,
                    record_spans: true,
                };
                let mut rec = MemRecorder::new();
                let (report, outs) =
                    run_fleet_open_loop(&params, &requests, &fleet_services, &mut rec);
                assert_eq!(one_outs, outs, "{case}: outcomes");
                assert_reports_agree(&one, &report, &case);
                assert_eq!(
                    one_rec.to_jsonl(),
                    without_fleet_telemetry(&rec.to_jsonl()),
                    "{case}: recorder stream"
                );
            }
        }
    }
    assert!(shed_somewhere, "the matrix exercises the shed gate");
    assert!(quarantined_somewhere, "the matrix exercises quarantine");
}
