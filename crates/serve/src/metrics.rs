//! Feeds serving-tier and runtime outcomes into the windowed telemetry
//! layer ([`mocha_obs::WindowedMetrics`]).
//!
//! The simulators themselves stay telemetry-free: they already report
//! *when* everything happened (arrival, first start, finish, fault
//! cycles), so windowing is a pure post-processing pass over those
//! timestamps. That keeps the hot loops untouched and makes the windowed
//! view trivially deterministic — the same outcomes always produce the
//! same windows, regardless of thread count or cache state.
//!
//! Dimensional labels follow the ISSUE contract: `tenant` and `template`
//! on request-scoped counters, `reason` on sheds, `kind` on fault
//! injections, with latency/wait histograms carrying `template` only so
//! per-template tails stay cheap to aggregate.

use std::collections::BTreeMap;

use mocha_obs::names;
use mocha_obs::{LabelSet, WindowSpec, WindowedMetrics};
use mocha_runtime::RuntimeReport;

use crate::openloop::RequestOutcome;
use crate::shed::ShedPolicy;
use crate::traffic::Request;

/// The label sets one request's counters and histograms carry.
#[derive(Clone, Copy)]
struct RequestLabels {
    /// `tenant` + `template`: request-scoped counters.
    dims: LabelSet,
    /// `template` only: latency/wait histograms.
    tmpl: LabelSet,
    /// `tenant` + `template` + shed `reason`.
    shed: LabelSet,
}

/// Windows an open-loop run: one pass over the per-request outcomes and
/// the fault log. SLO tracking switches on iff any request carries a
/// deadline; sheds and fault-failures count as SLO errors, completions
/// split into good/miss against each request's own deadline.
pub fn windows_from_open_loop(
    spec: WindowSpec,
    requests: &[Request],
    outcomes: &[RequestOutcome],
    fault_log: &[(u64, &'static str)],
    policy: ShedPolicy,
) -> WindowedMetrics {
    assert_eq!(requests.len(), outcomes.len(), "one outcome per request");
    let mut m = WindowedMetrics::new(spec);
    let has_slo = requests.iter().any(|r| r.deadline.is_some());
    if has_slo {
        m.enable_slo();
    }
    let reason = policy.reason();
    // Label sets per (tenant, template), interned on first sight so the
    // per-request path neither formats the tenant id nor builds label text.
    let mut sets: BTreeMap<(u64, &str), RequestLabels> = BTreeMap::new();
    for (req, out) in requests.iter().zip(outcomes) {
        let network = req.spec.network.as_str();
        let RequestLabels { dims, tmpl, shed } =
            *sets.entry((req.tenant, network)).or_insert_with(|| {
                let tenant = req.tenant.to_string();
                RequestLabels {
                    dims: m
                        .windows
                        .intern(&[("tenant", &tenant), ("template", network)]),
                    tmpl: m.windows.intern(&[("template", network)]),
                    shed: m.windows.intern(&[
                        ("tenant", &tenant),
                        ("template", network),
                        ("reason", reason),
                    ]),
                }
            });
        m.windows
            .add_at(names::SERVE_REQUESTS, dims, req.arrival, 1);
        match *out {
            RequestOutcome::Shed => {
                m.windows.add_at(names::SERVE_SHED, shed, req.arrival, 1);
                if let Some(slo) = m.slo.as_mut() {
                    slo.error(spec.cell(req.arrival), 1);
                }
            }
            RequestOutcome::Done { start, finish } => {
                m.windows
                    .add_at(names::SERVE_ADMITTED, dims, req.arrival, 1);
                m.windows.add_at(names::SERVE_COMPLETED, dims, finish, 1);
                m.windows
                    .sample_at(names::HIST_JOB_LATENCY, tmpl, finish, finish - req.arrival);
                m.windows
                    .sample_at(names::HIST_QUEUE_WAIT, tmpl, finish, start - req.arrival);
                if let Some(deadline) = req.deadline {
                    let in_slo = finish - req.arrival <= deadline;
                    let name = if in_slo {
                        names::SERVE_IN_SLO
                    } else {
                        names::SERVE_DEADLINE_MISSES
                    };
                    m.windows.add_at(name, dims, finish, 1);
                    let slo = m.slo.as_mut().expect("deadline implies tracker");
                    if in_slo {
                        slo.good(spec.cell(finish), 1);
                    } else {
                        slo.miss(spec.cell(finish), 1);
                    }
                }
            }
            RequestOutcome::Failed { at } => {
                m.windows
                    .add_at(names::SERVE_ADMITTED, dims, req.arrival, 1);
                m.windows.add_at(names::SERVE_FAILED, dims, at, 1);
                if let Some(slo) = m.slo.as_mut() {
                    slo.error(spec.cell(at), 1);
                }
            }
        }
    }
    for &(at, kind) in fault_log {
        let labels = m.windows.intern(&[("kind", kind)]);
        m.windows.add_at(names::FAULT_INJECTED, labels, at, 1);
    }
    m
}

/// Windows a runtime report: admissions at arrival, completions (with
/// latency/wait histograms and re-morph counts) at finish, all labelled by
/// network template. The runtime has no deadlines, so no SLO tracker.
pub fn windows_from_runtime(spec: WindowSpec, report: &RuntimeReport) -> WindowedMetrics {
    let mut m = WindowedMetrics::new(spec);
    for job in &report.jobs {
        let tmpl = m.windows.intern(&[("template", &job.spec.network)]);
        m.windows
            .add_at(names::RUNTIME_JOBS_ADMITTED, tmpl, job.arrival, 1);
        m.windows
            .add_at(names::RUNTIME_JOBS_FINISHED, tmpl, job.finished, 1);
        if job.remorphs > 0 {
            m.windows.add_at(
                names::RUNTIME_REMORPHS,
                tmpl,
                job.finished,
                job.remorphs as u64,
            );
        }
        m.windows.sample_at(
            names::HIST_JOB_LATENCY,
            tmpl,
            job.finished,
            job.finished - job.arrival,
        );
        m.windows.sample_at(
            names::HIST_QUEUE_WAIT,
            tmpl,
            job.finished,
            job.admitted - job.arrival,
        );
    }
    m.windows.observe_cycle(report.horizon);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::openloop::{run_open_loop, OpenLoopParams};
    use mocha_core::Objective;
    use mocha_fabric::FabricConfig;
    use mocha_obs::NoopRecorder;
    use mocha_runtime::{JobSpec, Priority};

    /// `n` arrivals every `gap` cycles across three tenants/templates, all
    /// with service 1000 cycles.
    fn trace(n: usize, gap: u64, deadline: Option<u64>) -> (Vec<Request>, Vec<u64>) {
        let reqs: Vec<Request> = (0..n)
            .map(|i| Request {
                arrival: i as u64 * gap + 1,
                tenant: (i % 3) as u64,
                deadline,
                spec: JobSpec {
                    network: if i % 3 == 0 { "tiny" } else { "lenet5" }.to_string(),
                    profile: "nominal".into(),
                    objective: Objective::Edp,
                    priority: Priority::Normal,
                    seed: i as u64,
                },
            })
            .collect();
        (reqs, vec![1_000u64; n])
    }

    fn run(
        shed: ShedPolicy,
        gap: u64,
    ) -> (Vec<Request>, Vec<RequestOutcome>, Vec<(u64, &'static str)>) {
        let fabric = FabricConfig::mocha_quad();
        let (reqs, svc) = trace(160, gap, Some(3_000));
        let p = OpenLoopParams {
            fabric: &fabric,
            slots: 2,
            shed,
            faults: None,
            record_spans: false,
        };
        let (report, outs) = run_open_loop(&p, &reqs, &svc, &mut NoopRecorder);
        (reqs, outs, report.fault_log)
    }

    #[test]
    fn open_loop_windows_conserve_request_counts() {
        let (reqs, outs, faults) = run(ShedPolicy::Deadline, 120);
        let spec = WindowSpec::tumbling(5_000);
        let m = windows_from_open_loop(spec, &reqs, &outs, &faults, ShedPolicy::Deadline);
        assert_eq!(
            m.windows.counter_total(names::SERVE_REQUESTS),
            reqs.len() as u64
        );
        let shed = outs
            .iter()
            .filter(|o| matches!(o, RequestOutcome::Shed))
            .count() as u64;
        let done = outs
            .iter()
            .filter(|o| matches!(o, RequestOutcome::Done { .. }))
            .count() as u64;
        assert_eq!(m.windows.counter_total(names::SERVE_SHED), shed);
        assert_eq!(m.windows.counter_total(names::SERVE_COMPLETED), done);
        assert_eq!(
            m.windows.counter_total(names::SERVE_ADMITTED),
            reqs.len() as u64 - shed
        );
        assert_eq!(m.windows.merged_hist(names::HIST_JOB_LATENCY).count(), done);
        assert_eq!(
            m.windows.counter_total(names::SERVE_IN_SLO)
                + m.windows.counter_total(names::SERVE_DEADLINE_MISSES),
            done
        );
        assert!(m.slo.is_some(), "deadlines imply SLO tracking");
    }

    #[test]
    fn slo_tracker_absent_without_deadlines() {
        let fabric = FabricConfig::mocha_quad();
        let (reqs, svc) = trace(40, 2_000, None);
        let p = OpenLoopParams {
            fabric: &fabric,
            slots: 2,
            shed: ShedPolicy::None,
            faults: None,
            record_spans: false,
        };
        let (report, outs) = run_open_loop(&p, &reqs, &svc, &mut NoopRecorder);
        let m = windows_from_open_loop(
            WindowSpec::tumbling(5_000),
            &reqs,
            &outs,
            &report.fault_log,
            ShedPolicy::None,
        );
        assert!(m.slo.is_none());
        assert_eq!(m.windows.counter_total(names::SERVE_SHED), 0);
    }

    #[test]
    fn overload_burns_budget_faster_than_light_load() {
        // With 2 slots and 1000-cycle services, a 2000-cycle gap keeps
        // everything in SLO; a 100-cycle gap drowns the queue in deadline
        // misses. The slow burn window must see the difference.
        let spec = WindowSpec::tumbling(5_000);
        let (lr, lo, lf) = run(ShedPolicy::None, 2_000);
        let light = windows_from_open_loop(spec, &lr, &lo, &lf, ShedPolicy::None);
        let (hr, ho, hf) = run(ShedPolicy::None, 100);
        let heavy = windows_from_open_loop(spec, &hr, &ho, &hf, ShedPolicy::None);
        let (_, light_slow) = light.peak_burn();
        let (_, heavy_slow) = heavy.peak_burn();
        assert!(
            heavy_slow > light_slow,
            "overload must burn faster: {heavy_slow} vs {light_slow}"
        );
        assert!(heavy.alerts() > 0, "sustained misses must raise an alert");
    }

    #[test]
    fn feeding_is_deterministic() {
        let (reqs, outs, faults) = run(ShedPolicy::Deadline, 120);
        let spec = WindowSpec::parse("rolling:20000/5000").unwrap();
        let a = windows_from_open_loop(spec, &reqs, &outs, &faults, ShedPolicy::Deadline);
        let b = windows_from_open_loop(spec, &reqs, &outs, &faults, ShedPolicy::Deadline);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.exposition(), b.exposition());
        assert_eq!(
            a.snapshot_json().to_string_compact(),
            b.snapshot_json().to_string_compact()
        );
    }
}
