//! The front half `serve --open-loop` and `fleet --open-loop` share: flag
//! validation, the trace (replayed or generated) with the `--slo` default
//! deadline, per-geometry calibration and the `--metrics` export. Each
//! command keeps its own flag allow-list, recorder and report rendering.

use crate::args::Args;
use crate::config;
use mocha::engine::Engine;
use mocha::fabric::FabricConfig;
use mocha::fault::FaultPlan;
use mocha::obs::{MemRecorder, WindowSpec};
use mocha::runtime::{DecisionCache, JobSpec, Mix};
use mocha::serve::{
    traffic, windows_from_open_loop, Calibration, Request, RequestOutcome, ShedPolicy,
};

/// Validated open-loop options and the trace they describe.
pub(crate) struct OpenLoopInput {
    /// `--max-tenants`: tenant slots per fabric.
    pub slots: usize,
    /// `--shed-policy`.
    pub shed: ShedPolicy,
    /// `--faults`.
    pub faults: Option<FaultPlan>,
    /// How the trace was made, for the report header (`load 2.00`,
    /// `replay FILE`).
    pub label: String,
    /// The trace, every request carrying the `--slo` default deadline
    /// unless it brought its own.
    pub requests: Vec<Request>,
}

impl OpenLoopInput {
    /// Parses `--max-tenants`, `--shed-policy`, `--slo`, `--faults`,
    /// `--mix`, then replays `--trace FILE` or generates a trace from
    /// `--load`, `--tenants`, `--requests` and `--seed`.
    pub fn parse(args: &Args) -> Result<OpenLoopInput, String> {
        let slots = args.opt_u64("max-tenants", 4) as usize;
        if slots == 0 {
            return Err("--max-tenants must be at least 1".to_string());
        }
        let shed = match args.options.get("shed-policy") {
            None => ShedPolicy::None,
            Some(s) => ShedPolicy::parse(s)?,
        };
        let slo = args.options.get("slo").map(|_| args.opt_u64("slo", 0));
        let faults = config::fault_plan(args)?;
        let mix_name = args.opt("mix", "quick");
        let mix = Mix::parse(&mix_name)
            .ok_or_else(|| format!("unknown mix {mix_name:?} (quick|full)"))?;
        let (label, mut requests) = match args.options.get("trace") {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path:?}: {e}"))?;
                (format!("replay {path}"), traffic::from_jsonl(&text)?)
            }
            None => {
                let load = args.opt_f64("load", 2.0);
                if load <= 0.0 {
                    return Err("--load must be positive".to_string());
                }
                let tenants = args.opt_u64("tenants", 100) as usize;
                if tenants == 0 {
                    return Err("--tenants must be at least 1".to_string());
                }
                let cfg = traffic::OpenLoopConfig {
                    requests: args.opt_u64("requests", 2_000) as usize,
                    tenants,
                    load,
                    seed: args.opt_u64("seed", 42),
                    mix,
                    slo,
                };
                (format!("load {load:.2}"), traffic::generate(&cfg))
            }
        };
        // `--slo` is the default deadline: replayed requests keep their own.
        if let Some(slo) = slo {
            for r in &mut requests {
                r.deadline.get_or_insert(slo);
            }
        }
        Ok(OpenLoopInput {
            slots,
            shed,
            faults,
            label,
            requests,
        })
    }

    /// Per-request service times on each of `fabrics`, calibrating every
    /// distinct geometry once. With `--cache` one decision cache is shared
    /// across the geometries; the measured cycles are byte-identical either
    /// way (only controller search work is saved), so output stays
    /// cache-invariant.
    pub fn services(&self, args: &Args, fabrics: &[FabricConfig]) -> Result<Vec<Vec<u64>>, String> {
        let specs: Vec<JobSpec> = self.requests.iter().map(|r| r.spec.clone()).collect();
        let mut cache = args.flag("cache").then(DecisionCache::new);
        let mut cals: Vec<(FabricConfig, Calibration)> = Vec::new();
        for fabric in fabrics {
            if cals.iter().any(|(f, _)| f == fabric) {
                continue;
            }
            let engine = Engine::configured();
            let cal = match cache.as_mut() {
                Some(c) => Calibration::measure_cached(fabric, self.slots, &specs, engine, c),
                None => Calibration::measure(fabric, self.slots, &specs, engine),
            };
            cals.push((*fabric, cal?));
        }
        Ok(fabrics
            .iter()
            .map(|fabric| {
                let (_, cal) = cals.iter().find(|(f, _)| f == fabric).expect("calibrated");
                self.requests.iter().map(|r| cal.service(&r.spec)).collect()
            })
            .collect())
    }

    /// `--metrics`: writes the windowed export of a run. SLO alerts also
    /// land in the obs stream (counter + spans) so the trace tooling sees
    /// them without parsing the metrics file.
    pub fn export_metrics(
        &self,
        metrics: Option<(WindowSpec, String)>,
        outcomes: &[RequestOutcome],
        fault_log: &[(u64, &'static str)],
        rec: &mut MemRecorder,
    ) -> Result<(), String> {
        let Some((spec, path)) = metrics else {
            return Ok(());
        };
        let m = windows_from_open_loop(spec, &self.requests, outcomes, fault_log, self.shed);
        if m.slo.is_some() {
            m.record_alerts(rec);
        }
        std::fs::write(&path, m.to_jsonl()).map_err(|e| format!("cannot write {path:?}: {e}"))
    }
}
