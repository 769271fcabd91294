//! `cnn-zoo`: cold whole-network simulation with golden verification.
//!
//! Untraced passes call `Simulator::run` (verification on, no decision
//! cache) on alexnet@sparse then mobilenet_v1@dense. The traced pass drives
//! the same steps through the crates' public functions — golden forward,
//! controller `decide`, `execute_layer`/`execute_group`, golden compare —
//! so each layer can be timed from outside, and must reproduce the
//! untraced pass's modelled numbers exactly.

use std::time::Instant;

use mocha_compress::Compressed;
use mocha_core::controller::{decide, Decision, Policy};
use mocha_core::fusion::{execute_group, FusionGroup};
use mocha_core::{execute_layer, Accelerator, ExecContext, Objective, PlanContext, RunMetrics};
use mocha_core::{Simulator, SparsityEstimate};
use mocha_model::gen::{SparsityProfile, Workload};
use mocha_model::{golden, network, Kernel, Tensor};

use crate::spans::Tracer;
use crate::{account, peak_rss_mb, stats, sub_seed, Args, Outcome};

const SETUP_REPEATS: usize = 5;
/// Nominal seconds per pass over the zoo.
const PASS_S: f64 = 15.0;

/// Modelled results of one network run; must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fingerprint {
    cycles: u64,
    dram_bytes: u64,
    work_macs: u64,
    peak_storage: usize,
    energy_pj_bits: u64,
}

impl Fingerprint {
    fn of(m: &RunMetrics, sim: &Simulator) -> Self {
        Fingerprint {
            cycles: m.cycles(),
            dram_bytes: m.events().dram_bytes(),
            work_macs: m.work_macs(),
            peak_storage: m.peak_storage(),
            energy_pj_bits: m.report(&sim.energy).energy.total_pj().to_bits(),
        }
    }
}

fn workloads(seed: u64) -> Vec<Workload> {
    vec![
        Workload::generate(
            network::alexnet(),
            SparsityProfile::SPARSE,
            sub_seed(seed, 1),
        ),
        Workload::generate(
            network::mobilenet_v1(),
            SparsityProfile::DENSE,
            sub_seed(seed, 2),
        ),
    ]
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    let mut setup = Vec::new();
    let mut zoo = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        zoo = workloads(args.seed);
        setup.push(t.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&setup).expect("setup repeats");
    out.set("setup_s", setup_s);

    let sim = Simulator::new(Accelerator::mocha(Objective::Edp));
    assert!(sim.verify, "cnn-zoo runs with golden verification on");

    // Untraced passes. A pass takes about 15 s on a 2-core 2.1 GHz Xeon
    // host, so the count is fixed from the requested time rather than
    // measured against it: every run does the same work. One pass when
    // traced, as the baseline of the traced pass.
    let total = if args.trace {
        1
    } else {
        ((args.seconds / PASS_S).round() as usize).max(1)
    };
    let mut lat = Vec::new();
    let mut macs = 0u64;
    let mut first: Vec<Fingerprint> = Vec::new();
    for pass in 0..total {
        for (k, w) in zoo.iter().enumerate() {
            let t = Instant::now();
            let m = sim.run(w);
            lat.push(t.elapsed().as_secs_f64());
            out.attempted += 1;
            let fp = Fingerprint::of(&m, &sim);
            macs += fp.work_macs;
            if pass == 0 {
                first.push(fp);
            } else {
                out.check(fp == first[k], || {
                    format!("{}: modelled results differ between passes", m.network)
                });
            }
        }
    }
    let busy: f64 = lat.iter().sum();
    let untraced_pass = busy / total as f64;

    let clock_ghz = sim.energy.clock_ghz;
    let cycles: u64 = first.iter().map(|f| f.cycles).sum();
    let ops = 2.0 * first.iter().map(|f| f.work_macs).sum::<u64>() as f64;
    let pj: f64 = first.iter().map(|f| f64::from_bits(f.energy_pj_bits)).sum();
    let per_net_cycles: Vec<f64> = first.iter().map(|f| f.cycles as f64).collect();
    out.set("sim_gmacs_per_s", macs as f64 / busy / 1e9);
    out.set("hw_gops", ops / (cycles as f64 / clock_ghz));
    out.set("hw_gops_per_w", ops / pj * 1e3);
    out.set(
        "hw_storage_kb",
        first.iter().map(|f| f.peak_storage).max().unwrap_or(0) as f64 / 1024.0,
    );
    let lat_ms: Vec<f64> = lat.iter().map(|s| s * 1e3).collect();
    let p50 = stats::median(&lat_ms).expect("at least one pass");
    let p95 = stats::tail(&lat_ms, 95.0).expect("at least one pass");
    out.set("serve_p50_ms", p50);
    out.set("serve_p95_ms", p95.value);
    out.set("serve_rps_at_slo", lat.len() as f64 / busy);
    out.set("fleet_kreq_per_s", lat.len() as f64 / busy / 1e3);
    out.set(
        "hw_goodput_per_mcycle",
        first.len() as f64 * 1e6 / cycles as f64,
    );
    out.set(
        "hw_p99_kcycles",
        stats::percentile(&per_net_cycles, 99.0)
            .expect("networks")
            .value
            / 1e3,
    );
    out.note(format!(
        "{total} pass(es), {} simulations; per-simulation p{} over {} samples",
        lat.len(),
        p95.pct,
        p95.count
    ));
    for (w, f) in zoo.iter().zip(&first) {
        out.note(format!(
            "{}: {} cycles, {} DRAM bytes, {} KB peak, {:.6e} pJ",
            w.network.name,
            f.cycles,
            f.dram_bytes,
            f.peak_storage / 1024,
            f64::from_bits(f.energy_pj_bits)
        ));
    }

    if args.trace {
        let origin = Instant::now();
        let mut tr = Tracer::new(true, origin, 0);
        let mut counts = Counts::default();
        for (k, w) in zoo.iter().enumerate() {
            let m = tr.span("network", k as u64, |tr| {
                traced_run(&sim, w, k as u64, tr, &mut counts)
            });
            out.attempted += 1;
            out.check(Fingerprint::of(&m, &sim) == first[k], || {
                format!("{}: traced pass differs from Simulator::run", m.network)
            });
        }
        let traced = origin.elapsed().as_secs_f64();
        account(
            &mut out,
            &tr,
            &[
                ("model.golden", "model.golden_s"),
                ("core.decide", "core.decide_s"),
                ("core.step", "core.exec_s"),
                ("compress.encode", "compress.encode_s"),
            ],
            traced,
            untraced_pass,
            1,
        );
        out.set("model.gen_s", setup_s);
        out.set("core.decide_calls", counts.decide_calls as f64);
        out.set("core.candidates", counts.candidates as f64);
        out.set(
            "core.compression_fallbacks",
            counts.compression_fallbacks as f64,
        );
        let enc_s = out.values["compress.encode_s"];
        out.set(
            "compress.encode_gbps",
            if enc_s > 0.0 {
                counts.encoded_raw as f64 / enc_s / 1e9
            } else {
                0.0
            },
        );
        out.set(
            "compress.ratio",
            if counts.encoded_out > 0 {
                counts.encoded_raw as f64 / counts.encoded_out as f64
            } else {
                1.0
            },
        );
        tr.write_jsonl(&args.out.join(format!("trace-cnn-zoo-{}.jsonl", args.seed)))
            .map_err(|e| format!("writing spans: {e}"))?;
    }

    out.set("peak_rss_mb", peak_rss_mb(None)?);
    Ok(out)
}

#[derive(Debug, Default)]
struct Counts {
    decide_calls: u64,
    candidates: u64,
    compression_fallbacks: u64,
    encoded_raw: u64,
    encoded_out: u64,
}

/// The simulator's sparsity estimate for the group starting at `start`:
/// live input statistics, the layer's kernel sparsity, and the output
/// forecast (ReLU layers emit about half zeros).
fn estimate(w: &Workload, start: usize, input: &Tensor<i8>) -> SparsityEstimate {
    let s = mocha_model::stats::analyze(input.data());
    let relu = w.network.layers()[start].has_relu();
    SparsityEstimate {
        ifmap_sparsity: s.sparsity(),
        ifmap_mean_run: s.mean_zero_run(),
        kernel_sparsity: w.kernels[start]
            .as_ref()
            .map(Kernel::sparsity)
            .unwrap_or(0.0),
        ofmap_sparsity: if relu { 0.5 } else { 0.1 },
        ofmap_mean_run: if relu { 2.0 } else { 1.0 },
    }
}

struct Step {
    output: Tensor<i8>,
    cycles: u64,
    events: mocha_energy::EventCounts,
    spm_peak: usize,
}

fn execute(
    sim: &Simulator,
    w: &Workload,
    start: usize,
    input: &Tensor<i8>,
    d: &Decision,
) -> Result<Step, mocha_fabric::CapacityError> {
    let fabric = &sim.accelerator.fabric;
    let layers = w.network.layers();
    if d.group_len == 1 {
        let ctx = ExecContext {
            fabric,
            codec_costs: &sim.codec_costs,
        };
        let r = execute_layer(
            &ctx,
            &layers[start],
            input,
            w.kernels[start].as_ref(),
            &d.morph,
            true,
        )?;
        Ok(Step {
            output: r.output,
            cycles: r.cycles,
            events: r.events,
            spm_peak: r.spm_peak,
        })
    } else {
        let group = FusionGroup {
            start,
            layers: layers[start..start + d.group_len].to_vec(),
        };
        let kernels: Vec<Option<&Kernel>> = (start..start + d.group_len)
            .map(|j| w.kernels[j].as_ref())
            .collect();
        let r = execute_group(
            fabric,
            &sim.codec_costs,
            &group,
            input,
            &kernels,
            &d.morph,
            true,
        )?;
        Ok(Step {
            output: r.output,
            cycles: r.cycles,
            events: r.events,
            spm_peak: r.spm_peak,
        })
    }
}

/// One network through the public layer functions, with a span around
/// each call. Returns metrics comparable with `Simulator::run`'s.
fn traced_run(
    sim: &Simulator,
    w: &Workload,
    id: u64,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> RunMetrics {
    let golden_outs = tr.span("model.golden", id, |_| golden::forward(w));
    let pctx = PlanContext {
        fabric: &sim.accelerator.fabric,
        codec_costs: &sim.codec_costs,
        energy: &sim.energy,
    };
    let layers = w.network.layers();
    let mut current = w.input.clone();
    let mut pos = 0;
    let mut groups = Vec::new();
    while pos < layers.len() {
        let (step, decision) = tr.span("core.step", id, |tr| {
            let est = estimate(w, pos, &current);
            let mut d = tr.span("core.decide", id, |_| {
                decide(&pctx, sim.accelerator.policy, &layers[pos..], &est, true)
            });
            counts.decide_calls += 1;
            counts.candidates += d.candidates as u64;
            let mut attempt = execute(sim, w, pos, &current, &d);
            if attempt.is_err() && d.morph.compression.any() {
                let fallback = match sim.accelerator.policy {
                    Policy::Mocha { objective } => Policy::MochaNoCompression { objective },
                    p => p,
                };
                d = tr.span("core.decide", id, |_| {
                    decide(&pctx, fallback, &layers[pos..], &est, true)
                });
                counts.decide_calls += 1;
                counts.candidates += d.candidates as u64;
                counts.compression_fallbacks += 1;
                attempt = execute(sim, w, pos, &current, &d);
            }
            let step = attempt
                .unwrap_or_else(|e| panic!("{}: chosen config infeasible: {e}", layers[pos].name));
            assert_eq!(
                step.output,
                golden_outs[pos + d.group_len - 1],
                "{}: simulated output deviates from golden model",
                layers[pos + d.group_len - 1].name
            );
            (step, d)
        });
        let codec = decision.morph.compression.ifmap;
        if codec != mocha_compress::Codec::None {
            let enc = tr.span("compress.encode", id, |_| {
                Compressed::encode(codec, std::hint::black_box(current.data()))
            });
            counts.encoded_raw += current.data().len() as u64;
            counts.encoded_out += enc.bytes() as u64;
        }
        let len = decision.group_len;
        let work_macs = layers[pos..pos + len]
            .iter()
            .map(|l| match l.kind {
                mocha_model::LayerKind::Pool { .. } => l.macs() + l.pool_ops() / 2,
                _ => l.macs(),
            })
            .sum();
        groups.push(mocha_core::GroupMetrics {
            layers: layers[pos..pos + len]
                .iter()
                .map(|l| l.name.clone())
                .collect(),
            morph: decision.morph,
            cycles: step.cycles,
            events: step.events,
            energy: sim.energy.price(&step.events),
            spm_peak: step.spm_peak,
            compression: Default::default(),
            work_macs,
            candidates: decision.candidates,
            phases: Vec::new(),
        });
        current = step.output;
        pos += len;
    }
    RunMetrics {
        network: w.network.name.clone(),
        accelerator: sim.accelerator.name.clone(),
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = workloads(5);
        let b = workloads(5);
        let c = workloads(6);
        for k in 0..2 {
            assert_eq!(a[k].input, b[k].input);
            assert_eq!(a[k].kernels, b[k].kernels);
            assert_ne!(a[k].input, c[k].input);
        }
    }
}
