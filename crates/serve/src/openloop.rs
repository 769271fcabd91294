//! The deterministic open-loop queueing engine behind experiments R3 and R5.
//!
//! Arrivals from a [`Request`] trace are routed to one of N *shards* —
//! fabric instances, each carved into tenant slots — and admitted onto that
//! shard's slots: FIFO per slot, earliest-free-slot placement, the classic
//! `c`-server FIFO queue. Each admitted request holds its slot for its
//! *calibrated* service time on that shard ([`crate::calibrate`]). This is
//! a queueing-level model, not a re-run of the cycle-accurate runtime: it
//! keeps 10⁵-request load sweeps tractable while preserving exactly the
//! quantities R3 and R5 study — queueing delay, deadline misses, shed rate,
//! goodput — and the calibration ties its service times to the real
//! simulator.
//!
//! Every shard is its own fault domain. A seeded [`FaultTimeline`]
//! interleaves with arrivals; a fault that lands on a busy slot discards
//! the in-progress attempt (bounded retries, then the job fails), and a
//! *permanent* fault is offered to the shard's [`Quarantine`]. When
//! admitted, the healthy carve window shrinks and excess slots are evicted;
//! their residents are re-routed through the [`RoutePolicy`], and a
//! cross-shard move is re-costed with the destination's service time.
//! Shedding reacts to fault-driven capacity loss with no extra coupling:
//! fewer slots ⇒ later predicted starts ⇒ more sheds. The first job of a
//! template on a shard pays a cold decision-cache penalty; a quarantine
//! clears the shard's warm set, because the carve geometry changed.
//!
//! [`run_queue`] is the one engine. [`run_open_loop`] is its one-shard
//! call (R3 and the `serve` admission pre-pass); `mocha-fleet`'s
//! `run_fleet_open_loop` is its N-shard call (R5). The callers differ only
//! in telemetry naming, which they pass in as data: a span prefix per
//! shard and the histograms each arrival's queue depth is sampled into. A
//! lone shard is never routed, so a fleet of one with no cold penalty is
//! the single-fabric model exactly.
//!
//! A run is a sequential pure function of its inputs: byte-identical
//! output at any worker count, which is what lets `ci.sh` gate R3 and R5
//! across `--threads 1/2/8`.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use mocha_fabric::FabricConfig;
use mocha_fault::{FaultEvent, FaultKind, FaultPlan, FaultTimeline, Quarantine};
use mocha_json::{ToJson, Value};
use mocha_obs::{names, sorted_percentile, Recorder};
use mocha_runtime::{kind_counter, lease};

use crate::shed::ShedPolicy;
use crate::traffic::Request;

/// Open-loop simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopParams<'a> {
    /// The parent fabric slots are carved from.
    pub fabric: &'a FabricConfig,
    /// Requested tenant slots (clamped to what the fabric can host).
    pub slots: usize,
    /// Admission-control policy.
    pub shed: ShedPolicy,
    /// Optional fault schedule; permanent faults shrink capacity via
    /// quarantine, exactly composing with shedding.
    pub faults: Option<&'a FaultPlan>,
    /// Record per-request `job/<idx>` spans and `fault/<kind>` lost-work
    /// spans (queue-depth and latency histograms are always recorded).
    pub record_spans: bool,
}

/// Per-request fate, indexed like the input trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Shed at admission; never ran.
    Shed,
    /// Completed: first service start and finish cycles.
    Done {
        /// Cycle the first service attempt began.
        start: u64,
        /// Completion cycle.
        finish: u64,
    },
    /// Admitted but dropped after exhausting its fault-retry budget.
    Failed {
        /// Cycle of the fault that exhausted the budget.
        at: u64,
    },
}

/// Aggregate outcome of one open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopReport {
    /// Shed policy name.
    pub policy: String,
    /// Tenant slots the run started with, over all shards.
    pub servers: usize,
    /// Requests offered by the trace.
    pub offered: usize,
    /// Requests admitted past the shed gate.
    pub admitted: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Admitted requests that completed.
    pub completed: usize,
    /// Admitted requests dropped after exhausting fault retries.
    pub failed: usize,
    /// Completions that finished past their deadline.
    pub deadline_misses: usize,
    /// Completions within their deadline (all completions when a request
    /// has no deadline).
    pub in_slo: usize,
    /// Last simulated cycle (max of arrivals and completions).
    pub horizon: u64,
    /// Slot-cycles spent on successful service attempts.
    pub busy_cycles: u64,
    /// Slot-cycles discarded to faults (interrupted attempts).
    pub lost_cycles: u64,
    /// Fault events drawn from the timeline.
    pub faults_injected: usize,
    /// Permanent faults admitted into quarantine.
    pub quarantined: usize,
    /// Mean first-start queue wait over completions, cycles.
    pub mean_queue_wait: f64,
    /// Every fault event drawn, in injection order: `(cycle, kind name)`.
    /// Feeds the fault-kind dimension of windowed telemetry; not part of
    /// the JSON report (which keeps its pre-telemetry byte shape).
    pub fault_log: Vec<(u64, &'static str)>,
    latencies: Vec<u64>, // sorted
}

impl OpenLoopReport {
    /// Nearest-rank latency percentile over completions (0 when none).
    pub fn latency_percentile(&self, p: f64) -> u64 {
        sorted_percentile(&self.latencies, p)
    }

    /// Every completion latency, ascending.
    pub fn sorted_latencies(&self) -> &[u64] {
        &self.latencies
    }

    /// In-SLO completions per million cycles of horizon — the goodput R3
    /// plots against offered load.
    pub fn goodput_per_mcycle(&self) -> f64 {
        if self.horizon == 0 {
            return 0.0;
        }
        self.in_slo as f64 * 1e6 / self.horizon as f64
    }

    /// Fraction of slot-cycles spent serving (successful or discarded
    /// attempts), over the initial slot count.
    pub fn utilization(&self) -> f64 {
        if self.horizon == 0 || self.servers == 0 {
            return 0.0;
        }
        (self.busy_cycles + self.lost_cycles) as f64 / (self.horizon * self.servers as u64) as f64
    }
}

impl ToJson for OpenLoopReport {
    fn to_json(&self) -> Value {
        mocha_json::jobj! {
            "open_loop" => true,
            "policy" => self.policy.as_str(),
            "servers" => self.servers as u64,
            "offered" => self.offered as u64,
            "admitted" => self.admitted as u64,
            "shed" => self.shed as u64,
            "completed" => self.completed as u64,
            "failed" => self.failed as u64,
            "deadline_misses" => self.deadline_misses as u64,
            "in_slo" => self.in_slo as u64,
            "horizon" => self.horizon,
            "busy_cycles" => self.busy_cycles,
            "lost_cycles" => self.lost_cycles,
            "faults_injected" => self.faults_injected as u64,
            "quarantined" => self.quarantined as u64,
            "goodput_per_mcycle" => self.goodput_per_mcycle(),
            "latency_p50" => self.latency_percentile(50.0),
            "latency_p95" => self.latency_percentile(95.0),
            "latency_p99" => self.latency_percentile(99.0),
            "mean_queue_wait" => self.mean_queue_wait,
            "utilization" => self.utilization(),
        }
    }
}

/// Instantaneous view of one shard, passed to [`RoutePolicy::route`] in
/// canonical shard order.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardView {
    /// Jobs admitted to the shard but not yet started.
    pub depth: usize,
    /// Estimated backlog in cycles (service estimate of everything queued).
    pub backlog: u64,
}

/// A routing policy. `template` identifies the job's shape class (index
/// into the workload's template table) so locality-aware policies can track
/// per-shard warmth.
pub trait RoutePolicy {
    /// Stable policy name, as printed in reports and parsed by the CLI.
    fn name(&self) -> &'static str;
    /// Pick a shard for the next job. `views.len()` is the fleet size and
    /// is always ≥ 1; the returned index must be `< views.len()`.
    fn route(&mut self, template: usize, views: &[ShardView]) -> usize;
    /// A shard was quarantined: drop any affinity state for it so future
    /// jobs do not chase a cold (or dead) cache.
    fn forget_shard(&mut self, shard: usize);
}

/// Per-shard tallies of one run, in canonical shard order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Shard label (`16x16/32b`; empty for the single-fabric run).
    pub label: String,
    /// Tenant slots the shard started with.
    pub servers: usize,
    /// Requests routed here (including ones shed at admission).
    pub routed: usize,
    /// Requests shed at this shard's admission gate.
    pub shed: usize,
    /// Jobs that completed here (including re-balanced arrivals).
    pub completed: usize,
    /// Jobs that exhausted their fault-retry budget here.
    pub failed: usize,
    /// Jobs still queued when the simulation ended (always 0 today: the
    /// final drain retires everything; kept explicit for the conservation
    /// identity).
    pub in_flight: usize,
    /// Jobs that migrated *in* from a quarantined shard.
    pub rebalanced_in: usize,
    /// Jobs that migrated *out* when this shard quarantined.
    pub rebalanced_out: usize,
    /// Fault events drawn from this shard's timeline.
    pub faults_injected: usize,
    /// Permanent faults admitted into this shard's quarantine.
    pub quarantined: usize,
    /// Slot-cycles spent on successful service attempts.
    pub busy_cycles: u64,
    /// Slot-cycles discarded to faults.
    pub lost_cycles: u64,
    latencies: Vec<u64>, // sorted
}

impl ShardStats {
    /// Nearest-rank latency percentile over this shard's completions.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        sorted_percentile(&self.latencies, p)
    }

    /// Per-shard conservation: everything routed or migrated in was shed,
    /// finished, failed, migrated out, or is still in flight.
    pub fn conserved(&self) -> bool {
        self.routed + self.rebalanced_in
            == self.shed + self.completed + self.failed + self.rebalanced_out + self.in_flight
    }
}

impl ToJson for ShardStats {
    fn to_json(&self) -> Value {
        mocha_json::jobj! {
            "label" => self.label.as_str(),
            "servers" => self.servers as u64,
            "routed" => self.routed as u64,
            "shed" => self.shed as u64,
            "completed" => self.completed as u64,
            "failed" => self.failed as u64,
            "in_flight" => self.in_flight as u64,
            "rebalanced_in" => self.rebalanced_in as u64,
            "rebalanced_out" => self.rebalanced_out as u64,
            "faults_injected" => self.faults_injected as u64,
            "quarantined" => self.quarantined as u64,
            "busy_cycles" => self.busy_cycles,
            "lost_cycles" => self.lost_cycles,
            "latency_p99" => self.latency_percentile(99.0),
        }
    }
}

/// One shard of a [`run_queue`] call.
pub struct ShardSetup<'a> {
    /// Label carried into [`ShardStats::label`].
    pub label: String,
    /// The parent fabric the shard's slots are carved from.
    pub fabric: FabricConfig,
    /// Calibrated service time of every request on this shard.
    pub services: &'a [u64],
    /// This shard's own fault schedule.
    pub faults: Option<FaultPlan>,
    /// Prefix of every span the shard records (`""`, `fleet/shard2/`).
    pub span_prefix: String,
}

/// Parameters of one [`run_queue`] call.
pub struct QueueParams<'a> {
    /// The shards, in canonical order; at least one.
    pub shards: Vec<ShardSetup<'a>>,
    /// Requested tenant slots per shard (clamped per shard to what its
    /// fabric can host).
    pub slots: usize,
    /// Admission-control policy, applied on the routed shard.
    pub shed: ShedPolicy,
    /// Picks the shard of every arrival and every displaced job. It is
    /// consulted only when there is more than one shard; without one,
    /// everything lands on shard 0.
    pub router: Option<&'a mut dyn RoutePolicy>,
    /// Extra cycles the first job of a template pays on a shard whose
    /// decision cache has not seen that template.
    pub cold_penalty: u64,
    /// Record a `<prefix>job/<idx>` span per completion and a
    /// `<prefix>fault/<kind>` span per interrupted attempt.
    pub record_spans: bool,
    /// Histograms each arrival's routed-shard queue depth is sampled into.
    pub depth_hists: &'a [&'static str],
}

/// Outcome of one [`run_queue`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueRun {
    /// Run-wide aggregates; `servers` sums the shards' starting slots.
    pub report: OpenLoopReport,
    /// Per-shard tallies in canonical shard order.
    pub shards: Vec<ShardStats>,
    /// Per-request fate, in trace order.
    pub outcomes: Vec<RequestOutcome>,
    /// Cross-shard migrations triggered by quarantines.
    pub rebalanced: usize,
    /// Admissions and migrations that paid the cold penalty.
    pub cold_misses: usize,
    /// Admissions and migrations that landed on a warm shard.
    pub warm_hits: usize,
    /// Warm templates dropped by quarantines.
    pub warm_evictions: usize,
}

/// Runs the open-loop simulation on one fabric. `services[i]` is the
/// calibrated slot service time of `requests[i]` (see
/// [`Calibration::service`](crate::Calibration::service)). Returns the
/// aggregate report and the per-request outcomes in trace order.
pub fn run_open_loop<R: Recorder>(
    p: &OpenLoopParams,
    requests: &[Request],
    services: &[u64],
    rec: &mut R,
) -> (OpenLoopReport, Vec<RequestOutcome>) {
    let setup = ShardSetup {
        label: String::new(),
        fabric: *p.fabric,
        services,
        faults: p.faults.cloned(),
        span_prefix: String::new(),
    };
    let run = run_queue(
        QueueParams {
            shards: vec![setup],
            slots: p.slots,
            shed: p.shed,
            router: None,
            cold_penalty: 0,
            record_spans: p.record_spans,
            depth_hists: &[names::HIST_SERVE_QUEUE_DEPTH],
        },
        requests,
        rec,
    );
    (run.report, run.outcomes)
}

/// Derives each request's template index: requests sharing `(network,
/// profile)` share an index, numbered in first-appearance order.
pub fn template_ids(requests: &[Request]) -> Vec<usize> {
    let mut keys: Vec<(&str, &str)> = Vec::new();
    requests
        .iter()
        .map(|r| {
            let k = (r.spec.network.as_str(), r.spec.profile.as_str());
            keys.iter().position(|x| *x == k).unwrap_or_else(|| {
                keys.push(k);
                keys.len() - 1
            })
        })
        .collect()
}

/// One admitted request somewhere in a slot's FIFO queue.
struct Job {
    idx: usize,
    template: usize,
    arrival: u64,
    deadline: u64, // u64::MAX = no SLO
    len: u64,
    /// Current attempt's scheduled start.
    attempt_start: u64,
    /// Current attempt's scheduled completion.
    end: u64,
    /// Start of the *first* attempt, frozen the first time a fault
    /// interrupts the job after it began (queue wait is measured to here).
    first_start: Option<u64>,
    attempts: usize,
}

impl Job {
    /// Discards the attempt in progress at `t`: records the lost work (and
    /// a `fault/<kind>` span under `prefix`, when spans are on) and counts
    /// the attempt. Returns the lost cycles and whether the retry budget is
    /// now exhausted.
    fn interrupt<R: Recorder>(
        &mut self,
        t: u64,
        kind: &FaultKind,
        max_retries: usize,
        prefix: Option<&str>,
        rec: &mut R,
    ) -> (u64, bool) {
        let lost = t - self.attempt_start;
        rec.add(names::FAULT_LOST_CYCLES, lost);
        if let Some(prefix) = prefix {
            let kn = kind.name();
            rec.span(|| format!("{prefix}fault/{kn}"), self.attempt_start, t);
        }
        self.first_start.get_or_insert(self.attempt_start);
        self.attempts += 1;
        let failed = self.attempts > max_retries;
        if !failed {
            rec.add(names::FAULT_RETRIES, 1);
        }
        (lost, failed)
    }
}

struct Slot {
    queue: VecDeque<Job>,
    free_at: u64,
}

struct Shard<'a> {
    fabric: FabricConfig,
    services: &'a [u64],
    span_prefix: String,
    timeline: Option<FaultTimeline>,
    max_retries: usize,
    slots: Vec<Slot>,
    requested: usize,
    quarantine: Quarantine,
    /// Scheduled first-attempt starts of admitted-but-unstarted jobs; its
    /// length after popping elapsed entries is the queue depth. Rebuilt
    /// whenever a fault shifts schedules.
    unstarted: BinaryHeap<Reverse<u64>>,
    /// Templates whose morph decisions this shard has already cached.
    warm: BTreeSet<usize>,
    stats: ShardStats,
}

impl<'a> Shard<'a> {
    fn new(setup: ShardSetup<'a>, slots: usize) -> Self {
        let servers = slots.clamp(1, lease::max_tenants(&setup.fabric).max(1));
        Shard {
            timeline: setup
                .faults
                .as_ref()
                .map(|f| FaultTimeline::new(f, &setup.fabric)),
            max_retries: setup.faults.map_or(0, |plan| plan.max_retries),
            fabric: setup.fabric,
            services: setup.services,
            span_prefix: setup.span_prefix,
            slots: (0..servers)
                .map(|_| Slot {
                    queue: VecDeque::new(),
                    free_at: 0,
                })
                .collect(),
            requested: servers,
            quarantine: Quarantine::default(),
            unstarted: BinaryHeap::new(),
            warm: BTreeSet::new(),
            stats: ShardStats {
                label: setup.label,
                servers,
                ..ShardStats::default()
            },
        }
    }

    /// Earliest-free slot, ties toward the lowest index.
    fn argmin_free(&self) -> usize {
        let mut best = 0;
        for (i, s) in self.slots.iter().enumerate() {
            if s.free_at < self.slots[best].free_at {
                best = i;
            }
        }
        best
    }

    /// Slots a fault's hardware scope maps onto: geometric kinds project
    /// proportionally onto the slot strip (leases are ordered column/bank
    /// intervals), anonymous capacity kinds round-robin, and a DRAM glitch
    /// is channel-wide — it corrupts the active attempt on every slot.
    fn victims(&self, kind: &FaultKind) -> Vec<usize> {
        let n = self.slots.len();
        let clamp = |i: usize| i.min(n - 1);
        match kind {
            FaultKind::PeRect { col0, .. } => vec![clamp(col0 * n / self.fabric.pe_cols.max(1))],
            FaultKind::SpmBank { bank } => vec![clamp(bank * n / self.fabric.spm_banks.max(1))],
            FaultKind::NocLane { lane } => vec![lane % n],
            FaultKind::DmaEngine { engine } => vec![engine % n],
            FaultKind::DramChannel => (0..n).collect(),
        }
    }

    /// Recomputes the FIFO chain of slot `v` from queue position `from`,
    /// following a shifted predecessor ending at `prev_end`.
    fn reflow(&mut self, v: usize, from: usize, mut prev_end: u64) {
        let slot = &mut self.slots[v];
        for job in slot.queue.iter_mut().skip(from) {
            let start = prev_end.max(job.arrival);
            job.attempt_start = start;
            job.end = start + job.len;
            prev_end = job.end;
        }
        slot.free_at = slot.queue.back().map(|j| j.end).unwrap_or(prev_end);
    }

    /// Re-derives the unstarted-start heap after schedules shifted at `t`.
    fn rebuild_unstarted(&mut self, t: u64) {
        self.unstarted.clear();
        for job in self.slots.iter().flat_map(|s| &s.queue) {
            if job.first_start.is_none() && job.attempt_start > t {
                self.unstarted.push(Reverse(job.attempt_start));
            }
        }
    }

    fn finish(mut self) -> ShardStats {
        self.stats.in_flight = self.slots.iter().map(|s| s.queue.len()).sum();
        self.stats.latencies.sort_unstable();
        self.stats
    }
}

struct Sim<'a> {
    shards: Vec<Shard<'a>>,
    /// Per-shard views as of the last [`Sim::refresh_views`].
    views: Vec<ShardView>,
    router: Option<&'a mut dyn RoutePolicy>,
    cold_penalty: u64,
    record_spans: bool,
    outcomes: Vec<RequestOutcome>,
    misses: usize,
    in_slo: usize,
    cold_misses: usize,
    warm_hits: usize,
    warm_evictions: usize,
    wait_sum: u64,
    horizon: u64,
    fault_log: Vec<(u64, usize, &'static str)>,
}

/// Runs the open-loop queueing engine over a trace sorted by arrival.
/// Every shard's `services` has one entry per request. Telemetry goes to
/// `rec` under the names the parameters give it; see the module docs.
pub fn run_queue<R: Recorder>(p: QueueParams, requests: &[Request], rec: &mut R) -> QueueRun {
    assert!(!p.shards.is_empty(), "at least one shard");
    assert!(
        p.shards.iter().all(|s| s.services.len() == requests.len()),
        "one service time per request on every shard"
    );
    debug_assert!(requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    let templates = template_ids(requests);
    let n = p.shards.len();
    let mut sim = Sim {
        shards: p
            .shards
            .into_iter()
            .map(|s| Shard::new(s, p.slots))
            .collect(),
        views: vec![ShardView::default(); n],
        router: p.router,
        cold_penalty: p.cold_penalty,
        record_spans: p.record_spans,
        outcomes: vec![RequestOutcome::Shed; requests.len()],
        misses: 0,
        in_slo: 0,
        cold_misses: 0,
        warm_hits: 0,
        warm_evictions: 0,
        wait_sum: 0,
        horizon: 0,
        fault_log: Vec::new(),
    };

    for (i, (req, &template)) in requests.iter().zip(&templates).enumerate() {
        for s in 0..n {
            while let Some(ev) = sim.next_fault(s, req.arrival) {
                sim.apply_fault(s, ev, rec);
            }
        }
        for s in 0..n {
            sim.retire_completed(s, req.arrival, rec);
        }
        sim.refresh_views(req.arrival);
        let chosen = sim.pick(template);
        let depth = sim.views[chosen].depth;
        rec.add(names::SERVE_REQUESTS, 1);
        for &hist in p.depth_hists {
            rec.sample(hist, depth as u64);
        }
        sim.horizon = sim.horizon.max(req.arrival);
        let sh = &mut sim.shards[chosen];
        sh.stats.routed += 1;
        let cold = !sh.warm.contains(&template);
        let service = sh.services[i] + if cold { sim.cold_penalty } else { 0 };
        let j = sh.argmin_free();
        let start = req.arrival.max(sh.slots[j].free_at);
        let deadline = req.deadline.unwrap_or(u64::MAX);
        let shed = match p.shed {
            ShedPolicy::None => false,
            ShedPolicy::Queue(cap) => depth >= cap,
            ShedPolicy::Deadline => {
                deadline != u64::MAX
                    && start.saturating_add(service) > req.arrival.saturating_add(deadline)
            }
        };
        if shed {
            sh.stats.shed += 1;
            rec.add(names::SERVE_SHED, 1);
            if matches!(p.shed, ShedPolicy::Deadline) {
                rec.sample(
                    names::HIST_SERVE_SHED_SLACK,
                    start + service - (req.arrival + deadline),
                );
            }
            continue; // outcome stays Shed; the shard stays cold
        }
        rec.add(names::SERVE_ADMITTED, 1);
        if cold {
            sim.cold_misses += 1;
            sh.warm.insert(template);
        } else {
            sim.warm_hits += 1;
        }
        sh.slots[j].queue.push_back(Job {
            idx: i,
            template,
            arrival: req.arrival,
            deadline,
            len: service,
            attempt_start: start,
            end: start + service,
            first_start: None,
            attempts: 0,
        });
        sh.slots[j].free_at = start + service;
        if start > req.arrival {
            sh.unstarted.push(Reverse(start));
        }
    }

    // Trailing faults: keep drawing on every shard while events land
    // before the last scheduled completion, so a fault cannot be skipped
    // just because no arrival follows it. Re-balancing can extend another
    // shard's schedule, so sweep until a full pass makes no progress.
    loop {
        let last = (sim.shards.iter())
            .flat_map(|sh| sh.slots.iter().map(|s| s.free_at))
            .max()
            .unwrap_or(0);
        let mut progressed = false;
        for s in 0..n {
            if let Some(ev) = sim.next_fault(s, last) {
                sim.apply_fault(s, ev, rec);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    for s in 0..n {
        sim.retire_completed(s, u64::MAX, rec);
    }
    sim.finish(requests.len(), p.shed)
}

impl Sim<'_> {
    /// Pops elapsed starts off every unstarted heap and refreshes the
    /// shard views for cycle `t`.
    fn refresh_views(&mut self, t: u64) {
        for (sh, view) in self.shards.iter_mut().zip(&mut self.views) {
            while sh.unstarted.peek().is_some_and(|&Reverse(s)| s <= t) {
                sh.unstarted.pop();
            }
            *view = ShardView {
                depth: sh.unstarted.len(),
                backlog: sh.slots.iter().map(|s| s.free_at.saturating_sub(t)).sum(),
            };
        }
    }

    /// The shard for a job of `template`, from the current views. A lone
    /// shard is never routed.
    fn pick(&mut self, template: usize) -> usize {
        let pick = match self.router.as_deref_mut() {
            Some(router) if self.views.len() > 1 => router.route(template, &self.views),
            _ => 0,
        };
        debug_assert!(pick < self.views.len(), "policy returned a valid shard");
        pick
    }

    /// Pops shard `s`'s next fault if it lands at or before `upto`.
    fn next_fault(&mut self, s: usize, upto: u64) -> Option<FaultEvent> {
        let tl = self.shards[s].timeline.as_mut()?;
        tl.peek()
            .is_some_and(|ev| ev.at <= upto)
            .then(|| tl.pop())?
    }

    fn retire_completed<R: Recorder>(&mut self, s: usize, now: u64, rec: &mut R) {
        for v in 0..self.shards[s].slots.len() {
            while let Some(front) = self.shards[s].slots[v].queue.front() {
                if front.end > now {
                    break;
                }
                let job = self.shards[s].slots[v].queue.pop_front().expect("checked");
                self.complete(s, job, rec);
            }
        }
    }

    fn complete<R: Recorder>(&mut self, s: usize, job: Job, rec: &mut R) {
        let first = job.first_start.unwrap_or(job.attempt_start);
        let latency = job.end - job.arrival;
        let wait = first - job.arrival;
        self.wait_sum += wait;
        self.horizon = self.horizon.max(job.end);
        let sh = &mut self.shards[s];
        sh.stats.completed += 1;
        sh.stats.busy_cycles += job.len;
        sh.stats.latencies.push(latency);
        rec.sample(names::HIST_JOB_LATENCY, latency);
        rec.sample(names::HIST_QUEUE_WAIT, wait);
        if latency <= job.deadline {
            self.in_slo += 1;
        } else {
            self.misses += 1;
            rec.add(names::SERVE_DEADLINE_MISSES, 1);
        }
        if self.record_spans {
            let (prefix, idx) = (&sh.span_prefix, job.idx);
            rec.span(|| format!("{prefix}job/{idx}"), first, job.end);
        }
        self.outcomes[job.idx] = RequestOutcome::Done {
            start: first,
            finish: job.end,
        };
    }

    fn fail(&mut self, s: usize, idx: usize, at: u64) {
        self.shards[s].stats.failed += 1;
        self.outcomes[idx] = RequestOutcome::Failed { at };
    }

    fn apply_fault<R: Recorder>(&mut self, s: usize, ev: FaultEvent, rec: &mut R) {
        self.shards[s].stats.faults_injected += 1;
        self.fault_log.push((ev.at, s, ev.kind.name()));
        rec.add(names::FAULT_INJECTED, 1);
        rec.add(
            if ev.permanent {
                names::FAULT_PERMANENT
            } else {
                names::FAULT_TRANSIENT
            },
            1,
        );
        rec.add(kind_counter(&ev.kind), 1);
        // Work that finished strictly before the fault commits first —
        // the runtime's commit-wins-ties event ordering.
        self.retire_completed(s, ev.at, rec);
        let mut changed = false;
        for v in self.shards[s].victims(&ev.kind) {
            changed |= self.disrupt(s, v, ev.at, &ev.kind, rec);
        }
        let sh = &mut self.shards[s];
        if ev.permanent && sh.quarantine.admit(&ev.kind, &sh.fabric) {
            sh.stats.quarantined += 1;
            rec.add(names::FAULT_QUARANTINED, 1);
            // The carve geometry changed: every cached morph decision on
            // this shard is stale, and routing must stop chasing it.
            self.warm_evictions += sh.warm.len();
            sh.warm.clear();
            if let Some(router) = self.router.as_deref_mut() {
                router.forget_shard(s);
            }
            let window = sh.quarantine.window(&sh.fabric);
            let cap = sh.requested.min(window.max_tenants()).max(1);
            while self.shards[s].slots.len() > cap {
                self.evict_last(s, ev.at, &ev.kind, rec);
                changed = true;
            }
        }
        if changed {
            self.shards[s].rebuild_unstarted(ev.at);
        }
    }

    /// Interrupts the attempt in progress on slot `v` of shard `s` at `t`,
    /// if any: bounded retry in place, then FIFO reflow of everything
    /// queued behind it. Returns whether any schedule changed.
    fn disrupt<R: Recorder>(
        &mut self,
        s: usize,
        v: usize,
        t: u64,
        kind: &FaultKind,
        rec: &mut R,
    ) -> bool {
        let sh = &mut self.shards[s];
        let Some(k) = (sh.slots[v].queue.iter()).position(|j| j.attempt_start <= t && t < j.end)
        else {
            return false;
        };
        rec.add(names::FAULT_HITS, 1);
        let prefix = self.record_spans.then_some(sh.span_prefix.as_str());
        let job = &mut sh.slots[v].queue[k];
        let (lost, failed) = job.interrupt(t, kind, sh.max_retries, prefix, rec);
        sh.stats.lost_cycles += lost;
        if failed {
            let job = sh.slots[v].queue.remove(k).expect("index in range");
            let prev_end = if k == 0 {
                t
            } else {
                sh.slots[v].queue[k - 1].end
            };
            sh.reflow(v, k, prev_end);
            self.fail(s, job.idx, t);
        } else {
            job.attempt_start = t;
            job.end = t + job.len;
            let prev_end = job.end;
            sh.reflow(v, k + 1, prev_end);
        }
        true
    }

    /// Removes shard `s`'s last slot (quarantine shrank the carve window)
    /// and re-routes its residents, restarting any in-progress attempt. A
    /// cross-shard move is re-costed with the destination's service time
    /// (plus the cold penalty if the destination has not seen the
    /// template).
    fn evict_last<R: Recorder>(&mut self, s: usize, t: u64, kind: &FaultKind, rec: &mut R) {
        let mut slot = (self.shards[s].slots.pop()).expect("capacity is at least one");
        while let Some(mut job) = slot.queue.pop_front() {
            rec.add(names::FAULT_EVICTIONS, 1);
            if job.attempt_start <= t {
                // The active attempt loses its work.
                let sh = &mut self.shards[s];
                let prefix = self.record_spans.then_some(sh.span_prefix.as_str());
                let (lost, failed) = job.interrupt(t, kind, sh.max_retries, prefix, rec);
                sh.stats.lost_cycles += lost;
                if failed {
                    self.fail(s, job.idx, t);
                    continue;
                }
            }
            self.refresh_views(t);
            let dest = self.pick(job.template);
            if dest != s {
                self.shards[s].stats.rebalanced_out += 1;
                let sh = &mut self.shards[dest];
                sh.stats.rebalanced_in += 1;
                let cold = !sh.warm.contains(&job.template);
                job.len = sh.services[job.idx] + if cold { self.cold_penalty } else { 0 };
                if cold {
                    self.cold_misses += 1;
                    sh.warm.insert(job.template);
                } else {
                    self.warm_hits += 1;
                }
            }
            let sh = &mut self.shards[dest];
            let j = sh.argmin_free();
            let start = t.max(sh.slots[j].free_at).max(job.arrival);
            job.attempt_start = start;
            job.end = start + job.len;
            sh.slots[j].free_at = job.end;
            if job.first_start.is_none() && start > t {
                sh.unstarted.push(Reverse(start));
            }
            sh.slots[j].queue.push_back(job);
        }
    }

    fn finish(self, offered: usize, shed_policy: ShedPolicy) -> QueueRun {
        let mut fault_log = self.fault_log;
        fault_log.sort_by_key(|&(at, shard, _)| (at, shard));
        let shards: Vec<ShardStats> = self.shards.into_iter().map(Shard::finish).collect();
        let total = |f: fn(&ShardStats) -> usize| shards.iter().map(f).sum::<usize>();
        let cycles = |f: fn(&ShardStats) -> u64| shards.iter().map(f).sum::<u64>();
        let mut latencies: Vec<u64> = shards.iter().flat_map(|s| s.latencies.clone()).collect();
        latencies.sort_unstable();
        let (shed, completed) = (total(|s| s.shed), total(|s| s.completed));
        let report = OpenLoopReport {
            policy: shed_policy.name(),
            servers: total(|s| s.servers),
            offered,
            admitted: offered - shed,
            shed,
            completed,
            failed: total(|s| s.failed),
            deadline_misses: self.misses,
            in_slo: self.in_slo,
            horizon: self.horizon,
            busy_cycles: cycles(|s| s.busy_cycles),
            lost_cycles: cycles(|s| s.lost_cycles),
            faults_injected: total(|s| s.faults_injected),
            quarantined: total(|s| s.quarantined),
            mean_queue_wait: if completed == 0 {
                0.0
            } else {
                self.wait_sum as f64 / completed as f64
            },
            fault_log: fault_log
                .into_iter()
                .map(|(at, _, kind)| (at, kind))
                .collect(),
            latencies,
        };
        QueueRun {
            report,
            rebalanced: total(|s| s.rebalanced_out),
            shards,
            outcomes: self.outcomes,
            cold_misses: self.cold_misses,
            warm_hits: self.warm_hits,
            warm_evictions: self.warm_evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocha_core::Objective;
    use mocha_obs::{MemRecorder, NoopRecorder};
    use mocha_runtime::{JobSpec, Priority};

    fn req(arrival: u64, deadline: Option<u64>) -> Request {
        Request {
            arrival,
            tenant: 0,
            deadline,
            spec: JobSpec {
                network: "tiny".into(),
                profile: "nominal".into(),
                objective: Objective::Edp,
                priority: Priority::Normal,
                seed: 1,
            },
        }
    }

    fn params(fabric: &FabricConfig, shed: ShedPolicy) -> OpenLoopParams<'_> {
        OpenLoopParams {
            fabric,
            slots: 4,
            shed,
            faults: None,
            record_spans: false,
        }
    }

    /// `n` arrivals every `gap` cycles, all with service `len`.
    fn trace(n: usize, gap: u64, deadline: Option<u64>) -> (Vec<Request>, Vec<u64>) {
        let reqs: Vec<Request> = (0..n).map(|i| req(i as u64 * gap, deadline)).collect();
        let services = vec![1_000u64; n];
        (reqs, services)
    }

    #[test]
    fn light_load_completes_everything_without_waiting() {
        let fabric = FabricConfig::mocha_quad();
        let (reqs, svc) = trace(16, 2_000, Some(5_000));
        let (r, outs) = run_open_loop(
            &params(&fabric, ShedPolicy::None),
            &reqs,
            &svc,
            &mut NoopRecorder,
        );
        assert_eq!((r.admitted, r.shed, r.completed, r.failed), (16, 0, 16, 0));
        assert_eq!(r.in_slo, 16);
        assert_eq!(r.mean_queue_wait, 0.0);
        assert_eq!(r.latency_percentile(99.0), 1_000);
        assert!(outs
            .iter()
            .all(|o| matches!(o, RequestOutcome::Done { .. })));
    }

    #[test]
    fn runs_are_deterministic_and_conserve_requests() {
        let fabric = FabricConfig::mocha_quad();
        let (reqs, svc) = trace(500, 120, Some(3_000));
        for shed in [ShedPolicy::None, ShedPolicy::Queue(4), ShedPolicy::Deadline] {
            let p = params(&fabric, shed);
            let mut rec_a = MemRecorder::new();
            let mut rec_b = MemRecorder::new();
            let (a, outs) = run_open_loop(&p, &reqs, &svc, &mut rec_a);
            let (b, _) = run_open_loop(&p, &reqs, &svc, &mut rec_b);
            assert_eq!(a, b);
            assert_eq!(rec_a.to_jsonl(), rec_b.to_jsonl());
            assert_eq!(a.offered, a.admitted + a.shed, "{shed:?}");
            assert_eq!(a.admitted, a.completed + a.failed, "{shed:?}");
            let shed_n = outs
                .iter()
                .filter(|o| matches!(o, RequestOutcome::Shed))
                .count();
            assert_eq!(shed_n, a.shed);
        }
    }

    #[test]
    fn deadline_shedding_only_completes_in_slo_work() {
        let fabric = FabricConfig::mocha_quad();
        let (reqs, svc) = trace(400, 100, Some(2_500));
        let (r, _) = run_open_loop(
            &params(&fabric, ShedPolicy::Deadline),
            &reqs,
            &svc,
            &mut NoopRecorder,
        );
        assert!(r.shed > 0, "overload must shed");
        assert_eq!(r.deadline_misses, 0, "admitted work meets its deadline");
        assert_eq!(r.in_slo, r.completed);
    }

    #[test]
    fn past_saturation_shedding_beats_unbounded_queueing() {
        let fabric = FabricConfig::mocha_quad();
        // 4 slots x 1000-cycle service, arrivals every 100 cycles: offered
        // ~2.5x capacity with a 3000-cycle SLO.
        let (reqs, svc) = trace(2_000, 100, Some(3_000));
        let (none, _) = run_open_loop(
            &params(&fabric, ShedPolicy::None),
            &reqs,
            &svc,
            &mut NoopRecorder,
        );
        let (shed, _) = run_open_loop(
            &params(&fabric, ShedPolicy::Deadline),
            &reqs,
            &svc,
            &mut NoopRecorder,
        );
        assert!(
            shed.goodput_per_mcycle() > 2.0 * none.goodput_per_mcycle(),
            "goodput {} vs {}",
            shed.goodput_per_mcycle(),
            none.goodput_per_mcycle()
        );
        assert!(
            shed.latency_percentile(99.0) < none.latency_percentile(99.0) / 4,
            "p99 {} vs {}",
            shed.latency_percentile(99.0),
            none.latency_percentile(99.0)
        );
    }

    #[test]
    fn bounded_queue_bounds_observed_depth() {
        let fabric = FabricConfig::mocha_quad();
        let (reqs, svc) = trace(600, 50, None);
        let mut rec = MemRecorder::new();
        let (r, _) = run_open_loop(
            &params(&fabric, ShedPolicy::Queue(3)),
            &reqs,
            &svc,
            &mut rec,
        );
        assert!(r.shed > 0);
        let depth = rec.hist(names::HIST_SERVE_QUEUE_DEPTH).expect("recorded");
        let max = depth.max().unwrap_or(0);
        assert!(max <= 3, "observed depth {max}");
    }

    #[test]
    fn faults_shrink_capacity_and_conservation_still_holds() {
        let fabric = FabricConfig::mocha_quad();
        let plan = FaultPlan::parse("rate=40,seed=5,transient=0.2").unwrap();
        let (reqs, svc) = trace(800, 300, Some(6_000));
        let p = OpenLoopParams {
            fabric: &fabric,
            slots: 4,
            shed: ShedPolicy::Deadline,
            faults: Some(&plan),
            record_spans: false,
        };
        let mut rec = MemRecorder::new();
        let (r, _) = run_open_loop(&p, &reqs, &svc, &mut rec);
        assert!(r.faults_injected > 0);
        assert!(r.quarantined > 0, "permanent faults quarantine");
        assert!(r.lost_cycles > 0, "interrupted attempts lose work");
        assert_eq!(r.offered, r.admitted + r.shed);
        assert_eq!(r.admitted, r.completed + r.failed);
        assert_eq!(rec.counter(names::FAULT_QUARANTINED), r.quarantined as u64);
        // Same plan, same trace: byte-identical.
        let mut rec2 = MemRecorder::new();
        let (r2, _) = run_open_loop(&p, &reqs, &svc, &mut rec2);
        assert_eq!(r, r2);
        assert_eq!(rec.to_jsonl(), rec2.to_jsonl());
    }

    #[test]
    fn spans_cover_completions_and_lost_work() {
        let fabric = FabricConfig::mocha_quad();
        let plan = FaultPlan::parse("rate=25,seed=3,transient=0.8").unwrap();
        let (reqs, svc) = trace(60, 400, None);
        let p = OpenLoopParams {
            fabric: &fabric,
            slots: 4,
            shed: ShedPolicy::None,
            faults: Some(&plan),
            record_spans: true,
        };
        let mut rec = MemRecorder::new();
        let (r, _) = run_open_loop(&p, &reqs, &svc, &mut rec);
        let jobs = rec
            .spans()
            .iter()
            .filter(|s| s.path.starts_with("job/"))
            .count();
        assert_eq!(jobs, r.completed);
        if r.lost_cycles > 0 {
            assert!(rec.spans().iter().any(|s| s.path.starts_with("fault/")));
        }
    }
}
