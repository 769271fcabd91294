//! `serve-mix`: the shipped `mocha-sim serve` TCP server under an open
//! loop of mixed job batches and telemetry reads.
//!
//! One client process (this one) keeps at most [`LANES`] connections in
//! flight. Connections are due on a seeded schedule; each is timed from
//! its due time, so a stall also counts against the requests queued
//! behind it. Stages run at fixed offered rates, lowest (the reference
//! rate) first. Afterwards every job batch is replayed in-process through
//! `mocha_runtime::run_with_cache` to check output hashes and to time the
//! runtime's share of each request.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mocha_core::{DecisionCache, Objective};
use mocha_model::ModelRng;
use mocha_obs::NoopRecorder;
use mocha_runtime::{JobSpec, Mix, Priority, RuntimeConfig, Submission};

use crate::fleet::{find, template_hw};
use crate::spans::Tracer;
use crate::{account, peak_rss_mb, stats, sub_seed, Args, Outcome, THREADS};

/// Connections in flight at once (client threads).
pub const LANES: usize = 2;
/// Offered connection rates, per second, and each stage's share of the
/// run; the first is the reference rate the latency figures come from.
pub const RATES: &[(f64, f64)] = &[(5.0, 0.7), (10.0, 0.15), (20.0, 0.15)];
/// Latency limit on each stage's p95, ms.
pub const LIMIT_MS: f64 = 500.0;
/// Hot `(template, seed)` pairs jobs repeat from (warmed during set-up).
const POOL: usize = 24;
/// Jobs in ten that draw a never-seen seed (one connection in ten is a
/// `stats` or `metrics` read instead of a job batch).
const NEW_PER_10: usize = 3;
const WINDOW_CYCLES: u64 = 1_000_000;
const SETUP_REPEATS: usize = 5;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub network: &'static str,
    pub profile: &'static str,
    pub priority: Priority,
    pub seed: u64,
}

impl Job {
    fn spec(&self) -> JobSpec {
        JobSpec {
            network: self.network.to_string(),
            profile: self.profile.to_string(),
            objective: Objective::Edp,
            priority: self.priority,
            seed: self.seed,
        }
    }

    fn line(&self) -> String {
        use mocha_json::ToJson;
        self.spec().to_json().to_string_compact()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    Jobs(Vec<Job>),
    Stats,
    Metrics,
}

impl Body {
    fn payload(&self) -> String {
        match self {
            Body::Jobs(jobs) => {
                let mut s = String::new();
                for j in jobs {
                    s.push_str(&j.line());
                    s.push('\n');
                }
                s.push('\n');
                s
            }
            Body::Stats => "stats\n".into(),
            Body::Metrics => "metrics\n".into(),
        }
    }
}

/// One scheduled connection: due time (seconds after the stage starts).
#[derive(Debug, Clone, PartialEq)]
pub struct Conn {
    pub due: f64,
    pub body: Body,
}

/// Draws from a fixed multiset in seeded shuffled order, reshuffling when
/// it runs out: every block of draws has exactly the deck's proportions,
/// so schedules of different seeds differ in order and inputs, not in mix.
#[derive(Debug, Clone)]
struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Clone> Deck<T> {
    fn new(cards: Vec<T>) -> Self {
        let next = cards.len();
        Deck { cards, next }
    }

    fn draw(&mut self, rng: &mut ModelRng) -> T {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                let j = rng.gen_range(0..(i as u32 + 1)) as usize;
                self.cards.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1].clone()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Stats,
    Metrics,
    Jobs,
}

/// The seeded request generator: a hot pool plus a stream of fresh seeds.
pub struct Gen {
    rng: ModelRng,
    pool: Vec<Job>,
    fresh: u64,
    seed: u64,
    kinds: Deck<Kind>,
    sizes: Deck<usize>,
    templates: Deck<usize>,
    is_new: Deck<bool>,
    priorities: Deck<Priority>,
}

/// Workload seeds stay below 2^53 so they survive JSON's f64 numbers.
fn json_seed(x: u64) -> u64 {
    x >> 11
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        let mut kinds = vec![Kind::Jobs; 20];
        kinds[0] = Kind::Stats;
        kinds[1] = Kind::Metrics;
        let mut g = Gen {
            rng: ModelRng::seed_from_u64(sub_seed(seed, 10)),
            pool: Vec::new(),
            fresh: 0,
            seed,
            kinds: Deck::new(kinds),
            sizes: Deck::new(vec![1, 2, 3, 4]),
            templates: Deck::new((0..Mix::Quick.templates().len()).collect()),
            is_new: Deck::new((0..10).map(|i| i < NEW_PER_10).collect()),
            priorities: Deck::new(vec![
                Priority::Low,
                Priority::Normal,
                Priority::Normal,
                Priority::High,
            ]),
        };
        g.pool = (0..POOL as u64)
            .map(|i| g.draw_job(json_seed(sub_seed(seed, 100 + i))))
            .collect();
        g
    }

    pub fn pool(&self) -> &[Job] {
        &self.pool
    }

    fn draw_job(&mut self, seed: u64) -> Job {
        let (network, profile) = Mix::Quick.templates()[self.templates.draw(&mut self.rng)];
        Job {
            network,
            profile,
            priority: self.priorities.draw(&mut self.rng),
            seed,
        }
    }

    fn job(&mut self) -> Job {
        if self.is_new.draw(&mut self.rng) {
            self.fresh += 1;
            self.draw_job(json_seed(sub_seed(self.seed, 1 << 32 | self.fresh)))
        } else {
            // Quadratic skew: low pool indices are hot.
            let i = ((POOL as f64 * self.rng.gen_f64().powi(2)) as usize).min(POOL - 1);
            self.pool[i].clone()
        }
    }

    /// A stage's schedule: connections due every `1 / rate` seconds for
    /// `seconds`.
    pub fn stage(&mut self, rate: f64, seconds: f64) -> Vec<Conn> {
        let n = (rate * seconds).round().max(1.0) as usize;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let body = match self.kinds.draw(&mut self.rng) {
                Kind::Stats => Body::Stats,
                Kind::Metrics => Body::Metrics,
                Kind::Jobs => {
                    let n = self.sizes.draw(&mut self.rng);
                    Body::Jobs((0..n).map(|_| self.job()).collect())
                }
            };
            out.push(Conn {
                due: i as f64 / rate,
                body,
            });
        }
        out
    }
}

/// One connection as the client saw it (seconds after the stage start).
#[derive(Debug, Clone)]
pub struct Done {
    pub idx: usize,
    /// The client thread that sent it.
    pub lane: usize,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub response: Result<String, String>,
}

impl Done {
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }
    pub fn lag(&self) -> f64 {
        self.sent - self.due
    }
}

fn exchange(addr: SocketAddr, payload: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.write_all(payload.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut resp = String::new();
    s.read_to_string(&mut resp)
        .map_err(|e| format!("read: {e}"))?;
    Ok(resp)
}

/// Sends `conns` open loop over `lanes` client threads. `send` performs one
/// exchange, so tests can substitute a fake server.
pub fn drive(
    conns: &[Conn],
    lanes: usize,
    send: &(dyn Fn(&Body) -> Result<String, String> + Sync),
) -> Vec<Done> {
    let start = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(conns.len()));
    std::thread::scope(|scope| {
        for lane in 0..lanes {
            let (next, done) = (&next, &done);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(c) = conns.get(i) else { break };
                let due_at = start + Duration::from_secs_f64(c.due);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let sent = start.elapsed().as_secs_f64();
                let response = send(&c.body);
                let finished = start.elapsed().as_secs_f64();
                done.lock()
                    .expect("no lane panics holding the lock")
                    .push(Done {
                        idx: i,
                        lane,
                        due: c.due,
                        sent,
                        done: finished,
                        response,
                    });
            });
        }
    });
    let mut v = done.into_inner().expect("lanes joined");
    v.sort_by_key(|d| d.idx);
    v
}

/// Whether a stage held its offered rate: the tail latency met the limit
/// and the backlog drained (the last connection went out within the limit
/// of its due time).
pub fn stage_ok(done: &[Done]) -> bool {
    let lat: Vec<f64> = done.iter().map(|d| d.latency() * 1e3).collect();
    let tail = stats::percentile(&lat, 95.0).map_or(0.0, |p| p.value);
    let last_lag = done.last().map_or(0.0, |d| d.lag() * 1e3);
    tail <= LIMIT_MS && last_lag <= LIMIT_MS
}

/// Responses after the first, per second until the last.
pub fn response_rate(done: &[Done]) -> f64 {
    let first = done.iter().map(|d| d.done).fold(f64::INFINITY, f64::min);
    let last = done.iter().map(|d| d.done).fold(0.0, f64::max);
    (done.len() as f64 - 1.0) / (last - first)
}

struct Server {
    child: Child,
    addr: SocketAddr,
    /// Keeps draining the server's stderr so its writes never fail.
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    fn start(bin: &std::path::Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--tcp", "127.0.0.1:0", "--cache", "--threads"])
            .arg(THREADS.to_string())
            .args(["--metrics-window", &WINDOW_CYCLES.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let read = stderr.read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok()),
            _ => None,
        };
        match addr {
            Some(addr) => {
                let drain = std::thread::spawn(move || {
                    let _ = std::io::copy(&mut stderr, &mut std::io::sink());
                });
                Ok(Server {
                    child,
                    addr,
                    drain: Some(drain),
                })
            }
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address: {line:?}"))
            }
        }
    }

    fn stop(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// Parsed job lines of one response, `(network, profile, seed, output_hash)`.
fn parse_jobs(resp: &str) -> Result<Vec<(String, String, u64, f64)>, String> {
    let mut jobs = Vec::new();
    let mut summary = false;
    for line in resp.lines() {
        let v = mocha_json::parse(line).map_err(|e| format!("response line: {e}"))?;
        if v.get("summary").is_some() {
            summary = true;
            continue;
        }
        if let Some(e) = v.get("error") {
            return Err(format!("server error: {e:?}"));
        }
        let spec = v.get("spec").ok_or("job line without spec")?;
        let s = |k: &str| -> Result<String, String> {
            Ok(spec
                .get(k)
                .and_then(|x| x.as_str())
                .ok_or(format!("spec.{k}"))?
                .to_string())
        };
        jobs.push((
            s("network")?,
            s("profile")?,
            spec.get("seed")
                .and_then(|x| x.as_u64())
                .ok_or("spec.seed")?,
            v.get("output_hash")
                .and_then(|x| x.as_f64())
                .ok_or("output_hash")?,
        ));
    }
    if !summary {
        return Err("response without a summary line".into());
    }
    Ok(jobs)
}

/// Checks a `stats` response and returns `(cache decisions, cache hits)`.
fn check_stats(resp: &str) -> Result<(u64, u64), String> {
    let v = mocha_json::parse(resp.trim()).map_err(|e| format!("stats: {e}"))?;
    let jobs = v.get("jobs").ok_or("stats without jobs")?;
    let n = |k: &str| jobs.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
    if n("admitted") != n("finished") + n("failed") + n("shed") + n("in_flight") {
        return Err(format!("stats do not reconcile: {jobs:?}"));
    }
    let counter = |k: &str| {
        v.get("counters")
            .and_then(|c| c.get(k))
            .and_then(|x| x.as_u64())
            .unwrap_or(0)
    };
    Ok((counter("cache.decisions"), counter("cache.hit")))
}

fn check_metrics(resp: &str) -> Result<(), String> {
    let last = resp.lines().last().ok_or("empty metrics response")?;
    let v = mocha_json::parse(last).map_err(|e| format!("metrics snapshot: {e}"))?;
    if v.get("error").is_some() {
        return Err(format!("metrics query failed: {last}"));
    }
    if !resp.contains("mocha_") {
        return Err("metrics exposition without mocha_ series".into());
    }
    Ok(())
}

fn runtime_cfg() -> RuntimeConfig {
    RuntimeConfig {
        threads: THREADS,
        cache: true,
        ..RuntimeConfig::default()
    }
}

fn submissions(jobs: &[Job]) -> Vec<Submission> {
    jobs.iter()
        .map(|j| Submission {
            arrival_cycle: 0,
            spec: j.spec(),
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = args
        .server
        .clone()
        .ok_or("serve-mix needs --server PATH (the mocha-sim binary)")?;
    let mut out = Outcome::default();
    let mut gen = Gen::new(args.seed);
    let warm = Body::Jobs(gen.pool().to_vec()).payload();

    // Set-up: start the server and warm its decision cache on the hot
    // pool, several times; the last server is the one measured.
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(s) = server.take() {
            Server::stop(s);
        }
        let t = Instant::now();
        let s = Server::start(&bin)?;
        let resp = exchange(s.addr, &warm)?;
        setup.push(t.elapsed().as_secs_f64());
        let jobs = parse_jobs(&resp)?;
        out.check(jobs.len() == POOL, || "warm-up batch incomplete".into());
        server = Some(s);
    }
    let server = server.expect("started");
    out.set("setup_s", stats::median(&setup).expect("repeats"));

    // Stages, reference rate first. Every stage runs, so the requests sent
    // (and the modelled figures of their replay) depend only on the seed.
    let addr = server.addr;
    let send = move |b: &Body| exchange(addr, &b.payload());
    let mut stages: Vec<(f64, Vec<Conn>, Vec<Done>)> = Vec::new();
    // The rate held is reported as achieved: the response rate (answers
    // after the first, per second until the last) of the highest stage
    // that held with every stage below it; the reference stage's when
    // none did.
    let mut rps_at_slo = 0.0;
    let mut held = true;
    for &(rate, share) in RATES {
        let conns = gen.stage(rate, args.seconds * share);
        let done = drive(&conns, LANES, &send);
        held &= stage_ok(&done);
        if held || stages.is_empty() {
            rps_at_slo = response_rate(&done);
        }
        stages.push((rate, conns, done));
    }
    let final_stats = exchange(addr, "stats\n")?;
    let server_rss = peak_rss_mb(Some(server.child.id()))?;
    Server::stop(server);

    // Replay every job batch in send order on a cache warmed like the
    // server's, and check the responses against it.
    let cfg = runtime_cfg();
    let mut cache = DecisionCache::new();
    mocha_runtime::run_with_cache(
        &cfg,
        &submissions(gen.pool()),
        &mut cache,
        &mut NoopRecorder,
    );
    let mut expected: std::collections::BTreeMap<(String, String, u64), f64> = Default::default();
    let mut batch_s: Vec<Vec<Option<f64>>> = Vec::new();
    let mut replay = Vec::new();
    for (_, conns, _) in &stages {
        let mut per = Vec::new();
        for c in conns {
            let Body::Jobs(jobs) = &c.body else {
                per.push(None);
                continue;
            };
            let t = Instant::now();
            let r = mocha_runtime::run_with_cache(
                &cfg,
                &submissions(jobs),
                &mut cache,
                &mut NoopRecorder,
            );
            per.push(Some(t.elapsed().as_secs_f64()));
            for j in &r.jobs {
                let s = &j.spec;
                // Hashes travel as JSON numbers (f64), so compare in f64.
                expected.insert(
                    (s.network.clone(), s.profile.clone(), s.seed),
                    j.output_hash as f64,
                );
            }
            replay.push(r);
        }
        batch_s.push(per);
    }

    for (_, conns, done) in &stages {
        for d in done {
            out.attempted += 1;
            let verdict = match (&conns[d.idx].body, &d.response) {
                (_, Err(e)) => Err(e.clone()),
                (Body::Jobs(jobs), Ok(resp)) => parse_jobs(resp).and_then(|got| {
                    if got.len() != jobs.len() {
                        return Err(format!("{} of {} jobs answered", got.len(), jobs.len()));
                    }
                    for (n, p, s, h) in got {
                        if expected.get(&(n.clone(), p.clone(), s)) != Some(&h) {
                            return Err(format!(
                                "{n}@{p} seed {s}: output hash differs from replay"
                            ));
                        }
                    }
                    Ok(())
                }),
                (Body::Stats, Ok(resp)) => check_stats(resp).map(|_| ()),
                (Body::Metrics, Ok(resp)) => check_metrics(resp),
            };
            if let Err(e) = verdict {
                out.failed += 1;
                out.check(false, || format!("connection {}: {e}", d.idx));
            }
        }
    }
    let dec_hit = check_stats(&final_stats).unwrap_or_else(|e| {
        out.check(false, || e);
        (0, 0)
    });

    // Latency and throughput come from the reference stage. Throughput is
    // simulated work per host second of request service (send to
    // response): in an open loop the offered rate, not the server, sets
    // work per wall second.
    let (ref_rate, ref_conns, ref_done) = &stages[0];
    let lat_ms: Vec<f64> = ref_done.iter().map(|d| d.latency() * 1e3).collect();
    let p95 = stats::tail(&lat_ms, 95.0).expect("reference stage has connections");
    out.set("serve_p50_ms", stats::median(&lat_ms).expect("samples"));
    out.set("serve_p95_ms", p95.value);
    out.set("serve_rps_at_slo", rps_at_slo);
    let mut service_s = 0.0;
    let mut ref_jobs: Vec<JobSpec> = Vec::new();
    for d in ref_done {
        if let Body::Jobs(j) = &ref_conns[d.idx].body {
            service_s += d.done - d.sent;
            ref_jobs.extend(j.iter().map(Job::spec));
        }
    }
    let all_jobs: Vec<JobSpec> = stages
        .iter()
        .flat_map(|(_, c, _)| c)
        .filter_map(|c| match &c.body {
            Body::Jobs(j) => Some(j.iter().map(Job::spec)),
            _ => None,
        })
        .flatten()
        .collect();
    let hw = template_hw(&all_jobs);
    let macs: u64 = ref_jobs.iter().map(|s| find(&hw, s).work_macs).sum();
    out.set("fleet_kreq_per_s", ref_jobs.len() as f64 / service_s / 1e3);
    out.set("sim_gmacs_per_s", macs as f64 / service_s / 1e9);
    out.set(
        "hw_storage_kb",
        hw.iter().map(|t| t.peak_storage).max().unwrap_or(0) as f64 / 1024.0,
    );
    // Modelled figures over the replay of every batch sent.
    let ops: f64 = replay
        .iter()
        .flat_map(|r| &r.jobs)
        .map(|j| 2.0 * j.work_macs as f64)
        .sum();
    let pj: f64 = replay
        .iter()
        .flat_map(|r| &r.jobs)
        .map(|j| j.energy_pj)
        .sum();
    let horizon: u64 = replay.iter().map(|r| r.horizon).sum();
    let clock_ghz = replay[0].clock_ghz;
    out.set("hw_gops", ops / (horizon as f64 / clock_ghz));
    out.set("hw_gops_per_w", ops / pj * 1e3);
    let njobs = replay.iter().map(|r| r.jobs.len()).sum::<usize>();
    out.set("hw_goodput_per_mcycle", njobs as f64 * 1e6 / horizon as f64);
    let job_lat: Vec<f64> = replay
        .iter()
        .flat_map(|r| &r.jobs)
        .map(|j| j.latency() as f64)
        .collect();
    out.set(
        "hw_p99_kcycles",
        stats::percentile(&job_lat, 99.0).expect("jobs").value / 1e3,
    );
    out.set("peak_rss_mb", server_rss);
    for (rate, conns, done) in &stages {
        let lat: Vec<f64> = done.iter().map(|d| d.latency() * 1e3).collect();
        let t = stats::percentile(&lat, 95.0).expect("samples");
        out.note(format!(
            "rate {rate}/s: {} connections, p50 {:.1} ms, p95 {:.1} ms, max lag {:.1} ms, {:.2} responses/s, {}",
            conns.len(),
            stats::median(&lat).unwrap_or(0.0),
            t.value,
            done.iter().map(|d| d.lag() * 1e3).fold(0.0, f64::max),
            response_rate(done),
            if stage_ok(done) { "held" } else { "not held" }
        ));
    }
    out.note(format!(
        "reference rate {ref_rate}/s: latency p{:.1} over {} samples; cache {} hits of {} decisions",
        p95.pct, p95.count, dec_hit.1, dec_hit.0
    ));

    if args.trace {
        // Spans are assembled from the timestamps every run takes, so the
        // traced and untraced wall times are the same. One tracer per
        // client lane: a lane is busy from send to response, and the
        // replay's batch time is attributed inside that interval. Time a
        // connection waited for a free lane is recorded on its own lane
        // (`LANES`) and kept out of the lane accounting. Span ids number
        // connections across stages.
        let origin = Instant::now();
        let mut lanes: Vec<Tracer> = (0..=LANES)
            .map(|l| Tracer::new(true, origin, l as u32))
            .collect();
        let mut wait = Vec::new();
        let mut query = Vec::new();
        let mut lag = Vec::new();
        let mut offset = 0.0;
        let mut base = 0;
        for ((_, conns, done), per) in stages.iter().zip(&batch_s) {
            for d in done {
                let id = (base + d.idx) as u64;
                lanes[LANES].record("serve.lag", id, None, offset + d.due, offset + d.sent);
                lag.push(d.lag() * 1e3);
                let tr = &mut lanes[d.lane];
                let root = tr.record("serve.request", id, None, offset + d.sent, offset + d.done);
                match (&conns[d.idx].body, per[d.idx]) {
                    (Body::Jobs(_), Some(b)) => {
                        tr.record(
                            "runtime.batch",
                            id,
                            root,
                            offset + d.sent,
                            offset + (d.sent + b).min(d.done),
                        );
                        wait.push((d.done - d.sent - b).max(0.0) * 1e3);
                    }
                    _ => {
                        tr.record("serve.query", id, root, offset + d.sent, offset + d.done);
                        query.push((d.done - d.sent) * 1e3);
                    }
                }
            }
            offset += done.iter().map(|x| x.done).fold(0.0, f64::max);
            base += conns.len();
        }
        let mut tr = Tracer::new(true, origin, 0);
        for l in lanes {
            tr.absorb(l);
        }
        account(
            &mut out,
            &tr,
            &[
                ("serve.request", "serve.wait_s"),
                ("runtime.batch", "runtime.batch_s"),
                ("serve.query", "serve.query_s"),
            ],
            offset,
            offset,
            LANES,
        );
        out.set("serve.lag_s", lag.iter().sum::<f64>() / 1e3);
        let all_batches: Vec<f64> = batch_s
            .iter()
            .flatten()
            .flatten()
            .map(|s| s * 1e3)
            .collect();
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        out.set("runtime.batch_ms", mean(&all_batches));
        out.set("serve.wait_ms", mean(&wait));
        out.set("serve.query_ms", mean(&query));
        out.set("serve.lag_ms", mean(&lag));
        out.set("serve.latency_samples", p95.count as f64);
        out.set(
            "runtime.remorphs",
            replay
                .iter()
                .flat_map(|r| &r.jobs)
                .map(|j| j.remorphs)
                .sum::<usize>() as f64,
        );
        out.set(
            "runtime.jobs_per_batch",
            all_jobs.len() as f64 / replay.len() as f64,
        );
        out.set(
            "core.cache_hit_ratio",
            dec_hit.1 as f64 / dec_hit.0.max(1) as f64,
        );
        out.set("core.cache_decisions", dec_hit.0 as f64);
        tr.write_jsonl(
            &args
                .out
                .join(format!("trace-serve-mix-{}.jsonl", args.seed)),
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = Gen::new(7).stage(8.0, 5.0);
        let b = Gen::new(7).stage(8.0, 5.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        assert_ne!(a, Gen::new(8).stage(8.0, 5.0));
        assert_eq!(Gen::new(7).pool(), Gen::new(7).pool());
        // Both repeated and fresh inputs, and both kinds of reads, occur.
        let conns = Gen::new(7).stage(50.0, 20.0);
        let pool = Gen::new(7).pool().to_vec();
        let jobs: Vec<&Job> = conns
            .iter()
            .filter_map(|c| match &c.body {
                Body::Jobs(j) => Some(j.iter()),
                _ => None,
            })
            .flatten()
            .collect();
        let repeats = jobs.iter().filter(|j| pool.contains(j)).count();
        assert!(repeats > 0 && repeats < jobs.len());
        assert!(conns.iter().any(|c| c.body == Body::Stats));
        assert!(conns.iter().any(|c| c.body == Body::Metrics));
        assert!(jobs.iter().all(|j| j.seed < 1 << 53));
    }

    #[test]
    fn a_stall_counts_against_the_requests_queued_behind_it() {
        // One lane; the first exchange stalls 300 ms, the rest take ~0.
        let conns: Vec<Conn> = (0..5)
            .map(|i| Conn {
                due: i as f64 * 0.05,
                body: Body::Stats,
            })
            .collect();
        let first = AtomicUsize::new(0);
        let send = |_: &Body| -> Result<String, String> {
            if first.fetch_add(1, Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(300));
            }
            Ok(String::new())
        };
        let done = drive(&conns, 1, &send);
        assert_eq!(done.len(), 5);
        for d in &done[1..] {
            // Each later request was due before the stall ended, so it
            // waited for it: latency from the due time includes the wait,
            // although its own exchange took almost nothing.
            let stall_end = 0.3;
            assert!(d.done - d.sent < 0.05, "{d:?}");
            assert!(d.latency() >= stall_end - d.due - 1e-3, "{d:?}");
            assert!(d.lag() > 0.1, "{d:?}");
        }
        assert!(!stage_ok(&done) || LIMIT_MS >= 300.0);
    }
}
