//! Serving-path benchmark: replays a seeded campaign through
//! `TuningService::serve_batch` from one closed-loop client and
//! reports wall-clock end-to-end metrics (`--trace 0`) or a per-layer
//! breakdown from a separate traced replay (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload e1_mixed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every metric is printed as `metric <name> <value> <unit>`; the last
//! line of standard output is one JSON object with the metrics listed
//! in `BENCHMARK.json`. See `perfbench/README.md` for what each
//! workload is for.

mod layers;
mod workloads;

use antarex_obs::{nj_to_j, Scope};
use antarex_serve::store::TenantClass;
use antarex_serve::{probe_seed, BatchReport, Evaluator};
use antarex_vm::InstrumentedCodeCache;
use layers::{ProbeLog, Timed, PROBE_CLASSES};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workloads::{Campaign, Workload, BATCH};

/// End-to-end metrics reported in the JSON line of a `--trace 0` run.
const END_TO_END: [&str; 8] = [
    "throughput_rps",
    "batch_latency_p50_ms",
    "batch_latency_top1pct_ms",
    "served_share",
    "setup_s",
    "peak_rss_mb",
    "joules_per_request",
    "virtual_latency_mean_s",
];

/// Per-layer metrics reported in the JSON line of a `--trace 1` run.
/// Every row is printed; this list leaves out the timings of a layer
/// a workload never reaches (they would read 0 on every run of it).
const PER_LAYER: [&str; 30] = [
    "serve.self_ns_per_request",
    "probe.calls",
    "probe.ns_p50",
    "probe.ns_p99",
    "probe.busy_share",
    "probe.kernel.overhead_ratio",
    "vm.code_cache_lookups_per_probe",
    "vm.run_ns",
    "vm.instantiate_ns",
    "ir.parse_ns",
    "precision.variant_ns",
    "cache.hit_rate",
    "cache.misses",
    "cache.probes_per_request",
    "cache.key_ns",
    "cache.get_ns",
    "tuner.select_ns",
    "tuner.observe_ns",
    "tuner.adapt_ns",
    "admission.shed",
    "admission.degraded",
    "admission.nav_served_share",
    "admission.docking_served_share",
    "pool.virtual_makespan_s",
    "journal.entries_per_request",
    "obs.trace_dropped",
    "obs.exposition_ns",
    "obs.chrome_export_ms",
    "trace_overhead",
    "failed_share",
];

/// Back-to-back set-ups per `setup_s` sample.
const SETUPS_PER_BLOCK: usize = 2;

/// Timed replays per run at least, after the warm-up replay.
const MIN_TIMED_REPLAYS: usize = 3;

/// Physical pool threads of the timed runs. One: probes run on the
/// client's thread, so no wake-up of a second thread (whose latency on
/// a shared virtual machine varies with the host) enters the timing.
/// Outputs are identical at any count; the traced run checks 1 and 2.
const TIMED_WORKERS: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// FNV-1a over a replay's observable outcome.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// Every field of a report, without formatting it: the client
    /// stays light between batches.
    fn report(&mut self, report: &BatchReport) {
        for response in &report.responses {
            match response {
                Ok(answer) => {
                    self.word(answer.tenant);
                    self.word(answer.arrival_s.to_bits());
                    self.word(probe_seed(&answer.config, &[]));
                    for (metric, value) in &answer.metrics {
                        self.bytes(metric.as_bytes());
                        self.word(value.to_bits());
                    }
                    self.word(answer.latency_s.to_bits());
                    self.word(u64::from(answer.cache_hit));
                    self.word(answer.energy_j.to_bits());
                }
                Err(error) => self.bytes(format!("{error:?}").as_bytes()),
            }
        }
        self.word(report.makespan_s.to_bits());
        for count in [
            report.evaluated,
            report.shed,
            report.degraded,
            report.admission_shed,
            report.capacity,
        ] {
            self.word(count as u64);
        }
        for count in [report.retries, report.hedges, report.quarantined] {
            self.word(count);
        }
    }
}

/// The journal's crash suffix and the recovery that replays it.
struct JournalStats {
    entries: usize,
    requests_since_snapshot: usize,
    recover_ms: f64,
    recovered_identical: bool,
}

/// Everything one replay of a campaign measured.
struct Replay {
    requests: usize,
    ok: usize,
    batch_ns: Vec<u64>,
    serve_ns: u64,
    malformed_batches: usize,
    /// Virtual latencies of the `Ok` answers: mean, p99, sample count.
    virtual_latency: (f64, f64, usize),
    facility_j: f64,
    conserved: bool,
    outcomes_balance: bool,
    evaluated: usize,
    admission_shed: usize,
    degraded: usize,
    queue_shed: usize,
    makespan_s: f64,
    /// Submitted and answered-`Ok` requests of nav and docking tenants.
    class_requests: [(usize, usize); 2],
    cache_hit_rate: f64,
    cache_misses: u64,
    cache_quarantined: u64,
    trace_retained: usize,
    trace_dropped: u64,
    digest: u64,
    journal: Option<JournalStats>,
    units: Option<layers::ServiceUnitCosts>,
}

impl Replay {
    fn throughput_rps(&self) -> f64 {
        self.requests as f64 / (self.serve_ns as f64 / 1e9)
    }

    fn correct(&self) -> bool {
        self.conserved
            && self.outcomes_balance
            && self.malformed_batches == 0
            && self.journal.as_ref().is_none_or(|j| j.recovered_identical)
    }
}

/// Serves `campaign` batch by batch from one closed-loop client, then
/// checks and digests the outcome.
fn replay<E: Evaluator>(
    workload: Workload,
    physical: usize,
    campaign: Campaign<E>,
    unit_costs: bool,
) -> Replay {
    let Campaign { service, requests } = campaign;
    let mut digest = Digest::new();
    let mut batch_ns = Vec::with_capacity(requests.len() / BATCH + 1);
    let mut answered_ok = Vec::with_capacity(requests.len());
    let mut latencies_s = Vec::with_capacity(requests.len());
    let (mut evaluated, mut admission_shed, mut degraded, mut queue_shed) = (0, 0, 0, 0);
    let mut makespan_s = 0.0;
    let mut malformed_batches = 0;
    for batch in requests.chunks(BATCH) {
        let started = Instant::now();
        let report = service.serve_batch(batch);
        batch_ns.push(started.elapsed().as_nanos() as u64);
        if report.responses.len() != batch.len() {
            malformed_batches += 1;
        }
        for response in &report.responses {
            answered_ok.push(response.is_ok());
            if let Ok(answer) = response {
                latencies_s.push(answer.latency_s);
            }
        }
        evaluated += report.evaluated;
        admission_shed += report.admission_shed;
        degraded += report.degraded;
        queue_shed += report.shed;
        makespan_s += report.makespan_s;
        digest.report(&report);
    }
    let serve_ns = batch_ns.iter().sum();
    let ok = answered_ok.iter().filter(|&&ok| ok).count();
    latencies_s.sort_by(f64::total_cmp);
    let virtual_latency = (
        latencies_s.iter().sum::<f64>() / latencies_s.len().max(1) as f64,
        latencies_s
            .last()
            .map_or(0.0, |_| percentile(&latencies_s, 0.99)),
        latencies_s.len(),
    );

    let obs = service.obs();
    let plane = obs.plane();
    let counter = |name: &str| plane.registry.counter(name, Scope::Invariant).get();
    let outcomes = ["served", "shed", "rejected", "failed"]
        .map(|outcome| counter(&format!("serve_{outcome}_total")));
    let outcomes_balance = counter("serve_requests_total") == requests.len() as u64
        && outcomes.iter().sum::<u64>() == requests.len() as u64
        && outcomes[0] == ok as u64;

    let mut class_requests = [(0, 0); 2];
    for (request, &ok) in requests.iter().zip(&answered_ok) {
        let slot = match service.store().with(request.tenant, |s| s.class) {
            Ok(TenantClass::Nav) => &mut class_requests[0],
            Ok(TenantClass::Docking) => &mut class_requests[1],
            _ => continue,
        };
        slot.0 += 1;
        slot.1 += usize::from(ok);
    }

    let state = service.state_report();
    digest.bytes(obs.invariant_exposition().as_bytes());
    digest.bytes(state.as_bytes());
    let (facility_nj, _, _) = plane.energy.totals_nj();
    let units = unit_costs.then(|| layers::service_unit_costs(&service));
    let cache = service.cache();
    let (cache_hit_rate, cache_misses, cache_quarantined) =
        (cache.hit_rate(), cache.misses(), cache.quarantined());
    let (trace_retained, trace_dropped) = (plane.trace.len(), plane.trace.dropped());
    let conserved = plane.energy.conservation_holds();

    let journal = (workload == Workload::JournaledNav).then(|| {
        let (snapshot, entries) = service.crash();
        let since_s = snapshot.as_ref().map_or(f64::NEG_INFINITY, |s| s.at_s);
        let requests_since_snapshot = requests.iter().filter(|r| r.arrival_s >= since_s).count();
        let started = Instant::now();
        let recovered = workloads::recover_journaled_nav(physical, snapshot, &entries);
        let recover_ms = started.elapsed().as_secs_f64() * 1e3;
        JournalStats {
            entries: entries.len(),
            requests_since_snapshot,
            recover_ms,
            recovered_identical: recovered.state_report() == state,
        }
    });

    Replay {
        requests: requests.len(),
        ok,
        batch_ns,
        serve_ns,
        malformed_batches,
        virtual_latency,
        facility_j: nj_to_j(facility_nj),
        conserved,
        outcomes_balance,
        evaluated,
        admission_shed,
        degraded,
        queue_shed,
        makespan_s,
        class_requests,
        cache_hit_rate,
        cache_misses,
        cache_quarantined,
        trace_retained,
        trace_dropped,
        digest: digest.0,
        journal,
        units,
    }
}

/// Builds the workload's campaign, with the evaluator passed through
/// `$wrap` (identity, or the probe timer), and evaluates `$body` on it.
macro_rules! with_campaign {
    ($args:expr, $physical:expr, $code_cache:expr, $wrap:expr, |$campaign:ident| $body:expr) => {
        match $args.workload {
            Workload::E1Mixed => {
                let $campaign = workloads::e1_mixed($args.seed, $physical, $wrap);
                $body
            }
            Workload::KernelChurn => {
                let $campaign = workloads::kernel_churn($args.seed, $physical, $code_cache, $wrap);
                $body
            }
            Workload::JournaledNav => {
                let $campaign = workloads::journaled_nav($args.seed, $physical, $wrap);
                $body
            }
        }
    };
}

/// One untraced replay on `physical` pool threads.
fn plain_replay(args: &Args, physical: usize) -> Replay {
    let code_cache = Arc::new(InstrumentedCodeCache::new());
    with_campaign!(args, physical, code_cache, |e| e, |campaign| {
        replay(args.workload, physical, campaign, false)
    })
}

/// One set-up alone: evaluator, service, tenants and arrivals.
fn setup_only(args: &Args) -> f64 {
    let started = Instant::now();
    let code_cache = Arc::new(InstrumentedCodeCache::new());
    with_campaign!(args, TIMED_WORKERS, code_cache, |e| e, |campaign| {
        let setup_s = started.elapsed().as_secs_f64();
        drop(campaign);
        setup_s
    })
}

/// Mean of a block of set-ups made back to back, each dropped before the
/// next; consecutive set-ups alternate between reusing freed memory and
/// faulting in fresh pages, so one alone is not a sample.
fn setup_block(args: &Args) -> f64 {
    (0..SETUPS_PER_BLOCK).map(|_| setup_only(args)).sum::<f64>() / SETUPS_PER_BLOCK as f64
}

/// Nearest-rank percentile of sorted values.
fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Upper median; 0 for no values.
fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Collected `(name, value, unit)` rows.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("metric {name} {value} {unit}");
        }
    }

    /// The JSON object of the named metrics.
    fn json(&self, names: &[&str]) -> String {
        let rows: Vec<String> = names
            .iter()
            .map(|name| {
                let (_, value, unit) = self
                    .0
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .expect("every reported metric is measured");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", rows.join(", "))
    }
}

fn end_to_end(args: &Args, metrics: &mut Metrics) -> (bool, usize, usize) {
    let physical = TIMED_WORKERS;
    let started = Instant::now();
    let (mut replays, mut setups) = (Vec::new(), Vec::new());
    // the first replay warms caches and the allocator and is not timed;
    // set-up blocks between the replays sample the whole run, as the
    // replays do
    while replays.len() < 1 + MIN_TIMED_REPLAYS || started.elapsed().as_secs_f64() < args.seconds {
        replays.push(plain_replay(args, physical));
        setups.push(setup_block(args));
    }

    let digests_agree = replays.windows(2).all(|w| w[0].digest == w[1].digest);
    let correct = digests_agree && replays.iter().all(Replay::correct);
    let first = &replays[0];
    let timed = &replays[1..];
    println!(
        "run physical_workers {physical} replays {} timed {} requests_per_replay {} digest {:016x} digests_agree {digests_agree} correct {correct}",
        replays.len(),
        timed.len(),
        first.requests,
        first.digest,
    );

    // the undisturbed replay: each batch's fastest wall time across the
    // timed replays. Every replay serves the same batches, so a slower
    // instance of a batch was slowed by something outside the program
    // (other tenants of the host contending for memory and cores)
    let mut fastest_ns: Vec<f64> = (0..first.batch_ns.len())
        .map(|batch| timed.iter().map(|r| r.batch_ns[batch]).min().unwrap_or(0) as f64)
        .collect();
    metrics.put(
        "throughput_rps",
        first.requests as f64 / (fastest_ns.iter().sum::<f64>() / 1e9),
        "1/s",
    );
    fastest_ns.sort_by(f64::total_cmp);
    metrics.put(
        "batch_latency_p50_ms",
        percentile(&fastest_ns, 0.50) / 1e6,
        "ms",
    );
    metrics.put(
        "batch_latency_p99_ms",
        percentile(&fastest_ns, 0.99) / 1e6,
        "ms",
    );
    // the mean of the slowest 1% is the tail the p99 sits in, but it
    // does not jump with the rank of the 1% boundary: on `e1_mixed` that
    // boundary falls inside the cold-start batches, whose wall times
    // fall steeply from batch to batch
    let tail = &fastest_ns[fastest_ns.len() - fastest_ns.len().div_ceil(100)..];
    metrics.put(
        "batch_latency_top1pct_ms",
        tail.iter().sum::<f64>() / tail.len() as f64 / 1e6,
        "ms",
    );
    metrics.put(
        "batch_latency_samples_per_replay",
        first.batch_ns.len() as f64,
        "count",
    );
    metrics.put("timed_replays", timed.len() as f64, "count");
    metrics.put("served_share", share(first.ok, first.requests), "ratio");
    metrics.put(
        "failed_share",
        share(first.requests - first.ok, first.requests),
        "ratio",
    );
    metrics.put("setup_s", median(setups), "s");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    metrics.put(
        "joules_per_request",
        first.facility_j / first.ok.max(1) as f64,
        "J",
    );
    let (mean_s, p99_s, samples) = first.virtual_latency;
    metrics.put("virtual_latency_mean_s", mean_s, "s");
    metrics.put("virtual_latency_p99_s", p99_s, "s");
    metrics.put("virtual_latency_samples", samples as f64, "count");
    let batches = replays.iter().map(|r| r.batch_ns.len()).sum();
    let malformed = replays.iter().map(|r| r.malformed_batches).sum();
    (correct, batches, malformed)
}

fn per_layer(args: &Args, metrics: &mut Metrics) -> (bool, usize, usize) {
    // the two-worker replay goes first and doubles as the warm-up; then
    // untraced and traced replays alternate on one pool thread, so the
    // probe wall time subtracts exactly from the serve wall time
    let two_workers = plain_replay(args, 2);
    let log = Arc::new(ProbeLog::default());
    let (mut untraced, mut traced_runs) = (Vec::new(), Vec::new());
    let (mut code_lookups, mut code_hits) = (0, 0);
    let started = Instant::now();
    while traced_runs.len() < MIN_TIMED_REPLAYS || started.elapsed().as_secs_f64() < args.seconds {
        untraced.push(plain_replay(args, 1));
        let code_cache = Arc::new(InstrumentedCodeCache::new());
        let cache = Arc::clone(&code_cache);
        let unit_costs = traced_runs.is_empty();
        traced_runs.push(with_campaign!(
            args,
            1,
            cache,
            |e| Timed::new(e, Arc::clone(&log)),
            |campaign| replay(args.workload, 1, campaign, unit_costs)
        ));
        code_lookups += code_cache.hits() + code_cache.misses();
        code_hits += code_cache.hits();
    }
    let replays: Vec<&Replay> = std::iter::once(&two_workers)
        .chain(&untraced)
        .chain(&traced_runs)
        .collect();
    let digests_agree = replays.windows(2).all(|w| w[0].digest == w[1].digest);
    let correct = digests_agree && replays.iter().all(|r| r.correct());
    println!(
        "run traced physical_workers 1 traced_replays {} digest {:016x} digests_agree_at_1_and_2_workers_traced_and_untraced {digests_agree} correct {correct}",
        traced_runs.len(),
        two_workers.digest,
    );

    let samples = log.samples();
    let probe_ns: u64 = samples.iter().flatten().sum();
    let serve_ns: u64 = traced_runs.iter().map(|r| r.serve_ns).sum();
    let runs = traced_runs.len();
    let traced = &traced_runs[0];
    let requests = traced.requests;
    metrics.put(
        "serve.self_ns_per_request",
        serve_ns.saturating_sub(probe_ns) as f64 / (requests * runs) as f64,
        "ns",
    );
    let mut pooled: Vec<u64> = samples.iter().flatten().copied().collect();
    pooled.sort_unstable();
    let pct = |sorted: &[u64], q: f64| {
        if sorted.is_empty() {
            0.0
        } else {
            percentile(sorted, q) as f64
        }
    };
    metrics.put("probe.calls", (pooled.len() / runs) as f64, "count");
    metrics.put("probe.ns_p50", pct(&pooled, 0.5), "ns");
    metrics.put("probe.ns_p99", pct(&pooled, 0.99), "ns");
    metrics.put(
        "probe.busy_share",
        probe_ns as f64 / serve_ns as f64,
        "ratio",
    );
    let mut class_p50 = [0.0; 3];
    for (class, name) in PROBE_CLASSES.iter().enumerate() {
        let mut sorted = samples[class].clone();
        sorted.sort_unstable();
        class_p50[class] = pct(&sorted, 0.5);
        metrics.put(
            format!("probe.{name}.calls"),
            (sorted.len() / runs) as f64,
            "count",
        );
        metrics.put(format!("probe.{name}.ns_p50"), class_p50[class], "ns");
        metrics.put(format!("probe.{name}.ns_p99"), pct(&sorted, 0.99), "ns");
    }

    let kernel_probes = samples[2].len();
    let units = layers::kernel_unit_costs(args.seed);
    metrics.put(
        "probe.kernel.overhead_ratio",
        class_p50[2] / (2.0 * units.run_ns),
        "ratio",
    );
    metrics.put(
        "vm.code_cache_lookups_per_probe",
        share(code_lookups as usize, kernel_probes),
        "count",
    );
    metrics.put(
        "vm.code_cache_hit_rate",
        share(code_hits as usize, code_lookups as usize),
        "ratio",
    );
    metrics.put("vm.run_ns", units.run_ns, "ns");
    metrics.put("vm.instantiate_ns", units.instantiate_ns, "ns");
    metrics.put("ir.parse_ns", units.parse_ns, "ns");
    metrics.put("precision.variant_ns", units.variant_ns, "ns");

    let service_units = traced
        .units
        .as_ref()
        .expect("traced replay measures unit costs");
    metrics.put("cache.hit_rate", traced.cache_hit_rate, "ratio");
    metrics.put("cache.misses", traced.cache_misses as f64, "count");
    metrics.put(
        "cache.quarantined",
        traced.cache_quarantined as f64,
        "count",
    );
    metrics.put(
        "cache.probes_per_request",
        share(traced.evaluated, requests),
        "ratio",
    );
    metrics.put("cache.key_ns", service_units.key_ns, "ns");
    metrics.put("cache.get_ns", service_units.get_ns, "ns");
    metrics.put("tuner.select_ns", service_units.select_ns, "ns");
    metrics.put("tuner.observe_ns", service_units.observe_ns, "ns");
    metrics.put("tuner.adapt_ns", service_units.adapt_ns, "ns");

    metrics.put(
        "failed_share",
        share(requests - traced.ok, requests),
        "ratio",
    );
    metrics.put("admission.shed", traced.admission_shed as f64, "count");
    metrics.put("admission.degraded", traced.degraded as f64, "count");
    let [(nav_n, nav_ok), (dock_n, dock_ok)] = traced.class_requests;
    metrics.put("admission.nav_served_share", share(nav_ok, nav_n), "ratio");
    metrics.put(
        "admission.docking_served_share",
        share(dock_ok, dock_n),
        "ratio",
    );
    metrics.put("pool.queue_shed", traced.queue_shed as f64, "count");
    metrics.put("pool.virtual_makespan_s", traced.makespan_s, "s");

    let journal = traced.journal.as_ref();
    metrics.put(
        "journal.entries",
        journal.map_or(0, |j| j.entries) as f64,
        "count",
    );
    let recover_ms = traced_runs
        .iter()
        .filter_map(|r| r.journal.as_ref().map(|j| j.recover_ms))
        .collect::<Vec<_>>();
    metrics.put("journal.recover_ms", median(recover_ms), "ms");
    metrics.put(
        "journal.entries_per_request",
        journal.map_or(0.0, |j| share(j.entries, j.requests_since_snapshot)),
        "ratio",
    );

    metrics.put("obs.trace_retained", traced.trace_retained as f64, "count");
    metrics.put("obs.trace_dropped", traced.trace_dropped as f64, "count");
    metrics.put("obs.exposition_ns", service_units.exposition_ns, "ns");
    metrics.put("obs.chrome_export_ms", service_units.chrome_export_ms, "ms");
    metrics.put(
        "trace_overhead",
        median(
            traced_runs
                .iter()
                .zip(&untraced)
                .map(|(t, u)| t.throughput_rps() / u.throughput_rps())
                .collect(),
        ),
        "ratio",
    );
    let batches = replays.iter().map(|r| r.batch_ns.len()).sum();
    let malformed = replays.iter().map(|r| r.malformed_batches).sum();
    (correct, batches, malformed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <e1_mixed|kernel_churn|journaled_nav> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} trace {} physical_cores {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!("params {}", workloads::parameters(args.workload));
    let mut metrics = Metrics::default();
    let (correct, attempted, failed, names): (_, _, _, &[&str]) = if args.trace {
        let (correct, attempted, failed) = per_layer(&args, &mut metrics);
        (correct, attempted, failed, &PER_LAYER)
    } else {
        let (correct, attempted, failed) = end_to_end(&args, &mut metrics);
        (correct, attempted, failed, &END_TO_END)
    };
    metrics.print();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json(names)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
