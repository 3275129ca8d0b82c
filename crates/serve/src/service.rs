//! The multi-tenant autotuning service.
//!
//! One service instance hosts thousands of per-application tuning
//! sessions (the paper's vision of the autotuner as a shared runtime
//! facility rather than a per-process library). A request names a
//! tenant; the service selects the tenant's best feasible operating
//! point, answers from the design-point cache when that point was
//! already measured — for *any* tenant — and otherwise batches a probe
//! onto the parallel evaluation pool. Fresh measurements flow back into
//! the tenant's knowledge base (online learning), and the per-tenant
//! power demands aggregate into the cluster power manager's budget
//! split.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionTier};
use crate::autoscale::{AutoscaleConfig, Autoscaler};
use crate::breaker::{BreakerBank, BreakerConfig};
use crate::cache::{probe_seed, DesignKey, DesignPointCache, Metrics};
use crate::chaos::{chaos_schedule, ChaosConfig, HedgePolicy};
use crate::error::{FailureClass, ServeError};
use crate::journal::{Applied, FrontDoor, Journal, JournalEntry, ServingState, Snapshot};
use crate::lock_or_recover;
use crate::obs::{ServeObs, ADAPT_SPAN_S, CACHE_PROBE_SPAN_S, LEARN_SPAN_S, SELECT_SPAN_S};
use crate::pool::{EvalJob, EvalPool, EvalResult, Evaluation, PoolConfig, SchedConfig};
use crate::store::{Session, SessionStore, TenantClass, TenantId};
use antarex_obs::{
    largest_remainder_split, nj_to_j, to_nj, EnergyModel, Layer, SpanId, TraceCtx, TraceId,
    WindowSummary,
};
use antarex_rtrm::checkpoint::daly_interval_s;
use antarex_rtrm::powercap::{split_digest, try_weighted_split_observed};
use antarex_tuner::manager::AppManager;
use antarex_tuner::Configuration;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Virtual cost of answering from the cache, seconds.
const CACHE_LOOKUP_S: f64 = 1e-4;

/// Measures design points for the service.
///
/// Implementations must be pure: the same configuration and features
/// always yield the same evaluation. That is what lets the pool run
/// probes on any number of threads — and the cache reuse them across
/// tenants — without changing a single output byte.
pub trait Evaluator: Sync {
    /// Measures the metrics and virtual compute cost of a
    /// configuration under the given workload features.
    fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation;

    /// Like [`evaluate`](Evaluator::evaluate), but additionally breaks
    /// the probe into named sub-segments for causal tracing (e.g. the
    /// VM kernel evaluator reports its reference and tuned kernel runs
    /// separately). The returned evaluation must be identical to what
    /// `evaluate` yields for the same inputs. The default reports no
    /// segments.
    fn evaluate_segmented(
        &self,
        config: &Configuration,
        features: &[f64],
    ) -> (Evaluation, Vec<ProbeSegment>) {
        (self.evaluate(config, features), Vec::new())
    }
}

impl<F> Evaluator for F
where
    F: Fn(&Configuration, &[f64]) -> Evaluation + Sync,
{
    fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation {
        self(config, features)
    }
}

/// One named sub-phase of a probe, reported by
/// [`Evaluator::evaluate_segmented`] for the VM layer of a causal
/// trace. Purely descriptive: segments never feed back into metrics,
/// caching, or scheduling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSegment {
    /// Segment label (e.g. `"reference"`, `"tuned"`).
    pub name: &'static str,
    /// Virtual compute cost of the segment, seconds.
    pub cost_s: f64,
    /// Metered energy of the segment, joules.
    pub energy_j: f64,
}

/// Service sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Session-store shards.
    pub store_shards: usize,
    /// Design-point-cache shards.
    pub cache_shards: usize,
    /// Evaluation-pool sizing.
    pub pool: PoolConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            store_shards: 16,
            cache_shards: 16,
            pool: PoolConfig {
                workers: 4,
                queue_capacity: 256,
            },
        }
    }
}

/// Resilience tuning of one service instance: retry/hedge/deadline
/// policy, circuit-breaker thresholds, and the write-ahead journal with
/// its Daly-informed snapshot cadence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Deadline, hedging, and retry budget per evaluation job.
    pub hedge: HedgePolicy,
    /// Per-tenant circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Whether state deltas are journaled (required for recovery).
    pub journaled: bool,
    /// Service-MTBF estimate fed to Daly's √(2·C·M) − C snapshot
    /// interval; must be positive when `journaled`.
    pub snapshot_mtbf_s: f64,
    /// Snapshot cost fed to the Daly interval; must be positive when
    /// `journaled`.
    pub snapshot_cost_s: f64,
}

impl ResilienceConfig {
    /// The chaos-hardened profile: hedged retries with deadlines, live
    /// breakers, journal + snapshots on a Daly cadence sized for a
    /// 5-minute service MTBF and a 0.5 s snapshot cost.
    pub fn hardened() -> Self {
        ResilienceConfig {
            hedge: HedgePolicy::hardened(),
            breaker: BreakerConfig::hardened(),
            journaled: true,
            snapshot_mtbf_s: 300.0,
            snapshot_cost_s: 0.5,
        }
    }

    /// Everything off: the pre-hardening service, byte for byte.
    pub fn disabled() -> Self {
        ResilienceConfig {
            hedge: HedgePolicy::disabled(),
            breaker: BreakerConfig::disabled(),
            journaled: false,
            snapshot_mtbf_s: 0.0,
            snapshot_cost_s: 0.0,
        }
    }

    /// The Daly snapshot interval this config implies.
    fn snapshot_interval_s(&self) -> f64 {
        if self.journaled && self.snapshot_mtbf_s > 0.0 && self.snapshot_cost_s > 0.0 {
            daly_interval_s(self.snapshot_mtbf_s, self.snapshot_cost_s)
        } else {
            f64::INFINITY
        }
    }
}

/// The SLO-driven front door: admission-control tiers plus the
/// evaluation pool's autoscaler. Optional — a service without one is
/// byte-identical to the pre-front-door serving tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontDoorConfig {
    /// Per-tenant burn-rate admission tiers.
    pub admission: AdmissionConfig,
    /// Virtual-capacity autoscaling of the evaluation pool.
    pub autoscale: AutoscaleConfig,
}

impl FrontDoorConfig {
    /// The hardened profile: both controllers at their hardened tuning.
    pub fn hardened() -> Self {
        FrontDoorConfig {
            admission: AdmissionConfig::hardened(),
            autoscale: AutoscaleConfig::hardened(),
        }
    }
}

/// One tuning request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningRequest {
    /// The tenant asking.
    pub tenant: TenantId,
    /// Virtual arrival time, seconds.
    pub arrival_s: f64,
}

/// One answered request.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningResponse {
    /// The tenant answered.
    pub tenant: TenantId,
    /// Virtual arrival time, seconds.
    pub arrival_s: f64,
    /// The configuration the tenant should deploy.
    pub config: Configuration,
    /// Measured (or cached) metrics of that configuration.
    pub metrics: Metrics,
    /// Virtual service latency: cache lookup, or queue wait plus probe
    /// compute on the evaluation pool.
    pub latency_s: f64,
    /// Whether the design point came from the cache.
    pub cache_hit: bool,
    /// Attributed facility energy of this request, joules: direct
    /// metered probe (or lookup) energy plus a demand-weighted share
    /// of node static and cooling overhead. Zero until the batch's
    /// attribution pass runs; exact in integer nanojoules underneath
    /// (see [`antarex_obs::EnergyLedger`]).
    pub energy_j: f64,
}

/// Outcome of one request batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Per-request outcomes, aligned with the submitted batch.
    pub responses: Vec<Result<TuningResponse, ServeError>>,
    /// Virtual makespan of the probes the pool ran.
    pub makespan_s: f64,
    /// Probes evaluated (batch-deduplicated misses).
    pub evaluated: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests answered in degraded (cache-only) mode by the SLO
    /// front door.
    pub degraded: usize,
    /// Requests hard-shed by the SLO front door (tenant in the shed
    /// tier).
    pub admission_shed: usize,
    /// Virtual worker capacity the batch's probes were scheduled on.
    pub capacity: usize,
    /// Failed probe attempts re-dispatched with backoff (chaos mode).
    pub retries: u64,
    /// Hedge duplicates dispatched against stragglers (chaos mode).
    pub hedges: u64,
    /// Design points quarantined after failed or corrupted evaluation.
    pub quarantined: u64,
}

/// The autotuning service.
#[derive(Debug)]
pub struct TuningService<E> {
    config: ServiceConfig,
    resilience: ResilienceConfig,
    state: ServingState,
    pool: EvalPool,
    evaluator: E,
    chaos: Option<ChaosConfig>,
    obs: ServeObs,
    energy: EnergyModel,
    /// Monotone batch ordinal feeding trace-id derivation. Counts
    /// served batches since process start; recovery restarts it at
    /// zero, which renumbers traces but never changes any served
    /// answer or attributed joule.
    batch_ordinal: AtomicU64,
}

impl<E: Evaluator> TuningService<E> {
    /// Creates a service around an evaluator with resilience disabled —
    /// byte-identical to the pre-hardening serving tier.
    ///
    /// # Panics
    ///
    /// Panics if the config names zero shards, workers, or capacity.
    pub fn new(config: ServiceConfig, evaluator: E) -> Self {
        Self::with_resilience(config, ResilienceConfig::disabled(), evaluator)
    }

    /// Creates a service with an explicit resilience profile.
    ///
    /// # Panics
    ///
    /// Panics if the config names zero shards, workers, or capacity.
    pub fn with_resilience(
        config: ServiceConfig,
        resilience: ResilienceConfig,
        evaluator: E,
    ) -> Self {
        // the cache and breaker bank count onto cells owned by the
        // metrics registry: module accessors and the exposition read
        // the same atomics
        let obs = ServeObs::default();
        let state = ServingState::new(
            SessionStore::new(config.store_shards),
            DesignPointCache::with_counters(
                config.cache_shards,
                obs.cache_hits.clone(),
                obs.cache_misses.clone(),
                obs.cache_quarantined.clone(),
            ),
            BreakerBank::with_trip_counter(resilience.breaker, obs.breaker_trips.clone()),
            resilience
                .journaled
                .then(|| Journal::new(config.store_shards)),
            resilience.snapshot_interval_s(),
        );
        TuningService {
            config,
            resilience,
            state,
            pool: EvalPool::new(config.pool),
            evaluator,
            chaos: None,
            obs,
            energy: EnergyModel::default(),
            batch_ordinal: AtomicU64::new(0),
        }
    }

    /// Overrides the energy model attributing node static and cooling
    /// overhead to requests (default: [`EnergyModel::default`]).
    pub fn with_energy_model(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// Injects a deterministic fault environment: probe scheduling runs
    /// through the fault-aware list scheduler instead of the healthy
    /// one. Retries/hedges/deadlines follow the service's
    /// [`ResilienceConfig`].
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Installs the SLO-driven front door: per-tenant admission tiers
    /// (admit / degrade-to-cache / shed with a `retry_after` hint) fed
    /// by each batch's SLO outcomes, plus an autoscaler that resizes
    /// the pool's *virtual* worker capacity between configured bounds.
    /// Both controllers run on virtual time and work content only, so
    /// the fronted service stays byte-identical at any physical thread
    /// count; their state is journaled and snapshotted for exact crash
    /// recovery.
    ///
    /// # Panics
    ///
    /// Panics when either controller config is inconsistent (inverted
    /// hysteresis thresholds, zero capacity).
    pub fn with_front_door(mut self, front_door: FrontDoorConfig) -> Self {
        let autoscaler = Autoscaler::new(front_door.autoscale);
        self.obs.pool_capacity.set(autoscaler.capacity() as f64);
        self.state.front_door = Some(FrontDoor {
            admission: AdmissionController::new(front_door.admission),
            autoscaler,
        });
        self
    }

    /// Selects the eval pool's virtual scheduler policies (default and
    /// per tenant class). Scheduling only shapes the virtual replay —
    /// never which probes run or what they return — so it composes
    /// freely with resilience, chaos, the front door, and recovery
    /// (apply it after [`recover`](TuningService::recover); the journal
    /// records outcomes, not placement, so replay is policy-agnostic).
    pub fn with_scheduler(mut self, sched: SchedConfig) -> Self {
        self.pool = self.pool.with_sched(sched);
        self
    }

    /// Rebuilds a service after a crash from its persistent state: the
    /// last snapshot (if any) plus the journal suffix in append order,
    /// committed through the live path's own transition function.
    /// `make_manager` must be the deterministic factory original
    /// registrations used. The recovered in-memory state is
    /// bit-identical to the crashed instance's, its journal again holds
    /// the suffix, and its snapshot cadence is the crashed instance's.
    ///
    /// # Panics
    ///
    /// Panics if the config names zero shards, workers, or capacity.
    #[allow(clippy::too_many_arguments)]
    pub fn recover<F>(
        config: ServiceConfig,
        resilience: ResilienceConfig,
        chaos: Option<ChaosConfig>,
        front_door: Option<FrontDoorConfig>,
        evaluator: E,
        snapshot: Option<Snapshot>,
        entries: &[JournalEntry],
        make_manager: &F,
    ) -> Self
    where
        F: Fn(TenantId) -> AppManager,
    {
        let mut service = Self::with_resilience(config, resilience, evaluator);
        if let Some(c) = chaos {
            service = service.with_chaos(c);
        }
        if let Some(fd) = front_door {
            service = service.with_front_door(fd);
        }
        service.state.recover(snapshot, entries, make_manager);
        if let Some(fd) = &service.state.front_door {
            service
                .obs
                .pool_capacity
                .set(fd.autoscaler.capacity() as f64);
        }
        service
    }

    /// Simulates a crash: consumes the in-memory service and returns
    /// only what a real deployment would find on stable storage — the
    /// last snapshot and the journal suffix since it.
    pub fn crash(self) -> (Option<Snapshot>, Vec<JournalEntry>) {
        self.state.crash()
    }

    /// The sizing the service was built with.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// The session store.
    pub fn store(&self) -> &SessionStore {
        &self.state.store
    }

    /// The design-point cache.
    pub fn cache(&self) -> &DesignPointCache {
        &self.state.cache
    }

    /// The per-tenant circuit breakers.
    pub fn breakers(&self) -> &BreakerBank {
        &self.state.breakers
    }

    /// The resilience profile in force.
    pub fn resilience(&self) -> ResilienceConfig {
        self.resilience
    }

    /// The admission controller, when a front door is installed.
    pub fn admission(&self) -> Option<&AdmissionController> {
        self.state.front_door.as_ref().map(|fd| &fd.admission)
    }

    /// The pool autoscaler, when a front door is installed.
    pub fn autoscaler(&self) -> Option<&Autoscaler> {
        self.state.front_door.as_ref().map(|fd| &fd.autoscaler)
    }

    /// The observability plane: metrics registry, span tracer, and
    /// per-tenant SLO burn tracking for this instance.
    pub fn obs(&self) -> &ServeObs {
        &self.obs
    }

    /// Registers a [`TenantClass::Generic`] tenant with its runtime
    /// manager and workload features.
    pub fn register_tenant(
        &self,
        tenant: TenantId,
        manager: AppManager,
        features: Vec<f64>,
    ) -> Result<(), ServeError> {
        self.register_tenant_classed(tenant, TenantClass::Generic, manager, features)
    }

    /// Registers a tenant under an explicit workload class. The class
    /// selects the scheduler policy its probes are replayed with (per
    /// the pool's [`crate::pool::SchedConfig`]) and the
    /// metric bucket its makespans land in; it is journaled so crash
    /// recovery restores it exactly.
    pub fn register_tenant_classed(
        &self,
        tenant: TenantId,
        class: TenantClass,
        manager: AppManager,
        features: Vec<f64>,
    ) -> Result<(), ServeError> {
        self.state
            .register(tenant, Session::classed(manager, features, class))
    }

    /// Renders the full serving state — sessions, managers, cache
    /// entries, breakers — as one deterministic string. Two services
    /// with bit-identical state produce identical reports; the crash-
    /// recovery experiment compares exactly this.
    pub fn state_report(&self) -> String {
        let mut out = String::new();
        self.state.store.fold((), |(), tenant, session| {
            let _ = writeln!(
                out,
                "tenant {tenant}: class={} requests={} rejected={} power={:.6} last={:?} manager={:?}",
                session.class.label(),
                session.requests,
                session.rejected,
                session.power_demand_w,
                session.last_config,
                session.manager,
            );
        });
        for (key, metrics) in self.state.cache.entries() {
            let _ = writeln!(out, "cache {key:?} => {metrics:?}");
        }
        for (tenant, breaker) in self.state.breakers.snapshot() {
            let _ = writeln!(
                out,
                "breaker {tenant}: {} trips={}",
                breaker.state_label(),
                breaker.trips()
            );
        }
        if let Some(fd) = &self.state.front_door {
            for (tenant, state) in fd.admission.snapshot() {
                let _ = writeln!(
                    out,
                    "admission {tenant}: {} burn={:.9} since={:.3}",
                    state.tier.label(),
                    state.burn,
                    state.since_s,
                );
            }
            let scaler = fd.autoscaler.snapshot();
            let _ = writeln!(
                out,
                "autoscaler: capacity={} last_change={:.3} ups={} downs={}",
                scaler.capacity, scaler.last_change_s, scaler.scale_ups, scaler.scale_downs,
            );
        }
        out
    }

    /// Serves one batch of requests, in arrival order, through six
    /// stages: **admit** (SLO front door, open circuits fail fast),
    /// **select** (cache hits answer, misses dedupe into probes),
    /// **probe** (autoscaled virtual pool, bounded queue sheds overflow;
    /// under an injected [`ChaosConfig`] crashes are retried, stragglers
    /// hedged, results integrity-checked, deadlines enforced),
    /// **commit** (results memoized or quarantined, answers learned,
    /// breakers fed), **adapt** (adaptation rounds, admission feedback,
    /// Daly-cadenced snapshot) and **attribute** (the energy window).
    /// Every state change is a journal entry committed through the same
    /// transition function crash recovery replays.
    pub fn serve_batch(&self, requests: &[TuningRequest]) -> BatchReport {
        let mut batch = self.admit(requests);
        self.select(&mut batch);
        self.probe(&mut batch);
        self.commit(&mut batch);
        self.adapt(&mut batch);
        self.attribute(&mut batch);
        batch.report
    }

    /// The front door's rejection of `tenant`, carrying its
    /// backpressure hint.
    fn admission_rejected(&self, tenant: TenantId) -> ServeError {
        let fd = self.state.front_door.as_ref();
        let retry_after_ms = fd.map_or(0, |fd| fd.admission.retry_after_ms(tenant));
        ServeError::AdmissionRejected {
            tenant,
            retry_after_ms,
        }
    }

    /// Nominal metered energy of one cache lookup, nanojoules.
    fn lookup_nj(&self) -> u64 {
        to_nj(self.energy.cache_lookup_w * CACHE_LOOKUP_S)
    }

    /// Stage 1: the SLO front door runs first, so a shed-tier tenant is
    /// rejected before it costs a breaker check, a select, or pool
    /// capacity; then a tenant whose circuit is open fails fast at the
    /// cost of a breaker check. Every request gets a trace context
    /// derived from (tenant, seed 0, batch ordinal, position) — no wall
    /// clock — so trace ids are byte-identical at any worker count.
    fn admit<'r>(&self, requests: &'r [TuningRequest]) -> Batch<'r> {
        self.obs.requests.add(requests.len() as u64);
        let start_s = requests
            .iter()
            .map(|r| r.arrival_s)
            .fold(f64::INFINITY, f64::min);
        let mut batch = Batch {
            requests,
            ordinal: self.batch_ordinal.fetch_add(1, Ordering::Relaxed),
            rows: Vec::with_capacity(requests.len()),
            pending: Vec::with_capacity(requests.len()),
            jobs: Vec::new(),
            start_s: if start_s.is_finite() { start_s } else { 0.0 },
            end_s: requests
                .iter()
                .map(|r| r.arrival_s)
                .fold(f64::NEG_INFINITY, f64::max),
            probes: Vec::new(),
            span: SpanId::NONE,
            served: Vec::new(),
            cache_lookups: 0,
            touched: Vec::new(),
            slo_tally: BTreeMap::new(),
            report: BatchReport {
                responses: Vec::with_capacity(requests.len()),
                makespan_s: 0.0,
                evaluated: 0,
                shed: 0,
                degraded: 0,
                admission_shed: 0,
                capacity: 0,
                retries: 0,
                hedges: 0,
                quarantined: 0,
            },
        };
        let breaker_on = self.resilience.breaker.failure_threshold > 0;
        let trace = &self.obs.plane.trace;
        for (seq, request) in requests.iter().enumerate() {
            let tenant = request.tenant;
            let tier = self
                .state
                .front_door
                .as_ref()
                .map_or(AdmissionTier::Admit, |fd| fd.admission.tier(tenant));
            let (gate, pending) = if tier == AdmissionTier::Shed {
                batch.report.admission_shed += 1;
                self.obs.admission_shed.inc();
                ("shed", Pending::Err(self.admission_rejected(tenant)))
            } else if breaker_on
                && matches!(
                    self.state.commit(JournalEntry::BreakerAllow {
                        tenant,
                        time_s: request.arrival_s,
                    }),
                    Applied::Unchanged
                )
            {
                (
                    "circuit_open",
                    Pending::Err(ServeError::CircuitOpen { tenant }),
                )
            } else {
                (tier.label(), Pending::Admitted)
            };
            batch.rows.push(Row {
                tier,
                gate,
                ctx: trace.derive(tenant, 0, batch.ordinal, seq as u32),
                class: TenantClass::Generic,
            });
            batch.pending.push(pending);
        }
        batch
    }

    /// Stage 2: each admitted request's tenant selects its operating
    /// point. A memoized design point answers from the cache; a miss
    /// queues one probe per distinct design point, and later requests
    /// for the same point coalesce onto it. Selected requests re-derive
    /// their trace context from the probe seed, and every request's
    /// admission event is recorded here, in arrival order.
    fn select(&self, batch: &mut Batch) {
        let mut job_of_key: BTreeMap<DesignKey, usize> = BTreeMap::new();
        let requests = batch.requests.iter().zip(&mut batch.rows);
        for (seq, ((request, row), pending)) in requests.zip(&mut batch.pending).enumerate() {
            if matches!(pending, Pending::Admitted) {
                let tenant = request.tenant;
                let applied = self.state.commit(JournalEntry::Select { tenant });
                if applied.changed() {
                    self.obs.selects.inc();
                }
                let Applied::Selected(selected) = applied else {
                    unreachable!("a select entry reports its selection");
                };
                *pending = match selected {
                    Err(e) => Pending::Err(e),
                    Ok((config, features, class)) => {
                        row.ctx = self.obs.plane.trace.derive(
                            tenant,
                            probe_seed(&config, &features),
                            batch.ordinal,
                            seq as u32,
                        );
                        row.class = class;
                        let key = DesignKey::new(&config, &features);
                        if row.tier == AdmissionTier::Degrade {
                            // degraded tier: cache-only service. A
                            // memoized design point still answers (cheap,
                            // no pool), but the tenant gets no fresh probe
                            // — cache-miss demand is rejected and fed back
                            // as violation pressure so a probe-hungry
                            // tenant escalates to shed while a coasting
                            // one recovers
                            batch.report.degraded += 1;
                            self.obs.admission_degraded.inc();
                            match self.state.cache.get(&key) {
                                Some(metrics) => Pending::Hit(config, metrics),
                                None => Pending::Err(self.admission_rejected(tenant)),
                            }
                        } else if let Some(&job_id) = job_of_key.get(&key) {
                            Pending::Job {
                                config,
                                job_id,
                                coalesced: true,
                            }
                        } else if let Some(metrics) = self.state.cache.get(&key) {
                            Pending::Hit(config, metrics)
                        } else {
                            let job_id = batch.jobs.len();
                            // the job carries the first owner's trace:
                            // sched/VM events link to it
                            batch.jobs.push(EvalJob {
                                id: job_id,
                                tenant,
                                class,
                                config: config.clone(),
                                features,
                                trace: row.ctx,
                            });
                            job_of_key.insert(key, job_id);
                            Pending::Job {
                                config,
                                job_id,
                                coalesced: false,
                            }
                        }
                    }
                };
            }
            let at_s = (request.arrival_s, request.arrival_s);
            self.obs
                .trace(row.ctx, Layer::Admission, row.gate, at_s, 0.0, SpanId::NONE);
        }
    }

    /// Stage 3: the autoscaler sizes the virtual pool for this window's
    /// probe demand, then the deduplicated misses are evaluated in
    /// parallel. Probes are pure and computed exactly once; under chaos
    /// only the virtual scheduling of those evaluations changes.
    fn probe(&self, batch: &mut Batch) {
        // autoscaling decision at the batch start: queue depth is this
        // window's deduplicated probe demand, burn is the worst EWMA
        // among still-admitted tenants. The decision resizes *virtual*
        // capacity only — physical parallelism stays at the pool's
        // config — so outputs stay byte-identical at any thread count.
        let mut capacity = self.pool.config().workers;
        if let Some(fd) = &self.state.front_door {
            capacity = fd.autoscaler.capacity();
            if !batch.requests.is_empty() {
                if let Some(resized) = fd.autoscaler.decide(
                    batch.start_s,
                    batch.jobs.len(),
                    fd.admission.max_admitted_burn(),
                ) {
                    self.state.commit(JournalEntry::Scale {
                        time_s: batch.start_s,
                        workers: resized,
                    });
                    capacity = resized;
                    self.obs.scale_events.inc();
                    self.obs.pool_capacity.set(resized as f64);
                }
            }
        }
        batch.report.capacity = capacity;

        let evaluator = &self.evaluator;
        // sampled jobs additionally report VM sub-segments for the
        // trace; the map is keyed by job id so insertion order under
        // physical parallelism cannot influence anything downstream
        let segment_stash: Mutex<BTreeMap<usize, Vec<ProbeSegment>>> = Mutex::new(BTreeMap::new());
        let outcome = self.pool.evaluate_batch_on(
            std::mem::take(&mut batch.jobs),
            capacity,
            &|job: &EvalJob| {
                if job.trace.sampled {
                    let (evaluation, segments) =
                        evaluator.evaluate_segmented(&job.config, &job.features);
                    if !segments.is_empty() {
                        lock_or_recover(&segment_stash).insert(job.id, segments);
                    }
                    evaluation
                } else {
                    evaluator.evaluate(&job.config, &job.features)
                }
            },
        );
        let segment_stash = lock_or_recover(&segment_stash);
        let start_s = batch.start_s;
        // per admitted job: virtual completion relative to batch start,
        // or the typed error that ended it
        let (job_outcomes, makespan_s) = match &self.chaos {
            Some(chaos) => {
                let evaluations: Vec<Evaluation> = outcome
                    .results
                    .iter()
                    .map(|r| r.evaluation.clone())
                    .collect();
                let poisoned: Vec<bool> = outcome
                    .results
                    .iter()
                    .map(|r| chaos.poisoned_tenants.contains(&r.job.tenant))
                    .collect();
                let (outcomes, stats, makespan) = chaos_schedule(
                    &evaluations,
                    &poisoned,
                    capacity,
                    start_s,
                    chaos,
                    &self.resilience.hedge,
                );
                for s in &stats {
                    batch.report.retries += u64::from(s.retries);
                    batch.report.hedges += u64::from(s.hedges);
                }
                let relative: Vec<Result<f64, ServeError>> = outcomes
                    .into_iter()
                    .map(|o| o.map(|t| t - start_s))
                    .collect();
                (relative, makespan)
            }
            None => (
                outcome.results.iter().map(|r| Ok(r.completion_s)).collect(),
                outcome.makespan_s,
            ),
        };
        batch.report.makespan_s = makespan_s;
        batch.report.evaluated = outcome.results.len();
        self.obs.evaluated.add(outcome.results.len() as u64);
        self.obs.retries.add(batch.report.retries);
        self.obs.hedges.add(batch.report.hedges);
        self.obs.makespan.record(makespan_s);
        // scheduler accounting: batch-level, so the 25 ns hot-path
        // budget is untouched. Stolen jobs attribute to their tenant
        // class; per-class makespan is the latest completion among that
        // class's jobs in the pool's (chaos-free) schedule.
        if !outcome.results.is_empty() {
            self.obs.sched_steals.add(outcome.stats.steals);
            self.obs.sched_steal_fails.add(outcome.stats.steal_fails);
            self.obs
                .sched_queue_depth
                .record(outcome.stats.max_queue_depth as f64);
            for &job_id in &outcome.stats.stolen_jobs {
                let class = outcome.results[job_id].job.class;
                self.obs.class_steals[class.index()].inc();
            }
            let mut class_makespan = [f64::NEG_INFINITY; TenantClass::COUNT];
            for result in &outcome.results {
                let slot = &mut class_makespan[result.job.class.index()];
                *slot = slot.max(result.completion_s);
            }
            for (index, &span) in class_makespan.iter().enumerate() {
                if span.is_finite() {
                    self.obs.class_makespan[index].record(span);
                }
            }
        }

        // trace spans record *work content* on virtual time — a probe's
        // compute cost, a lookup's nominal cost — never queue placement,
        // so the retained trace is byte-identical at any worker count
        if !batch.requests.is_empty() {
            let total_cost_s: f64 = outcome.results.iter().map(|r| r.evaluation.cost_s).sum();
            batch.span = self.obs.plane.tracer.record(
                "batch",
                None,
                SpanId::NONE,
                start_s,
                batch.end_s + total_cost_s,
            );
        }
        for result in &outcome.results {
            let cost_s = result.evaluation.cost_s;
            let eval_span = self.obs.plane.tracer.record(
                "eval",
                Some(result.job.tenant),
                batch.span,
                start_s,
                start_s + cost_s,
            );
            // sched layer: where the pool's virtual schedule placed the
            // probe (completion relative to batch start, chaos-free
            // view); value carries the probe's compute cost
            let ctx = result.job.trace;
            let placed_s = (start_s, start_s + result.completion_s);
            self.obs
                .trace(ctx, Layer::Sched, "place", placed_s, cost_s, eval_span);
            // VM layer: the probe's metered sub-segments laid out
            // sequentially on virtual time; value carries each
            // segment's metered joules
            let mut seg_start_s = start_s;
            for segment in segment_stash.get(&result.job.id).into_iter().flatten() {
                let seg_s = (seg_start_s, seg_start_s + segment.cost_s);
                self.obs.trace(
                    ctx,
                    Layer::Vm,
                    segment.name,
                    seg_s,
                    segment.energy_j,
                    eval_span,
                );
                seg_start_s += segment.cost_s;
            }
        }
        batch.probes = outcome.results.into_iter().zip(job_outcomes).collect();
    }

    /// Stage 4: verified probe results are memoized and failed design
    /// points quarantined, so coalesced waiters re-probe next time
    /// instead of being served a poisoned entry. Then every request is
    /// answered in arrival order and its outcome committed — learning
    /// and breaker success for an answer, rejection and (for worker
    /// faults) breaker failure for an error — while its SLO outcome is
    /// tallied for the front door.
    fn commit(&self, batch: &mut Batch) {
        for (result, outcome) in &batch.probes {
            let key = DesignKey::new(&result.job.config, &result.job.features);
            self.state.commit(match outcome {
                Ok(_) => JournalEntry::CacheInsert {
                    key,
                    metrics: result.evaluation.metrics.clone(),
                },
                Err(_) => {
                    batch.report.quarantined += 1;
                    JournalEntry::Quarantine { key }
                }
            });
        }

        let breaker_on = self.resilience.breaker.failure_threshold > 0;
        // every request's tenant gets a tally entry, so a quiet (fully
        // shed) tenant still decays toward readmission
        let front_door_on = self.state.front_door.is_some();
        let lookup_nj = self.lookup_nj();
        let pending = std::mem::take(&mut batch.pending);
        let requests = batch.requests.iter().zip(&batch.rows);
        for (index, ((request, row), pending)) in requests.zip(pending).enumerate() {
            let tenant = request.tenant;
            if front_door_on {
                batch.slo_tally.entry(tenant).or_default();
            }
            // `work_s` is the request's worker-invariant span width: the
            // probe's compute cost for a fresh evaluation, the nominal
            // lookup cost for cache answers, zero for errors. Direct
            // energy is the metered probe (or nominal lookup) energy.
            let answer = |config, metrics, latency_s, cache_hit| TuningResponse {
                tenant,
                arrival_s: request.arrival_s,
                config,
                metrics,
                latency_s,
                cache_hit,
                energy_j: 0.0,
            };
            let (response, work_s, direct_nj) = match pending {
                Pending::Admitted => unreachable!("select resolves every admitted request"),
                Pending::Err(e) => (Err(e), 0.0, 0),
                Pending::Hit(config, metrics) => (
                    Ok(answer(config, metrics, CACHE_LOOKUP_S, true)),
                    CACHE_LOOKUP_S,
                    lookup_nj,
                ),
                Pending::Job {
                    config,
                    job_id,
                    coalesced,
                } => match batch.probes.get(job_id) {
                    // the job never made it into the bounded queue
                    None => (
                        Err(ServeError::Shed {
                            capacity: self.pool.config().queue_capacity,
                        }),
                        0.0,
                        0,
                    ),
                    // coalesced waiters share their job's fate
                    Some((_, Err(e))) => (Err(e.clone()), 0.0, 0),
                    Some((result, Ok(completion_s))) => {
                        let evaluation = &result.evaluation;
                        let metrics = evaluation.metrics.clone();
                        let answered = Ok(answer(config, metrics, *completion_s, coalesced));
                        if coalesced {
                            self.state.cache.note_coalesced_hit();
                            (answered, CACHE_LOOKUP_S, lookup_nj)
                        } else {
                            (answered, evaluation.cost_s, to_nj(evaluation.energy_j))
                        }
                    }
                },
            };
            let request_span = self.obs.plane.tracer.record(
                "request",
                Some(tenant),
                batch.span,
                request.arrival_s,
                request.arrival_s + work_s,
            );
            match &response {
                Ok(answer) => {
                    let arrival = answer.arrival_s;
                    self.obs.served.inc();
                    if answer.cache_hit {
                        self.obs.cache_hit_responses.inc();
                        batch.cache_lookups += 1;
                    }
                    batch.served.push((index, direct_nj));
                    self.obs.learns.add(answer.metrics.len() as u64);
                    self.obs.latency.record(answer.latency_s);
                    let slo_met = self
                        .obs
                        .check_latency_slo(tenant, arrival, answer.latency_s);
                    if front_door_on {
                        let tally = batch.slo_tally.entry(tenant).or_default();
                        tally.0 += 1;
                        tally.1 += u64::from(!slo_met);
                    }
                    let select_end_s = arrival + SELECT_SPAN_S;
                    let tracer = &self.obs.plane.tracer;
                    tracer.record("select", Some(tenant), request_span, arrival, select_end_s);
                    tracer.record(
                        "cache_probe",
                        Some(tenant),
                        request_span,
                        select_end_s,
                        select_end_s + CACHE_PROBE_SPAN_S,
                    );
                    tracer.record(
                        "learn",
                        Some(tenant),
                        request_span,
                        arrival + work_s,
                        arrival + work_s + LEARN_SPAN_S,
                    );
                    self.state.commit(JournalEntry::Learn {
                        tenant,
                        time_s: arrival,
                        config: answer.config.clone(),
                        metrics: answer.metrics.clone(),
                    });
                    if !batch.touched.contains(&tenant) {
                        batch.touched.push(tenant);
                    }
                }
                Err(e) => {
                    if matches!(e, ServeError::Shed { .. }) {
                        batch.report.shed += 1;
                    }
                    match e.failure_class() {
                        FailureClass::Shed => self.obs.shed.inc(),
                        FailureClass::Failed => self.obs.failed.inc(),
                        FailureClass::Rejected => self.obs.rejected.inc(),
                    }
                    if front_door_on && e.burns_budget(row.tier == AdmissionTier::Degrade) {
                        let tally = batch.slo_tally.entry(tenant).or_default();
                        tally.0 += 1;
                        tally.1 += 1;
                    }
                    self.state.commit(JournalEntry::Reject {
                        tenant,
                        time_s: request.arrival_s,
                        breaker_feedback: breaker_on && e.is_breaker_failure(),
                    });
                }
            }
            batch.report.responses.push(response);
        }
    }

    /// Stage 5: one adaptation round per touched tenant, in sorted
    /// order, at the batch end; then the batch's SLO outcomes feed the
    /// admission controller (one EWMA window per tenant); then a
    /// snapshot when the Daly cadence says one is due.
    fn adapt(&self, batch: &mut Batch) {
        let end_s = batch.end_s;
        batch.touched.sort_unstable();
        for &tenant in &batch.touched {
            self.state.commit(JournalEntry::Adapt {
                tenant,
                now_s: end_s,
            });
            self.obs.adapts.inc();
            self.obs.plane.tracer.record(
                "adapt",
                Some(tenant),
                batch.span,
                end_s,
                end_s + ADAPT_SPAN_S,
            );
        }
        if !end_s.is_finite() {
            return;
        }
        for (&tenant, &(checked, violations)) in &batch.slo_tally {
            let update = JournalEntry::AdmissionUpdate {
                tenant,
                time_s: end_s,
                checked,
                violations,
            };
            if matches!(self.state.commit(update), Applied::Transition(Some(_))) {
                self.obs.admission_transitions.inc();
            }
        }
        self.state.checkpoint(end_s);
    }

    /// Stage 6: closes the batch's energy window. All bookkeeping is in
    /// integer nanojoules with exactly one rounding per meter reading,
    /// so Σ attributed + idle ≡ the facility meter to the last bit (the
    /// ledger re-checks the invariant per window).
    fn attribute(&self, batch: &mut Batch) {
        if batch.requests.is_empty() {
            return;
        }
        // direct metered energy: every probe the pool ran (served or
        // not) plus one nominal lookup per cache-hit answer
        let spent_eval_nj: u64 = batch
            .probes
            .iter()
            .map(|(r, _)| to_nj(r.evaluation.energy_j))
            .sum();
        let direct_nj = spent_eval_nj + self.lookup_nj() * batch.cache_lookups;
        // node static power burns over busy *work content* — never the
        // worker-dependent makespan — keeping the window byte-identical
        // at any physical or virtual worker count
        let busy_s: f64 = batch
            .probes
            .iter()
            .map(|(r, _)| r.evaluation.cost_s)
            .sum::<f64>()
            + batch.cache_lookups as f64 * CACHE_LOOKUP_S;
        let static_nj = to_nj(self.energy.node_static_w * busy_s);
        let it_nj = direct_nj + static_nj;
        let cooling_nj = to_nj(self.energy.cooling_overhead * nj_to_j(it_nj as u128));
        let facility_nj = it_nj + cooling_nj;
        let overhead_nj = static_nj + cooling_nj;
        // overhead splits across served requests proportionally to
        // their direct demand (largest remainder, so shares sum
        // exactly); failed probes' direct energy stays unattributed
        let weights: Vec<u64> = batch.served.iter().map(|s| s.1).collect();
        let shares = largest_remainder_split(overhead_nj, &weights);
        let mut attributed_nj = 0u64;
        let mut per_tenant: BTreeMap<TenantId, u64> = BTreeMap::new();
        for (&(index, direct_nj), &share) in batch.served.iter().zip(&shares) {
            let (request, row) = (batch.requests[index], batch.rows[index]);
            let request_nj = direct_nj + share;
            attributed_nj += request_nj;
            *per_tenant.entry(request.tenant).or_default() += request_nj;
            let energy_j = nj_to_j(request_nj as u128);
            if let Ok(answer) = &mut batch.report.responses[index] {
                answer.energy_j = energy_j;
            }
            self.obs.class_energy[row.class.index()].record(energy_j);
            // observed-only SLO: burn accrues under the `energy`
            // objective but no admission tier acts on it yet
            let _ = self
                .obs
                .check_energy_slo(request.tenant, request.arrival_s, energy_j);
            let at_s = (request.arrival_s, request.arrival_s);
            self.obs.trace(
                row.ctx,
                Layer::Serve,
                "energy",
                at_s,
                energy_j,
                SpanId::NONE,
            );
        }
        let idle_nj = facility_nj - attributed_nj;
        self.obs.energy_facility_nj.add(facility_nj);
        self.obs.energy_attributed_nj.add(attributed_nj);
        self.obs.energy_idle_nj.add(idle_nj);
        self.obs.energy_windows.inc();
        let per_tenant_rows: Vec<(TenantId, u64)> = per_tenant.into_iter().collect();
        self.obs.plane.energy.record_window(
            WindowSummary {
                index: batch.ordinal,
                requests: batch.served.len() as u64,
                direct_nj,
                overhead_nj,
                facility_nj,
                attributed_nj,
                idle_nj,
            },
            &per_tenant_rows,
        );
    }

    /// Total power demand across every tenant's current operating
    /// point, watts — the figure the RTRM's facility capper consumes.
    pub fn aggregate_power_demand_w(&self) -> f64 {
        self.state
            .store
            .fold(0.0, |acc, _, s| acc + s.power_demand_w)
    }

    /// Splits a facility power budget across tenants proportionally to
    /// their demand, via the RTRM's weighted split (idle floor
    /// included). Returns `None` when no tenant is registered.
    pub fn power_split(&self, budget_w: f64) -> Option<Vec<(TenantId, f64)>> {
        let (tenants, demands) = self.state.store.fold(
            (Vec::new(), Vec::new()),
            |(mut tenants, mut demands), tenant, session| {
                tenants.push(tenant);
                demands.push(session.power_demand_w);
                (tenants, demands)
            },
        );
        let shares = try_weighted_split_observed(budget_w, &demands, &self.obs.powercap)?;
        // RTRM layer of the causal trace: a cap decision is not tied
        // to one request, so its trace id is the split's own digest —
        // stable across runs, linked to requests by the shared store
        let ctx = TraceCtx {
            id: TraceId(u128::from(split_digest(budget_w, &shares).max(1))),
            tenant: 0,
            sampled: true,
        };
        let at_s = (0.0, 0.0);
        self.obs.trace(
            ctx,
            Layer::Rtrm,
            "power_split",
            at_s,
            budget_w,
            SpanId::NONE,
        );
        Some(tenants.into_iter().zip(shares).collect())
    }
}

/// One batch on its way through the stages of
/// [`TuningService::serve_batch`].
struct Batch<'r> {
    requests: &'r [TuningRequest],
    /// Monotone batch ordinal: trace-id input and energy-window index.
    ordinal: u64,
    /// Per request: admission and trace identity.
    rows: Vec<Row>,
    /// Per request: where it stands; consumed by the commit stage.
    pending: Vec<Pending>,
    /// Deduplicated probes, handed to the pool by the probe stage.
    jobs: Vec<EvalJob>,
    /// Earliest arrival (zero for an empty batch), seconds.
    start_s: f64,
    /// Latest arrival (−∞ for an empty batch), seconds.
    end_s: f64,
    /// Per admitted job: the pool's result, and its virtual completion
    /// relative to `start_s` or the typed error that ended it.
    probes: Vec<(EvalResult, Result<f64, ServeError>)>,
    /// The batch's root span.
    span: SpanId,
    /// Served requests awaiting energy attribution: request index and
    /// direct metered (probe or nominal lookup) nanojoules.
    served: Vec<(usize, u64)>,
    /// Responses answered by a cache lookup.
    cache_lookups: u64,
    /// Tenants with a served request, adapted at the batch end.
    touched: Vec<TenantId>,
    /// Per-tenant `(checked, violations)` for the front door.
    slo_tally: BTreeMap<TenantId, (u64, u64)>,
    /// What the caller gets back, filled in stage by stage.
    report: BatchReport,
}

/// One request's admission and trace identity.
#[derive(Clone, Copy)]
struct Row {
    /// The tenant's admission tier at the batch start.
    tier: AdmissionTier,
    /// Admission trace event: `shed`, `circuit_open` or the tier label.
    gate: &'static str,
    /// Causal trace context: seed 0 until select, then the probe seed.
    ctx: TraceCtx,
    /// The tenant's class once selected.
    class: TenantClass,
}

/// Where a request stands between stages.
enum Pending {
    /// Through the front door and breaker, not yet selected.
    Admitted,
    /// Failed with a typed error.
    Err(ServeError),
    /// Answered from the design-point cache.
    Hit(Configuration, Metrics),
    /// Waits on probe `job_id`, queued by this request or (when
    /// `coalesced`) by an earlier one for the same design point.
    Job {
        config: Configuration,
        job_id: usize,
        coalesced: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use antarex_tuner::goal::{Constraint, Objective};
    use antarex_tuner::{KnobValue, KnowledgeBase, OperatingPoint};

    fn config(level: i64) -> Configuration {
        let mut c = Configuration::new();
        c.set("level", KnobValue::Int(level));
        c
    }

    fn kb() -> KnowledgeBase {
        (1..=4)
            .map(|l| {
                OperatingPoint::new(
                    config(l),
                    [
                        ("latency".to_string(), 0.1 * l as f64),
                        ("quality".to_string(), l as f64),
                        ("power".to_string(), 10.0 * l as f64),
                    ],
                )
            })
            .collect()
    }

    fn manager() -> AppManager {
        let mut m = AppManager::new(kb(), Objective::maximize("quality"));
        m.add_constraint(Constraint::at_most("latency", 0.45));
        m
    }

    /// Probe: latency proportional to level, quality to sqrt(level),
    /// power to level; cost = latency.
    struct Probe;

    impl Evaluator for Probe {
        fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation {
            let level = config.get_int("level").unwrap_or(1) as f64;
            let scale = features.first().copied().unwrap_or(1.0);
            let latency = 0.1 * level * scale;
            Evaluation {
                metrics: [
                    ("latency".to_string(), latency),
                    ("quality".to_string(), level.sqrt()),
                    ("power".to_string(), 10.0 * level),
                ]
                .into_iter()
                .collect(),
                cost_s: latency,
                energy_j: 10.0 * level * latency,
            }
        }
    }

    fn service() -> TuningService<Probe> {
        TuningService::new(ServiceConfig::default(), Probe)
    }

    fn requests(tenants: &[TenantId]) -> Vec<TuningRequest> {
        tenants
            .iter()
            .enumerate()
            .map(|(i, &tenant)| TuningRequest {
                tenant,
                arrival_s: i as f64,
            })
            .collect()
    }

    #[test]
    fn cache_reuses_design_points_across_tenants() {
        let service = service();
        for tenant in 0..4 {
            service
                .register_tenant(tenant, manager(), vec![1.0])
                .unwrap();
        }
        // all four tenants select the same point on identical features:
        // one probe, three cache hits
        let report = service.serve_batch(&requests(&[0, 1, 2, 3]));
        assert_eq!(report.evaluated, 1);
        let hits = report
            .responses
            .iter()
            .filter(|r| r.as_ref().is_ok_and(|a| a.cache_hit))
            .count();
        assert_eq!(hits, 3);
        assert!(service.cache().hit_rate() > 0.0);
    }

    #[test]
    fn unknown_tenant_is_an_error_not_a_panic() {
        let service = service();
        let report = service.serve_batch(&requests(&[99]));
        assert_eq!(report.responses[0], Err(ServeError::UnknownTenant(99)));
    }

    #[test]
    fn infeasible_sla_reports_typed_error() {
        let service = service();
        let mut m = AppManager::new(kb(), Objective::maximize("quality"));
        m.add_constraint(Constraint::at_most("latency", 0.001));
        service.register_tenant(7, m, vec![1.0]).unwrap();
        let report = service.serve_batch(&requests(&[7]));
        assert_eq!(report.responses[0], Err(ServeError::Infeasible(7)));
        assert_eq!(service.store().with(7, |s| s.rejected).unwrap(), 1);
    }

    #[test]
    fn empty_knowledge_reports_typed_error() {
        let service = service();
        let m = AppManager::new(KnowledgeBase::new(), Objective::maximize("quality"));
        service.register_tenant(5, m, vec![1.0]).unwrap();
        let report = service.serve_batch(&requests(&[5]));
        assert_eq!(report.responses[0], Err(ServeError::EmptyKnowledge(5)));
    }

    #[test]
    fn overflow_is_shed_not_stalled() {
        let config = ServiceConfig {
            pool: PoolConfig {
                workers: 2,
                queue_capacity: 2,
            },
            ..ServiceConfig::default()
        };
        let service = TuningService::new(config, Probe);
        // distinct features per tenant → no cache sharing, one job each
        for tenant in 0..5u64 {
            service
                .register_tenant(tenant, manager(), vec![1.0 + tenant as f64])
                .unwrap();
        }
        let report = service.serve_batch(&requests(&[0, 1, 2, 3, 4]));
        assert_eq!(report.evaluated, 2);
        assert_eq!(report.shed, 3);
        let shed_errors = report
            .responses
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Shed { .. })))
            .count();
        assert_eq!(shed_errors, 3);
    }

    #[test]
    fn online_learning_downgrades_an_optimistic_tenant() {
        let service = service();
        // the design-time KB promised level 4 at 0.4 s, but this
        // tenant's workload (features scale 2.0) measures 0.8 s — over
        // the 0.45 s SLA; after learning, the manager must walk down
        service.register_tenant(1, manager(), vec![2.0]).unwrap();
        let mut level = 4;
        for round in 0..6 {
            let report = service.serve_batch(&[TuningRequest {
                tenant: 1,
                arrival_s: round as f64,
            }]);
            if let Ok(answer) = &report.responses[0] {
                level = answer.config.get_int("level").unwrap();
            }
        }
        assert!(level < 4, "learned latency must force a downgrade: {level}");
    }

    #[test]
    fn power_demand_aggregates_and_splits() {
        let service = service();
        for tenant in 0..3 {
            service
                .register_tenant(tenant, manager(), vec![1.0])
                .unwrap();
        }
        assert_eq!(service.power_split(300.0).unwrap().len(), 3);
        assert_eq!(service.aggregate_power_demand_w(), 0.0);
        service.serve_batch(&requests(&[0, 1, 2]));
        let demand = service.aggregate_power_demand_w();
        assert!(demand > 0.0, "served tenants must report demand");
        let split = service.power_split(300.0).unwrap();
        let total: f64 = split.iter().map(|(_, w)| w).sum();
        assert!((total - 300.0).abs() < 1e-9, "budget conserved: {total}");
    }

    #[test]
    fn empty_service_has_no_power_split() {
        let service = service();
        assert!(service.power_split(100.0).is_none());
    }

    #[test]
    fn batches_are_deterministic_across_runs() {
        let build = || {
            let service = service();
            for tenant in 0..8 {
                service
                    .register_tenant(tenant, manager(), vec![1.0 + (tenant % 3) as f64])
                    .unwrap();
            }
            service
        };
        let batch = requests(&[0, 1, 2, 3, 4, 5, 6, 7, 0, 3, 6]);
        let a = build().serve_batch(&batch);
        let b = build().serve_batch(&batch);
        assert_eq!(a, b, "parallel evaluation must not leak into outputs");
    }

    use antarex_sim::faults::{FaultConfig, FaultSchedule};

    fn quiet_schedule(nodes: usize) -> FaultSchedule {
        FaultSchedule::generate(&FaultConfig::none(1), nodes, 10_000.0)
    }

    #[test]
    fn quiet_chaos_with_hardened_resilience_matches_plain_service() {
        let register = |service: &TuningService<Probe>| {
            for tenant in 0..4u64 {
                service
                    .register_tenant(tenant, manager(), vec![1.0 + (tenant % 2) as f64])
                    .unwrap();
            }
        };
        let plain = service();
        register(&plain);
        let hardened = TuningService::with_resilience(
            ServiceConfig::default(),
            ResilienceConfig::hardened(),
            Probe,
        )
        .with_chaos(ChaosConfig::new(quiet_schedule(4)));
        register(&hardened);

        for round in 0..3 {
            let batch: Vec<TuningRequest> = (0..4u64)
                .map(|t| TuningRequest {
                    tenant: t,
                    arrival_s: 10.0 * round as f64 + t as f64,
                })
                .collect();
            let a = plain.serve_batch(&batch);
            let b = hardened.serve_batch(&batch);
            // identical up to float round-off: the chaos path measures
            // completions in absolute virtual time and re-bases them,
            // which can move the last ulp of a latency
            assert_eq!(a.responses.len(), b.responses.len());
            for (ra, rb) in a.responses.iter().zip(&b.responses) {
                let (ra, rb) = (ra.as_ref().unwrap(), rb.as_ref().unwrap());
                assert_eq!(ra.config, rb.config);
                assert_eq!(ra.metrics, rb.metrics);
                assert_eq!(ra.cache_hit, rb.cache_hit);
                assert!((ra.latency_s - rb.latency_s).abs() < 1e-9);
            }
            assert!((a.makespan_s - b.makespan_s).abs() < 1e-9);
            assert_eq!(b.retries, 0);
            assert_eq!(b.hedges, 0);
            assert_eq!(b.quarantined, 0);
        }
    }

    #[test]
    fn poisoned_tenant_trips_breaker_and_fails_fast() {
        let chaos = ChaosConfig::new(quiet_schedule(4)).poison(9);
        let service = TuningService::with_resilience(
            ServiceConfig::default(),
            ResilienceConfig::hardened(),
            Probe,
        )
        .with_chaos(chaos);
        service.register_tenant(9, manager(), vec![1.0]).unwrap();

        // one coalesced job; every attempt fails the integrity check
        let report = service.serve_batch(&requests(&[9, 9, 9]));
        assert!(report
            .responses
            .iter()
            .all(|r| matches!(r, Err(ServeError::WorkerFailed { .. }))));
        assert_eq!(report.quarantined, 1);
        assert_eq!(
            report.retries,
            u64::from(HedgePolicy::hardened().max_retries)
        );
        assert!(service.cache().is_empty(), "corrupt results never memoize");

        // three consecutive failures opened the circuit: within the
        // cooldown the tenant fails fast without reaching the pool
        let report = service.serve_batch(&[TuningRequest {
            tenant: 9,
            arrival_s: 3.0,
        }]);
        assert_eq!(
            report.responses[0],
            Err(ServeError::CircuitOpen { tenant: 9 })
        );
        assert_eq!(report.evaluated, 0);
        assert_eq!(service.breakers().total_trips(), 1);
        assert_eq!(service.store().with(9, |s| s.rejected).unwrap(), 4);
    }

    #[test]
    fn shed_jobs_bypass_the_retry_machinery() {
        // admission control sheds before the chaos scheduler ever sees
        // a job: a shed request burns no retries, no backoff, and no
        // breaker budget, while admitted jobs still go through the
        // fault-aware scheduler
        let config = ServiceConfig {
            pool: PoolConfig {
                workers: 2,
                queue_capacity: 2,
            },
            ..ServiceConfig::default()
        };
        let service = TuningService::with_resilience(config, ResilienceConfig::hardened(), Probe)
            .with_chaos(ChaosConfig::new(quiet_schedule(2)));
        // distinct features per tenant → five distinct design points
        for tenant in 0..5u64 {
            service
                .register_tenant(tenant, manager(), vec![1.0 + 0.1 * tenant as f64])
                .unwrap();
        }
        let report = service.serve_batch(&requests(&[0, 1, 2, 3, 4]));
        assert_eq!(report.evaluated, 2);
        assert_eq!(report.shed, 3);
        assert_eq!(report.retries, 0);
        assert_eq!(report.quarantined, 0);
        assert_eq!(service.breakers().total_trips(), 0);
        assert!(report.responses[0].is_ok());
        assert!(report.responses[1].is_ok());
    }

    #[test]
    fn crash_recovery_replays_bit_identically() {
        fn factory(_tenant: TenantId) -> AppManager {
            manager()
        }
        let config = ServiceConfig::default();
        let resilience = ResilienceConfig::hardened();
        let build = || {
            let service = TuningService::with_resilience(config, resilience, Probe);
            for tenant in 0..4u64 {
                service
                    .register_tenant(tenant, factory(tenant), vec![1.0 + (tenant % 2) as f64])
                    .unwrap();
            }
            service
        };
        let batch_at = |t0: f64| -> Vec<TuningRequest> {
            (0..4u64)
                .map(|tenant| TuningRequest {
                    tenant,
                    arrival_s: t0 + 0.5 * tenant as f64,
                })
                .collect()
        };
        // windows chosen so the Daly interval (√(2·0.5·300) − 0.5 ≈
        // 16.8 s) fires between the third and fourth: the crash state
        // is a snapshot plus a non-empty journal suffix
        let windows = [0.0, 6.0, 20.0, 30.0, 36.0];

        let reference = build();
        for &t0 in &windows {
            reference.serve_batch(&batch_at(t0));
        }

        let victim = build();
        for &t0 in &windows[..4] {
            victim.serve_batch(&batch_at(t0));
        }
        let (snapshot, entries) = victim.crash();
        assert!(snapshot.is_some(), "Daly cadence must have snapshotted");
        assert!(!entries.is_empty(), "suffix after the snapshot expected");
        let recovered = TuningService::recover(
            config, resilience, None, None, Probe, snapshot, &entries, &factory,
        );
        recovered.serve_batch(&batch_at(windows[4]));

        let report = recovered.state_report();
        assert!(!report.is_empty());
        assert_eq!(report, reference.state_report(), "recovery must be exact");
    }

    /// Front door + poisoned evaluator, breakers off: the tenant walks
    /// the whole admission lifecycle — Admit → Degrade (cache-only) →
    /// Shed (hard reject with a retry hint) → decay back to Degrade —
    /// purely from the SLO feedback its own failing probes generate.
    #[test]
    fn front_door_walks_a_burning_tenant_through_the_tiers() {
        let resilience = ResilienceConfig {
            breaker: BreakerConfig::disabled(),
            ..ResilienceConfig::hardened()
        };
        let service = TuningService::with_resilience(ServiceConfig::default(), resilience, Probe)
            .with_chaos(ChaosConfig::new(quiet_schedule(4)).poison(9))
            .with_front_door(FrontDoorConfig::hardened());
        service.register_tenant(9, manager(), vec![1.0]).unwrap();
        let admission = || service.admission().unwrap().tier(9);
        let batch = |t: f64| {
            service.serve_batch(&[TuningRequest {
                tenant: 9,
                arrival_s: t,
            }])
        };

        // window 1: every probe attempt fails → all-violation window
        let report = batch(0.0);
        assert!(matches!(
            report.responses[0],
            Err(ServeError::WorkerFailed { .. })
        ));
        assert_eq!(admission(), AdmissionTier::Degrade, "one bad window");

        // window 2: degraded and cache-empty → probe demand rejected,
        // which burns further and escalates past the shed threshold
        let report = batch(5.0);
        assert_eq!(report.degraded, 1);
        assert!(matches!(
            &report.responses[0],
            Err(ServeError::AdmissionRejected { tenant: 9, .. })
        ));
        assert_eq!(admission(), AdmissionTier::Shed);

        // window 3: hard shed before select — carries a retry hint and
        // contributes no burn, so the tenant starts to decay
        let report = batch(10.0);
        assert_eq!(report.admission_shed, 1);
        assert_eq!(report.evaluated, 0);
        let hint = report.responses[0].as_ref().unwrap_err().retry_after_ms();
        assert!(hint.is_some_and(|ms| ms >= 5000), "hint {hint:?}");

        // quiet windows: zero-sample decay de-escalates through the
        // exit hysteresis back to degraded service
        let mut tier = admission();
        for round in 0..6 {
            batch(15.0 + 5.0 * round as f64);
            tier = admission();
            if tier != AdmissionTier::Shed {
                break;
            }
        }
        assert_eq!(tier, AdmissionTier::Degrade, "shed must not be forever");
    }

    /// A tenant that is simultaneously over its SLO budget (shed tier)
    /// and circuit-open fails fast through exactly ONE path: the front
    /// door rejects before the breaker is consulted, so no extra
    /// breaker trips, no `BreakerAllow` journal traffic, and exactly
    /// one rejection is booked per request.
    #[test]
    fn shed_tier_and_open_breaker_fail_through_one_path() {
        let service = TuningService::with_resilience(
            ServiceConfig::default(),
            ResilienceConfig::hardened(),
            Probe,
        )
        .with_chaos(ChaosConfig::new(quiet_schedule(4)).poison(9))
        .with_front_door(FrontDoorConfig::hardened());
        service.register_tenant(9, manager(), vec![1.0]).unwrap();

        // three failed attempts open the circuit (trips = 1) and the
        // all-violation window degrades the tenant
        service.serve_batch(&requests(&[9, 9, 9]));
        assert_eq!(service.breakers().total_trips(), 1);
        assert_eq!(service.admission().unwrap().tier(9), AdmissionTier::Degrade);
        // degraded probe demand keeps burning until the shed threshold
        let mut tier = AdmissionTier::Degrade;
        for round in 1..6 {
            service.serve_batch(&[TuningRequest {
                tenant: 9,
                arrival_s: 5.0 * round as f64,
            }]);
            tier = service.admission().unwrap().tier(9);
            if tier == AdmissionTier::Shed {
                break;
            }
        }
        assert_eq!(tier, AdmissionTier::Shed);
        let trips_before = service.breakers().total_trips();
        let rejected_before = service.store().with(9, |s| s.rejected).unwrap();

        let report = service.serve_batch(&[TuningRequest {
            tenant: 9,
            arrival_s: 60.0,
        }]);
        // the admission rejection wins; the breaker is never consulted
        assert!(matches!(
            &report.responses[0],
            Err(ServeError::AdmissionRejected { tenant: 9, .. })
        ));
        assert_eq!(report.admission_shed, 1);
        assert_eq!(report.evaluated, 0);
        assert_eq!(service.breakers().total_trips(), trips_before);
        assert_eq!(
            service.store().with(9, |s| s.rejected).unwrap(),
            rejected_before + 1,
            "exactly one rejection booked"
        );
    }

    #[test]
    fn autoscaler_grows_capacity_under_probe_pressure() {
        let service = TuningService::new(ServiceConfig::default(), Probe)
            .with_front_door(FrontDoorConfig::hardened());
        // 24 tenants with distinct features → 24 distinct probes in one
        // window: 6 per virtual worker exceeds queue_high = 4
        for tenant in 0..24u64 {
            service
                .register_tenant(tenant, manager(), vec![1.0 + 0.01 * tenant as f64])
                .unwrap();
        }
        let batch: Vec<TuningRequest> = (0..24u64)
            .map(|t| TuningRequest {
                tenant: t,
                arrival_s: 0.1 * t as f64,
            })
            .collect();
        let report = service.serve_batch(&batch);
        assert_eq!(report.capacity, 8, "4 doubled under pressure");
        assert_eq!(service.autoscaler().unwrap().capacity(), 8);
        assert_eq!(service.obs().pool_capacity.get(), 8.0);
        // calm traffic after the cooldown shrinks capacity additively
        let report = service.serve_batch(&[TuningRequest {
            tenant: 0,
            arrival_s: 10.0,
        }]);
        assert_eq!(report.capacity, 7);
    }

    #[test]
    fn front_door_outputs_are_physical_worker_invariant() {
        let run = |workers: usize| {
            let service = TuningService::new(
                ServiceConfig {
                    pool: PoolConfig {
                        workers,
                        queue_capacity: 256,
                    },
                    ..ServiceConfig::default()
                },
                Probe,
            )
            .with_front_door(FrontDoorConfig::hardened());
            for tenant in 0..24u64 {
                service
                    .register_tenant(tenant, manager(), vec![1.0 + 0.01 * tenant as f64])
                    .unwrap();
            }
            let mut reports = Vec::new();
            for round in 0..4 {
                let batch: Vec<TuningRequest> = (0..24u64)
                    .map(|t| TuningRequest {
                        tenant: t,
                        arrival_s: 5.0 * round as f64 + 0.1 * t as f64,
                    })
                    .collect();
                reports.push(service.serve_batch(&batch));
            }
            (reports, service.state_report())
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one, eight, "virtual capacity must decouple from threads");
    }

    #[test]
    fn crash_recovery_restores_front_door_state_bit_identically() {
        fn factory(_tenant: TenantId) -> AppManager {
            manager()
        }
        let config = ServiceConfig::default();
        let resilience = ResilienceConfig::hardened();
        let front_door = FrontDoorConfig::hardened();
        let build = || {
            let service = TuningService::with_resilience(config, resilience, Probe)
                .with_chaos(ChaosConfig::new(quiet_schedule(4)).poison(2))
                .with_front_door(front_door);
            for tenant in 0..4u64 {
                service
                    .register_tenant(tenant, factory(tenant), vec![1.0 + (tenant % 2) as f64])
                    .unwrap();
            }
            service
        };
        // tenant 2 is poisoned: its windows burn, driving admission
        // tier transitions; 26 distinct-feature probes per window would
        // push the autoscaler as well via the shared cache misses
        let batch_at = |t0: f64| -> Vec<TuningRequest> {
            (0..4u64)
                .map(|tenant| TuningRequest {
                    tenant,
                    arrival_s: t0 + 0.5 * tenant as f64,
                })
                .collect()
        };
        let windows = [0.0, 6.0, 20.0, 30.0, 36.0];

        let reference = build();
        for &t0 in &windows {
            reference.serve_batch(&batch_at(t0));
        }
        let reference_report = reference.state_report();
        assert!(
            reference_report.contains("admission 2:"),
            "poisoned tenant must have admission state:\n{reference_report}"
        );
        assert!(reference_report.contains("autoscaler: capacity="));

        let victim = build();
        for &t0 in &windows[..4] {
            victim.serve_batch(&batch_at(t0));
        }
        let (snapshot, entries) = victim.crash();
        assert!(snapshot.is_some(), "Daly cadence must have snapshotted");
        let recovered = TuningService::recover(
            config,
            resilience,
            Some(ChaosConfig::new(quiet_schedule(4)).poison(2)),
            Some(front_door),
            Probe,
            snapshot,
            &entries,
            &factory,
        );
        recovered.serve_batch(&batch_at(windows[4]));
        assert_eq!(
            recovered.state_report(),
            reference_report,
            "front-door state must recover exactly"
        );
    }

    /// Four tenants on the hardened profile, two requests apart by
    /// 0.5 s each per window: the Daly interval (≈16.82 s) first fires
    /// at the window ending 21.5 s and is next due at ≈33.64 s.
    fn hardened_four_tenants() -> TuningService<Probe> {
        let service = TuningService::with_resilience(
            ServiceConfig::default(),
            ResilienceConfig::hardened(),
            Probe,
        );
        for tenant in 0..4u64 {
            service
                .register_tenant(tenant, manager(), vec![1.0 + (tenant % 2) as f64])
                .unwrap();
        }
        service
    }

    fn window_at(t0: f64) -> Vec<TuningRequest> {
        (0..4u64)
            .map(|tenant| TuningRequest {
                tenant,
                arrival_s: t0 + 0.5 * tenant as f64,
            })
            .collect()
    }

    fn recover_hardened(crashed: TuningService<Probe>) -> TuningService<Probe> {
        let (snapshot, entries) = crashed.crash();
        TuningService::recover(
            ServiceConfig::default(),
            ResilienceConfig::hardened(),
            None,
            None,
            Probe,
            snapshot,
            &entries,
            &|_| manager(),
        )
    }

    /// A crash before the next snapshot must not lose the journal
    /// suffix an earlier recovery replayed.
    #[test]
    fn double_crash_recovers_exactly() {
        let windows = [0.0, 6.0, 20.0, 30.0, 31.0, 32.0];
        let reference = hardened_four_tenants();
        for &t0 in &windows {
            reference.serve_batch(&window_at(t0));
        }

        let victim = hardened_four_tenants();
        for &t0 in &windows[..4] {
            victim.serve_batch(&window_at(t0));
        }
        let once = recover_hardened(victim);
        once.serve_batch(&window_at(windows[4]));
        let twice = recover_hardened(once);
        twice.serve_batch(&window_at(windows[5]));
        assert_eq!(twice.state_report(), reference.state_report());
    }

    /// Recovery keeps the crashed service's snapshot cadence.
    #[test]
    fn recovery_keeps_the_snapshot_cadence() {
        let reference = hardened_four_tenants();
        let victim = hardened_four_tenants();
        for t0 in [0.0, 6.0, 20.0, 30.0] {
            reference.serve_batch(&window_at(t0));
            victim.serve_batch(&window_at(t0));
        }
        let recovered = recover_hardened(victim);
        reference.serve_batch(&window_at(34.0));
        recovered.serve_batch(&window_at(34.0));
        let at_s = |service: TuningService<Probe>| service.crash().0.map(|s| s.at_s);
        assert_eq!(at_s(reference), Some(35.5));
        assert_eq!(at_s(recovered), Some(35.5));
    }

    #[test]
    fn recovery_from_journal_alone_rebuilds_registrations() {
        fn factory(_tenant: TenantId) -> AppManager {
            manager()
        }
        let config = ServiceConfig::default();
        let resilience = ResilienceConfig::hardened();
        let service = TuningService::with_resilience(config, resilience, Probe);
        service.register_tenant(3, factory(3), vec![2.0]).unwrap();
        service.serve_batch(&requests(&[3, 3]));
        let before = service.state_report();

        // crash before any snapshot: recovery replays from seq 0
        let (snapshot, entries) = service.crash();
        assert!(snapshot.is_none());
        let recovered = TuningService::recover(
            config, resilience, None, None, Probe, snapshot, &entries, &factory,
        );
        assert_eq!(recovered.state_report(), before);
        assert_eq!(recovered.store().with(3, |s| s.requests).unwrap(), 2);
    }
}
