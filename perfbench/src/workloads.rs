//! The three replayed campaigns. The seed draws each campaign's
//! arrival streams (and, in `kernel_churn`, its tenants); the service
//! sees only registered tenants, evaluators and `TuningRequest`s.
//!
//! Every campaign pins the pool's *virtual* capacity at 4 through the
//! front door's autoscaler, so its outputs are byte-identical at any
//! physical worker count and the wall clock measures the code, not the
//! virtual scheduler.

use antarex_serve::docking::{register_docking_tenants, TenantMux};
use antarex_serve::driver::{self, DriverConfig};
use antarex_serve::kernel::{kernel_manager, KernelEvaluator};
use antarex_serve::nav::NavEvaluator;
use antarex_serve::store::TenantClass;
use antarex_serve::{
    AdmissionConfig, AutoscaleConfig, Evaluator, FrontDoorConfig, JournalEntry, ResilienceConfig,
    SchedConfig, ServiceConfig, Snapshot, TuningRequest, TuningService,
};
use antarex_vm::InstrumentedCodeCache;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Requests per `serve_batch` call: the closed-loop client submits the
/// next 64 as soon as the previous call returns.
pub const BATCH: usize = 64;

/// Virtual worker capacity every campaign is scheduled on.
const VIRTUAL_WORKERS: usize = 4;

/// Navigation SLA (latency bound, seconds) of every nav tenant.
const NAV_SLA_S: f64 = 0.5;

/// First docking tenant id in `e1_mixed`; nav tenants sit below it.
const DOCKING_BASE: u64 = 1000;

/// Seed of the E1 campaign's world: the city grid, the docking pocket
/// and the docking ligand sizes. The workload seed resamples traffic
/// over this fixed world, so a seed change moves no cost model and the
/// modelled metrics stay comparable from seed to seed.
const WORLD_SEED: u64 = 2016;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The E1 mixed nav + docking campaign at full scale.
    E1Mixed,
    /// Short-lived precision-tuning tenants on the metered VM.
    KernelChurn,
    /// Cache-hot nav tenants on the journaled (write-ahead) path.
    JournaledNav,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "e1_mixed" => Some(Workload::E1Mixed),
            "kernel_churn" => Some(Workload::KernelChurn),
            "journaled_nav" => Some(Workload::JournaledNav),
            _ => None,
        }
    }

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::E1Mixed => "e1_mixed",
            Workload::KernelChurn => "kernel_churn",
            Workload::JournaledNav => "journaled_nav",
        }
    }
}

/// A service ready to replay, plus its arrival stream.
pub struct Campaign<E> {
    /// The built service with every tenant registered.
    pub service: TuningService<E>,
    /// Arrivals in (time, tenant) order, served in chunks of [`BATCH`].
    pub requests: Vec<TuningRequest>,
}

/// The hardened front door with virtual capacity pinned.
fn front_door() -> FrontDoorConfig {
    FrontDoorConfig {
        admission: AdmissionConfig::hardened(),
        autoscale: AutoscaleConfig {
            min_workers: VIRTUAL_WORKERS,
            max_workers: VIRTUAL_WORKERS,
            ..AutoscaleConfig::hardened()
        },
    }
}

fn service_config(physical: usize) -> ServiceConfig {
    let mut config = ServiceConfig::default();
    config.pool.workers = physical;
    config
}

fn sort_arrivals(requests: &mut [TuningRequest]) {
    requests.sort_by(|a, b| {
        a.arrival_s
            .total_cmp(&b.arrival_s)
            .then(a.tenant.cmp(&b.tenant))
    });
}

/// `e1_mixed`: 192 nav tenants over 6 archetypes plus 64 docking
/// tenants, 800 virtual seconds at 0.5 Hz each (~102.8k requests),
/// hardened admission, work stealing — the E1 campaign, whose arrival
/// streams the seed draws (seed 2016 replays E1 exactly).
pub fn e1_mixed<E: Evaluator>(
    seed: u64,
    physical: usize,
    wrap: impl FnOnce(TenantMux) -> E,
) -> Campaign<E> {
    let service = TuningService::new(
        service_config(physical),
        wrap(TenantMux::city_and_screening(WORLD_SEED)),
    )
    .with_scheduler(SchedConfig::work_stealing())
    .with_front_door(front_door());
    let nav = DriverConfig {
        tenants: 192,
        archetypes: 6,
        duration_s: 800.0,
        rate_per_tenant_hz: 0.5,
        batch_window_s: 1.0,
        seed,
    };
    for tenant in 0..nav.tenants as u64 {
        let features = driver::archetype_features(tenant as usize % nav.archetypes);
        service
            .register_tenant_classed(
                tenant,
                TenantClass::Nav,
                driver::nav_manager(NAV_SLA_S),
                features,
            )
            .expect("fresh tenant id");
    }
    let docking = DriverConfig {
        tenants: 64,
        seed: seed.wrapping_add(1),
        ..nav
    };
    register_docking_tenants(
        &service,
        DOCKING_BASE,
        docking.tenants,
        WORLD_SEED,
        NAV_SLA_S,
    );
    let mut requests = driver::arrivals(&nav);
    requests.extend(driver::arrivals(&docking).into_iter().map(|mut r| {
        r.tenant += DOCKING_BASE;
        r
    }));
    sort_arrivals(&mut requests);
    Campaign { service, requests }
}

/// `kernel_churn` generator parameters.
const CHURN_TENANTS: u64 = 5000;
const CHURN_DURATION_S: f64 = 1000.0;
const CHURN_LIFETIME_S: f64 = 20.0;
const CHURN_RATE_HZ: f64 = 1.0;
const CHURN_SIZE: (f64, f64) = (24.0, 96.0);
const CHURN_ERROR_BUDGETS: [f64; 3] = [1e-2, 1e-3, 1e-5];

/// `kernel_churn`: 5,000 tenants, each alive for 20 virtual seconds at
/// a seeded start in a 1,000 s run, issuing 1 Hz Poisson requests. Each
/// has its own continuous problem size in [24, 96) elements and one of
/// three error budgets, so fresh design points keep arriving all run.
pub fn kernel_churn<E: Evaluator>(
    seed: u64,
    physical: usize,
    code_cache: Arc<InstrumentedCodeCache>,
    wrap: impl FnOnce(KernelEvaluator) -> E,
) -> Campaign<E> {
    let service = TuningService::new(
        service_config(physical),
        wrap(KernelEvaluator::fma().with_cache(code_cache)),
    )
    .with_front_door(front_door());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_726e_656c);
    let mut requests = Vec::new();
    for tenant in 0..CHURN_TENANTS {
        let size = rng.gen_range(CHURN_SIZE.0..CHURN_SIZE.1);
        let budget = CHURN_ERROR_BUDGETS[rng.gen_range(0..CHURN_ERROR_BUDGETS.len())];
        service
            .register_tenant(tenant, kernel_manager(budget), vec![size])
            .expect("fresh tenant id");
        let mut t = rng.gen_range(0.0..CHURN_DURATION_S - CHURN_LIFETIME_S);
        let end = t + CHURN_LIFETIME_S;
        loop {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() / CHURN_RATE_HZ;
            if t >= end {
                break;
            }
            requests.push(TuningRequest {
                tenant,
                arrival_s: t,
            });
        }
    }
    sort_arrivals(&mut requests);
    Campaign { service, requests }
}

/// `journaled_nav` generator parameters.
const JOURNALED_TENANTS: usize = 1000;
const JOURNALED_ARCHETYPES: usize = 4;
const JOURNALED_DURATION_S: f64 = 200.0;
const JOURNALED_RATE_HZ: f64 = 0.5;

fn journaled_resilience() -> ResilienceConfig {
    ResilienceConfig::hardened()
}

/// `journaled_nav`: 1,000 nav tenants over the 4 day-slot archetypes,
/// 200 virtual seconds at 0.5 Hz each (~100k requests) drawn from the
/// seed, on the E1 city grid, with the hardened
/// resilience profile: every mutation journaled, Daly-cadenced
/// snapshots, live breakers.
pub fn journaled_nav<E: Evaluator>(
    seed: u64,
    physical: usize,
    wrap: impl FnOnce(NavEvaluator) -> E,
) -> Campaign<E> {
    let service = TuningService::with_resilience(
        service_config(physical),
        journaled_resilience(),
        wrap(NavEvaluator::city(WORLD_SEED)),
    )
    .with_front_door(front_door());
    for tenant in 0..JOURNALED_TENANTS {
        service
            .register_tenant_classed(
                tenant as u64,
                TenantClass::Nav,
                driver::nav_manager(NAV_SLA_S),
                driver::archetype_features(tenant % JOURNALED_ARCHETYPES),
            )
            .expect("fresh tenant id");
    }
    let requests = driver::arrivals(&DriverConfig {
        tenants: JOURNALED_TENANTS,
        archetypes: JOURNALED_ARCHETYPES,
        duration_s: JOURNALED_DURATION_S,
        rate_per_tenant_hz: JOURNALED_RATE_HZ,
        batch_window_s: 1.0,
        seed,
    });
    Campaign { service, requests }
}

/// Rebuilds a crashed `journaled_nav` service from its last snapshot
/// and journal suffix.
pub fn recover_journaled_nav(
    physical: usize,
    snapshot: Option<Snapshot>,
    entries: &[JournalEntry],
) -> TuningService<NavEvaluator> {
    TuningService::recover(
        service_config(physical),
        journaled_resilience(),
        None,
        Some(front_door()),
        NavEvaluator::city(WORLD_SEED),
        snapshot,
        entries,
        &|_| driver::nav_manager(NAV_SLA_S),
    )
}

/// Generator parameters, printed with every run.
pub fn parameters(workload: Workload) -> String {
    match workload {
        Workload::E1Mixed => format!(
            "nav_tenants=192 docking_tenants=64 archetypes=6 duration_s=800 rate_hz=0.5 \
             batch={BATCH} virtual_workers={VIRTUAL_WORKERS} admission=hardened sched=work_stealing"
        ),
        Workload::KernelChurn => format!(
            "tenants={CHURN_TENANTS} duration_s={CHURN_DURATION_S} lifetime_s={CHURN_LIFETIME_S} \
             rate_hz={CHURN_RATE_HZ} size=[{},{}) error_budgets={:?} batch={BATCH} \
             virtual_workers={VIRTUAL_WORKERS} admission=hardened",
            CHURN_SIZE.0, CHURN_SIZE.1, CHURN_ERROR_BUDGETS
        ),
        Workload::JournaledNav => format!(
            "tenants={JOURNALED_TENANTS} archetypes={JOURNALED_ARCHETYPES} \
             duration_s={JOURNALED_DURATION_S} rate_hz={JOURNALED_RATE_HZ} batch={BATCH} \
             virtual_workers={VIRTUAL_WORKERS} admission=hardened resilience=hardened"
        ),
    }
}
