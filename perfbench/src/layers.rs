//! Per-layer timing taken from outside the program: a transparent
//! timing wrapper around the evaluator (the probe layer), and unit
//! costs of single calls into the VM, IR, precision, cache, tuner and
//! observability layers. Nothing here is compiled into the service.

use crate::median;
use antarex_ir::cost::CostModel;
use antarex_ir::value::Value;
use antarex_ir::{parse_program, Program};
use antarex_precision::vars::{float_vars, set_precision};
use antarex_serve::kernel::DEFAULT_KERNEL;
use antarex_serve::pool::Evaluation;
use antarex_serve::{DesignKey, DesignPointCache, Evaluator, ProbeSegment, TuningService};
use antarex_tuner::Configuration;
use antarex_vm::{InstrumentedCodeCache, Vm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Probe classes, told apart by the knob a design point carries.
pub const PROBE_CLASSES: [&str; 3] = ["nav", "docking", "kernel"];

fn probe_class(config: &Configuration) -> usize {
    if config.get_int("poses").is_some() {
        1
    } else if config.get_int("mantissa").is_some() {
        2
    } else {
        0
    }
}

/// Wall-clock duration of every probe, per class.
#[derive(Debug, Default)]
pub struct ProbeLog {
    samples: Mutex<[Vec<u64>; 3]>,
}

impl ProbeLog {
    fn record(&self, config: &Configuration, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.samples
            .lock()
            .expect("probe log lock is never poisoned")[probe_class(config)]
        .push(ns);
    }

    /// Per-class samples, in recording order.
    pub fn samples(&self) -> [Vec<u64>; 3] {
        self.samples
            .lock()
            .expect("probe log lock is never poisoned")
            .clone()
    }
}

/// Times each probe and forwards it unchanged, so a traced replay
/// produces exactly the untraced replay's outputs.
pub struct Timed<E> {
    inner: E,
    log: Arc<ProbeLog>,
}

impl<E> Timed<E> {
    /// Wraps `inner`, logging into `log`.
    pub fn new(inner: E, log: Arc<ProbeLog>) -> Self {
        Timed { inner, log }
    }
}

impl<E: Evaluator> Evaluator for Timed<E> {
    fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation {
        let started = Instant::now();
        let evaluation = self.inner.evaluate(config, features);
        self.log.record(config, started);
        evaluation
    }

    fn evaluate_segmented(
        &self,
        config: &Configuration,
        features: &[f64],
    ) -> (Evaluation, Vec<ProbeSegment>) {
        let started = Instant::now();
        let out = self.inner.evaluate_segmented(config, features);
        self.log.record(config, started);
        out
    }
}

/// Median ns per call of `f`: seven rounds of `iters` calls each.
fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut rounds: Vec<f64> = (0..7)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                f();
            }
            started.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[rounds.len() / 2]
}

/// Unit costs of the kernel probe's building blocks, ns per call.
pub struct KernelUnitCosts {
    /// `Vm::run_segment` on a built VM: the floor a probe pays per run.
    pub run_ns: f64,
    /// `Vm::with_cache` on a warm cache, including the program clone
    /// it consumes.
    pub instantiate_ns: f64,
    /// `parse_program` of the kernel source.
    pub parse_ns: f64,
    /// `float_vars` plus `set_precision` on every float, including the
    /// program clone it edits.
    pub variant_ns: f64,
}

/// Problem size the unit costs run at: the middle of `kernel_churn`'s
/// size range.
const UNIT_PROBLEM_SIZE: usize = 60;

/// Measures [`KernelUnitCosts`] on the default kernel with seeded data.
pub fn kernel_unit_costs(seed: u64) -> KernelUnitCosts {
    let program: Program = parse_program(DEFAULT_KERNEL).expect("default kernel parses");
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Vec<f64> = (0..UNIT_PROBLEM_SIZE)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let b: Vec<f64> = (0..UNIT_PROBLEM_SIZE)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let args = vec![
        Value::from(a),
        Value::from(b),
        Value::Int(UNIT_PROBLEM_SIZE as i64),
    ];
    let cache = InstrumentedCodeCache::new();
    let mut vm = Vm::with_cache(program.clone(), CostModel::new(), &cache);
    let run_ns = ns_per_call(400, || {
        black_box(
            vm.run_segment("kernel", black_box(&args))
                .expect("kernel runs"),
        );
    });
    let instantiate_ns = ns_per_call(400, || {
        black_box(Vm::with_cache(
            black_box(&program).clone(),
            CostModel::new(),
            &cache,
        ));
    });
    let parse_ns = ns_per_call(400, || {
        black_box(parse_program(black_box(DEFAULT_KERNEL)).expect("default kernel parses"));
    });
    let variant_ns = ns_per_call(400, || {
        let mut variant = black_box(&program).clone();
        let vars = variant
            .function("kernel")
            .map(|f| float_vars(f))
            .unwrap_or_default();
        for var in &vars {
            set_precision(&mut variant, "kernel", var, 12).expect("inventoried variable exists");
        }
        black_box(variant);
    });
    KernelUnitCosts {
        run_ns,
        instantiate_ns,
        parse_ns,
        variant_ns,
    }
}

/// Unit costs of the service's cache, tuner and observability layers,
/// taken on end-of-run state without touching the service's counters.
pub struct ServiceUnitCosts {
    /// `DesignKey::new` on sampled tenants' deployed design points.
    pub key_ns: f64,
    /// `DesignPointCache::get` on a warm key of a separate cache.
    pub get_ns: f64,
    /// `AppManager::select` on clones of sampled managers.
    pub select_ns: f64,
    /// `AppManager::observe`.
    pub observe_ns: f64,
    /// `AppManager::adapt`.
    pub adapt_ns: f64,
    /// `ServeObs::invariant_exposition`.
    pub exposition_ns: f64,
    /// Chrome `trace_event` export of the retained trace, ms.
    pub chrome_export_ms: f64,
}

/// Tenants whose managers are cloned for the tuner unit costs.
const TUNER_SAMPLE: usize = 32;

/// Measures [`ServiceUnitCosts`] on a service after its replay.
pub fn service_unit_costs<E: Evaluator>(service: &TuningService<E>) -> ServiceUnitCosts {
    let tenants = service.store().tenants();
    let stride = (tenants.len() / TUNER_SAMPLE).max(1);
    let sessions: Vec<_> = tenants
        .iter()
        .step_by(stride)
        .take(TUNER_SAMPLE)
        .filter_map(|&tenant| {
            service
                .store()
                .with(tenant, |s| (s.manager.clone(), s.features.clone()))
                .ok()
        })
        .collect();

    let mut key_ns = Vec::new();
    let mut select_ns = Vec::new();
    let mut observe_ns = Vec::new();
    let mut adapt_ns = Vec::new();
    for (manager, features) in &sessions {
        let mut m = manager.clone();
        select_ns.push(ns_per_call(200, || {
            black_box(m.select());
        }));
        if let Some(config) = m.current().cloned() {
            key_ns.push(ns_per_call(200, || {
                black_box(DesignKey::new(black_box(&config), black_box(features)));
            }));
        }
        let mut m = manager.clone();
        let mut t = 1.0e6;
        observe_ns.push(ns_per_call(200, || {
            t += 1.0;
            m.observe(t, "latency", 0.1);
        }));
        let mut m = manager.clone();
        let mut now = 1.0e6;
        adapt_ns.push(ns_per_call(50, || {
            now += 1.0;
            black_box(m.adapt(now));
        }));
    }

    let warm = DesignPointCache::new(service.config().cache_shards);
    let entries = service.cache().entries();
    for (key, metrics) in entries.iter().take(64) {
        warm.insert(key.clone(), metrics.clone());
    }
    let get_ns = match entries.first() {
        Some((key, _)) => ns_per_call(1000, || {
            black_box(warm.get(black_box(key)));
        }),
        None => 0.0,
    };

    let obs = service.obs();
    let exposition_ns = ns_per_call(3, || {
        black_box(obs.invariant_exposition());
    });
    let chrome_export_ms = ns_per_call(1, || {
        black_box(obs.plane().trace.chrome_trace_json());
    }) / 1e6;
    ServiceUnitCosts {
        key_ns: median(key_ns),
        get_ns,
        select_ns: median(select_ns),
        observe_ns: median(observe_ns),
        adapt_ns: median(adapt_ns),
        exposition_ns,
        chrome_export_ms,
    }
}
