//! Mini-C kernels as serving-tier design-point evaluators.
//!
//! Closes the loop between the serving layer and the functional
//! substrate: a tenant's design point is a *precision knob* on a real
//! mini-C kernel, and a probe runs that kernel on the metered bytecode
//! VM ([`antarex_vm::Vm`]). All instrumented bytecode flows through one
//! shared [`InstrumentedCodeCache`], so a `(program digest, metering
//! params)` pair lowers exactly once no matter how many tenants,
//! design-space-exploration rounds, or precision rungs replay it —
//! the sharing story the VM's weave-time cache exists for.
//!
//! A probe compiles nothing once its rung is warm. The evaluator
//! memoizes each mantissa rung's [`CodeKey`] the first time the rung is
//! probed and looks its bytecode up with
//! [`InstrumentedCodeCache::instrument_keyed`], so only a cache miss
//! parses the source and rebuilds the precision variant; a hit runs the
//! shared pre-lowered program on [`Vm::from_compiled`].
//!
//! Like [`NavEvaluator`](crate::nav::NavEvaluator), the probe derives
//! its input data from [`probe_seed`], making every evaluation a pure
//! function of (configuration, workload features): the purity the pool
//! and the design-point cache demand. Metrics are virtual (derived from
//! metered cost and precision-weighted FP energy), never wall clock, so
//! results are bit-identical across machines and thread counts.

use crate::cache::probe_seed;
use crate::pool::Evaluation;
use crate::service::{Evaluator, ProbeSegment};
use antarex_ir::cost::CostModel;
use antarex_ir::cost::ExecStats;
use antarex_ir::value::Value;
use antarex_ir::{parse_program, IrError, Program};
use antarex_precision::vars::{float_vars, set_precision};
use antarex_tuner::goal::{Constraint, Objective};
use antarex_tuner::manager::AppManager;
use antarex_tuner::{Configuration, KnobValue, KnowledgeBase, OperatingPoint};
use antarex_vm::{lower_program, CodeKey, CompiledProgram, InstrumentedCodeCache, Vm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

/// The default probe kernel: a fused multiply-accumulate reduction with
/// enough float locals for the precision knob to bite.
pub const DEFAULT_KERNEL: &str = "double kernel(double a[], double b[], int n) {
    double acc = 0.0;
    double scale = 0.5;
    for (int i = 0; i < n; i++) {
        double t = a[i] * b[i] + scale * a[i];
        acc += t * t;
    }
    return acc;
}";

/// Evaluates precision design points of a mini-C kernel on the VM.
///
/// Knob: `mantissa` (int, 2..=52) — the mantissa width every float
/// declaration in the kernel is lowered to. Workload features:
/// `[problem_size]` (elements; defaults to 32).
#[derive(Debug, Clone)]
pub struct KernelEvaluator {
    source: String,
    function: String,
    cost_model: CostModel,
    cache: Arc<InstrumentedCodeCache>,
    /// The code-cache key of each mantissa rung's program (index
    /// `bits - 2`), computed on the rung's first probe. A key depends
    /// only on source, function and cost model, none of which change
    /// after construction, so clones share the table and it stays valid
    /// across [`with_cache`](Self::with_cache).
    rung_keys: Arc<[OnceLock<CodeKey>; 51]>,
    /// Abstract metered cost units per virtual second (probe
    /// throughput calibration).
    pub cost_per_second: f64,
    /// Watts per unit of precision-weighted FP energy per element.
    pub watts_per_unit_energy: f64,
}

impl KernelEvaluator {
    /// Creates an evaluator over `function` of the given mini-C source,
    /// with a fresh instrumented-code cache.
    ///
    /// # Errors
    ///
    /// Returns [`IrError`] if the source fails to parse or lacks the
    /// function.
    pub fn new(source: impl Into<String>, function: impl Into<String>) -> Result<Self, IrError> {
        let source = source.into();
        let function = function.into();
        let program = parse_program(&source)?;
        if program.function(&function).is_none() {
            return Err(IrError::Unresolved(function));
        }
        Ok(KernelEvaluator {
            source,
            function,
            cost_model: CostModel::new(),
            cache: Arc::new(InstrumentedCodeCache::new()),
            rung_keys: Arc::new(std::array::from_fn(|_| OnceLock::new())),
            cost_per_second: 2.0e6,
            watts_per_unit_energy: 0.02,
        })
    }

    /// The standard FMA-reduction kernel ([`DEFAULT_KERNEL`]).
    pub fn fma() -> Self {
        KernelEvaluator::new(DEFAULT_KERNEL, "kernel").expect("default kernel parses")
    }

    /// Shares an instrumented-code cache (e.g. one cache across every
    /// tenant of a service, or across services).
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<InstrumentedCodeCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The shared instrumented-code cache (hit/miss accounting).
    pub fn cache(&self) -> &Arc<InstrumentedCodeCache> {
        &self.cache
    }

    /// The program at `bits` mantissa bits: the source as written at
    /// full precision, every float declaration lowered to `bits` below.
    fn program(&self, bits: u8) -> Program {
        let mut program = parse_program(&self.source).expect("validated at construction");
        if bits < 52 {
            let vars = program
                .function(&self.function)
                .map(|f| float_vars(f))
                .unwrap_or_default();
            for var in &vars {
                set_precision(&mut program, &self.function, var, bits)
                    .expect("inventoried variable exists");
            }
        }
        program
    }

    /// The instrumented bytecode of the `bits` rung: one code-cache
    /// lookup under the rung's memoized key. The program is built only
    /// to compute a rung's key the first time and to lower it on a miss.
    fn compiled(&self, bits: u8) -> Arc<CompiledProgram> {
        let mut built = None;
        let key = *self.rung_keys[usize::from(bits - 2)].get_or_init(|| {
            let program = self.program(bits);
            let key = CodeKey::of(&program, &self.cost_model);
            built = Some(program);
            key
        });
        self.cache.instrument_keyed(key, || {
            let program = built.unwrap_or_else(|| self.program(bits));
            lower_program(&program, &self.cost_model)
        })
    }

    /// Runs the `bits` rung over the seeded inputs, returning the scalar
    /// output and the metered statistics.
    fn run(&self, bits: u8, args: &[Value]) -> Result<(f64, ExecStats), IrError> {
        let mut vm =
            Vm::from_compiled(self.compiled(bits)).with_cost_model(self.cost_model.clone());
        let (value, stats) = vm.run_segment(&self.function, args)?;
        Ok((scalar(&value), stats))
    }

    /// Converts one segment's metered stats to (virtual seconds, watts,
    /// joules) under the evaluator's calibration.
    fn meter(&self, stats: &ExecStats, n: usize) -> (f64, f64, f64) {
        let latency_s = stats.cost as f64 / self.cost_per_second;
        // power is intensity, not total work: weight FP energy per element
        let power_w = 5.0 + self.watts_per_unit_energy * stats.flop_energy / n as f64;
        (latency_s, power_w, power_w * latency_s)
    }
}

fn scalar(value: &Value) -> f64 {
    match value {
        Value::Float(f) => *f,
        Value::Int(i) => *i as f64,
        _ => 0.0,
    }
}

impl Evaluator for KernelEvaluator {
    fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation {
        self.evaluate_segmented(config, features).0
    }

    fn evaluate_segmented(
        &self,
        config: &Configuration,
        features: &[f64],
    ) -> (Evaluation, Vec<ProbeSegment>) {
        let bits = config.get_int("mantissa").unwrap_or(52).clamp(2, 52) as u8;
        let n = features.first().copied().unwrap_or(32.0).clamp(4.0, 256.0) as usize;
        // inputs derive from the design key: identical (config, features)
        // pairs probe identical data forever
        let mut rng = StdRng::seed_from_u64(probe_seed(config, features));
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let args = vec![Value::from(a), Value::from(b), Value::Int(n as i64)];

        let (reference, ref_stats) = self.run(52, &args).expect("full-precision kernel runs");
        let (tuned, stats) = self.run(bits, &args).expect("lowered kernel runs");

        let error = (tuned - reference).abs() / reference.abs().max(1e-12);
        let (ref_cost_s, _, ref_energy_j) = self.meter(&ref_stats, n);
        let (tuned_cost_s, power_w, tuned_energy_j) = self.meter(&stats, n);
        let evaluation = Evaluation {
            metrics: [
                ("latency".to_string(), tuned_cost_s),
                ("error".to_string(), error),
                ("power".to_string(), power_w),
            ]
            .into_iter()
            .collect(),
            cost_s: tuned_cost_s,
            energy_j: tuned_energy_j,
        };
        // the reference run is metered too, but only the tuned kernel
        // is the probe's billable work: segments describe both for the
        // trace, the evaluation charges the tuned run alone
        let segments = vec![
            ProbeSegment {
                name: "reference",
                cost_s: ref_cost_s,
                energy_j: ref_energy_j,
            },
            ProbeSegment {
                name: "tuned",
                cost_s: tuned_cost_s,
                energy_j: tuned_energy_j,
            },
        ];
        (evaluation, segments)
    }
}

/// Design-time knowledge for the precision knob: optimistic estimates
/// the service corrects through online learning.
pub fn kernel_knowledge() -> KnowledgeBase {
    [52i64, 23, 12, 8]
        .into_iter()
        .map(|bits| {
            let mut config = Configuration::new();
            config.set("mantissa", KnobValue::Int(bits));
            OperatingPoint::new(
                config,
                [
                    ("latency".to_string(), 0.01),
                    ("error".to_string(), (2.0f64).powi(-(bits as i32))),
                    ("power".to_string(), 5.0 + 0.1 * bits as f64),
                ],
            )
        })
        .collect()
}

/// A per-tenant runtime manager over [`kernel_knowledge`]: minimize
/// power while the precision-loss error stays within `error_budget`.
pub fn kernel_manager(error_budget: f64) -> AppManager {
    let mut manager = AppManager::new(kernel_knowledge(), Objective::minimize("power"));
    manager.add_constraint(Constraint::at_most("error", error_budget));
    manager
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, TuningRequest, TuningService};

    fn config(bits: i64) -> Configuration {
        let mut c = Configuration::new();
        c.set("mantissa", KnobValue::Int(bits));
        c
    }

    #[test]
    fn evaluation_is_pure() {
        let evaluator = KernelEvaluator::fma();
        let a = evaluator.evaluate(&config(12), &[32.0]);
        let b = evaluator.evaluate(&config(12), &[32.0]);
        assert_eq!(a, b, "identical design points must evaluate identically");
    }

    #[test]
    fn lower_mantissa_sheds_power_but_adds_error() {
        let evaluator = KernelEvaluator::fma();
        let full = evaluator.evaluate(&config(52), &[64.0]);
        let low = evaluator.evaluate(&config(8), &[64.0]);
        assert_eq!(full.metrics["error"], 0.0, "full precision is exact");
        assert!(low.metrics["error"] > 0.0, "8 mantissa bits lose accuracy");
        assert!(
            low.metrics["power"] < full.metrics["power"],
            "narrow flops are cheaper: {} vs {}",
            low.metrics["power"],
            full.metrics["power"]
        );
    }

    #[test]
    fn replay_hits_the_instrumented_code_cache() {
        let evaluator = KernelEvaluator::fma();
        for round in 0..25 {
            for bits in [52i64, 23, 12, 8] {
                let features = [16.0 + (round % 3) as f64 * 8.0];
                evaluator.evaluate(&config(bits), &features);
            }
        }
        let cache = evaluator.cache();
        assert_eq!(cache.misses(), 4, "one lowering per distinct program");
        assert!(
            cache.hit_rate() >= 0.95,
            "serving-tier replay must hit: {}",
            cache.hit_rate()
        );
    }

    /// The parse-per-probe path compile-once replaced: every probe
    /// parses the source, rebuilds the precision variant, digests it and
    /// instantiates a VM over the AST. Kept as the oracle the cached
    /// path must match bit for bit.
    fn evaluate_by_parsing(
        evaluator: &KernelEvaluator,
        config: &Configuration,
        features: &[f64],
    ) -> (Evaluation, Vec<ProbeSegment>) {
        let base = || parse_program(&evaluator.source).unwrap();
        let variant = |bits: u8| {
            let mut program = base();
            let vars = float_vars(program.function(&evaluator.function).unwrap());
            for var in &vars {
                set_precision(&mut program, &evaluator.function, var, bits).unwrap();
            }
            program
        };
        let run = |program: Program, args: &[Value]| {
            let mut vm = Vm::with_cache(program, evaluator.cost_model.clone(), &evaluator.cache);
            let (value, stats) = vm.run_segment(&evaluator.function, args).unwrap();
            (scalar(&value), stats)
        };
        let bits = config.get_int("mantissa").unwrap_or(52).clamp(2, 52) as u8;
        let n = features.first().copied().unwrap_or(32.0).clamp(4.0, 256.0) as usize;
        let mut rng = StdRng::seed_from_u64(probe_seed(config, features));
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let args = vec![Value::from(a), Value::from(b), Value::Int(n as i64)];

        let (reference, ref_stats) = run(base(), &args);
        let (tuned, stats) = if bits < 52 {
            run(variant(bits), &args)
        } else {
            run(base(), &args)
        };

        let error = (tuned - reference).abs() / reference.abs().max(1e-12);
        let latency_s = stats.cost as f64 / evaluator.cost_per_second;
        let power_w = 5.0 + evaluator.watts_per_unit_energy * stats.flop_energy / n as f64;
        let ref_cost_s = ref_stats.cost as f64 / evaluator.cost_per_second;
        let ref_power_w = 5.0 + evaluator.watts_per_unit_energy * ref_stats.flop_energy / n as f64;
        let evaluation = Evaluation {
            metrics: [
                ("latency".to_string(), latency_s),
                ("error".to_string(), error),
                ("power".to_string(), power_w),
            ]
            .into_iter()
            .collect(),
            cost_s: latency_s,
            energy_j: power_w * latency_s,
        };
        let segments = vec![
            ProbeSegment {
                name: "reference",
                cost_s: ref_cost_s,
                energy_j: ref_power_w * ref_cost_s,
            },
            ProbeSegment {
                name: "tuned",
                cost_s: latency_s,
                energy_j: power_w * latency_s,
            },
        ];
        (evaluation, segments)
    }

    #[test]
    fn compile_once_matches_parse_per_probe_bit_for_bit() {
        let evaluator = KernelEvaluator::fma();
        let oracle = KernelEvaluator::fma();
        for bits in 2..=52 {
            for size in [4.0, 24.0, 59.5, 95.0, 256.0] {
                let (config, features) = (config(bits), [size]);
                let (want, want_segments) = evaluate_by_parsing(&oracle, &config, &features);
                let (got, got_segments) = evaluator.evaluate_segmented(&config, &features);
                assert_eq!(got, want, "mantissa {bits}, size {size}");
                assert_eq!(evaluator.evaluate(&config, &features), want);
                assert_eq!(got_segments.len(), want_segments.len());
                for (g, w) in got_segments.iter().zip(&want_segments) {
                    assert_eq!(g.name, w.name);
                    assert_eq!(g.cost_s.to_bits(), w.cost_s.to_bits(), "{bits}/{size}");
                    assert_eq!(g.energy_j.to_bits(), w.energy_j.to_bits(), "{bits}/{size}");
                }
            }
        }
        // both paths key the same programs: one lowering per rung each
        assert_eq!(evaluator.cache().misses(), 51);
        assert_eq!(oracle.cache().misses(), 51);
    }

    #[test]
    fn a_warm_probe_never_rebuilds_the_program() {
        let mut evaluator = KernelEvaluator::fma();
        evaluator.evaluate(&config(12), &[32.0]);
        evaluator.evaluate(&config(52), &[32.0]);
        // a warm rung would panic here if it parsed the source again
        evaluator.source = "not mini-C".to_string();
        let warm = evaluator.evaluate(&config(12), &[40.0]);
        assert_eq!(warm, KernelEvaluator::fma().evaluate(&config(12), &[40.0]));
        assert_eq!(evaluator.cache().misses(), 2);
    }

    #[test]
    fn with_cache_sends_later_lowerings_to_the_new_cache() {
        let evaluator = KernelEvaluator::fma();
        for bits in [52, 12, 8] {
            evaluator.evaluate(&config(bits), &[32.0]);
        }
        let old = Arc::clone(evaluator.cache());
        let fresh = Arc::new(InstrumentedCodeCache::new());
        let moved = evaluator.with_cache(Arc::clone(&fresh));
        for bits in [52, 23, 12, 8] {
            moved.evaluate(&config(bits), &[32.0]);
        }
        assert_eq!(fresh.misses(), 4, "one lowering per rung probed");
        assert_eq!(old.misses(), 3, "the old cache sees no more lookups");
        assert_eq!(old.hits() + old.misses(), 6);
    }

    #[test]
    fn clones_sharing_a_cache_lower_each_rung_once() {
        let first = KernelEvaluator::fma();
        let second = first.clone();
        for bits in 2..=52 {
            first.evaluate(&config(bits), &[24.0]);
            second.evaluate(&config(bits), &[64.0]);
        }
        assert!(Arc::ptr_eq(first.cache(), second.cache()));
        assert_eq!(first.cache().misses(), 51);
        assert_eq!(first.cache().hits(), 4 * 51 - 51);
    }

    #[test]
    fn deeply_nested_source_is_rejected_not_a_crash() {
        let depth = 10_000;
        let source = format!(
            "int f() {{ return {}1{}; }}",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        assert!(KernelEvaluator::new(source, "f").is_err());
    }

    #[test]
    fn service_serves_kernel_tenants_end_to_end() {
        let service = TuningService::new(ServiceConfig::default(), KernelEvaluator::fma());
        for tenant in 0..4 {
            service
                .register_tenant(tenant, kernel_manager(1e-3), vec![32.0])
                .unwrap();
        }
        let requests: Vec<TuningRequest> = (0..4)
            .map(|tenant| TuningRequest {
                tenant,
                arrival_s: 0.1 * tenant as f64,
            })
            .collect();
        let report = service.serve_batch(&requests);
        assert_eq!(report.responses.len(), 4);
        assert!(report.evaluated >= 1);
        assert!(
            service.cache().hits() + service.cache().misses() > 0,
            "design points flowed through the memo cache"
        );
    }
}
