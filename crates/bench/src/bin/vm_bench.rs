//! Headline numbers and gates for the metered bytecode VM.
//!
//! Prints a JSON object (for `BENCH_vm.json`) with honest *wall-clock*
//! probe-throughput numbers on this machine: the tree-walking reference
//! interpreter vs the bytecode VM over the canonical kernel suite, plus
//! the lowering cost the instrumented-code cache amortizes and the
//! serving-tier replay hit rate.
//!
//! The acceptance gates are evaluated after the report and the process
//! exits nonzero when any fails, so CI can run this binary directly:
//!
//! * `probe_speedup` — geometric-mean VM speedup over the interpreter
//!   across the suite is at least 10×;
//! * `replay_hit_rate` — the instrumented-code cache absorbs at least
//!   95% of serving-tier lowerings;
//! * `probe_overhead` — a warm serving-tier probe costs at most 1.5× the
//!   two bare `Vm::from_compiled(..).run_segment` calls it makes (the
//!   full-precision reference and the tuned rung, same sizes), both
//!   measured here as the minimum over windows after a warm-up. A probe
//!   that parses, rebuilds a precision variant or digests a program
//!   again costs several times that.
//!
//! Usage: `cargo run --release -p antarex-bench --bin vm_bench`

use antarex_bench::vm_exp::kernel_suite;
use antarex_ir::cost::CostModel;
use antarex_ir::interp::{ExecEnv, Interp};
use antarex_ir::parse_program;
use antarex_ir::value::Value;
use antarex_precision::vars::{float_vars, set_precision};
use antarex_serve::kernel::{KernelEvaluator, DEFAULT_KERNEL};
use antarex_serve::Evaluator;
use antarex_tuner::{Configuration, KnobValue};
use antarex_vm::{lower_program, Vm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Precision rungs and problem sizes the serving-tier replay cycles
/// through: probe `i` runs rung `i % 4` at size `i % 3`. The first rung
/// is full precision, the reference every probe also runs.
const REPLAY_RUNGS: [u8; 4] = [52, 23, 12, 8];
const REPLAY_SIZES: [usize; 3] = [16, 24, 32];

/// One pair of bare VM runs per call — the full-precision reference and
/// the tuned rung — over the serving replay's rung and size cycle, with
/// the kernel pre-lowered: the floor a serving-tier probe cannot go below.
fn bare_probe(model: &CostModel) -> impl FnMut() {
    let rungs: Vec<_> = REPLAY_RUNGS
        .iter()
        .map(|&bits| {
            let mut program = parse_program(DEFAULT_KERNEL).expect("default kernel parses");
            if bits < 52 {
                for var in float_vars(program.function("kernel").expect("kernel exists")) {
                    set_precision(&mut program, "kernel", &var, bits)
                        .expect("inventoried variable exists");
                }
            }
            Arc::new(lower_program(&program, model))
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(13);
    let args: Vec<Vec<Value>> = REPLAY_SIZES
        .iter()
        .map(|&n| {
            let mut data = || {
                Value::from(
                    (0..n)
                        .map(|_| rng.gen_range(-1.0..1.0))
                        .collect::<Vec<f64>>(),
                )
            };
            vec![data(), data(), Value::Int(n as i64)]
        })
        .collect();
    let mut i = 0usize;
    move || {
        let args = &args[i % REPLAY_SIZES.len()];
        for rung in [&rungs[0], &rungs[i % REPLAY_RUNGS.len()]] {
            let mut vm = Vm::from_compiled(Arc::clone(rung));
            black_box(vm.run_segment("kernel", black_box(args))).expect("kernel runs");
        }
        i += 1;
    }
}

/// ns/op of `op` over `iters` iterations.
fn ns_per_op(iters: u64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Minimum ns/op across `windows` measurement windows: the minimum is the
/// standard estimator for "time absent interference" on a noisy machine —
/// scheduler preemption and frequency transitions only ever add time.
fn min_ns_per_op(windows: u32, iters: u64, mut op: impl FnMut()) -> f64 {
    (0..windows)
        .map(|_| ns_per_op(iters, &mut op))
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let model = CostModel::new();
    let mut rows = Vec::new();
    let mut log_speedup_sum = 0.0;
    for case in kernel_suite() {
        let program = parse_program(case.source).expect("suite kernel parses");

        let mut interp = Interp::new(program.clone());
        // warm up, then time probe replay on each engine: same budget
        // semantics, same statistics, same results (experiment v1)
        let mut env = ExecEnv::new();
        interp.call(case.function, &case.args, &mut env).unwrap();
        let interp_ns = min_ns_per_op(3, 300, || {
            let mut env = ExecEnv::new();
            black_box(interp.call(case.function, black_box(&case.args), &mut env)).unwrap();
        });

        let mut vm = Vm::new(program.clone());
        let mut env = ExecEnv::new();
        vm.call(case.function, &case.args, &mut env).unwrap();
        let vm_ns = min_ns_per_op(3, 3000, || {
            let mut env = ExecEnv::new();
            black_box(vm.call(case.function, black_box(&case.args), &mut env)).unwrap();
        });

        let lower_ns = min_ns_per_op(3, 2000, || {
            black_box(lower_program(black_box(&program), black_box(&model)));
        });

        let speedup = interp_ns / vm_ns;
        log_speedup_sum += speedup.ln();
        rows.push((case.name, interp_ns, vm_ns, speedup, lower_ns));
    }
    let geomean_speedup = (log_speedup_sum / rows.len() as f64).exp();

    // serving-tier replay: 100 probes over 4 precision rungs x 3 workloads
    let evaluator = KernelEvaluator::fma();
    let mut config = Configuration::new();
    let mut i = 0usize;
    let mut probe = || {
        let bits = REPLAY_RUNGS[i % REPLAY_RUNGS.len()];
        let features = [REPLAY_SIZES[i % REPLAY_SIZES.len()] as f64];
        config.set("mantissa", KnobValue::Int(i64::from(bits)));
        black_box(evaluator.evaluate(black_box(&config), black_box(&features)));
        i += 1;
    };
    let replay_ns = ns_per_op(100, &mut probe);
    let (hits, misses) = (evaluator.cache().hits(), evaluator.cache().misses());
    let hit_rate = evaluator.cache().hit_rate();
    // the same replay once warm, against the bare VM runs it is made of;
    // windows alternate so machine-wide slowdowns hit both sides alike
    let mut bare = bare_probe(&model);
    ns_per_op(120, &mut bare);
    let (mut warm_ns, mut bare_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..15 {
        warm_ns = warm_ns.min(ns_per_op(240, &mut probe));
        bare_ns = bare_ns.min(ns_per_op(240, &mut bare));
    }
    let overhead = warm_ns / bare_ns;

    let gates = [
        (
            "probe_speedup",
            format!("geomean {geomean_speedup:.1}x >= 10x"),
            geomean_speedup >= 10.0,
        ),
        (
            "replay_hit_rate",
            format!("{:.1}% >= 95%", hit_rate * 100.0),
            hit_rate >= 0.95,
        ),
        (
            "probe_overhead",
            format!("{overhead:.2}x two bare VM runs <= 1.5x"),
            overhead <= 1.5,
        ),
    ];
    let failed: Vec<&str> = gates
        .iter()
        .filter(|(_, _, ok)| !ok)
        .map(|(name, _, _)| *name)
        .collect();

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("{{");
    println!("  \"benchmark\": \"antarex-vm: metered bytecode probe throughput\",");
    println!("  \"physical_cores\": {cores},");
    println!("  \"kernels\": [");
    for (i, (name, interp_ns, vm_ns, speedup, lower_ns)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!(
            "    {{\"kernel\": \"{name}\", \"interp_ns_per_probe\": {interp_ns:.0}, \"vm_ns_per_probe\": {vm_ns:.0}, \"speedup\": {speedup:.1}, \"lowering_ns\": {lower_ns:.0}}}{comma}"
        );
    }
    println!("  ],");
    println!("  \"probe_speedup_geomean\": {geomean_speedup:.1},");
    println!("  \"serving_replay\": {{");
    println!("    \"ns_per_probe\": {replay_ns:.0},");
    println!("    \"code_cache_hits\": {hits},");
    println!("    \"code_cache_misses\": {misses},");
    println!("    \"hit_rate\": {hit_rate:.3},");
    println!("    \"warm_ns_per_probe\": {warm_ns:.0},");
    println!("    \"bare_vm_ns_per_probe\": {bare_ns:.0},");
    println!("    \"overhead_ratio\": {overhead:.2}");
    println!("  }},");
    println!("  \"gates\": {{");
    for (i, (name, detail, ok)) in gates.iter().enumerate() {
        let comma = if i + 1 < gates.len() { "," } else { "" };
        println!("    \"{name}\": {{\"detail\": \"{detail}\", \"pass\": {ok}}}{comma}");
    }
    println!("  }},");
    println!("  \"gates_passed\": {}", failed.is_empty());
    println!("}}");
    if !failed.is_empty() {
        eprintln!("vm_bench: FAILED gates: {}", failed.join(", "));
        std::process::exit(1);
    }
}
