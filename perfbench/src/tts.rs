//! `tts-sparse` / `tts-dense`: in-process time to target.
//!
//! Each solve is `DabsSolver::run_sequential` (the unit engine every served
//! job runs) on one `(instance, seed)` pair of a fixed list, stopped at the
//! instance's stored target or at a batch cap. `--seed` shuffles the order
//! the run walks the list in; every pair's flip count is the same in every
//! run of the same code.
//!
//! The traced run first times a prefix of the pairs untraced, then solves
//! the same pairs again through `UnitRun::step(1)` with spans: flip counts
//! must match exactly, and the time ratio is the tracing overhead.

use crate::instances::{build_model, generate, materialize, PairList};
use crate::side::{self, SolverCounters};
use crate::spans::Recorder;
use crate::spec::{Spec, TtsSpec};
use crate::stats::{finite_or_miss, median, quantile};
use crate::{check_flips, Outcome};
use dabs_core::{DabsConfig, DabsSolver, SolveResult, Termination};
use dabs_model::QuboModel;
use std::time::Instant;

/// Span lanes (Chrome `tid`): set-up passes and solves.
const LANE_SETUP: u64 = 0;
const LANE_SOLVE: u64 = 1;

/// One finished solve.
#[derive(Debug, Clone)]
struct SolveRec {
    pair: usize,
    instance: usize,
    ms: f64,
    reached: bool,
    flips: u64,
    batches: u64,
    restarts: u32,
}

struct Prepared {
    models: Vec<QuboModel>,
    targets: Vec<i64>,
}

fn solver(devices: usize, seed: u64) -> DabsSolver {
    let mut cfg = DabsConfig::dabs(devices, 1);
    cfg.seed = seed;
    DabsSolver::new(cfg).expect("benchmark solver config is valid")
}

/// Check a solve's output against the model: the reported energy must be
/// the energy of the reported vector, and the target flag must agree with
/// it.
fn check(model: &QuboModel, target: i64, r: &SolveResult) -> Result<(), String> {
    let e = model.energy(&r.best);
    if e != r.energy {
        return Err(format!(
            "reported energy {} but the vector has {e}",
            r.energy
        ));
    }
    if r.reached_target != (e <= target) {
        return Err(format!(
            "reached_target={} with energy {e} against target {target}",
            r.reached_target
        ));
    }
    Ok(())
}

fn rec_of(pair: usize, instance: usize, r: &SolveResult, ms: f64) -> SolveRec {
    SolveRec {
        pair,
        instance,
        ms,
        reached: r.reached_target,
        flips: r.flips,
        batches: r.batches,
        restarts: r.restarts,
    }
}

fn solve_untraced(model: &QuboModel, t: &TtsSpec, seed: u64, target: i64) -> (SolveResult, f64) {
    let solver = solver(t.devices, seed);
    let start = Instant::now();
    let r = solver.run_sequential(model, Termination::target(target).with_batches(t.batch_cap));
    (r, start.elapsed().as_secs_f64() * 1e3)
}

fn solve_traced(
    model: &QuboModel,
    t: &TtsSpec,
    seed: u64,
    target: i64,
    rec: &Recorder,
    op: u64,
    batch_us: &mut Vec<f64>,
) -> (SolveResult, f64) {
    let solver = solver(t.devices, seed);
    let root = rec.now_us();
    let start = Instant::now();
    let term = Termination::target(target).with_batches(t.batch_cap);
    let mut unit = solver.start_unit(model, term, None, None);
    loop {
        let s = rec.now_us();
        let b = Instant::now();
        let done = unit.step(1);
        let us = b.elapsed().as_secs_f64() * 1e6;
        rec.span("core.step", LANE_SOLVE, op, s);
        batch_us.push(us);
        if done {
            break;
        }
    }
    let r = unit.finish().result;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    rec.span("solve", LANE_SOLVE, op, root);
    (r, ms)
}

/// Set-up: generate, build and materialize every instance, `setup_reps`
/// times. Returns the last pass's models and per-pass seconds for the
/// whole pass and for each layer.
fn setup(t: &TtsSpec, rec: &Recorder) -> Result<(Vec<QuboModel>, [Vec<f64>; 4]), String> {
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut models = Vec::new();
    for rep in 0..t.setup_reps.max(1) {
        let op = rep as u64;
        let root = rec.now_us();
        let pass = Instant::now();
        let mut layer = [0.0f64; 3];
        let mut built = Vec::with_capacity(t.instances.len());
        for inst in &t.instances {
            let (s, a) = (rec.now_us(), Instant::now());
            let g = generate(&inst.def)?;
            layer[0] += a.elapsed().as_secs_f64();
            rec.span("problems.generate", LANE_SETUP, op, s);
            let (s, a) = (rec.now_us(), Instant::now());
            let model = build_model(&inst.def, &g);
            layer[1] += a.elapsed().as_secs_f64();
            rec.span("model.build", LANE_SETUP, op, s);
            let (s, a) = (rec.now_us(), Instant::now());
            materialize(&model);
            layer[2] += a.elapsed().as_secs_f64();
            rec.span("model.materialize", LANE_SETUP, op, s);
            drop(g);
            built.push(model);
        }
        times[0].push(pass.elapsed().as_secs_f64());
        rec.span("setup", LANE_SETUP, op, root);
        for (i, v) in layer.into_iter().enumerate() {
            times[i + 1].push(v);
        }
        models = built;
    }
    Ok((models, times))
}

/// Untimed checks on the built models: each must equal what the server's
/// `ProblemSpec::build` makes from the same triple, on the same kernel;
/// then resolve the stored targets.
fn prepare(
    t: &TtsSpec,
    spec: &Spec,
    models: Vec<QuboModel>,
    out: &mut Outcome,
) -> Result<Prepared, String> {
    let mut targets = Vec::new();
    for (inst, model) in t.instances.iter().zip(&models) {
        let (reference, _) = inst.def.problem_spec().build()?;
        if &reference != model || reference.kernel_kind() != model.kernel_kind() {
            out.invalid(format!(
                "{}: model differs from ProblemSpec::build",
                inst.def.name
            ));
        }
        let (target, recomputed) = crate::TARGETS.resolve(inst, model, spec.sa_runs, spec.sa_seed);
        if recomputed {
            out.note(format!(
                "{}: stored target stale, recomputed {target}",
                inst.def.name
            ));
        }
        targets.push(target);
    }
    Ok(Prepared { models, targets })
}

pub fn run(
    workload: &str,
    t: &TtsSpec,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    rec: &Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let (models, setup_times) = setup(t, rec)?;
    let p = prepare(t, spec, models, out)?;
    // Warm-up: a few batches per instance, untimed.
    for (m, &target) in p.models.iter().zip(&p.targets) {
        solver(t.devices, 0).run_sequential(m, Termination::target(target).with_batches(8));
    }

    let pairs = PairList::new(p.models.len(), t.pairs_per_instance, t.pair_seed, seed);
    let budget = if rec.enabled() {
        seconds * 0.45
    } else {
        seconds
    };
    let mut solves: Vec<SolveRec> = Vec::new();
    let began = Instant::now();
    while began.elapsed().as_secs_f64() < budget {
        let (pair, inst, s) = pairs.get(solves.len());
        let (r, ms) = solve_untraced(&p.models[inst], t, s, p.targets[inst]);
        if let Err(e) = check(&p.models[inst], p.targets[inst], &r) {
            out.fail(format!("{} seed {s}: {e}", t.instances[inst].def.name));
        }
        solves.push(rec_of(pair, inst, &r, ms));
    }

    // Same code, same pairs, same work: replay a prefix and compare.
    for (i, first) in solves.iter().take(t.exact_replays).enumerate() {
        let (_, inst, s) = pairs.get(i);
        let (r, _) = solve_untraced(&p.models[inst], t, s, p.targets[inst]);
        if r.flips != first.flips || r.batches != first.batches {
            out.invalid(format!(
                "pair {i} replay did {} flips / {} batches, first run {} / {}",
                r.flips, r.batches, first.flips, first.batches
            ));
        }
    }

    let flips: Vec<(usize, u64)> = solves.iter().map(|s| (s.pair, s.flips)).collect();
    if let Err(e) = check_flips(workload, &flips) {
        out.invalid(e);
    }

    let setup_s = median(&setup_times[0]);
    for (rep, secs) in setup_times[0].iter().enumerate() {
        out.count(&format!("setup_ms.rep{rep}"), secs * 1e3);
    }
    out.attempted = solves.len() as u64;
    report_e2e(out, &solves, setup_s, spec.serve.latency_limit_ms);
    for (i, inst) in t.instances.iter().enumerate() {
        let mine: Vec<f64> = solves
            .iter()
            .filter(|s| s.instance == i)
            .map(|s| if s.reached { s.ms } else { f64::INFINITY })
            .collect();
        let p50 = if mine.is_empty() {
            0.0
        } else {
            finite_or_miss(median(&mine))
        };
        out.count(&format!("tts_p50_ms.{}", inst.def.name), p50);
    }

    if rec.enabled() {
        traced(t, &p, &pairs, &solves, &setup_times, rec, out);
    }
    Ok(())
}

fn report_e2e(out: &mut Outcome, solves: &[SolveRec], setup_s: f64, limit_ms: f64) {
    let tts: Vec<f64> = solves
        .iter()
        .map(|s| if s.reached { s.ms } else { f64::INFINITY })
        .collect();
    let call: Vec<f64> = solves.iter().map(|s| s.ms).collect();
    let n = solves.len().max(1) as f64;
    let ok = solves.iter().filter(|s| s.reached).count() as f64;
    let ok_in_limit = solves
        .iter()
        .filter(|s| s.reached && s.ms <= limit_ms)
        .count() as f64;
    out.e2e("setup_s", setup_s);
    out.e2e_quantile("tts_p50_ms", &tts, 0.5);
    out.e2e_quantile("tts_p90_ms", &tts, 0.9);
    out.e2e("solve_ok_ratio", ok / n);
    out.e2e_quantile("job_p50_ms", &call, 0.5);
    out.e2e_quantile("job_p99_ms", &call, 0.99);
    out.e2e("job_ok_ratio", ok_in_limit / n);
    out.count("solves", solves.len() as f64);
}

fn traced(
    t: &TtsSpec,
    p: &Prepared,
    pairs: &PairList,
    untraced: &[SolveRec],
    setup_times: &[Vec<f64>; 4],
    rec: &Recorder,
    out: &mut Outcome,
) {
    let before = SolverCounters::now();
    let mut batch_us = Vec::new();
    let mut traced = Vec::with_capacity(untraced.len());
    for (i, first) in untraced.iter().enumerate() {
        let (pair, inst, s) = pairs.get(i);
        let op = 1000 + i as u64;
        let (r, ms) = solve_traced(
            &p.models[inst],
            t,
            s,
            p.targets[inst],
            rec,
            op,
            &mut batch_us,
        );
        if let Err(e) = check(&p.models[inst], p.targets[inst], &r) {
            out.fail(format!(
                "traced {} seed {s}: {e}",
                t.instances[inst].def.name
            ));
        }
        if r.flips != first.flips {
            out.invalid(format!(
                "pair {i}: traced run did {} flips, untraced {}",
                r.flips, first.flips
            ));
        }
        traced.push(rec_of(pair, inst, &r, ms));
    }
    let refs: Vec<&QuboModel> = p.models.iter().collect();
    side::report(out, &before, &SolverCounters::now(), &refs);
    let ms = |v: &Vec<f64>| median(v) * 1e3;
    out.layer("problems.generate_ms", ms(&setup_times[1]));
    out.layer("model.build_ms", ms(&setup_times[2]));
    out.layer("model.materialize_ms", ms(&setup_times[3]));
    out.layer_quantiles("core.batch_us", &batch_us);
    let reached: Vec<&SolveRec> = traced.iter().filter(|s| s.reached).collect();
    out.layer(
        "core.flips_to_target",
        reached.iter().map(|s| s.flips as f64).sum(),
    );
    out.layer(
        "core.batches_to_target",
        reached.iter().map(|s| s.batches as f64).sum(),
    );
    out.layer(
        "core.restarts",
        traced.iter().map(|s| f64::from(s.restarts)).sum(),
    );
    let sum = |v: &[SolveRec]| v.iter().map(|s| s.ms).sum::<f64>();
    out.layer(
        "bench.trace_overhead",
        sum(&traced) / sum(untraced).max(1e-9),
    );
    let tts: Vec<f64> = traced
        .iter()
        .map(|s| if s.reached { s.ms } else { f64::INFINITY })
        .collect();
    out.count(
        "traced_tts_p50_ms",
        quantile(&tts, 0.5).map_or(0.0, finite_or_miss),
    );
}
