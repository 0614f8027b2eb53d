//! Benchmark instances and their fixed targets.
//!
//! An instance is named in `spec.json` by the same `(kind, n, seed)` triple
//! the server's `ProblemSpec` takes, so the in-process workloads and the
//! served large jobs chase the same models. Building one is split into the
//! two layers the benchmark times separately: `dabs-problems` generates the
//! problem, `dabs-model` turns it into a QUBO (and, for the dense kernel,
//! materializes the strip matrix on first access).
//!
//! Targets come from `dabs-baselines` simulated annealing, not from the
//! engine under test, and are stored in `targets.json` keyed by a
//! fingerprint of the model's weights.

use crate::spec::BenchInstance;
use dabs_baselines::sa::{SaConfig, SimulatedAnnealing};
use dabs_model::{KernelChoice, KernelKind, QuboModel};
use dabs_problems::{gset, qaplib, MaxCutProblem, QapInstance, QaspInstance, Topology};
use dabs_rng::{Rng64, SplitMix64};
use dabs_server::ProblemSpec;
use serde::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// One benchmark instance, as named in `spec.json`.
#[derive(Debug, Clone)]
pub struct InstanceDef {
    pub name: String,
    pub kind: String,
    pub n: usize,
    pub seed: u64,
    /// `"dense"` forces the dense kernel; otherwise the model's own
    /// density policy picks.
    pub kernel: KernelChoice,
}

impl InstanceDef {
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let name = j
            .get_str("name")
            .ok_or("instance needs a name")?
            .to_string();
        let kernel = match j.get_str("kernel") {
            Some(k) => KernelChoice::from_name(k)?,
            None => KernelChoice::Auto,
        };
        Ok(Self {
            kind: j
                .get_str("kind")
                .ok_or("instance needs a kind")?
                .to_string(),
            n: j.get_u64("n").ok_or("instance needs n")? as usize,
            seed: j.get_u64("seed").ok_or("instance needs a seed")?,
            kernel,
            name,
        })
    }

    /// The server-side spelling of this instance.
    pub fn problem_spec(&self) -> ProblemSpec {
        ProblemSpec {
            kind: self.kind.clone(),
            n: Some(self.n),
            seed: self.seed,
            inline: None,
            kernel: self.kernel,
        }
    }
}

/// A generated problem, before it becomes a QUBO.
pub enum Generated {
    MaxCut(MaxCutProblem),
    Qap(QapInstance),
    Qasp(Box<QaspInstance>),
}

/// The `dabs-problems` layer: generate the problem with the same size rules
/// as `ProblemSpec::build`.
pub fn generate(def: &InstanceDef) -> Result<Generated, String> {
    let (n, seed) = (def.n, def.seed);
    let square_side = || {
        let side = (n as f64).sqrt().round() as usize;
        if side * side == n {
            Ok(side)
        } else {
            Err(format!("{} needs a square n, got {n}", def.kind))
        }
    };
    Ok(match def.kind.as_str() {
        "k2000" => Generated::MaxCut(gset::k2000_like(n, seed)),
        "g22" => Generated::MaxCut(gset::g22_like(n, n * n / 200, seed)),
        "g39" => Generated::MaxCut(gset::g39_like(n, n * n * 6 / 2000, seed)),
        "tai" => Generated::Qap(qaplib::tai_like(n, seed)),
        "nug" => {
            let side = square_side()?;
            Generated::Qap(qaplib::nug_like(side, side, seed))
        }
        "tho" => {
            let side = square_side()?;
            Generated::Qap(qaplib::tho_like(side, side, seed))
        }
        "qasp" => {
            let cells = ((n as f64 / 8.0).sqrt().ceil() as usize).max(2);
            let topo = Topology::pegasus_like(cells, cells, 14.0, seed);
            let target_edges = (n * 7).min(topo.edge_count());
            let topo = topo.with_faults(n.min(topo.n()), target_edges, seed);
            Generated::Qasp(Box::new(QaspInstance::generate(&topo, 16, seed)))
        }
        other => return Err(format!("unsupported instance kind {other:?}")),
    })
}

/// The `dabs-model` layer: build the QUBO and select its kernel.
pub fn build_model(def: &InstanceDef, generated: &Generated) -> QuboModel {
    let mut model = match generated {
        Generated::MaxCut(p) => p.to_qubo(),
        Generated::Qap(q) => q.to_qubo(q.auto_penalty()),
        Generated::Qasp(q) => q.ising().to_qubo().0,
    };
    model.select_kernel(def.kernel);
    model
}

/// First dense-strip access: the `n² × 8`-byte materialization a dense
/// solve would otherwise pay inside its first batch. No-op on CSR models.
pub fn materialize(model: &QuboModel) {
    if model.kernel_kind() == KernelKind::Dense {
        std::hint::black_box(model.dense_strips());
    }
}

/// Order-independent hash of the model's weights: identifies the instance
/// a stored target belongs to.
pub fn fingerprint(model: &QuboModel) -> String {
    let mix = |x: u64| {
        let mut s = SplitMix64::new(x);
        s.next_u64()
    };
    let mut h = mix(model.n() as u64);
    for (i, j, w) in model.adjacency().iter_edges() {
        h = h.wrapping_add(mix(((i as u64) << 40) ^ ((j as u64) << 20) ^ (w as u64)));
    }
    for (i, &d) in model.diag_slice().iter().enumerate() {
        h = h.wrapping_add(mix(!((i as u64) << 32) ^ (d as u64)));
    }
    format!("{:016x}-{}", h, model.edge_count())
}

/// Best energy of `k` simulated-annealing runs at `sweeps` sweeps, seeded
/// from `base_seed` and the instance name.
pub fn sa_target(model: &QuboModel, name: &str, sweeps: u64, k: usize, base_seed: u64) -> Vec<i64> {
    let mut seeder = SplitMix64::new(base_seed ^ name_hash(name));
    (0..k)
        .map(|_| {
            let cfg = SaConfig::scaled_to(model, sweeps, seeder.next_u64());
            SimulatedAnnealing::new(cfg).solve(model).energy
        })
        .collect()
}

fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A fixed list of `(instance, solver seed)` pairs, drawn once from
/// `list_seed`, walked cyclically in an order shuffled by `walk_seed` (the
/// run's `--seed`). Every run solves the same pairs, so a run that makes
/// whole passes does the same work whatever its seed, and a pair's flip
/// count can be compared across runs.
pub struct PairList {
    pairs: Vec<(usize, u64)>,
    order: Vec<usize>,
}

impl PairList {
    pub fn new(instances: usize, per_instance: usize, list_seed: u64, walk_seed: u64) -> Self {
        let mut seeds = SplitMix64::new(list_seed);
        let pairs: Vec<(usize, u64)> = (0..instances * per_instance.max(1))
            .map(|i| (i % instances, seeds.next_u64() >> 1))
            .collect();
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        dabs_rng::shuffle(&mut order, &mut SplitMix64::new(walk_seed ^ 0x7761_6C6B));
        Self { pairs, order }
    }

    /// The `i`-th step of the walk: `(pair index, instance, solver seed)`.
    pub fn get(&self, i: usize) -> (usize, usize, u64) {
        let idx = self.order[i % self.order.len()];
        let (inst, seed) = self.pairs[idx];
        (idx, inst, seed)
    }
}

/// A stored target.
#[derive(Debug, Clone)]
pub struct Target {
    pub fingerprint: String,
    pub sweeps: u64,
    pub energy: i64,
}

/// `targets.json`: one target per instance name.
#[derive(Debug, Clone, Default)]
pub struct Targets {
    pub by_name: BTreeMap<String, Target>,
}

impl Targets {
    pub fn parse(text: &str) -> Result<Self, String> {
        let j = Json::parse(text).map_err(|e| format!("targets.json: {e}"))?;
        let mut by_name = BTreeMap::new();
        if let Some(Json::Obj(pairs)) = j.get("instances") {
            for (name, t) in pairs {
                by_name.insert(
                    name.clone(),
                    Target {
                        fingerprint: t.get_str("fingerprint").unwrap_or("").to_string(),
                        sweeps: t.get_u64("sa_sweeps").unwrap_or(0),
                        energy: t.get_i64("target").ok_or("target needs an energy")?,
                    },
                );
            }
        }
        Ok(Self { by_name })
    }

    /// The target for `model`, recomputed with the given SA settings when
    /// the stored entry does not match the model's fingerprint or sweep
    /// count (the generator or the spec changed). Returns the energy and
    /// whether it was recomputed.
    pub fn resolve(
        &self,
        inst: &BenchInstance,
        model: &QuboModel,
        k: usize,
        seed: u64,
    ) -> (i64, bool) {
        let fp = fingerprint(model);
        match self.by_name.get(&inst.def.name) {
            Some(t) if t.fingerprint == fp && t.sweeps == inst.sa_sweeps => (t.energy, false),
            _ => {
                let runs = sa_target(model, &inst.def.name, inst.sa_sweeps, k, seed);
                (*runs.iter().min().expect("k >= 1"), true)
            }
        }
    }
}

/// Regenerate `targets.json` for `instances`.
pub fn write_targets(
    path: &Path,
    instances: &[BenchInstance],
    k: usize,
    seed: u64,
) -> Result<(), String> {
    let mut entries: Vec<(String, Json)> = Vec::new();
    for inst in instances {
        let def = &inst.def;
        let model = build_model(def, &generate(def)?);
        let runs = sa_target(&model, &def.name, inst.sa_sweeps, k, seed);
        let best = *runs.iter().min().expect("k >= 1");
        eprintln!(
            "target {:<12} n={:<5} SA runs {runs:?} -> {best}",
            def.name,
            model.n()
        );
        entries.push((
            def.name.clone(),
            Json::obj([
                ("fingerprint", Json::str(fingerprint(&model))),
                ("sa_sweeps", Json::from(inst.sa_sweeps)),
                ("target", Json::from(best)),
                (
                    "sa_energies",
                    Json::Arr(runs.into_iter().map(Json::from).collect()),
                ),
            ]),
        ));
    }
    let doc = Json::obj([
        (
            "about",
            Json::str("Generated by `perfbench --make-targets`; see spec.json \"targets\"."),
        ),
        ("sa_runs", Json::from(k)),
        ("sa_seed", Json::from(seed)),
        ("instances", Json::Obj(entries)),
    ]);
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}
