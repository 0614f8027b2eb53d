//! Typed view of `spec.json`, the benchmark's workload parameters.

use crate::instances::InstanceDef;
use serde::json::Json;

pub const SPEC_JSON: &str = include_str!("../spec.json");
pub const TARGETS_JSON: &str = include_str!("../targets.json");

/// One instance plus the SA sweep count its target is computed with.
#[derive(Debug, Clone)]
pub struct BenchInstance {
    pub def: InstanceDef,
    pub sa_sweeps: u64,
}

#[derive(Debug, Clone)]
pub struct TtsSpec {
    pub devices: usize,
    pub batch_cap: u64,
    pub setup_reps: usize,
    pub exact_replays: usize,
    pub pairs_per_instance: usize,
    pub pair_seed: u64,
    pub instances: Vec<BenchInstance>,
}

#[derive(Debug, Clone)]
pub struct SmallJobs {
    pub kind: String,
    pub n: usize,
    pub max_batches: u64,
    pub devices: usize,
    pub priority: i32,
    pub rate_per_s: f64,
    pub arrival_seed: u64,
}

#[derive(Debug, Clone)]
pub struct LargeJobs {
    pub every_ms: u64,
    pub max_batches: u64,
    pub units: u32,
    pub devices: usize,
    pub priority: i32,
    pub pairs_per_instance: usize,
    pub pair_seed: u64,
    pub instances: Vec<BenchInstance>,
}

#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub workers: usize,
    pub queue_capacity: usize,
    pub setup_reps: usize,
    pub wal_prefill_jobs: usize,
    pub small: SmallJobs,
    pub large: LargeJobs,
    pub latency_limit_ms: f64,
    pub drain_s: f64,
    pub max_gen_lag_p99_ms: f64,
    pub max_backlog_jobs: usize,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub sa_runs: usize,
    pub sa_seed: u64,
    pub tts: Vec<(String, TtsSpec)>,
    pub serve: ServeSpec,
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key)
        .ok_or_else(|| format!("spec.json: missing {key:?}"))
}

fn uint(j: &Json, key: &str) -> Result<u64, String> {
    field(j, key)?
        .as_u64()
        .ok_or_else(|| format!("spec.json: {key:?} must be a whole number"))
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    field(j, key)?
        .as_f64()
        .ok_or_else(|| format!("spec.json: {key:?} must be a number"))
}

fn instances(j: &Json) -> Result<Vec<BenchInstance>, String> {
    field(j, "instances")?
        .as_arr()
        .ok_or("spec.json: instances must be a list")?
        .iter()
        .map(|i| {
            Ok(BenchInstance {
                def: InstanceDef::from_json(i)?,
                sa_sweeps: uint(i, "sa_sweeps")?,
            })
        })
        .collect()
}

impl Spec {
    pub fn load() -> Result<Self, String> {
        let root = Json::parse(SPEC_JSON).map_err(|e| format!("spec.json: {e}"))?;
        let targets = field(&root, "targets")?;
        let w = field(&root, "workloads")?;
        let mut tts = Vec::new();
        for name in ["tts-sparse", "tts-dense"] {
            let t = field(w, name)?;
            tts.push((
                name.to_string(),
                TtsSpec {
                    devices: uint(t, "devices")? as usize,
                    batch_cap: uint(t, "batch_cap")?,
                    setup_reps: uint(t, "setup_reps")? as usize,
                    exact_replays: uint(t, "exact_replays")? as usize,
                    pairs_per_instance: uint(t, "pairs_per_instance")? as usize,
                    pair_seed: uint(t, "pair_seed")?,
                    instances: instances(t)?,
                },
            ));
        }
        let s = field(w, "serve-mixed")?;
        let small = field(s, "small")?;
        let large = field(s, "large")?;
        let serve = ServeSpec {
            workers: uint(s, "workers")? as usize,
            queue_capacity: uint(s, "queue_capacity")? as usize,
            setup_reps: uint(s, "setup_reps")? as usize,
            wal_prefill_jobs: uint(s, "wal_prefill_jobs")? as usize,
            small: SmallJobs {
                kind: field(small, "kind")?
                    .as_str()
                    .ok_or("small.kind")?
                    .to_string(),
                n: uint(small, "n")? as usize,
                max_batches: uint(small, "max_batches")?,
                devices: uint(small, "devices")? as usize,
                priority: uint(small, "priority")? as i32,
                rate_per_s: num(small, "rate_per_s")?,
                arrival_seed: uint(small, "arrival_seed")?,
            },
            large: LargeJobs {
                every_ms: uint(large, "every_ms")?,
                max_batches: uint(large, "max_batches")?,
                units: uint(large, "units")? as u32,
                devices: uint(large, "devices")? as usize,
                priority: uint(large, "priority")? as i32,
                pairs_per_instance: uint(large, "pairs_per_instance")? as usize,
                pair_seed: uint(large, "pair_seed")?,
                instances: instances(large)?,
            },
            latency_limit_ms: num(s, "latency_limit_ms")?,
            drain_s: num(s, "drain_s")?,
            max_gen_lag_p99_ms: num(s, "max_gen_lag_p99_ms")?,
            max_backlog_jobs: uint(s, "max_backlog_jobs")? as usize,
        };
        Ok(Self {
            sa_runs: uint(targets, "sa_runs")? as usize,
            sa_seed: uint(targets, "sa_seed")?,
            tts,
            serve,
        })
    }

    /// Every instance that needs a stored target.
    pub fn all_instances(&self) -> Vec<BenchInstance> {
        let mut all: Vec<BenchInstance> = self
            .tts
            .iter()
            .flat_map(|(_, t)| t.instances.iter().cloned())
            .collect();
        all.extend(self.serve.large.instances.iter().cloned());
        all
    }
}
