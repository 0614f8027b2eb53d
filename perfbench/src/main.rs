//! perfbench: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <tts-sparse|tts-dense|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! perfbench --make-targets      # rewrite perfbench/targets.json
//! ```
//!
//! The untraced run (`--trace 0`) prints the end-to-end metrics; the traced
//! run (`--trace 1`) prints the per-layer metrics and writes a Chrome
//! trace. The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; a fuller report with
//! the host record goes to `<out-dir>/<workload>-seed<n>-trace<t>.json`.
//! Exit code 0 means every output check passed, 1 a failed check, 2 a
//! usage or set-up error.

mod instances;
mod serve;
mod side;
mod spans;
mod spec;
mod stats;
mod tts;

use instances::Targets;
use serde::json::Json;
use spans::Recorder;
use spec::Spec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{LazyLock, OnceLock};

/// The stored targets, parsed once.
pub static TARGETS: LazyLock<Targets> =
    LazyLock::new(|| Targets::parse(spec::TARGETS_JSON).expect("targets.json parses"));

/// BENCHMARK.json names every metric the benchmark prints, with its unit:
/// `end_to_end` for the untraced run, `per_layer` for the traced one. A
/// per-layer metric of a layer the workload does not exercise reads 0, and
/// so does a percentile its sample cannot support, next to its `_n` count.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn declared(list: &str) -> Vec<(String, String)> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get_str(k)
                    .expect("metric has a name and a unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// What one run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set in the traced run, whose end-to-end numbers are not reported
    /// (and may rest on a shorter untraced phase).
    pub tracing: bool,
    pub attempted: u64,
    pub failed: u64,
    e2e: BTreeMap<String, f64>,
    layer: BTreeMap<String, f64>,
    counts: BTreeMap<String, f64>,
    /// Reasons the run is not valid (a wrong output, a work-count
    /// mismatch, a generator that fell behind).
    problems: Vec<String>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.insert(name.to_string(), value);
    }

    /// An end-to-end percentile. In the untraced run a sample too small to
    /// support it makes the run invalid: the name promises that percentile.
    pub fn e2e_quantile(&mut self, name: &str, values: &[f64], q: f64) {
        match stats::quantile(values, q) {
            Some(v) => self.e2e(name, stats::finite_or_miss(v)),
            None if self.tracing => {}
            None => self.invalid(format!(
                "{name}: {} samples cannot support p{}",
                values.len(),
                q * 100.0
            )),
        }
        self.counts.insert(format!("{name}.n"), values.len() as f64);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    /// `<prefix>_p50`, `<prefix>_p99` and `<prefix>_n` from a raw sample.
    pub fn layer_quantiles(&mut self, prefix: &str, values: &[f64]) {
        for (q, suffix) in [(0.5, "p50"), (0.99, "p99")] {
            let v = stats::quantile(values, q).map_or(0.0, stats::finite_or_miss);
            self.layer(&format!("{prefix}_{suffix}"), v);
        }
        self.layer(&format!("{prefix}_n"), values.len() as f64);
    }

    /// A number kept in the report file only.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.insert(name.to_string(), value);
    }

    /// A wrong output: counts as a failed operation and invalidates the run.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.invalid(msg);
    }

    pub fn invalid(&mut self, msg: String) {
        eprintln!("perfbench: INVALID: {msg}");
        self.problems.push(msg);
    }

    pub fn note(&mut self, msg: String) {
        eprintln!("perfbench: {msg}");
        self.notes.push(msg);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Where reports, traces, flip records and job-log scratch go.
static OUT_DIR: OnceLock<PathBuf> = OnceLock::new();

pub fn out_dir() -> PathBuf {
    OUT_DIR
        .get()
        .cloned()
        .unwrap_or_else(|| PathBuf::from(".perfbench"))
}

/// Flip counts per `(pair, flips)`, kept under the output directory per
/// build of the benchmark binary: every solve of a pair, in this run or an
/// earlier run of the same build, must do exactly the same work.
pub fn check_flips(workload: &str, flips: &[(usize, u64)]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let build = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let dir = out_dir().join("flips");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-{build:016x}.txt"));
    let mut known: BTreeMap<usize, u64> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (p, f) = l.split_once(' ')?;
            Some((p.parse().ok()?, f.parse().ok()?))
        })
        .collect();
    let before = known.len();
    for &(pair, f) in flips {
        match known.get(&pair) {
            Some(&k) if k != f => {
                return Err(format!(
                    "pair {pair}: {f} flips now, {k} in another solve of the same build"
                ))
            }
            Some(_) => {}
            None => {
                known.insert(pair, f);
            }
        }
    }
    if known.len() > before {
        let text: String = known.iter().map(|(p, f)| format!("{p} {f}\n")).collect();
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// nproc, CPU model, AVX-512 detection and the filesystem that holds
/// `dir` (where serve-mixed keeps its job log).
fn host_record(dir: &Path) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    #[cfg(target_arch = "x86_64")]
    let avx512 = std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    let avx512 = false;
    let abs = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let fs = std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|m| {
            m.lines()
                .filter_map(|l| {
                    let f: Vec<&str> = l.split_whitespace().collect();
                    (f.len() > 2 && abs.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
                })
                .max()
                .map(|(_, t)| t)
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("nproc", Json::from(nproc)),
        ("cpu_model", Json::str(cpu)),
        ("avx512f", Json::from(avx512)),
        ("wal_dir_fs", Json::str(fs)),
    ])
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--make-targets" => return Ok(None),
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out-dir" => {
                let _ = OUT_DIR.set(PathBuf::from(val()?));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    }))
}

fn metrics_json(values: &BTreeMap<String, f64>, names: &[(String, String)]) -> Json {
    Json::Obj(
        names
            .iter()
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                (
                    name.clone(),
                    Json::obj([("value", Json::Float(v)), ("unit", Json::str(unit.clone()))]),
                )
            })
            .collect(),
    )
}

fn run(args: &Args, spec: &Spec) -> Result<Outcome, String> {
    let mut out = Outcome {
        tracing: args.trace,
        ..Outcome::default()
    };
    let rec = Recorder::new(args.trace, 1 << 17);
    match args.workload.as_str() {
        name @ ("tts-sparse" | "tts-dense") => {
            let (_, t) = spec
                .tts
                .iter()
                .find(|(n, _)| n == name)
                .expect("spec has both tts workloads");
            tts::run(name, t, spec, args.seed, args.seconds, &rec, &mut out)?;
        }
        "serve-mixed" => serve::run(&spec.serve, spec, args.seed, args.seconds, &rec, &mut out)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (tts-sparse, tts-dense, serve-mixed)"
            ))
        }
    }
    out.e2e("peak_rss_mb", peak_rss_mb());
    if let Some((events, dropped)) = rec.finish() {
        let (self_us, roots) = spans::self_times(&events);
        for (name, us) in self_us {
            out.layer(&format!("self_ms.{name}"), us / 1e3);
        }
        out.count("trace.spans", events.len() as f64);
        out.count("trace.dropped", dropped as f64);
        out.count("trace.roots", roots as f64);
        let path = out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        spans::write_chrome(&path, &events)?;
        eprintln!("perfbench: chrome trace written to {}", path.display());
    }
    Ok(out)
}

fn write_report(args: &Args, out: &Outcome) {
    let dir = out_dir();
    let obj = |m: &BTreeMap<String, f64>| {
        Json::Obj(
            m.iter()
                .map(|(k, v)| (k.clone(), Json::Float(*v)))
                .collect(),
        )
    };
    let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::str(s.clone())).collect());
    let doc = Json::obj([
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("host", host_record(&dir)),
        ("correct", Json::from(out.correct())),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("end_to_end", obj(&out.e2e)),
        ("per_layer", obj(&out.layer)),
        ("counts", obj(&out.counts)),
        ("problems", strs(&out.problems)),
        ("notes", strs(&out.notes)),
    ]);
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, format!("{doc}\n")))
    {
        eprintln!("perfbench: cannot write report {}: {e}", path.display());
    }
}

fn main() {
    let spec = match Spec::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("targets.json");
            let res =
                instances::write_targets(&path, &spec.all_instances(), spec.sa_runs, spec.sa_seed);
            if let Err(e) = res {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match run(&args, &spec) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names = declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    let values = if args.trace { &out.layer } else { &out.e2e };
    let mut undeclared: Vec<String> = values
        .keys()
        .filter(|k| !names.iter().any(|(n, _)| n == *k))
        .map(|k| format!("{k} is measured but not declared in BENCHMARK.json"))
        .collect();
    if !args.trace {
        undeclared.extend(
            names
                .iter()
                .filter(|(n, _)| !values.contains_key(n))
                .map(|(n, _)| format!("{n} is declared but was not measured")),
        );
    }
    for msg in undeclared {
        out.invalid(msg);
    }
    write_report(&args, &out);
    let values = if args.trace { &out.layer } else { &out.e2e };
    let metrics = metrics_json(values, &names);
    let result = Json::obj([
        ("correct", Json::from(out.correct())),
        ("attempted", Json::from(out.attempted.max(1))),
        ("failed", Json::from(out.failed)),
        ("metrics", metrics),
    ]);
    println!("{result}");
    std::process::exit(if out.correct() { 0 } else { 1 });
}
