//! Span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into each
//! layer, with `dabs_obs::Tracer`. Every span of one operation (a solve, a
//! served job, a set-up pass) carries that operation's id; the root span is
//! the operation itself. After the run the spans are taken out of the ring
//! once, turned into per-span self time (duration minus the time its child
//! spans cover) and written as a Chrome trace.

use dabs_obs::{TraceEvent, Tracer};
use std::collections::BTreeMap;
use std::path::Path;

/// Root span names: one per operation.
pub const ROOTS: [&str; 3] = ["setup", "solve", "job"];

/// Every span name the benchmark records, roots first.
pub const SPANS: [&str; 9] = [
    "setup",
    "solve",
    "job",
    "problems.generate",
    "model.build",
    "model.materialize",
    "core.step",
    "server.submit",
    "server.wait",
];

/// Optional recorder: `None` in the untraced run, so timing code is the
/// same call either way and costs one branch when off.
pub struct Recorder {
    tracer: Option<Tracer>,
}

impl Recorder {
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            tracer: enabled.then(|| Tracer::with_capacity(capacity)),
        }
    }

    pub fn enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Microseconds on the tracer's clock (0 when off).
    pub fn now_us(&self) -> u64 {
        self.tracer.as_ref().map_or(0, Tracer::now_us)
    }

    /// Record a finished span from `start_us` to now.
    pub fn span(&self, name: &'static str, lane: u64, op: u64, start_us: u64) {
        if let Some(t) = &self.tracer {
            let end = t.now_us();
            t.complete(
                name,
                "bench",
                lane,
                op,
                start_us,
                end.saturating_sub(start_us),
                "",
                0,
            );
        }
    }

    /// Record a span with explicit bounds on the tracer's clock.
    pub fn complete(&self, name: &'static str, lane: u64, op: u64, ts_us: u64, dur_us: u64) {
        if let Some(t) = &self.tracer {
            t.complete(name, "bench", lane, op, ts_us, dur_us, "", 0);
        }
    }

    /// Take the surviving spans out (once, at the end of the run).
    pub fn finish(&self) -> Option<(Vec<TraceEvent>, u64)> {
        self.tracer.as_ref().map(|t| {
            let snap = t.snapshot();
            (snap.events, snap.dropped)
        })
    }
}

/// Mean self time per operation for each span name, in microseconds, and
/// the number of root operations seen. A child's self time is its own
/// duration (no span nests below the children); a root's self time is its
/// duration minus the union of its children's intervals. Each name is
/// averaged over the operations of the root kind it was recorded under.
pub fn self_times(events: &[TraceEvent]) -> (BTreeMap<&'static str, f64>, usize) {
    let mut by_op: BTreeMap<(u64, u64), Vec<&TraceEvent>> = BTreeMap::new();
    for ev in events {
        by_op.entry((ev.tid, ev.id)).or_default().push(ev);
    }
    let mut total: BTreeMap<&'static str, f64> = SPANS.iter().map(|s| (*s, 0.0)).collect();
    let mut root_of: BTreeMap<&'static str, &'static str> = BTreeMap::new();
    let mut ops: BTreeMap<&'static str, usize> = BTreeMap::new();
    for evs in by_op.values() {
        let Some(root) = evs.iter().find(|ev| ROOTS.contains(&ev.name)) else {
            continue; // root lost to the ring: skip the partial operation
        };
        *ops.entry(root.name).or_insert(0) += 1;
        let mut children: Vec<(u64, u64)> = Vec::new();
        for ev in evs.iter().filter(|ev| !ROOTS.contains(&ev.name)) {
            *total.entry(ev.name).or_insert(0.0) += ev.dur_us as f64;
            root_of.insert(ev.name, root.name);
            children.push((ev.ts_us, ev.ts_us + ev.dur_us));
        }
        children.sort_unstable();
        let (lo, hi) = (root.ts_us, root.ts_us + root.dur_us);
        let (mut covered, mut cursor) = (0u64, lo);
        for &(s, e) in &children {
            let (s, e) = (s.max(cursor), e.min(hi));
            if e > s {
                covered += e - s;
                cursor = e;
            }
        }
        *total.entry(root.name).or_insert(0.0) += root.dur_us.saturating_sub(covered) as f64;
        root_of.insert(root.name, root.name);
    }
    let roots = ops.values().sum();
    let mean = total
        .into_iter()
        .map(|(name, us)| {
            let n = root_of
                .get(name)
                .and_then(|r| ops.get(r))
                .copied()
                .unwrap_or(0);
            (name, if n > 0 { us / n as f64 } else { 0.0 })
        })
        .collect();
    (mean, roots)
}

/// Write the spans as a Chrome trace document.
pub fn write_chrome(path: &Path, events: &[TraceEvent]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, dabs_obs::chrome::export_events(events))
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dabs_obs::TraceEvent;

    fn ev(name: &'static str, id: u64, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name,
            cat: "bench",
            ph: dabs_obs::Phase::Complete,
            ts_us: ts,
            dur_us: dur,
            tid: 0,
            id,
            arg_name: "",
            arg: 0,
        }
    }

    #[test]
    fn root_self_time_excludes_children() {
        let evs = [
            ev("solve", 1, 0, 100),
            ev("core.step", 1, 10, 20),
            ev("core.step", 1, 40, 30),
            ev("solve", 2, 200, 50),
        ];
        let (t, roots) = self_times(&evs);
        assert_eq!(roots, 2);
        // Per solve: (50 + 50) / 2 root self time, 50 / 2 step time.
        assert_eq!(t["solve"], 50.0);
        assert_eq!(t["core.step"], 25.0);
    }
}
