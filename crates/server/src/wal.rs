//! Durable job log: a write-ahead record of admissions and terminals.
//!
//! With `--wal-dir` set, every *accepted* submit appends an `admit` record
//! (spec included) before the client sees its ack, and every terminal
//! transition appends a `terminal` record via the registry's
//! [`TerminalHook`](crate::job::TerminalHook). On restart,
//! [`Wal::open`] replays the log: jobs with an `admit` but no `terminal`
//! were queued or running at crash time and are re-admitted; terminal jobs
//! are re-registered already-finished so late `result`/`status` requests —
//! and idempotent resubmits — still resolve.
//!
//! **Durability contract: at-least-once.** Appends are written immediately
//! but fsynced by a background flusher that coalesces bursts, so a crash
//! can lose the last few records — a job the client was just told about
//! may be forgotten, never half-remembered. Clients that attach an
//! `idempotency_key` can therefore resubmit blindly: a surviving record
//! collapses the retry, a lost one re-admits, and either way exactly one
//! job runs per key.
//!
//! The format is the protocol's own newline-delimited JSON. A torn tail
//! (partial last line from a crash mid-write) is truncated on replay; the
//! log is compacted on every open (live admits plus a bounded window of
//! recent terminals), so it tracks live load, not lifetime history.

use crate::chaos::{chaos_hit, FaultPlan, FaultSite};
use crate::job::JobPhase;
use crate::obs::net_obs;
use crate::protocol::JobId;
use crate::spec::JobSpec;
use dabs_core::SolveResult;
use serde::json::Json;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Terminal records kept across a compaction. Mirrors the registry's
/// retention window: enough for late `result` requests and idempotency
/// collapse, bounded so the log cannot grow with lifetime job count.
pub const WAL_TERMINAL_RETENTION: usize = 1024;

/// One durable log record.
///
/// `Admit` inlines the full spec rather than boxing it: records are
/// encoded to their line and dropped immediately (append) or consumed
/// one at a time (replay) — they are never held in bulk, so the variant
/// size difference buys nothing to optimize.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// The job was accepted by the pool (spec included so replay can
    /// re-admit without any other state).
    Admit { job: JobId, spec: JobSpec },
    /// The job reached a terminal phase.
    Terminal {
        job: JobId,
        phase: JobPhase,
        result: Option<Box<SolveResult>>,
        error: Option<String>,
    },
    /// The job's units panicked repeatedly and the job was quarantined —
    /// it must never be re-executed, including across a restart.
    Quarantine { job: JobId },
}

impl WalRecord {
    pub fn to_json(&self) -> Json {
        match self {
            WalRecord::Admit { job, spec } => Json::obj([
                ("rec", Json::str("admit")),
                ("job", (*job).into()),
                ("spec", spec.to_json()),
            ]),
            WalRecord::Terminal {
                job,
                phase,
                result,
                error,
            } => Json::obj([
                ("rec", Json::str("terminal")),
                ("job", (*job).into()),
                ("phase", Json::str(phase.name())),
                (
                    "result",
                    result.as_ref().map(|r| r.to_json()).unwrap_or(Json::Null),
                ),
                ("error", error.as_ref().map(|e| Json::str(e.clone())).into()),
            ]),
            WalRecord::Quarantine { job } => {
                Json::obj([("rec", Json::str("quarantine")), ("job", (*job).into())])
            }
        }
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        let rec = j.get_str("rec").ok_or("wal record needs a \"rec\" field")?;
        let job = j.get_u64("job").ok_or("wal record needs a \"job\" id")?;
        match rec {
            "admit" => {
                let spec = JobSpec::from_json(j.get("spec").ok_or("admit needs a \"spec\"")?)?;
                Ok(WalRecord::Admit { job, spec })
            }
            "terminal" => {
                let phase_name = j.get_str("phase").ok_or("terminal needs a \"phase\"")?;
                let phase = JobPhase::from_name(phase_name)
                    .filter(|p| p.is_terminal())
                    .ok_or_else(|| format!("bad terminal phase {phase_name:?}"))?;
                let result = match j.get("result") {
                    None | Some(Json::Null) => None,
                    Some(r) => Some(Box::new(SolveResult::from_json(r)?)),
                };
                Ok(WalRecord::Terminal {
                    job,
                    phase,
                    result,
                    error: j.get_str("error").map(String::from),
                })
            }
            "quarantine" => Ok(WalRecord::Quarantine { job }),
            other => Err(format!("unknown wal record {other:?}")),
        }
    }

    /// Encode as one log line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_json().to_string()
    }

    /// Parse one log line.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let j = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        Self::from_json(&j)
    }
}

/// A terminal job reconstructed from the log.
#[derive(Debug, Clone)]
pub struct ReplayedTerminal {
    pub job: JobId,
    pub spec: JobSpec,
    pub phase: JobPhase,
    pub result: Option<SolveResult>,
    pub error: Option<String>,
}

/// What [`Wal::open`] recovered from an existing log.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Jobs admitted but not terminal at crash time, in admission order —
    /// these need re-admission.
    pub live: Vec<(JobId, JobSpec)>,
    /// Terminal jobs within the retained window, in admission order.
    pub terminals: Vec<ReplayedTerminal>,
    /// Highest job id seen anywhere in the log (0 when empty); fresh
    /// allocation must resume above it.
    pub max_job_id: JobId,
    /// Bytes dropped from a torn tail (crash mid-append).
    pub truncated_bytes: u64,
    /// Jobs with a durable quarantine record, restricted to ids still in
    /// `live` or `terminals`. A live quarantined job must not be
    /// re-admitted: it registers as failed instead.
    pub quarantined: Vec<JobId>,
}

/// Shared flusher bookkeeping: how many records have been written vs
/// durably synced.
struct FlushState {
    appended: u64,
    synced: u64,
    closed: bool,
}

struct WalInner {
    /// Appender handle; writes go through this under the lock.
    file: Mutex<File>,
    state: Mutex<FlushState>,
    cv: Condvar,
    /// Declared degraded mode: set by any write/fsync failure, cleared by
    /// the next successful sync. While set, the flusher retries the sync
    /// on a short timer so durability heals without waiting for traffic.
    degraded: AtomicBool,
    /// Failed writes and syncs of this log (the process-wide
    /// `wal.errors` gauge sums every log in the process).
    errors: AtomicU64,
    /// Fault-injection plan (`None` in production: one branch).
    chaos: Option<Arc<FaultPlan>>,
}

impl WalInner {
    /// Declare a failed write or sync: tick the error counters and enter
    /// degraded mode.
    fn fail(&self) {
        net_obs().wal_errors.inc();
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.degraded.store(true, Ordering::Relaxed);
    }
}

/// Append-only handle to the durable job log. Cloning is cheap (shared
/// inner); the flusher thread lives as long as the last clone.
pub struct Wal {
    inner: Arc<WalInner>,
    path: PathBuf,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl Wal {
    /// Open (or create) the log at `dir/jobs.wal`, replaying and compacting
    /// any existing contents. Returns the handle plus what was recovered.
    pub fn open(dir: &Path) -> std::io::Result<(Wal, WalReplay)> {
        Self::open_with_chaos(dir, None)
    }

    /// [`Wal::open`] with a fault-injection plan armed on the write and
    /// fsync sites.
    pub fn open_with_chaos(
        dir: &Path,
        chaos: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<(Wal, WalReplay)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("jobs.wal");
        let replay = match File::open(&path) {
            Ok(mut f) => {
                let mut raw = Vec::new();
                f.read_to_end(&mut raw)?;
                Self::replay_bytes(&raw)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => WalReplay::default(),
            Err(e) => return Err(e),
        };
        net_obs().wal_replayed_live.add(replay.live.len() as u64);
        net_obs()
            .wal_replayed_terminal
            .add(replay.terminals.len() as u64);
        net_obs().wal_truncated_bytes.add(replay.truncated_bytes);

        // Compact: rewrite the log as the recovered state (terminal pairs
        // first, then live admits, preserving admission order within each),
        // via tmp-file + rename so a crash mid-compaction leaves the old
        // log intact.
        let tmp = dir.join("jobs.wal.tmp");
        {
            let mut out = File::create(&tmp)?;
            let mut buf = String::new();
            for t in &replay.terminals {
                buf.push_str(
                    &WalRecord::Admit {
                        job: t.job,
                        spec: t.spec.clone(),
                    }
                    .encode(),
                );
                buf.push('\n');
                buf.push_str(
                    &WalRecord::Terminal {
                        job: t.job,
                        phase: t.phase,
                        result: t.result.clone().map(Box::new),
                        error: t.error.clone(),
                    }
                    .encode(),
                );
                buf.push('\n');
                if replay.quarantined.contains(&t.job) {
                    buf.push_str(&WalRecord::Quarantine { job: t.job }.encode());
                    buf.push('\n');
                }
            }
            for (job, spec) in &replay.live {
                buf.push_str(
                    &WalRecord::Admit {
                        job: *job,
                        spec: spec.clone(),
                    }
                    .encode(),
                );
                buf.push('\n');
                if replay.quarantined.contains(job) {
                    buf.push_str(&WalRecord::Quarantine { job: *job }.encode());
                    buf.push('\n');
                }
            }
            out.write_all(buf.as_bytes())?;
            out.sync_data()?;
        }
        std::fs::rename(&tmp, &path)?;
        // Best effort: make the rename itself durable.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }

        let file = OpenOptions::new().append(true).open(&path)?;
        let sync_handle = file.try_clone()?;
        let inner = Arc::new(WalInner {
            file: Mutex::new(file),
            state: Mutex::new(FlushState {
                appended: 0,
                synced: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            degraded: AtomicBool::new(false),
            errors: AtomicU64::new(0),
            chaos,
        });
        let flusher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("dabs-wal".into())
                .spawn(move || flusher_loop(&inner, &sync_handle))
                .expect("spawn wal flusher")
        };
        let wal = Wal {
            inner,
            path,
            flusher: Mutex::new(Some(flusher)),
        };
        Ok((wal, replay))
    }

    /// Parse a log image: good records up to the first torn/garbled line,
    /// folded into recovered state. Terminals beyond the retention window
    /// are dropped oldest-first.
    fn replay_bytes(raw: &[u8]) -> WalReplay {
        let mut replay = WalReplay::default();
        let mut live: Vec<(JobId, JobSpec)> = Vec::new();
        let mut terminals: Vec<ReplayedTerminal> = Vec::new();
        let mut quarantined: Vec<JobId> = Vec::new();
        let mut good = 0usize;
        let mut pos = 0usize;
        while pos < raw.len() {
            let Some(nl) = raw[pos..].iter().position(|&b| b == b'\n') else {
                break; // no newline: torn tail
            };
            let line = &raw[pos..pos + nl];
            let Ok(text) = std::str::from_utf8(line) else {
                break;
            };
            let Ok(rec) = WalRecord::parse_line(text) else {
                break; // garbled record: stop, everything after is suspect
            };
            pos += nl + 1;
            good = pos;
            match rec {
                WalRecord::Admit { job, spec } => {
                    replay.max_job_id = replay.max_job_id.max(job);
                    live.push((job, spec));
                }
                WalRecord::Terminal {
                    job,
                    phase,
                    result,
                    error,
                } => {
                    replay.max_job_id = replay.max_job_id.max(job);
                    if let Some(i) = live.iter().position(|(id, _)| *id == job) {
                        let (_, spec) = live.remove(i);
                        terminals.push(ReplayedTerminal {
                            job,
                            spec,
                            phase,
                            result: result.map(|b| *b),
                            error,
                        });
                    }
                    // A terminal without its admit (lost to an older
                    // compaction) carries nothing replayable: skip.
                }
                WalRecord::Quarantine { job } => {
                    replay.max_job_id = replay.max_job_id.max(job);
                    if !quarantined.contains(&job) {
                        quarantined.push(job);
                    }
                }
            }
        }
        replay.truncated_bytes = (raw.len() - good) as u64;
        if terminals.len() > WAL_TERMINAL_RETENTION {
            let drop = terminals.len() - WAL_TERMINAL_RETENTION;
            terminals.drain(..drop);
        }
        // Quarantine marks for jobs that fell out of the retained window
        // carry nothing actionable; keep only ids replay still knows.
        quarantined.retain(|id| {
            live.iter().any(|(j, _)| j == id) || terminals.iter().any(|t| t.job == *id)
        });
        replay.live = live;
        replay.terminals = terminals;
        replay.quarantined = quarantined;
        replay
    }

    /// Append one record. Returns once the bytes are written (page cache);
    /// the background flusher makes them durable shortly after — see the
    /// module docs for the at-least-once contract.
    pub fn append(&self, rec: &WalRecord) {
        let mut line = rec.encode();
        line.push('\n');
        {
            let mut f = self.inner.file.lock().expect("wal file lock");
            // A failed append (disk full, injected EIO) degrades durability,
            // not service: the job still runs, it just may not survive a
            // crash — but the failure is *declared*, never silent: the
            // error counter ticks and the server reports `degraded` until
            // a later sync proves the log writable again.
            let failed = chaos_hit(&self.inner.chaos, FaultSite::WalWrite)
                || f.write_all(line.as_bytes()).is_err();
            if failed {
                self.inner.fail();
                // Wake the flusher so its retry timer starts now.
                self.inner.cv.notify_all();
                return;
            }
        }
        net_obs().wal_appends.inc();
        let mut st = self.inner.state.lock().expect("wal state lock");
        st.appended += 1;
        self.inner.cv.notify_all();
    }

    /// True while the log is in declared degraded mode (a write or fsync
    /// failed and no sync has succeeded since).
    pub fn is_degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::Relaxed)
    }

    /// Failed writes and syncs of this log since it was opened.
    pub fn errors(&self) -> u64 {
        self.inner.errors.load(Ordering::Relaxed)
    }

    /// Block until every record appended so far is durably synced.
    pub fn flush(&self) {
        let mut st = self.inner.state.lock().expect("wal state lock");
        let target = st.appended;
        while st.synced < target && !st.closed {
            st = self.inner.cv.wait(st).expect("wal state lock");
        }
    }

    /// Where the log lives (`<dir>/jobs.wal`).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().expect("wal state lock");
            st.closed = true;
            self.inner.cv.notify_all();
        }
        if let Some(h) = self.flusher.lock().expect("wal flusher lock").take() {
            let _ = h.join();
        }
    }
}

/// Background fsync loop: waits for appends, syncs once per burst (many
/// appends coalesce into one `sync_data`), repeats. On close it performs a
/// final sync so a clean shutdown loses nothing.
///
/// A failed sync is never dropped: it ticks `wal.errors` and flips the
/// shared degraded flag, and while degraded the loop retries on a short
/// timer — even with no new appends — so the server heals (and clears
/// `health: degraded`) as soon as the disk recovers. `synced` still
/// advances past failed targets: the at-least-once contract means
/// [`Wal::flush`] callers unblock with durability *declared* lost rather
/// than hanging on a dead disk.
fn flusher_loop(inner: &WalInner, file: &File) {
    /// Degraded-mode retry cadence.
    const RETRY: Duration = Duration::from_millis(20);
    let mut st = inner.state.lock().expect("wal state lock");
    loop {
        while st.synced == st.appended && !st.closed {
            if inner.degraded.load(Ordering::Relaxed) {
                let (guard, timeout) = inner.cv.wait_timeout(st, RETRY).expect("wal state lock");
                st = guard;
                if timeout.timed_out() {
                    break; // retry the sync now
                }
            } else {
                st = inner.cv.wait(st).expect("wal state lock");
            }
        }
        let healing = st.synced == st.appended;
        if healing && st.closed && !inner.degraded.load(Ordering::Relaxed) {
            return;
        }
        // On a degraded close, the final sync below gets exactly one shot:
        // a dead disk must not wedge Drop.
        let last_chance = st.closed && healing;
        let target = st.appended;
        drop(st);
        let ok = !chaos_hit(&inner.chaos, FaultSite::WalFsync) && file.sync_data().is_ok();
        if ok {
            net_obs().wal_syncs.inc();
            inner.degraded.store(false, Ordering::Relaxed);
        } else {
            inner.fail();
        }
        st = inner.state.lock().expect("wal state lock");
        st.synced = st.synced.max(target);
        inner.cv.notify_all();
        if last_chance {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProblemSpec;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "dabs-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn spec(n: usize) -> JobSpec {
        JobSpec {
            problem: ProblemSpec::random(n, 3),
            max_batches: Some(5),
            idempotency_key: Some(format!("key-{n}")),
            ..JobSpec::default()
        }
    }

    #[test]
    fn records_round_trip() {
        let recs = [
            WalRecord::Admit {
                job: 7,
                spec: spec(16),
            },
            WalRecord::Terminal {
                job: 7,
                phase: JobPhase::Done,
                result: None,
                error: None,
            },
            WalRecord::Terminal {
                job: 9,
                phase: JobPhase::Failed,
                result: None,
                error: Some("model build failed".into()),
            },
            WalRecord::Quarantine { job: 9 },
        ];
        for r in recs {
            let line = r.encode();
            assert!(!line.contains('\n'));
            assert_eq!(WalRecord::parse_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn nonterminal_phase_in_terminal_record_is_rejected() {
        assert!(
            WalRecord::parse_line("{\"rec\":\"terminal\",\"job\":1,\"phase\":\"running\"}")
                .is_err()
        );
    }

    #[test]
    fn replay_recovers_live_and_terminal_jobs() {
        let dir = tmp_dir("replay");
        {
            let (wal, replay) = Wal::open(&dir).unwrap();
            assert!(replay.live.is_empty() && replay.terminals.is_empty());
            wal.append(&WalRecord::Admit {
                job: 1,
                spec: spec(16),
            });
            wal.append(&WalRecord::Admit {
                job: 2,
                spec: spec(24),
            });
            wal.append(&WalRecord::Terminal {
                job: 1,
                phase: JobPhase::Done,
                result: None,
                error: None,
            });
            wal.flush();
        }
        let (_wal, replay) = Wal::open(&dir).unwrap();
        assert_eq!(replay.max_job_id, 2);
        assert_eq!(replay.live.len(), 1);
        assert_eq!(replay.live[0].0, 2);
        assert_eq!(replay.terminals.len(), 1);
        assert_eq!(replay.terminals[0].job, 1);
        assert_eq!(replay.terminals[0].phase, JobPhase::Done);
        assert_eq!(replay.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = tmp_dir("torn");
        {
            let (wal, _) = Wal::open(&dir).unwrap();
            wal.append(&WalRecord::Admit {
                job: 5,
                spec: spec(16),
            });
            wal.flush();
        }
        // Simulate a crash mid-append: a partial record with no newline.
        let path = dir.join("jobs.wal");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"rec\":\"admit\",\"job\":6,\"sp").unwrap();
        drop(f);
        let (_wal, replay) = Wal::open(&dir).unwrap();
        assert_eq!(replay.live.len(), 1, "good prefix survives");
        assert_eq!(replay.live[0].0, 5);
        assert!(replay.truncated_bytes > 0, "torn tail measured");
        // The compacted log parses cleanly now.
        let (_wal2, replay2) = Wal::open(&dir).unwrap();
        assert_eq!(replay2.truncated_bytes, 0);
        assert_eq!(replay2.live.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_a_bounded_terminal_window() {
        let mut raw = String::new();
        for id in 1..=(WAL_TERMINAL_RETENTION as u64 + 40) {
            raw.push_str(
                &WalRecord::Admit {
                    job: id,
                    spec: spec(16),
                }
                .encode(),
            );
            raw.push('\n');
            raw.push_str(
                &WalRecord::Terminal {
                    job: id,
                    phase: JobPhase::Done,
                    result: None,
                    error: None,
                }
                .encode(),
            );
            raw.push('\n');
        }
        let replay = Wal::replay_bytes(raw.as_bytes());
        assert_eq!(replay.terminals.len(), WAL_TERMINAL_RETENTION);
        // Oldest dropped, newest kept.
        assert_eq!(
            replay.terminals.last().unwrap().job,
            WAL_TERMINAL_RETENTION as u64 + 40
        );
        assert_eq!(replay.terminals[0].job, 41);
        let _ = replay;
    }

    /// Spin until the WAL leaves degraded mode (the flusher's retry timer
    /// heals it once injected failures are spent), or fail loudly.
    fn wait_healed(wal: &Wal) {
        for _ in 0..500 {
            if !wal.is_degraded() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("wal did not heal within 2.5s");
    }

    // Regression for the silent-error flusher path: before chaos, a failed
    // `sync_data` vanished — no counter, no flag. Injected fsync failures
    // must tick `wal.errors`, flip degraded, and heal on the next good sync.
    #[test]
    fn injected_fsync_errors_surface_then_heal() {
        let dir = tmp_dir("fsync-err");
        let plan = Arc::new(FaultPlan::parse("seed=1,wal_fsync=1x2").unwrap());
        {
            let (wal, _) = Wal::open_with_chaos(&dir, Some(Arc::clone(&plan))).unwrap();
            wal.append(&WalRecord::Admit {
                job: 1,
                spec: spec(16),
            });
            // flush() must return even though the first sync fails —
            // durability is declared lost, not hung on.
            wal.flush();
            assert!(wal.is_degraded(), "failed fsync must flip degraded");
            wait_healed(&wal);
            assert_eq!(plan.injected(FaultSite::WalFsync), 2);
            // Exact per-log count: the process-wide gauge also counts
            // logs of tests running in parallel in this binary.
            assert_eq!(wal.errors(), 2);
            // Healed log keeps working.
            wal.append(&WalRecord::Terminal {
                job: 1,
                phase: JobPhase::Done,
                result: None,
                error: None,
            });
            wal.flush();
            assert!(!wal.is_degraded());
        }
        let (_wal, replay) = Wal::open(&dir).unwrap();
        assert_eq!(replay.terminals.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_error_degrades_and_drops_only_that_record() {
        let dir = tmp_dir("write-err");
        let plan = Arc::new(FaultPlan::parse("seed=1,wal_write=1x1").unwrap());
        {
            let (wal, _) = Wal::open_with_chaos(&dir, Some(plan)).unwrap();
            wal.append(&WalRecord::Admit {
                job: 1,
                spec: spec(16),
            }); // injected EIO: dropped, degraded
            assert!(wal.is_degraded());
            wal.append(&WalRecord::Admit {
                job: 2,
                spec: spec(24),
            }); // cap spent: lands
            wal.flush();
            wait_healed(&wal);
        }
        let (_wal, replay) = Wal::open(&dir).unwrap();
        assert_eq!(replay.live.len(), 1, "only the surviving record replays");
        assert_eq!(replay.live[0].0, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_records_survive_replay_and_compaction() {
        let dir = tmp_dir("quarantine");
        {
            let (wal, _) = Wal::open(&dir).unwrap();
            wal.append(&WalRecord::Admit {
                job: 1,
                spec: spec(16),
            });
            wal.append(&WalRecord::Admit {
                job: 2,
                spec: spec(24),
            });
            wal.append(&WalRecord::Quarantine { job: 1 });
            wal.append(&WalRecord::Terminal {
                job: 2,
                phase: JobPhase::Failed,
                result: None,
                error: Some("unit panicked".into()),
            });
            wal.append(&WalRecord::Quarantine { job: 2 });
            wal.flush();
        }
        // First reopen replays both marks; the compaction it performs must
        // carry them forward for the second reopen.
        for round in 0..2 {
            let (_wal, replay) = Wal::open(&dir).unwrap();
            assert_eq!(replay.live.len(), 1, "round {round}");
            assert_eq!(replay.terminals.len(), 1, "round {round}");
            let mut q = replay.quarantined.clone();
            q.sort_unstable();
            assert_eq!(q, vec![1, 2], "round {round}");
        }
        // A quarantine mark for an unknown job carries nothing replayable.
        let orphan = format!("{}\n", WalRecord::Quarantine { job: 99 }.encode());
        let replay = Wal::replay_bytes(orphan.as_bytes());
        assert!(replay.quarantined.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
