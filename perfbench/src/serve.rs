//! `serve-mixed`: one in-process `Server` with its job log on, driven
//! open-loop over two client threads with one connection each.
//!
//! High-priority small jobs arrive on one fixed Poisson trace; low-priority
//! large time-to-target jobs arrive on a fixed period, walking a fixed list
//! of `(instance, seed)` pairs in an order shuffled by `--seed`. Every job is timed from
//! its scheduled send, so a stalled generator charges the jobs it delays;
//! how late the generator ran and the backlog at the end of the schedule
//! are checked against the spec's bounds.
//!
//! Set-up is `Server::bind` on a job log pre-filled (untimed) through the
//! public `Wal` API, up to the first submit's ack: it times log replay.

use crate::instances::{build_model, generate, materialize, PairList};
use crate::side::{self, SolverCounters};
use crate::spans::Recorder;
use crate::spec::{ServeSpec, Spec};
use crate::stats::{hist_delta, hist_quantile, median, quantile, supported};
use crate::Outcome;
use dabs_core::{DabsSolver, SolveResult, Termination};
use dabs_model::QuboModel;
use dabs_obs::HistSnapshot;
use dabs_rng::{Rng64, SplitMix64};
use dabs_server::{
    net_obs, pool_obs, Client, JobId, JobPhase, JobSpec, ProblemSpec, Request, Response, Server,
    ServerConfig, ServerState, TimelineKind, Wal, WalRecord,
};
use mio::{Events, Interest, Poll, Token};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which stream a job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Small,
    /// Index into the large-job instance list.
    Large(usize),
}

/// One scheduled submit.
#[derive(Debug, Clone)]
struct Planned {
    due: Duration,
    kind: Kind,
    spec: JobSpec,
}

/// What the client saw of one job.
#[derive(Debug, Clone)]
struct JobRec {
    plan: usize,
    send: Duration,
    ack: Option<Duration>,
    done: Option<Duration>,
    job: Option<JobId>,
    refused: Option<String>,
    phase: Option<String>,
    result: Option<SolveResult>,
}

/// The arrival schedule over `[0, seconds)`: small jobs at exponential
/// gaps of mean `1/rate_per_s`, large jobs every `every_ms` (half a period
/// in). Arrival times are one fixed Poisson trace (`arrival_seed`), so every
/// run offers the same load shape; `--seed` draws the small jobs' instances
/// and the order of the large-job pairs.
fn schedule(s: &ServeSpec, large_targets: &[i64], seed: u64, seconds: f64) -> Vec<Planned> {
    let mut arrivals = SplitMix64::new(s.small.arrival_seed);
    let mut rng = SplitMix64::new(seed ^ 0x7365_7276_652D_6D78);
    let mut plan = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u = ((arrivals.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        t += -u.ln() / s.small.rate_per_s;
        if t >= seconds {
            break;
        }
        let job_seed = rng.next_u64() >> 1;
        plan.push(Planned {
            due: Duration::from_secs_f64(t),
            kind: Kind::Small,
            spec: JobSpec {
                problem: ProblemSpec {
                    kind: s.small.kind.clone(),
                    ..ProblemSpec::random(s.small.n, job_seed)
                },
                devices: s.small.devices,
                seed: job_seed,
                max_batches: Some(s.small.max_batches),
                priority: s.small.priority,
                ..JobSpec::default()
            },
        });
    }
    let period = s.large.every_ms as f64 / 1e3;
    let pairs = PairList::new(
        s.large.instances.len(),
        s.large.pairs_per_instance,
        s.large.pair_seed,
        seed,
    );
    let mut k = 0usize;
    loop {
        let t = (k as f64 + 0.5) * period;
        if t >= seconds {
            break;
        }
        let (_, i, job_seed) = pairs.get(k);
        plan.push(Planned {
            due: Duration::from_secs_f64(t),
            kind: Kind::Large(i),
            spec: JobSpec {
                problem: s.large.instances[i].def.problem_spec(),
                devices: s.large.devices,
                seed: job_seed,
                target: Some(large_targets[i]),
                max_batches: Some(s.large.max_batches),
                units: Some(s.large.units),
                priority: s.large.priority,
                ..JobSpec::default()
            },
        });
        k += 1;
    }
    plan.sort_by_key(|p| p.due);
    plan
}

/// Pre-fill a job log with `jobs` admitted-and-finished jobs through the
/// public `Wal` API.
fn prefill(dir: &Path, jobs: usize, spec: &JobSpec, result: &SolveResult) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (wal, _) = Wal::open(dir).map_err(|e| format!("wal open: {e}"))?;
    for job in 1..=jobs as JobId {
        wal.append(&WalRecord::Admit {
            job,
            spec: spec.clone(),
        });
        wal.append(&WalRecord::Terminal {
            job,
            phase: JobPhase::Done,
            result: Some(Box::new(result.clone())),
            error: None,
        });
    }
    wal.flush();
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Keep one CPU from going idle until `stop`, at `SCHED_IDLE` priority so
/// any other runnable thread preempts it at once. On a virtual machine an
/// idle vCPU halts, and waking it again is a hypervisor scheduling delay
/// that varies with the host's load (accounted as steal time): with halting
/// vCPUs the served latencies moved 2x between identical runs. Polling
/// keeps that delay out of the measurement, like booting with `idle=poll`.
/// Returns at once, without spinning, if the policy cannot be set.
fn idle_poll(stop: &AtomicBool) {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live, properly laid out `struct sched_param`;
    // pid 0 names the calling thread, the only one whose policy changes.
    #[allow(unsafe_code)]
    let ok = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
    if !ok {
        return;
    }
    while !stop.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
}

fn config(s: &ServeSpec, dir: &Path) -> ServerConfig {
    ServerConfig {
        workers: s.workers.clamp(1, nproc()),
        queue_capacity: s.queue_capacity,
        wal_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// Bind on a pre-filled log `setup_reps` times; keep the last server.
fn setup(
    s: &ServeSpec,
    small: &JobSpec,
    base: &Path,
) -> Result<(Server, PathBuf, Vec<f64>), String> {
    let model = small.problem.build()?.0;
    let result = small
        .build_solver()?
        .run_sequential(&model, Termination::batches(4));
    let mut times = Vec::new();
    for rep in 0..s.setup_reps.max(1) {
        let dir = base.join(format!("wal-{}-{rep}", std::process::id()));
        prefill(&dir, s.wal_prefill_jobs, small, &result)?;
        let start = Instant::now();
        let server =
            Server::bind("127.0.0.1:0", config(s, &dir)).map_err(|e| format!("bind: {e}"))?;
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let job = client.submit(small)?;
        times.push(start.elapsed().as_secs_f64());
        let outcome = client.wait_result(job)?;
        if outcome.phase != "done" {
            return Err(format!("set-up job ended {}", outcome.phase));
        }
        if rep + 1 == s.setup_reps.max(1) {
            return Ok((server, dir, times));
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    unreachable!("the last repetition returns")
}

/// One client connection: a blocking line reader plus an epoll set that
/// says when the socket has data, so the generator can wait for "data or
/// the next due time" without a socket timeout (those round up to the
/// kernel tick, which would make the generator itself late).
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    poll: Poll,
    events: Events,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).ok();
        // A blocking read only ever waits for a line already on its way.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let poll = Poll::new().map_err(|e| format!("epoll: {e}"))?;
        poll.register(&stream, Token(0), Interest::READABLE)
            .map_err(|e| format!("epoll register: {e}"))?;
        Ok(Self {
            writer: stream.try_clone().map_err(|e| format!("clone: {e}"))?,
            reader: BufReader::new(stream),
            poll,
            events: Events::with_capacity(4),
            buf: Vec::new(),
        })
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        let mut line = req.to_json().to_string();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Read one whole line (blocking).
    fn line(&mut self) -> Result<Response, String> {
        self.buf.clear();
        match self.reader.read_until(b'\n', &mut self.buf) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Response::parse_line(String::from_utf8_lossy(&self.buf).trim()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Wait until a line can be read (`true`) or `t0 + deadline` passes
    /// (`false`). epoll waits whole milliseconds; the last one is slept
    /// with `thread::sleep`, which is precise to tens of microseconds.
    fn wait(&mut self, t0: Instant, deadline: Duration) -> Result<bool, String> {
        loop {
            if !self.reader.buffer().is_empty() {
                return Ok(true);
            }
            let left = deadline.saturating_sub(t0.elapsed());
            if left.is_zero() {
                return Ok(false);
            }
            let whole_ms = Duration::from_millis(left.as_millis() as u64);
            if whole_ms.is_zero() {
                std::thread::sleep(left);
                continue;
            }
            self.poll
                .poll(&mut self.events, Some(whole_ms))
                .map_err(|e| format!("epoll wait: {e}"))?;
            if !self.events.is_empty() {
                return Ok(true);
            }
        }
    }
}

/// Shared by the two client threads.
struct Drive<'a> {
    addr: SocketAddr,
    plan: &'a [Planned],
    t0: Instant,
    trace_t0: u64,
    /// Jobs due at or after this are traced (the first part of a traced
    /// run is the untraced reference for the overhead ratio).
    trace_from: Duration,
    drain_until: Duration,
    rec: &'a Recorder,
    completed: &'a AtomicU64,
}

impl Drive<'_> {
    /// One client thread: submit each of `mine` at its due time, read its
    /// ack (acks tell the job id), send `result` for it, and record `done`
    /// lines as they arrive; then drain.
    fn client(&self, lane: u64, mine: &[usize]) -> Result<Vec<JobRec>, String> {
        let mut conn = Conn::open(self.addr)?;
        conn.send(&Request::Hello {
            version: 2,
            tenant: None,
        })?;
        conn.line()?;

        let mut recs: Vec<JobRec> = Vec::with_capacity(mine.len());
        let mut by_job: HashMap<JobId, usize> = HashMap::new();
        let mut open = 0usize;
        let mut next = 0usize;
        loop {
            let now = self.t0.elapsed();
            match mine.get(next) {
                Some(&p) if now >= self.plan[p].due => {
                    conn.send(&Request::Submit(Box::new(self.plan[p].spec.clone())))?;
                    recs.push(JobRec {
                        plan: p,
                        send: now,
                        ack: None,
                        done: None,
                        job: None,
                        refused: None,
                        phase: None,
                        result: None,
                    });
                    next += 1;
                    let me = recs.len() - 1;
                    // Lines before the ack are other jobs' `done`s.
                    loop {
                        let line = conn.line()?;
                        let at = self.t0.elapsed();
                        match line {
                            Response::Submitted { job, .. } => {
                                recs[me].ack = Some(at);
                                recs[me].job = Some(job);
                                by_job.insert(job, me);
                                conn.send(&Request::Result(job))?;
                                open += 1;
                                break;
                            }
                            Response::Rejected { code, .. } => {
                                recs[me].ack = Some(at);
                                recs[me].refused = Some(code.as_str().to_string());
                                break;
                            }
                            other => open -= self.on_line(other, at, &mut recs, &by_job, lane),
                        }
                    }
                    continue;
                }
                Some(&p) => {
                    if !conn.wait(self.t0, self.plan[p].due)? {
                        continue;
                    }
                }
                None if open == 0 || now >= self.drain_until => break,
                None => {
                    if !conn.wait(self.t0, self.drain_until)? {
                        continue;
                    }
                }
            }
            let line = conn.line()?;
            open -= self.on_line(line, self.t0.elapsed(), &mut recs, &by_job, lane);
        }
        Ok(recs)
    }

    /// Record a `done` line for one of this connection's jobs; returns 1
    /// when it finished one.
    fn on_line(
        &self,
        line: Response,
        at: Duration,
        recs: &mut [JobRec],
        by_job: &HashMap<JobId, usize>,
        lane: u64,
    ) -> usize {
        let Response::Done {
            job, phase, result, ..
        } = line
        else {
            return 0;
        };
        let Some(&i) = by_job.get(&job) else {
            return 0;
        };
        self.on_done(&mut recs[i], at, phase, result.map(|b| *b), lane);
        1
    }

    fn on_done(
        &self,
        r: &mut JobRec,
        at: Duration,
        phase: String,
        result: Option<SolveResult>,
        lane: u64,
    ) {
        r.done = Some(at);
        r.phase = Some(phase);
        r.result = result;
        self.completed.fetch_add(1, Ordering::Relaxed);
        if self.rec.enabled() && self.plan[r.plan].due >= self.trace_from {
            let us = |d: Duration| self.trace_t0 + d.as_micros() as u64;
            let dur = |a: Duration, b: Duration| b.saturating_sub(a).as_micros() as u64;
            let ack = r.ack.unwrap_or(r.send);
            let op = r.plan as u64;
            self.rec
                .complete("job", lane, op, us(r.send), dur(r.send, at));
            self.rec
                .complete("server.submit", lane, op, us(r.send), dur(r.send, ack));
            self.rec
                .complete("server.wait", lane, op, us(ack), dur(ack, at));
        }
    }
}

/// Counter values at one instant.
struct Counters {
    polls: u64,
    lines_in: u64,
    bytes: u64,
    read_pauses: u64,
    wal_appends: u64,
    wal_syncs: u64,
    popped: u64,
    steals: u64,
    splits: u64,
    yields: u64,
    queue_wait: HistSnapshot,
    unit_run: HistSnapshot,
    solver: SolverCounters,
}

impl Counters {
    fn now() -> Self {
        let (n, p) = (net_obs(), pool_obs());
        Self {
            polls: n.polls.get(),
            lines_in: n.lines_in.get(),
            bytes: n.bytes_in.get() + n.bytes_out.get(),
            read_pauses: n.read_pauses.get(),
            wal_appends: n.wal_appends.get(),
            wal_syncs: n.wal_syncs.get(),
            popped: p.popped.get(),
            steals: p.steals.get(),
            splits: p.splits.get(),
            yields: p.yields.get(),
            queue_wait: p.queue_wait_us.snapshot(),
            unit_run: p.unit_run_us.snapshot(),
            solver: SolverCounters::now(),
        }
    }
}

/// Mean share of busy workers, sampled in-process every 5 ms from the
/// pool's gauges until `stop`.
fn sample_busy(state: &ServerState, stop: &AtomicBool) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    while !stop.load(Ordering::Relaxed) {
        let g = state.pool.gauges();
        sum += g.busy as f64 / g.workers.max(1) as f64;
        n += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    if n > 0 {
        sum / n as f64
    } else {
        0.0
    }
}

pub fn run(
    s: &ServeSpec,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    rec: &Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    // The server would arm a fault plan from the environment.
    std::env::remove_var("DABS_CHAOS");
    let mut large_models: Vec<QuboModel> = Vec::new();
    let mut large_targets: Vec<i64> = Vec::new();
    for inst in &s.large.instances {
        let (model, _) = inst.def.problem_spec().build()?;
        let (target, recomputed) = crate::TARGETS.resolve(inst, &model, spec.sa_runs, spec.sa_seed);
        if recomputed {
            out.note(format!(
                "{}: stored target stale, recomputed {target}",
                inst.def.name
            ));
        }
        large_models.push(model);
        large_targets.push(target);
    }
    let plan = schedule(s, &large_targets, seed, seconds);
    let first_small = plan
        .iter()
        .find(|p| p.kind == Kind::Small)
        .ok_or("schedule has no small jobs")?
        .spec
        .clone();
    let base = crate::out_dir();
    let (server, wal_dir, setup_times) = setup(s, &first_small, &base)?;
    let state = Arc::clone(server.state());

    let before = Counters::now();
    let completed = AtomicU64::new(0);
    let stop_sampler = AtomicBool::new(false);
    let stop_pollers = AtomicBool::new(false);
    let t0 = Instant::now() + Duration::from_millis(20);
    let drive = Drive {
        addr: server.local_addr(),
        plan: &plan,
        t0,
        trace_t0: rec.now_us() + 20_000,
        trace_from: Duration::from_secs_f64(if rec.enabled() { seconds / 2.0 } else { 0.0 }),
        drain_until: Duration::from_secs_f64(seconds + s.drain_s),
        rec,
        completed: &completed,
    };
    let lanes: [Vec<usize>; 2] = [
        (0..plan.len()).step_by(2).collect(),
        (1..plan.len()).step_by(2).collect(),
    ];
    let (results, backlog, queued_units, busy) = std::thread::scope(|sc| {
        let handles: Vec<_> = lanes
            .iter()
            .enumerate()
            .map(|(lane, mine)| {
                let drive = &drive;
                sc.spawn(move || drive.client(lane as u64 + 1, mine))
            })
            .collect();
        let pollers: Vec<_> = (0..nproc())
            .map(|_| sc.spawn(|| idle_poll(&stop_pollers)))
            .collect();
        let sampler = rec.enabled().then(|| {
            let (state, stop) = (&state, &stop_sampler);
            let start = t0 + Duration::from_secs_f64(seconds / 2.0);
            sc.spawn(move || {
                std::thread::sleep(start.saturating_duration_since(Instant::now()));
                sample_busy(state, stop)
            })
        });
        // Backlog when the schedule ends: offered minus finished, plus the
        // units still queued.
        std::thread::sleep(
            (t0 + Duration::from_secs_f64(seconds)).saturating_duration_since(Instant::now()),
        );
        let backlog = plan.len() as u64 - completed.load(Ordering::Relaxed).min(plan.len() as u64);
        let queued_units = state.pool.gauges().queued_units;
        let results: Vec<Result<Vec<JobRec>, String>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        stop_sampler.store(true, Ordering::Relaxed);
        let busy = sampler.map_or(0.0, |h| h.join().expect("sampler thread panicked"));
        stop_pollers.store(true, Ordering::Relaxed);
        for p in pollers {
            p.join().expect("poller thread panicked");
        }
        (results, backlog, queued_units, busy)
    });
    let after = Counters::now();
    let mut recs: Vec<JobRec> = Vec::with_capacity(plan.len());
    for r in results {
        recs.extend(r?);
    }

    let timelines = if rec.enabled() {
        fetch_timelines(server.local_addr(), &plan, &recs)?
    } else {
        Vec::new()
    };
    server.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Outputs: rebuild every instance and recompute every reported energy.
    let mut ok = vec![false; recs.len()];
    for (i, r) in recs.iter().enumerate() {
        let p = &plan[r.plan];
        if r.refused.is_some() || r.phase.as_deref() != Some("done") {
            out.failed += 1;
            continue;
        }
        let Some(res) = &r.result else {
            out.fail(format!("job {:?} done without a result", r.job));
            continue;
        };
        let rebuilt;
        let model = match p.kind {
            Kind::Small => {
                rebuilt = p.spec.problem.build()?.0;
                &rebuilt
            }
            Kind::Large(j) => &large_models[j],
        };
        let e = model.energy(&res.best);
        if e != res.energy {
            out.fail(format!(
                "job {:?}: reported energy {} but the vector has {e}",
                r.job, res.energy
            ));
            continue;
        }
        ok[i] = match p.kind {
            Kind::Small => true,
            Kind::Large(j) => {
                let target = large_targets[j];
                if res.reached_target != (e <= target) {
                    out.fail(format!(
                        "job {:?}: reached_target={} at {e} vs {target}",
                        r.job, res.reached_target
                    ));
                }
                e <= target
            }
        };
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let lat = |i: usize| {
        let r = &recs[i];
        match (ok[i], r.done) {
            (true, Some(done)) => ms(done.saturating_sub(plan[r.plan].due)),
            _ => f64::INFINITY,
        }
    };
    let small: Vec<usize> = (0..recs.len())
        .filter(|&i| plan[recs[i].plan].kind == Kind::Small)
        .collect();
    let large: Vec<usize> = (0..recs.len())
        .filter(|&i| plan[recs[i].plan].kind != Kind::Small)
        .collect();
    let small_lat: Vec<f64> = small.iter().map(|&i| lat(i)).collect();
    let large_tts: Vec<f64> = large.iter().map(|&i| lat(i)).collect();
    let frac = |num: usize, den: usize| num as f64 / den.max(1) as f64;
    out.attempted = plan.len() as u64;
    out.e2e("setup_s", median(&setup_times));
    out.e2e_quantile("tts_p50_ms", &large_tts, 0.5);
    out.e2e_quantile("tts_p90_ms", &large_tts, 0.9);
    out.e2e(
        "solve_ok_ratio",
        frac(
            large_tts.iter().filter(|v| v.is_finite()).count(),
            large.len(),
        ),
    );
    out.e2e_quantile("job_p50_ms", &small_lat, 0.5);
    out.e2e_quantile("job_p99_ms", &small_lat, 0.99);
    out.e2e(
        "job_ok_ratio",
        frac(
            small_lat
                .iter()
                .filter(|&&v| v <= s.latency_limit_ms)
                .count(),
            small.len(),
        ),
    );

    // The generator must have kept to its schedule, and the server up with it.
    let lag: Vec<f64> = recs
        .iter()
        .map(|r| ms(r.send.saturating_sub(plan[r.plan].due)))
        .collect();
    let lag_q = if supported(lag.len(), 0.99) {
        0.99
    } else {
        0.9
    };
    let lag_p = quantile(&lag, lag_q).unwrap_or(0.0);
    if lag_p > s.max_gen_lag_p99_ms {
        out.invalid(format!(
            "generator ran {lag_p:.1} ms late at p{} (bound {} ms)",
            lag_q * 100.0,
            s.max_gen_lag_p99_ms
        ));
    }
    if backlog as usize > s.max_backlog_jobs {
        out.invalid(format!(
            "{backlog} of {} jobs unfinished when the schedule ended (bound {})",
            plan.len(),
            s.max_backlog_jobs
        ));
    }
    out.count("small_jobs", small.len() as f64);
    out.count("large_jobs", large.len() as f64);
    out.count("completed", completed.load(Ordering::Relaxed) as f64);
    out.count("backlog_jobs", backlog as f64);
    out.count("queued_units_at_end", queued_units as f64);
    out.count("gen_lag_p99_ms", lag_p);

    if rec.enabled() {
        let traced_from = Duration::from_secs_f64(seconds / 2.0);
        let half = |traced: bool| -> Vec<f64> {
            small
                .iter()
                .filter(|&&i| (plan[recs[i].plan].due >= traced_from) == traced)
                .map(|&i| lat(i))
                .collect()
        };
        let p50 = |v: Vec<f64>| quantile(&v, 0.5).unwrap_or(0.0);
        let (untraced_p50, traced_p50) = (p50(half(false)), p50(half(true)));
        out.layer(
            "bench.trace_overhead",
            if untraced_p50 > 0.0 {
                traced_p50 / untraced_p50
            } else {
                0.0
            },
        );
        out.layer("bench.gen_lag_p99_ms", lag_p);
        out.layer("bench.gen_lag_n", lag.len() as f64);
        out.layer("bench.backlog_jobs", backlog as f64);
        out.layer("pool.busy_ratio", busy);
        layers(
            s,
            &plan,
            &recs,
            &ok,
            &before,
            &after,
            &timelines,
            &large_models,
            out,
        )?;
    }
    Ok(())
}

/// `(job latency send→done, queue wait, unit run)` in microseconds for the
/// most recent small jobs the registry still retains.
fn fetch_timelines(
    addr: SocketAddr,
    plan: &[Planned],
    recs: &[JobRec],
) -> Result<Vec<(f64, f64, f64)>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut done: Vec<&JobRec> = recs
        .iter()
        .filter(|r| plan[r.plan].kind == Kind::Small && r.phase.as_deref() == Some("done"))
        .collect();
    done.sort_by_key(|r| r.done);
    let mut out = Vec::new();
    for r in done.iter().rev().take(1000) {
        let (Some(job), Some(fin)) = (r.job, r.done) else {
            continue;
        };
        let Ok((events, _)) = client.timeline(job) else {
            continue; // evicted from the retention window
        };
        let (mut wait, mut run) = (0u64, 0u64);
        let mut started: HashMap<u32, u64> = HashMap::new();
        for ev in &events {
            match &ev.kind {
                TimelineKind::UnitStart {
                    unit,
                    queue_wait_us,
                    ..
                } => {
                    wait += queue_wait_us;
                    started.insert(*unit, ev.at_us);
                }
                TimelineKind::UnitEnd { unit, .. } => {
                    if let Some(s) = started.remove(unit) {
                        run += ev.at_us.saturating_sub(s);
                    }
                }
                _ => {}
            }
        }
        let latency = fin.saturating_sub(r.send).as_secs_f64() * 1e6;
        out.push((latency, wait as f64, run as f64));
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn layers(
    s: &ServeSpec,
    plan: &[Planned],
    recs: &[JobRec],
    ok: &[bool],
    before: &Counters,
    after: &Counters,
    timelines: &[(f64, f64, f64)],
    large_models: &[QuboModel],
    out: &mut Outcome,
) -> Result<(), String> {
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let admitted = recs.iter().filter(|r| r.job.is_some()).count() as f64;
    let finished = recs.iter().filter(|r| r.done.is_some()).count() as f64;

    // Edge and job log.
    let acks: Vec<f64> = recs
        .iter()
        .filter_map(|r| r.ack.map(|a| a.saturating_sub(r.send).as_secs_f64() * 1e6))
        .collect();
    out.layer_quantiles("server.ack_us", &acks);
    for code in ["over_capacity", "rate_limited", "shed", "wal_degraded"] {
        let n = recs
            .iter()
            .filter(|r| r.refused.as_deref() == Some(code))
            .count();
        out.layer(&format!("server.refused.{code}"), n as f64);
    }
    let other = recs
        .iter()
        .filter(|r| {
            r.refused.as_deref().is_some_and(|c| {
                !["over_capacity", "rate_limited", "shed", "wal_degraded"].contains(&c)
            })
        })
        .count();
    out.layer("server.refused.other", other as f64);
    out.layer(
        "net.polls_per_line",
        per(
            d(after.polls, before.polls),
            d(after.lines_in, before.lines_in),
        ),
    );
    out.layer(
        "net.bytes_per_job",
        per(d(after.bytes, before.bytes), finished),
    );
    out.layer("net.read_pauses", d(after.read_pauses, before.read_pauses));
    let (appends, syncs) = (
        d(after.wal_appends, before.wal_appends),
        d(after.wal_syncs, before.wal_syncs),
    );
    out.layer("wal.appends", appends);
    out.layer("wal.syncs", syncs);
    out.layer("wal.appends_per_sync", per(appends, syncs));
    let residual: Vec<f64> = timelines.iter().map(|(l, w, r)| l - w - r).collect();
    out.layer_quantiles("server.residual_us", &residual);

    // Scheduler.
    for (name, b, a) in [
        ("pool.queue_wait_us", &before.queue_wait, &after.queue_wait),
        ("pool.unit_run_us", &before.unit_run, &after.unit_run),
    ] {
        let counts = hist_delta(b, a);
        out.layer(
            &format!("{name}_p50"),
            hist_quantile(&counts, 0.5).unwrap_or(0.0),
        );
        out.layer(
            &format!("{name}_p99"),
            hist_quantile(&counts, 0.99).unwrap_or(0.0),
        );
        out.layer(&format!("{name}_n"), counts.iter().sum::<u64>() as f64);
    }
    out.layer(
        "pool.units_per_job",
        per(d(after.popped, before.popped), admitted),
    );
    out.layer("pool.steals", d(after.steals, before.steals));
    out.layer("pool.splits", d(after.splits, before.splits));
    out.layer("pool.yields", d(after.yields, before.yields));

    let large_ok: Vec<&SolveResult> = recs
        .iter()
        .zip(ok)
        .filter(|(r, &ok)| ok && plan[r.plan].kind != Kind::Small)
        .filter_map(|(r, _)| r.result.as_ref())
        .collect();
    out.layer(
        "core.flips_to_target",
        large_ok.iter().map(|r| r.flips as f64).sum(),
    );
    out.layer(
        "core.batches_to_target",
        large_ok.iter().map(|r| r.batches as f64).sum(),
    );
    out.layer(
        "core.restarts",
        recs.iter()
            .filter_map(|r| r.result.as_ref())
            .map(|r| f64::from(r.restarts))
            .sum(),
    );

    // Side measurements on the workload's own instances, in-process.
    let smalls: Vec<&Planned> = plan
        .iter()
        .filter(|p| p.kind == Kind::Small)
        .take(40)
        .collect();
    let mut build_ms = Vec::new();
    let mut materialize_ms = Vec::new();
    let mut small_models = Vec::new();
    for p in &smalls {
        let t = Instant::now();
        let model = p.spec.problem.build()?.0;
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        materialize(&model);
        materialize_ms.push(t.elapsed().as_secs_f64() * 1e3);
        small_models.push(model);
    }
    let mut generate_ms = Vec::new();
    for inst in &s.large.instances {
        let t = Instant::now();
        let g = generate(&inst.def)?;
        generate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(build_model(&inst.def, &g));
    }
    out.layer("problems.generate_ms", median(&generate_ms));
    out.layer("model.build_ms", median(&build_ms));
    out.layer("model.materialize_ms", median(&materialize_ms));
    let mut all: Vec<&QuboModel> = large_models.iter().collect();
    all.extend(small_models.iter().take(4));
    side::report(out, &before.solver, &after.solver, &all);
    // Batch time of the small-job shape, stepped one batch at a time.
    let mut batch_us = Vec::new();
    for (p, model) in smalls.iter().zip(&small_models).take(20) {
        let solver: DabsSolver = p.spec.build_solver()?;
        let mut unit = solver.start_unit(model, p.spec.termination(), None, None);
        loop {
            let t = Instant::now();
            let done = unit.step(1);
            batch_us.push(t.elapsed().as_secs_f64() * 1e6);
            if done {
                break;
            }
        }
    }
    out.layer_quantiles("core.batch_us", &batch_us);
    Ok(())
}
