//! The `gateway` workload: an in-process `pmserve` daemon with two
//! `run_worker` threads, and one client submitting np=2 `mpi/broadcast`
//! jobs in a closed loop. Each job is waited on through the streamed
//! output (`client::stream_output`), so no polling sleep enters its
//! latency, then confirmed `completed` with one `client::status` call.

use std::sync::Mutex;

use patternlets::{find, Mode, RunConfig};
use patternlets_core::capture::Output;
use patternlets_metrics::{MetricsHub, MetricsSnapshot};
use patternlets_serve::{
    client, daemon, run_worker, Assignment, DaemonConfig, JobLineSink, SubmitSpec,
};

use crate::oracle;
use crate::spans::{self, now_ns};
use crate::stats::Hist;

/// Jobs per episode.
pub const JOBS: u64 = 200;

const NP: usize = 2;

/// `(job, rank, entered_ns, returned_ns)` of every runner call this episode.
static RUNS: Mutex<Vec<(u64, usize, u64, u64)>> = Mutex::new(Vec::new());

/// The worker's job runner, the untraced path of `patternlets worker`'s:
/// rank 0 frames the transcript with its banner, every rank runs the
/// assigned patternlet from the registry with its output streamed to the
/// daemon and its metrics recorded, and the snapshot goes back with the
/// result.
fn runner(assign: &Assignment, lines: &JobLineSink) -> Result<MetricsSnapshot, String> {
    let entered = now_ns();
    let p = find(&assign.patternlet).ok_or("unknown patternlet")?;
    if assign.rank == 0 {
        lines.line(&format!(
            "=== {} ({} tasks, directive OFF (initial)) ===",
            p.name, assign.np
        ));
        lines.line("");
    }
    let hub = MetricsHub::new();
    let mut cfg = RunConfig::new(assign.np, Mode::Off).with_metrics(hub.clone());
    cfg.output = Output::echoing_to(lines.clone().into_line_writer());
    (p.run)(&cfg);
    if assign.rank == 0 {
        lines.line("");
    }
    RUNS.lock()
        .expect("runner stamp lock")
        .push((assign.job, assign.rank, entered, now_ns()));
    Ok(hub.snapshot())
}

/// What one episode measured.
#[derive(Default)]
pub struct Episode {
    /// `daemon::start` called → pool has two live workers.
    pub setup_ns: u64,
    pub loop_ns: u64,
    pub ops: u64,
    pub failed: u64,
    pub hist: Hist,
    pub error: Option<String>,
}

/// The job path, step by step, pooled over a traced run's episodes. An
/// untraced run records none of it.
#[derive(Default)]
pub struct Layers {
    traced: bool,
    pub submit: Hist,
    pub status: Hist,
    pub assign: Hist,
    /// `JobRunner` body, per rank.
    pub run: Hist,
    /// Last rank entered → last rank returned, per job.
    pub run_span: Hist,
    pub done: Hist,
    pub start_ms: Vec<f64>,
    pub join_ms: Vec<f64>,
}

impl Layers {
    pub fn traced() -> Self {
        Layers {
            traced: true,
            ..Layers::default()
        }
    }

    /// Split each job into assigned → run → done from the client's stamps
    /// and the runners'. Assignment is timed from the `submit` call, not its
    /// return: the daemon schedules the job before its HTTP reply reaches
    /// the client, so the two overlap.
    fn job_path(&mut self, stamps: &[JobStamps]) {
        let runs = std::mem::take(&mut *RUNS.lock().expect("runner stamp lock"));
        for s in stamps {
            let mine: Vec<_> = runs.iter().filter(|r| r.0 == s.job).collect();
            if mine.len() != NP {
                continue;
            }
            let last_in = mine.iter().map(|r| r.2).max().expect("np ranks");
            let last_out = mine.iter().map(|r| r.3).max().expect("np ranks");
            self.assign.record(last_in.saturating_sub(s.called));
            self.run_span.record(last_out - last_in);
            self.done.record(s.streamed.saturating_sub(last_out));
            for r in &mine {
                self.run.record(r.3 - r.2);
            }
        }
    }
}

/// One job's client-side stamps.
struct JobStamps {
    job: u64,
    /// `client::submit` called.
    called: u64,
    /// `client::stream_output` returned.
    streamed: u64,
}

/// Run one episode: start a daemon and two workers, drive [`JOBS`] jobs,
/// drain.
pub fn episode(layers: &mut Layers) -> Episode {
    RUNS.lock().expect("runner stamp lock").clear();
    let mut ep = Episode::default();
    let t0 = now_ns();
    let d = daemon::start(DaemonConfig {
        quiet: true,
        ..DaemonConfig::default()
    })
    .expect("daemon binds loopback listeners");
    let t_started = now_ns();
    let cluster = d.cluster_addr.to_string();
    let workers: Vec<_> = (0..NP)
        .map(|_| {
            let addr = cluster.clone();
            std::thread::spawn(move || run_worker(&addr, runner))
        })
        .collect();
    while d.pool.live() < NP {
        std::thread::yield_now();
    }
    let t_live = now_ns();
    ep.setup_ns = t_live - t0;

    let http = d.http_addr.to_string();
    let spec = SubmitSpec {
        patternlet: "mpi/broadcast".to_string(),
        np: NP,
        on: false,
        chaos: String::new(),
        retries: None,
        trace: false,
    };
    let mut stamps = Vec::new();
    let loop_start = now_ns();
    for _ in 0..JOBS {
        let t = now_ns();
        let op = layers.traced.then(|| spans::span(0, "op.job"));
        let submitted = if layers.traced {
            let (dur, r) = spans::time_ns(0, "serve.http.submit", || client::submit(&http, &spec));
            layers.submit.record(dur);
            r
        } else {
            client::submit(&http, &spec)
        };
        let job = match submitted {
            Ok(job) => job,
            Err(e) => {
                ep.failed += 1;
                ep.error.get_or_insert(e);
                continue;
            }
        };
        let mut out = Vec::new();
        let streamed = client::stream_output(&http, job, &mut out);
        let t_stream = now_ns();
        let status = if layers.traced {
            let (dur, r) = spans::time_ns(0, "serve.http.status", || client::status(&http, job));
            layers.status.record(dur);
            r
        } else {
            client::status(&http, job)
        };
        let t_end = now_ns();
        drop(op);
        match (streamed, status) {
            (Ok(()), Ok(s)) if s.status == "completed" => {
                ep.ops += 1;
                ep.hist.record(t_end - t);
                let text = String::from_utf8_lossy(&out);
                if let Err(e) = oracle::check_broadcast_output(&text, NP) {
                    ep.error.get_or_insert(format!("job {job}: {e}"));
                }
                stamps.push(JobStamps {
                    job,
                    called: t,
                    streamed: t_stream,
                });
            }
            (Err(e), _) | (_, Err(e)) => {
                ep.failed += 1;
                ep.error.get_or_insert(format!("job {job}: {e}"));
            }
            (Ok(()), Ok(s)) => {
                ep.failed += 1;
                ep.error
                    .get_or_insert(format!("job {job} ended {}: {:?}", s.status, s.error));
            }
        }
    }
    ep.loop_ns = now_ns() - loop_start;

    d.drain();
    d.wait();
    for w in workers {
        if let Ok(Err(e)) = w.join() {
            ep.error.get_or_insert(format!("worker: {e}"));
        }
    }
    if layers.traced {
        layers.start_ms.push((t_started - t0) as f64 / 1e6);
        layers.join_ms.push((t_live - t_started) as f64 / 1e6);
        layers.job_path(&stamps);
    }
    ep
}
