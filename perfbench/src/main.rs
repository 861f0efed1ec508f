//! perfbench: one benchmark for the message, job and stream paths.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Runs fresh episodes of one workload until `S` seconds have passed and
//! prints, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones, pooled over every episode; with `--trace 1` they are
//! the workload's rungs of the layer ladder, measured by a separate
//! traced run, and the spans recorded around each layer call are written
//! to `DIR/spans-NAME.json`. One workload runs per process (see
//! `wire.rs` for why).

mod gateway;
mod ladder;
mod oracle;
mod pipeline;
mod spans;
mod stats;
mod wire;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use patternlets_metrics::MetricsHub;

use stats::{median, Hist, Rate};

const WORKLOADS: [&str; 4] = ["shm_small", "tcp_bulk", "gateway", "pipeline"];

/// Every run pools at least this many fresh episodes.
const MIN_EPISODES: u64 = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// A metric: `(name, value, unit)`.
type Metric = (&'static str, f64, &'static str);

/// The `q`-quantile of `hist` in µs, NaN when too few samples lie
/// beyond it.
fn quantile_us(hist: &Hist, q: f64) -> f64 {
    hist.percentile(q).map_or(f64::NAN, |ns| ns / 1e3)
}

/// The median of `hist` in µs, NaN when it has too few samples.
fn p50_us(hist: &Hist) -> f64 {
    quantile_us(hist, 0.5)
}

/// What one episode contributes to the pooled figures.
struct Outcome {
    setup_ns: u64,
    hist: Hist,
    ops: u64,
    loop_ns: u64,
    attempted: u64,
    failed: u64,
    error: Option<String>,
}

/// End-to-end figures pooled over a run's episodes.
#[derive(Default)]
struct Pool {
    setup_s: Vec<f64>,
    hist: Hist,
    rate: Rate,
    attempted: u64,
    failed: u64,
    episodes: u64,
    error: Option<String>,
}

impl Pool {
    fn add(&mut self, o: Outcome) {
        self.setup_s.push(o.setup_ns as f64 * 1e-9);
        self.hist.merge(&o.hist);
        self.rate.add(o.ops, o.loop_ns);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.episodes += 1;
        if self.error.is_none() {
            self.error = o.error;
        }
    }

    /// Every end-to-end metric; NaN where a figure could not be formed
    /// (no samples, or too short a tail).
    fn metrics(&self) -> Vec<Metric> {
        vec![
            ("setup_s", median(&self.setup_s).unwrap_or(f64::NAN), "s"),
            ("op_p50_us", p50_us(&self.hist), "us"),
            ("ops_per_s", self.rate.per_s().unwrap_or(f64::NAN), "1/s"),
        ]
    }
}

/// Run fresh episodes until `seconds` have passed (at least
/// [`MIN_EPISODES`]), pooling their figures.
fn drive(seconds: f64, mut one: impl FnMut(u64) -> Outcome) -> Pool {
    let start = Instant::now();
    let mut pool = Pool::default();
    while pool.episodes < MIN_EPISODES || start.elapsed().as_secs_f64() < seconds {
        pool.add(one(pool.episodes));
    }
    pool
}

/// Episode runners of each workload, shared by the plain and traced runs.
/// Passing a metrics hub makes the run traced: the hub is attached and
/// spans are recorded.
mod run {
    use super::*;

    pub fn wire(
        env: &wire::Env,
        shape: wire::Shape,
        seed: u64,
        seconds: f64,
        hub: Option<&MetricsHub>,
        layers: &mut wire::Layers,
    ) -> Pool {
        drive(seconds, |i| {
            let patterns = wire::patterns(shape, seed, i);
            let ep = wire::episode(env, shape, seed, i, &patterns, hub);
            layers.add(&ep);
            Outcome {
                setup_ns: ep.setup_ns,
                hist: ep.hist,
                ops: ep.ops,
                loop_ns: ep.loop_ns,
                attempted: shape.rounds,
                failed: ep.failed,
                error: ep.error,
            }
        })
    }

    pub fn gateway(seconds: f64, layers: &mut gateway::Layers) -> Pool {
        drive(seconds, |_| {
            let ep = gateway::episode(layers);
            Outcome {
                setup_ns: ep.setup_ns,
                hist: ep.hist,
                ops: ep.ops,
                loop_ns: ep.loop_ns,
                attempted: gateway::JOBS,
                failed: ep.failed,
                error: ep.error,
            }
        })
    }

    pub fn pipeline(seed: u64, stages: usize, seconds: f64, hub: Option<&MetricsHub>) -> Pool {
        drive(seconds, |i| {
            let seed = seed.wrapping_add(i);
            let ep = match hub {
                None => pipeline::episode(seed, stages, None),
                Some(_) => {
                    spans::time_ns(0, "stream.pipeline.run", || {
                        pipeline::episode(seed, stages, hub)
                    })
                    .1
                }
            };
            Outcome {
                setup_ns: ep.setup_ns,
                hist: ep.hist,
                ops: ep.ops,
                loop_ns: ep.loop_ns,
                attempted: pipeline::ITEMS,
                failed: 0,
                error: ep.error,
            }
        })
    }
}

/// The untraced run: every end-to-end metric of one workload.
fn plain(args: &Args) -> Pool {
    match args.workload.as_str() {
        "shm_small" | "tcp_bulk" => {
            let env = wire::Env::new(&args.out);
            let shape = wire_shape(&args.workload);
            run::wire(
                &env,
                shape,
                args.seed,
                args.seconds,
                None,
                &mut Default::default(),
            )
        }
        "gateway" => run::gateway(args.seconds, &mut gateway::Layers::default()),
        "pipeline" => run::pipeline(args.seed, 1, args.seconds, None),
        other => unreachable!("workload {other} was validated"),
    }
}

fn wire_shape(workload: &str) -> wire::Shape {
    if workload == "shm_small" {
        wire::SHM_SMALL
    } else {
        wire::TCP_BULK
    }
}

/// Run lengths of a traced run: each pass of the workload, and each
/// ladder step.
struct Budget {
    pass: f64,
    step: Duration,
}

/// The traced run: an untraced and a traced pass of the workload (their
/// difference is the tracing overhead), then the ladder steps. Prints
/// the ladder and returns the workload's per-layer metrics and both
/// passes.
fn traced(args: &Args) -> (Vec<Metric>, Pool, Pool) {
    let budget = Budget {
        pass: args.seconds * 0.35,
        step: Duration::from_secs_f64(args.seconds * 0.05),
    };
    let (metrics, base, traced) = match args.workload.as_str() {
        "shm_small" | "tcp_bulk" => traced_wire(args, &budget),
        "gateway" => traced_gateway(&budget),
        "pipeline" => traced_pipeline(args.seed, &budget),
        other => unreachable!("workload {other} was validated"),
    };
    println!("tracing overhead (traced pass minus untraced pass):");
    for ((name, b, unit), (_, t, _)) in base.metrics().into_iter().zip(traced.metrics()) {
        println!(
            "  {name:<12} {b:>14.3} -> {t:>14.3} {unit:<4} ({:+.1}%)",
            (t / b - 1.0) * 100.0
        );
    }
    (metrics, base, traced)
}

fn traced_wire(args: &Args, budget: &Budget) -> (Vec<Metric>, Pool, Pool) {
    let shape = wire_shape(&args.workload);
    let env = wire::Env::new(&args.out);
    let hub = MetricsHub::new();
    let base = run::wire(
        &env,
        shape,
        args.seed,
        budget.pass,
        None,
        &mut Default::default(),
    );
    let mut layers = wire::Layers::default();
    let traced = run::wire(&env, shape, args.seed, budget.pass, Some(&hub), &mut layers);
    let c = wire::counters(&hub, traced.rate.ops);
    let step = budget.step;
    let (enc, dec) = ladder::frame_codec_us(shape.size, step);
    let (rtt, deliver) = ladder::fabric_rtt_us(&env.mesh(shape.mode), shape.size, step * 2);
    let send = p50_us(&layers.send);
    let recv_wait = p50_us(&layers.recv_wait);
    let establish_ms = median(&layers.establish_ms).unwrap_or(f64::NAN);
    let mut rows = Ladder::new(p50_us(&base.hist));
    let metrics = if shape.size == wire::SHM_SMALL.size {
        let ring = ladder::spsc_rtt_us(shape.size, step);
        rows.step("ring echo, core.spsc.rtt_us", ring);
        rows.step(
            "frame codec, 2 x (encode + decode) at 8 B",
            2.0 * (enc + dec),
        );
        rows.step(
            "fabric above ring and codec (reader hop, match, wake)",
            rtt - ring - 2.0 * (enc + dec),
        );
        rows.step(
            "Comm::send above Fabric::deliver, 2 ranks",
            2.0 * (send - deliver),
        );
        vec![
            ("core.spsc.rtt_us", ring, "us"),
            ("net.frame.encode_8B_us", enc, "us"),
            ("net.frame.decode_8B_us", dec, "us"),
            ("mp.fabric.shm_rtt_us", rtt, "us"),
            ("mp.fabric.shm_deliver_us", deliver, "us"),
            ("mp.comm.shm_send_us", send, "us"),
            ("mp.comm.shm_recv_wait_us", recv_wait, "us"),
            ("core.spsc.waits_per_op", c.spsc_waits, "count"),
            ("net.shm.establish_ms", establish_ms, "ms"),
        ]
    } else {
        let (dt_enc, dt_dec) = ladder::datatype_codec_us(shape.size, step);
        let crc = ladder::crc32_us(shape.size, step);
        let socket = ladder::socket_rtt_us(shape.size, step);
        rows.step("loopback socket echo, net.tcp.socket_rtt_us", socket);
        rows.step(
            "frame encode + decode, 2 x (incl. crc32 2 x per frame)",
            2.0 * (enc + dec),
        );
        rows.note("  of which crc32, 4 x 64 KiB", 4.0 * crc);
        rows.step(
            "fabric above socket and frame codec (reader, match, wake)",
            rtt - socket - 2.0 * (enc + dec),
        );
        rows.step(
            "Comm::send above Fabric::deliver, 2 ranks",
            2.0 * (send - deliver),
        );
        rows.note("  of which datatype::encode, 2 x 64 KiB", 2.0 * dt_enc);
        rows.step("Datatype::decode_slice, 2 x 64 KiB", 2.0 * dt_dec);
        vec![
            ("net.frame.encode_64KiB_us", enc, "us"),
            ("net.frame.decode_64KiB_us", dec, "us"),
            ("mp.fabric.tcp_rtt_us", rtt, "us"),
            ("mp.fabric.tcp_deliver_us", deliver, "us"),
            ("mp.comm.tcp_send_us", send, "us"),
            ("mp.comm.tcp_recv_wait_us", recv_wait, "us"),
            ("mp.datatype.encode_us", dt_enc, "us"),
            ("mp.datatype.decode_us", dt_dec, "us"),
            ("core.crc.crc32_us", crc, "us"),
            ("net.tcp.socket_rtt_us", socket, "us"),
            ("net.tcp.frames_per_op", c.frames, "count"),
            ("net.tcp.bytes_per_op", c.bytes, "B"),
            ("net.tcp.establish_ms", establish_ms, "ms"),
        ]
    };
    println!(
        "{} ladder, one round trip (op_p50_us from the untraced pass):",
        args.workload
    );
    rows.print();
    (metrics, base, traced)
}

fn traced_gateway(budget: &Budget) -> (Vec<Metric>, Pool, Pool) {
    let base = run::gateway(budget.pass, &mut gateway::Layers::default());
    let mut l = gateway::Layers::traced();
    let traced = run::gateway(budget.pass, &mut l);
    let mut rows = Ladder::new(p50_us(&base.hist));
    rows.step(
        "submit called -> last rank's runner entered",
        p50_us(&l.assign),
    );
    rows.note(
        "  overlapping: client::submit (HTTP POST) returned",
        p50_us(&l.submit),
    );
    rows.step(
        "last rank in -> last rank out (establish, run, drain)",
        p50_us(&l.run_span),
    );
    rows.step(
        "last runner returned -> stream_output returned",
        p50_us(&l.done),
    );
    rows.step("client::status (HTTP GET)", p50_us(&l.status));
    println!("gateway ladder, one np=2 job (op_p50_us from the untraced pass):");
    rows.print();
    let metrics = vec![
        ("serve.http.submit_us", p50_us(&l.submit), "us"),
        ("serve.http.status_us", p50_us(&l.status), "us"),
        ("serve.sched.assign_us", p50_us(&l.assign), "us"),
        ("collection.job_run_us", p50_us(&l.run), "us"),
        ("serve.done_us", p50_us(&l.done), "us"),
        (
            "serve.daemon.start_ms",
            median(&l.start_ms).unwrap_or(f64::NAN),
            "ms",
        ),
        (
            "serve.pool.join_ms",
            median(&l.join_ms).unwrap_or(f64::NAN),
            "ms",
        ),
    ];
    (metrics, base, traced)
}

fn traced_pipeline(seed: u64, budget: &Budget) -> (Vec<Metric>, Pool, Pool) {
    let hub = MetricsHub::new();
    let base = run::pipeline(seed, 1, budget.pass, None);
    let traced = run::pipeline(seed, 1, budget.pass, Some(&hub));
    let edge = run::pipeline(seed, 0, budget.step.as_secs_f64() * 4.0, None);
    let edge_rate = edge.rate.per_s().unwrap_or(f64::NAN);
    let stage_rate = base.rate.per_s().unwrap_or(f64::NAN);
    let hop_ns = 1e9 / stage_rate - 1e9 / edge_rate;
    println!("pipeline ladder, per item:");
    for (what, value, unit) in [
        ("source -> sink, one edge", edge_rate, "items/s"),
        (
            "source -> stage -> sink (the workload)",
            stage_rate,
            "items/s",
        ),
        ("one added stage, per item", hop_ns, "ns"),
    ] {
        println!("  {what:<56} {value:>12.1} {unit}");
    }
    let metrics = vec![
        ("stream.edge.items_per_s", edge_rate, "1/s"),
        ("stream.stage.hop_ns", hop_ns, "ns"),
        (
            "stream.spsc.waits_per_kitem",
            pipeline::waits_per_kitem(&hub, traced.rate.ops),
            "count",
        ),
    ];
    (metrics, base, traced)
}

/// A ladder table: steps along one operation's path set against the
/// untraced `op_p50_us`, with the unexplained remainder as its own row.
struct Ladder {
    op_us: f64,
    explained: f64,
    rows: Vec<(String, f64)>,
}

impl Ladder {
    fn new(op_us: f64) -> Self {
        Ladder {
            op_us,
            explained: 0.0,
            rows: Vec::new(),
        }
    }

    /// A step that counts toward the explained total.
    fn step(&mut self, what: &str, us: f64) {
        self.explained += us;
        self.rows.push((what.to_string(), us));
    }

    /// A breakdown of the step above; not added again.
    fn note(&mut self, what: &str, us: f64) {
        self.rows.push((what.to_string(), us));
    }

    fn print(&self) {
        let rest = (
            "unexplained remainder".to_string(),
            self.op_us - self.explained,
        );
        let op = ("op_p50_us".to_string(), self.op_us);
        for (what, us) in self.rows.iter().chain([&rest, &op]) {
            println!(
                "  {what:<60} {us:>10.2} us {:>6.1}%",
                us / self.op_us * 100.0
            );
        }
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let (metrics, attempted, failed, error) = if args.trace {
        let (metrics, base, traced) = traced(&args);
        let path = args.out.join(format!("spans-{}.json", args.workload));
        match spans::write_chrome(&path) {
            Ok(n) => println!("{n} span events written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        let attempted = base.attempted + traced.attempted;
        (
            metrics,
            attempted,
            base.failed + traced.failed,
            base.error.or(traced.error),
        )
    } else {
        let pool = plain(&args);
        println!(
            "{}: {} episodes, {} operations attempted, {} failed",
            args.workload, pool.episodes, pool.attempted, pool.failed
        );
        // Reported, not bounded: gateway's pooled p90 moved by a quarter
        // between runs of the same code.
        println!(
            "  {:<28} {:>16.4} us (report only)",
            "op_p90_us",
            quantile_us(&pool.hist, 0.9)
        );
        (pool.metrics(), pool.attempted, pool.failed, pool.error)
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.4} {unit}");
    }
    // A figure that could not be formed is left out and fails the run.
    let (measured, unformed): (Vec<Metric>, Vec<Metric>) =
        metrics.into_iter().partition(|m| m.1.is_finite());
    let error = error.or_else(|| {
        (!unformed.is_empty()).then(|| format!("{} could not be formed", unformed[0].0))
    });
    if let Some(e) = &error {
        eprintln!("perfbench: {}: {e}", args.workload);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        error.is_none(),
        json_metrics(&measured)
    );
}
