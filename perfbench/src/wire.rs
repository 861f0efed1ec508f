//! The wire workloads, `shm_small` and `tcp_bulk`: two ranks, each a
//! thread of this process, joined over the shm or TCP fabric, running
//! closed-loop `Comm::send`/`recv` round trips.
//!
//! `Comm` over a wire fabric is reachable only through a fabric provider,
//! and `mp::install_fabric_provider` is process-global (first install
//! wins). The benchmark installs one provider that hands each rank thread
//! the fabric it established itself, through a thread-local slot, the way
//! `net::JobCtx` hands `pmserve` workers theirs. That provider must never
//! share a process with the gateway workload, whose workers install their
//! own; `main` runs one workload per process.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use patternlets_core::reduce::ops::Sum;
use patternlets_metrics::{CounterId, MetricsHub};
use patternlets_mp::{Comm, Fabric, ProvidedWorld, WorldBuilder, WorldSpec};
use patternlets_net::shm::{self, FabricMode};

use crate::oracle;
use crate::spans::{self, now_ns};
use crate::stats::Hist;

/// One wire workload's shape.
#[derive(Clone, Copy)]
pub struct Shape {
    pub mode: FabricMode,
    /// Payload bytes per message.
    pub size: usize,
    /// Round trips per episode.
    pub rounds: u64,
}

pub const SHM_SMALL: Shape = Shape {
    mode: FabricMode::Shm,
    size: 8,
    rounds: 5_000,
};

pub const TCP_BULK: Shape = Shape {
    mode: FabricMode::Tcp,
    size: 64 << 10,
    rounds: 100,
};

const TAG: i32 = 7;

thread_local! {
    /// The fabric this rank thread established, taken by the provider
    /// when the thread builds its world.
    static PROVIDED: RefCell<Option<(usize, Arc<dyn Fabric>)>> = const { RefCell::new(None) };
}

/// Install the benchmark's provider (once per process).
fn install_provider() {
    static INSTALLED: std::sync::Once = std::sync::Once::new();
    INSTALLED.call_once(|| {
        let won = patternlets_mp::install_fabric_provider(Box::new(|_spec: &WorldSpec| {
            Ok(PROVIDED
                .with(|slot| slot.borrow_mut().take())
                .map(|(rank, fabric)| ProvidedWorld::Rank { rank, fabric }))
        }));
        assert!(won, "another fabric provider was installed in this process");
    });
}

/// Process-wide context: one rendezvous server, one directory for ring
/// segments (removed on drop; no `pmrun` sweep runs here to clean it).
pub struct Env {
    server: String,
    shm_dir: PathBuf,
    host: String,
    epoch: AtomicU64,
}

impl Env {
    pub fn new(out_dir: &std::path::Path) -> Env {
        install_provider();
        let server = patternlets_net::rendezvous::serve()
            .expect("rendezvous server binds on loopback")
            .to_string();
        Env {
            server,
            shm_dir: out_dir.join(format!("shm-{}", std::process::id())),
            host: shm::host_id(),
            epoch: AtomicU64::new(1),
        }
    }

    /// Establish one rank of a fresh two-rank world over `mode`.
    fn establish(
        &self,
        me: usize,
        mode: FabricMode,
        epoch: u64,
        hub: Option<MetricsHub>,
    ) -> patternlets_core::Result<Arc<dyn Fabric>> {
        let spec = WorldSpec {
            np: 2,
            ranks_per_node: 1,
            fault: None,
            poll_interval: patternlets_mp::DEFAULT_POLL_INTERVAL,
            tracer: None,
            metrics: hub,
            epoch,
        };
        shm::establish(
            &self.server,
            me,
            &spec,
            None,
            mode,
            &self.shm_dir,
            &self.host,
        )
    }

    /// Establish both ranks of a two-rank world from two threads of this
    /// process (each end holds its own fabric). Returns the fabrics in
    /// rank order.
    pub fn mesh(&self, mode: FabricMode) -> Vec<Arc<dyn Fabric>> {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|me| s.spawn(move || self.establish(me, mode, epoch, None)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("establish thread")
                        .expect("two-rank mesh establishes")
                })
                .collect()
        })
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.shm_dir);
    }
}

/// What one episode measured.
#[derive(Default)]
pub struct Episode {
    /// First thread spawned → rank 0's first send.
    pub setup_ns: u64,
    /// Establishment time of the slower rank.
    pub establish_ns: u64,
    pub loop_ns: u64,
    pub ops: u64,
    pub failed: u64,
    pub hist: Hist,
    /// First oracle or runtime error, if any.
    pub error: Option<String>,
    /// Traced episodes: `Comm::send` span durations (both ranks) and
    /// rank 0's `Comm::recv` span durations.
    pub send: Hist,
    pub recv_wait: Hist,
}

/// The layer figures of a run's episodes, pooled.
#[derive(Default)]
pub struct Layers {
    pub send: Hist,
    pub recv_wait: Hist,
    pub establish_ms: Vec<f64>,
}

impl Layers {
    pub fn add(&mut self, ep: &Episode) {
        self.send.merge(&ep.send);
        self.recv_wait.merge(&ep.recv_wait);
        self.establish_ms.push(ep.establish_ns as f64 / 1e6);
    }
}

/// Per-rank result of the world body.
struct RankOut {
    loop_start_ns: u64,
    loop_ns: u64,
    hist: Hist,
    send: Hist,
    recv_wait: Hist,
    ops: u64,
    error: Option<String>,
}

/// Run one episode: establish, `shape.rounds` round trips, the closing
/// checksum allreduce, teardown. `patterns` holds the seeded payloads,
/// generated before the clock starts.
pub fn episode(
    env: &Env,
    shape: Shape,
    seed: u64,
    index: u64,
    patterns: &[Vec<u8>],
    hub: Option<&MetricsHub>,
) -> Episode {
    let epoch = env.epoch.fetch_add(1, Ordering::SeqCst);
    let traced = hub.is_some();
    let t0 = now_ns();
    let results: Vec<(u64, patternlets_core::Result<RankOut>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|me| {
                s.spawn(move || {
                    let te = now_ns();
                    let fabric = match env.establish(me, shape.mode, epoch, hub.cloned()) {
                        Ok(f) => f,
                        Err(e) => return (0, Err(e)),
                    };
                    let establish_ns = now_ns() - te;
                    PROVIDED.with(|slot| *slot.borrow_mut() = Some((me, fabric)));
                    let run = WorldBuilder::new(2)
                        .run(|comm| rank_body(&comm, shape, seed, index, patterns, traced));
                    let out = match run {
                        Ok(mut outs) if outs.len() == 1 => outs.pop().expect("one result"),
                        Ok(outs) => Err(patternlets_core::Error::InvalidConfig(format!(
                            "world ran {} ranks in this thread, not one over the fabric",
                            outs.len()
                        ))),
                        Err(e) => Err(e),
                    };
                    (establish_ns, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect()
    });

    let mut ep = Episode {
        establish_ns: results.iter().map(|r| r.0).max().unwrap_or(0),
        ..Episode::default()
    };
    let mut outs = Vec::new();
    for (_, r) in results {
        match r {
            Ok(out) => outs.push(out),
            Err(e) => {
                ep.error.get_or_insert(format!("rank failed: {e}"));
            }
        }
    }
    if outs.len() != 2 {
        ep.failed = shape.rounds;
        return ep;
    }
    let rank0 = &outs[0];
    ep.setup_ns = rank0.loop_start_ns - t0;
    ep.loop_ns = rank0.loop_ns;
    ep.ops = rank0.ops;
    ep.hist = rank0.hist.clone();
    ep.recv_wait = rank0.recv_wait.clone();
    for out in &outs {
        ep.send.merge(&out.send);
        if let Some(e) = &out.error {
            ep.error.get_or_insert(e.clone());
        }
    }
    ep
}

/// One rank's part. Rank 0 sends each round's pattern and times the
/// round trip; rank 1 echoes what it received. Payloads are checked byte
/// for byte after the loop, and the two ranks' digests are summed by an
/// `allreduce` that must equal the sum recomputed from the seed.
fn rank_body(
    comm: &Comm,
    shape: Shape,
    seed: u64,
    index: u64,
    patterns: &[Vec<u8>],
    traced: bool,
) -> patternlets_core::Result<RankOut> {
    let me = comm.rank();
    let peer = 1 - me;
    let mut received = Vec::with_capacity(patterns.len());
    let (mut hist, mut send, mut recv_wait) = (Hist::default(), Hist::default(), Hist::default());
    let loop_start_ns = now_ns();
    for pattern in patterns {
        if me == 0 {
            let t = now_ns();
            let echo = if traced {
                let _op = spans::span(me, "op.round_trip");
                let (dur, sent) =
                    spans::time_ns(me, "mp.comm.send", || comm.send(pattern, peer, TAG));
                send.record(dur);
                sent?;
                let (dur, echo) = spans::time_ns(me, "mp.comm.recv", || comm.recv::<u8>(peer, TAG));
                recv_wait.record(dur);
                echo?.0
            } else {
                comm.send(pattern, peer, TAG)?;
                comm.recv::<u8>(peer, TAG)?.0
            };
            hist.record(now_ns() - t);
            received.push(echo);
        } else {
            let (msg, _) = comm.recv::<u8>(peer, TAG)?;
            if traced {
                let (dur, sent) = spans::time_ns(me, "mp.comm.send", || comm.send(&msg, peer, TAG));
                send.record(dur);
                sent?
            } else {
                comm.send(&msg, peer, TAG)?
            }
            received.push(msg);
        }
    }
    let loop_ns = now_ns() - loop_start_ns;

    let mut error = None;
    let mut fold = 0u32;
    for (round, (expected, got)) in patterns.iter().zip(&received).enumerate() {
        if let Err(e) = oracle::check_payload(round as u64, expected, got) {
            error.get_or_insert(format!("rank {me}: {e}"));
        }
        fold = fold.wrapping_add(oracle::digest(got));
    }
    let total = comm.allreduce(&[fold as u64], &Sum)?;
    let expected = oracle::expected_checksum_sum(seed, index, shape.rounds, shape.size);
    if total != [expected] {
        error.get_or_insert(format!(
            "rank {me}: checksum allreduce gave {total:?}, expected {expected}"
        ));
    }
    Ok(RankOut {
        loop_start_ns,
        loop_ns,
        hist,
        send,
        recv_wait,
        ops: patterns.len() as u64,
        error,
    })
}

/// The seeded payloads of one episode.
pub fn patterns(shape: Shape, seed: u64, index: u64) -> Vec<Vec<u8>> {
    (0..shape.rounds)
        .map(|r| {
            let mut buf = vec![0u8; shape.size];
            oracle::fill_pattern(seed, index, r, &mut buf);
            buf
        })
        .collect()
}

/// Counters read from a traced run's hub, per round trip.
pub struct Counters {
    pub spsc_waits: f64,
    pub frames: f64,
    pub bytes: f64,
}

pub fn counters(hub: &MetricsHub, ops: u64) -> Counters {
    let snap = hub.snapshot();
    let per = |id| snap.total(id) as f64 / ops.max(1) as f64;
    Counters {
        spsc_waits: per(CounterId::SpscSpinWaits) + per(CounterId::SpscParkWaits),
        frames: per(CounterId::NetFramesSent),
        bytes: per(CounterId::NetBytesToPeer),
    }
}
