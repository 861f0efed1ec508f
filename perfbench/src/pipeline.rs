//! The `pipeline` workload: `Pipeline::source` → one `stage` → sink over
//! SPSC stream edges. Each item is stamped when the source produces it;
//! its latency runs from that stamp to the sink.

use patternlets_metrics::{CounterId, MetricsHub};
use patternlets_stream::{Obs, Pipeline};

use crate::oracle::{self, SinkCheck};
use crate::spans::now_ns;
use crate::stats::Hist;

/// Items per episode.
pub const ITEMS: u64 = 1 << 20;

/// Queue capacity of every edge.
pub const CAPACITY: usize = 64;

#[derive(Clone, Copy)]
struct Item {
    seq: u64,
    value: u64,
    stamp_ns: u64,
}

/// The stage's transform.
fn stage(item: Item) -> Item {
    Item {
        value: item
            .value
            .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
            .rotate_left(29)
            ^ item.seq,
        ..item
    }
}

/// What one episode measured.
#[derive(Default)]
pub struct Episode {
    /// `run` called → the source stamped its first item.
    pub setup_ns: u64,
    /// First item stamped → last item sunk.
    pub loop_ns: u64,
    pub ops: u64,
    pub hist: Hist,
    pub error: Option<String>,
}

/// Run one episode of [`ITEMS`] items through `stages` (0 or 1) stages.
pub fn episode(seed: u64, stages: usize, hub: Option<&MetricsHub>) -> Episode {
    let obs = Obs {
        tracer: None,
        metrics: hub.cloned(),
    };
    let source = (0..ITEMS).map(move |seq| {
        let value = oracle::source_value(seed, seq);
        Item {
            seq,
            value,
            stamp_ns: now_ns(),
        }
    });
    let mut ep = Episode::default();
    let mut check = SinkCheck::new(seed, stages == 1);
    let (mut first_stamp, mut last_sunk) = (0, 0);
    let mut sink = |item: Item| {
        let now = now_ns();
        ep.hist.record(now.saturating_sub(item.stamp_ns));
        if item.seq == 0 {
            first_stamp = item.stamp_ns;
        }
        last_sunk = now;
        ep.ops += 1;
        check.accept(item.seq, item.value);
    };
    let t_run = now_ns();
    match stages {
        0 => Pipeline::source(source).run(CAPACITY, &obs, &mut sink),
        1 => Pipeline::source(source)
            .stage(stage)
            .run(CAPACITY, &obs, &mut sink),
        _ => unreachable!("the pipeline workload runs 0 or 1 stages"),
    }
    ep.setup_ns = first_stamp.saturating_sub(t_run);
    ep.loop_ns = last_sunk.saturating_sub(first_stamp);
    ep.error = check.finish(ITEMS).err();
    ep
}

/// SPSC edge waits (`SpscSpinWaits` + `SpscParkWaits`) per thousand
/// items, from a traced run's hub.
pub fn waits_per_kitem(hub: &MetricsHub, items: u64) -> f64 {
    let snap = hub.snapshot();
    let waits = snap.total(CounterId::SpscSpinWaits) + snap.total(CounterId::SpscParkWaits);
    waits as f64 * 1000.0 / items.max(1) as f64
}
