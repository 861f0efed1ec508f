//! The benchmark's clock and its own spans. Spans are recorded around
//! calls into each layer from the benchmark's code on one process-wide
//! `patternlets_trace::Tracer` (lane = rank, or the ladder's own lane)
//! and written out as a Chrome trace when the traced run ends.

use std::sync::OnceLock;
use std::time::Instant;

use patternlets_trace::{chrome, CollSpan, Tracer};

/// Nanoseconds since the first call in this process: one clock shared by
/// every thread, so spans and stamps from different threads compare.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Lanes the tracer keeps; the benchmark uses lanes 0, 1 and [`LADDER_LANE`].
const LANES: usize = 16;

/// Events one lane keeps; older ones are dropped, which bounds memory and
/// the written file on long runs.
const EVENTS_PER_LANE: usize = 4096;

/// The lane of the ladder's own calls, apart from the ranks'.
pub const LADDER_LANE: usize = 9;

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer::with_shape(LANES, EVENTS_PER_LANE))
}

/// Open span `name` on `lane`; it closes when the guard drops.
pub fn span(lane: usize, name: &'static str) -> CollSpan {
    tracer().coll_span(lane, name)
}

/// Time `f` inside span `name` on `lane`; returns the call's duration
/// and `f`'s result.
pub fn time_ns<R>(lane: usize, name: &'static str, f: impl FnOnce() -> R) -> (u64, R) {
    let _span = span(lane, name);
    let start = now_ns();
    let r = f();
    (now_ns() - start, r)
}

/// Write the spans recorded so far as a Chrome trace (`chrome://tracing`,
/// Perfetto) to `path`; returns the number of events written.
pub fn write_chrome(path: &std::path::Path) -> std::io::Result<usize> {
    let trace = tracer().drain();
    std::fs::write(path, chrome::to_chrome_json(&trace))?;
    Ok(trace.events.len())
}
