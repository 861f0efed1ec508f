//! The layer ladder: each step times calls into one layer's public
//! functions, from outside, at the workload's message size.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use patternlets_mp::envelope::{Envelope, Payload};
use patternlets_mp::{Datatype, Fabric, SourceSel, TagSel};
use patternlets_net::frame::{decode_frame, encode_frame, Frame};

use crate::spans::{self, now_ns, LADDER_LANE};
use crate::stats::{median, Hist};

/// Median time per call in µs: `f` runs in batches of `batch` calls
/// (enough to dwarf the clock read) until `budget` is spent, and each
/// batch gives one sample.
pub fn per_call_us(budget: Duration, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let deadline = Instant::now() + budget;
    while samples.len() < 5 || Instant::now() < deadline {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64 / 1e3);
    }
    median(&samples).expect("at least five samples")
}

/// Calls per batch so a batch of `size`-byte work lasts about 10 µs.
fn batch_for(size: usize) -> usize {
    (16384 / size.max(1)).clamp(1, 256)
}

fn payload(size: usize) -> Vec<u8> {
    let mut buf = vec![0u8; size];
    crate::oracle::fill_pattern(1, 0, 0, &mut buf);
    buf
}

/// One `Env` frame as `Comm::send` would frame a `size`-byte `u8` message.
fn env_frame(size: usize) -> Frame {
    Frame::Env {
        comm_id: 0,
        src: 0,
        tag: 7,
        type_name: "u8".to_string(),
        count: size as u64,
        seq: 1,
        needs_ack: false,
        overtake: 0,
        payload: payload(size),
    }
}

/// `encode_frame` and `decode_frame` of one `Env` frame, µs per call.
pub fn frame_codec_us(size: usize, budget: Duration) -> (f64, f64) {
    let frame = env_frame(size);
    let record = encode_frame(&frame);
    let enc = per_call_us(budget / 2, batch_for(size), || {
        std::hint::black_box(encode_frame(std::hint::black_box(&frame)));
    });
    let dec = per_call_us(budget / 2, batch_for(size), || {
        std::hint::black_box(decode_frame(std::hint::black_box(&record)).expect("own record"));
    });
    (enc, dec)
}

/// `datatype::encode` and `Datatype::decode_slice` of `size` `u8`s, µs.
pub fn datatype_codec_us(size: usize, budget: Duration) -> (f64, f64) {
    let data = payload(size);
    let wire = patternlets_mp::datatype::encode(&data);
    let enc = per_call_us(budget / 2, batch_for(size), || {
        std::hint::black_box(patternlets_mp::datatype::encode(std::hint::black_box(
            &data[..],
        )));
    });
    let dec = per_call_us(budget / 2, batch_for(size), || {
        std::hint::black_box(<u8 as Datatype>::decode_slice(&wire, size).expect("own encoding"));
    });
    (enc, dec)
}

/// `crc32` over `size` bytes, µs.
pub fn crc32_us(size: usize, budget: Duration) -> f64 {
    let data = payload(size);
    per_call_us(budget, batch_for(size), || {
        std::hint::black_box(patternlets_core::crc::crc32(std::hint::black_box(&data)));
    })
}

/// Median of per-round-trip times from a closed echo loop run for
/// `budget`, in µs.
fn echo_rtt_us(budget: Duration, mut round_trip: impl FnMut()) -> f64 {
    let mut hist = Hist::default();
    let deadline = Instant::now() + budget;
    while hist.count() < 100 || Instant::now() < deadline {
        for _ in 0..64 {
            let t = now_ns();
            round_trip();
            hist.record(now_ns() - t);
        }
    }
    hist.percentile(0.5).expect("at least 100 round trips") / 1e3
}

/// Round trip of `size` bytes over two heap `SpscRing`s sized like the
/// shm fabric's segments, with an echo thread as the peer: the conduit
/// floor under the shm fabric.
pub fn spsc_rtt_us(size: usize, budget: Duration) -> f64 {
    use patternlets_core::spsc::SpscRing;
    let cap = patternlets_net::shm::SHM_RING_CAPACITY;
    let (fwd, rev) = (SpscRing::heap(cap), SpscRing::heap(cap));
    let (mut p_fwd, mut c_rev) = (fwd.producer(), rev.consumer());
    let (mut c_fwd, mut p_rev) = (fwd.consumer(), rev.producer());
    let echo = std::thread::spawn(move || {
        let mut buf = vec![0u8; size];
        // The ring reports EOF once the producer closes.
        while c_fwd.read_exact(&mut buf).is_ok() {
            if p_rev.push_all(&buf, || false).is_err() {
                break;
            }
        }
    });
    let buf = payload(size);
    let mut back = vec![0u8; size];
    let us = echo_rtt_us(budget, || {
        p_fwd.push_all(&buf, || false).expect("echo keeps reading");
        c_rev.read_exact(&mut back).expect("echo answers");
    });
    p_fwd.close();
    echo.join().expect("ring echo thread");
    us
}

/// Round trip of `size` bytes over a loopback `TCP_NODELAY` socket with
/// an echo thread as the peer: the OS floor under the TCP fabric.
pub fn socket_rtt_us(size: usize, budget: Duration) -> f64 {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("loopback listener");
    let addr = listener.local_addr().expect("listener address");
    let echo = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("bench peer connects");
        sock.set_nodelay(true).expect("nodelay");
        let mut buf = vec![0u8; size];
        while sock.read_exact(&mut buf).is_ok() {
            if sock.write_all(&buf).is_err() {
                break;
            }
        }
    });
    let mut sock = std::net::TcpStream::connect(addr).expect("echo accepts");
    sock.set_nodelay(true).expect("nodelay");
    let buf = payload(size);
    let mut back = vec![0u8; size];
    let us = echo_rtt_us(budget, || {
        sock.write_all(&buf).expect("echo keeps reading");
        sock.read_exact(&mut back).expect("echo answers");
    });
    drop(sock);
    echo.join().expect("socket echo thread");
    us
}

/// `Fabric::deliver` + `Mailbox::recv_match` round trips of `size` bytes
/// on an established two-rank fabric, without `Comm`, driven from one
/// thread through both ranks' reader threads. Returns the round trip and
/// the median time inside `deliver`, in µs.
pub fn fabric_rtt_us(fabrics: &[Arc<dyn Fabric>], size: usize, budget: Duration) -> (f64, f64) {
    let bytes = Bytes::from(payload(size));
    let env = |me: usize, tag: i32| Envelope {
        comm_id: 0,
        src: me,
        tag,
        type_name: "u8",
        count: size,
        payload: Payload::Bytes(bytes.clone()),
        seq: fabrics[me].next_send_seq(me),
        needs_ack: false,
    };
    let recv = |me: usize, src: usize, tag: i32| {
        fabrics[me]
            .mailbox(me)
            .recv_match(
                0,
                SourceSel::Rank(src),
                TagSel::Tag(tag),
                patternlets_mp::DEFAULT_POLL_INTERVAL,
                || None,
                || {},
            )
            .expect("round-trip envelope arrives")
    };
    let mut deliver = Hist::default();
    let rtt = echo_rtt_us(budget, || {
        let (dur, _) = spans::time_ns(LADDER_LANE, "mp.fabric.deliver", || {
            fabrics[0].deliver(0, 1, env(0, 1), 0, false)
        });
        deliver.record(dur);
        std::hint::black_box(recv(1, 0, 1));
        fabrics[1].deliver(1, 0, env(1, 2), 0, false);
        std::hint::black_box(recv(0, 1, 2));
    });
    for (rank, fabric) in fabrics.iter().enumerate() {
        fabric.finish(rank);
    }
    (
        rtt,
        deliver.percentile(0.5).expect("deliveries timed") / 1e3,
    )
}
