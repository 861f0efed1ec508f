//! Correctness oracles. Each one derives what the program should produce
//! from the seed alone, with this file's own generator and arithmetic,
//! and never from a value the program computed.

/// One step of splitmix64: the seeded generator behind every input.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Wire workloads: seeded payloads, byte-for-byte echoes, checksum allreduce
// ---------------------------------------------------------------------------

/// Fill `buf` with round `round` of episode `episode`'s payload. Every
/// round's pattern differs, so a duplicated, reordered or stale message
/// fails the byte comparison.
pub fn fill_pattern(seed: u64, episode: u64, round: u64, buf: &mut [u8]) {
    let mut state = seed ^ episode.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ round.rotate_left(32);
    for chunk in buf.chunks_mut(8) {
        let word = splitmix64(&mut state).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// Position-weighted byte sum, modulo 2^32: moving a byte changes it.
pub fn digest(buf: &[u8]) -> u32 {
    buf.iter().enumerate().fold(0u32, |acc, (i, &b)| {
        acc.wrapping_add((i as u32 + 1).wrapping_mul(b as u32))
    })
}

/// Compare a received payload with the round's expected pattern.
pub fn check_payload(round: u64, expected: &[u8], got: &[u8]) -> Result<(), String> {
    if got.len() != expected.len() {
        return Err(format!(
            "round {round}: {} bytes received, {} sent",
            got.len(),
            expected.len()
        ));
    }
    match expected.iter().zip(got).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(at) => Err(format!(
            "round {round}: byte {at} is {:#04x}, expected {:#04x}",
            got[at], expected[at]
        )),
    }
}

/// What the episode-closing `allreduce` of the two ranks' checksums must
/// return: each rank folds the digest of every payload it received, so
/// the sum is twice the fold over the seeded patterns.
pub fn expected_checksum_sum(seed: u64, episode: u64, rounds: u64, size: usize) -> u64 {
    let mut buf = vec![0u8; size];
    let fold = (0..rounds).fold(0u32, |acc, r| {
        fill_pattern(seed, episode, r, &mut buf);
        acc.wrapping_add(digest(&buf))
    });
    2 * fold as u64
}

// ---------------------------------------------------------------------------
// Gateway: the broadcast transcript
// ---------------------------------------------------------------------------

/// Length of the array `mpi/broadcast` broadcasts.
const BROADCAST_LEN: u64 = 8;

/// Check one np-rank `mpi/broadcast` transcript: exactly one `AFTER`
/// line per rank, each holding `[0, 1, 4, …, 49]` recomputed as `i*i`.
pub fn check_broadcast_output(text: &str, np: usize) -> Result<(), String> {
    let squares: Vec<String> = (0..BROADCAST_LEN).map(|i| (i * i).to_string()).collect();
    let expected_list = format!("[{}]", squares.join(", "));
    let mut seen = vec![0usize; np];
    for line in text.lines().filter(|l| l.contains("AFTER")) {
        let rest = line
            .strip_prefix("Process ")
            .ok_or_else(|| format!("unexpected AFTER line {line:?}"))?;
        let (rank, list) = rest
            .split_once(" AFTER  broadcast: ")
            .ok_or_else(|| format!("unexpected AFTER line {line:?}"))?;
        let rank: usize = rank
            .parse()
            .map_err(|_| format!("bad rank in AFTER line {line:?}"))?;
        if rank >= np {
            return Err(format!("AFTER line from rank {rank} in an np={np} job"));
        }
        if list != expected_list {
            return Err(format!(
                "rank {rank} holds {list}, expected {expected_list}"
            ));
        }
        seen[rank] += 1;
    }
    match seen.iter().position(|&n| n != 1) {
        None => Ok(()),
        Some(rank) => Err(format!(
            "rank {rank} printed {} AFTER lines, expected exactly one",
            seen[rank]
        )),
    }
}

// ---------------------------------------------------------------------------
// Pipeline: FIFO order, count and the stage's transform
// ---------------------------------------------------------------------------

/// The value the source emits for item `seq`.
pub fn source_value(seed: u64, seq: u64) -> u64 {
    let mut state = seed ^ seq.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut state)
}

/// What the stage must turn the source's value for `seq` into:
/// multiply by an odd constant modulo 2^64, rotate left by 29, xor the
/// sequence number. Recomputed here from the seed, not taken from the
/// source's item.
pub fn expected_stage_output(seed: u64, seq: u64) -> u64 {
    let product = (source_value(seed, seq) as u128 * 0xFF51_AFD7_ED55_8CCD_u128) as u64;
    product.rotate_left(29) ^ seq
}

/// Checks every item reaching the sink, in arrival order.
pub struct SinkCheck {
    seed: u64,
    /// Did the items pass through the stage? Without it they carry their
    /// source values.
    staged: bool,
    next: u64,
    errors: u64,
    first_error: Option<String>,
}

impl SinkCheck {
    pub fn new(seed: u64, staged: bool) -> Self {
        SinkCheck {
            seed,
            staged,
            next: 0,
            errors: 0,
            first_error: None,
        }
    }

    fn fail(&mut self, msg: String) {
        self.errors += 1;
        self.first_error.get_or_insert(msg);
    }

    /// One item arrived: it must be the next in FIFO order and carry its
    /// seeded source value, transformed by the stage if there is one.
    pub fn accept(&mut self, seq: u64, value: u64) {
        let expected = if self.staged {
            expected_stage_output(self.seed, seq)
        } else {
            source_value(self.seed, seq)
        };
        if seq != self.next {
            self.fail(format!("item {seq} arrived where {} was due", self.next));
        } else if value != expected {
            self.fail(format!(
                "item {seq} carries {value:#x}, expected {expected:#x}"
            ));
        }
        self.next = seq.max(self.next) + 1;
    }

    /// The stream ended: every item arrived, once, in order.
    pub fn finish(self, count: u64) -> Result<(), String> {
        if let Some(first) = self.first_error {
            return Err(format!("{} bad items; first: {first}", self.errors));
        }
        if self.next != count {
            return Err(format!(
                "{} items reached the sink, {count} were sent",
                self.next
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(round: u64, size: usize) -> Vec<u8> {
        let mut buf = vec![0u8; size];
        fill_pattern(7, 3, round, &mut buf);
        buf
    }

    #[test]
    fn patterns_repeat_per_seed_and_change_per_round() {
        assert_eq!(pattern(5, 64), pattern(5, 64));
        assert_ne!(pattern(5, 64), pattern(6, 64));
        let mut other_seed = vec![0u8; 64];
        fill_pattern(8, 3, 5, &mut other_seed);
        assert_ne!(pattern(5, 64), other_seed);
    }

    #[test]
    fn echo_check_rejects_corrupt_short_duplicate_and_reordered_payloads() {
        for size in [8, 65536] {
            let good = pattern(4, size);
            assert!(check_payload(4, &good, &good).is_ok());
            let mut corrupt = good.clone();
            corrupt[size / 2] ^= 0x10;
            assert!(check_payload(4, &good, &corrupt).is_err());
            assert!(check_payload(4, &good, &good[..size - 1]).is_err());
            // A duplicate of the previous round and a message from the
            // next round both arrive where round 4 was due.
            assert!(check_payload(4, &good, &pattern(3, size)).is_err());
            assert!(check_payload(4, &good, &pattern(5, size)).is_err());
        }
    }

    #[test]
    fn checksum_sum_rejects_a_missing_duplicated_or_reordered_round() {
        let size = 8;
        let rounds = 50;
        let expected = expected_checksum_sum(7, 3, rounds, size);
        let rank_fold = |order: &[u64]| {
            order
                .iter()
                .fold(0u32, |acc, &r| acc.wrapping_add(digest(&pattern(r, size))))
                as u64
        };
        let all: Vec<u64> = (0..rounds).collect();
        assert_eq!(2 * rank_fold(&all), expected);
        let missing: Vec<u64> = (1..rounds).collect();
        assert_ne!(rank_fold(&all) + rank_fold(&missing), expected);
        let mut duplicated = all.clone();
        duplicated[10] = 9;
        assert_ne!(rank_fold(&all) + rank_fold(&duplicated), expected);
        // Bytes moved inside a payload change the position-weighted digest.
        let mut swapped = pattern(0, size);
        swapped.swap(0, 1);
        assert_ne!(digest(&swapped), digest(&pattern(0, size)));
    }

    /// An np-rank job's streamed output, rank 0's banner included.
    fn transcript(np: usize) -> String {
        let ranks: String = (0..np)
            .map(|r| {
                format!(
                    "Process {r} BEFORE broadcast: []\nProcess {r} AFTER  broadcast: [0, 1, 4, 9, 16, 25, 36, 49]\n"
                )
            })
            .collect();
        format!("=== mpi/broadcast ({np} tasks, directive OFF (initial)) ===\n\n{ranks}\n")
    }

    #[test]
    fn broadcast_check_accepts_the_real_transcript() {
        assert!(check_broadcast_output(&transcript(2), 2).is_ok());
    }

    #[test]
    fn broadcast_check_rejects_corrupt_duplicated_reordered_and_missing_lines() {
        let good = transcript(2);
        let corrupt = good.replacen("36, 49", "36, 48", 1);
        assert!(check_broadcast_output(&corrupt, 2).is_err());
        let reordered = good.replacen("[0, 1, 4", "[1, 0, 4", 1);
        assert!(check_broadcast_output(&reordered, 2).is_err());
        // Every worker running the whole world in-process: np× the lines.
        let duplicated = format!("{good}{good}");
        assert!(check_broadcast_output(&duplicated, 2).is_err());
        let missing: String = good
            .lines()
            .filter(|l| !l.starts_with("Process 1 AFTER"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(check_broadcast_output(&missing, 2).is_err());
        assert!(check_broadcast_output(&transcript(3), 2).is_err());
    }

    fn run_sink(items: &[(u64, u64)], count: u64) -> Result<(), String> {
        let mut sink = SinkCheck::new(11, true);
        for &(seq, value) in items {
            sink.accept(seq, value);
        }
        sink.finish(count)
    }

    fn good_items(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|s| (s, expected_stage_output(11, s))).collect()
    }

    #[test]
    fn sink_check_accepts_the_stage_output_in_order() {
        assert!(run_sink(&good_items(100), 100).is_ok());
        // Without a stage, items carry their source values.
        let mut sink = SinkCheck::new(11, false);
        for seq in 0..100 {
            sink.accept(seq, source_value(11, seq));
        }
        assert!(sink.finish(100).is_ok());
    }

    #[test]
    fn sink_check_rejects_corrupt_duplicated_reordered_and_missing_items() {
        let mut corrupt = good_items(100);
        corrupt[40].1 ^= 1;
        assert!(run_sink(&corrupt, 100).is_err());
        // An unstaged source value: the transform did not run.
        let mut unstaged = good_items(100);
        unstaged[7].1 = source_value(11, 7);
        assert!(run_sink(&unstaged, 100).is_err());
        let mut duplicated = good_items(100);
        duplicated.insert(50, duplicated[49]);
        assert!(run_sink(&duplicated, 100).is_err());
        let mut reordered = good_items(100);
        reordered.swap(20, 21);
        assert!(run_sink(&reordered, 100).is_err());
        let missing = good_items(99);
        assert!(run_sink(&missing, 100).is_err());
        let mut gap = good_items(100);
        gap.remove(60);
        assert!(run_sink(&gap, 100).is_err());
    }
}
