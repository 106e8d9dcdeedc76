//! Global round numbering and block arithmetic.
//!
//! CONGOS divides time into *blocks* of `dline/4` rounds, each block into
//! *iterations* of `⌊√dline⌋ + 2` rounds (Section 4.2 of the paper). Blocks
//! are aligned to the global clock (`t mod dline`), so all processes agree on
//! block boundaries even after a restart — the only state a restarted process
//! retains is the global round number.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A globally numbered synchronous round.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Round(pub u64);

impl Round {
    /// The first round of an execution.
    pub const ZERO: Round = Round(0);

    /// Returns the raw round number.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the next round.
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// Rounds elapsed since `earlier` (saturating).
    pub fn since(self, earlier: Round) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Debug for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl Add<u64> for Round {
    type Output = Round;
    fn add(self, rhs: u64) -> Round {
        Round(self.0 + rhs)
    }
}

impl AddAssign<u64> for Round {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Round> for Round {
    type Output = u64;
    fn sub(self, rhs: Round) -> u64 {
        self.0 - rhs.0
    }
}

/// Block/iteration arithmetic for one protocol instance with deadline class
/// `dline`.
///
/// * block length = `dline / 4` rounds;
/// * iteration length = `⌊√dline⌋ + 2` rounds;
/// * each block holds at least `√dline / 8` iterations when `dline > 4`
///   (Lemma 6), a property checked by `iterations_per_block` tests.
/// ```
/// use congos_sim::{BlockClock, Round};
///
/// let clock = BlockClock::new(64);
/// assert_eq!(clock.block_len(), 16);
/// assert!(clock.is_block_start(Round(32)));
/// assert_eq!(clock.iteration_of(Round(3)), Some(0));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockClock {
    dline: u64,
    block_len: u64,
    iter_len: u64,
}

impl BlockClock {
    /// Creates the clock for deadline class `dline`.
    ///
    /// # Panics
    ///
    /// Panics if `dline < 4` — such short deadlines bypass the block pipeline
    /// entirely (the protocol sends those rumors directly; Section 5 assumes
    /// `dline > 48`).
    pub fn new(dline: u64) -> Self {
        assert!(dline >= 4, "block clock requires dline >= 4, got {dline}");
        let block_len = dline / 4;
        let iter_len = dline.isqrt() + 2;
        BlockClock {
            dline,
            block_len,
            iter_len,
        }
    }

    /// The deadline class this clock manages.
    pub fn dline(self) -> u64 {
        self.dline
    }

    /// Rounds per block (`dline/4`).
    pub fn block_len(self) -> u64 {
        self.block_len
    }

    /// Rounds per iteration (`⌊√dline⌋ + 2`).
    pub fn iter_len(self) -> u64 {
        self.iter_len
    }

    /// Number of whole iterations that fit in a block.
    pub fn iterations_per_block(self) -> u64 {
        self.block_len / self.iter_len
    }

    /// Index of the block containing round `t` (blocks aligned to the global
    /// clock, i.e. block `b` spans rounds `[b·block_len, (b+1)·block_len)`).
    pub fn block_of(self, t: Round) -> u64 {
        t.0 / self.block_len
    }

    /// Offset of round `t` within its block, in `0..block_len`.
    pub fn offset_in_block(self, t: Round) -> u64 {
        t.0 % self.block_len
    }

    /// `true` iff round `t` is the first round of a block.
    pub fn is_block_start(self, t: Round) -> bool {
        self.offset_in_block(t) == 0
    }

    /// `true` iff round `t` is the last round of a block.
    pub fn is_block_end(self, t: Round) -> bool {
        self.offset_in_block(t) == self.block_len - 1
    }

    /// First round of block `b`.
    pub fn block_start(self, b: u64) -> Round {
        Round(b * self.block_len)
    }

    /// Index of the iteration within the block containing round `t`, or
    /// `None` if `t` falls in the slack after the last whole iteration.
    pub fn iteration_of(self, t: Round) -> Option<u64> {
        let off = self.offset_in_block(t);
        let it = off / self.iter_len;
        (it < self.iterations_per_block()).then_some(it)
    }

    /// Offset of round `t` within its iteration (`0` = the sending round),
    /// or `None` in the end-of-block slack.
    pub fn offset_in_iteration(self, t: Round) -> Option<u64> {
        self.iteration_of(t)?;
        Some(self.offset_in_block(t) % self.iter_len)
    }

    /// `true` iff `t` lies in the slack after the final whole iteration of
    /// its block (these rounds carry only block-finalization work).
    pub fn in_block_slack(self, t: Round) -> bool {
        self.iteration_of(t).is_none()
    }
}

/// Truncates a rumor deadline exactly as Section 4.2 prescribes:
/// cap at `cap_rounds` (the paper's `c·log⁶ n`), then round down to a power
/// of two. Returns the deadline class.
pub fn trim_deadline(d: u64, cap_rounds: u64) -> u64 {
    let d = d.min(cap_rounds).max(1);
    // Largest power of two ≤ d.
    1u64 << (63 - d.leading_zeros() as u64)
}

/// The paper's deadline cap `c·log⁶ n` for a system of `n` processes,
/// with `c = 1`: `⌈(log₂ n)⁶⌉`, with a floor of 64 so the block pipeline is
/// meaningful at small `n`. (Section 4.2 trims longer deadlines to it; the
/// constant does not change the asymptotic complexity.)
pub fn deadline_cap(n: usize) -> u64 {
    let lg = (n.max(2) as f64).log2();
    lg.powi(6).ceil().max(64.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_arithmetic() {
        let r = Round(10);
        assert_eq!(r.next(), Round(11));
        assert_eq!(r + 5, Round(15));
        assert_eq!(Round(15) - r, 5);
        assert_eq!(r.since(Round(3)), 7);
        assert_eq!(Round(3).since(r), 0, "since is saturating");
    }

    #[test]
    fn block_lengths_match_paper() {
        let c = BlockClock::new(64);
        assert_eq!(c.block_len(), 16);
        assert_eq!(c.iter_len(), 8 + 2);
        assert_eq!(c.iterations_per_block(), 1);

        let c = BlockClock::new(1024);
        assert_eq!(c.block_len(), 256);
        assert_eq!(c.iter_len(), 32 + 2);
        assert_eq!(c.iterations_per_block(), 7);
    }

    #[test]
    fn lemma6_iterations_per_block_lower_bound() {
        // Lemma 6: at least √dline/8 iterations per block, for dline > 4.
        // (The paper's proof uses iter_len ≤ 2√dline, which needs √dline ≥ 2.)
        for dline in [16u64, 48, 64, 100, 256, 333, 1024, 4096, 1 << 20] {
            let c = BlockClock::new(dline);
            let bound = (dline.isqrt()) / 8;
            assert!(
                c.iterations_per_block() >= bound,
                "dline={dline}: {} iterations < bound {bound}",
                c.iterations_per_block()
            );
        }
    }

    #[test]
    fn block_and_iteration_indexing() {
        let c = BlockClock::new(64); // block 16, iter 10
        assert_eq!(c.block_of(Round(0)), 0);
        assert_eq!(c.block_of(Round(15)), 0);
        assert_eq!(c.block_of(Round(16)), 1);
        assert!(c.is_block_start(Round(16)));
        assert!(c.is_block_end(Round(15)));
        assert_eq!(c.block_start(2), Round(32));

        assert_eq!(c.iteration_of(Round(0)), Some(0));
        assert_eq!(c.offset_in_iteration(Round(3)), Some(3));
        // Rounds 10..16 fall in the slack (only one 10-round iteration fits).
        assert_eq!(c.iteration_of(Round(10)), None);
        assert!(c.in_block_slack(Round(12)));
        assert!(!c.in_block_slack(Round(9)));
    }

    #[test]
    fn blocks_are_globally_aligned() {
        let c = BlockClock::new(256); // block 64
                                      // Same offsets regardless of absolute time — restart-safe.
        assert_eq!(c.offset_in_block(Round(1000)), 1000 % 64);
        assert_eq!(c.block_of(Round(1000)), 1000 / 64);
    }

    #[test]
    fn trim_deadline_caps_then_rounds_down() {
        assert_eq!(trim_deadline(100, 1 << 20), 64);
        assert_eq!(trim_deadline(64, 1 << 20), 64);
        assert_eq!(trim_deadline(63, 1 << 20), 32);
        assert_eq!(trim_deadline(1 << 30, 4096), 4096);
        assert_eq!(trim_deadline(5000, 4096), 4096);
        assert_eq!(trim_deadline(0, 4096), 1);
    }

    #[test]
    fn deadline_cap_grows_polylog() {
        let c16 = deadline_cap(16);
        let c256 = deadline_cap(256);
        assert!(c256 > c16);
        assert_eq!(deadline_cap(2), 64, "floor applies at tiny n");
    }

    #[test]
    #[should_panic(expected = "dline >= 4")]
    fn block_clock_rejects_tiny_deadlines() {
        let _ = BlockClock::new(3);
    }
}
