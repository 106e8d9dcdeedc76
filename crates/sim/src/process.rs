//! Process identifiers.

use std::fmt;

/// Identifier of a process, in `0..n`.
///
/// The paper uses ids `1..=n`; we use the zero-based convention natural in
/// Rust. The `ℓ`-th bit of the id defines the bit-partitions of Section 4.2
/// (see [`bit`](ProcessId::bit)).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process id from a raw index.
    pub fn new(index: usize) -> Self {
        ProcessId(u32::try_from(index).expect("process index fits in u32"))
    }

    /// Returns the id as a `usize` index.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Returns the `ℓ`-th bit (0-based, little-endian) of the id's binary
    /// representation — the basis of partition `ℓ` in the paper.
    pub fn bit(self, ell: u32) -> u8 {
        ((self.0 >> ell) & 1) as u8
    }

    /// Iterates over all process ids `0..n`.
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> {
        (0..n).map(ProcessId::new)
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<ProcessId> for usize {
    fn from(id: ProcessId) -> usize {
        id.as_usize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_extracts_binary_representation() {
        let p = ProcessId::new(0b1011);
        assert_eq!(p.bit(0), 1);
        assert_eq!(p.bit(1), 1);
        assert_eq!(p.bit(2), 0);
        assert_eq!(p.bit(3), 1);
        assert_eq!(p.bit(4), 0);
    }

    #[test]
    fn distinct_ids_differ_in_some_bit() {
        // The heart of Lemma 5: unique ids ⇒ some bit separates any two.
        for a in 0..64usize {
            for b in 0..64usize {
                if a == b {
                    continue;
                }
                let (pa, pb) = (ProcessId::new(a), ProcessId::new(b));
                assert!(
                    (0..6).any(|ell| pa.bit(ell) != pb.bit(ell)),
                    "{pa} and {pb} must differ in one of the first 6 bits"
                );
            }
        }
    }

    #[test]
    fn all_enumerates_in_order() {
        let ids: Vec<usize> = ProcessId::all(4).map(ProcessId::as_usize).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn display_and_debug_are_compact() {
        assert_eq!(format!("{}", ProcessId::new(7)), "p7");
        assert_eq!(format!("{:?}", ProcessId::new(7)), "p7");
    }
}
