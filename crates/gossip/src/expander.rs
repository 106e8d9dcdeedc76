//! Deterministic target schedules over expander-like graphs.
//!
//! The original continuous-gossip substrate \[13\] *de-randomizes* the
//! epidemic: random per-round choices are replaced by edges of explicit
//! expander graphs, so the protocol's behavior — and its guarantees — hold
//! against an adversary that knows every future "choice". This module
//! provides that mode using a classic constructive expander family on the
//! group's member list: the **hypercube/Chord offsets** `±2^j` (plus the
//! unit cycle), which give logarithmic diameter and good vertex expansion
//! on any group size, rotated by round so that over any window of rounds a
//! member contacts a spread of distinct peers.
//!
//! Whether a gossip instance uses random sampling or the deterministic
//! schedule is a [`GossipStrategy`] choice; both satisfy the black-box
//! contract the CONGOS layer needs (probability-1 QoD via the deadline
//! fallback, bounded per-round complexity).

use congos_sim::{IdSet, ProcessId, Round};

/// How a gossip endpoint chooses its epidemic push targets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GossipStrategy {
    /// Uniform random members (the analysis-friendly randomized epidemic).
    #[default]
    Random,
    /// Deterministic expander schedule (the de-randomized \[13\] mode): the
    /// adversary gains nothing from seeing the process's coin flips,
    /// because there are none.
    Expander,
}

/// The deterministic neighbor schedule for one member of a group.
///
/// Members are ranked by id within the (sorted) membership; the `j`-th
/// target of rank `i` in round `t` is
/// `rank (i + d_{(t+j) mod D}) mod m`, where the offset family
/// `d_0.. = 1, 2, 4, …, 2^⌈log₂ m⌉⁻¹, m−1, m−2, m−4, …` walks the
/// hypercube offsets forwards and backwards.
///
/// Properties used by the substrate:
/// * every offset is non-zero mod `m` (no self-sends);
/// * over `D = Θ(log m)` consecutive rounds a member contacts targets whose
///   offsets span all binary scales — the union graph has logarithmic
///   diameter, so a rumor injected anywhere floods the group in
///   `O(log² m)` rounds even if a constant fraction of members crash.
///
/// Replaces the contents of `targets` with the picks, in schedule order; a
/// kept `targets` makes it allocate nothing. Ranks are resolved through
/// [`IdSet::rank`] and [`IdSet::select`], so the member list is never built.
///
/// # Panics
///
/// Panics if the group has two or more members and `me` is not one of them.
pub fn expander_targets(
    membership: &IdSet,
    me: ProcessId,
    now: Round,
    fanout: usize,
    targets: &mut Vec<ProcessId>,
) {
    targets.clear();
    let m = membership.len();
    if m <= 1 {
        return;
    }
    assert!(membership.contains(me), "caller is a member of the group");
    let my_rank = membership.rank(me);

    // Offset family: powers of two, then their negations (mod m), with a
    // repeat where the halves meet (when m − 1 is a power of two) dropped.
    // At most 2·⌈log₂ m⌉ offsets, so they fit on the stack.
    let bits = usize::BITS - (m - 1).leading_zeros(); // ⌈log2 m⌉
    let mut offsets = [0usize; 2 * usize::BITS as usize];
    let mut d = 0;
    for off in (0..bits)
        .map(|j| 1 << j)
        .chain((0..bits).map(|j| m - (1 << j)))
    {
        if d == 0 || offsets[d - 1] != off {
            offsets[d] = off;
            d += 1;
        }
    }

    // One pass over the family visits every rank the schedule can reach;
    // a rank two offsets share is picked once.
    let k = fanout.min(m - 1);
    let t = (now.as_u64() % d as u64) as usize;
    for j in 0..d {
        if targets.len() >= k {
            break;
        }
        let rank = (my_rank + offsets[(t + j) % d]) % m;
        let p = membership.select(rank).expect("rank below len");
        if !targets.contains(&p) {
            targets.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn group(ids: &[usize], n: usize) -> IdSet {
        IdSet::from_iter(n, ids.iter().map(|i| ProcessId::new(*i)))
    }

    fn schedule(g: &IdSet, me: ProcessId, now: Round, fanout: usize) -> Vec<ProcessId> {
        let mut targets = Vec::new();
        expander_targets(g, me, now, fanout, &mut targets);
        targets
    }

    /// Reference schedule, spelled out: the member list and the offset
    /// family built as `Vec`s, and a `seen` flag per rank.
    fn listed_schedule(
        membership: &IdSet,
        me: ProcessId,
        now: Round,
        fanout: usize,
    ) -> Vec<ProcessId> {
        let members: Vec<ProcessId> = membership.iter().collect();
        let m = members.len();
        if m <= 1 {
            return Vec::new();
        }
        let my_rank = members.binary_search(&me).expect("member");
        let bits = usize::BITS - (m - 1).leading_zeros();
        let mut offsets: Vec<usize> = Vec::with_capacity(2 * bits as usize);
        for j in 0..bits {
            offsets.push((1usize << j) % m);
        }
        for j in 0..bits {
            offsets.push(m - ((1usize << j) % m));
        }
        offsets.retain(|o| *o != 0 && *o != m);
        offsets.dedup();
        if offsets.is_empty() {
            offsets.push(1);
        }
        let d = offsets.len();
        let t = now.as_u64() as usize;
        let mut out = Vec::with_capacity(fanout.min(m - 1));
        let mut seen = vec![false; m];
        for j in 0..fanout.min(m - 1) + d {
            if out.len() >= fanout.min(m - 1) {
                break;
            }
            let rank = (my_rank + offsets[(t + j) % d]) % m;
            if rank != my_rank && !seen[rank] {
                seen[rank] = true;
                out.push(members[rank]);
            }
        }
        out
    }

    #[test]
    fn picks_match_the_listed_schedule() {
        let mut targets = vec![ProcessId::new(0); 3];
        // Every small group size, so each `m = 2^j + 1` (the halves of the
        // offset family meet) is drawn; then random memberships.
        for m in 1..=70 {
            let g = IdSet::full(m);
            for me in g.iter() {
                for fanout in [1, 2, 5, m] {
                    let now = Round((7 * me.as_usize() + fanout) as u64);
                    expander_targets(&g, me, now, fanout, &mut targets);
                    assert_eq!(targets, listed_schedule(&g, me, now, fanout), "m={m}");
                }
            }
        }
        let mut rng = SmallRng::seed_from_u64(0xE4);
        for _ in 0..3000 {
            let n = rng.gen_range(1usize..300);
            let density = rng.gen::<f64>();
            let mut g = IdSet::from_iter(
                n,
                (0..n).filter(|_| rng.gen_bool(density)).map(ProcessId::new),
            );
            let me = ProcessId::new(rng.gen_range(0..n));
            g.insert(me);
            let now = Round(rng.gen_range(0u64..1 << 40));
            let fanout = rng.gen_range(0..=g.len() + 2);
            expander_targets(&g, me, now, fanout, &mut targets);
            assert_eq!(
                targets,
                listed_schedule(&g, me, now, fanout),
                "n={n} |g|={} me={me} {now} fanout={fanout}",
                g.len()
            );
        }
    }

    #[test]
    fn no_self_sends_and_distinct_targets() {
        let g = group(&[0, 3, 5, 8, 9, 12, 17, 20], 24);
        for t in 0..40u64 {
            for me in g.iter() {
                let targets = schedule(&g, me, Round(t), 3);
                assert!(!targets.contains(&me), "self-send at t={t}");
                let mut d = targets.clone();
                d.sort_unstable();
                d.dedup();
                assert_eq!(d.len(), targets.len(), "duplicate targets");
                assert!(targets.iter().all(|p| g.contains(*p)));
            }
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let g = group(&[1, 2, 4, 7], 8);
        let a = schedule(&g, ProcessId::new(2), Round(9), 2);
        let b = schedule(&g, ProcessId::new(2), Round(9), 2);
        assert_eq!(a, b);
    }

    #[test]
    fn rotation_covers_all_scales() {
        // Over enough rounds with fanout 1, a member contacts peers at
        // every binary distance — the union neighborhood is large.
        let n = 32;
        let g = IdSet::full(n);
        let me = ProcessId::new(5);
        let mut contacted: Vec<ProcessId> = Vec::new();
        for t in 0..64u64 {
            contacted.extend(schedule(&g, me, Round(t), 1));
        }
        contacted.sort_unstable();
        contacted.dedup();
        assert!(
            contacted.len() >= 2 * (n as f64).log2() as usize - 2,
            "union neighborhood too small: {}",
            contacted.len()
        );
    }

    #[test]
    fn flood_reaches_whole_group_quickly() {
        // Simulate a pure flood over the deterministic schedule: informed
        // members push to their round targets; everyone must be informed
        // within O(log² m) rounds.
        let m = 64;
        let g = IdSet::full(m);
        let mut informed = vec![false; m];
        informed[7] = true;
        let fanout = 2;
        let mut rounds_needed = None;
        for t in 0..200u64 {
            let snapshot = informed.clone();
            for (i, is) in snapshot.iter().enumerate() {
                if *is {
                    for tgt in schedule(&g, ProcessId::new(i), Round(t), fanout) {
                        informed[tgt.as_usize()] = true;
                    }
                }
            }
            if informed.iter().all(|b| *b) {
                rounds_needed = Some(t + 1);
                break;
            }
        }
        let needed = rounds_needed.expect("flood must complete");
        assert!(needed <= 40, "flood took {needed} rounds");
    }

    #[test]
    fn tiny_groups_are_handled() {
        let g = group(&[4], 8);
        assert!(schedule(&g, ProcessId::new(4), Round(0), 3).is_empty());
        let g = group(&[2, 6], 8);
        let t = schedule(&g, ProcessId::new(2), Round(5), 3);
        assert_eq!(t, vec![ProcessId::new(6)]);
    }
}
