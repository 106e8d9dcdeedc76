//! The observing coalition: membership, sightings, and the engine tap.
//!
//! A coalition is a set of *curious-but-passive* processes that follow the
//! protocol faithfully and additionally log the metadata of every message
//! delivered to them. It is chosen by a [`CoalitionSpec`] — a pure function
//! of `(n, fraction, seed)` with its own `SmallRng`, so membership never
//! touches the engine's RNG stream. The [`CoalitionTap`] records sightings
//! through the [`Observer`] interface, which the engine and each socket
//! node's `NodeDriver` both report to; either way the executed protocol is
//! bit-identical to an untapped run.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use congos_sim::{EnvelopeRef, Observer, ProcessId, Protocol, Round, Tag};

/// One observation: in `round`, coalition member `observer` received a
/// message from `sender` on service `tag`. Payloads are never recorded —
/// the whole point is that the attack works on envelope metadata alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sighting {
    /// Delivery round.
    pub round: Round,
    /// The coalition member that received the message.
    pub observer: ProcessId,
    /// The process the message came from.
    pub sender: ProcessId,
    /// Service tag on the envelope.
    pub tag: Tag,
}

/// Deterministic coalition selection: `fraction_ppm` parts-per-million of
/// the `n` processes (at least one, at most `n - 1`), drawn by a dedicated
/// `SmallRng` seeded from `seed`.
///
/// Expressed in ppm rather than `f64` so the spec stays `Copy + Eq` and can
/// ride inside a harness `RunSpec`. The rumor's source is excluded from the
/// coalition when known (the standard assumption: the adversary is trying to
/// *find* the source, so the source itself is not one of its observers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CoalitionSpec {
    /// Coalition size as parts-per-million of `n` (100_000 = 10%).
    pub fraction_ppm: u32,
    /// Seed for the membership draw; independent of the engine seed.
    pub seed: u64,
}

impl CoalitionSpec {
    /// Spec for a coalition of `fraction` (in `[0, 1]`) of the processes.
    pub fn new(fraction: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "coalition fraction {fraction} outside [0, 1]"
        );
        CoalitionSpec {
            fraction_ppm: (fraction * 1_000_000.0).round() as u32,
            seed,
        }
    }

    /// The coalition fraction as a float.
    pub fn fraction(&self) -> f64 {
        self.fraction_ppm as f64 / 1_000_000.0
    }

    /// Coalition size for a system of `n` processes: `round(n · fraction)`,
    /// clamped to `[1, n - 1]` so there is always at least one observer and
    /// at least one suspect.
    pub fn size(&self, n: usize) -> usize {
        assert!(n >= 2, "a coalition needs n >= 2, got {n}");
        let raw = (n as f64 * self.fraction()).round() as usize;
        raw.clamp(1, n - 1)
    }

    /// The coalition members, in ascending id order. `exclude` (normally the
    /// rumor's source) is never selected.
    pub fn members(&self, n: usize, exclude: Option<ProcessId>) -> Vec<ProcessId> {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xC0A1_1710);
        let mut eligible: Vec<ProcessId> =
            ProcessId::all(n).filter(|p| Some(*p) != exclude).collect();
        eligible.shuffle(&mut rng);
        eligible.truncate(self.size(n));
        eligible.sort_unstable();
        eligible
    }
}

/// Append-only log of the coalition's [`Sighting`]s, in delivery order.
///
/// Delivery order is deterministic (the transports pin it; golden digests
/// depend on it), so two runs with the same seeds produce identical logs.
#[derive(Clone, Debug, Default)]
pub struct SightingLog {
    n: usize,
    sightings: Vec<Sighting>,
}

impl SightingLog {
    /// An empty log for a system of `n` processes.
    pub fn new(n: usize) -> Self {
        SightingLog {
            n,
            sightings: Vec::new(),
        }
    }

    /// System size the log was recorded against.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Appends one sighting.
    pub fn record(&mut self, s: Sighting) {
        debug_assert!(s.observer.as_usize() < self.n && s.sender.as_usize() < self.n);
        self.sightings.push(s);
    }

    /// Number of recorded sightings.
    pub fn len(&self) -> usize {
        self.sightings.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.sightings.is_empty()
    }

    /// Iterates sightings in recording (= delivery) order.
    pub fn iter(&self) -> impl Iterator<Item = &Sighting> {
        self.sightings.iter()
    }

    /// Earliest sighting round per sender, filtered to `tags` (empty = all)
    /// and to rounds `>= from`. Index `i` is the first round process `i` was
    /// seen sending, or `None` if never seen.
    pub fn first_per_sender(&self, tags: &[&'static str], from: Round) -> Vec<Option<Round>> {
        let mut first: Vec<Option<Round>> = vec![None; self.n];
        for s in &self.sightings {
            if s.round < from || !(tags.is_empty() || tags.contains(&s.tag.name())) {
                continue;
            }
            let slot = &mut first[s.sender.as_usize()];
            if slot.is_none_or(|r| s.round < r) {
                *slot = Some(s.round);
            }
        }
        first
    }
}

/// A passive observing coalition attached to a running execution.
///
/// An [`Observer`]: the engine, or a socket node's `NodeDriver`, calls
/// [`Observer::on_deliver`] for every delivered envelope, and the tap keeps
/// those whose receiver is a coalition member. Observers get no RNG handle
/// and no way to mutate engine state, so RNG-neutrality holds by
/// construction.
///
/// Self-deliveries (`src == dst`) are skipped: a member "hearing from
/// itself" carries no information about anyone else.
#[derive(Clone, Debug)]
pub struct CoalitionTap {
    watch: Vec<bool>,
    log: SightingLog,
}

impl CoalitionTap {
    /// A tap for coalition `members` in a system of `n` processes.
    pub fn new(n: usize, members: &[ProcessId]) -> Self {
        let mut watch = vec![false; n];
        for m in members {
            watch[m.as_usize()] = true;
        }
        CoalitionTap {
            watch,
            log: SightingLog::new(n),
        }
    }

    /// `true` if `p` is a coalition member.
    pub fn watches(&self, p: ProcessId) -> bool {
        self.watch[p.as_usize()]
    }

    /// The sightings recorded so far.
    pub fn log(&self) -> &SightingLog {
        &self.log
    }

    /// Consumes the tap, returning its log.
    pub fn into_log(self) -> SightingLog {
        self.log
    }

    /// Records one delivered envelope's metadata, if its receiver is a
    /// coalition member: what [`Observer::on_deliver`] does.
    pub fn record_delivery(&mut self, round: Round, src: ProcessId, dst: ProcessId, tag: Tag) {
        if src != dst && self.watch[dst.as_usize()] {
            self.log.record(Sighting {
                round,
                observer: dst,
                sender: src,
                tag,
            });
        }
    }
}

impl<P: Protocol> Observer<P> for CoalitionTap {
    fn on_deliver(&mut self, env: EnvelopeRef<'_, P::Msg>) {
        self.record_delivery(env.round, env.src, env.dst, env.tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalition_spec_sizes_clamp() {
        let spec = CoalitionSpec::new(0.10, 7);
        assert_eq!(spec.fraction_ppm, 100_000);
        assert_eq!(spec.size(64), 6);
        assert_eq!(spec.size(2), 1, "at least one observer");
        assert_eq!(CoalitionSpec::new(1.0, 7).size(8), 7, "at most n - 1");
    }

    #[test]
    fn members_are_deterministic_sorted_and_exclude() {
        let spec = CoalitionSpec::new(0.25, 42);
        let a = spec.members(16, Some(ProcessId::new(3)));
        let b = spec.members(16, Some(ProcessId::new(3)));
        assert_eq!(a, b, "same spec, same members");
        assert_eq!(a.len(), 4);
        assert!(!a.contains(&ProcessId::new(3)));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "ascending id order");
        let c = spec.members(16, None);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn tap_records_only_member_deliveries_and_skips_self() {
        let members = [ProcessId::new(1)];
        let mut tap = CoalitionTap::new(4, &members);
        tap.record_delivery(Round(3), ProcessId::new(0), ProcessId::new(1), Tag("t"));
        tap.record_delivery(Round(3), ProcessId::new(0), ProcessId::new(2), Tag("t"));
        tap.record_delivery(Round(4), ProcessId::new(1), ProcessId::new(1), Tag("t"));
        assert_eq!(tap.log().len(), 1);
        let s = *tap.log().iter().next().unwrap();
        assert_eq!(
            s,
            Sighting {
                round: Round(3),
                observer: ProcessId::new(1),
                sender: ProcessId::new(0),
                tag: Tag("t"),
            }
        );
    }

    #[test]
    fn first_per_sender_filters_tags_and_rounds() {
        let mut log = SightingLog::new(4);
        let obs = ProcessId::new(3);
        log.record(Sighting {
            round: Round(1),
            observer: obs,
            sender: ProcessId::new(0),
            tag: Tag("noise"),
        });
        log.record(Sighting {
            round: Round(2),
            observer: obs,
            sender: ProcessId::new(0),
            tag: Tag("rumor"),
        });
        log.record(Sighting {
            round: Round(5),
            observer: obs,
            sender: ProcessId::new(1),
            tag: Tag("rumor"),
        });
        log.record(Sighting {
            round: Round(4),
            observer: obs,
            sender: ProcessId::new(1),
            tag: Tag("rumor"),
        });
        let first = log.first_per_sender(&["rumor"], Round(2));
        assert_eq!(first[0], Some(Round(2)), "noise tag ignored");
        assert_eq!(first[1], Some(Round(4)), "earliest matching kept");
        assert_eq!(first[2], None);
        let all = log.first_per_sender(&[], Round(0));
        assert_eq!(all[0], Some(Round(1)), "empty filter admits every tag");
    }
}
