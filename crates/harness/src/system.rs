//! Uniform view over the protocols under test.

use congos::{CongosNode, DeliveredRumor, NodeStats};
use congos_adversary::RumorSpec;
use congos_baselines::{CryptoMulticastNode, DirectNode, StronglyConfidentialNode};
use congos_gossip::standalone::Delivered;
use congos_gossip::GossipNode;
use congos_sim::Protocol;

/// A gossip protocol the harness can run generically: its input can be built
/// from a [`RumorSpec`] and its outputs expose the workload rumor id.
pub trait GossipSystem: Protocol + 'static
where
    Self::Input: From<RumorSpec>,
{
    /// Display name in tables.
    const NAME: &'static str;

    /// Workload id of a delivered output.
    fn wid_of(out: &Self::Output) -> u64;

    /// This process's counters (all zero for protocols that keep none).
    /// [`RunOutcome::stats`](crate::RunOutcome::stats) sums them over every
    /// incarnation, and the harness asserts the summed
    /// [`NodeStats::rejected`] is 0: in the simulator every sender is
    /// correct.
    fn stats(&self) -> NodeStats {
        NodeStats::default()
    }
}

impl GossipSystem for CongosNode {
    const NAME: &'static str = "congos";
    fn wid_of(out: &DeliveredRumor) -> u64 {
        out.wid
    }

    fn stats(&self) -> NodeStats {
        CongosNode::stats(self)
    }
}

impl GossipSystem for GossipNode {
    const NAME: &'static str = "epidemic";
    fn wid_of(out: &Delivered) -> u64 {
        out.wid
    }
}

impl GossipSystem for DirectNode {
    const NAME: &'static str = "direct";
    fn wid_of(out: &Delivered) -> u64 {
        out.wid
    }
}

impl GossipSystem for StronglyConfidentialNode {
    const NAME: &'static str = "strong";
    fn wid_of(out: &Delivered) -> u64 {
        out.wid
    }
}

impl GossipSystem for CryptoMulticastNode {
    const NAME: &'static str = "crypto";
    fn wid_of(out: &Delivered) -> u64 {
        out.wid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let names = [
            <CongosNode as GossipSystem>::NAME,
            <GossipNode as GossipSystem>::NAME,
            <DirectNode as GossipSystem>::NAME,
            <StronglyConfidentialNode as GossipSystem>::NAME,
            <CryptoMulticastNode as GossipSystem>::NAME,
        ];
        let mut dedup = names.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
