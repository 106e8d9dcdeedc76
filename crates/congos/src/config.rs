//! Protocol configuration.

use congos_gossip::{FanoutParams, GossipStrategy};

/// Which partition scheme a configuration uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PartitionScheme {
    /// `⌈log n⌉` bit partitions of 2 groups (base CONGOS, Section 4).
    Bits,
    /// `⌈c·τ·log n⌉` random partitions of `τ+1` groups
    /// (collusion-tolerant CONGOS, Section 6.2), derived from a shared seed.
    Random {
        /// Partition-count constant `c`.
        c: f64,
        /// Shared derivation seed (same at every process).
        seed: u64,
    },
}

/// Configuration of a CONGOS deployment. All processes must use identical
/// configuration — it plays the role of the "algorithm and `[n]`" a process
/// retains across restarts.
///
/// ```
/// use congos::CongosConfig;
///
/// let cfg = CongosConfig::collusion_tolerant(3, 42).without_degenerate_shortcut();
/// assert_eq!(cfg.tau, 3);
/// assert!(cfg.validate(64).is_ok());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CongosConfig {
    /// Collusion tolerance `τ`: rumors are split into `τ+1` fragments and
    /// confidentiality holds against coalitions of up to `τ` curious
    /// processes. `τ = 1` with [`PartitionScheme::Bits`] is the base
    /// algorithm (a process "colluding with itself", as Section 6.2 puts
    /// it).
    pub tau: usize,
    /// Partition scheme.
    pub scheme: PartitionScheme,
    /// Fanout parameters for the Proxy and GroupDistribution services
    /// (paper: `Θ(n^{1+48/√dline} log n / |collaborators|)`).
    pub service_fanout: FanoutParams,
    /// Fanout parameters for the GroupGossip/AllGossip substrate instances
    /// (paper: `Θ(n^{1+6/∛dline} polylog n)` collectively).
    pub gossip_fanout: FanoutParams,
    /// Substrate target selection: randomized epidemic (default) or the
    /// deterministic expander schedule — the de-randomized construction of
    /// \[13\], which the paper's substrate actually uses.
    pub gossip_strategy: GossipStrategy,
    /// Ablation hook: cap the number of partitions used (the paper needs
    /// all `log n` of them against adaptive group-killing adversaries —
    /// experiment E9 measures what a single partition costs in fallbacks).
    pub max_partitions: Option<usize>,
    /// Apply Section 6.2's shortcut "if τ ≥ n/log²n send everything
    /// directly". The threshold is asymptotic: at laptop scale it triggers
    /// already at τ = 2, which would make the collusion pipeline
    /// unmeasurable — experiments that study the pipeline itself disable
    /// the shortcut (`false`). Defaults to `true` (the paper's rule).
    pub degenerate_shortcut: bool,
    /// Section 7 extension: hide each rumor's destination set. The source
    /// expands every injected rumor into `n` singleton-destination rumors —
    /// real content for actual destinations, uniform noise for everyone
    /// else — all the same size. A one-byte marker *inside the
    /// secret-shared payload* (so only a legitimate reassembler can read
    /// it) tells recipients whether their copy is real; observers see `n`
    /// indistinguishable singleton rumors. The paper: message complexity
    /// unchanged, message size significantly increased — experiment E10
    /// measures both.
    pub hide_destinations: bool,
    /// Section 7 extension: hide the *existence* of rumors by continual
    /// injection of content-free decoys.
    pub cover_traffic: Option<CoverTrafficConfig>,
    /// Memory-lean service metadata, for large-`n` deployments:
    ///
    /// * `ProxyMeta` collaborator beacons and `GdShare` hit-set shares are
    ///   injected as *best-effort* gossip rumors — epidemic forwarding and
    ///   delivery as usual, but no per-member acknowledgment and no
    ///   deadline fallback. Metadata consumers need only eventual
    ///   delivery; the guaranteed-delivery machinery charges
    ///   `Θ(|group|)` acks/fallbacks per metadata rumor, an `n²`-per-
    ///   iteration steady-state term (every process beacons every
    ///   iteration).
    /// * The block-end sanitized hit-set (`Distribution`) is published by
    ///   one designated member per group (the lowest id) instead of every
    ///   member — the redundant copies are pure fault-tolerance slack, and
    ///   with each copy staying active for a whole block in every
    ///   process's forwarding set they are the single largest term of the
    ///   resident footprint (`Θ(n² log n)` bytes system-wide).
    ///
    /// Rumor Quality-of-Delivery is unaffected either way (worst case a
    /// missed confirmation, which the source's deadline fallback covers).
    /// Default `false`: the redundant paths, preserving bit-identical
    /// traces with prior releases. The memory sweeps (E3m) enable it to
    /// keep large-`n` points tractable.
    pub lean_metadata: bool,
}

/// Configuration of the cover-traffic extension.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoverTrafficConfig {
    /// Per-process, per-round probability of injecting a decoy.
    pub rate: f64,
    /// Decoy payload length (should match typical real rumor sizes).
    pub data_len: usize,
    /// Decoy deadline in rounds.
    pub deadline: u64,
}

impl CongosConfig {
    /// The base (no-collusion) configuration from Section 4, with
    /// laptop-scale fanout constants (see `FanoutParams` docs — the paper's
    /// asymptotic constants saturate the per-group cap at small `n`).
    pub fn base() -> Self {
        CongosConfig {
            tau: 1,
            scheme: PartitionScheme::Bits,
            service_fanout: FanoutParams {
                alpha: 2.0,
                gamma: 4.0,
                root: 2,
            },
            gossip_fanout: FanoutParams {
                alpha: 1.0,
                gamma: 2.0,
                root: 3,
            },
            gossip_strategy: GossipStrategy::Random,
            max_partitions: None,
            degenerate_shortcut: true,
            hide_destinations: false,
            cover_traffic: None,
            lean_metadata: false,
        }
    }

    /// Collusion-tolerant configuration for tolerance `τ` (Section 6.2):
    /// `τ+1`-way splits over `⌈c·τ·log n⌉` random partitions.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`.
    pub fn collusion_tolerant(tau: usize, seed: u64) -> Self {
        assert!(tau >= 1, "τ must be at least 1");
        CongosConfig {
            tau,
            scheme: PartitionScheme::Random { c: 2.0, seed },
            ..Self::base()
        }
    }

    /// Overrides the service fanout.
    pub fn service_fanout(mut self, params: FanoutParams) -> Self {
        self.service_fanout = params;
        self
    }

    /// Overrides the gossip fanout.
    pub fn gossip_fanout(mut self, params: FanoutParams) -> Self {
        self.gossip_fanout = params;
        self
    }

    /// Caps the number of partitions (ablation only; see `max_partitions`).
    pub fn max_partitions(mut self, cap: usize) -> Self {
        self.max_partitions = Some(cap);
        self
    }

    /// Selects the substrate's target-selection strategy.
    pub fn gossip_strategy(mut self, strategy: GossipStrategy) -> Self {
        self.gossip_strategy = strategy;
        self
    }

    /// Enables memory-lean service metadata (see `lean_metadata`).
    pub fn lean_metadata(mut self, enabled: bool) -> Self {
        self.lean_metadata = enabled;
        self
    }

    /// Disables the degenerate-collusion direct-send shortcut (see
    /// `degenerate_shortcut`).
    pub fn without_degenerate_shortcut(mut self) -> Self {
        self.degenerate_shortcut = false;
        self
    }

    /// Enables the destination-hiding extension (see `hide_destinations`).
    pub fn hide_destinations(mut self) -> Self {
        self.hide_destinations = true;
        self
    }

    /// Enables the cover-traffic extension (see `cover_traffic`).
    pub fn cover_traffic(mut self, cfg: CoverTrafficConfig) -> Self {
        self.cover_traffic = Some(cfg);
        self
    }

    /// `true` when payloads carry the real/decoy marker byte (needed by
    /// either Section 7 extension).
    pub fn framing_enabled(&self) -> bool {
        self.hide_destinations || self.cover_traffic.is_some()
    }

    /// `true` when the collusion-tolerant variant must abandon the pipeline
    /// entirely (`τ ≥ n/log²n`, Section 6.2: "all rumors are sent directly
    /// to their destinations").
    pub fn degenerate_collusion(&self, n: usize) -> bool {
        if self.tau <= 1 || !self.degenerate_shortcut {
            return false;
        }
        let lg = (n.max(2) as f64).log2();
        (self.tau as f64) >= n as f64 / (lg * lg)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        if self.tau == 0 {
            return Err("τ must be ≥ 1".into());
        }
        // n ≤ 1 needs no partitions at all (everything is local), so the
        // group-count constraint does not bind there.
        if self.tau + 1 > n && n > 1 && !self.degenerate_collusion(n) {
            return Err(format!("τ+1 = {} groups exceed n = {n}", self.tau + 1));
        }
        if matches!(self.scheme, PartitionScheme::Bits) && self.tau != 1 {
            return Err("bit partitions support only τ = 1".into());
        }
        Ok(())
    }
}

impl Default for CongosConfig {
    fn default() -> Self {
        Self::base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_config_is_valid() {
        assert_eq!(CongosConfig::base().validate(16), Ok(()));
        assert_eq!(CongosConfig::default(), CongosConfig::base());
    }

    #[test]
    fn collusion_config_checks_group_count() {
        let cfg = CongosConfig::collusion_tolerant(5, 1);
        // n=4 with τ=5 is the degenerate regime (τ ≥ n/log²n): valid, all
        // rumors go direct, so the group-count constraint does not bind.
        assert!(cfg.degenerate_collusion(4));
        assert_eq!(cfg.validate(4), Ok(()));
        assert_eq!(cfg.validate(64), Ok(()));
        // A non-degenerate configuration whose groups cannot fit is invalid.
        let tight = CongosConfig::collusion_tolerant(5, 1);
        assert!(!tight.degenerate_collusion(1 << 12));
        assert_eq!(tight.validate(1 << 12), Ok(()));
    }

    #[test]
    fn bits_scheme_requires_tau_one() {
        let cfg = CongosConfig {
            tau: 2,
            ..CongosConfig::base()
        };
        assert!(cfg.validate(64).is_err());
    }

    #[test]
    fn degenerate_collusion_threshold() {
        // n = 64, log²n = 36, n/log²n ≈ 1.78 ⇒ τ=2 is degenerate.
        let cfg = CongosConfig::collusion_tolerant(2, 0);
        assert!(cfg.degenerate_collusion(64));
        // Large n: τ=2 is comfortably below n/log²n.
        assert!(!cfg.degenerate_collusion(1 << 14));
        // The base algorithm never degenerates.
        assert!(!CongosConfig::base().degenerate_collusion(4));
    }
}
