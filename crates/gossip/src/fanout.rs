//! The per-collaborator fanout formula.
//!
//! The paper's services send, per collaborator per round,
//! `Θ(n^{1+c/ᵏ√dline} · log n / |collaborators|)` messages — `c = 6, k = 3`
//! for the continuous-gossip substrate, `c = 48, k = 2` for the Proxy and
//! GroupDistribution services. Dividing by the collaborator count is what
//! keeps the *collective* per-round complexity bounded (Lemma 7): however
//! many processes participate, together they send `O(n^{1+c/ᵏ√dline} log n)`.
//!
//! The constants are asymptotic: at laptop scale (`n ≤ 2¹⁰`) the paper's
//! `c = 48` makes `n^{c/√dline}` exceed `n` and the formula saturates at the
//! trivial cap of "message everyone". [`FanoutParams`] therefore exposes the
//! coefficient so experiments can both (a) run the protocol in the regime
//! where the decay with `dline` is visible and (b) sweep the coefficient to
//! exhibit the saturation crossover (experiment E9).

/// Parameters of the fanout formula
/// `α · n^{γ/ᵏ√dline} · ln n / collaborators`, clamped to
/// `[1, group_size − 1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FanoutParams {
    /// Multiplicative constant `α` (the paper's hidden Θ-constant).
    pub alpha: f64,
    /// Exponent coefficient `γ` (paper: 6 for continuous gossip, 48 for
    /// Proxy/GroupDistribution).
    pub gamma: f64,
    /// Root degree `k` applied to `dline` (paper: 3 for continuous gossip —
    /// Theorem 11 also cites a 6th-root variant — and 2 for
    /// Proxy/GroupDistribution).
    pub root: u32,
}

impl FanoutParams {
    /// The substrate's parameters: `Θ(n^{6/∛dline} log n)` per collaborator.
    pub fn continuous_gossip() -> Self {
        FanoutParams {
            alpha: 1.0,
            gamma: 6.0,
            root: 3,
        }
    }

    /// The Proxy/GroupDistribution parameters: `Θ(n^{48/√dline} log n)`.
    pub fn proxy() -> Self {
        FanoutParams {
            alpha: 1.0,
            gamma: 48.0,
            root: 2,
        }
    }

    /// A laptop-scale variant with coefficient `gamma` (used by experiments
    /// so the decay-with-deadline shape is visible below the saturation
    /// cap).
    pub fn scaled(gamma: f64) -> Self {
        FanoutParams {
            alpha: 1.0,
            gamma,
            root: 3,
        }
    }

    /// Sets `α`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }
}

impl Default for FanoutParams {
    fn default() -> Self {
        Self::continuous_gossip()
    }
}

/// Computes the per-collaborator fanout for system size `n`, deadline class
/// `dline`, an estimate of the number of collaborators, and the size of the
/// group being addressed. Result is clamped to `[1, group_size − 1]` (a
/// process never needs more distinct targets than the rest of its group),
/// and is 0 when the group has no other member.
pub fn fanout(
    params: FanoutParams,
    n: usize,
    dline: u64,
    collaborators: usize,
    group_size: usize,
) -> usize {
    if group_size <= 1 {
        return 0;
    }
    let n_f = n.max(2) as f64;
    let dline_f = dline.max(1) as f64;
    let exponent = params.gamma / dline_f.powf(1.0 / params.root as f64);
    let raw = params.alpha * n_f.powf(exponent) * n_f.ln() / collaborators.max(1) as f64;
    (raw.ceil() as usize).clamp(1, group_size - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_decays_with_deadline() {
        let p = FanoutParams::scaled(6.0);
        let short = fanout(p, 1024, 16, 1, 1024);
        let long = fanout(p, 1024, 4096, 1, 1024);
        assert!(
            short > long,
            "short deadlines must cost more: {short} vs {long}"
        );
    }

    #[test]
    fn fanout_shares_work_among_collaborators() {
        let p = FanoutParams::scaled(2.0);
        let solo = fanout(p, 256, 256, 1, 256);
        let crowd = fanout(p, 256, 256, 64, 256);
        assert!(solo >= crowd * 8, "64 collaborators split the load");
    }

    #[test]
    fn fanout_saturates_at_group_size() {
        // The paper's γ=48 exceeds the cap at laptop scale.
        let p = FanoutParams::proxy();
        assert_eq!(fanout(p, 256, 64, 1, 128), 127);
    }

    #[test]
    fn fanout_floors_at_one_and_handles_tiny_groups() {
        let p = FanoutParams::scaled(0.0).alpha(1e-9);
        assert_eq!(fanout(p, 256, 64, 1000, 16), 1);
        assert_eq!(fanout(p, 256, 64, 1, 1), 0);
        assert_eq!(fanout(p, 256, 64, 1, 0), 0);
    }

    #[test]
    fn presets_match_paper_constants() {
        let cg = FanoutParams::continuous_gossip();
        assert_eq!((cg.gamma, cg.root), (6.0, 3));
        let px = FanoutParams::proxy();
        assert_eq!((px.gamma, px.root), (48.0, 2));
    }
}
