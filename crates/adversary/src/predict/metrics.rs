//! Attack-quality metrics: identification probability, top-k accuracy, and
//! the DP-style `ε` used by the gossip-privacy papers.
//!
//! Credits are computed under a *uniformly randomized tie-break*: if an
//! estimator's posterior has several maxima, a real attacker would pick one
//! at random, so a trial contributes the exact probability that the random
//! pick is correct (`1/|argmax set|` if the source is among them). This
//! keeps every metric deterministic — the accounting is the expectation over
//! the tie-break, not one sampled draw — while remaining an unbiased
//! estimate of the sampled attack's hit rate.

use congos_sim::ProcessId;

/// Probability that a uniformly randomized argmax of `posterior` picks
/// `source`. `candidates` and `posterior` are parallel slices.
pub fn argmax_credit(posterior: &[f64], candidates: &[ProcessId], source: ProcessId) -> f64 {
    debug_assert_eq!(posterior.len(), candidates.len());
    let Some(si) = candidates.iter().position(|c| *c == source) else {
        return 0.0;
    };
    let max = posterior.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let tol = tie_tolerance(max);
    if posterior[si] < max - tol {
        return 0.0;
    }
    let ties = posterior.iter().filter(|p| **p >= max - tol).count();
    1.0 / ties as f64
}

/// Probability that `source` lands in the top `k` of `posterior` when ties
/// are broken uniformly at random.
pub fn topk_credit(
    posterior: &[f64],
    candidates: &[ProcessId],
    source: ProcessId,
    k: usize,
) -> f64 {
    debug_assert_eq!(posterior.len(), candidates.len());
    let Some(si) = candidates.iter().position(|c| *c == source) else {
        return 0.0;
    };
    let s = posterior[si];
    let tol = tie_tolerance(posterior.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    let better = posterior.iter().filter(|p| **p > s + tol).count();
    if better >= k {
        return 0.0;
    }
    let equal = posterior.iter().filter(|p| (**p - s).abs() <= tol).count();
    debug_assert!(equal >= 1);
    ((k - better) as f64 / equal as f64).min(1.0)
}

fn tie_tolerance(max: f64) -> f64 {
    // Posteriors are built from softmax/uniform splits; exact ties are the
    // common case and float noise is tiny relative to the mass scale.
    1e-9 * max.abs().max(1e-300)
}

/// Differential-privacy-style leakage bound from an identification
/// probability, after Bellet/Guerraoui/Hendrikx: a source-prediction attack
/// distinguishing "s started the rumor" from "someone else did" with
/// success probability `p` over `m` equally likely candidates implies the
/// mechanism is at best `ε`-DP for
/// `ε = ln(p·(m − 1) / (1 − p))`, clamped at 0.
///
/// A uniform-guessing adversary (`p = 1/m`) gives `ε = 0` — no leakage —
/// and a perfect one (`p → 1`) gives `ε → ∞`.
pub fn dp_epsilon(p: f64, m: usize) -> f64 {
    assert!(m >= 2, "ε needs at least two candidates");
    let p = p.clamp(0.0, 1.0 - 1e-12);
    let odds = p * (m as f64 - 1.0) / (1.0 - p);
    odds.ln().max(0.0)
}

/// Accumulates per-trial credits into identification probability, top-k
/// accuracy, and a Laplace-smoothed `ε̂`.
#[derive(Clone, Debug)]
pub struct AttackScore {
    k: usize,
    trials: u64,
    id_mass: f64,
    topk_mass: f64,
}

impl AttackScore {
    /// A fresh accumulator; `k` is the top-k rank threshold.
    pub fn new(k: usize) -> Self {
        AttackScore {
            k,
            trials: 0,
            id_mass: 0.0,
            topk_mass: 0.0,
        }
    }

    /// Scores one trial's posterior against the true `source`.
    pub fn observe(&mut self, posterior: &[f64], candidates: &[ProcessId], source: ProcessId) {
        self.trials += 1;
        self.id_mass += argmax_credit(posterior, candidates, source);
        self.topk_mass += topk_credit(posterior, candidates, source, self.k);
    }

    /// Number of scored trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Mean identification probability over the scored trials.
    pub fn p_id(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.id_mass / self.trials as f64
    }

    /// Mean top-k accuracy over the scored trials.
    pub fn top_k(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.topk_mass / self.trials as f64
    }

    /// DP-style `ε̂` over `m` candidates, from the Laplace-smoothed success
    /// rate `(id_mass + 1) / (trials + 2)` — the smoothing keeps `ε̂` finite
    /// when the attack succeeds in every trial of a finite sweep.
    pub fn epsilon(&self, m: usize) -> f64 {
        let p_hat = (self.id_mass + 1.0) / (self.trials as f64 + 2.0);
        dp_epsilon(p_hat, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<ProcessId> {
        (0..n).map(ProcessId::new).collect()
    }

    #[test]
    fn argmax_credit_handles_ties_and_misses() {
        let c = ids(4);
        assert_eq!(
            argmax_credit(&[0.1, 0.6, 0.2, 0.1], &c, ProcessId::new(1)),
            1.0
        );
        assert_eq!(
            argmax_credit(&[0.1, 0.6, 0.2, 0.1], &c, ProcessId::new(2)),
            0.0
        );
        let split = argmax_credit(&[0.4, 0.4, 0.1, 0.1], &c, ProcessId::new(0));
        assert!((split - 0.5).abs() < 1e-12);
        // Source outside the candidate pool can never be credited.
        assert_eq!(
            argmax_credit(&[1.0], &[ProcessId::new(0)], ProcessId::new(9)),
            0.0
        );
    }

    #[test]
    fn topk_credit_counts_partial_tie_slots() {
        let c = ids(5);
        let p = [0.3, 0.2, 0.2, 0.2, 0.1];
        assert_eq!(topk_credit(&p, &c, ProcessId::new(0), 2), 1.0);
        // One of k=2 slots is taken by 0.3; three candidates tie at 0.2 for
        // the remaining slot.
        let t = topk_credit(&p, &c, ProcessId::new(2), 2);
        assert!((t - 1.0 / 3.0).abs() < 1e-12, "got {t}");
        assert_eq!(topk_credit(&p, &c, ProcessId::new(4), 2), 0.0);
    }

    #[test]
    fn epsilon_zero_at_uniform_guessing() {
        assert_eq!(dp_epsilon(0.25, 4), 0.0);
        assert!(dp_epsilon(0.5, 4) > 0.0);
        assert!(dp_epsilon(0.99, 4) > dp_epsilon(0.5, 4));
        // Below-uniform success clamps to 0 rather than going negative.
        assert_eq!(dp_epsilon(0.1, 4), 0.0);
    }

    #[test]
    fn score_accumulates_means() {
        let c = ids(4);
        let mut score = AttackScore::new(2);
        score.observe(&[1.0, 0.0, 0.0, 0.0], &c, ProcessId::new(0)); // hit
        score.observe(&[1.0, 0.0, 0.0, 0.0], &c, ProcessId::new(1)); // miss
        assert_eq!(score.trials(), 2);
        assert!((score.p_id() - 0.5).abs() < 1e-12);
        assert!(score.epsilon(4) > 0.0);
        // Smoothed: p̂ = (1 + 1) / (2 + 2) = 0.5 ⇒ ε = ln(3·0.5/0.5) = ln 3.
        assert!((score.epsilon(4) - 3.0f64.ln()).abs() < 1e-9);
    }
}
