//! Tests of the Section 7 metadata-hiding extensions: destination hiding
//! and cover traffic.

use congos::{ConfidentialityAuditor, CongosConfig, CongosMsg, CongosNode, CoverTrafficConfig};
use congos_adversary::{CrriAdversary, NoFailures, NoInjections, OneShot, RumorSpec};
use congos_sim::{Engine, EngineConfig, EnvelopeRef, Observer, ProcessId, Round};

fn engine_with(cfg: CongosConfig, n: usize, seed: u64) -> Engine<CongosNode> {
    Engine::with_factory(EngineConfig::new(n).seed(seed), move |id, n, _s| {
        CongosNode::with_config(id, n, cfg.clone())
    })
}

/// Observer asserting that under destination hiding every fragment on the
/// wire has a *singleton* destination set — the original `ρ.D` is invisible.
struct SingletonCheck;

impl Observer<CongosNode> for SingletonCheck {
    fn on_deliver(&mut self, env: EnvelopeRef<'_, CongosMsg>) {
        for f in env.payload.fragments() {
            assert_eq!(
                f.dest.len(),
                1,
                "destination hiding must expose only singleton sets"
            );
        }
        if let CongosMsg::Shoot { rumor, .. } = env.payload {
            assert_eq!(rumor.dest.len(), 1);
        }
    }
}

#[test]
fn destination_hiding_delivers_only_to_real_destinations() {
    let n = 12;
    let cfg = CongosConfig::base().hide_destinations();
    let dest = vec![ProcessId::new(3), ProcessId::new(7)];
    let secret = vec![0xAB; 16];
    let spec = RumorSpec::new(0, secret.clone(), 64, dest.clone());
    let mut adv = CrriAdversary::new(
        NoFailures,
        OneShot::new(Round(0), vec![(ProcessId::new(0), spec)]),
    );
    let mut e = engine_with(cfg, n, 31);
    let mut check = SingletonCheck;
    e.run_observed(66, &mut adv, &mut check);

    // Only the two real destinations output anything; the other nine
    // received same-sized noise and silently discarded it.
    let receivers: Vec<ProcessId> = e.outputs().iter().map(|o| o.process).collect();
    assert_eq!(receivers.len(), 2, "got {receivers:?}");
    for d in &dest {
        assert!(receivers.contains(d));
    }
    for o in e.outputs() {
        assert_eq!(o.value.data, secret, "markers must be stripped");
        assert!(o.round.as_u64() <= 64);
    }
    // Non-destinations reassembled decoys and discarded them.
    let discarded: u64 = ProcessId::all(n)
        .map(|p| e.protocol(p).stats().decoys_discarded)
        .sum();
    assert!(discarded > 0, "decoy copies must have been discarded");
}

/// Destination hiding starts n singleton rumors per injection, seq 0 being
/// p0's copy: the audit must hold whichever process is the source.
#[test]
fn destination_hiding_is_audited_clean() {
    let n = 12;
    let cfg = CongosConfig::base().hide_destinations();
    for source in [ProcessId::new(0), ProcessId::new(1)] {
        let dest = vec![ProcessId::new(5)];
        let spec = RumorSpec::new(0, vec![1, 2, 3, 4], 64, dest);
        let mut adv = CrriAdversary::new(NoFailures, OneShot::new(Round(0), vec![(source, spec)]));
        let mut audit = ConfidentialityAuditor::new(n);
        let mut e = engine_with(cfg.clone(), n, 32);
        e.run_observed(66, &mut adv, &mut audit);
        audit.assert_clean();
        assert_eq!(e.outputs().len(), 1);
        assert_eq!(e.outputs()[0].value.data, vec![1, 2, 3, 4]);
    }
}

#[test]
fn cover_traffic_produces_indistinguishable_decoys_and_no_outputs() {
    let n = 12;
    let cfg = CongosConfig::base().cover_traffic(CoverTrafficConfig {
        rate: 0.05,
        data_len: 16,
        deadline: 64,
    });
    let mut adv = CrriAdversary::new(NoFailures, NoInjections);
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = engine_with(cfg, n, 33);
    e.run_observed(192, &mut adv, &mut audit);
    audit.assert_clean();

    let injected: u64 = ProcessId::all(n)
        .map(|p| e.protocol(p).stats().decoys_injected)
        .sum();
    assert!(injected > 3, "cover traffic must flow: {injected}");
    // Decoys generate real protocol traffic...
    assert!(e.metrics().total() > 100);
    // ...but never a user-visible delivery.
    assert!(e.outputs().is_empty(), "decoys must never surface");
}

#[test]
fn real_rumors_ride_alongside_cover_traffic() {
    let n = 12;
    let cfg = CongosConfig::base().cover_traffic(CoverTrafficConfig {
        rate: 0.05,
        data_len: 16,
        deadline: 64,
    });
    let dest = vec![ProcessId::new(4)];
    let secret = vec![0x5E; 16];
    let spec = RumorSpec::new(7, secret.clone(), 64, dest.clone());
    let mut adv = CrriAdversary::new(
        NoFailures,
        OneShot::new(Round(3), vec![(ProcessId::new(0), spec)]),
    );
    let mut audit = ConfidentialityAuditor::new(n);
    let mut e = engine_with(cfg, n, 34);
    e.run_observed(128, &mut adv, &mut audit);
    audit.assert_clean();

    let real: Vec<_> = e.outputs().iter().filter(|o| o.value.wid == 7).collect();
    assert_eq!(real.len(), 1);
    assert_eq!(real[0].process, dest[0]);
    assert_eq!(real[0].value.data, secret);
    assert!(real[0].round.as_u64() <= 3 + 64);
    // Nothing else surfaced.
    assert_eq!(e.outputs().len(), 1);
}
