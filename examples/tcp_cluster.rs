//! CONGOS over real localhost TCP sockets.
//!
//! Run with:
//!
//! ```text
//! cargo run --example tcp_cluster
//! ```
//!
//! Eight nodes, each an OS thread with its own TCP listener, execute the
//! protocol in bulk-synchronous rounds over a length-prefixed binary wire
//! format. Nothing about confidentiality relies on the simulator: the same
//! node code splits, proxies, distributes and confirms over actual sockets.

use confidential_gossip::congos::CongosInput;
use confidential_gossip::harness::Cluster;
use confidential_gossip::sim::ProcessId;

fn main() {
    let n = 8;
    let secret = b"wire-level secret".to_vec();
    let dest = vec![ProcessId::new(3), ProcessId::new(6)];
    println!(
        "starting {n}-node TCP cluster on 127.0.0.1:18700..{}",
        18700 + n
    );

    let report = Cluster::new(n, 18700)
        .rounds(70)
        .seed(11)
        .run(vec![(
            0,
            ProcessId::new(0),
            CongosInput {
                wid: 0,
                data: secret.clone(),
                deadline: 64,
                dest: dest.clone(),
            },
        )])
        .expect("cluster run");

    for d in &report.deliveries {
        println!(
            "  round {:>3}: {} reassembled the secret",
            d.round.as_u64(),
            d.process
        );
        assert!(dest.contains(&d.process));
        assert_eq!(d.data, secret);
    }
    assert_eq!(report.deliveries.len(), dest.len());
    println!(
        "{} protocol messages crossed real sockets; both recipients — and only \
         they — reassembled the secret ✓",
        report.messages
    );
}
