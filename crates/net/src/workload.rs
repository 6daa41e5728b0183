//! Traffic workload generators.
//!
//! Each generator produces a deterministic schedule of host data frames
//! from a seed; experiments feed the schedule into
//! [`Network::schedule_host_send`](crate::Network::schedule_host_send).

use autonet_sim::{SimDuration, SimRng, SimTime};
use autonet_topo::{HostId, Topology};
use autonet_wire::Uid;

/// One scheduled transmission.
#[derive(Clone, Copy, Debug)]
pub struct Send {
    /// When to inject.
    pub at: SimTime,
    /// The sending host.
    pub from: HostId,
    /// The destination host's UID.
    pub to: Uid,
    /// Payload length in bytes.
    pub len: usize,
    /// Correlation tag (unique per send).
    pub tag: u64,
}

/// Uniform random traffic: every `interval` (exponentially distributed),
/// a random host sends `len` bytes to another random host.
pub fn uniform_random(
    topo: &Topology,
    start: SimTime,
    duration: SimDuration,
    mean_interval: SimDuration,
    len: usize,
    seed: u64,
) -> Vec<Send> {
    let n = topo.num_hosts();
    assert!(n >= 2, "need at least two hosts");
    let mut rng = SimRng::new(seed);
    let mut out = Vec::new();
    let mut t = start;
    let end = start + duration;
    let mut tag = 1u64;
    loop {
        t += SimDuration::from_nanos(rng.exp_nanos(mean_interval.as_nanos() as f64).max(1));
        if t >= end {
            break;
        }
        let from = rng.index(n);
        let mut to = rng.index(n);
        while to == from {
            to = rng.index(n);
        }
        out.push(Send {
            at: t,
            from: HostId(from),
            to: topo.host(HostId(to)).uid,
            len,
            tag,
        });
        tag += 1;
    }
    out
}

/// Permutation traffic: a random bijection of hosts; every host streams
/// `frames` frames of `len` bytes to its partner, paced at `interval`.
/// This is the pattern where a crossbar fabric shines and a shared medium
/// saturates.
pub fn permutation(
    topo: &Topology,
    start: SimTime,
    frames: usize,
    interval: SimDuration,
    len: usize,
    seed: u64,
) -> Vec<Send> {
    let n = topo.num_hosts();
    assert!(n >= 2, "need at least two hosts");
    let mut rng = SimRng::new(seed);
    // A fixed-point-free permutation by rotating a shuffled order.
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut out = Vec::new();
    let mut tag = 1u64;
    for i in 0..n {
        let from = order[i];
        let to = order[(i + 1) % n];
        for f in 0..frames {
            out.push(Send {
                at: start + interval * f as u64,
                from: HostId(from),
                to: topo.host(HostId(to)).uid,
                len,
                tag,
            });
            tag += 1;
        }
    }
    out.sort_by_key(|s| s.at);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autonet_topo::gen;

    fn hosts_topo() -> Topology {
        let mut t = gen::line(4, 0);
        gen::add_dual_homed_hosts(&mut t, 2, 5);
        t
    }

    #[test]
    fn uniform_random_is_deterministic_and_well_formed() {
        let topo = hosts_topo();
        let a = uniform_random(
            &topo,
            SimTime::from_secs(1),
            SimDuration::from_secs(2),
            SimDuration::from_millis(10),
            256,
            42,
        );
        let b = uniform_random(
            &topo,
            SimTime::from_secs(1),
            SimDuration::from_secs(2),
            SimDuration::from_millis(10),
            256,
            42,
        );
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.from, y.from);
            assert_eq!(x.to, y.to);
        }
        for s in &a {
            assert_ne!(topo.host(s.from).uid, s.to, "no self-traffic");
            assert!(s.at >= SimTime::from_secs(1));
        }
        // Tags unique.
        let tags: std::collections::BTreeSet<u64> = a.iter().map(|s| s.tag).collect();
        assert_eq!(tags.len(), a.len());
    }

    #[test]
    fn permutation_covers_every_host_once_as_sender() {
        let topo = hosts_topo();
        let sends = permutation(&topo, SimTime::ZERO, 3, SimDuration::from_millis(1), 512, 7);
        assert_eq!(sends.len(), topo.num_hosts() * 3);
        let mut counts = vec![0usize; topo.num_hosts()];
        for s in &sends {
            counts[s.from.0] += 1;
            assert_ne!(topo.host(s.from).uid, s.to);
        }
        assert!(counts.iter().all(|&c| c == 3));
    }
}
