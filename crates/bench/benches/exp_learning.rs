//! E10 — Short-address learning (§4.3, §6.8.1).
//!
//! Paper: the UID cache keeps broadcast-addressed data packets rare, sends
//! few ARPs ("no ARP packets are sent unless a host has recently failed to
//! respond"), costs ~15 instructions per packet, and survives short-address
//! changes without protocol timeouts.

use autonet_bench::{converge, Report, Table, Value};
use autonet_net::{workload, NetParams};
use autonet_sim::{SimDuration, SimTime};
use autonet_topo::{gen, HostId};

fn main() {
    println!("E10: short-address learning under random traffic");
    let mut topo = gen::torus(3, 3, 91);
    gen::add_dual_homed_hosts(&mut topo, 2, 93);
    let sends = workload::uniform_random(
        &topo,
        SimTime::from_secs(5),
        SimDuration::from_secs(5),
        SimDuration::from_millis(4),
        512,
        97,
    );
    let n_sends = sends.len();
    let mut net = converge(topo, NetParams::tuned(), 5);
    net.run_for(SimTime::from_secs(5).saturating_since(net.now()));
    for s in &sends {
        net.schedule_host_send(s.at, s.from, s.to, s.len, s.tag);
    }
    net.run_for(SimDuration::from_secs(6));

    let mut unicast = 0u64;
    let mut bcast = 0u64;
    let mut arps = 0u64;
    let mut arp_replies = 0u64;
    let mut cache_ops = 0u64;
    let mut delivered = 0u64;
    let mut misaddressed = 0u64;
    let mut filtered = 0u64;
    for h in net.topology().host_ids() {
        let s = net.host(h).localnet_stats();
        unicast += s.unicast_sent;
        bcast += s.broadcast_fallback_sent;
        arps += s.arp_requests_sent;
        arp_replies += s.arp_replies_sent;
        cache_ops += s.cache_ops;
        delivered += s.delivered;
        misaddressed += s.misaddressed_dropped;
        filtered += s.broadcast_filtered;
    }
    let data = unicast + bcast;
    let per = |n: u64, of: u64| Value::Real(n as f64 / of.max(1) as f64);
    let mut t = Table::new(
        "E10: learning-cache behaviour, paper vs measured",
        &["quantity", "paper", "count", "per packet"],
    );
    t.row([
        "data frames offered".into(),
        "-".into(),
        n_sends.into(),
        Value::Missing,
    ]);
    t.row([
        "broadcast-addressed data (per data packet sent)".into(),
        "\"quite small\"".into(),
        bcast.into(),
        per(bcast, data),
    ]);
    t.row([
        "ARP requests (per data packet sent)".into(),
        "\"few\"".into(),
        arps.into(),
        per(arps, data),
    ]);
    t.row([
        "cache ops (per packet sent or delivered)".into(),
        "~15 instructions".into(),
        cache_ops.into(),
        per(cache_ops, data + delivered),
    ]);
    for (quantity, paper, n) in [
        ("stale-address unicast drops", "rare", misaddressed),
        ("broadcast copies UID-filtered", "(normal)", filtered),
        ("gratuitous/ARP replies", "-", arp_replies),
    ] {
        t.row([quantity.into(), paper.into(), n.into(), Value::Missing]);
    }

    // Address-change recovery: crash a host's switch mid-conversation and
    // check the peer keeps delivering without multi-second gaps beyond the
    // failover itself.
    let h = HostId(0);
    let peer = HostId(4);
    let dst = net.topology().host(h).uid;
    let t0 = net.now();
    for i in 0..200u64 {
        net.schedule_host_send(
            t0 + SimDuration::from_millis(100) * i,
            peer,
            dst,
            128,
            50_000 + i,
        );
    }
    let victim = net.topology().host(h).primary.switch;
    net.schedule_switch_down(t0 + SimDuration::from_secs(3), victim);
    net.run_for(SimDuration::from_secs(22));
    let resumed = net
        .deliveries()
        .iter()
        .filter(|d| d.host == h && d.tag >= 50_000 && d.time > t0 + SimDuration::from_secs(10))
        .count();
    t.row([
        "frames delivered after the address change".into(),
        "\"without timeouts\"".into(),
        resumed.into(),
        Value::Missing,
    ]);
    Report::new("learning").table(t).finish();
    println!(
        "\nShape check: broadcast fallbacks are few or none (gratuitous\n\
         ARPs prime caches at bring-up); ARPs only ride along\n\
         when an entry has gone stale; the per-packet cache cost is one or\n\
         two map operations — the moral equivalent of the paper's 15 VAX\n\
         instructions; and traffic resumes after an enforced short-address\n\
         change."
    );
}
