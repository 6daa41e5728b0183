//! The five workloads and what they share: the executor-neutral view of
//! a network, the cut-and-heal cycle, output checks and op accounting.
//!
//! `--seconds` sizes a workload: it fixes how many ops run, at a rate
//! calibrated so that the timed section lasts about that long on the
//! 2-core reference box. The op count is therefore a function of the
//! arguments, not of the host's speed, which is what lets every sim
//! metric and work count repeat exactly.

pub mod bringup;
pub mod cut_heal;
pub mod probed;
pub mod search;

use std::time::{Duration, Instant};

use autonet_core::{Autopilot, RouteCacheStats};
use autonet_net::{NetStats, Network, PartitionedNetwork};
use autonet_sim::{SimDuration, SimTime};
use autonet_topo::{LinkId, SwitchId};
use autonet_trace::{Timeline, TraceRecord};

use crate::metrics::Metrics;
use crate::spans::Spans;
use crate::stats::{median, percentile};

pub const NAMES: [&str; 5] = [
    "ft256_cut_heal",
    "ft256_cut_heal_sharded2",
    "src30_probed_cut_heal",
    "ft576_bringup",
    "src30_worst_case_search",
];

/// Arguments of one run.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub seed: u64,
    /// Sizes the timed section (see the module docs).
    pub seconds: u32,
    /// The traced pass: spans on, program telemetry on, per-layer
    /// metrics out. Off: the end-to-end metrics.
    pub traced: bool,
    /// The CI-sized variant: fixed small op counts, `seconds` ignored.
    pub smoke: bool,
}

impl Args {
    /// Ops for a workload that completes `per_second` ops per second of
    /// timed section on the reference box; `smoke` ops in the smoke tier.
    fn ops(&self, per_second: f64, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            ((per_second * f64::from(self.seconds)).round() as usize).max(1)
        }
    }
}

/// What one run produced.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Metrics,
    pub spans: Spans,
    /// Work counts and digests of the run, as one line: two runs on the
    /// same inputs must print the same line.
    pub exact: String,
}

impl Outcome {
    /// The outcome of a run whose work `sec` accounts for.
    pub fn done(checks: Checks, metrics: Metrics, spans: Spans, sec: &Section) -> Outcome {
        Outcome {
            checks,
            metrics,
            spans,
            exact: sec.exact(),
        }
    }
}

/// Runs workload `name`; `None` if there is no such workload.
pub fn run(name: &str, args: Args) -> Option<Outcome> {
    Some(match name {
        "ft256_cut_heal" => cut_heal::classic(args),
        "ft256_cut_heal_sharded2" => cut_heal::sharded2(args),
        "src30_probed_cut_heal" => probed::run(args),
        "ft576_bringup" => bringup::run(args),
        "src30_worst_case_search" => search::run(args),
        _ => return None,
    })
}

/// Output checks. Every op and every whole-run check is one attempt; a
/// failed one is recorded with what went wrong.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records `result` as one attempt; hands back its value if it held.
    pub fn accept<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(e);
                None
            }
        }
    }
}

/// The calls the cut-and-heal cycle makes, on either executor.
pub trait Net {
    fn now(&self) -> SimTime;
    fn events_processed(&self) -> u64;
    fn run_until_stable_every(&mut self, step: SimDuration, deadline: SimTime) -> Option<SimTime>;
    fn schedule_link_down(&mut self, at: SimTime, l: LinkId);
    fn schedule_link_up(&mut self, at: SimTime, l: LinkId);
    fn control_plane_consistent(&self) -> bool;
    fn stats(&self) -> NetStats;
    fn total_reconfigs_triggered(&self) -> u64;
    fn autopilot(&self, s: SwitchId) -> &Autopilot;
    fn num_switches(&self) -> usize;
    /// The undrained trace spine, where the executor keeps one.
    fn trace_records(&self) -> Option<&[TraceRecord]>;
}

macro_rules! impl_net {
    ($ty:ty, $records:expr) => {
        impl Net for $ty {
            fn now(&self) -> SimTime {
                <$ty>::now(self)
            }
            fn events_processed(&self) -> u64 {
                <$ty>::events_processed(self)
            }
            fn run_until_stable_every(
                &mut self,
                step: SimDuration,
                deadline: SimTime,
            ) -> Option<SimTime> {
                <$ty>::run_until_stable_every(self, step, deadline)
            }
            fn schedule_link_down(&mut self, at: SimTime, l: LinkId) {
                <$ty>::schedule_link_down(self, at, l)
            }
            fn schedule_link_up(&mut self, at: SimTime, l: LinkId) {
                <$ty>::schedule_link_up(self, at, l)
            }
            fn control_plane_consistent(&self) -> bool {
                <$ty>::control_plane_consistent(self)
            }
            fn stats(&self) -> NetStats {
                <$ty>::stats(self)
            }
            fn total_reconfigs_triggered(&self) -> u64 {
                <$ty>::total_reconfigs_triggered(self)
            }
            fn autopilot(&self, s: SwitchId) -> &Autopilot {
                <$ty>::autopilot(self, s)
            }
            fn num_switches(&self) -> usize {
                self.topology().num_switches()
            }
            fn trace_records(&self) -> Option<&[TraceRecord]> {
                let records: fn(&$ty) -> Option<&[TraceRecord]> = $records;
                records(self)
            }
        }
    };
}

impl_net!(Network, |n| Some(n.trace_log().records()));
// The partitioned executor only offers a merged copy of the whole run.
impl_net!(PartitionedNetwork, |_| None);

/// Lead time between scheduling a fault and the fault.
const FAULT_LEAD: SimDuration = SimDuration::from_millis(10);
/// Stability polling period inside an op.
pub const OP_POLL: SimDuration = SimDuration::from_millis(10);
/// Sim-time budget of one re-stabilisation.
const OP_DEADLINE: SimDuration = SimDuration::from_secs(60);
/// Stability polling period of a cold bring-up.
pub const BRINGUP_POLL: SimDuration = SimDuration::from_millis(100);
/// Sim-time budget of a cold bring-up.
pub const BRINGUP_DEADLINE: SimTime = SimTime::from_secs(300);

/// The network-wide epoch (every switch agrees once stable).
pub fn epoch_of(net: &impl Net) -> u64 {
    net.autopilot(SwitchId(0)).epoch().0
}

/// A digest of what the control plane agreed on: per switch, whether it
/// is open, the root it believes in and the set of switches and links of
/// its agreed topology. The spanning tree itself (parents, proposed
/// numbers) and the epoch are left out: among equal-cost choices they
/// depend on message timing, which legitimately differs between the
/// classic and the sharded executor.
pub fn control_plane_digest(net: &impl Net) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in 0..net.num_switches() {
        let ap = net.autopilot(SwitchId(s));
        eat(u64::from(ap.is_open()));
        let Some(global) = ap.global() else {
            eat(0);
            continue;
        };
        eat(global.root.as_u64());
        let mut links: Vec<[u64; 4]> = global
            .switches
            .iter()
            .flat_map(|sw| {
                sw.links.iter().map(|l| {
                    [
                        sw.uid.as_u64(),
                        u64::from(l.local_port),
                        l.neighbor.as_u64(),
                        u64::from(l.neighbor_port),
                    ]
                })
            })
            .collect();
        links.sort_unstable();
        eat(global.switches.len() as u64);
        links.iter().flatten().for_each(|&w| eat(w));
    }
    h
}

/// The six critical-path phases, in causal order, as the trace layer
/// tags them and as the per-layer metrics name them.
pub const PHASES: [(&str, &str); 6] = [
    ("detect", "core.phase.detect_ms"),
    ("close-propagation", "core.phase.close_ms"),
    ("tree-stabilize", "core.phase.tree_stable_ms"),
    ("address-assign", "core.phase.address_ms"),
    ("table-distribute", "core.phase.table_ms"),
    ("reopen", "core.phase.reopen_ms"),
];

/// Everything a run of ops on one network measured.
#[derive(Default)]
pub struct Section {
    pub ops: u64,
    pub op_wall_ms: Vec<f64>,
    pub recovery_ms: Vec<f64>,
    /// Wall of the timed section: the ops, plus whatever post-processing
    /// the workload adds.
    pub wall_s: f64,
    pub sim_s: f64,
    pub events: u64,
    pub ctrl_msgs: u64,
    pub cpu_queue_drops: u64,
    pub epochs: u64,
    pub reconfigs: u64,
    pub polls: u64,
    /// Per cut, the duration of each critical-path phase (traced pass).
    pub phase_ms: [Vec<f64>; 6],
    /// Control-plane digest after each cut settled.
    pub cut_digests: Vec<u64>,
}

impl Section {
    /// Runs one cut → stable → heal → stable cycle per link. A cycle that
    /// does not re-stabilise fails its op and ends the section (the
    /// network is no longer in the state later ops assume).
    pub fn cut_heal<N: Net>(
        net: &mut N,
        links: &[usize],
        first_op: u32,
        spans: &mut Spans,
        checks: &mut Checks,
    ) -> Section {
        let mut sec = Section::default();
        let stats0 = net.stats();
        let (events0, epoch0, reconf0, sim0) = (
            net.events_processed(),
            epoch_of(net),
            net.total_reconfigs_triggered(),
            net.now(),
        );
        for (i, &link) in links.iter().enumerate() {
            let op = first_op + i as u32;
            let outcome = sec.one_cycle(net, LinkId(link), op, spans);
            let ok = checks.accept(outcome).is_some();
            sec.ops += 1;
            if !ok {
                break;
            }
        }
        let stats = net.stats();
        sec.events = net.events_processed() - events0;
        sec.ctrl_msgs = stats.control_sent - stats0.control_sent;
        sec.cpu_queue_drops = stats.cpu_queue_drops - stats0.cpu_queue_drops;
        sec.epochs = epoch_of(net) - epoch0;
        sec.reconfigs = net.total_reconfigs_triggered() - reconf0;
        sec.sim_s = net.now().saturating_since(sim0).as_nanos() as f64 / 1e9;
        sec.wall_s = sec.op_wall_ms.iter().sum::<f64>() / 1e3;
        sec
    }

    /// The work this section did, as one line that must repeat exactly.
    pub fn exact(&self) -> String {
        let digest = self
            .cut_digests
            .iter()
            .fold(0u64, |h, d| h.rotate_left(5) ^ d);
        let recovery_ns: f64 = self.recovery_ms.iter().sum::<f64>() * 1e6;
        format!(
            "ops={} events={} ctrl_msgs={} cpu_queue_drops={} epochs={} reconfigs={} polls={} \
             recovery_ns={recovery_ns:.0} control_plane={digest:016x}",
            self.ops,
            self.events,
            self.ctrl_msgs,
            self.cpu_queue_drops,
            self.epochs,
            self.reconfigs,
            self.polls,
        )
    }

    /// Folds a later section (another network's ops) into this one.
    pub fn absorb(&mut self, other: Section) {
        self.ops += other.ops;
        self.op_wall_ms.extend(other.op_wall_ms);
        self.recovery_ms.extend(other.recovery_ms);
        self.wall_s += other.wall_s;
        self.sim_s += other.sim_s;
        self.events += other.events;
        self.ctrl_msgs += other.ctrl_msgs;
        self.cpu_queue_drops += other.cpu_queue_drops;
        self.epochs += other.epochs;
        self.reconfigs += other.reconfigs;
        self.polls += other.polls;
        for (mine, theirs) in self.phase_ms.iter_mut().zip(other.phase_ms) {
            mine.extend(theirs);
        }
        self.cut_digests.extend(other.cut_digests);
    }

    /// Schedules one fault `FAULT_LEAD` ahead, waits until the control
    /// plane is stable again and checks that it is consistent. Returns the
    /// fault instant, the completion instant and the wall of the two
    /// program calls (the consistency check is an output check and sits
    /// outside it).
    fn fault_and_settle<N: Net>(
        &mut self,
        net: &mut N,
        op: u32,
        spans: &mut Spans,
        what: &str,
        schedule: impl FnOnce(&mut N, SimTime),
    ) -> Result<(SimTime, SimTime, Duration), String> {
        let t = Instant::now();
        let from = net.now();
        let at = from + FAULT_LEAD;
        spans.within("net.schedule_fault", op, || schedule(net, at));
        let settled = spans.within("net.run_until_stable", op, || {
            net.run_until_stable_every(OP_POLL, net.now() + OP_DEADLINE)
        });
        let wall = t.elapsed();
        self.polls += net.now().saturating_since(from).as_nanos() / OP_POLL.as_nanos();
        let settled =
            settled.ok_or_else(|| format!("op {op}: no re-stabilisation after {what}"))?;
        let consistent = spans.within("net.consistency_check", op, || {
            net.control_plane_consistent()
        });
        if !consistent {
            return Err(format!("op {op}: control plane inconsistent after {what}"));
        }
        Ok((at, settled, wall))
    }

    fn one_cycle<N: Net>(
        &mut self,
        net: &mut N,
        link: LinkId,
        op: u32,
        spans: &mut Spans,
    ) -> Result<(), String> {
        let records_before = net.trace_records().map_or(0, <[_]>::len);
        let (cut_at, settled, cut_wall) =
            self.fault_and_settle(net, op, spans, "the cut", |net, at| {
                net.schedule_link_down(at, link)
            })?;
        let recovery = settled.saturating_since(cut_at);
        if recovery == SimDuration::ZERO {
            return Err(format!(
                "op {op}: cutting {link:?} caused no reconfiguration"
            ));
        }

        // Attribution, like the output checks, sits outside the op's wall.
        self.cut_digests.push(control_plane_digest(net));
        if spans.enabled() {
            let path = net.trace_records().and_then(|records| {
                Timeline::build(&records[records_before..]).last_fault_critical_path()
            });
            if let Some(path) = path {
                for (slot, (tag, _)) in self.phase_ms.iter_mut().zip(PHASES) {
                    let ns: u64 = path
                        .segments
                        .iter()
                        .filter(|s| s.phase == tag)
                        .map(|s| s.duration().as_nanos())
                        .sum();
                    slot.push(ns as f64 / 1e6);
                }
            }
        }

        let (_, _, heal_wall) = self.fault_and_settle(net, op, spans, "the heal", |net, at| {
            net.schedule_link_up(at, link)
        })?;
        self.op_wall_ms
            .push((cut_wall + heal_wall).as_secs_f64() * 1e3);
        self.recovery_ms.push(recovery.as_millis_f64());
        Ok(())
    }

    /// What stability polling costs: `check_us` per full consistency walk
    /// on the settled network, times the polls, over `wall_s`. An upper
    /// estimate: a poll before stability returns at the first disagreement.
    pub fn polling_metrics(&self, check_us: f64, wall_s: f64, out: &mut Metrics) {
        out.set("net.consistency_check_us", check_us);
        out.set_noted(
            "net.consistency_frac",
            self.polls as f64 * check_us / 1e6 / wall_s,
            format!(
                "{} polls x {check_us:.1} us / {wall_s:.3} s wall",
                self.polls
            ),
        );
    }

    /// The per-layer metrics any section of ops supports. `reference_wall_s`
    /// is the wall of the same ops as shipped (no spans, tracing as the
    /// workload ships it), over which the throughput figures are taken.
    pub fn layer_metrics(&self, reference_wall_s: f64, out: &mut Metrics) {
        let ops = self.ops.max(1) as f64;
        out.set("net.events", self.events as f64);
        out.set("net.events_per_op", self.events as f64 / ops);
        out.set("net.ctrl_msgs_per_op", self.ctrl_msgs as f64 / ops);
        out.set("net.cpu_queue_drops", self.cpu_queue_drops as f64);
        out.set("net.polls", self.polls as f64);
        out.set("core.epochs_per_op", self.epochs as f64 / ops);
        out.set("core.reconfigs_per_op", self.reconfigs as f64 / ops);
        let base = format!("{} events / {reference_wall_s:.3} s wall", self.events);
        out.set_noted(
            "net.ns_per_event",
            reference_wall_s * 1e9 / self.events.max(1) as f64,
            base.clone(),
        );
        out.set_noted(
            "net.events_per_s",
            self.events as f64 / reference_wall_s,
            base,
        );
        out.set_noted(
            "net.wall_per_sim_s",
            reference_wall_s / self.sim_s,
            format!("{reference_wall_s:.3} s wall / {:.3} s sim", self.sim_s),
        );
        if let Some(p90) = percentile(&self.op_wall_ms, 90.0) {
            out.set_noted(
                "net.op_wall_ms_p90",
                p90,
                format!("n = {}", self.op_wall_ms.len()),
            );
        }
        for (samples, (_, name)) in self.phase_ms.iter().zip(PHASES) {
            if let Some(m) = median(samples) {
                out.set_noted(name, m, format!("n = {}", samples.len()));
            }
        }
    }
}

/// The route-cache work and wall between two readings of its counters.
pub fn route_cache_metrics(
    before: Option<RouteCacheStats>,
    after: Option<RouteCacheStats>,
    wall_s: f64,
    out: &mut Metrics,
) {
    let (Some(a), Some(b)) = (before, after) else {
        return;
    };
    let builds = b.builds - a.builds;
    let synthesized = b.synthesized - a.synthesized;
    let reused = (b.served_memo - a.served_memo) + (b.delta_reused - a.delta_reused);
    let served = reused + synthesized + (b.unroutable - a.unroutable);
    let wall_ns = (b.build_wall_ns - a.build_wall_ns)
        + (b.serve_wall_ns - a.serve_wall_ns)
        + (b.delta_wall_ns - a.delta_wall_ns);
    out.set("core.route_cache.builds", builds as f64);
    out.set("core.route_cache.synthesized", synthesized as f64);
    out.set_noted(
        "core.route_cache.reuse_ratio",
        reused as f64 / served.max(1) as f64,
        format!("{reused} reused / {served} served"),
    );
    out.set("core.route_cache.wall_ms", wall_ns as f64 / 1e6);
    out.set_noted(
        "core.route_cache.wall_frac",
        wall_ns as f64 / 1e9 / wall_s,
        format!("{:.3} ms / {wall_s:.3} s wall", wall_ns as f64 / 1e6),
    );
}

/// The end-to-end metrics every workload reports.
pub fn end_to_end(setup_s: &[f64], sec: &Section, out: &mut Metrics) {
    out.set_noted(
        "setup_s",
        median(setup_s).expect("at least one set-up"),
        format!("median of {} set-ups", setup_s.len()),
    );
    out.set("wall_s", sec.wall_s);
    out.set_noted(
        "op_wall_ms_p50",
        median(&sec.op_wall_ms).unwrap_or(0.0),
        format!("n = {}", sec.op_wall_ms.len()),
    );
    out.set_noted(
        "recovery_ms_p50",
        median(&sec.recovery_ms).unwrap_or(0.0),
        format!("n = {}", sec.recovery_ms.len()),
    );
    out.set(
        "recovery_ms_max",
        sec.recovery_ms.iter().copied().fold(0.0, f64::max),
    );
    out.set("peak_rss_mb", peak_rss_mb());
}

/// Self time per span name and the recorder's own cost.
pub fn span_metrics(spans: &Spans, traced_wall_s: f64, out: &mut Metrics) {
    const NAMES: [(&str, &str); 10] = [
        ("topo.gen", "span.topo.gen.self_ms"),
        ("net.new", "span.net.new.self_ms"),
        ("net.bringup", "span.net.bringup.self_ms"),
        ("net.schedule_fault", "span.net.schedule_fault.self_ms"),
        ("net.run_for", "span.net.run_for.self_ms"),
        ("net.run_until_stable", "span.net.run_until_stable.self_ms"),
        (
            "net.consistency_check",
            "span.net.consistency_check.self_ms",
        ),
        ("trace.timeline_build", "span.trace.timeline_build.self_ms"),
        (
            "trace.interruption_build",
            "span.trace.interruption_build.self_ms",
        ),
        ("check.search", "span.check.search.self_ms"),
    ];
    let self_ns = spans.self_time_ns();
    for (span, metric) in NAMES {
        if let Some(&ns) = self_ns.get(span) {
            out.set(metric, ns as f64 / 1e6);
        }
    }
    let cost_ns = crate::spans::span_cost_ns();
    out.set("bench.spans", spans.len() as f64);
    out.set_noted(
        "bench.span_overhead_frac",
        spans.len() as f64 * cost_ns / 1e9 / traced_wall_s,
        format!(
            "{} spans x {cost_ns:.0} ns / {traced_wall_s:.3} s traced wall",
            spans.len()
        ),
    );
}

/// Peak resident set of this process (`VmHWM`), in MB. One process runs
/// one workload, so this is the workload's peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall seconds of `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
