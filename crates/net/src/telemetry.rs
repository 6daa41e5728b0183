//! Per-port datapath telemetry, sampled on the harness cadence.
//!
//! Both backends feed the same collector: the packet-level network
//! records flow-control stall time at every transmit and samples link
//! backlog (how far `link_busy` runs ahead of now — its queue-depth
//! analog); the slot-level network samples the real receive-FIFO
//! occupancies and their high-water marks. Root-link utilization is
//! sampled only on the node that currently believes itself root of the
//! agreed topology, surfacing the E5 root-hotspot effect (up\*/down\*
//! routes concentrate on the root's links).
//!
//! The collector lives behind `Option<Box<DatapathTelemetry>>` in each
//! backend and is `None` whenever tracing is off, so the disabled
//! datapath allocates and records nothing (`tests/determinism.rs` holds
//! that gate).

use autonet_sim::SimDuration;
use autonet_trace::MetricsRegistry;

/// Shared data-plane telemetry collector.
///
/// Metric names:
///
/// | name | kind | meaning |
/// |---|---|---|
/// | `datapath.transmits` | counter | transmits observed |
/// | `datapath.stalls` | counter | transmits that waited for the wire |
/// | `datapath.stall_wait` | histogram | flow-control stall time per stalled transmit |
/// | `datapath.backlog` | histogram | sampled per-switch max link backlog |
/// | `datapath.backlog_hwm_ns` | gauge | backlog high-water mark |
/// | `datapath.queue_depth` | gauge | last sampled max FIFO depth (slot backend) |
/// | `datapath.queue_depth_hwm` | gauge | FIFO-depth high-water mark (slot backend) |
/// | `datapath.root_link_samples` | counter | root link-port samples taken |
/// | `datapath.root_link_busy` | counter | root link-port samples found busy |
#[derive(Clone, Debug, Default)]
pub struct DatapathTelemetry {
    metrics: MetricsRegistry,
    backlog_hwm: SimDuration,
    queue_depth_hwm: u64,
}

impl DatapathTelemetry {
    /// Creates an empty collector.
    pub fn new() -> Self {
        DatapathTelemetry::default()
    }

    /// One transmit; `wait` is how long flow control held it off the
    /// wire (zero when the link was idle).
    pub fn record_stall(&mut self, wait: SimDuration) {
        self.metrics.count("datapath.transmits", 1);
        if wait > SimDuration::ZERO {
            self.metrics.count("datapath.stalls", 1);
            self.metrics.observe("datapath.stall_wait", wait);
        }
    }

    /// One per-switch backlog sample: the farthest any of the switch's
    /// link directions is committed beyond now.
    pub fn sample_backlog(&mut self, backlog: SimDuration) {
        self.metrics.observe("datapath.backlog", backlog);
        if backlog > self.backlog_hwm {
            self.backlog_hwm = backlog;
            self.metrics
                .gauge_set("datapath.backlog_hwm_ns", backlog.as_nanos() as i64);
        }
    }

    /// One per-switch FIFO sample (slot backend): current max depth and
    /// the hardware high-water mark across the switch's ports.
    pub fn sample_queue_depth(&mut self, depth: u64, hwm: u64) {
        self.metrics.gauge_set("datapath.queue_depth", depth as i64);
        if hwm > self.queue_depth_hwm {
            self.queue_depth_hwm = hwm;
            self.metrics
                .gauge_set("datapath.queue_depth_hwm", hwm as i64);
        }
    }

    /// One utilization sample from the root node: of `links` link
    /// ports, `busy` had traffic committed or queued.
    pub fn sample_root_link(&mut self, links: u64, busy: u64) {
        self.metrics.count("datapath.root_link_samples", links);
        self.metrics.count("datapath.root_link_busy", busy);
    }

    /// Backlog high-water mark observed so far.
    pub fn backlog_hwm(&self) -> SimDuration {
        self.backlog_hwm
    }

    /// FIFO-depth high-water mark observed so far (slot backend).
    pub fn queue_depth_hwm(&self) -> u64 {
        self.queue_depth_hwm
    }

    /// The underlying registry, for quantiles and export.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalls_and_hwms_accumulate() {
        let mut t = DatapathTelemetry::new();
        t.record_stall(SimDuration::ZERO);
        t.record_stall(SimDuration::from_micros(5));
        assert_eq!(t.metrics().counter("datapath.transmits"), 2);
        assert_eq!(t.metrics().counter("datapath.stalls"), 1);
        assert_eq!(
            t.metrics()
                .histogram("datapath.stall_wait")
                .unwrap()
                .count(),
            1
        );

        t.sample_backlog(SimDuration::from_micros(3));
        t.sample_backlog(SimDuration::from_micros(1));
        assert_eq!(t.backlog_hwm(), SimDuration::from_micros(3));
        assert_eq!(
            t.metrics().gauge("datapath.backlog_hwm_ns"),
            SimDuration::from_micros(3).as_nanos() as i64
        );

        t.sample_queue_depth(2, 4);
        t.sample_queue_depth(1, 3);
        assert_eq!(t.queue_depth_hwm(), 4);
        assert_eq!(t.metrics().gauge("datapath.queue_depth"), 1);

        t.sample_root_link(4, 1);
        t.sample_root_link(4, 3);
        assert_eq!(t.metrics().counter("datapath.root_link_samples"), 8);
        assert_eq!(t.metrics().counter("datapath.root_link_busy"), 4);
    }
}
