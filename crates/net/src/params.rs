//! Network-level simulation parameters.

use autonet_core::AutopilotParams;
use autonet_host::HostParams;
use autonet_sim::SimDuration;

/// Control-processor cost model: how long the 68000 takes to process one
/// control packet. Combined with the matching [`AutopilotParams`] preset,
/// these reproduce §6.6.5's implementation progression.
#[derive(Clone, Copy, Debug)]
pub struct CpuModel {
    /// Fixed cost per control packet handled.
    pub per_packet: SimDuration,
    /// Additional cost per payload byte (topology reports are big).
    pub per_byte: SimDuration,
}

impl CpuModel {
    /// The first, easy-to-debug Autopilot (paper: ~5 s reconfigurations).
    ///
    /// The three presets reproduce the paper's 10x-per-generation *shape*;
    /// the simulator's absolute times come out a uniform ~6x faster than
    /// the real 68000 network (EXPERIMENTS.md, E1, discusses the scale
    /// factor).
    pub fn naive() -> Self {
        CpuModel {
            per_packet: SimDuration::from_millis(5),
            per_byte: SimDuration::from_micros(20),
        }
    }

    /// The optimized implementation (paper: ~0.5 s).
    pub fn optimized() -> Self {
        CpuModel {
            per_packet: SimDuration::from_micros(600),
            per_byte: SimDuration::from_micros(2),
        }
    }

    /// The tuned implementation (paper: ~0.17 s, the footnote).
    pub fn tuned() -> Self {
        CpuModel {
            per_packet: SimDuration::from_micros(200),
            per_byte: SimDuration::from_nanos(500),
        }
    }

    /// The incremental-pipeline generation after `tuned()`: with table
    /// recomputation deduplicated fleet-wide by the shared route cache,
    /// the control processor's per-packet work shrinks again (§6.6.5's
    /// progression continued one step).
    pub fn incremental() -> Self {
        CpuModel {
            per_packet: SimDuration::from_micros(100),
            per_byte: SimDuration::from_nanos(250),
        }
    }

    /// The processing cost of a control packet with `payload_len` bytes.
    pub fn cost(&self, payload_len: usize) -> SimDuration {
        self.per_packet + SimDuration::from_nanos(self.per_byte.as_nanos() * payload_len as u64)
    }
}

/// Everything configurable about a simulated network.
#[derive(Clone, Copy, Debug)]
pub struct NetParams {
    /// Per-switch control program parameters.
    pub autopilot: AutopilotParams,
    /// Control-processor costs.
    pub cpu: CpuModel,
    /// Host driver parameters.
    pub host: HostParams,
    /// Random jitter bound on boot times, for realistic desynchronization.
    pub boot_jitter: SimDuration,
    /// Maximum control-processor backlog; packets arriving beyond it are
    /// dropped (the 68000's finite receive-buffer pool).
    pub cpu_backlog_cap: SimDuration,
    /// How long a reflecting (unterminated) link radiates before its code
    /// violations register at the switch and the port is condemned (§7:
    /// "almost always causes enough BadCode ... to classify the link
    /// broken").
    pub reflect_detect_delay: SimDuration,
    /// Probability that any control packet is lost in transit (CRC noise on
    /// marginal links). The protocols recover by retransmission; used by
    /// the loss-robustness ablation.
    pub control_loss_rate: f64,
    /// Whether switches record typed trace events (the `autonet-trace`
    /// spine). On by default; benchmarks turn it off to measure the
    /// tracing-disabled fast path, which allocates no trace storage.
    pub tracing: bool,
}

impl NetParams {
    /// The tuned production configuration.
    pub fn tuned() -> Self {
        NetParams {
            autopilot: AutopilotParams::tuned(),
            cpu: CpuModel::tuned(),
            host: HostParams::default(),
            boot_jitter: SimDuration::from_millis(10),
            cpu_backlog_cap: SimDuration::from_millis(250),
            reflect_detect_delay: SimDuration::from_millis(40),
            control_loss_rate: 0.0,
            tracing: true,
        }
    }

    /// The naive first implementation.
    pub fn naive() -> Self {
        NetParams {
            autopilot: AutopilotParams::naive(),
            cpu: CpuModel::naive(),
            ..NetParams::tuned()
        }
    }

    /// The intermediate optimized implementation.
    pub fn optimized() -> Self {
        NetParams {
            autopilot: AutopilotParams::optimized(),
            cpu: CpuModel::optimized(),
            ..NetParams::tuned()
        }
    }

    /// The scale configuration: tuned protocol timers on a modern
    /// control processor, untraced. The 68000 cost model does boot
    /// fabrics of hundreds of switches ([`tuned`](NetParams::tuned)
    /// brings fat_tree-256 / 576 / 1024 to first quiescence in under a
    /// simulated second with no receive-pool overrun), but a 256-switch
    /// topology flood costs it ~13 ms of CPU per hop at 0.5 µs/byte, and
    /// hundreds of switches were never the paper's regime. The E22 scale
    /// tier keeps the protocol and its timers bit-for-bit and swaps only
    /// the per-packet cost for something a 1990s-end embedded CPU would
    /// do; it is the preset the committed scale trajectory was recorded
    /// under.
    pub fn scale() -> Self {
        NetParams {
            cpu: CpuModel {
                per_packet: SimDuration::from_micros(10),
                per_byte: SimDuration::from_nanos(10),
            },
            cpu_backlog_cap: SimDuration::from_millis(500),
            tracing: false,
            ..NetParams::tuned()
        }
    }

    /// The incremental-pipeline configuration: tuned protocol plus the
    /// shared route cache's freed CPU headroom reinvested in tighter
    /// timers and a faster control processor (the generation after
    /// `tuned()` in the §6.6.5 progression).
    pub fn incremental() -> Self {
        NetParams {
            autopilot: AutopilotParams::incremental(),
            cpu: CpuModel::incremental(),
            ..NetParams::tuned()
        }
    }
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams::tuned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_cost_scales_with_size() {
        let m = CpuModel::tuned();
        assert!(m.cost(1000) > m.cost(10));
        assert_eq!(
            m.cost(0),
            m.per_packet,
            "zero-byte payload costs the fixed part"
        );
    }

    #[test]
    fn presets_strictly_improve() {
        assert!(CpuModel::naive().cost(100) > CpuModel::optimized().cost(100));
        assert!(CpuModel::optimized().cost(100) > CpuModel::tuned().cost(100));
        assert!(CpuModel::tuned().cost(100) > CpuModel::incremental().cost(100));
    }
}
