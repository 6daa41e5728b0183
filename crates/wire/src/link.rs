//! Physical link timing.
//!
//! Autonet links run at 100 Mbit/s: one 9-bit slot every 80 ns. Propagation
//! delay follows the paper's constant: `W = 64.1 · L` slot times for a cable
//! of `L` kilometers (companion paper §6.2), derived from the speed of light
//! and the velocity factor of fiber. Coax links span up to 100 m; fiber up
//! to 2 km.

/// Duration of one slot (one byte time at 100 Mbit/s), in nanoseconds.
pub const SLOT_NS: u64 = 80;

/// Slot-per-kilometer propagation constant from the paper (`W = 64.1 L`).
const SLOTS_PER_KM: f64 = 64.1;

/// Timing parameters of one link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkTiming {
    /// Cable length in kilometers.
    pub length_km: f64,
}

impl LinkTiming {
    /// A 100 m coaxial link — the building-scale default.
    pub fn coax_100m() -> Self {
        LinkTiming { length_km: 0.1 }
    }

    /// A 2 km fiber link — the maximum the flow-control engineering allows.
    pub fn fiber_2km() -> Self {
        LinkTiming { length_km: 2.0 }
    }

    /// Creates timing for an arbitrary cable length.
    ///
    /// # Panics
    ///
    /// Panics if `length_km` is negative or not finite.
    pub fn with_length_km(length_km: f64) -> Self {
        assert!(
            length_km.is_finite() && length_km >= 0.0,
            "invalid link length: {length_km}"
        );
        LinkTiming { length_km }
    }

    /// One-way propagation delay in whole slots (`ceil(64.1 · L)`).
    pub fn latency_slots(&self) -> u64 {
        (SLOTS_PER_KM * self.length_km).ceil() as u64
    }

    /// One-way propagation delay in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.latency_slots() * SLOT_NS
    }

    /// Time to clock `bytes` data bytes onto the link, in nanoseconds.
    ///
    /// Accounts for the flow-control slots stolen from the data stream: only
    /// `S − 1` of every `S` slots carry data (§6.1), so the effective data
    /// rate is fractionally below 100 Mbit/s.
    pub fn transmission_ns(&self, bytes: usize) -> u64 {
        let s = crate::symbol::FLOW_CONTROL_INTERVAL;
        let data_slots = bytes as u64;
        // Every (S-1) data slots are accompanied by one flow-control slot.
        let fc_slots = data_slots / (s - 1);
        (data_slots + fc_slots) * SLOT_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constant_for_two_km() {
        // §6.2: W = 64.1 L ⇒ 2 km ≈ 128.2 ⇒ 129 whole slots.
        assert_eq!(LinkTiming::fiber_2km().latency_slots(), 129);
    }

    #[test]
    fn coax_is_short() {
        let t = LinkTiming::coax_100m();
        assert_eq!(t.latency_slots(), 7);
        assert_eq!(t.latency_ns(), 7 * SLOT_NS);
    }

    #[test]
    fn zero_length_has_zero_latency() {
        assert_eq!(LinkTiming::with_length_km(0.0).latency_ns(), 0);
    }

    #[test]
    fn transmission_accounts_for_flow_control_slots() {
        let t = LinkTiming::coax_100m();
        // 255 data bytes fit between flow-control slots exactly once.
        assert_eq!(t.transmission_ns(255), 256 * SLOT_NS);
        assert_eq!(t.transmission_ns(1), SLOT_NS);
    }

    #[test]
    #[should_panic(expected = "invalid link length")]
    fn negative_length_rejected() {
        let _ = LinkTiming::with_length_km(-1.0);
    }
}
