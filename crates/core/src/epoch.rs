//! Reconfiguration epochs.
//!
//! Every reconfiguration message carries a 64-bit epoch number (companion
//! paper §6.6.2). A switch initiating a reconfiguration increments its
//! local epoch; switches join any epoch greater than their own, so
//! overlapping reconfigurations collapse onto the highest epoch. The
//! counter is large enough that counting will never wrap it in the life of
//! an installation. But the number also arrives from the wire, so the top
//! value is reserved: a message carrying [`Epoch::RESERVED`] is never
//! joined (the engine drops it, counted), which leaves every epoch a switch
//! can join a successor.

use std::fmt;

/// A 64-bit reconfiguration epoch number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The power-on epoch.
    pub const ZERO: Epoch = Epoch(0);

    /// The top epoch number, which no switch joins: see the module docs.
    pub const RESERVED: Epoch = Epoch(u64::MAX);

    /// The next epoch, used when initiating a reconfiguration. Saturates
    /// at [`RESERVED`](Self::RESERVED): a switch that has counted that far
    /// is out of epochs and mints one its neighbours drop, rather than
    /// wrapping to one they would all call stale.
    pub fn next(self) -> Epoch {
        Epoch(self.0.saturating_add(1))
    }
}

impl fmt::Debug for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_next() {
        assert!(Epoch(1) > Epoch::ZERO);
        assert_eq!(Epoch::ZERO.next(), Epoch(1));
        assert!(Epoch(5).next() > Epoch(5));
        assert_eq!(Epoch(u64::MAX - 1).next(), Epoch::RESERVED);
        assert_eq!(Epoch::RESERVED.next(), Epoch::RESERVED);
    }
}
