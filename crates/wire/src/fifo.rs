//! The per-port receive FIFO.
//!
//! Each receiving link unit buffers arriving packet bytes in a 4096 × 9-bit
//! FIFO (companion paper §5.1): the ninth bit distinguishes packet-end marks
//! from data bytes. A status line reports whether the FIFO is more than a
//! threshold fraction full; that status drives the `start`/`stop` directives
//! sent back on the reverse channel (§6.2). The FIFO never discards bytes in
//! normal operation — overflow is a hardware fault recorded in a status bit.

use std::collections::VecDeque;

/// One 9-bit FIFO entry: a packet byte or the packet-end mark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FifoEntry {
    /// A packet data byte.
    Byte(u8),
    /// The end-of-packet mark.
    End,
}

/// A bounded receive FIFO with a flow-control threshold.
#[derive(Clone, Debug)]
pub struct ReceiveFifo {
    entries: VecDeque<FifoEntry>,
    capacity: usize,
    /// Issue `stop` while occupancy exceeds this entry count.
    stop_threshold: usize,
    max_occupancy: usize,
    overflows: u64,
    total_pushed: u64,
    total_popped: u64,
}

impl ReceiveFifo {
    /// The production FIFO size (entries), sized for broadcast deadlock
    /// avoidance (§6.2).
    pub const AUTONET_CAPACITY: usize = 4096;

    /// Creates a FIFO of `capacity` entries that signals `stop` when more
    /// than `(1 - f) * capacity` entries are buffered.
    ///
    /// `f` is the paper's free-fraction parameter: with `f = 0.5` the FIFO
    /// stops the sender once it is more than half full.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `f` is outside `(0, 1]`.
    pub fn new(capacity: usize, f: f64) -> Self {
        assert!(capacity > 0, "FIFO capacity must be positive");
        assert!(f > 0.0 && f <= 1.0, "free fraction out of range: {f}");
        let stop_threshold = ((1.0 - f) * capacity as f64).floor() as usize;
        ReceiveFifo {
            entries: VecDeque::with_capacity(capacity.min(8192)),
            capacity,
            stop_threshold,
            max_occupancy: 0,
            overflows: 0,
            total_pushed: 0,
            total_popped: 0,
        }
    }

    /// Creates the production configuration: 4096 entries, stop at half full.
    pub fn autonet() -> Self {
        ReceiveFifo::new(Self::AUTONET_CAPACITY, 0.5)
    }

    /// Appends an entry. Returns `false` (and counts an overflow) if the
    /// FIFO is full — the hardware-fault case.
    pub fn push(&mut self, entry: FifoEntry) -> bool {
        if self.entries.len() == self.capacity {
            self.overflows += 1;
            return false;
        }
        self.entries.push_back(entry);
        self.total_pushed += 1;
        self.max_occupancy = self.max_occupancy.max(self.entries.len());
        true
    }

    /// Removes the oldest entry.
    pub fn pop(&mut self) -> Option<FifoEntry> {
        let e = self.entries.pop_front();
        if e.is_some() {
            self.total_popped += 1;
        }
        e
    }

    /// Returns the oldest entry without removing it.
    pub fn peek(&self) -> Option<FifoEntry> {
        self.entries.front().copied()
    }

    /// Returns the `n`-th oldest entry without removing anything, used by
    /// the link unit to capture the two address bytes at the head of an
    /// arriving packet.
    pub fn peek_at(&self, n: usize) -> Option<FifoEntry> {
        self.entries.get(n).copied()
    }

    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The status line: `true` means "send `stop`" (occupancy above the
    /// threshold).
    pub fn above_stop_threshold(&self) -> bool {
        self.entries.len() > self.stop_threshold
    }

    /// High-water mark of occupancy since creation.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Number of entries rejected because the FIFO was full.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Total entries ever accepted.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Total entries ever removed.
    pub fn total_popped(&self) -> u64 {
        self.total_popped
    }

    /// Empties the FIFO (link-unit reset).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut f = ReceiveFifo::new(8, 0.5);
        f.push(FifoEntry::Byte(1));
        f.push(FifoEntry::Byte(2));
        f.push(FifoEntry::End);
        assert_eq!(f.pop(), Some(FifoEntry::Byte(1)));
        assert_eq!(f.pop(), Some(FifoEntry::Byte(2)));
        assert_eq!(f.pop(), Some(FifoEntry::End));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn stop_threshold_at_half_full() {
        let mut f = ReceiveFifo::new(8, 0.5);
        for i in 0..4 {
            assert!(!f.above_stop_threshold(), "at {i} entries");
            f.push(FifoEntry::Byte(i));
        }
        // More than half full: 5th entry crosses the threshold.
        assert!(!f.above_stop_threshold());
        f.push(FifoEntry::Byte(4));
        assert!(f.above_stop_threshold());
        f.pop();
        assert!(!f.above_stop_threshold());
    }

    #[test]
    fn threshold_respects_free_fraction() {
        // f = 0.25 means stop when more than 75% full.
        let mut f = ReceiveFifo::new(100, 0.25);
        for i in 0..75 {
            f.push(FifoEntry::Byte(i as u8));
        }
        assert!(!f.above_stop_threshold());
        f.push(FifoEntry::Byte(0));
        assert!(f.above_stop_threshold());
    }

    #[test]
    fn overflow_counts_and_rejects() {
        let mut f = ReceiveFifo::new(2, 0.5);
        assert!(f.push(FifoEntry::Byte(0)));
        assert!(f.push(FifoEntry::Byte(1)));
        assert!(!f.push(FifoEntry::Byte(2)));
        assert_eq!(f.overflows(), 1);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn max_occupancy_tracks_high_water() {
        let mut f = ReceiveFifo::new(10, 0.5);
        for i in 0..7 {
            f.push(FifoEntry::Byte(i));
        }
        for _ in 0..7 {
            f.pop();
        }
        f.push(FifoEntry::Byte(0));
        assert_eq!(f.max_occupancy(), 7);
    }

    #[test]
    fn peek_at_reads_address_bytes() {
        let mut f = ReceiveFifo::new(8, 0.5);
        f.push(FifoEntry::Byte(0xAB));
        f.push(FifoEntry::Byte(0xCD));
        assert_eq!(f.peek_at(0), Some(FifoEntry::Byte(0xAB)));
        assert_eq!(f.peek_at(1), Some(FifoEntry::Byte(0xCD)));
        assert_eq!(f.peek_at(2), None);
        assert_eq!(f.len(), 2, "peek must not consume");
    }

    #[test]
    fn autonet_configuration() {
        let f = ReceiveFifo::autonet();
        assert_eq!(f.capacity(), 4096);
    }

    #[test]
    #[should_panic(expected = "free fraction out of range")]
    fn zero_free_fraction_rejected() {
        let _ = ReceiveFifo::new(8, 0.0);
    }
}
