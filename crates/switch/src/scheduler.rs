//! Output-port scheduling engines.
//!
//! The real router is a Xilinx 3090 implementing a strict first-come,
//! first-considered (FCFC) scheduler (companion paper §6.4): a queue of at
//! most 13 forwarding requests (head-of-line — one per receive port) is
//! matched oldest-first against the vector of free transmit ports.
//!
//! - An *alternative-ports* request captures any one matching free port
//!   (lowest number on ties) and leaves the queue — so younger requests can
//!   jump over older ones whose ports are all busy.
//! - A *broadcast* request accumulates matching free ports stickily across
//!   rounds; ports it has captured are not offered to younger requests, so
//!   its priority effectively rises until, at the head of the queue, it has
//!   first claim on every port it still needs. This guarantees broadcasts
//!   are eventually scheduled — the starvation-freedom property the paper
//!   calls out.
//!
//! The engine makes one scheduling decision per 480 ns (six 80 ns slots),
//! bounding the switch at about 2 million packets per second.
//!
//! [`FcfsScheduler`] is the strict first-come-first-*served* baseline used
//! by the ablation experiment: the head request blocks all younger ones.

use std::collections::VecDeque;

use autonet_wire::PortIndex;

use crate::portset::PortSet;

/// A forwarding request from a receive port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// The receive port asking for service.
    pub in_port: PortIndex,
    /// The port vector from the forwarding table.
    pub ports: PortSet,
    /// Whether all ports are required simultaneously.
    pub broadcast: bool,
}

/// A scheduling decision: connect `in_port` to all of `out_ports`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// The receive port served.
    pub in_port: PortIndex,
    /// The transmit ports captured (one for alternatives; the full set for
    /// a broadcast).
    pub out_ports: PortSet,
}

/// Common interface of the FCFC engine and the FCFS baseline.
pub trait Scheduler {
    /// Adds a request to the queue. Returns `false` if the receive port
    /// already has a queued request (head-of-line: at most one each).
    fn enqueue(&mut self, req: Request) -> bool;

    /// Runs one scheduling round against the currently free transmit ports.
    /// At most one request is granted per round (the 480 ns decision rate).
    fn round(&mut self, free_ports: PortSet) -> Option<Grant>;

    /// Number of queued requests.
    fn pending(&self) -> usize;

    /// Ports currently held by incomplete broadcast requests.
    fn reserved_ports(&self) -> PortSet;

    /// Withdraws the request from `in_port`, releasing any reservations.
    /// Returns `true` if a request was removed.
    fn cancel(&mut self, in_port: PortIndex) -> bool;
}

/// A queued request plus the ports a broadcast has captured so far.
#[derive(Clone, Copy, Debug)]
struct Slot {
    req: Request,
    captured: PortSet,
}

impl Slot {
    fn still_needed(&self) -> PortSet {
        self.req.ports.minus(self.captured)
    }
}

fn enqueue_common(queue: &mut VecDeque<Slot>, req: Request) -> bool {
    assert!(
        !req.ports.is_empty(),
        "cannot schedule an empty port vector"
    );
    if queue.iter().any(|s| s.req.in_port == req.in_port) {
        return false;
    }
    queue.push_back(Slot {
        req,
        captured: PortSet::EMPTY,
    });
    true
}

fn reserved_common(queue: &VecDeque<Slot>) -> PortSet {
    queue
        .iter()
        .fold(PortSet::EMPTY, |acc, s| acc.union(s.captured))
}

fn cancel_common(queue: &mut VecDeque<Slot>, in_port: PortIndex) -> bool {
    if let Some(pos) = queue.iter().position(|s| s.req.in_port == in_port) {
        queue.remove(pos);
        true
    } else {
        false
    }
}

/// The first-come, first-considered scheduling engine.
///
/// # Examples
///
/// ```
/// use autonet_switch::{FcfcScheduler, PortSet, Request, Scheduler};
///
/// let mut engine = FcfcScheduler::new();
/// engine.enqueue(Request { in_port: 1, ports: PortSet::single(5), broadcast: false });
/// engine.enqueue(Request { in_port: 2, ports: PortSet::single(6), broadcast: false });
/// // Port 5 is busy; the younger request jumps the queue and takes port 6.
/// let grant = engine.round(PortSet::single(6)).unwrap();
/// assert_eq!(grant.in_port, 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FcfcScheduler {
    queue: VecDeque<Slot>,
}

impl FcfcScheduler {
    /// Creates an empty engine.
    pub fn new() -> Self {
        FcfcScheduler::default()
    }
}

impl Scheduler for FcfcScheduler {
    fn enqueue(&mut self, req: Request) -> bool {
        enqueue_common(&mut self.queue, req)
    }

    fn round(&mut self, free_ports: PortSet) -> Option<Grant> {
        // Ports captured by queued broadcasts are not free to anyone else.
        let mut free = free_ports.minus(self.reserved_ports());
        let mut grant_at: Option<(usize, Grant)> = None;
        for (i, slot) in self.queue.iter_mut().enumerate() {
            if slot.req.broadcast {
                // Accumulate newly free needed ports, hiding them from
                // younger requests.
                let take = free.intersect(slot.still_needed());
                slot.captured = slot.captured.union(take);
                free = free.minus(take);
                if slot.still_needed().is_empty() {
                    grant_at = Some((
                        i,
                        Grant {
                            in_port: slot.req.in_port,
                            out_ports: slot.captured,
                        },
                    ));
                    break;
                }
            } else {
                let matches = free.intersect(slot.req.ports);
                if let Some(port) = matches.lowest() {
                    grant_at = Some((
                        i,
                        Grant {
                            in_port: slot.req.in_port,
                            out_ports: PortSet::single(port),
                        },
                    ));
                    break;
                }
                // No match: this request waits, younger ones may jump it.
            }
        }
        if let Some((i, grant)) = grant_at {
            self.queue.remove(i);
            Some(grant)
        } else {
            None
        }
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn reserved_ports(&self) -> PortSet {
        reserved_common(&self.queue)
    }

    fn cancel(&mut self, in_port: PortIndex) -> bool {
        cancel_common(&mut self.queue, in_port)
    }
}

/// The strict first-come-first-served baseline: only the oldest request is
/// considered each round, so a blocked head request stalls the whole queue.
#[derive(Clone, Debug, Default)]
pub struct FcfsScheduler {
    queue: VecDeque<Slot>,
}

impl FcfsScheduler {
    /// Creates an empty engine.
    pub fn new() -> Self {
        FcfsScheduler::default()
    }
}

impl Scheduler for FcfsScheduler {
    fn enqueue(&mut self, req: Request) -> bool {
        enqueue_common(&mut self.queue, req)
    }

    fn round(&mut self, free_ports: PortSet) -> Option<Grant> {
        let free = free_ports.minus(self.reserved_ports());
        let head = self.queue.front_mut()?;
        if head.req.broadcast {
            let take = free.intersect(head.still_needed());
            head.captured = head.captured.union(take);
            if head.still_needed().is_empty() {
                let grant = Grant {
                    in_port: head.req.in_port,
                    out_ports: head.captured,
                };
                self.queue.pop_front();
                return Some(grant);
            }
            None
        } else {
            let matches = free.intersect(head.req.ports);
            if let Some(port) = matches.lowest() {
                let grant = Grant {
                    in_port: head.req.in_port,
                    out_ports: PortSet::single(port),
                };
                self.queue.pop_front();
                Some(grant)
            } else {
                None
            }
        }
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn reserved_ports(&self) -> PortSet {
        reserved_common(&self.queue)
    }

    fn cancel(&mut self, in_port: PortIndex) -> bool {
        cancel_common(&mut self.queue, in_port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alt(in_port: PortIndex, ports: &[PortIndex]) -> Request {
        Request {
            in_port,
            ports: PortSet::from_ports(ports.iter().copied()),
            broadcast: false,
        }
    }

    fn bcast(in_port: PortIndex, ports: &[PortIndex]) -> Request {
        Request {
            in_port,
            ports: PortSet::from_ports(ports.iter().copied()),
            broadcast: true,
        }
    }

    fn free(ports: &[PortIndex]) -> PortSet {
        PortSet::from_ports(ports.iter().copied())
    }

    #[test]
    fn grants_lowest_free_alternative() {
        let mut s = FcfcScheduler::new();
        s.enqueue(alt(1, &[4, 2, 9]));
        let g = s.round(free(&[2, 4, 9])).unwrap();
        assert_eq!(g.in_port, 1);
        assert_eq!(g.out_ports, PortSet::single(2));
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn one_grant_per_round() {
        let mut s = FcfcScheduler::new();
        s.enqueue(alt(1, &[2]));
        s.enqueue(alt(3, &[4]));
        assert!(s.round(free(&[2, 4])).is_some());
        assert_eq!(s.pending(), 1);
        assert!(s.round(free(&[2, 4])).is_some());
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn queue_jumping_over_blocked_elder() {
        let mut s = FcfcScheduler::new();
        s.enqueue(alt(1, &[5])); // Port 5 busy.
        s.enqueue(alt(2, &[6])); // Port 6 free.
        let g = s.round(free(&[6])).unwrap();
        assert_eq!(g.in_port, 2, "younger request jumps the blocked head");
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn fcfs_head_blocks_queue() {
        let mut s = FcfsScheduler::new();
        s.enqueue(alt(1, &[5]));
        s.enqueue(alt(2, &[6]));
        assert!(s.round(free(&[6])).is_none(), "FCFS must not jump the head");
        let g = s.round(free(&[5, 6])).unwrap();
        assert_eq!(g.in_port, 1);
    }

    #[test]
    fn broadcast_accumulates_across_rounds() {
        let mut s = FcfcScheduler::new();
        s.enqueue(bcast(0, &[3, 4, 5]));
        assert!(s.round(free(&[3])).is_none());
        assert_eq!(s.reserved_ports(), PortSet::single(3));
        assert!(s.round(free(&[5])).is_none());
        let g = s.round(free(&[4])).unwrap();
        assert_eq!(g.in_port, 0);
        assert_eq!(g.out_ports, free(&[3, 4, 5]));
        assert_eq!(s.reserved_ports(), PortSet::EMPTY);
    }

    #[test]
    fn broadcast_reservations_hidden_from_younger() {
        let mut s = FcfcScheduler::new();
        s.enqueue(bcast(0, &[3, 4]));
        s.enqueue(alt(1, &[3]));
        // Port 3 goes to the broadcast reservation; the alternative request
        // must not steal it.
        assert!(s.round(free(&[3])).is_none());
        assert!(
            s.round(free(&[3])).is_none(),
            "3 is reserved, nothing to grant"
        );
        let g = s.round(free(&[4])).unwrap();
        assert_eq!(g.in_port, 0);
    }

    #[test]
    fn broadcast_eventually_completes_under_contention() {
        // A broadcast needing ports 1..=4 competes with alternative
        // requests that would happily take the same ports; the broadcast's
        // sticky reservations guarantee completion.
        let mut s = FcfcScheduler::new();
        s.enqueue(bcast(0, &[1, 2, 3, 4]));
        let mut granted_broadcast = false;
        for round in 0..20 {
            // An endless stream of competing alternative requests.
            s.enqueue(alt(5, &[1, 2, 3, 4]));
            let port = (round % 4 + 1) as PortIndex;
            if let Some(g) = s.round(PortSet::single(port)) {
                if g.in_port == 0 {
                    granted_broadcast = true;
                    break;
                }
            }
            s.cancel(5);
        }
        assert!(granted_broadcast, "broadcast starved");
    }

    #[test]
    fn one_request_per_in_port() {
        let mut s = FcfcScheduler::new();
        assert!(s.enqueue(alt(1, &[2])));
        assert!(
            !s.enqueue(alt(1, &[3])),
            "head-of-line: one request per port"
        );
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn cancel_releases_reservations() {
        let mut s = FcfcScheduler::new();
        s.enqueue(bcast(0, &[3, 4]));
        s.round(free(&[3]));
        assert_eq!(s.reserved_ports(), PortSet::single(3));
        assert!(s.cancel(0));
        assert_eq!(s.reserved_ports(), PortSet::EMPTY);
        assert!(!s.cancel(0));
    }

    #[test]
    fn no_grant_when_nothing_free() {
        let mut s = FcfcScheduler::new();
        s.enqueue(alt(1, &[2, 3]));
        assert!(s.round(PortSet::EMPTY).is_none());
        assert_eq!(s.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "empty port vector")]
    fn empty_vector_rejected() {
        let mut s = FcfcScheduler::new();
        s.enqueue(Request {
            in_port: 0,
            ports: PortSet::EMPTY,
            broadcast: false,
        });
    }

    #[test]
    fn fcfs_broadcast_reserves_at_head() {
        let mut s = FcfsScheduler::new();
        s.enqueue(bcast(0, &[2, 3]));
        s.enqueue(alt(1, &[2]));
        assert!(s.round(free(&[2])).is_none());
        let g = s.round(free(&[3])).unwrap();
        assert_eq!(g.in_port, 0);
        assert_eq!(g.out_ports, free(&[2, 3]));
        // Now the alternative request is head and can be served.
        let g2 = s.round(free(&[2])).unwrap();
        assert_eq!(g2.in_port, 1);
    }
}
