//! The static physical description of an Autonet installation.

use std::collections::BTreeMap;
use std::fmt;

use autonet_wire::{LinkTiming, PortIndex, Uid, MAX_PORTS};

/// Index of a switch within a [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub usize);

/// Index of a host within a [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

/// Index of a switch-to-switch link within a [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

impl fmt::Debug for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H{}", self.0)
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// One end of a switch-to-switch link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkEnd {
    /// The switch this end plugs into.
    pub switch: SwitchId,
    /// The port on that switch.
    pub port: PortIndex,
}

/// A switch in the physical installation.
#[derive(Clone, Debug)]
pub struct SwitchSpec {
    /// The switch's 48-bit UID (from ROM).
    pub uid: Uid,
}

/// Where a host's controller port is cabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostAttachment {
    /// The switch the cable runs to.
    pub switch: SwitchId,
    /// The switch port the cable terminates on.
    pub port: PortIndex,
}

/// A dual-ported host controller.
#[derive(Clone, Debug)]
pub struct HostSpec {
    /// The controller's 48-bit UID.
    pub uid: Uid,
    /// Where controller port 0 is cabled.
    pub primary: HostAttachment,
    /// Where controller port 1 is cabled, if the host is dual-homed.
    pub alternate: Option<HostAttachment>,
}

/// A switch-to-switch link.
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// One end (by construction the lower switch id).
    pub a: LinkEnd,
    /// The other end.
    pub b: LinkEnd,
    /// Cable timing.
    pub timing: LinkTiming,
}

impl LinkSpec {
    /// Given one endpoint switch, returns the other end.
    ///
    /// # Panics
    ///
    /// Panics if `from` is on neither end of this link.
    pub fn other_end(&self, from: SwitchId) -> LinkEnd {
        if self.a.switch == from {
            self.b
        } else if self.b.switch == from {
            self.a
        } else {
            panic!("{from:?} is not an endpoint of this link")
        }
    }

    /// Returns `true` if both ends are on the same switch (a looped cable).
    pub fn is_loopback(&self) -> bool {
        self.a.switch == self.b.switch
    }
}

/// What occupies one port of one switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortUse {
    /// Port 0: the internal control-processor connection.
    ControlProcessor,
    /// Nothing cabled.
    Free,
    /// A switch-to-switch link.
    Link(LinkId),
    /// A host controller cable (`true` = the host's alternate port).
    Host(HostId, bool),
}

/// Errors raised while constructing a topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// All 12 external ports of the switch are in use.
    NoFreePort(SwitchId),
    /// A UID was used twice.
    DuplicateUid(Uid),
    /// An explicitly requested port is already occupied.
    PortInUse(SwitchId, PortIndex),
    /// An explicitly requested port number is 0 or out of range.
    InvalidPort(PortIndex),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoFreePort(s) => write!(f, "no free external port on {s:?}"),
            TopologyError::DuplicateUid(u) => write!(f, "duplicate UID {u}"),
            TopologyError::PortInUse(s, p) => write!(f, "port {p} on {s:?} already in use"),
            TopologyError::InvalidPort(p) => write!(f, "invalid external port number {p}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// The static physical description of an installation: switches, links,
/// hosts, and the port map of every switch.
///
/// # Examples
///
/// ```
/// use autonet_topo::Topology;
/// use autonet_wire::{LinkTiming, Uid};
///
/// let mut topo = Topology::new();
/// let a = topo.add_switch(Uid::new(1)).unwrap();
/// let b = topo.add_switch(Uid::new(2)).unwrap();
/// topo.connect(a, b, LinkTiming::coax_100m()).unwrap();
/// topo.attach_host(Uid::new(100), a, Some(b)).unwrap();
/// assert_eq!(topo.num_links(), 1);
/// assert!(autonet_topo::is_connected(&topo.view_all()));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Topology {
    switches: Vec<SwitchSpec>,
    hosts: Vec<HostSpec>,
    links: Vec<LinkSpec>,
    /// `ports[switch][port]` — what occupies each port.
    ports: Vec<[PortUse; MAX_PORTS]>,
    uids: BTreeMap<Uid, ()>,
}

impl Topology {
    /// Creates an empty installation.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a switch with the given UID.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DuplicateUid`] if the UID is already used.
    pub fn add_switch(&mut self, uid: Uid) -> Result<SwitchId, TopologyError> {
        self.claim_uid(uid)?;
        let id = SwitchId(self.switches.len());
        self.switches.push(SwitchSpec { uid });
        let mut ports = [PortUse::Free; MAX_PORTS];
        ports[0] = PortUse::ControlProcessor;
        self.ports.push(ports);
        Ok(id)
    }

    /// Cables a link between any free external ports of `a` and `b`, with
    /// the given cable timing. `a == b` creates a looped link (used to test
    /// the `s.switch.loop` machinery).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoFreePort`] if either switch is full.
    pub fn connect(
        &mut self,
        a: SwitchId,
        b: SwitchId,
        timing: LinkTiming,
    ) -> Result<LinkId, TopologyError> {
        let pa = self.lowest_free_port(a)?;
        // Claim `a`'s port before searching `b` so a loopback link gets two
        // distinct ports.
        let id = LinkId(self.links.len());
        self.ports[a.0][pa as usize] = PortUse::Link(id);
        let pb = match self.lowest_free_port(b) {
            Ok(p) => p,
            Err(e) => {
                self.ports[a.0][pa as usize] = PortUse::Free;
                return Err(e);
            }
        };
        self.ports[b.0][pb as usize] = PortUse::Link(id);
        let (lo, hi) = if a.0 <= b.0 {
            (
                LinkEnd {
                    switch: a,
                    port: pa,
                },
                LinkEnd {
                    switch: b,
                    port: pb,
                },
            )
        } else {
            (
                LinkEnd {
                    switch: b,
                    port: pb,
                },
                LinkEnd {
                    switch: a,
                    port: pa,
                },
            )
        };
        self.links.push(LinkSpec {
            a: lo,
            b: hi,
            timing,
        });
        Ok(id)
    }

    /// Attaches a host to `primary` and optionally to `alternate`,
    /// allocating the lowest free port on each switch.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DuplicateUid`] for a reused UID or
    /// [`TopologyError::NoFreePort`] if a switch is full.
    pub fn attach_host(
        &mut self,
        uid: Uid,
        primary: SwitchId,
        alternate: Option<SwitchId>,
    ) -> Result<HostId, TopologyError> {
        self.claim_uid(uid)?;
        let id = HostId(self.hosts.len());
        let pp = self.lowest_free_port(primary)?;
        self.ports[primary.0][pp as usize] = PortUse::Host(id, false);
        let alt = match alternate {
            Some(sw) => {
                let pa = match self.lowest_free_port(sw) {
                    Ok(p) => p,
                    Err(e) => {
                        self.ports[primary.0][pp as usize] = PortUse::Free;
                        self.uids.remove(&uid);
                        return Err(e);
                    }
                };
                self.ports[sw.0][pa as usize] = PortUse::Host(id, true);
                Some(HostAttachment {
                    switch: sw,
                    port: pa,
                })
            }
            None => None,
        };
        self.hosts.push(HostSpec {
            uid,
            primary: HostAttachment {
                switch: primary,
                port: pp,
            },
            alternate: alt,
        });
        Ok(id)
    }

    fn claim_uid(&mut self, uid: Uid) -> Result<(), TopologyError> {
        if self.uids.insert(uid, ()).is_some() {
            return Err(TopologyError::DuplicateUid(uid));
        }
        Ok(())
    }

    fn lowest_free_port(&self, s: SwitchId) -> Result<PortIndex, TopologyError> {
        for p in 1..MAX_PORTS {
            if self.ports[s.0][p] == PortUse::Free {
                return Ok(p as PortIndex);
            }
        }
        Err(TopologyError::NoFreePort(s))
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Number of switch-to-switch links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All switch ids.
    pub fn switch_ids(&self) -> impl Iterator<Item = SwitchId> {
        (0..self.switches.len()).map(SwitchId)
    }

    /// All host ids.
    pub fn host_ids(&self) -> impl Iterator<Item = HostId> {
        (0..self.hosts.len()).map(HostId)
    }

    /// All link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> {
        (0..self.links.len()).map(LinkId)
    }

    /// The description of a switch.
    pub fn switch(&self, id: SwitchId) -> &SwitchSpec {
        &self.switches[id.0]
    }

    /// The description of a host.
    pub fn host(&self, id: HostId) -> &HostSpec {
        &self.hosts[id.0]
    }

    /// The description of a link.
    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.links[id.0]
    }

    /// What occupies `port` on `switch`.
    pub fn port_use(&self, switch: SwitchId, port: PortIndex) -> PortUse {
        self.ports[switch.0][port as usize]
    }

    /// Iterates over the links incident to `switch` (loopback links appear
    /// once per occupied port).
    pub fn links_at(&self, switch: SwitchId) -> impl Iterator<Item = (PortIndex, LinkId)> + '_ {
        self.ports[switch.0]
            .iter()
            .enumerate()
            .filter_map(move |(p, u)| match u {
                PortUse::Link(l) => Some((p as PortIndex, *l)),
                _ => None,
            })
    }

    /// Iterates over the host attachments on `switch`.
    pub fn hosts_at(
        &self,
        switch: SwitchId,
    ) -> impl Iterator<Item = (PortIndex, HostId, bool)> + '_ {
        self.ports[switch.0]
            .iter()
            .enumerate()
            .filter_map(move |(p, u)| match u {
                PortUse::Host(h, alt) => Some((p as PortIndex, *h, *alt)),
                _ => None,
            })
    }

    /// Looks up a switch by UID.
    pub fn switch_by_uid(&self, uid: Uid) -> Option<SwitchId> {
        self.switches
            .iter()
            .position(|s| s.uid == uid)
            .map(SwitchId)
    }

    /// Creates a live view with everything operational.
    pub fn view_all(&self) -> NetView<'_> {
        NetView {
            topo: self,
            link_up: vec![true; self.links.len()],
            switch_up: vec![true; self.switches.len()],
        }
    }
}

/// A view of a topology with per-link and per-switch up/down state, used by
/// analysis and by fault-injection experiments.
#[derive(Clone, Debug)]
pub struct NetView<'a> {
    topo: &'a Topology,
    link_up: Vec<bool>,
    switch_up: Vec<bool>,
}

impl<'a> NetView<'a> {
    /// The underlying static topology.
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }

    /// Marks a link failed.
    pub fn fail_link(&mut self, id: LinkId) {
        self.link_up[id.0] = false;
    }

    /// Marks a link repaired.
    pub fn repair_link(&mut self, id: LinkId) {
        self.link_up[id.0] = true;
    }

    /// Marks a switch failed (all its links become unusable).
    pub fn fail_switch(&mut self, id: SwitchId) {
        self.switch_up[id.0] = false;
    }

    /// Marks a switch repaired.
    pub fn repair_switch(&mut self, id: SwitchId) {
        self.switch_up[id.0] = true;
    }

    /// Returns whether a switch is operational.
    pub fn switch_up(&self, id: SwitchId) -> bool {
        self.switch_up[id.0]
    }

    /// Returns whether a link is usable: the link itself and both end
    /// switches are up, and it is not a loopback.
    pub fn link_usable(&self, id: LinkId) -> bool {
        let l = self.topo.link(id);
        self.link_up[id.0]
            && !l.is_loopback()
            && self.switch_up[l.a.switch.0]
            && self.switch_up[l.b.switch.0]
    }

    /// Iterates over the usable neighbor switches of `s` with the connecting
    /// link: `(local port, link, remote end)`.
    pub fn neighbors(
        &self,
        s: SwitchId,
    ) -> impl Iterator<Item = (autonet_wire::PortIndex, LinkId, LinkEnd)> + '_ {
        self.topo.links_at(s).filter_map(move |(port, lid)| {
            if self.link_usable(lid) {
                Some((port, lid, self.topo.link(lid).other_end(s)))
            } else {
                None
            }
        })
    }

    /// All operational switches.
    pub fn up_switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.topo.switch_ids().filter(move |s| self.switch_up[s.0])
    }

    /// All usable links.
    pub fn usable_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.topo.link_ids().filter(move |l| self.link_usable(*l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(n: u64) -> Uid {
        Uid::new(n)
    }

    #[test]
    fn switch_ports_start_with_cp() {
        let mut t = Topology::new();
        let s = t.add_switch(uid(1)).unwrap();
        assert_eq!(t.port_use(s, 0), PortUse::ControlProcessor);
        assert_eq!(t.port_use(s, 1), PortUse::Free);
    }

    #[test]
    fn connect_allocates_lowest_ports() {
        let mut t = Topology::new();
        let a = t.add_switch(uid(1)).unwrap();
        let b = t.add_switch(uid(2)).unwrap();
        let l = t.connect(a, b, LinkTiming::coax_100m()).unwrap();
        let spec = t.link(l);
        assert_eq!(spec.a, LinkEnd { switch: a, port: 1 });
        assert_eq!(spec.b, LinkEnd { switch: b, port: 1 });
        assert!(!spec.is_loopback());
    }

    #[test]
    fn loopback_link_uses_two_ports() {
        let mut t = Topology::new();
        let a = t.add_switch(uid(1)).unwrap();
        let l = t.connect(a, a, LinkTiming::coax_100m()).unwrap();
        let spec = t.link(l);
        assert!(spec.is_loopback());
        assert_ne!(spec.a.port, spec.b.port);
    }

    #[test]
    fn switch_fills_up_after_twelve_links() {
        let mut t = Topology::new();
        let hub = t.add_switch(uid(1)).unwrap();
        for i in 0..12 {
            let s = t.add_switch(uid(10 + i)).unwrap();
            t.connect(hub, s, LinkTiming::coax_100m()).unwrap();
        }
        let extra = t.add_switch(uid(99)).unwrap();
        assert_eq!(
            t.connect(hub, extra, LinkTiming::coax_100m()),
            Err(TopologyError::NoFreePort(hub))
        );
    }

    #[test]
    fn duplicate_uid_rejected_across_kinds() {
        let mut t = Topology::new();
        let s = t.add_switch(uid(1)).unwrap();
        assert_eq!(
            t.add_switch(uid(1)),
            Err(TopologyError::DuplicateUid(uid(1)))
        );
        assert_eq!(
            t.attach_host(uid(1), s, None),
            Err(TopologyError::DuplicateUid(uid(1)))
        );
    }

    #[test]
    fn dual_homed_host_occupies_two_switches() {
        let mut t = Topology::new();
        let a = t.add_switch(uid(1)).unwrap();
        let b = t.add_switch(uid(2)).unwrap();
        let h = t.attach_host(uid(100), a, Some(b)).unwrap();
        let spec = t.host(h);
        assert_eq!(spec.primary.switch, a);
        assert_eq!(spec.alternate.unwrap().switch, b);
        assert_eq!(t.hosts_at(a).count(), 1);
        assert_eq!(t.hosts_at(b).count(), 1);
        let (_, hid, alt) = t.hosts_at(b).next().unwrap();
        assert_eq!(hid, h);
        assert!(alt, "attachment at b is the alternate");
    }

    #[test]
    fn other_end_resolves() {
        let mut t = Topology::new();
        let a = t.add_switch(uid(1)).unwrap();
        let b = t.add_switch(uid(2)).unwrap();
        let l = t.connect(a, b, LinkTiming::coax_100m()).unwrap();
        assert_eq!(t.link(l).other_end(a).switch, b);
        assert_eq!(t.link(l).other_end(b).switch, a);
    }

    #[test]
    fn view_fail_link_removes_neighbor() {
        let mut t = Topology::new();
        let a = t.add_switch(uid(1)).unwrap();
        let b = t.add_switch(uid(2)).unwrap();
        let l = t.connect(a, b, LinkTiming::coax_100m()).unwrap();
        let mut v = t.view_all();
        assert_eq!(v.neighbors(a).count(), 1);
        v.fail_link(l);
        assert_eq!(v.neighbors(a).count(), 0);
        v.repair_link(l);
        assert_eq!(v.neighbors(a).count(), 1);
    }

    #[test]
    fn view_fail_switch_disables_its_links() {
        let mut t = Topology::new();
        let a = t.add_switch(uid(1)).unwrap();
        let b = t.add_switch(uid(2)).unwrap();
        let c = t.add_switch(uid(3)).unwrap();
        t.connect(a, b, LinkTiming::coax_100m()).unwrap();
        t.connect(b, c, LinkTiming::coax_100m()).unwrap();
        let mut v = t.view_all();
        v.fail_switch(b);
        assert_eq!(v.neighbors(a).count(), 0);
        assert_eq!(v.neighbors(c).count(), 0);
        assert_eq!(v.usable_links().count(), 0);
        assert_eq!(v.up_switches().count(), 2);
    }

    #[test]
    fn loopback_links_never_usable() {
        let mut t = Topology::new();
        let a = t.add_switch(uid(1)).unwrap();
        let l = t.connect(a, a, LinkTiming::coax_100m()).unwrap();
        let v = t.view_all();
        assert!(!v.link_usable(l));
    }

    #[test]
    fn switch_by_uid_lookup() {
        let mut t = Topology::new();
        let a = t.add_switch(uid(5)).unwrap();
        t.add_switch(uid(6)).unwrap();
        assert_eq!(t.switch_by_uid(uid(5)), Some(a));
        assert_eq!(t.switch_by_uid(uid(7)), None);
    }
}
