//! Fault injection: link and switch failures/repairs, host power events,
//! flapping cables.

use autonet_host::HostController;
use autonet_sim::{Scheduler, SimDuration, SimTime};
use autonet_topo::{HostId, LinkId, SwitchId};

use super::events::Event;
use super::{Driver, Net, NetWorld};

impl NetWorld {
    /// Reboots the switch with a fresh Autopilot (and a fresh dead-port
    /// mirror: everything starts condemned again).
    pub(super) fn on_switch_up(
        &mut self,
        now: SimTime,
        s: usize,
        sched: &mut Scheduler<'_, Event>,
    ) {
        let uid = self.topo.switch(SwitchId(s)).uid;
        self.switches
            .reset_slot(s, uid, self.params.autopilot, now, self.params.tracing);
        sched.after(SimDuration::ZERO, Event::SwitchBoot { s });
    }

    pub(super) fn on_host_power_off(&mut self, now: SimTime, h: usize) {
        self.hosts.up[h] = false;
        self.host_powered_off_at[h] = Some(now);
    }

    pub(super) fn on_host_power_on(&mut self, h: usize, sched: &mut Scheduler<'_, Event>) {
        self.hosts.up[h] = true;
        self.host_powered_off_at[h] = None;
        let uid = self.topo.host(HostId(h)).uid;
        let dual = self.topo.host(HostId(h)).alternate.is_some();
        self.hosts.ctl[h] = HostController::new(uid, self.params.host, dual);
        sched.after(SimDuration::ZERO, Event::HostBoot { h });
    }
}

impl<D: Driver> Net<D> {
    /// Schedules a link failure.
    pub fn schedule_link_down(&mut self, at: SimTime, l: LinkId) {
        self.sim.schedule(at, Event::LinkDown { l: l.0 });
    }

    /// Schedules a link repair.
    pub fn schedule_link_up(&mut self, at: SimTime, l: LinkId) {
        self.sim.schedule(at, Event::LinkUp { l: l.0 });
    }

    /// Schedules a switch crash.
    pub fn schedule_switch_down(&mut self, at: SimTime, s: SwitchId) {
        self.sim.schedule(at, Event::SwitchDown { s: s.0 });
    }

    /// Schedules a switch power-on (reboots a fresh Autopilot).
    pub fn schedule_switch_up(&mut self, at: SimTime, s: SwitchId) {
        self.sim.schedule(at, Event::SwitchUp { s: s.0 });
    }

    /// Schedules a host power-off with cables left attached: the
    /// unterminated links *reflect* (§5.3), which is what made the §7
    /// broadcast storm possible, until the switch's status sampler counts
    /// enough code violations to kill the ports.
    pub fn schedule_host_power_off(&mut self, at: SimTime, h: HostId) {
        self.sim.schedule(at, Event::HostPowerOff { h: h.0 });
    }

    /// Schedules the host powering back on.
    pub fn schedule_host_power_on(&mut self, at: SimTime, h: HostId) {
        self.sim.schedule(at, Event::HostPowerOn { h: h.0 });
    }

    /// Schedules a host-link failure (`which`: 0 primary, 1 alternate).
    pub fn schedule_host_link_down(&mut self, at: SimTime, h: HostId, which: usize) {
        self.sim.schedule(at, Event::HostLinkDown { h: h.0, which });
    }

    /// Schedules a host-link repair.
    pub fn schedule_host_link_up(&mut self, at: SimTime, h: HostId, which: usize) {
        self.sim.schedule(at, Event::HostLinkUp { h: h.0, which });
    }

    /// Schedules `2 * cycles` alternating down/up events on a link: a
    /// flapping (intermittent) cable. The events are [`link_flap_events`].
    pub fn schedule_link_flaps(
        &mut self,
        from: SimTime,
        l: LinkId,
        half_period: SimDuration,
        cycles: usize,
    ) {
        for (t, up) in link_flap_events(from, half_period, cycles) {
            if up {
                self.schedule_link_up(t, l);
            } else {
                self.schedule_link_down(t, l);
            }
        }
    }
}

/// The `(at, up)` events of a flap started at `from`: `2 * cycles`
/// alternating transitions `half_period` apart, down first. The last
/// one, if any, is the repair the link ends on.
pub fn link_flap_events(
    from: SimTime,
    half_period: SimDuration,
    cycles: usize,
) -> impl Iterator<Item = (SimTime, bool)> {
    (0..2 * cycles as u64).map(move |i| (from + half_period.saturating_mul(i), i % 2 == 1))
}
