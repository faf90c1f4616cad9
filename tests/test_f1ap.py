"""Control-plane state machines exercised over a synchronous loopback bus."""
import pytest

from iabsim.errors import DuNotReady, NotActive
from iabsim.f1ap import AssocState, ControlPlane, MsgKind, UeState
from iabsim.topology import Carrier


class Bus:
    """Synchronous delivery with an on/off switch and manual timers."""

    def __init__(self, connected=True):
        self.connected = connected
        self.timers = []  # (delay, fn)
        self.transitions = []
        self.sent = []
        self.cp = ControlPlane(send=self._send, schedule=self._schedule,
                               transition=self._transition)

    def _send(self, msg, src, dst):
        self.sent.append((msg.kind, src, dst))
        if self.connected and self.cp.deliverable(msg):
            self.cp.on_message(msg)

    def _schedule(self, delay, fn):
        self.timers.append((delay, fn))

    def _transition(self, entity, frm, to, cause):
        self.transitions.append((entity, frm, to, cause))

    def fire_timers(self):
        pending, self.timers = self.timers, []
        for _, fn in pending:
            fn()


class TestF1Setup:
    def test_handshake_reaches_active(self):
        bus = Bus()
        assoc = bus.cp.f1_setup("cu", "du", rtt_s=0.001)
        assert assoc.state is AssocState.ACTIVE
        kinds = [k for k, _, _ in bus.sent]
        assert kinds == [MsgKind.SETUP_REQUEST, MsgKind.SETUP_RESPONSE]
        assert ("f1:du", "Idle", "SetupRequested", "f1-setup") in bus.transitions
        assert ("f1:du", "SetupRequested", "Active", "setup-response") in bus.transitions

    def test_active_callback_fires_once(self):
        bus = Bus()
        seen = []
        bus.cp.on_association_active = seen.append
        bus.cp.f1_setup("cu", "du", rtt_s=0.001)
        bus.fire_timers()  # stale timeout must not re-trigger anything
        assert seen == ["du"]

    def test_retry_once_then_idle_on_dead_transport(self):
        bus = Bus(connected=False)
        assoc = bus.cp.f1_setup("cu", "du", rtt_s=0.001)
        assert assoc.state is AssocState.SETUP_REQUESTED
        assert assoc.attempts == 1
        bus.fire_timers()  # first 3*RTT timeout: retransmit
        assert assoc.attempts == 2
        assert [k for k, _, _ in bus.sent] == [MsgKind.SETUP_REQUEST] * 2
        bus.fire_timers()  # second timeout: give up
        assert assoc.state is AssocState.IDLE
        assert ("f1:du", "SetupRequested", "Idle", "transport-down") in bus.transitions

    def test_timeout_delay_is_three_rtt(self):
        bus = Bus(connected=False)
        bus.cp.f1_setup("cu", "du", rtt_s=0.004)
        assert bus.timers[0][0] == pytest.approx(0.012)

    def test_setup_can_restart_after_failure(self):
        bus = Bus(connected=False)
        bus.cp.f1_setup("cu", "du", rtt_s=0.001)
        bus.fire_timers()
        bus.fire_timers()
        bus.connected = True
        assoc = bus.cp.f1_setup("cu", "du", rtt_s=0.001)
        assert assoc.state is AssocState.ACTIVE


class TestDeliverability:
    def test_messages_undeliverable_while_idle(self):
        bus = Bus(connected=False)
        assoc = bus.cp.f1_setup("cu", "du", rtt_s=0.001)
        bus.fire_timers()
        bus.fire_timers()
        assert assoc.state is AssocState.IDLE
        # a message for an Idle association must be reported undeliverable
        late = bus.sent[-1]
        from iabsim.f1ap import F1Message
        assert not bus.cp.deliverable(F1Message(late[0], "du"))

    def test_messages_deliverable_while_requested_and_active(self):
        bus = Bus(connected=False)
        bus.cp.f1_setup("cu", "du", rtt_s=0.001)
        from iabsim.f1ap import F1Message
        assert bus.cp.deliverable(F1Message(MsgKind.SETUP_REQUEST, "du"))
        bus.connected = True
        bus.cp.f1_setup("cu", "du", rtt_s=0.001)
        assert bus.cp.deliverable(F1Message(MsgKind.DU_CONFIG_UPDATE, "du"))

    def test_unknown_association_undeliverable(self):
        from iabsim.f1ap import F1Message
        assert not Bus().cp.deliverable(F1Message(MsgKind.SETUP_REQUEST, "du"))


class TestUeAttach:
    def _active_bus(self):
        bus = Bus()
        bus.cp.f1_setup("cu", "du", rtt_s=0.001)
        return bus

    def test_attach_reaches_connected(self):
        bus = self._active_bus()
        seen = []
        bus.cp.on_ue_connected = seen.append
        ctx = bus.cp.ue_attach("ue1", "du")
        assert ctx.state is UeState.CONNECTED
        assert seen == ["ue1"]
        assert ("ue:ue1", "Detached", "Attaching", "attach") in bus.transitions
        assert ("ue:ue1", "Attaching", "Connected", "ue-context-setup") in bus.transitions

    def test_attach_before_association_active_rejected(self):
        bus = Bus(connected=False)
        bus.cp.f1_setup("cu", "du", rtt_s=0.001)  # stuck in SetupRequested
        with pytest.raises(DuNotReady):
            bus.cp.ue_attach("ue1", "du")


class TestDuConfigUpdate:
    def test_update_round_trip_reaches_hook(self):
        bus = Bus()
        bus.cp.f1_setup("cu", "du", rtt_s=0.001)
        got = []
        bus.cp.on_du_carrier_update = lambda du, c: got.append((du, c))
        carrier = Carrier("n78", 3.47e9, 30e6, 30e3)
        bus.cp.du_config_update("du", carrier)
        assert got == [("du", carrier)]
        kinds = [k for k, _, _ in bus.sent[-2:]]
        assert kinds == [MsgKind.DU_CONFIG_UPDATE, MsgKind.DU_CONFIG_UPDATE_ACK]

    def test_update_on_inactive_association_rejected(self):
        bus = Bus(connected=False)
        bus.cp.f1_setup("cu", "du", rtt_s=0.001)
        with pytest.raises(NotActive):
            bus.cp.du_config_update("du", Carrier("n78", 3.47e9, 30e6, 30e3))
