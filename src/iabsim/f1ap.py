"""Control-plane state machines: F1 association and UE context.

The state machines do not know about links or queues: the owner (normally
the simulation engine) injects `send`, `schedule` and `transition` callbacks
and feeds delivered messages back through :meth:`ControlPlane.on_message`.
That keeps the machines unit-testable over a synchronous loopback. There is
no PDU session here: the engine opens an IAB-MT's session tunnels itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .errors import DuNotReady, NotActive

SETUP_MAX_ATTEMPTS = 2  # one retry after 3x RTT, then fail


class AssocState(str, Enum):
    IDLE = "Idle"
    SETUP_REQUESTED = "SetupRequested"
    ACTIVE = "Active"


class UeState(str, Enum):
    DETACHED = "Detached"
    ATTACHING = "Attaching"
    CONNECTED = "Connected"


class MsgKind(str, Enum):
    SETUP_REQUEST = "SetupRequest"
    SETUP_RESPONSE = "SetupResponse"
    UE_CONTEXT_SETUP_REQUEST = "UeContextSetupRequest"
    UE_CONTEXT_SETUP_RESPONSE = "UeContextSetupResponse"
    DU_CONFIG_UPDATE = "DuConfigUpdate"
    DU_CONFIG_UPDATE_ACK = "DuConfigUpdateAck"


@dataclass
class F1Message:
    kind: MsgKind
    association: str  # keyed by DU id
    payload: dict = field(default_factory=dict)


@dataclass
class F1Association:
    cu: str
    du: str
    state: AssocState = AssocState.IDLE
    rtt_s: float = 0.0
    attempts: int = 0


@dataclass
class UeContext:
    ue: str
    serving_du: str
    state: UeState = UeState.DETACHED


class ControlPlane:
    def __init__(self, *,
                 send: Callable[[F1Message, str, str], None],
                 schedule: Callable[[float, Callable[[], None]], None],
                 transition: Callable[[str, str, str, str], None]):
        self._send = send
        self._schedule = schedule
        self._transition = transition
        self.associations: dict[str, F1Association] = {}
        self.ue_contexts: dict[str, UeContext] = {}
        # Engine hooks; default no-ops so the module tests can omit them.
        self.on_association_active: Callable[[str], None] = lambda du: None
        self.on_ue_connected: Callable[[str], None] = lambda ue: None
        self.on_du_carrier_update: Callable[[str, object], None] = lambda du, c: None

    # -- state helpers -------------------------------------------------------

    def _move_assoc(self, assoc: F1Association, to: AssocState, cause: str):
        frm = assoc.state
        assoc.state = to
        self._transition(f"f1:{assoc.du}", frm.value, to.value, cause)

    def _move_ue(self, ctx: UeContext, to: UeState, cause: str):
        frm = ctx.state
        ctx.state = to
        self._transition(f"ue:{ctx.ue}", frm.value, to.value, cause)

    def association_active(self, du: str) -> bool:
        a = self.associations.get(du)
        return a is not None and a.state is AssocState.ACTIVE

    # -- procedures -------------------------------------------------------------

    def f1_setup(self, cu: str, du: str, rtt_s: float) -> F1Association:
        """Start the setup handshake; Active after one request/response trip."""
        assoc = self.associations.get(du)
        if assoc is None or assoc.state is AssocState.IDLE:
            assoc = F1Association(cu=cu, du=du)
            self.associations[du] = assoc
        assoc.rtt_s = rtt_s
        assoc.attempts = 1
        self._move_assoc(assoc, AssocState.SETUP_REQUESTED, "f1-setup")
        self._send_setup_request(assoc)
        return assoc

    def _send_setup_request(self, assoc: F1Association):
        self._send(F1Message(MsgKind.SETUP_REQUEST, assoc.du), assoc.du, assoc.cu)
        attempt = assoc.attempts
        self._schedule(3.0 * assoc.rtt_s, lambda: self._setup_timeout(assoc, attempt))

    def _setup_timeout(self, assoc: F1Association, attempt: int):
        if assoc.state is not AssocState.SETUP_REQUESTED or assoc.attempts != attempt:
            return
        if assoc.attempts >= SETUP_MAX_ATTEMPTS:
            self._move_assoc(assoc, AssocState.IDLE, "transport-down")
            return
        assoc.attempts += 1
        self._send_setup_request(assoc)

    def ue_attach(self, ue: str, du: str) -> UeContext:
        """Begin attachment to `du`, which the caller has found covers `ue`;
        Connected once the UE context handshake with `du`'s CU completes."""
        if not self.association_active(du):
            raise DuNotReady(f"F1 association of {du} is not Active")
        ctx = UeContext(ue=ue, serving_du=du)
        self.ue_contexts[ue] = ctx
        self._move_ue(ctx, UeState.ATTACHING, "attach")
        self._send(F1Message(MsgKind.UE_CONTEXT_SETUP_REQUEST, du, {"ue": ue}),
                   self.associations[du].cu, du)
        return ctx

    def du_config_update(self, du: str, new_carrier) -> None:
        if not self.association_active(du):
            raise NotActive(f"association of {du} is not Active")
        self._send(F1Message(MsgKind.DU_CONFIG_UPDATE, du, {"carrier": new_carrier}),
                   self.associations[du].cu, du)

    # -- message delivery ---------------------------------------------------------

    def deliverable(self, msg: F1Message) -> bool:
        """False when the association is Idle; such messages drop."""
        assoc = self.associations.get(msg.association)
        return assoc is not None and assoc.state in (AssocState.SETUP_REQUESTED,
                                                     AssocState.ACTIVE)

    def on_message(self, msg: F1Message) -> None:
        assoc = self.associations[msg.association]
        kind = msg.kind
        if kind is MsgKind.SETUP_REQUEST:
            self._send(F1Message(MsgKind.SETUP_RESPONSE, assoc.du), assoc.cu, assoc.du)
        elif kind is MsgKind.SETUP_RESPONSE:
            if assoc.state is AssocState.SETUP_REQUESTED:
                self._move_assoc(assoc, AssocState.ACTIVE, "setup-response")
                self.on_association_active(assoc.du)
        elif kind is MsgKind.UE_CONTEXT_SETUP_REQUEST:
            self._send(F1Message(MsgKind.UE_CONTEXT_SETUP_RESPONSE, assoc.du,
                                 dict(msg.payload)), assoc.du, assoc.cu)
        elif kind is MsgKind.UE_CONTEXT_SETUP_RESPONSE:
            ue = msg.payload["ue"]
            ctx = self.ue_contexts[ue]
            if ctx.state is UeState.ATTACHING:
                self._move_ue(ctx, UeState.CONNECTED, "ue-context-setup")
                self.on_ue_connected(ue)
        elif kind is MsgKind.DU_CONFIG_UPDATE:
            self._send(F1Message(MsgKind.DU_CONFIG_UPDATE_ACK, assoc.du,
                                 dict(msg.payload)), assoc.du, assoc.cu)
        elif kind is MsgKind.DU_CONFIG_UPDATE_ACK:
            self.on_du_carrier_update(assoc.du, msg.payload["carrier"])
