"""Network object model: nodes, links, carriers, flows, scenario graph.

A :class:`Scenario` is input only (a Simulator runs on its own deep copy): a
flat graph plus workload and schedule. Its nodes and links enter only through
`add_node`, `add_iab_node` and `add_link`, for code and the loader alike, and
those own the per-entry structural rules: they raise on a break. An IAB node
enters whole, from `add_iab_node` (which its directive calls at run time): its
IabMt `<group>-mt`, its IabDu `<group>-du` and the one wire between them. Two
nodes share at most one link. `validate_topology` alone owns every other rule,
for a file and code alike, and reports it as data: a CU wired to every donor
DU and to the UPF, tx powers inside TX_POWER_DBM, finite link numbers, unique
flow ids outside the f1c: prefix, flow, assert and directive bounds, only
directives in a schedule, an assert's bound, and a bound on the packets flows
inject. A link's ends are fixed once `add_link` made it. Only a DU advertises
a carrier; a radio link takes its DU's carrier and the scenario's
`radio_params`. The protocol's sizes and limits are constants of `gtp` and
`engine`, not scenario data.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import radio
from .errors import (DuplicateCu, DuplicateUpf, IllegalMedium, MissingCarrier,
                     UnknownNode)
from .radio import RadioParams, VALID_SCS_HZ


class Role(str, Enum):
    CU = "CU"
    DONOR_DU = "DonorDU"
    IAB_MT = "IabMt"
    IAB_DU = "IabDu"
    UE = "Ue"
    UPF = "Upf"


class Medium(str, Enum):
    WIRED = "Wired"
    RADIO = "Radio"


DU_ROLES = frozenset({Role.DONOR_DU, Role.IAB_DU})
RADIO_ROLES = frozenset({Role.DONOR_DU, Role.IAB_DU, Role.UE, Role.IAB_MT})
# Allowed wired endpoint role pairs (unordered), all on the ground: the one
# wire of an airframe, between its MT and its DU, is add_iab_node's own.
WIRED_PAIRS = frozenset({
    frozenset({Role.CU, Role.DONOR_DU}),
    frozenset({Role.CU, Role.UPF}),
})
# The wired hop between an IAB node's MT and DU on one airframe. It is not
# free: its serialization time shows in the trace's 12-digit times.
IAB_INTERNAL_CAPACITY_BPS = 1e15
# The most packets a valid scenario's flows may inject: bounds a run's work.
MAX_INJECTED_PACKETS = 10 ** 6
# The largest packet, IP's 65,535 bytes: a packet of 1e308 bytes once
# overflowed the serialization time's float.
MAX_PACKET_BYTES = 65_535
# A tx power's window, in dBm. The bundled radios send 23 and 43 dBm, and
# 80 dBm is past any real one: a 5,000 dBm DU gave its access link an SNR of
# thousands of dB, and 1e300 dBm a serialization time of 0.
TX_POWER_DBM = (-100.0, 80.0)


@dataclass(frozen=True)
class Carrier:
    band_label: str
    center_frequency_hz: float
    bandwidth_hz: float
    scs_hz: float

    def __post_init__(self):
        if not 0 < self.bandwidth_hz < math.inf:
            raise ValueError("bandwidth must be positive and finite")
        if self.scs_hz not in VALID_SCS_HZ:
            raise ValueError(f"scs must be one of {VALID_SCS_HZ}")
        if not self.bandwidth_hz / 2 < self.center_frequency_hz < math.inf:
            raise ValueError("center frequency must be finite and exceed half "
                             "the bandwidth")


@dataclass
class Node:
    id: str
    role: Role
    position: tuple[float, float]
    tx_power_dbm: Optional[float] = None
    # Advertised carrier of a DU, consulted for coverage before any access link
    # to a UE exists; du_config_update replaces it in the Simulator's copy.
    carrier: Optional[Carrier] = None


@dataclass
class Link:
    id: str
    a: str
    b: str
    medium: Medium
    carrier: Optional[Carrier] = None  # a radio link's DU's; None on a wire
    wired_capacity_bps: Optional[float] = None
    propagation_delay_s: float = 0.0

    def __setattr__(self, name, value):
        if name in ("a", "b") and name in self.__dict__:
            raise AttributeError(f"link {self.id}: its ends are fixed")
        object.__setattr__(self, name, value)

    def other(self, node_id: str) -> str:
        return self.b if node_id == self.a else self.a

    def connects(self, a: str, b: str) -> bool:
        return {self.a, self.b} == {a, b}


@dataclass
class FlowSpec:
    id: str
    src: str
    dst: str
    rate_bps: float
    packet_size_bytes: int = 1400
    start_s: float = 0.0
    stop_s: float = 0.0


@dataclass
class IabNodeDirective:
    """Timed instantiation of an IAB node: IabMt `<group>-mt` and IabDu
    `<group>-du`."""
    at_s: float
    position: tuple[float, float]
    access_carrier: Carrier
    tx_power_dbm: float
    group: str
    mt_tx_power_dbm: float = 23.0


@dataclass
class DuConfigUpdateDirective:
    """Timed carrier reconfiguration of a running DU."""
    at_s: float
    du: str
    carrier: Carrier


@dataclass
class FlowAssert:
    flow: str
    window: tuple[float, float]
    min_goodput_bps: Optional[float] = None
    max_goodput_bps: Optional[float] = None


@dataclass
class Scenario:
    """Only `add_node`, `add_iab_node` and `add_link` fill nodes and links."""
    duration_s: float
    seed: int = 0
    nodes: dict[str, Node] = field(default_factory=dict, init=False)
    links: list[Link] = field(default_factory=list, init=False)
    flows: list[FlowSpec] = field(default_factory=list)
    schedule: list = field(default_factory=list)
    radio_params: RadioParams = field(default_factory=RadioParams)
    asserts: list[FlowAssert] = field(default_factory=list)
    _counter: int = field(default=0, init=False, repr=False)

    # -- construction ------------------------------------------------------

    def _next_id(self, prefix: str) -> str:
        """The next unused `<prefix><k>`: no node or link holds it."""
        while True:
            self._counter += 1
            nid = f"{prefix}{self._counter}"
            if nid not in self.nodes and not any(l.id == nid for l in self.links):
                return nid

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNode(node_id) from None

    def add_node(self, role: Role, position: tuple[float, float],
                 tx_power_dbm: Optional[float] = None,
                 carrier: Optional[Carrier] = None,
                 node_id: Optional[str] = None) -> str:
        role = Role(role)
        if carrier is not None and role not in DU_ROLES:
            raise ValueError(f"a {role.value} advertises no carrier, only a DU")
        if role in (Role.IAB_MT, Role.IAB_DU):
            raise ValueError(f"an {role.value} comes only with its IAB node "
                             f"(add_iab_node, or its directive)")
        return self._put(role, position, tx_power_dbm, carrier, node_id)

    def add_iab_node(self, group: str, position: tuple[float, float],
                     tx_power_dbm: float, mt_tx_power_dbm: float,
                     carrier: Carrier) -> tuple[str, str]:
        """Add IabMt `<group>-mt`, IabDu `<group>-du` advertising `carrier`,
        and the wire between them; return the MT's and the DU's id."""
        mt, du = f"{group}-mt", f"{group}-du"
        if du in self.nodes:  # the MT's id is checked as it is put
            raise ValueError(f"duplicate node id {du!r}")
        self._put(Role.IAB_MT, position, mt_tx_power_dbm, None, mt)
        self._put(Role.IAB_DU, position, tx_power_dbm, carrier, du)
        self.links.append(Link(id=self._next_id("l"), a=mt, b=du,
                               medium=Medium.WIRED,
                               wired_capacity_bps=IAB_INTERNAL_CAPACITY_BPS))
        return mt, du

    def _put(self, role, position, tx_power_dbm, carrier, node_id) -> str:
        if not all(math.isfinite(c) for c in position):
            raise ValueError(f"non-finite position {position}")
        if role is Role.CU and any(n.role is Role.CU for n in self.nodes.values()):
            raise DuplicateCu("scenario already has a CU")
        if role is Role.UPF and any(n.role is Role.UPF for n in self.nodes.values()):
            raise DuplicateUpf("scenario already has a UPF")
        nid = node_id or self._next_id("n")
        if nid in self.nodes:
            raise ValueError(f"duplicate node id {nid!r}")
        self.nodes[nid] = Node(id=nid, role=role, position=tuple(position),
                               tx_power_dbm=tx_power_dbm, carrier=carrier)
        return nid

    def add_link(self, a: str, b: str, medium: Medium,
                 wired_capacity_bps: Optional[float] = None,
                 propagation_delay_s: Optional[float] = None,
                 link_id: Optional[str] = None) -> str:
        medium = Medium(medium)
        na, nb = self.node(a), self.node(b)
        carrier = None
        if medium is Medium.WIRED:
            if frozenset({na.role, nb.role}) not in WIRED_PAIRS:
                raise IllegalMedium(
                    f"wired link not permitted between {na.role.value} and {nb.role.value}")
            if wired_capacity_bps is None:
                raise ValueError("wired link needs wired_capacity_bps")
        else:
            du, term = (na, nb) if na.role in DU_ROLES else (nb, na)
            if du.role not in DU_ROLES or term.role not in (Role.UE, Role.IAB_MT):
                raise IllegalMedium(
                    f"radio link needs a DU on one side and a UE/IAB-MT on the "
                    f"other, got {na.role.value} and {nb.role.value}")
            if term.role is Role.IAB_MT and du.role is not Role.DONOR_DU:
                raise IllegalMedium(f"an IAB-MT's radio link must end at a "
                                    f"DonorDU, got {du.role.value}")
            if wired_capacity_bps is not None:
                raise ValueError("a radio link takes no wired_capacity_bps")
            carrier = du.carrier
            if carrier is None:
                raise MissingCarrier(f"radio link {a}-{b} has no carrier")
        if propagation_delay_s is None:
            propagation_delay_s = (self.distance(a, b) / radio.SPEED_OF_LIGHT
                                   if medium is Medium.RADIO else 0.0)
        if link_id and any(l.id == link_id for l in self.links):
            raise ValueError(f"duplicate link id {link_id!r}")
        if (old := self.find_link(a, b)) is not None:
            raise ValueError(f"{a} and {b} are already linked, by {old.id}")
        lid = link_id or self._next_id("l")
        self.links.append(Link(id=lid, a=a, b=b, medium=medium, carrier=carrier,
                               wired_capacity_bps=wired_capacity_bps,
                               propagation_delay_s=propagation_delay_s))
        return lid

    # -- queries -------------------------------------------------------------

    def distance(self, a: str, b: str) -> float:
        pa, pb = self.node(a).position, self.node(b).position
        return math.hypot(pa[0] - pb[0], pa[1] - pb[1])

    def links_of(self, node_id: str) -> list[Link]:
        return [l for l in self.links if node_id in (l.a, l.b)]

    def find_link(self, a: str, b: str) -> Optional[Link]:
        for l in self.links:
            if l.connects(a, b):
                return l
        return None

    def nodes_with_role(self, role: Role) -> list[Node]:
        return [n for n in self.nodes.values() if n.role is role]


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _non_numbers(scenario: Scenario) -> list[str]:
    """A violation for each number field that validate_topology compares and
    that holds no real number (the optional ones may hold None). The loader
    makes every such value a float, so only code can put another there."""
    values = [("duration_s", scenario.duration_s)]
    values += [(f"node {n.id}: tx_power_dbm", n.tx_power_dbm)
               for n in scenario.nodes.values() if n.tx_power_dbm is not None]
    values += [(f"link {l.id}: propagation_delay_s", l.propagation_delay_s)
               for l in scenario.links]
    values += [(f"link {l.id}: wired_capacity_bps", l.wired_capacity_bps)
               for l in scenario.links if l.wired_capacity_bps is not None]
    values += [(f"flow {f.id}: {name}", getattr(f, name))
               for f in scenario.flows
               for name in ("start_s", "stop_s", "rate_bps",
                            "packet_size_bytes")]
    values += [(f"assert on {a.flow}: window", t)
               for a in scenario.asserts for t in a.window]
    for i, d in enumerate(scenario.schedule):
        if isinstance(d, (IabNodeDirective, DuConfigUpdateDirective)):
            values.append((f"schedule[{i}]: at_s", d.at_s))
        if isinstance(d, IabNodeDirective):
            values += [(f"schedule[{i}]: tx_power_dbm", d.tx_power_dbm),
                       (f"schedule[{i}]: mt_tx_power_dbm", d.mt_tx_power_dbm)]
            values += [(f"schedule[{i}]: position", x) for x in d.position]
    return [f"{where} must be a number, got {x!r}" for where, x in values
            if not isinstance(x, numbers.Real)]


def validate_topology(scenario: Scenario) -> ValidationReport:
    """Check that a scenario is a well-formed single-donor IAB deployment.

    Pure and idempotent; violations are returned as data, never raised.
    """
    # Every later check compares numbers: a field of another type is
    # reported instead, with nothing compared.
    if v := _non_numbers(scenario):
        return ValidationReport(violations=v)
    nodes = scenario.nodes

    cus = scenario.nodes_with_role(Role.CU)
    upfs = scenario.nodes_with_role(Role.UPF)
    if not cus:
        v.append("expected exactly one CU, found 0")
    if not upfs:
        v.append("no UPF")

    if cus:
        cu = cus[0]
        donors = scenario.nodes_with_role(Role.DONOR_DU)
        if not donors:
            v.append("CU has no wired DonorDU")
        # A CU's link to a DonorDU or the UPF is wired: add_link allows no
        # radio one.
        v += [f"DonorDU {du.id} has no wire to the CU" for du in donors
              if scenario.find_link(cu.id, du.id) is None]
        if upfs and scenario.find_link(cu.id, upfs[0].id) is None:
            v.append("CU has no wired UPF")

    low, high = TX_POWER_DBM  # NaN is outside it too
    window = f"[{low:g}, {high:g}] dBm"
    for n in nodes.values():
        if n.role in RADIO_ROLES and n.tx_power_dbm is None:
            v.append(f"radio-capable node {n.id} has no tx_power")
        elif n.tx_power_dbm is not None and not low <= n.tx_power_dbm <= high:
            v.append(f"node {n.id}: tx_power must be in {window}")
        if n.role in DU_ROLES and n.carrier is None:
            v.append(f"DU {n.id} advertises no carrier")

    for l in scenario.links:
        if (l.medium is Medium.WIRED
                and not 0 < (l.wired_capacity_bps or 0) < math.inf):
            v.append(f"link {l.id}: wired link needs positive, finite capacity")
        if not 0 <= l.propagation_delay_s < math.inf:
            v.append(f"link {l.id}: propagation delay must be finite and >= 0")

    if not 0 < scenario.duration_s < math.inf:
        v.append("duration must be positive and finite")

    for f in scenario.flows:
        if f.src not in nodes or f.dst not in nodes:
            v.append(f"flow {f.id} references unknown node")
            continue
        if not f.start_s < f.stop_s <= scenario.duration_s:
            v.append(f"flow {f.id}: need start < stop <= duration")
        if not 0 < f.rate_bps < math.inf:
            v.append(f"flow {f.id}: rate must be positive and finite")
        if not 0 < f.packet_size_bytes <= MAX_PACKET_BYTES:
            v.append(f"flow {f.id}: packet size must be 1 to "
                     f"{MAX_PACKET_BYTES} bytes")
    try:  # floats, no rounding up: a count past the largest float is inf
        packets = sum((f.stop_s - f.start_s) * f.rate_bps / 8
                      / f.packet_size_bytes for f in scenario.flows
                      if f.packet_size_bytes > 0)
    except OverflowError:  # an int past the largest float
        packets = math.inf
    if packets > MAX_INJECTED_PACKETS:
        v.append(f"flows inject {packets:.4g} packets, more than "
                 f"{MAX_INJECTED_PACKETS}")

    flow_ids = {f.id for f in scenario.flows}
    v += [f"duplicate flow id {fid}" for fid in sorted(flow_ids)
          if sum(f.id == fid for f in scenario.flows) > 1]
    v += [f"flow id {fid}: the f1c: prefix names F1 associations"
          for fid in sorted(flow_ids) if fid.startswith("f1c:")]
    v += [f"assert names unknown flow {a.flow}"
          for a in scenario.asserts if a.flow not in flow_ids]
    v += [f"assert on {a.flow}: window {a.window} needs 0 <= t0 < t1 <= duration"
          for a in scenario.asserts
          if not 0 <= a.window[0] < a.window[1] <= scenario.duration_s]
    v += [f"assert on {a.flow}: sets no min_goodput_bps or max_goodput_bps"
          for a in scenario.asserts
          if a.min_goodput_bps is None and a.max_goodput_bps is None]
    kinds = (IabNodeDirective, DuConfigUpdateDirective)
    v += [f"schedule[{i}]: {type(d).__name__} is not a directive"
          for i, d in enumerate(scenario.schedule) if not isinstance(d, kinds)]
    v += [f"{type(d).__name__} at t={d.at_s}: need 0 <= at < duration"
          for d in scenario.schedule
          if isinstance(d, kinds) and not 0 <= d.at_s < scenario.duration_s]

    # A DU of the file, or one an instantiate_iab_node directive creates.
    iab = [d for d in scenario.schedule if isinstance(d, IabNodeDirective)]
    v += [f"IabNodeDirective at t={d.at_s}: tx_power must be in {window}"
          for d in iab if not all(low <= x <= high
                                  for x in (d.tx_power_dbm, d.mt_tx_power_dbm))]
    v += [f"IabNodeDirective at t={d.at_s}: position must be finite"
          for d in iab if not all(map(math.isfinite, d.position))]
    # A directive adds <group>-mt and <group>-du.
    groups = [d.group for d in iab]
    v += [f"IabNodeDirective group {g}: used by {groups.count(g)} directives"
          for g in sorted(set(groups)) if groups.count(g) > 1]
    v += [f"IabNodeDirective at t={d.at_s}: {name} names a node of the file"
          for d in iab for name in (f"{d.group}-mt", f"{d.group}-du")
          if name in nodes]
    dus = {n.id for n in nodes.values() if n.role in DU_ROLES}
    dus |= {f"{d.group}-du" for d in iab}
    v += [f"DuConfigUpdateDirective at t={d.at_s}: unknown DU {d.du}"
          for d in scenario.schedule
          if isinstance(d, DuConfigUpdateDirective) and d.du not in dus]

    return ValidationReport(violations=v)

