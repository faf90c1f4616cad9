"""Network object model: nodes, links, carriers, flows, scenario graph.

A :class:`Scenario` is input only (a Simulator runs on its own deep copy): a
flat graph plus workload and schedule. Its nodes and links enter only through
`add_node`, `add_iab_node` (an IAB node whole: IabMt `<group>-mt`, IabDu
`<group>-du` and their wire; its directive calls it at run time) and
`add_link`, which own the per-entry structural rules and raise on a break:
two nodes share at most one link, and a link's ends are fixed.
`validate_topology` alone owns every other rule, for a file and code alike,
and reports each as data. Each rule is total: it reads a number through
`_num` and a name through `_name`, so a value of another type fails the rule
of its own field; a seed and a packet size are ints. Only a DU advertises a
carrier, and a radio link takes its DU's carrier and the scenario's
`radio_params`; the protocol's sizes are constants of `gtp` and `engine`.
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


def _num(x) -> float:
    """`x` if it is a real number and no bool, else NaN, which fails every
    comparison: a value of another type fails the rule that reads it."""
    return x if isinstance(x, numbers.Real) and type(x) is not bool else math.nan


def _pair(x) -> tuple[float, float]:
    """The two `_num`s of a tuple or list of two, else two NaNs."""
    two = isinstance(x, (tuple, list)) and len(x) == 2
    return (_num(x[0]), _num(x[1])) if two else (math.nan, math.nan)


def _name(x) -> Optional[str]:
    """`x` if it is a string, else None, which names no node, flow or DU."""
    return x if isinstance(x, str) else None


def validate_topology(scenario: Scenario) -> ValidationReport:
    """Check that a scenario is a well-formed single-donor IAB deployment.

    Pure and idempotent; violations are returned as data, never raised.
    """
    v: list[str] = []
    nodes = scenario.nodes

    def entries(name: str, kind, what: str) -> list:
        """The `kind` entries of list `name`; anything else is a violation."""
        got = getattr(scenario, name)
        if not isinstance(got, list):
            v.append(f"{name} must be a list")
            return []
        v.extend(f"{name}[{i}]: {type(x).__name__} is not a {what}"
                 for i, x in enumerate(got) if not isinstance(x, kind))
        return [x for x in got if isinstance(x, kind)]

    def keys(role: Role) -> list[str]:
        return [key for key, n in nodes.items() if n.role is role]

    cus, upfs, donors = keys(Role.CU), keys(Role.UPF), keys(Role.DONOR_DU)
    if not cus:
        v.append("expected exactly one CU, found 0")
    if not upfs:
        v.append("no UPF")

    if cus:
        if not donors:
            v.append("CU has no wired DonorDU")
        # A CU's link to a DonorDU or the UPF is wired: add_link allows no
        # radio one.
        v += [f"DonorDU {du} has no wire to the CU" for du in donors
              if scenario.find_link(cus[0], du) is None]
        if upfs and scenario.find_link(cus[0], upfs[0]) is None:
            v.append("CU has no wired UPF")

    low, high = TX_POWER_DBM  # NaN is outside it too
    window = f"[{low:g}, {high:g}] dBm"
    for key, n in nodes.items():
        if n.id != key:
            v.append(f"node {key}: id must be its key")
        if not all(map(math.isfinite, _pair(n.position))):
            v.append(f"node {key}: position must be finite")
        if not isinstance(n.role, Role):
            v.append(f"node {key}: role is no Role")
            continue
        if n.role in RADIO_ROLES and n.tx_power_dbm is None:
            v.append(f"radio-capable node {key} has no tx_power")
        elif n.tx_power_dbm is not None and not low <= _num(n.tx_power_dbm) <= high:
            v.append(f"node {key}: tx_power must be in {window}")
        if n.role in DU_ROLES and not isinstance(n.carrier, Carrier):
            v.append(f"DU {key} advertises no carrier")

    for l in scenario.links:
        if _name(l.a) not in nodes or _name(l.b) not in nodes:
            v.append(f"link {l.id}: an end names no node")
        if not isinstance(l.medium, Medium):
            v.append(f"link {l.id}: medium is no Medium")
        if (l.medium is Medium.WIRED
                and not 0 < _num(l.wired_capacity_bps) < math.inf):
            v.append(f"link {l.id}: wired link needs positive, finite capacity")
        if not 0 <= _num(l.propagation_delay_s) < math.inf:
            v.append(f"link {l.id}: propagation delay must be finite and >= 0")

    duration = _num(scenario.duration_s)
    if not 0 < duration < math.inf:
        v.append("duration must be positive and finite")
    if type(scenario.seed) is not int:  # nor a bool
        v.append("seed must be an integer")
    if not isinstance(scenario.radio_params, RadioParams):
        v.append("radio_params must be a RadioParams")

    flows = entries("flows", FlowSpec, "FlowSpec")
    asserts = entries("asserts", FlowAssert, "FlowAssert")
    directives = entries("schedule", (IabNodeDirective, DuConfigUpdateDirective),
                         "directive")
    for f in flows:
        if not isinstance(f.id, str):
            v.append(f"flow {f.id}: id must be a string")
        if _name(f.src) not in nodes or _name(f.dst) not in nodes:
            v.append(f"flow {f.id} references unknown node")
            continue
        if not _num(f.start_s) < _num(f.stop_s) <= duration:
            v.append(f"flow {f.id}: need start < stop <= duration")
        if not 0 < _num(f.rate_bps) < math.inf:
            v.append(f"flow {f.id}: rate must be positive and finite")
        if type(f.packet_size_bytes) is not int:
            v.append(f"flow {f.id}: packet size must be an integer")
        if not 0 < _num(f.packet_size_bytes) <= MAX_PACKET_BYTES:
            v.append(f"flow {f.id}: packet size must be 1 to "
                     f"{MAX_PACKET_BYTES} bytes")
    try:  # floats, no rounding up: a count past the largest float is inf
        packets = sum((_num(f.stop_s) - _num(f.start_s)) * _num(f.rate_bps)
                      / 8 / size for f in flows
                      if (size := _num(f.packet_size_bytes)) > 0)
    except OverflowError:  # an int past the largest float
        packets = math.inf
    if packets > MAX_INJECTED_PACKETS:
        v.append(f"flows inject {packets:.4g} packets, more than "
                 f"{MAX_INJECTED_PACKETS}")

    flow_ids = {f.id for f in flows if isinstance(f.id, str)}
    v += [f"duplicate flow id {fid}" for fid in sorted(flow_ids)
          if sum(f.id == fid for f in flows) > 1]
    v += [f"flow id {fid}: the f1c: prefix names F1 associations"
          for fid in sorted(flow_ids) if fid.startswith("f1c:")]
    v += [f"assert names unknown flow {a.flow}"
          for a in asserts if _name(a.flow) not in flow_ids]
    v += [f"assert on {a.flow}: window {a.window} needs 0 <= t0 < t1 <= duration"
          for a in asserts
          if not 0 <= (w := _pair(a.window))[0] < w[1] <= duration]
    v += [f"assert on {a.flow}: sets no min_goodput_bps or max_goodput_bps"
          for a in asserts
          if a.min_goodput_bps is None and a.max_goodput_bps is None]
    v += [f"assert on {a.flow}: a goodput bound must be a number"
          for a in asserts
          if any(b is not None and math.isnan(_num(b))
                 for b in (a.min_goodput_bps, a.max_goodput_bps))]
    v += [f"{type(d).__name__} at t={d.at_s}: need 0 <= at < duration"
          for d in directives if not 0 <= _num(d.at_s) < duration]

    iab = [d for d in directives if isinstance(d, IabNodeDirective)]
    updates = [d for d in directives if isinstance(d, DuConfigUpdateDirective)]
    v += [f"IabNodeDirective at t={d.at_s}: tx_power must be in {window}"
          for d in iab if not all(low <= _num(x) <= high
                                  for x in (d.tx_power_dbm, d.mt_tx_power_dbm))]
    v += [f"IabNodeDirective at t={d.at_s}: position must be finite"
          for d in iab if not all(map(math.isfinite, _pair(d.position)))]
    v += [f"IabNodeDirective at t={d.at_s}: access_carrier is no Carrier"
          for d in iab if not isinstance(d.access_carrier, Carrier)]
    v += [f"IabNodeDirective at t={d.at_s}: group must be a string"
          for d in iab if not isinstance(d.group, str)]
    # A directive adds <group>-mt and <group>-du.
    groups = [d.group for d in iab if isinstance(d.group, str)]
    v += [f"IabNodeDirective group {g}: used by {groups.count(g)} directives"
          for g in sorted(set(groups)) if groups.count(g) > 1]
    v += [f"IabNodeDirective at t={d.at_s}: {name} names a node of the file"
          for d in iab for name in (f"{d.group}-mt", f"{d.group}-du")
          if name in nodes]
    # A DU of the file, or one an instantiate_iab_node directive creates.
    dus = {key for key, n in nodes.items()
           if isinstance(n.role, Role) and n.role in DU_ROLES}
    dus |= {f"{g}-du" for g in groups}
    v += [f"DuConfigUpdateDirective at t={d.at_s}: unknown DU {d.du}"
          for d in updates if _name(d.du) not in dus]
    v += [f"DuConfigUpdateDirective at t={d.at_s}: carrier is no Carrier"
          for d in updates if not isinstance(d.carrier, Carrier)]

    return ValidationReport(violations=v)
