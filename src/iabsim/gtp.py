"""User-plane tunneling: TEIDs, header stacks, F1 transport paths, routing.

The forwarding model is table-driven. A :class:`RouteEntry` matches a packet
by its outermost header (GTP TEID or BAP route id) or, for bare packets, by
flow destination. The entry names the next hop and any headers to push; pops
are implied by endpoint ownership (a node that is the receiving endpoint of
the outermost tunnel strips it).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from .errors import (AssociationNotActive, ConflictingEntry, DepthExceeded,
                     EmptyStack, InvalidPath, NoRoute, RoutingLoop,
                     SessionNotEstablished, TeidMismatch)
from .topology import Role, Scenario

MAX_HEADER_DEPTH = 2
TEID_MAX = 2 ** 32 - 1


class PathMode(str, Enum):
    UPF_REROUTE = "UpfReroute"
    BAP_BYPASS = "BapBypass"


@dataclass(frozen=True)
class Teid:
    value: int

    def __post_init__(self):
        if not 0 < self.value <= TEID_MAX:
            raise ValueError(f"TEID must be in [1, 2^32-1], got {self.value}")


@dataclass(frozen=True)
class GtpHeader:
    teid: Teid
    size_bytes: int = 8


@dataclass(frozen=True)
class BapHeader:
    route_id: int
    size_bytes: int = 4


Header = Union[GtpHeader, BapHeader]


@dataclass
class Packet:
    flow_id: str
    src: str
    dst: str
    payload_size_bytes: int
    created_at_s: float
    seq: int = 0
    kind: str = "user"  # "user" | "control"
    control: Optional[object] = None
    ttl: int = 16
    header_stack: list[Header] = field(default_factory=list)  # outermost last
    hop_log: list[str] = field(default_factory=list)

    @property
    def wire_size_bytes(self) -> int:
        size = self.payload_size_bytes
        for h in self.header_stack:
            size += h.size_bytes
        return size

    @property
    def depth(self) -> int:
        return len(self.header_stack)

    def teids_in_stack(self) -> list[int]:
        """TEIDs outermost-first, for trace records."""
        return [h.teid.value for h in reversed(self.header_stack)
                if isinstance(h, GtpHeader)]


@dataclass(frozen=True)
class Tunnel:
    """Unidirectional GTP association; the TEID names it at the receiver."""
    teid: Teid
    sender: str
    receiver: str
    label: str = ""


class TunnelTable:
    """TEID allocation and tunnel registry, deterministic given the RNG."""

    def __init__(self, rng: random.Random, gtp_header_bytes: int = 8):
        self._rng = rng
        self.gtp_header_bytes = gtp_header_bytes
        self._issued: dict[str, set[int]] = {}
        self._tunnels: dict[tuple[str, int], Tunnel] = {}

    def allocate_teid(self, endpoint: str) -> Teid:
        issued = self._issued.setdefault(endpoint, set())
        while True:
            value = self._rng.randrange(1, TEID_MAX + 1)
            if value not in issued:
                issued.add(value)
                return Teid(value)

    def open_tunnel(self, sender: str, receiver: str, label: str = "") -> Tunnel:
        t = Tunnel(teid=self.allocate_teid(receiver), sender=sender,
                   receiver=receiver, label=label)
        self._tunnels[(receiver, t.teid.value)] = t
        return t

    def owns(self, node: str, teid: Teid) -> bool:
        return (node, teid.value) in self._tunnels


def encapsulate(packet: Packet, tunnel: Tunnel, header_bytes: int = 8) -> Packet:
    """Push the tunnel's GTP header; triple nesting is a routing bug."""
    if packet.depth >= MAX_HEADER_DEPTH:
        raise DepthExceeded(
            f"packet {packet.flow_id}#{packet.seq} already at depth {packet.depth}")
    packet.header_stack.append(GtpHeader(teid=tunnel.teid, size_bytes=header_bytes))
    return packet


def decapsulate(packet: Packet, expected: Teid) -> Packet:
    """Strip the outermost GTP header iff its TEID matches."""
    if not packet.header_stack:
        raise EmptyStack(f"packet {packet.flow_id}#{packet.seq} has no headers")
    top = packet.header_stack[-1]
    if not isinstance(top, GtpHeader) or top.teid != expected:
        raise TeidMismatch(
            f"expected TEID {expected.value}, outermost is {top!r}")
    packet.header_stack.pop()
    return packet


@dataclass(frozen=True)
class Path:
    hops: tuple[str, ...]
    mode: PathMode

    def validate(self, scenario: Scenario) -> None:
        if len(self.hops) < 2:
            raise InvalidPath("path needs at least two hops")
        prev_pair = None
        for a, b in zip(self.hops, self.hops[1:]):
            if scenario.find_link(a, b) is None:
                raise InvalidPath(f"no link between consecutive hops {a} and {b}")
            if (a, b) == prev_pair:
                raise InvalidPath(f"link {a}-{b} traversed twice in a row")
            prev_pair = (a, b)

    def reversed(self) -> "Path":
        return Path(hops=tuple(reversed(self.hops)), mode=self.mode)


# Match keys: ("teid", value) | ("bap", route_id) | ("dst", node_id)
MatchKey = tuple[str, object]
# Encap directives applied after the implied pops: ("gtp", Tunnel) | ("bap", rid)
EncapDirective = tuple[str, object]


@dataclass(frozen=True)
class RouteEntry:
    at_node: str
    match: MatchKey
    next_hop: Optional[str]  # None = hand the packet to this node's upper layer
    encaps: tuple[EncapDirective, ...] = ()


class Forwarder:
    """Routing tables plus the per-node forwarding function."""

    def __init__(self, tunnels: TunnelTable, ttl: int = 16,
                 bap_header_bytes: int = 4):
        self.tunnels = tunnels
        self.ttl = ttl
        self.bap_header_bytes = bap_header_bytes
        self.entries: dict[tuple[str, MatchKey], RouteEntry] = {}
        self.bap_terminus: dict[int, str] = {}
        self._bap_route_counter = 0

    # -- table management -----------------------------------------------------

    def next_bap_route_id(self) -> int:
        self._bap_route_counter += 1
        return self._bap_route_counter

    def install(self, entry: RouteEntry) -> RouteEntry:
        key = (entry.at_node, entry.match)
        existing = self.entries.get(key)
        if existing is not None:
            if existing != entry:
                raise ConflictingEntry(
                    f"{key} already maps to {existing.next_hop}, not {entry.next_hop}")
            return existing  # idempotent re-install
        self.entries[key] = entry
        return entry

    def set_bap_terminus(self, route_id: int, node: str) -> None:
        self.bap_terminus[route_id] = node

    # -- forwarding ------------------------------------------------------------

    @staticmethod
    def _key(packet: Packet) -> MatchKey:
        if packet.header_stack:
            top = packet.header_stack[-1]
            if isinstance(top, GtpHeader):
                return ("teid", top.teid.value)
            return ("bap", top.route_id)
        return ("dst", packet.dst)

    def _pop_owned(self, node: str, packet: Packet) -> None:
        while packet.header_stack:
            top = packet.header_stack[-1]
            if isinstance(top, GtpHeader) and self.tunnels.owns(node, top.teid):
                decapsulate(packet, top.teid)
            elif (isinstance(top, BapHeader)
                  and self.bap_terminus.get(top.route_id) == node):
                packet.header_stack.pop()
            else:
                break

    def forward(self, node: str, packet: Packet) -> tuple[Optional[str], Packet]:
        """Advance a packet at `node`; returns (next_hop, packet).

        next_hop None means the packet terminated here. Raises NoRoute when
        nothing matches.
        """
        packet.ttl -= 1
        if packet.ttl <= 0:
            raise RoutingLoop(f"TTL expired for {packet.flow_id}#{packet.seq} at {node}")
        packet.hop_log.append(node)
        for _ in range(2 * MAX_HEADER_DEPTH + 2):
            key = self._key(packet)
            entry = self.entries.get((node, key))
            if entry is None:
                if not packet.header_stack and packet.dst == node:
                    return None, packet
                raise NoRoute(node, key)
            self._pop_owned(node, packet)
            for kind, arg in entry.encaps:
                if kind == "gtp":
                    encapsulate(packet, arg, header_bytes=self.tunnels.gtp_header_bytes)
                else:
                    if packet.depth >= MAX_HEADER_DEPTH:
                        raise DepthExceeded(f"BAP push at depth {packet.depth}")
                    packet.header_stack.append(
                        BapHeader(route_id=arg, size_bytes=self.bap_header_bytes))
            if entry.next_hop is not None:
                return entry.next_hop, packet
            # local handoff: re-match with the inner header / bare packet
        raise RoutingLoop(f"local rematch did not terminate at {node}")


@dataclass(frozen=True)
class F1TransportTunnels:
    """Tunnel material the F1 transport path is built from (per IAB node)."""
    mt_session_ul: Tunnel  # IabMt -> Upf, TEID owned by the UPF
    mt_session_dl: Tunnel  # Upf -> IabMt, TEID owned by the MT
    bap_route_ul: Optional[int] = None
    bap_route_dl: Optional[int] = None


def build_f1_transport_path(scenario: Scenario, iab_du: str, mode: PathMode,
                            session_established: bool,
                            donor_association_active: bool) -> Path:
    """Hop sequence the over-the-air F1 interface rides on, per mode."""
    if not session_established:
        raise SessionNotEstablished(f"IAB-MT session for {iab_du} not established")
    if not donor_association_active:
        raise AssociationNotActive("donor DU F1 association is not active")
    mt = scenario.group_peer(iab_du)
    if mt is None:
        raise InvalidPath(f"{iab_du} has no grouped IAB-MT")
    donor_du = _donor_du_of(scenario, mt.id)
    cu = scenario.the_cu().id
    if mode is PathMode.UPF_REROUTE:
        hops = (iab_du, mt.id, donor_du, cu, scenario.the_upf().id, cu)
    else:
        hops = (iab_du, mt.id, donor_du, cu)
    path = Path(hops=hops, mode=mode)
    path.validate(scenario)
    return path


def install_routes(scenario: Scenario, forwarder: Forwarder, path: Path,
                   tunnels: Optional[F1TransportTunnels]) -> list[RouteEntry]:
    """Install the route entries realizing `path` in its stated direction.

    With `tunnels` None the path must be a plain wired control path and gets
    simple destination-chained entries (both directions). Otherwise the path
    is an F1 transport path for an IAB node; uplink starts at the IabDu,
    downlink at the CU. Re-installing the same path is idempotent.
    """
    path.validate(scenario)
    installed: list[RouteEntry] = []

    def put(at: str, match: MatchKey, nxt: Optional[str],
            encaps: tuple[EncapDirective, ...] = ()):
        installed.append(forwarder.install(
            RouteEntry(at_node=at, match=match, next_hop=nxt, encaps=encaps)))

    if tunnels is None:
        for hops in (path.hops, tuple(reversed(path.hops))):
            dst = hops[-1]
            for at, nxt in zip(hops[:-1], hops[1:]):
                if at == dst:
                    continue
                put(at, ("dst", dst), nxt)
        return installed

    uplink = scenario.node(path.hops[0]).role is Role.IAB_DU
    if uplink:
        iab_du, mt, donor_du, cu = path.hops[0], path.hops[1], path.hops[2], path.hops[3]
    else:
        cu = path.hops[0]
        iab_du, mt, donor_du = path.hops[-1], path.hops[-2], path.hops[-3]

    if path.mode is PathMode.UPF_REROUTE:
        upf = scenario.the_upf().id
        if uplink:
            mt_ul = tunnels.mt_session_ul
            put(iab_du, ("dst", cu), mt)
            put(mt, ("dst", cu), donor_du, encaps=(("gtp", mt_ul),))
            put(donor_du, ("teid", mt_ul.teid.value), cu)
            put(cu, ("teid", mt_ul.teid.value), upf)
            # The reroute leg: the UPF terminates the MT session tunnel and
            # hands the inner F1 traffic back to the CU.
            put(upf, ("teid", mt_ul.teid.value), cu)
        else:
            mt_dl = tunnels.mt_session_dl
            put(cu, ("dst", iab_du), upf)
            put(upf, ("dst", iab_du), cu, encaps=(("gtp", mt_dl),))
            put(cu, ("teid", mt_dl.teid.value), donor_du)
            put(donor_du, ("teid", mt_dl.teid.value), mt)
            put(mt, ("teid", mt_dl.teid.value), iab_du)
    else:
        if uplink:
            rid = tunnels.bap_route_ul
            put(iab_du, ("dst", cu), mt)
            put(mt, ("dst", cu), donor_du, encaps=(("bap", rid),))
            put(donor_du, ("bap", rid), cu)
            put(cu, ("bap", rid), None)  # strip BAP, re-dispatch locally
            forwarder.set_bap_terminus(rid, cu)
        else:
            rid = tunnels.bap_route_dl
            put(cu, ("dst", iab_du), donor_du, encaps=(("bap", rid),))
            put(donor_du, ("bap", rid), mt)
            put(mt, ("bap", rid), iab_du)
            forwarder.set_bap_terminus(rid, mt)
    return installed


@dataclass(frozen=True)
class UePlaneTunnels:
    """Per-UE user-plane tunnel pair: core session leg and F1-U DRB leg."""
    session_ul: Tunnel  # CU -> UPF, TEID at the UPF
    session_dl: Tunnel  # UPF -> CU, TEID at the CU
    drb_ul: Tunnel      # serving DU -> CU, TEID at the CU
    drb_dl: Tunnel      # CU -> serving DU, TEID at the serving DU


def install_ue_routes(scenario: Scenario, forwarder: Forwarder, ue: str,
                      serving_du: str, tunnels: UePlaneTunnels,
                      mode: PathMode,
                      transport: Optional[F1TransportTunnels] = None
                      ) -> list[RouteEntry]:
    """Install the user-plane entries carrying one UE's traffic.

    For a UE on the donor DU the DRB rides the wired CU-DU link directly;
    for a UE behind an IAB node `transport` supplies the MT-session/BAP
    material and the DRB is nested into it per the selected mode.
    """
    cu = scenario.the_cu().id
    upf = scenario.the_upf().id
    du_node = scenario.node(serving_du)
    behind_iab = du_node.role is Role.IAB_DU
    if behind_iab and transport is None:
        raise InvalidPath(f"UE {ue} behind {serving_du} needs transport tunnels")
    installed: list[RouteEntry] = []

    def put(at, match, nxt, encaps=()):
        installed.append(forwarder.install(
            RouteEntry(at_node=at, match=match, next_hop=nxt, encaps=tuple(encaps))))

    mt = scenario.group_peer(serving_du).id if behind_iab else None

    # Downlink: UPF -> ... -> UE
    put(upf, ("dst", ue), cu, encaps=[("gtp", tunnels.session_dl)])
    if not behind_iab:
        put(cu, ("teid", tunnels.session_dl.teid.value), serving_du,
            encaps=[("gtp", tunnels.drb_dl)])
    elif mode is PathMode.UPF_REROUTE:
        put(cu, ("teid", tunnels.session_dl.teid.value), upf,
            encaps=[("gtp", tunnels.drb_dl)])
        put(upf, ("teid", tunnels.drb_dl.teid.value), cu,
            encaps=[("gtp", transport.mt_session_dl)])
    else:
        donor_du = _donor_du_of(scenario, mt)
        put(cu, ("teid", tunnels.session_dl.teid.value), donor_du,
            encaps=[("gtp", tunnels.drb_dl), ("bap", transport.bap_route_dl)])
    put(serving_du, ("teid", tunnels.drb_dl.teid.value), ue)

    # Uplink: UE -> ... -> UPF
    put(ue, ("dst", upf), serving_du)
    if not behind_iab:
        put(serving_du, ("dst", upf), cu, encaps=[("gtp", tunnels.drb_ul)])
        put(cu, ("teid", tunnels.drb_ul.teid.value), upf,
            encaps=[("gtp", tunnels.session_ul)])
    else:
        put(serving_du, ("dst", upf), mt, encaps=[("gtp", tunnels.drb_ul)])
        if mode is PathMode.UPF_REROUTE:
            donor_du = _donor_du_of(scenario, mt)
            put(mt, ("teid", tunnels.drb_ul.teid.value), donor_du,
                encaps=[("gtp", transport.mt_session_ul)])
            put(cu, ("teid", tunnels.drb_ul.teid.value), upf,
                encaps=[("gtp", tunnels.session_ul)])
        else:
            donor_du = _donor_du_of(scenario, mt)
            put(mt, ("teid", tunnels.drb_ul.teid.value), donor_du,
                encaps=[("bap", transport.bap_route_ul)])
            # After the CU strips BAP + DRB the bare packet re-matches here.
            put(cu, ("dst", upf), upf, encaps=[("gtp", tunnels.session_ul)])
    put(upf, ("teid", tunnels.session_ul.teid.value), None)
    return installed


def _donor_du_of(scenario: Scenario, mt: str) -> str:
    for link in scenario.links_of(mt):
        peer = scenario.node(link.other(mt))
        if peer.role is Role.DONOR_DU:
            return peer.id
    raise InvalidPath(f"IAB-MT {mt} has no link to a DonorDU")
