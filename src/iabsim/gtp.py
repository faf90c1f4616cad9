"""User-plane tunneling: TEIDs, header stacks, route installers, forwarding.

The forwarding model is table-driven. A header is its own match key, a plain
pair: ("teid", value) for GTP, ("bap", route_id) for BAP. A
:class:`RouteEntry` matches a packet by its outermost header or, for a bare
packet, by ("dst", node), and names the next hop and the headers to push.
One set of (node, header) pairs says who strips what: a node pops the
outermost header while the pair is in that set. Allocating a TEID at a
receiver and ending a BAP route at a terminus both add to it.

Two installers write the tables, and only they know a mode's layout:
:func:`install_f1_transport` carries an IAB node's F1 from its IAB-DU over
its IAB-MT and donor DU to the CU, and :func:`install_ue_routes` nests one
UE's user plane into that transport.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import ConflictingEntry, DepthExceeded, NoRoute, RoutingLoop
from .topology import Role, Scenario

MAX_HEADER_DEPTH = 2
TEID_MAX = 2 ** 32 - 1

# Match keys: ("teid", value) | ("bap", route_id) | ("dst", node_id). The
# first two are the headers a packet carries.
MatchKey = tuple[str, object]


class PathMode(str, Enum):
    UPF_REROUTE = "UpfReroute"
    BAP_BYPASS = "BapBypass"


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
    header_stack: tuple[MatchKey, ...] = ()  # outermost last
    header_bytes: int = 0  # wire size of header_stack
    hop_log: list[str] = field(default_factory=list)

    @property
    def wire_size_bytes(self) -> int:
        return self.payload_size_bytes + self.header_bytes

    @property
    def depth(self) -> int:
        return len(self.header_stack)

    def teids_in_stack(self) -> list[int]:
        """TEIDs outermost-first, for trace records."""
        return [v for kind, v in reversed(self.header_stack) if kind == "teid"]


@dataclass(frozen=True)
class Tunnel:
    """Unidirectional GTP association; the TEID names it at the receiver."""
    teid: int
    sender: str
    receiver: str
    label: str = ""

    @property
    def header(self) -> MatchKey:
        return ("teid", self.teid)


class TunnelTable:
    """TEID allocation, deterministic given the RNG, and the strip set."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self.strips: set[tuple[str, MatchKey]] = set()

    def allocate_teid(self, endpoint: str) -> int:
        """A TEID unused at `endpoint`, which from now on strips it."""
        while True:
            teid = self._rng.randrange(1, TEID_MAX + 1)
            key = (endpoint, ("teid", teid))
            if key not in self.strips:
                self.strips.add(key)
                return teid

    def open_tunnel(self, sender: str, receiver: str, label: str = "") -> Tunnel:
        return Tunnel(teid=self.allocate_teid(receiver), sender=sender,
                      receiver=receiver, label=label)


def encapsulate(packet: Packet, header: MatchKey, size_bytes: int) -> Packet:
    """Push `header`; triple nesting is a routing bug."""
    if len(packet.header_stack) >= MAX_HEADER_DEPTH:
        raise DepthExceeded(
            f"packet {packet.flow_id}#{packet.seq} already at depth {packet.depth}")
    packet.header_stack += (header,)
    packet.header_bytes += size_bytes
    return packet


@dataclass(frozen=True)
class RouteEntry:
    at_node: str
    match: MatchKey
    next_hop: Optional[str]  # None = hand the packet to this node's upper layer
    encaps: tuple[MatchKey, ...] = ()  # headers pushed after the strips


class Forwarder:
    """Routing tables plus the per-node forwarding function."""

    def __init__(self, tunnels: TunnelTable, gtp_header_bytes: int = 8,
                 bap_header_bytes: int = 4):
        self.strips = tunnels.strips
        self.header_bytes = {"teid": gtp_header_bytes, "bap": bap_header_bytes}
        self.entries: dict[tuple[str, MatchKey], RouteEntry] = {}
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

    # -- forwarding ------------------------------------------------------------

    def strip(self, node: str, packet: Packet) -> Packet:
        """Pop the outermost header while `node` strips it."""
        stack = packet.header_stack
        while stack and (node, stack[-1]) in self.strips:
            packet.header_bytes -= self.header_bytes[stack[-1][0]]
            stack = stack[:-1]
        packet.header_stack = stack
        return packet

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
            stack = packet.header_stack
            key = stack[-1] if stack else ("dst", packet.dst)
            entry = self.entries.get((node, key))
            if entry is None:
                if not stack and packet.dst == node:
                    return None, packet
                raise NoRoute(node, key)
            self.strip(node, packet)
            for header in entry.encaps:
                encapsulate(packet, header, self.header_bytes[header[0]])
            if entry.next_hop is not None:
                return entry.next_hop, packet
            # local handoff: re-match with the inner header / bare packet
        raise RoutingLoop(f"local rematch did not terminate at {node}")


@dataclass(frozen=True)
class F1TransportTunnels:
    """The headers an IAB node's F1 transport rides in, which its UEs' user
    plane nests into."""
    mt_session_ul: Tunnel  # IabMt -> Upf, TEID owned by the UPF
    mt_session_dl: Tunnel  # Upf -> IabMt, TEID owned by the MT
    bap_route_ul: Optional[int] = None
    bap_route_dl: Optional[int] = None


def install_f1_transport(scenario: Scenario, forwarder: Forwarder, iab_du: str,
                         mode: PathMode, mt_session_ul: Tunnel,
                         mt_session_dl: Tunnel
                         ) -> tuple[tuple[str, ...], F1TransportTunnels]:
    """Install both directions of the F1 transport of `iab_du`'s IAB node.

    Returns the uplink hops, the IAB-DU first; the downlink takes them in
    reverse. UpfReroute carries F1 in the IAB-MT's PDU session through the
    UPF and back to the CU; BapBypass forwards by two BAP route ids, drawn
    here uplink first, and the CU and the MT end them. Re-installing
    UpfReroute with the same session is idempotent; BapBypass draws new ids
    each call, so a second call conflicts.
    """
    mt = scenario.group_peer(iab_du).id
    donor_du = _donor_du_of(scenario, mt)
    cu = scenario.the_cu().id

    def put(at, match, nxt, encaps=()):
        forwarder.install(
            RouteEntry(at_node=at, match=match, next_hop=nxt, encaps=encaps))

    if mode is PathMode.UPF_REROUTE:
        upf = scenario.the_upf().id
        ul, dl = mt_session_ul.header, mt_session_dl.header
        put(iab_du, ("dst", cu), mt)
        put(mt, ("dst", cu), donor_du, encaps=(ul,))
        put(donor_du, ul, cu)
        put(cu, ul, upf)
        # The reroute leg: the UPF terminates the MT session tunnel and
        # hands the inner F1 traffic back to the CU.
        put(upf, ul, cu)
        put(cu, ("dst", iab_du), upf)
        put(upf, ("dst", iab_du), cu, encaps=(dl,))
        put(cu, dl, donor_du)
        put(donor_du, dl, mt)
        put(mt, dl, iab_du)
        return ((iab_du, mt, donor_du, cu, upf, cu),
                F1TransportTunnels(mt_session_ul, mt_session_dl))

    tunnels = F1TransportTunnels(mt_session_ul, mt_session_dl,
                                 bap_route_ul=forwarder.next_bap_route_id(),
                                 bap_route_dl=forwarder.next_bap_route_id())
    ul, dl = ("bap", tunnels.bap_route_ul), ("bap", tunnels.bap_route_dl)
    put(iab_du, ("dst", cu), mt)
    put(mt, ("dst", cu), donor_du, encaps=(ul,))
    put(donor_du, ul, cu)
    put(cu, ul, None)  # strip BAP, re-dispatch locally
    forwarder.strips.add((cu, ul))
    put(cu, ("dst", iab_du), donor_du, encaps=(dl,))
    put(donor_du, dl, mt)
    put(mt, dl, iab_du)
    forwarder.strips.add((mt, dl))
    return (iab_du, mt, donor_du, cu), tunnels


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
                      transport: Optional[F1TransportTunnels] = None) -> None:
    """Install the user-plane entries carrying one UE's traffic.

    For a UE on the donor DU the DRB rides the wired CU-DU link directly;
    for a UE behind an IAB node `transport` supplies the MT-session/BAP
    material and the DRB is nested into it per the selected mode.
    """
    cu = scenario.the_cu().id
    upf = scenario.the_upf().id
    du_node = scenario.node(serving_du)
    behind_iab = du_node.role is Role.IAB_DU

    def put(at, match, nxt, encaps=()):
        forwarder.install(
            RouteEntry(at_node=at, match=match, next_hop=nxt, encaps=tuple(encaps)))

    if behind_iab:
        mt = scenario.group_peer(serving_du).id
        donor_du = _donor_du_of(scenario, mt)
    session_ul, session_dl = tunnels.session_ul.header, tunnels.session_dl.header
    drb_ul, drb_dl = tunnels.drb_ul.header, tunnels.drb_dl.header

    # Downlink: UPF -> ... -> UE
    put(upf, ("dst", ue), cu, encaps=[session_dl])
    if not behind_iab:
        put(cu, session_dl, serving_du, encaps=[drb_dl])
    elif mode is PathMode.UPF_REROUTE:
        put(cu, session_dl, upf, encaps=[drb_dl])
        put(upf, drb_dl, cu, encaps=[transport.mt_session_dl.header])
    else:
        put(cu, session_dl, donor_du,
            encaps=[drb_dl, ("bap", transport.bap_route_dl)])
    put(serving_du, drb_dl, ue)

    # Uplink: UE -> ... -> UPF
    put(ue, ("dst", upf), serving_du)
    if not behind_iab:
        put(serving_du, ("dst", upf), cu, encaps=[drb_ul])
        put(cu, drb_ul, upf, encaps=[session_ul])
    else:
        put(serving_du, ("dst", upf), mt, encaps=[drb_ul])
        if mode is PathMode.UPF_REROUTE:
            put(mt, drb_ul, donor_du, encaps=[transport.mt_session_ul.header])
            put(cu, drb_ul, upf, encaps=[session_ul])
        else:
            put(mt, drb_ul, donor_du, encaps=[("bap", transport.bap_route_ul)])
            # After the CU strips BAP + DRB the bare packet re-matches here.
            put(cu, ("dst", upf), upf, encaps=[session_ul])
    put(upf, session_ul, None)


def _donor_du_of(scenario: Scenario, mt: str) -> str:
    """The donor DU that an IAB-MT's backhaul link, added with the MT, reaches."""
    return next(link.other(mt) for link in scenario.links_of(mt)
                if scenario.node(link.other(mt)).role is Role.DONOR_DU)
