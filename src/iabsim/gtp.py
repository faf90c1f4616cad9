"""User-plane tunneling: TEIDs, header stacks, route installers, forwarding.

The forwarding model is table-driven. A header is its own match key, a plain
pair: ("teid", value) for GTP, ("bap", route_id) for BAP. A
:class:`RouteEntry` matches a packet by its outermost header or, for a bare
packet, by ("dst", node) or ("src", node), and names the next hop and the
headers to push. One set of (node, header) pairs says who strips what: each
entry matched at a node pops the outermost header if the pair is in that
set. The :class:`Forwarder` owns that set and every header: opening a GTP
tunnel or a BAP route names the node that strips it.

A memoized :class:`Decision` has one slot for its caller, `out`. The
Forwarder's own writers of its tables clear the memo, and with it that slot.
This module keeps no trace state: the engine builds trace rows.

Only :func:`install_f1_transport` knows a mode's layout: it carries an IAB
node's F1 from its IAB-DU over its IAB-MT and the donor DU that the MT
attached through, to the CU. :func:`install_ue_routes` knows no mode: with
:meth:`Forwarder.nest` it carries a UE's DRB along whatever route reaches its
DU, which for an IAB-DU is that F1 transport. Both take node ids, which the
engine resolves: this module knows headers and tables, not the scenario.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import ConflictingEntry, DepthExceeded, NoRoute, RoutingLoop

MAX_HEADER_DEPTH = 2
TEID_MAX = 2 ** 32 - 1
GTP_HEADER_BYTES = 8
BAP_HEADER_BYTES = 4
# A packet is dropped at the TTL-th node it reaches: the longest bundled
# path, dl-ue2's under UpfReroute, reaches 8.
TTL = 16
# The wire size of each header kind, by its match key's first item.
HEADER_BYTES = {"teid": GTP_HEADER_BYTES, "bap": BAP_HEADER_BYTES}

# Match keys: ("teid", value) | ("bap", route_id) | ("dst", node_id) |
# ("src", node_id). The first two are the headers a packet carries.
MatchKey = tuple[str, object]


class PathMode(str, Enum):
    UPF_REROUTE = "UpfReroute"
    BAP_BYPASS = "BapBypass"


@dataclass(slots=True)
class Packet:
    """A packet in flight, a control one exactly when it has a `control`."""
    flow_id: str
    src: str
    dst: str
    payload_size_bytes: int
    created_at_s: float
    seq: int = 0
    control: Optional[object] = None  # the F1 message of a control packet
    header_stack: tuple[MatchKey, ...] = ()  # outermost last
    header_bytes: int = 0  # wire size of header_stack
    hop_log: list[str] = field(default_factory=list)  # the nodes reached

    @property
    def wire_size_bytes(self) -> int:
        return self.payload_size_bytes + self.header_bytes


def teids_of(header_stack: tuple[MatchKey, ...]) -> tuple[int, ...]:
    """The TEIDs of a header stack, outermost first."""
    return tuple(v for kind, v in reversed(header_stack) if kind == "teid")


def encapsulate(packet: Packet, header: MatchKey, size_bytes: int) -> Packet:
    """Push `header`; triple nesting is a routing bug."""
    if len(packet.header_stack) >= MAX_HEADER_DEPTH:
        raise DepthExceeded(
            f"packet {packet.flow_id}#{packet.seq} already at depth "
            f"{len(packet.header_stack)}")
    packet.header_stack += (header,)
    packet.header_bytes += size_bytes
    return packet


@dataclass(slots=True)
class Decision:
    """What `forward` did at one node to one (header stack, dst, src).

    `out` is the caller's slot, kept with the decision because what it
    holds is fixed by it: a memo clear drops it with the decision. The engine
    keeps there, from first use on, the link direction and the row heads.
    """
    next_hop: Optional[str]  # None: the packet terminated here
    header_stack: tuple[MatchKey, ...]  # the stack the packet leaves with
    delta: int  # change in header_bytes
    out: object = None  # the engine's record of this decision


@dataclass(frozen=True)
class RouteEntry:
    at_node: str
    match: MatchKey
    next_hop: Optional[str]  # None = hand the packet to this node's upper layer
    encaps: tuple[MatchKey, ...] = ()  # headers pushed after the strips


class Forwarder:
    """The headers, routing tables and per-node forwarding function.

    TEIDs are drawn from `rng`, so they are deterministic given its seed.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        self.strips: set[tuple[str, MatchKey]] = set()
        self.entries: dict[tuple[str, MatchKey], RouteEntry] = {}
        self._bap_routes = 0
        # (node, header_stack, dst, src) -> Decision; nothing else but the
        # two tables decides. Only install and opening a tunnel or a BAP
        # route write them, and each clears the memo when it does.
        self._memo: dict[tuple, Decision] = {}

    # -- table management -----------------------------------------------------

    def open_tunnel(self, receiver: str) -> MatchKey:
        """The header of a new GTP tunnel, its TEID unused at `receiver`,
        which strips it."""
        while True:
            header = ("teid", self._rng.randrange(1, TEID_MAX + 1))
            if (receiver, header) not in self.strips:
                self.strips.add((receiver, header))
                self._memo.clear()
                return header

    def open_bap_route(self, terminus: str) -> MatchKey:
        """The header of a new BAP route, ids 1, 2, ... in opening order,
        which `terminus` strips."""
        self._bap_routes += 1
        header = ("bap", self._bap_routes)
        self.strips.add((terminus, header))
        self._memo.clear()
        return header

    def install(self, entry: RouteEntry) -> None:
        key = (entry.at_node, entry.match)
        existing = self.entries.get(key)
        if existing is not None:
            if existing != entry:
                raise ConflictingEntry(
                    f"{key} already maps to {existing.next_hop} "
                    f"{list(existing.encaps)}, not {entry.next_hop} "
                    f"{list(entry.encaps)}")
            return  # idempotent re-install
        self.entries[key] = entry
        self._memo.clear()

    def nest(self, node: str, match: MatchKey, header: MatchKey,
             route: MatchKey) -> None:
        """Carry what `match` selects at `node` inside `header`, along the
        entries for `route`.

        At `node`, `match` gets the entry for `route` with `header` pushed
        first, innermost. Each following hop's entry for `route` is copied
        under `header`, up to and including the first that pushes a header of
        its own: from there on the packet is matched by that header.
        """
        entry = self.entries.get((node, route))
        if entry is None:
            raise NoRoute(node, route)
        self.install(RouteEntry(node, match, entry.next_hop,
                                (header,) + entry.encaps))
        while not entry.encaps and entry.next_hop is not None:
            entry = self.entries.get((entry.next_hop, route))
            if entry is None:
                return
            self.install(RouteEntry(entry.at_node, header, entry.next_hop,
                                    entry.encaps))

    # -- forwarding ------------------------------------------------------------

    def strip(self, node: str, packet: Packet) -> None:
        """Pop the outermost header if `node` strips it."""
        stack = packet.header_stack
        if stack and (node, stack[-1]) in self.strips:
            packet.header_bytes -= HEADER_BYTES[stack[-1][0]]
            packet.header_stack = stack[:-1]

    def forward(self, node: str, packet: Packet) -> Decision:
        """Advance a packet at `node`; returns the decision taken.

        Its next_hop None means the packet terminated here. A bare packet
        away from its dst that no ("dst", ...) entry matches is matched by
        ("src", ...). Raises NoRoute, with the first key tried, when nothing
        matches, RoutingLoop at its TTL-th node. Only decisions are memoized.
        """
        packet.hop_log.append(node)
        if len(packet.hop_log) >= TTL:
            raise RoutingLoop(f"TTL expired for {packet.flow_id} at {node}")
        key = (node, packet.header_stack, packet.dst, packet.src)
        hit = self._memo.get(key)
        if hit is None:
            header_bytes = packet.header_bytes
            next_hop = self._decide(node, packet)
            hit = self._memo[key] = Decision(next_hop, packet.header_stack,
                                             packet.header_bytes - header_bytes)
            return hit
        packet.header_stack = hit.header_stack
        packet.header_bytes += hit.delta
        return hit

    def _decide(self, node: str, packet: Packet) -> Optional[str]:
        """Match, strip and push at `node` until the packet leaves it or
        terminates there; returns the next hop, None for the latter."""
        for _ in range(2 * MAX_HEADER_DEPTH + 2):
            stack = packet.header_stack
            key = stack[-1] if stack else ("dst", packet.dst)
            entry = self.entries.get((node, key))
            if entry is None:
                if stack:
                    raise NoRoute(node, key)
                if packet.dst == node:
                    return None
                entry = self.entries.get((node, ("src", packet.src)))
                if entry is None:
                    raise NoRoute(node, key)
            self.strip(node, packet)
            for header in entry.encaps:
                encapsulate(packet, header, HEADER_BYTES[header[0]])
            if entry.next_hop is not None:
                return entry.next_hop
            # local handoff: re-match with the inner header / bare packet
        raise RoutingLoop(f"local rematch did not terminate at {node}")


def install_f1_transport(forwarder: Forwarder, mode: PathMode, iab_du: str,
                         mt: str, donor_du: str, cu: str, upf: str,
                         mt_session_ul: MatchKey,
                         mt_session_dl: MatchKey) -> tuple[str, ...]:
    """Install both directions of the F1 transport of `iab_du`, whose IAB-MT
    `mt` is attached through `donor_du`.

    Returns the uplink hops, the IAB-DU first; the downlink takes them in
    reverse. UpfReroute carries F1 in the IAB-MT's PDU session through the
    UPF and back to the CU; BapBypass forwards by two BAP routes, opened
    here uplink first, and the CU and the MT end them. Re-installing
    UpfReroute with the same session is idempotent; BapBypass opens new
    routes each call, so a second call conflicts.
    """
    def put(at, match, nxt, encaps=()):
        forwarder.install(
            RouteEntry(at_node=at, match=match, next_hop=nxt, encaps=encaps))

    if mode is PathMode.UPF_REROUTE:
        ul, dl = mt_session_ul, mt_session_dl
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
        return iab_du, mt, donor_du, cu, upf, cu

    ul = forwarder.open_bap_route(cu)
    dl = forwarder.open_bap_route(mt)
    put(iab_du, ("dst", cu), mt)
    put(mt, ("dst", cu), donor_du, encaps=(ul,))
    put(donor_du, ul, cu)
    put(cu, ul, None)  # strip BAP, re-dispatch locally
    put(cu, ("dst", iab_du), donor_du, encaps=(dl,))
    put(donor_du, dl, mt)
    put(mt, dl, iab_du)
    return iab_du, mt, donor_du, cu


def install_ue_routes(forwarder: Forwarder, ue: str, serving_du: str, cu: str,
                      upf: str) -> None:
    """Open one UE's tunnels and install the entries that carry its traffic.

    The UE's session tunnel runs between the UPF and the CU, its DRB between
    the CU and `serving_du`. The DRB is nested into the route between the CU
    and that DU, so whatever carries F1 there carries the DRB too. Uplink is
    matched at the DU by the UE as source, so one DU serves several UEs.
    """
    session_ul = forwarder.open_tunnel(upf)
    session_dl = forwarder.open_tunnel(cu)
    drb_ul = forwarder.open_tunnel(cu)
    drb_dl = forwarder.open_tunnel(serving_du)
    forwarder.install(RouteEntry(upf, ("dst", ue), cu, (session_dl,)))
    forwarder.nest(cu, session_dl, drb_dl, ("dst", serving_du))
    forwarder.install(RouteEntry(serving_du, drb_dl, ue))
    forwarder.install(RouteEntry(ue, ("dst", upf), serving_du))
    forwarder.nest(serving_du, ("src", ue), drb_ul, ("dst", cu))
    forwarder.install(RouteEntry(cu, drb_ul, upf, (session_ul,)))
    forwarder.install(RouteEntry(upf, session_ul, None))

