"""Deterministic discrete-event loop over the scenario graph.

One single-threaded event queue drives everything: flow packet injection,
per-link FIFO serialization, control handshakes, timed scenario directives.
Ties are broken by a global sequence number, so two runs of the same
scenario + seed produce identical traces.

A hop is one event at both trace levels: the packet's arrival at the next
node is scheduled when it is queued on the link, and at full level its
Departure row, dated at its finish time, is appended then too. A packet takes
buffer room until its finish time. A link direction is FIFO with one fixed
delay, so its arrivals' (time, seq) keys rise. Its `_LinkDir.waiting` holds
every arrival over it still to come, and only the first of them is in the
heap: `_transmit` pushes an arrival that it appends to an empty `waiting`, and
`_handle` pops the head and pushes the next one. Events pop as if each had its
own entry. The Forwarder's memoized decision carries an `_Out` with the
outgoing link direction, so a repeated hop makes one memo lookup and no link
search.

Every packet's flow, user or F1, has one FlowRecord in the trace. Injecting,
sending, dropping and delivering a packet count into it alike, whatever its
flow; the summary is read from the user flows' records.

Arrival, Departure and packet Drop rows share heads: `_head` keys one dict by
what fixes a head, so each distinct head is built once (see `trace`). A
decision fixes its hop rows' heads up to the flow (payloads are per flow), so
its `_Out` keeps them by flow id: a hop row costs one dict lookup.

Rows are sealed into the trace's columns as the clock passes, not sorted at
the end. Every row is appended dated at or after `now`, events at `now` and a
Departure at its finish time, and `now` never falls, so a row dated before
`now` is final. Once more than SEAL_BATCH_ROWS rows were appended since the
last seal, the loop seals those dated before `now` (see `Trace.seal`); the
rest, mostly the Departures of queued packets, stay pending. The run seals
what is left at its end. So the rows are in time order, and rows at one time
in the order they were appended.

The event loop runs with the cyclic GC paused: a hop allocates tuples, at full
level two rows too, so collections would run all along and walk the pending
rows. The loop makes no reference cycles, so it leaves no garbage.
"""
from __future__ import annotations

import copy
import gc
import heapq
import math
import random
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from . import radio
from .errors import (IabSimError, NoDonorCoverage, NoRoute, RoutingLoop,
                     ScenarioInvalid, TransportDown)
from .f1ap import ControlPlane, F1Message
from .gtp import (Decision, Forwarder, Packet, PathMode, RouteEntry,
                  install_f1_transport, install_ue_routes, teids_of)
from .topology import (DU_ROLES, FlowSpec, IabNodeDirective, Link, Medium,
                       Node, Role, Scenario, validate_topology)
from .trace import (SCHEMA_VERSION, FlowRecord, Trace, measure_throughput,
                    row_head)

__all__ = ["Simulator", "link_capacity", "measure_throughput", "PathMode"]

# The payload of an F1 control message.
CONTROL_MESSAGE_BYTES = 64
# The packets a link direction holds, the one being serialized included.
LINK_BUFFER_PACKETS = 256
# The trace rows appended between two seals of the run loop.
SEAL_BATCH_ROWS = 8192


def link_capacity(scenario: Scenario, link: Link, tx_node_id: str) -> float:
    """Capacity of one link direction; wired links pass their rate through."""
    if link.medium is Medium.WIRED:
        return link.wired_capacity_bps
    params = scenario.radio_params
    tx = scenario.node(tx_node_id)
    downlink = tx.role in DU_ROLES
    dist = scenario.distance(tx_node_id, link.other(tx_node_id))
    carrier = link.carrier
    s = radio.snr_db(tx.tx_power_dbm, carrier.center_frequency_hz,
                     carrier.bandwidth_hz, dist, params)
    return radio.shannon_capacity_bps(carrier.bandwidth_hz, s, params, downlink)


@dataclass(slots=True)
class _LinkDir:
    """One direction of a link: its FIFO state and its cached capacity."""
    link: Link
    src: str
    dst: str
    cap: Optional[float] = None  # cleared when the link's carrier changes
    # Finish times of the queued packets, rising; one not after `now` has
    # left, so the last one left is when the link is next free.
    finish_times: deque = field(default_factory=deque)
    busy_s: float = 0.0
    bytes_total: int = 0
    bytes_header: int = 0
    packets: int = 0
    delay: float = 0.0  # the link's propagation delay, which nothing changes
    # The heap entries of the arrivals over it still to come, in (time, seq)
    # order; the first of them is in the heap.
    waiting: deque = field(default_factory=deque)


@dataclass(slots=True)
class _Out:
    """A decision's link direction (None if it delivers) and heads by flow."""
    link_dir: Optional[_LinkDir]
    arrivals: dict[str, tuple] = field(default_factory=dict)
    departures: dict[str, tuple] = field(default_factory=dict)


class Simulator:
    def __init__(self, scenario: Scenario, mode: PathMode = PathMode.UPF_REROUTE,
                 seed: Optional[int] = None, trace_level: str = "full"):
        if trace_level not in ("full", "summary"):
            raise ValueError(f"unknown trace_level {trace_level!r}")
        report = validate_topology(scenario)
        if not report.ok:
            raise ScenarioInvalid("; ".join(report.violations))
        # Directives grow and rewrite this copy, never the caller's scenario.
        self.scn = scenario = copy.deepcopy(scenario)
        # Validation leaves exactly one of each, and directives add neither.
        self.cu = scenario.nodes_with_role(Role.CU)[0].id
        self.upf = scenario.nodes_with_role(Role.UPF)[0].id
        self.mode = PathMode(mode)
        self.seed = scenario.seed if seed is None else seed
        self.trace_full = trace_level == "full"
        self.now = 0.0
        self.trace = Trace(mode=self.mode.value, seed=self.seed,
                           flows={f.id: FlowRecord(f.packet_size_bytes)
                                  for f in scenario.flows})
        self._rows, self._flows = self.trace.pending, self.trace.flows  # per hop
        # A float, so that an int duration reads as its float in the summary.
        self._duration = float(scenario.duration_s)
        # The Forwarder draws every TEID, so it owns the run's RNG.
        self.fwd = Forwarder(random.Random(self.seed))
        self.cp = ControlPlane(send=self._send_control,
                               schedule=self._schedule_timer,
                               transition=self._transition)
        self.cp.on_association_active = self._assoc_active
        self.cp.on_ue_connected = self._ue_connected
        self.cp.on_du_carrier_update = self._du_carrier_update
        self._heap: list = []
        self._heap_seq = 0
        self._ctl_seq = 0
        self._link_dirs: dict[tuple[str, str], _LinkDir] = {}
        self._heads: dict[tuple, tuple] = {}  # see _head
        self._ran = False

    # -- scheduling ------------------------------------------------------------

    def _schedule(self, t: float, fn, *args) -> None:
        heapq.heappush(self._heap, (t, self._heap_seq, fn, args))
        self._heap_seq += 1

    def _schedule_timer(self, delay_s: float, fn) -> None:
        self._schedule(self.now + delay_s, self._fire_timer, fn)

    def _fire_timer(self, fn) -> None:
        self._emit("TimerExpiry", location="control", subject="timer")
        fn()

    def _emit(self, kind: str, location: str, subject: str, **fields):
        self.trace.emit(self.now, kind, location, subject, **fields)

    def _transition(self, entity: str, frm: str, to: str, cause: str) -> None:
        self._emit("StateTransition", location=entity, subject=entity,
                   from_state=frm, to_state=to, cause=cause)

    # -- run loop -----------------------------------------------------------------

    def run(self) -> Trace:
        if self._ran:
            raise ScenarioInvalid("Simulator instances are single-use")
        self._ran = True
        self._schedule(0.0, self._bootstrap)
        # Float times: an int time's text would depend on its export batch.
        for d in self.scn.schedule:
            self._schedule(float(d.at_s), self._apply_directive, d)
        for f in self.scn.flows:
            self._schedule(float(f.start_s), self._inject, f, 0)
        duration, heap, trace = self._duration, self._heap, self.trace
        pending, seal_at = self._rows, SEAL_BATCH_ROWS
        enabled = gc.isenabled()
        gc.disable()  # see the module docstring
        try:
            while heap and heap[0][0] <= duration:
                t, _, fn, args = heapq.heappop(heap)
                self.now = t
                fn(*args)
                if len(pending) > seal_at:
                    seal_at = trace.seal(t) + SEAL_BATCH_ROWS
        finally:
            if enabled:
                gc.enable()
        self.now = duration
        trace.seal()
        self._finalize()
        return self.trace

    def _bootstrap(self):
        # Validation has wired every donor DU to the CU.
        cu = self.cu
        for du in self.scn.nodes_with_role(Role.DONOR_DU):
            self.fwd.install(RouteEntry(du.id, ("dst", cu), cu))
            self.fwd.install(RouteEntry(cu, ("dst", du.id), du.id))
            self.cp.f1_setup(cu, du.id, 2.0 * self._path_delay((du.id, cu)))

    def _path_delay(self, hops: tuple[str, ...]) -> float:
        """Nominal one-way latency of a control message along `hops`."""
        total = 0.0
        for a, b in zip(hops, hops[1:]):
            link = self.scn.find_link(a, b)
            cap = link_capacity(self.scn, link, a)
            if not cap > 0:  # NaN too
                raise TransportDown(f"link {link.id} has no capacity {a}->{b}")
            total += CONTROL_MESSAGE_BYTES * 8 / cap + link.propagation_delay_s
        return total

    # -- directives -------------------------------------------------------------

    @contextmanager
    def _failure_as_drop(self, location: str, subject: str):
        """A failure inside is trace data, a Drop row, not a run abort."""
        try:
            yield
        except (IabSimError, ValueError) as exc:
            self._emit("Drop", location=location, subject=subject,
                       cause=type(exc).__name__, detail=str(exc))

    def _apply_directive(self, d) -> None:
        self._emit("Directive", location="scenario", subject=type(d).__name__,
                   at=self.now)
        with self._failure_as_drop("scenario", type(d).__name__):
            if isinstance(d, IabNodeDirective):
                self._instantiate_iab(d)
            else:  # validation admits no third kind
                self.cp.du_config_update(d.du, d.carrier)

    def _covered_rx_dbm(self, du: Node, position) -> Optional[float]:
        """Received power of `du`'s carrier at `position`; None when that is
        outside its coverage."""
        dist = math.hypot(position[0] - du.position[0],
                          position[1] - du.position[1])
        return radio.covered_rx_dbm(du.tx_power_dbm,
                                    du.carrier.center_frequency_hz, dist,
                                    self.scn.radio_params)

    def _instantiate_iab(self, d: IabNodeDirective) -> None:
        best, best_rx = None, None
        for du in self.scn.nodes_with_role(Role.DONOR_DU):
            rx = self._covered_rx_dbm(du, d.position)
            if rx is not None and (best_rx is None or rx > best_rx):
                best, best_rx = du, rx
        if best is None:
            raise NoDonorCoverage(f"no donor-side DU covers {d.position}")
        mt_id, _ = self.scn.add_iab_node(d.group, d.position, d.tx_power_dbm,
                                         d.mt_tx_power_dbm, d.access_carrier)
        self.scn.add_link(best.id, mt_id, Medium.RADIO)
        self._start_ue_attach(self.scn.node(mt_id), best)

    # -- control orchestration -------------------------------------------------------

    def _start_ue_attach(self, ue: Node, du: Node) -> None:
        """Attach `ue` to `du`, which its caller found to cover it."""
        self.cp.ue_attach(ue.id, du.id)
        if self.scn.find_link(ue.id, du.id) is None:
            self.scn.add_link(du.id, ue.id, Medium.RADIO)

    def _assoc_active(self, du_id: str) -> None:
        # Attach each UE the DU covers, and each IAB-MT that came up before its
        # donor DU was Active, if it has no context yet: its backhaul is there.
        du = self.scn.node(du_id)
        for node in self.scn.nodes.values():
            if node.id in self.cp.ue_contexts:
                continue
            if node.role is Role.UE:
                reach = self._covered_rx_dbm(du, node.position) is not None
            else:
                reach = (node.role is Role.IAB_MT
                         and self.scn.find_link(node.id, du_id) is not None)
            if reach:
                self._start_ue_attach(node, du)

    def _ue_connected(self, ue_id: str) -> None:
        du = self.cp.ue_contexts[ue_id].serving_du
        with self._failure_as_drop(f"ue:{ue_id}", ue_id):
            if self.scn.node(ue_id).role is Role.IAB_MT:
                self._bring_up_iab_node(ue_id, du)
            else:
                install_ue_routes(self.fwd, ue_id, du, self.cu, self.upf)

    def _bring_up_iab_node(self, mt_id: str, donor_du: str) -> None:
        """Carry the F1 of `mt_id`'s IAB-DU over the backhaul that the MT
        attached through, `donor_du`."""
        # The MT's PDU session is its two tunnels, with no core signalling.
        # Uplink is drawn first: the TEID draw order shows in every trace.
        uplink = self.fwd.open_tunnel(self.upf)
        downlink = self.fwd.open_tunnel(mt_id)
        self._transition(f"pdu:{mt_id}", "Requested", "Established",
                         "pdu-session-establish")
        iab_du = mt_id.removesuffix("-mt") + "-du"  # as add_iab_node names it
        hops = install_f1_transport(self.fwd, self.mode, iab_du, mt_id,
                                    donor_du, self.cu, self.upf, uplink,
                                    downlink)
        rtt = self._path_delay(hops) + self._path_delay(hops[::-1])
        self.cp.f1_setup(self.cu, iab_du, rtt)

    def _du_carrier_update(self, du_id: str, carrier) -> None:
        du = self.scn.node(du_id)
        old = du.carrier.band_label if du.carrier else "none"
        du.carrier = carrier
        for link in self.scn.links_of(du_id):
            if link.medium is Medium.RADIO:
                link.carrier = carrier
                for pair in ((link.a, link.b), (link.b, link.a)):
                    if (d := self._link_dirs.get(pair)) is not None:
                        d.cap = None
        self._transition(f"du:{du_id}", f"carrier:{old}",
                         f"carrier:{carrier.band_label}", "du-config-update")

    # -- packets ------------------------------------------------------------------

    def _inject(self, f: FlowSpec, i: int) -> None:
        pkt = Packet(f.id, f.src, f.dst, f.packet_size_bytes, self.now, i)
        self._flows[f.id].injected += 1
        self._handle(f.src, pkt, None)
        interval = f.packet_size_bytes * 8 / f.rate_bps
        next_t = f.start_s + (i + 1) * interval
        if next_t < f.stop_s:
            self._schedule(next_t, self._inject, f, i + 1)

    def _send_control(self, msg: F1Message, src: str, dst: str) -> None:
        # F1 packet numbers count across every association.
        self._ctl_seq += 1
        fid, size = f"f1c:{msg.association}", CONTROL_MESSAGE_BYTES
        self._flows.setdefault(fid, FlowRecord(size)).injected += 1
        pkt = Packet(flow_id=fid, src=src, dst=dst, payload_size_bytes=size,
                     created_at_s=self.now, seq=self._ctl_seq, control=msg)
        self._handle(src, pkt, None)

    def _drop(self, node: str, pkt: Packet, cause: str, detail: str = "") -> None:
        self._flows[pkt.flow_id].dropped += 1
        head = self._head(pkt, ("Drop", node, pkt.flow_id, pkt.header_stack,
                                pkt.header_bytes, cause, pkt.flow_id, detail),
                          ("cause", "flow", "detail") if detail
                          else ("cause", "flow"))
        self._rows.append((self.now, head, pkt.seq))

    def _head(self, pkt: Packet, key: tuple, names: tuple[str, ...]) -> tuple:
        """The head of `pkt`'s Arrival, Departure or Drop row.

        `key` is (kind, location, flow, header stack, header bytes, *values),
        `names` the fields of its first len(names) values: with the flow's
        fixed payload, all that fixes the head, which is built once per key.
        """
        head = self._heads.get(key)
        if head is None:
            kind, location, flow, stack, _, *values = key
            head = self._heads[key] = row_head(
                kind, location, flow, **dict(zip(names, values)),
                depth=len(stack), pkt=None, teids=teids_of(stack),
                wire_size=pkt.wire_size_bytes)
        return head

    def _handle(self, node: str, pkt: Packet, via: Optional[_LinkDir]) -> None:
        """`pkt` is at `node`, arrived over `via`, or injected there (None)."""
        if via is not None:  # the next arrival over `via` takes the heap
            waiting = via.waiting
            waiting.popleft()
            if waiting:
                heapq.heappush(self._heap, waiting[0])
        try:
            hop = self.fwd.forward(node, pkt)
        except NoRoute as exc:
            self._drop(node, pkt, "no-route", str(exc))
            return
        except RoutingLoop as exc:
            self._drop(node, pkt, "ttl-expired", str(exc))
            return
        if (out := hop.out) is None:  # a new decision
            out = hop.out = _Out(None if hop.next_hop is None
                                 else self._link_dir(node, hop.next_hop))
        if via is not None and self.trace_full:
            if (head := out.arrivals.get(pkt.flow_id)) is None:
                head = out.arrivals[pkt.flow_id] = self._head(pkt, (
                    "Arrival", node, pkt.flow_id, pkt.header_stack,
                    pkt.header_bytes, hop.next_hop is None), ("delivered",))
            self._rows.append((self.now, head, pkt.seq))
        if hop.next_hop is None:
            self._deliver(node, pkt)
            return
        self._transmit(hop, pkt)

    def _link_dir(self, src: str, dst: str) -> _LinkDir:
        """The direction src->dst of their link: a route's next hop is linked
        before the route is installed, and no link is ever removed."""
        d = self._link_dirs.get((src, dst))
        if d is None:
            link = self.scn.find_link(src, dst)
            d = self._link_dirs[(src, dst)] = _LinkDir(
                link, src, dst, delay=link.propagation_delay_s)
        return d

    def _deliver(self, node: str, pkt: Packet) -> None:
        control = pkt.control
        if control is not None and not self.cp.deliverable(control):
            self._drop(node, pkt, "assoc-inactive")
            return
        record = self._flows[pkt.flow_id]
        record.paths[tuple(pkt.hop_log)] += 1
        record.delivered_at.append(self.now)
        record.latency_sum_s += self.now - pkt.created_at_s
        if control is not None:
            self.cp.on_message(control)

    def _transmit(self, hop: Decision, pkt: Packet) -> None:
        """Queue `pkt` on the link direction `hop` sends it on."""
        out = hop.out
        d, now = out.link_dir, self.now
        queue = d.finish_times
        while queue and queue[0] <= now:
            queue.popleft()
        if len(queue) >= LINK_BUFFER_PACKETS:
            self._drop(d.src, pkt, "queue-overflow", f"link {d.link.id}")
            return
        cap = d.cap
        if cap is None:
            cap = d.cap = link_capacity(self.scn, d.link, d.src)
        if not cap > 0:  # NaN too
            self._drop(d.src, pkt, "no-capacity", f"link {d.link.id}")
            return
        header = pkt.header_bytes
        wire = pkt.payload_size_bytes + header
        start = queue[-1] if queue else now
        finish = start + wire * 8 / cap
        queue.append(finish)
        d.busy_s += finish - start
        d.bytes_total += wire
        d.bytes_header += header
        d.packets += 1
        self._flows[pkt.flow_id].overhead_bytes += header
        if self.trace_full and finish <= self._duration:
            if (head := out.departures.get(pkt.flow_id)) is None:
                head = out.departures[pkt.flow_id] = self._head(pkt, (
                    "Departure", d.link.id, pkt.flow_id, pkt.header_stack,
                    header, d.src, d.dst), ("src", "dst"))
            self._rows.append((finish, head, pkt.seq))
        arrival = (finish + d.delay, self._heap_seq, self._handle,
                   (d.dst, pkt, d))
        d.waiting.append(arrival)
        if len(d.waiting) == 1:  # none queued before it is still to arrive
            heapq.heappush(self._heap, arrival)
        self._heap_seq += 1

    # -- summary -------------------------------------------------------------------

    def _finalize(self) -> None:
        duration = self._duration
        flows = {}
        total_header = sum(d.bytes_header for d in self._link_dirs.values())
        total_bytes = sum(d.bytes_total for d in self._link_dirs.values())
        for f in self.scn.flows:
            r = self.trace.flows[f.id]
            delivered = len(r.delivered_at)
            hops = sum(len(path) * n for path, n in r.paths.items())
            flows[f.id] = {
                "flow_id": f.id,
                "offered_bps": r.injected * f.packet_size_bytes * 8
                               / (f.stop_s - f.start_s),
                "injected": r.injected,
                "delivered": delivered,
                "dropped": r.dropped,
                "in_flight": r.injected - delivered - r.dropped,
                "goodput_bps": delivered * f.packet_size_bytes * 8 / duration,
                "mean_latency_s": (r.latency_sum_s / delivered
                                   if delivered else 0.0),
                "mean_hop_count": hops / delivered if delivered else 0.0,
                "overhead_bytes": r.overhead_bytes,
            }
        links = {}
        # Directions in (link id, sender) order, as summary.json has them.
        for (src, dst), d in sorted(self._link_dirs.items(),
                                    key=lambda kv: (kv[1].link.id, kv[0][0])):
            links[f"{d.link.id}:{src}->{dst}"] = {
                "utilization": d.busy_s / duration,
                "overhead_fraction": (d.bytes_header / d.bytes_total
                                      if d.bytes_total else 0.0),
                "bytes_total": d.bytes_total,
                "bytes_header": d.bytes_header,
                "packets": d.packets,
            }
        self.trace.summary = {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode.value,
            "seed": self.seed,
            "duration_s": duration,
            "flows": flows,
            "links": links,
            "totals": {
                "header_bytes": total_header,
                "bytes": total_bytes,
                "events": len(self.trace),
            },
        }
