"""A trace-replay oracle: what the exported records of a full-level run say,
re-derived in one pass and checked against the run's own summary and the
link model of its scenario file.

A `Replay` keeps only counts and the few records later checks read; the
`replay` fixture of conftest makes one per trace, so the session's large
traces are parsed once however many tests read them.
"""
import math
from collections import Counter, defaultdict
from itertools import groupby
from operator import itemgetter

# The most the export's 12-digit rounding, and float error on times under
# 100 s, move a difference of two times.
ROUNDING = 1e-12 + 1e-13


class Replay:
    """Counts re-derived from the records alone."""

    def __init__(self, records):
        # Per "<link>:<src>-><dst>", as the summary names a link direction:
        # [Departures, the sum of their wire sizes].
        self.sent = defaultdict(lambda: [0, 0])
        self.delivered = Counter()
        self.dropped = Counter()
        # Per flow: the packet numbers that were delivered or dropped.
        self.ended = defaultdict(set)
        # Per (flow, src, dst): a Counter of the (depth, TEID count) of the
        # Departures on that link direction.
        self.stacks = defaultdict(Counter)
        self.first_move = {}
        self.drop_causes = Counter()
        self.transitions = []
        # Per link direction (link, src, dst): the time of its last
        # Departure, the highest rate in bit/s that two successive
        # Departures imply, and the least and greatest delay from a
        # Departure to where its packet shows up next.
        self._last_departure = {}
        self.peak_bps = defaultdict(float)
        self.delays = {}
        # Per (flow, pkt) on a link: its direction and Departure time.
        self.in_flight = {}
        # Per (flow, pkt) just arrived at a node it leaves: the node and time.
        self._arrived = {}
        # Per link direction: (when it was queued, when it left) for each
        # packet that arrived at the sender; per (direction, flow): (pkt,
        # when it left) for each packet that entered the network there, which
        # a flow queues in pkt order.
        self.queued = defaultdict(list)
        self.entered = defaultdict(list)
        self.misrouted = []
        for r in records:
            kind, subject = r["kind"], r["subject"]
            if kind in ("Arrival", "Departure") \
                    and subject not in self.first_move:
                self.first_move[subject] = r["time"]
            if kind == "Departure":
                link = self.sent[f"{r['location']}:{r['src']}->{r['dst']}"]
                link[0] += 1
                link[1] += r["wire_size"]
                self.stacks[subject, r["src"], r["dst"]][
                    r["depth"], len(r["teids"])] += 1
            elif kind == "Arrival" and r["delivered"]:
                self._end(self.delivered, subject, r["pkt"])
            elif kind == "Drop":
                self.drop_causes[r["cause"]] += 1
                if "flow" in r:
                    self._end(self.dropped, r["flow"], r["pkt"])
            elif kind == "StateTransition":
                self.transitions.append(r)
            if "pkt" in r:
                self._moved(r)

    def _moved(self, r):
        """Check a packet's record against the packet's last Departure, and
        note the record if it is a Departure."""
        key = (r["subject"], r["pkt"])
        arrived = self._arrived.pop(key, None)
        if r["kind"] == "Arrival" and not r["delivered"]:
            self._arrived[key] = (r["location"], r["time"])
        departed = self.in_flight.pop(key, None)
        if departed is not None:
            direction, t = departed
            if r["kind"] == "Departure" or r["location"] != direction[2]:
                self.misrouted.append(
                    f"{key} left on {direction}, next seen as {r['kind']} "
                    f"at {r['location']}")
            else:
                delay = r["time"] - t
                lo, hi = self.delays.get(direction, (delay, delay))
                self.delays[direction] = (min(lo, delay), max(hi, delay))
        elif r["kind"] == "Arrival":
            self.misrouted.append(f"{key} arrived at {r['location']} with "
                                  f"no Departure")
        if r["kind"] == "Departure":
            direction = (r["location"], r["src"], r["dst"])
            if arrived is None:
                self.entered[direction, r["subject"]].append(
                    (r["pkt"], r["time"]))
            elif arrived[0] == r["src"]:
                self.queued[direction].append((arrived[1], r["time"]))
            else:
                self.misrouted.append(f"{key} arrived at {arrived[0]}, next "
                                      f"left from {r['src']}")
            gap = (r["time"] + ROUNDING
                   - self._last_departure.get(direction, -math.inf))
            rate = r["wire_size"] * 8 / gap if gap > 0 else math.inf
            self.peak_bps[direction] = max(self.peak_bps[direction], rate)
            self._last_departure[direction] = r["time"]
            self.in_flight[key] = (direction, r["time"])

    def _end(self, counts, flow, pkt):
        counts[flow] += 1
        self.ended[flow].add(pkt)

    def mismatches(self, summary) -> list[str]:
        """Where the summary says otherwise than the records."""
        out = []
        for name, stats in summary["links"].items():
            packets, total = self.sent.get(name, (0, 0))
            if (packets, total) != (stats["packets"], stats["bytes_total"]):
                out.append(f"link {name}: records give {packets} packets, "
                           f"{total} bytes; summary {stats['packets']}, "
                           f"{stats['bytes_total']}")
        out += [f"link {name}: Departures, but no summary entry"
                for name in self.sent.keys() - summary["links"].keys()]
        for flow, row in summary["flows"].items():
            got = (self.delivered[flow], self.dropped[flow])
            if got != (row["delivered"], row["dropped"]):
                out.append(f"flow {flow}: records give delivered, dropped "
                           f"{got}; summary {row['delivered']}, "
                           f"{row['dropped']}")
            if len(self.ended[flow]) != sum(got):
                out.append(f"flow {flow}: a packet ended twice")
            if not (row["injected"] == row["delivered"] + row["dropped"]
                    + row["in_flight"] and row["in_flight"] >= 0
                    and max(self.ended[flow], default=-1) < row["injected"]):
                out.append(f"flow {flow}: injected {row['injected']} does "
                           f"not cover what the records show")
        return out

    def unfinished(self, summary) -> int:
        """How many packets a run ended with on the way: those queued on a
        direction, which its `packets` counts but whose Departure would come
        after the end, and those that left and never showed up."""
        queued = sum(stats["packets"] - self.sent.get(name, (0, 0))[0]
                     for name, stats in summary["links"].items())
        return queued + len(self.in_flight)

    def queue_mismatches(self, wired, duration, radio_bps=None) -> list[str]:
        """Where the records break the link model. `wired` maps the id of
        each wired link of the scenario file to the link, and `duration` is
        the run's. `radio_bps`, if given, maps other link directions, as
        (link, src, dst), to the capacity each keeps for the whole run.

        Every direction is FIFO: no packet leaves before one queued on it
        earlier. A packet is queued when it arrives at the sender, or, one
        that enters the network there, in its flow's pkt order. This reads
        only times, never the order of rows at one time, and the export's
        rounding keeps their order, so they compare exactly.

        On a wired link's direction, and on each direction of `radio_bps`,
        successive Departures are at least the later packet's
        `wire_size * 8 / capacity` apart. On a wired one each packet
        shows up next, as an Arrival or a Drop at the far end, one
        `propagation_delay_s` after its Departure. On any other direction
        that delay is one constant. Each time is allowed the export's
        rounding. A packet may be on a link still when the run ends, but
        only if its delay would take it past the end.
        """
        out = list(self.misrouted)
        for direction, pairs in self.queued.items():
            out += [f"{direction}: the packet queued at {queued!r} left at "
                    f"{left!r}, before one queued earlier"
                    for queued, left in overtakers(pairs)]
        for (direction, flow), pairs in self.entered.items():
            out += [f"{direction}: {(flow, pkt)} left at {left!r}, before "
                    f"one queued earlier" for pkt, left in overtakers(pairs)]
        for direction, bps in self.peak_bps.items():
            link = wired.get(direction[0])
            capacity = (link.wired_capacity_bps if link is not None
                        else (radio_bps or {}).get(direction))
            if capacity is not None and bps > capacity:
                out.append(f"{direction}: Departures imply {bps!r} bit/s, "
                           f"over its {capacity!r}")
        for direction, (lo, hi) in self.delays.items():
            link = wired.get(direction[0])
            if link is None and hi - lo > 2 * ROUNDING:
                out.append(f"{direction}: delays from {lo!r} to {hi!r}")
            elif link is not None and not (
                    abs(lo - link.propagation_delay_s) <= ROUNDING
                    and abs(hi - link.propagation_delay_s) <= ROUNDING):
                out.append(f"{direction}: delays from {lo!r} to {hi!r}, not "
                           f"{link.propagation_delay_s!r}")
        for key, (direction, t) in self.in_flight.items():
            link = wired.get(direction[0])
            delay = (link.propagation_delay_s if link is not None
                     else self.delays.get(direction, (0.0,))[0])
            if t + delay <= duration - ROUNDING:
                out.append(f"{key} left on {direction} at {t!r} and never "
                           f"showed up")
        return out


def overtakers(pairs):
    """The (queued, left) pairs of packets that left before one queued
    strictly earlier did."""
    out, latest = [], -math.inf
    for _, group in groupby(sorted(pairs), key=itemgetter(0)):
        group = list(group)
        out += [p for p in group if p[1] < latest]
        latest = max(latest, group[-1][1])
    return out
