"""A trace-replay oracle: what the exported records of a full-level run say,
re-derived in one pass and checked against the run's own summary.

A `Replay` keeps only counts and the few records later checks read; the
`replay` fixture of conftest makes one per trace, so the session's large
traces are parsed once however many tests read them.
"""
from collections import Counter, defaultdict


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

