"""Run record: ordered trace rows, per-flow paths and delivery times,
summary, export.

Each trace event is one flat row in `Trace.rows`, and its seq is its index
there. Arrival and Departure, one per packet hop and nearly all of a full
trace, are appended by the engine as `(time, kind, location, subject,
*values)`, with the values in the order of ROW_FIELDS[kind], the sorted
field names. Such a row holds only atoms (str, int, float, bool) and its
TEIDs as a tuple of ints that every row of the same header stack shares.
Python's cyclic GC stops tracking a tuple of atoms within two collections,
so later collections do not walk a full trace's rows again. Every other
kind (Drop, StateTransition, Directive, TimerExpiry) goes through
`emit(**fields)` and is held as `(time, kind, location, subject, fields)`.
`events` and `transitions()` build read-only TraceEvent views of the rows on
demand; a view gives the TEIDs as a list, as the export writes them.

Every JSON-lines record has the keys time (rounded to 12 digits), seq, kind,
location and subject, then the fields sorted by name, so identical runs
serialize byte-identically; the hash of the export is the determinism
fingerprint. Arrival and Departure lines fill one constant format string per
kind; the other kinds go through json's C encoder. Both give the bytes
json.dumps gives for the record.
"""
from __future__ import annotations

import hashlib
import json.encoder
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType
from typing import Mapping

from .errors import UnknownFlow

SCHEMA_VERSION = 1

# The C encoder json.dumps builds per call with its defaults, built once;
# records hold no cycles, so the circular-reference check is off.
_ENCODE = json.encoder.c_make_encoder(
    None, None, json.encoder.encode_basestring_ascii, None, ": ", ", ",
    False, False, True)

EVENT_KINDS = ("Arrival", "Departure", "TimerExpiry", "Directive", "Drop",
               "StateTransition")

# The values of a flat row, after (time, kind, location, subject).
ROW_FIELDS = {
    "Arrival": ("delivered", "depth", "pkt", "teids", "wire_size"),
    "Departure": ("depth", "dst", "pkt", "src", "teids", "wire_size"),
}
# One line of each flat kind: %r of the rounded time prints as JSON does,
# ids are quoted by encode_basestring_ascii, the tuple of int TEIDs is
# written as a JSON list by _TeidList, and delivered is "true" or "false".
_ARRIVAL = ('{"time": %r, "seq": %d, "kind": "Arrival", "location": %s, '
            '"subject": %s, "delivered": %s, "depth": %d, "pkt": %d, '
            '"teids": %s, "wire_size": %d}')
_DEPARTURE = ('{"time": %r, "seq": %d, "kind": "Departure", "location": %s, '
              '"subject": %s, "depth": %d, "dst": %s, "pkt": %d, "src": %s, '
              '"teids": %s, "wire_size": %d}')


class _Quoted(dict):
    """JSON string literal of each id, encoded the first time it is seen."""

    def __missing__(self, s: str) -> str:
        q = self[s] = json.encoder.encode_basestring_ascii(s)
        return q


class _TeidList(dict):
    """JSON list literal of each tuple of int TEIDs, built the first time it
    is seen."""

    def __missing__(self, teids: tuple[int, ...]) -> str:
        text = self[teids] = repr(list(teids))
        return text


class TraceEvent:
    """Read-only view of one trace row; its fields are built when read."""
    __slots__ = ("_seq", "_row")

    def __init__(self, seq: int, row: tuple):
        self._seq, self._row = seq, row

    seq = property(lambda self: self._seq)
    time = property(lambda self: self._row[0])
    kind = property(lambda self: self._row[1])
    location = property(lambda self: self._row[2])
    subject = property(lambda self: self._row[3])

    @property
    def fields(self) -> Mapping:
        row = self._row
        names = ROW_FIELDS.get(row[1])
        if names is None:
            return MappingProxyType(row[4])
        fields = dict(zip(names, row[4:]))
        fields["teids"] = list(fields["teids"])
        return MappingProxyType(fields)


@dataclass
class Trace:
    mode: str
    seed: int
    # Each user flow's id and its fixed payload bytes per packet.
    flow_ids: Mapping[str, int]
    rows: list[tuple] = field(default_factory=list)
    # Per flow id, user or F1 (`f1c:<du>`): how many delivered packets took
    # each hop sequence, and the delivery times, in time order.
    paths: dict[str, Counter] = field(
        default_factory=lambda: defaultdict(Counter))
    delivered_at: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    summary: dict = field(default_factory=dict)
    # (mode, seed, event count, SHA-256) of the last export.
    _digest: tuple = field(default=(), init=False, repr=False, compare=False)

    def emit(self, time: float, kind: str, location: str, subject: str,
             **fields) -> None:
        """Record an event of a kind that is not held as a flat row."""
        if kind in ROW_FIELDS:
            raise ValueError(f"{kind} events are appended to rows as flat "
                             f"tuples, not emitted")
        self.rows.append((time, kind, location, subject, fields))

    @property
    def events(self) -> list[TraceEvent]:
        """Every event as a read-only view, built from the rows per call."""
        return [TraceEvent(seq, row) for seq, row in enumerate(self.rows)]

    def transitions(self, entity: str | None = None) -> list[TraceEvent]:
        return [TraceEvent(seq, row) for seq, row in enumerate(self.rows)
                if row[1] == "StateTransition"
                and (entity is None or row[2] == entity)]

    # -- export -------------------------------------------------------------

    def to_jsonl_lines(self):
        yield "".join(_ENCODE({"schema_version": SCHEMA_VERSION,
                               "record": "header", "mode": self.mode,
                               "seed": self.seed}, 0))
        quoted, teid_list = _Quoted(), _TeidList()
        for seq, row in enumerate(self.rows):
            kind = row[1]
            if kind == "Arrival":
                t, _, loc, sub, delivered, depth, pkt, teids, wire = row
                yield _ARRIVAL % (round(t, 12), seq, quoted[loc], quoted[sub],
                                  "true" if delivered else "false", depth,
                                  pkt, teid_list[teids], wire)
            elif kind == "Departure":
                t, _, loc, sub, depth, dst, pkt, src, teids, wire = row
                yield _DEPARTURE % (round(t, 12), seq, quoted[loc],
                                    quoted[sub], depth, quoted[dst], pkt,
                                    quoted[src], teid_list[teids], wire)
            else:
                t, _, loc, sub, fields = row
                rec = {"time": round(t, 12), "seq": seq, "kind": kind,
                       "location": loc, "subject": sub}
                for k in sorted(fields):
                    rec[k] = fields[k]
                yield "".join(_ENCODE(rec, 0))

    def write_jsonl(self, fh=None) -> str:
        """Write the JSON-lines export to the binary file `fh`, if given, and
        return the SHA-256 of those bytes; each line is encoded once."""
        h, lines = hashlib.sha256(), self.to_jsonl_lines()
        while batch := list(islice(lines, 4096)):
            data = ("\n".join(batch) + "\n").encode()
            h.update(data)
            if fh is not None:
                fh.write(data)
        self._digest = (self.mode, self.seed, len(self.rows), h.hexdigest())
        return self._digest[-1]

    def content_hash(self) -> str:
        """SHA-256 of the export; the stored one while header and count hold."""
        if self._digest[:3] == (self.mode, self.seed, len(self.rows)):
            return self._digest[-1]
        return self.write_jsonl()


def measure_throughput(trace: Trace, flow_id: str,
                       window: tuple[float, float]) -> float:
    """Goodput: payload bits delivered in [t0, t1) over the window's width."""
    t0, t1 = window
    if t1 <= t0:
        raise ValueError(f"window must satisfy t1 > t0, got {window}")
    if flow_id not in trace.flow_ids:
        raise UnknownFlow(flow_id)
    times = trace.delivered_at.get(flow_id, ())
    n = bisect_left(times, t1) - bisect_left(times, t0)
    return n * trace.flow_ids[flow_id] * 8 / (t1 - t0)
