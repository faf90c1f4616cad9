"""Run record: ordered trace rows, per-flow paths and delivery times,
summary, export.

Each trace event is one row `(time, head, payload)` in `Trace.rows`, and its
seq is its index there. `head` starts `(kind, location, subject)`.

- Arrival and Departure, one per packet hop and nearly all of a full trace,
  are appended by the engine with `head = hop_key(...)`, which adds the
  hop's JSON line, and `payload` the packet number. Every field but time,
  seq and pkt is fixed by the hop, so the engine builds each key once and
  every row of that hop shares it: a full-level paper-reference trace of
  215,004 hop rows holds a few dozen keys. Such a row holds only atoms and
  its key only strings, so Python's cyclic GC stops tracking them within
  three collections.
- Every other kind (Drop, StateTransition, Directive, TimerExpiry) goes
  through `emit(**fields)`, and `payload` is the field dict.

`events` and `transitions()` build read-only TraceEvent views of the rows on
demand; a hop view's fields are read back from its line, so a view gives
what the export writes.

Every JSON-lines record has the keys time (rounded to 12 digits), seq, kind,
location and subject, then the fields sorted by name, so identical runs
serialize byte-identically; the hash of the export is the determinism
fingerprint. A hop line is its key's line with time, seq and pkt filled in;
the other kinds go through json's C encoder. Both give the bytes json.dumps
gives for the record.
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

HOP_KINDS = ("Arrival", "Departure")
EVENT_KINDS = HOP_KINDS + ("TimerExpiry", "Directive", "Drop",
                           "StateTransition")
_HEAD = ("time", "seq", "kind", "location", "subject")


def hop_key(kind: str, location: str, subject: str, **fields) -> tuple:
    """The head `(kind, location, subject, line)` that the rows
    (time, head, pkt) of one hop share. `line` is the hop's record with
    %r, %d, %d holes for its time (rounded), seq and pkt; every other value
    is encoded here, as json.dumps encodes it, with its % doubled."""
    fields["pkt"] = None
    body = ['{"time": %r, "seq": %d']
    for name, value in (("kind", kind), ("location", location),
                        ("subject", subject), *sorted(fields.items())):
        text = ("%d" if name == "pkt" else
                "".join(_ENCODE(value, 0)).replace("%", "%%"))
        body.append(f'"{name}": {text}')
    return kind, location, subject, ", ".join(body) + "}"


class TraceEvent:
    """Read-only view of one trace row; its fields are built when read."""
    __slots__ = ("_seq", "_row")

    def __init__(self, seq: int, row: tuple):
        self._seq, self._row = seq, row

    seq = property(lambda self: self._seq)
    time = property(lambda self: self._row[0])
    kind = property(lambda self: self._row[1][0])
    location = property(lambda self: self._row[1][1])
    subject = property(lambda self: self._row[1][2])

    @property
    def fields(self) -> Mapping:
        t, head, payload = self._row
        if len(head) == 4:
            payload = json.loads(head[3] % (round(t, 12), self._seq, payload))
            for name in _HEAD:
                del payload[name]
        return MappingProxyType(payload)


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
        """Record an event of a kind that is not held as a hop row."""
        if kind in HOP_KINDS:
            raise ValueError(f"{kind} events are appended to rows as "
                             f"(time, hop_key(...), pkt), not emitted")
        self.rows.append((time, (kind, location, subject), fields))

    @property
    def events(self) -> list[TraceEvent]:
        """Every event as a read-only view, built from the rows per call."""
        return [TraceEvent(seq, row) for seq, row in enumerate(self.rows)]

    def transitions(self, entity: str | None = None) -> list[TraceEvent]:
        return [TraceEvent(seq, row) for seq, row in enumerate(self.rows)
                if row[1][0] == "StateTransition"
                and (entity is None or row[1][2] == entity)]

    # -- export -------------------------------------------------------------

    def to_jsonl_lines(self):
        yield "".join(_ENCODE({"schema_version": SCHEMA_VERSION,
                               "record": "header", "mode": self.mode,
                               "seed": self.seed}, 0))
        for seq, (t, head, payload) in enumerate(self.rows):
            if len(head) == 4:
                yield head[3] % (round(t, 12), seq, payload)
            else:
                rec = {"time": round(t, 12), "seq": seq, "kind": head[0],
                       "location": head[1], "subject": head[2]}
                for k in sorted(payload):
                    rec[k] = payload[k]
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
