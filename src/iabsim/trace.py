"""Run record: ordered trace rows, per-flow paths and delivery times,
summary, export.

Each trace event is one row in `Trace.rows`, and its seq is its index there.
Arrival and Departure, one per packet hop and nearly all of a full trace,
are appended by the engine as `(time, hop_key, pkt)`. `hop_key` is
`(kind, location, subject, *values)`, the values in the order of
HOP_KEY_FIELDS[kind]: every field but time, seq and pkt, all fixed by the
hop. The engine builds each key once, with `hop_key`, and every row of that
hop shares it, so a row is three slots and a full-level paper-reference
trace of 215,004 hop rows holds a few dozen keys. Rows and
keys hold only atoms and tuples of them, so Python's cyclic GC stops
tracking them within three collections. Every other kind (Drop,
StateTransition, Directive, TimerExpiry) goes through `emit(**fields)` and
is held as `(time, kind, location, subject, fields)`. `events` and
`transitions()` build read-only TraceEvent views of the rows on demand; a
view gives the fields of a hop row, pkt among them, with the TEIDs as a
list, as the export writes them.

Every JSON-lines record has the keys time (rounded to 12 digits), seq, kind,
location and subject, then the fields sorted by name, so identical runs
serialize byte-identically; the hash of the export is the determinism
fingerprint. The export turns each hop key into a line template the first
time it meets it: every value but time, seq and pkt is encoded once, and a
hop line is one `%` format. The other kinds go through json's C encoder.
Both give the bytes json.dumps gives for the record.
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

# The fields of a hop row, sorted by name as a record has them.
ROW_FIELDS = {
    "Arrival": ("delivered", "depth", "pkt", "teids", "wire_size"),
    "Departure": ("depth", "dst", "pkt", "src", "teids", "wire_size"),
}
# The values of a hop key, after (kind, location, subject): every field but
# pkt, which the row holds.
HOP_KEY_FIELDS = {kind: tuple(n for n in names if n != "pkt")
                  for kind, names in ROW_FIELDS.items()}


def hop_key(kind: str, location: str, subject: str, **fields) -> tuple:
    """The key that rows (time, hop_key, pkt) of one hop share: its fields
    but pkt, in HOP_KEY_FIELDS[kind] order."""
    return (kind, location, subject,
            *(fields[name] for name in HOP_KEY_FIELDS[kind]))


def _hop_fields(key: tuple, pkt) -> dict:
    """The fields of a hop row with key `key` and packet number `pkt`,
    sorted by name."""
    values = dict(zip(HOP_KEY_FIELDS[key[0]], key[3:]), pkt=pkt)
    return {name: values[name] for name in ROW_FIELDS[key[0]]}


def _hop_template(key: tuple) -> str:
    """The line of a row with hop key `key`, with %r, %d, %d holes for its
    time (rounded), seq and pkt; every other value is encoded here, as
    json.dumps encodes it, with its % doubled."""
    record = dict(zip(("kind", "location", "subject"), key[:3]),
                  **_hop_fields(key, None))
    body = ['{"time": %r, "seq": %d']
    for name, value in record.items():
        text = ("%d" if name == "pkt" else
                "".join(_ENCODE(value, 0)).replace("%", "%%"))
        body.append(f'"{name}": {text}')
    return ", ".join(body) + "}"


class TraceEvent:
    """Read-only view of one trace row; its fields are built when read."""
    __slots__ = ("_seq", "_row", "_head")

    def __init__(self, seq: int, row: tuple):
        # _head is (kind, location, subject, ...): a hop row's key, or the
        # rest of any other row.
        self._seq, self._row = seq, row
        self._head = row[1] if len(row) == 3 else row[1:]

    seq = property(lambda self: self._seq)
    time = property(lambda self: self._row[0])
    kind = property(lambda self: self._head[0])
    location = property(lambda self: self._head[1])
    subject = property(lambda self: self._head[2])

    @property
    def fields(self) -> Mapping:
        row = self._row
        if len(row) != 3:
            return MappingProxyType(row[4])
        fields = _hop_fields(row[1], row[2])
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
        """Record an event of a kind that is not held as a hop row."""
        if kind in ROW_FIELDS:
            raise ValueError(f"{kind} events are appended to rows as "
                             f"(time, hop_key, pkt), not emitted")
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
        # Per hop key object, its line template. An id hashes faster than
        # the key's values, and stays valid while the rows hold the key.
        templates: dict[int, str] = {}
        for seq, row in enumerate(self.rows):
            if len(row) == 3:
                t, key, pkt = row
                template = templates.get(id(key))
                if template is None:
                    template = templates[id(key)] = _hop_template(key)
                yield template % (round(t, 12), seq, pkt)
            else:
                t, kind, loc, sub, fields = row
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
