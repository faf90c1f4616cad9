"""Run record: ordered trace rows, one FlowRecord per flow, summary, export.

Each trace event is one row `(time, head, pkt)` in `Trace.rows`, and its seq
is its index there. `head` is `row_head(kind, location, subject, **fields)`:
those three and the event's JSON line, with holes for time, seq and, if the
event has one, pkt, the packet number the row holds; every other field is
encoded into the line when the head is built.

- Arrival, Departure and a packet's Drop, nearly all of a full trace, are
  appended by the engine, which builds each distinct head once: a full-level
  paper-reference trace of 220,979 rows holds a few dozen heads.
- Every other kind (StateTransition, Directive, TimerExpiry, and a Drop with
  no packet) goes through `emit(**fields)`, which builds the row's own head.

Rows are in time order, and rows at one time in the order they were
appended; a Departure is appended when its packet is queued.

A row holds only atoms and its head only strings, so Python's cyclic GC
stops tracking them within three collections.

Every JSON-lines record has the keys time, seq, kind, location and subject,
then the fields sorted by name, so identical runs serialize byte-identically;
the hash of the export is the determinism fingerprint. A line is its head's
line with time, seq and pkt filled in, the bytes json.dumps gives: one % fills
4,096 lines, joined. The time's text is repr(round(t, 12)), made with one
decimal conversion where 1e-4 <= t < 4096: there it is "%.12f" % t without
trailing zeros, one kept after the point. `records()` parses the export back,
so a reader sees what the file holds.
"""
from __future__ import annotations

import hashlib
import json.encoder
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

from .errors import UnknownFlow

SCHEMA_VERSION = 1

# The C encoder json.dumps builds per call with its defaults, built once;
# records hold no cycles, so the circular-reference check is off.
_ENCODE = json.encoder.c_make_encoder(
    None, None, json.encoder.encode_basestring_ascii, None, ": ", ", ",
    False, False, True)


def row_head(kind: str, location: str, subject: str, **fields) -> tuple:
    """The head `(kind, location, subject, line)` of the rows (time, head,
    pkt) of one event or hop. `line` is the record with %s and %d holes for
    its time's text (see the module docstring) and seq, and a %d hole for pkt
    if `fields` has it; every other value is encoded here, as json.dumps
    encodes it, with its % doubled."""
    body = ['{"time": %s, "seq": %d']
    for name, value in (("kind", kind), ("location", location),
                        ("subject", subject), *sorted(fields.items())):
        text = ("%d" if name == "pkt" else
                "".join(_ENCODE(value, 0)).replace("%", "%%"))
        body.append(f'"{name}": {text}')
    return kind, location, subject, ", ".join(body) + "}"


@dataclass(slots=True)
class FlowRecord:
    """What a run did with one flow's packets, user or F1 (`f1c:<du>`)."""
    payload_bytes: int  # per packet, fixed
    injected: int = 0
    dropped: int = 0
    latency_sum_s: float = 0.0  # over the delivered packets
    overhead_bytes: int = 0  # header bytes, summed over every link traversal
    # The delivery times, in time order, and how many delivered packets took
    # each hop sequence.
    delivered_at: list[float] = field(default_factory=list)
    paths: Counter = field(default_factory=Counter)


@dataclass
class Trace:
    mode: str
    seed: int
    # Per flow id: the scenario's flows from the start, an F1 flow from its
    # first message.
    flows: dict[str, FlowRecord] = field(default_factory=dict)
    rows: list[tuple] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    # (mode, seed, event count, SHA-256) of the last export.
    _digest: tuple = field(default=(), init=False, repr=False, compare=False)

    def emit(self, time: float, kind: str, location: str, subject: str,
             **fields) -> None:
        """Record one event with a head of its own; `pkt`, if given, is an
        int."""
        self.rows.append((time, row_head(kind, location, subject, **fields),
                          fields.get("pkt")))

    def records(self) -> Iterator[dict]:
        """Each exported record after the header, parsed, in seq order. The
        lines are parsed as one JSON array per batch, small enough that a
        batch's records are gone before the cyclic GC promotes them."""
        lines = islice(self.to_jsonl_lines(), 1, None)
        while batch := list(islice(lines, 256)):
            yield from json.loads("[" + ",".join(batch) + "]")

    # -- export -------------------------------------------------------------

    def _batches(self) -> Iterator[str]:
        """The header line, then each 4,096 rows' lines in one % fill."""
        yield "".join(_ENCODE({"schema_version": SCHEMA_VERSION,
                               "record": "header", "mode": self.mode,
                               "seed": self.seed}, 0))
        rows = self.rows
        for lo in range(0, len(rows), 4096):
            lines, args = [], []
            for seq, (t, head, pkt) in enumerate(rows[lo:lo + 4096], lo):
                text = (("%.12f" % t).rstrip("0") if 1e-4 <= t < 4096.0
                        else repr(round(t, 12)))
                text += "0" if text[-1] == "." else ""
                lines.append(head[3])
                args += (text, seq) if pkt is None else (text, seq, pkt)
            yield "\n".join(lines) % tuple(args)

    def to_jsonl_lines(self) -> Iterator[str]:
        """The export, a line a record; the encoder escapes every newline."""
        for batch in self._batches():
            yield from batch.split("\n")

    def write_jsonl(self, fh=None) -> str:
        """Write the JSON-lines export to the binary file `fh`, if given, and
        return the SHA-256 of those bytes; each batch is encoded once."""
        h = hashlib.sha256()
        for batch in self._batches():
            data = (batch + "\n").encode()
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
    """Goodput: bits delivered in [t0, t1), at exported times, over t1 - t0."""
    t0, t1 = window
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ValueError(f"window must be finite with t1 > t0, got {window}")
    record = trace.flows.get(flow_id)
    if record is None or flow_id.startswith("f1c:"):  # user flows only
        raise UnknownFlow(flow_id)
    times = record.delivered_at
    lo, hi = (bisect_left(times, round(t, 12), key=lambda x: round(x, 12))
              for t in window)
    return (hi - lo) * record.payload_bytes * 8 / (t1 - t0)
