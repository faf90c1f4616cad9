"""Run record: ordered trace rows, one FlowRecord per flow, summary, export.

Each trace event is one row `(time, head, pkt)`, its time a float once it
is in the columns below (the engine's and `emit`'s alike). `head` is
`row_head(kind, location, subject, **fields)`: those three and the event's
JSON line, with holes for time, seq and, if the event has one, pkt, the
row's packet number; every other field is encoded when the head is built.

- Arrival, Departure and a packet's Drop, nearly all of a full trace, are
  appended by the engine, which builds each distinct head once: a full-level
  paper-reference trace of 220,979 rows holds a few dozen heads.
- Every other kind (StateTransition, Directive, TimerExpiry, and a Drop with
  no packet) goes through `emit(**fields)`, which builds the row's own head.

A row is appended to `Trace.pending`, and `seal` moves it into three
columns: `times` (doubles), `heads` and `pkts` (None where there is none);
its seq is its index there. `seal` sorts the pending rows by time, stably,
and moves those dated before the time it is given. The engine seals as its
clock passes (see `engine`), so the columns hold the rows in time order, and
rows at one time in the order they were appended; a Departure is appended
when its packet is queued. The export takes any rows still pending after the
columns, in the order they were appended.

A column holds no object that Python's cyclic GC tracks past three
collections: `times` holds no objects, `pkts` ints, and a head only strings
and bytes. The pending tuples die when they are sealed.

Every JSON-lines record has the keys time, seq, kind, location and subject,
then the fields sorted by name, so identical runs serialize byte-identically;
the hash of the export is the determinism fingerprint. A line is its head's
line with time, seq and pkt filled in, the bytes json.dumps gives: one bytes
% fills 4,096 lines, joined, from four values a row (the time's precision,
the time, seq, pkt), with no Python loop per row. The time's text is
repr(round(t, 12)). For t in [10**k, 10**(k + 1)) inside [1e-4, 4096),
"%.{13 + k}g" rounds at 1e-12 and drops the trailing zeros, so it prints
those bytes but for a whole number's ".0", which is put back after the fill.
A batch with any time outside that range, or spanning 16 s or more, prints
each time's repr into the line instead.
"""
from __future__ import annotations

import hashlib
import json.encoder
import math
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Iterator

from .errors import UnknownFlow

SCHEMA_VERSION = 1

# The C encoder json.dumps builds per call with its defaults, built once;
# records hold no cycles, so the circular-reference check is off.
_ENCODE = json.encoder.c_make_encoder(
    None, None, json.encoder.encode_basestring_ascii, None, ": ", ", ",
    False, False, True)

# bisect_right(_PRECISION, t) is the %.*g precision that prints a time t of
# [1e-4, 4096) to 12 places: 13 + k in the decade [10**k, 10**(k + 1)), from
# 9 up to 16. Each edge's double is at or above its power of ten, so a time
# at an edge falls in the decade it opens.
_PRECISION = (-math.inf,) * 9 + (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1000.0)


def row_head(kind: str, location: str, subject: str, **fields) -> tuple:
    """The head `(kind, location, subject, line)` of the rows (time, head,
    pkt) of one event or hop. `line` is the record as bytes, ending in a
    newline, with holes for the time's precision and value (%.*g, see the
    module docstring), seq (%d) and pkt: %d if `fields` has it, else %.0a,
    which prints nothing. Every other value is encoded here, as json.dumps
    encodes it, with its % doubled."""
    body = ['{"time": %.*g, "seq": %d']
    for name, value in (("kind", kind), ("location", location),
                        ("subject", subject), *sorted(fields.items())):
        text = ("%d" if name == "pkt" else
                "".join(_ENCODE(value, 0)).replace("%", "%%"))
        body.append(f'"{name}": {text}')
    end = "}\n" if "pkt" in fields else "%.0a}\n"
    return kind, location, subject, (", ".join(body) + end).encode()


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
    summary: dict = field(default_factory=dict)
    # The sealed rows, a column each, in seq order.
    times: array = field(default_factory=lambda: array("d"))
    heads: list[tuple] = field(default_factory=list)
    pkts: list[int | None] = field(default_factory=list)
    # The rows (time, head, pkt) appended and not yet sealed.
    pending: list[tuple] = field(default_factory=list)
    # (mode, seed, event count, SHA-256) of the last export.
    _digest: tuple = field(default=(), init=False, repr=False, compare=False)

    def __len__(self) -> int:
        """The events recorded, sealed or pending."""
        return len(self.times) + len(self.pending)

    def emit(self, time: float, kind: str, location: str, subject: str,
             **fields) -> None:
        """Record one event with a head of its own; `pkt`, if given, is an
        int. The time column makes the time a float: an int's text would
        depend on the batch it is exported in."""
        self.pending.append((time, row_head(kind, location, subject, **fields),
                             fields.get("pkt")))

    def seal(self, before: float = math.inf) -> int:
        """Sort the pending rows by time, stably, and move those dated before
        `before` into the columns; return how many stay pending.

        The order is final if no row dated before `before` is appended
        afterwards: the rows kept are sorted and precede every later one, so
        rows at one time keep the order they were appended in."""
        self.pending.sort(key=itemgetter(0))
        self._move(bisect_left(self.pending, before, key=itemgetter(0)))
        return len(self.pending)

    def _move(self, n: int) -> None:
        """Move the first `n` pending rows into the columns, as they are."""
        rows = self.pending[:n]
        del self.pending[:n]
        self.times.fromlist(list(map(itemgetter(0), rows)))  # extend: 2x slower
        self.heads.extend(map(itemgetter(1), rows))
        self.pkts.extend(map(itemgetter(2), rows))

    # -- export -------------------------------------------------------------

    def _batches(self) -> Iterator[bytes]:
        """The header line, then each 4,096 rows' lines in one % fill."""
        yield "".join(_ENCODE({"schema_version": SCHEMA_VERSION,
                               "record": "header", "mode": self.mode,
                               "seed": self.seed}, 0)).encode() + b"\n"
        self._move(len(self.pending))
        for lo in range(0, len(self.times), 4096):
            hi = lo + 4096
            lines = b"".join(map(itemgetter(3), self.heads[lo:hi]))
            times = self.times[lo:hi].tolist()
            args = [None] * (4 * len(times))
            args[1::4] = times
            args[2::4] = range(lo, lo + len(times))
            args[3::4] = self.pkts[lo:hi]
            first, last = min(times), max(times)
            # Less than 16 s apart, the times may round to at most 17
            # integers, and each costs one scan of the batch below.
            if 1e-4 <= first and last < min(first + 16.0, 4096.0):
                precision = bisect_right(_PRECISION, first)
                args[0::4] = (
                    [precision] * len(times)
                    if precision == bisect_right(_PRECISION, last)
                    else map(bisect_right, repeat(_PRECISION), times))
                batch = lines % tuple(args)
                # %g drops a whole time's ".0": put it back for each integer
                # a time of the batch may round to. A time prints as n only
                # within 5e-13 of it, well inside the 1e-9 margin.
                for n in range(math.ceil(first - 1e-9),
                               math.floor(last + 1e-9) + 1):
                    batch = batch.replace(b'{"time": %d, "seq": ' % n,
                                          b'{"time": %d.0, "seq": ' % n)
            else:  # each time's text on its own
                texts = list(map(b"%a".__mod__, map(round, times, repeat(12))))
                args[0::4] = map(len, texts)
                args[1::4] = texts
                batch = lines.replace(b'{"time": %.*g, ',
                                      b'{"time": %.*s, ') % tuple(args)
            yield batch

    def to_jsonl_lines(self) -> Iterator[str]:
        """The export, a line a record; the encoder escapes every newline."""
        for batch in self._batches():
            yield from batch[:-1].decode().split("\n")

    def write_jsonl(self, fh=None) -> str:
        """Write the JSON-lines export to the binary file `fh`, if given, and
        return the SHA-256 of those bytes."""
        h = hashlib.sha256()
        for batch in self._batches():
            h.update(batch)
            if fh is not None:
                fh.write(batch)
        self._digest = (self.mode, self.seed, len(self), h.hexdigest())
        return self._digest[-1]

    def content_hash(self) -> str:
        """SHA-256 of the export; the stored one while header and count hold."""
        if self._digest[:3] == (self.mode, self.seed, len(self)):
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
