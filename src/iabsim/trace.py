"""Run record: ordered trace events, per-flow deliveries, summary, export.

The JSON-lines export uses a fixed field order so that identical runs
serialize byte-identically; the hash of the export is the determinism
fingerprint.
"""
from __future__ import annotations

import hashlib
import json.encoder
from dataclasses import dataclass, field
from itertools import islice

from .errors import UnknownFlow

SCHEMA_VERSION = 1

# The C encoder json.dumps builds per call with its defaults, built once;
# records hold no cycles, so the circular-reference check is off.
_ENCODE = json.encoder.c_make_encoder(
    None, None, json.encoder.encode_basestring_ascii, None, ": ", ", ",
    False, False, True)

EVENT_KINDS = ("Arrival", "Departure", "TimerExpiry", "Directive", "Drop",
               "StateTransition")


@dataclass(slots=True)
class TraceEvent:
    time: float
    seq: int
    kind: str
    location: str
    subject: str
    fields: dict


@dataclass(slots=True)
class Delivery:
    time: float
    flow_id: str
    payload_bytes: int
    created_at: float
    hop_log: tuple[str, ...]


@dataclass(slots=True)
class ControlDelivery:
    time: float
    kind: str
    association: str
    hop_log: tuple[str, ...]


@dataclass
class Trace:
    mode: str
    seed: int
    flow_ids: tuple[str, ...]
    events: list[TraceEvent] = field(default_factory=list)
    deliveries: list[Delivery] = field(default_factory=list)
    control_deliveries: list[ControlDelivery] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    # (mode, seed, event count, SHA-256) of the last export.
    _digest: tuple = field(default=(), init=False, repr=False, compare=False)

    def emit(self, time: float, kind: str, location: str, subject: str,
             **fields) -> TraceEvent:
        ev = TraceEvent(time=time, seq=len(self.events), kind=kind,
                        location=location, subject=subject, fields=fields)
        self.events.append(ev)
        return ev

    def transitions(self, entity: str | None = None) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "StateTransition"
                and (entity is None or e.location == entity)]

    # -- export -------------------------------------------------------------

    def to_jsonl_lines(self):
        yield "".join(_ENCODE({"schema_version": SCHEMA_VERSION,
                               "record": "header", "mode": self.mode,
                               "seed": self.seed}, 0))
        for e in self.events:
            rec = {"time": round(e.time, 12), "seq": e.seq, "kind": e.kind,
                   "location": e.location, "subject": e.subject}
            for k in sorted(e.fields):
                rec[k] = e.fields[k]
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
        self._digest = (self.mode, self.seed, len(self.events), h.hexdigest())
        return self._digest[-1]

    def content_hash(self) -> str:
        """SHA-256 of the export; the stored one while header and count hold."""
        if self._digest[:3] == (self.mode, self.seed, len(self.events)):
            return self._digest[-1]
        return self.write_jsonl()


def measure_throughput(trace: Trace, flow_id: str,
                       window: tuple[float, float]) -> float:
    """Goodput: delivered payload bits inside the window over its width."""
    t0, t1 = window
    if t1 <= t0:
        raise ValueError(f"window must satisfy t1 > t0, got {window}")
    if flow_id not in trace.flow_ids:
        raise UnknownFlow(flow_id)
    bits = sum(d.payload_bytes * 8 for d in trace.deliveries
               if d.flow_id == flow_id and t0 <= d.time < t1)
    return bits / (t1 - t0)
