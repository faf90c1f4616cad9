"""The hop lines and the other kinds' lines of the trace export print what
json.dumps prints.

The reference line is json.dumps of the record the export describes: time
rounded to 12 digits, seq, kind, location, subject, then the fields sorted by
name. A hop row is (time, hop_key(...), pkt), as the engine appends it, and
rows share keys: the export fills each row's time, seq and pkt into its
key's line. Ids with % in them check that a key's line escapes what it
pre-encodes.
"""
import json

import pytest
from hypothesis import given, settings, strategies as st

from iabsim.trace import Trace, hop_key

TEID_MAX = 2 ** 32 - 1

ids = st.text() | st.sampled_from(['a"b', "a\\b", "\x00\x1f\x7f", "é-ü", "☃",
                                   "\U0001f680", "\ud800", "%", "%d", "%%",
                                   "a%rb"])
times = (st.floats(allow_nan=False, allow_infinity=False)
         | st.sampled_from([0.0, 1e-07, 0.1 + 0.2, 2.000000000001,
                            123456789.123456789, 1e300]))
counts = st.integers(min_value=0, max_value=2 ** 63)
teids = st.lists(st.integers(min_value=0, max_value=TEID_MAX), max_size=2)

# (hop_key, the record's fields but pkt)
arrival_keys = st.builds(
    lambda loc, sub, fields: (hop_key("Arrival", loc, sub, **fields), fields),
    ids, ids, st.fixed_dictionaries(dict(
        delivered=st.booleans(), depth=counts, teids=teids, wire_size=counts)))
departure_keys = st.builds(
    lambda loc, sub, fields: (hop_key("Departure", loc, sub, **fields),
                              fields),
    ids, ids, st.fixed_dictionaries(dict(
        depth=counts, dst=ids, src=ids, teids=teids, wire_size=counts)))


@st.composite
def hop_rows(draw):
    """Hop rows and their records' fields, several rows sharing a key."""
    keys = draw(st.lists(arrival_keys | departure_keys, min_size=1,
                         max_size=4))
    rows = draw(st.lists(st.tuples(times, st.sampled_from(keys), counts),
                         min_size=1, max_size=8))
    return [((t, key, pkt), dict(fields, pkt=pkt))
            for t, (key, fields), pkt in rows]


# One event of each kind that goes through emit(**fields), as the engine
# records them.
GENERIC = [
    (0.25, "Drop", "cu", "dl-ue1",
     dict(flow="dl-ue1", pkt=7, cause="no-route", depth=1, wire_size=1412,
          teids=[4242], detail='no route at "cu"')),
    (0.5, "StateTransition", "f1:uav1-du", "f1:uav1-du",
     dict(from_state="Idle", to_state="SetupRequested", cause="f1-setup")),
    (2.0, "Directive", "scenario", "IabNodeDirective", dict(at=2.0)),
    (0.1 + 0.2, "TimerExpiry", "control", "timer", {}),
]


def reference_line(time, seq, kind, location, subject, fields) -> str:
    rec = {"time": round(time, 12), "seq": seq, "kind": kind,
           "location": location, "subject": subject}
    for k in sorted(fields):
        rec[k] = fields[k]
    return json.dumps(rec)


@settings(max_examples=300, deadline=None)
@given(hop_rows())
def test_hop_rows_export_as_json_dumps(events):
    trace = Trace(mode="UpfReroute", seed=1, flow_ids={})
    for row, _ in events:
        trace.rows.append(row)
    for time, kind, location, subject, fields in GENERIC:
        trace.emit(time, kind, location, subject, **fields)
    expected = [reference_line(row[0], seq, *row[1][:3], fields)
                for seq, (row, fields) in enumerate(events)]
    expected += [reference_line(time, seq, kind, loc, sub, fields)
                 for seq, (time, kind, loc, sub, fields)
                 in enumerate(GENERIC, start=len(events))]
    lines = list(trace.to_jsonl_lines())
    assert lines[1:] == expected
    # The views carry the same fields as the lines.
    views = trace.events
    assert [dict(e.fields) for e in views[:len(events)]] == \
        [fields for _, fields in events]
    assert [(e.seq, e.kind) for e in views] == \
        [(json.loads(line)["seq"], json.loads(line)["kind"])
         for line in lines[1:]]


def test_flat_kinds_are_not_emitted():
    with pytest.raises(ValueError, match="Departure events are appended"):
        Trace(mode="UpfReroute", seed=1, flow_ids={}).emit(
            0.0, "Departure", "l1", "dl-ue1", pkt=0)
