"""Every line of the trace export prints what json.dumps prints.

The reference line is json.dumps of the record the export describes: time
rounded to 12 digits, seq, kind, location, subject, then the fields sorted by
name. A hop row is (time, row_head(...), pkt), as the engine appends it, and
rows share heads: the export fills each row's time, seq and pkt into its
head's line. The other kinds go through emit, which builds each row's own
head. Ids with % in them check that a head's line escapes what it
pre-encodes. The export fills 4,096 rows' lines with one %, and traces of
sizes at and next to that batch's edges are checked whole. In a batch whose
times all lie in [1e-4, 4096), less than 16 s apart, %.*g prints each time
with a precision per time decade; such batches are checked at decade edges,
whole times and round-ups, and the times at and next to the range's edges
on their own.
"""
import hashlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from iabsim.trace import Trace, row_head

from conftest import records

TEID_MAX = 2 ** 32 - 1

ids = st.text() | st.sampled_from(['a"b', "a\\b", "\x00\x1f\x7f", "é-ü", "☃",
                                   "\U0001f680", "\ud800", "%", "%d", "%%",
                                   "a%rb"])
times = (st.floats(allow_nan=False, allow_infinity=False)
         | st.sampled_from([0.0, 1e-07, 0.1 + 0.2, 2.000000000001,
                            123456789.123456789, 1e300]))
counts = st.integers(min_value=0, max_value=2 ** 63)
teids = st.lists(st.integers(min_value=0, max_value=TEID_MAX), max_size=2)

# (row_head, the record's fields but pkt)
arrival_heads = st.builds(
    lambda loc, sub, fields: (row_head("Arrival", loc, sub, pkt=None,
                                       **fields), fields),
    ids, ids, st.fixed_dictionaries(dict(
        delivered=st.booleans(), depth=counts, teids=teids, wire_size=counts)))
departure_heads = st.builds(
    lambda loc, sub, fields: (row_head("Departure", loc, sub, pkt=None,
                                       **fields), fields),
    ids, ids, st.fixed_dictionaries(dict(
        depth=counts, dst=ids, src=ids, teids=teids, wire_size=counts)))


@st.composite
def hop_rows(draw):
    """Hop rows and their records' fields, several rows sharing a head."""
    heads = draw(st.lists(arrival_heads | departure_heads, min_size=1,
                          max_size=4))
    rows = draw(st.lists(st.tuples(times, st.sampled_from(heads), counts),
                         min_size=1, max_size=8))
    return [((t, head, pkt), dict(fields, pkt=pkt))
            for t, (head, fields), pkt in rows]


# Events of each kind that goes through emit(**fields), with the fields the
# engine gives them: (time, kind, location, subject, fields). Their ids and
# details are drawn as the hops' ids are.
words = st.sampled_from(["no-route", "NoDonorCoverage", "Idle", "Active"])
generic = st.lists(st.one_of(
    st.builds(lambda t, loc, flow, fields: (t, "Drop", loc, flow,
                                            dict(fields, flow=flow)),
              times, ids, ids, st.fixed_dictionaries(dict(
                  pkt=counts, cause=words, depth=counts, wire_size=counts,
                  teids=teids), optional=dict(detail=ids))),
    st.builds(lambda t, loc, fields: (t, "Drop", "scenario", loc, fields),
              times, ids, st.fixed_dictionaries(dict(cause=words,
                                                     detail=ids))),
    st.builds(lambda t, entity, fields: (t, "StateTransition", entity, entity,
                                         fields),
              times, ids, st.fixed_dictionaries(dict(
                  from_state=words, to_state=words, cause=words))),
    st.builds(lambda t, sub: (t, "Directive", "scenario", sub, dict(at=t)),
              times, ids),
    st.builds(lambda t: (t, "TimerExpiry", "control", "timer", {}), times),
), max_size=4)


def reference_line(time, seq, kind, location, subject, fields) -> str:
    rec = {"time": round(time, 12), "seq": seq, "kind": kind,
           "location": location, "subject": subject}
    for k in sorted(fields):
        rec[k] = fields[k]
    return json.dumps(rec)


@settings(max_examples=300, deadline=None)
@given(hop_rows(), generic)
def test_hop_rows_export_as_json_dumps(events, emitted):
    trace = Trace(mode="UpfReroute", seed=1)
    for row, _ in events:
        trace.pending.append(row)
    for time, kind, location, subject, fields in emitted:
        trace.emit(time, kind, location, subject, **fields)
    expected = [reference_line(row[0], seq, *row[1][:3], fields)
                for seq, (row, fields) in enumerate(events)]
    expected += [reference_line(time, seq, kind, loc, sub, fields)
                 for seq, (time, kind, loc, sub, fields)
                 in enumerate(emitted, start=len(events))]
    assert list(trace.to_jsonl_lines())[1:] == expected
    # The records are the lines, parsed.
    assert list(records(trace)) == [json.loads(line) for line in expected]


@settings(max_examples=100, deadline=None)
@given(arrival_heads, times, counts)
def test_emitted_hop_is_a_row_on_a_shared_head(head, time, pkt):
    (_, location, subject, _), fields = head
    shared, emitted = (Trace(mode="BapBypass", seed=2) for _ in range(2))
    shared.pending.append((time, head[0], pkt))
    emitted.emit(time, "Arrival", location, subject, pkt=pkt, **fields)
    assert list(emitted.to_jsonl_lines()) == list(shared.to_jsonl_lines())


# Times at and next to the edges of [1e-4, 4096), the range where the export
# writes "%.12f" % time without trailing zeros; whole times, which keep one
# zero after the point; times of 12 places, k / 1e12, in and out of the range
# (1e-4 - 1e-12 is written 9.9999999e-05); and a time whose "%.12f" text is
# longer than its rounded repr.
EDGE_TIMES = [math.nextafter(1e-4, 0), 1e-4, math.nextafter(4096.0, 0),
              4096.0, 1.0, 7.0, 5 / 1e12, 99_999_999 / 1e12,
              100_000_001 / 1e12, 2_000_000_000_001 / 1e12,
              4_095_999_999_999_999 / 1e12, 1e10 + 0.1]


def timer_lines(times) -> list[str]:
    """The exported lines of one TimerExpiry row at each of `times`."""
    trace = Trace(mode="UpfReroute", seed=1)
    for time in times:
        trace.emit(time, "TimerExpiry", "control", "timer")
    return list(trace.to_jsonl_lines())[1:]


@pytest.mark.parametrize("time", EDGE_TIMES, ids=repr)
def test_time_text_at_the_range_edges(time):
    assert timer_lines([time]) == [
        reference_line(time, 0, "TimerExpiry", "control", "timer", {})]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(min_value=1e-4, max_value=4096.0,
                          exclude_max=True), min_size=1, max_size=16))
def test_time_text_in_the_one_conversion_range(times):
    assert timer_lines(times) == [
        reference_line(time, seq, "TimerExpiry", "control", "timer", {})
        for seq, time in enumerate(times)]


# (head, its fields but pkt, whether it has a pkt hole); values hold %d and
# %%, which the batch's one % must leave as they are.
BATCH_HEADS = [
    (row_head("Arrival", "du", "dl-%d", pkt=None, delivered=True, depth=1,
              teids=[7], wire_size=1016),
     dict(delivered=True, depth=1, teids=[7], wire_size=1016), True),
    (row_head("Drop", "scenario", "X", cause="no-route", detail="%d of %%s"),
     dict(cause="no-route", detail="%d of %%s"), False),
    (row_head("Departure", "l%%1", "ul", pkt=None, depth=0, dst="b",
              src="a%", teids=[], wire_size=100),
     dict(depth=0, dst="b", src="a%", teids=[], wire_size=100), True),
    (row_head("TimerExpiry", "control", "timer"), {}, False),
]
BATCH_TIMES = [0.0, 2e-6, 1.0, 4096.5]


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
def test_each_batch_exports_line_by_line(n):
    trace, expected = Trace(mode="BapBypass", seed=3), []
    for seq in range(n):
        head, fields, has_pkt = BATCH_HEADS[seq % 4]
        time = BATCH_TIMES[seq // 4 % 4]
        pkt = seq * 7 if has_pkt else None
        trace.pending.append((time, head, pkt))
        expected.append(reference_line(time, seq, *head[:3], dict(
            fields, pkt=pkt) if has_pkt else fields))
    lines = list(trace.to_jsonl_lines())
    assert lines == [json.dumps({"schema_version": 1, "record": "header",
                                 "mode": "BapBypass", "seed": 3}), *expected]
    out = io.BytesIO()
    digest = trace.write_jsonl(out)
    assert out.getvalue() == ("\n".join(lines) + "\n").encode()
    assert digest == hashlib.sha256(out.getvalue()).hexdigest()


# Chunks that the one %.*g fill prints: every time in [1e-4, 4096), less than
# 16 s from the chunk's first to its last. (name, times), unsorted as given.
FAST_CHUNKS = {
    # %g drops a whole time's ".0", and the fill puts it back; a time within
    # 5e-13 of an integer prints as that integer.
    "whole-times": [2.0, 1.5, 1.0, 15.0, 6.9999999999996, 7.0, 2.000000000001,
                    3.0000000000000004, 1.9999999999995, 1.9999999999996,
                    2.0000000000005, 2.0000000000004, 12.0, 1.0],
    # The chunk's last or first time is the one that prints as an integer.
    "whole-last": [1.5, 1.9999999999996],
    "whole-first": [2.0000000000004, 2.5],
    "decade-edges": [0.0999, 0.1, math.nextafter(0.1, 0), 0.10001, 0.99999,
                     1.0, math.nextafter(1.0, 0), 1.00001, 9.99, 10.0,
                     math.nextafter(10.0, 0), 10.5, 1e-3,
                     math.nextafter(1e-3, 0), 0.01, math.nextafter(0.01, 0)],
    # Each time has all 12 places: one precision would not print them all.
    "four-decades": [0.000123456789012, 0.123456789012, 1.123456789012,
                     12.123456789012, 0.012345678901],
    # The 12th place carries into the next decade.
    "round-up-across-a-decade": [9.9999999999996, 0.09999999999999996,
                                 0.9999999999996, 0.0009999999999996,
                                 0.009999999999999996],
    "round-up-to-100": [99.9999999999996, 100.5],
    "round-up-to-1000": [999.9999999999996, 1000.0000000000004, 1001.0],
    "round-up-to-4096": [4095.9999999999995, 4095.5],
    # 2**-13: its 13th place is a 5, a tie that rounds to the even 2.
    "tie": [0.0001220703125],
    "top-decade": [4095.999999999999, 4080.000000000001, 4090.25],
}


@pytest.mark.parametrize("times", FAST_CHUNKS.values(), ids=FAST_CHUNKS)
def test_fast_chunk_exports_as_json_dumps(times):
    assert timer_lines(times) == [
        reference_line(time, seq, "TimerExpiry", "control", "timer", {})
        for seq, time in enumerate(times)]


def test_chunk_mixing_edge_times_with_in_range_ones():
    # One time out of [1e-4, 4096) sends the whole chunk down the per-row
    # path; -0.0 keeps its sign there.
    times = [1.0, 0.0, 2.5, -0.0, 2e-6, 4096.0, 7.0, 1e-4,
             math.nextafter(1e-4, 0), 3.25, -1.5, 5000.0, 1e300, 1.0]
    assert timer_lines(times) == [
        reference_line(time, seq, "TimerExpiry", "control", "timer", {})
        for seq, time in enumerate(times)]


@pytest.mark.parametrize("times", [[1.0, math.nan, 2.5], [0.0, math.nan],
                                   [math.nan, 1.0]],
                         ids=["fast", "per-row", "nan-first"])
def test_nan_time_prints_nan_on_every_path(times):
    # json.dumps would print NaN; the export prints repr(round(t, 12)).
    seq = next(i for i, time in enumerate(times) if math.isnan(time))
    assert timer_lines(times)[seq].startswith(f'{{"time": nan, "seq": {seq}, ')


def test_an_emitted_int_time_prints_as_its_float():
    # An int's text would depend on its batch: 7 alone takes the one-fill
    # path, and beside a time of 0 the per-row one.
    assert timer_lines([7])[0].startswith('{"time": 7.0, "seq": 0, ')
    assert timer_lines([0, 7])[1].startswith('{"time": 7.0, "seq": 1, ')


@pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
def test_sorted_in_range_trace_exports_line_by_line(n):
    # A time every 1.25 ms from 0.5 s, as a run's rows come: each chunk spans
    # about 5 s and takes the one-fill path, across the decade edge at 1 s
    # and past whole times (1.0, 2.0, ...); every 7th time is 3e-13 off.
    trace, expected = Trace(mode="UpfReroute", seed=4), []
    for seq in range(n):
        head, fields, has_pkt = BATCH_HEADS[seq % 4]
        time = (400 + seq) / 800 + (3e-13 if seq % 7 == 0 else 0.0)
        pkt = seq * 3 if has_pkt else None
        trace.pending.append((time, head, pkt))
        expected.append(reference_line(time, seq, *head[:3], dict(
            fields, pkt=pkt) if has_pkt else fields))
    assert list(trace.to_jsonl_lines())[1:] == expected
    out = io.BytesIO()
    digest = trace.write_jsonl(out)
    assert out.getvalue().decode().split("\n")[1:-1] == expected
    assert digest == hashlib.sha256(out.getvalue()).hexdigest()
