"""The trace-replay oracle on the bundled scenarios' full-level runs: the
exported records alone give the summary's per-link and per-flow counts, the
packets still on the way at the end, the header stack each mode puts on
UE2's downlink over the backhaul, and the serialization, propagation and
FIFO order of every link hop."""
import copy

import pytest

from iabsim import PathMode, load_scenario
from iabsim.topology import Medium

from conftest import in_flight
from replay import Replay

RUNS = [("ref_reroute", PathMode.UPF_REROUTE),
        ("ref_bap", PathMode.BAP_BYPASS),
        ("compare_traces", PathMode.UPF_REROUTE),
        ("compare_traces", PathMode.BAP_BYPASS)]
IDS = ["reference-reroute", "reference-bap", "compare-reroute", "compare-bap"]
SCENARIOS = {"ref_reroute": "paper-reference", "ref_bap": "paper-reference",
             "compare_traces": "bap-compare"}


def trace_of(request, fixture, mode):
    value = request.getfixturevalue(fixture)
    trace, _ = value[mode] if fixture == "compare_traces" else value
    assert trace.mode == mode.value
    return trace


@pytest.mark.parametrize("fixture, mode", RUNS, ids=IDS)
def test_records_give_the_summary(request, replay, fixture, mode):
    trace = trace_of(request, fixture, mode)
    assert replay(trace).mismatches(trace.summary) == []


@pytest.mark.parametrize("fixture, mode", RUNS, ids=IDS)
def test_records_give_the_packets_on_the_way(request, replay, fixture, mode):
    # None here: every packet these runs inject has ended by their end.
    trace = trace_of(request, fixture, mode)
    assert replay(trace).unfinished(trace.summary) == in_flight(trace) == 0


@pytest.mark.parametrize("fixture, mode", RUNS, ids=IDS)
def test_ue2_crosses_the_backhaul_at_depth_two(request, replay, fixture,
                                                mode):
    # Two GTP layers under UpfReroute; under BapBypass the outer header is
    # BAP, which has no TEID.
    stacks = replay(trace_of(request, fixture, mode)).stacks[
        "dl-ue2", "donor-du", "uav1-mt"]
    teids = 2 if mode is PathMode.UPF_REROUTE else 1
    assert set(stacks) == {(2, teids)} and stacks[2, teids] > 0


@pytest.mark.parametrize("where", [("links", "bytes_total"),
                                   ("links", "packets"),
                                   ("flows", "delivered"),
                                   ("flows", "dropped")])
def test_a_summary_off_by_one_is_caught(compare_traces, replay, where):
    trace, _ = compare_traces[PathMode.UPF_REROUTE]
    section, key = where
    for name in trace.summary[section]:
        summary = copy.deepcopy(trace.summary)
        summary[section][name][key] += 1
        assert replay(trace).mismatches(summary)


def wired_links(name):
    """The wired links of a bundled scenario file, by id."""
    return {link.id: link for link in load_scenario(name).links
            if link.medium is Medium.WIRED}


@pytest.mark.parametrize("fixture, mode", RUNS, ids=IDS)
def test_records_follow_the_link_model(request, replay, fixture, mode):
    trace = trace_of(request, fixture, mode)
    assert replay(trace).queue_mismatches(
        wired_links(SCENARIOS[fixture]), trace.summary["duration_s"]) == []


def test_a_link_model_break_is_caught():
    link = wired_links("bap-compare")["n6-wire"]  # 1 Gbit/s, 1 us
    serialize = 1000 * 8 / link.wired_capacity_bps

    def mismatches(gap=serialize, delay=1e-6, arrive=True, end=1.0):
        records = []
        for pkt, t in enumerate((0.0, gap)):
            records.append(dict(kind="Departure", time=t, subject="f",
                                pkt=pkt, location="n6-wire", src="cu",
                                dst="upf", wire_size=1000, depth=0,
                                teids=[]))
            if arrive or pkt == 0:  # else the second packet is lost
                records.append(dict(kind="Arrival", time=t + delay,
                                    subject="f", pkt=pkt, location="upf",
                                    delivered=True))
        records.sort(key=lambda r: r["time"])
        return Replay(records).queue_mismatches({"n6-wire": link}, end)

    assert mismatches() == []
    assert mismatches(gap=serialize * 0.99)  # serialized too fast
    assert mismatches(delay=1e-6 + 1e-9)  # a late Arrival
    assert mismatches(arrive=False)  # lost on the wire
    # still on the wire when the run ends
    assert mismatches(arrive=False, end=serialize + 0.5e-6) == []


def test_a_fifo_break_is_caught():
    link = wired_links("bap-compare")["n6-wire"]  # 1 Gbit/s, 1 us
    serialize = 1000 * 8 / link.wired_capacity_bps

    def mismatches(arrivals, lefts):
        """Packets 0 and 1 of flow "f" arrive at the cu at `arrivals` (None:
        it enters the network there), and leave for the upf at `lefts`."""
        records = []
        for pkt, (arrived, left) in enumerate(zip(arrivals, lefts)):
            if arrived is not None:  # from the du, over a link 1 us long
                records += [dict(kind="Departure", time=arrived - 1e-6,
                                 subject="f", pkt=pkt, location="du-wire",
                                 src="du", dst="cu", wire_size=1000, depth=0,
                                 teids=[]),
                            dict(kind="Arrival", time=arrived, subject="f",
                                 pkt=pkt, location="cu", delivered=False)]
            records += [dict(kind="Departure", time=left, subject="f",
                             pkt=pkt, location="n6-wire", src="cu", dst="upf",
                             wire_size=1000, depth=0, teids=[]),
                        dict(kind="Arrival", time=left + 1e-6, subject="f",
                             pkt=pkt, location="upf", delivered=True)]
        records.sort(key=lambda r: r["time"])
        return Replay(records).queue_mismatches({"n6-wire": link}, 1.0)

    in_order, swapped = (serialize, 2 * serialize), (2 * serialize, serialize)
    for arrivals in ((1e-6, 1.1e-6), (None, None)):
        assert mismatches(arrivals, in_order) == []
        found = mismatches(arrivals, swapped)
        assert len(found) == 1 and "before one queued earlier" in found[0]
    # Queued at one time, or one arrived and one entered: either order.
    assert mismatches((1e-6, 1e-6), swapped) == []
    assert mismatches((None, 1e-6), swapped) == []
