"""The trace-replay oracle on the bundled scenarios' full-level runs: the
exported records alone give the summary's per-link and per-flow counts, and
the header stack each mode puts on UE2's downlink over the backhaul."""
import copy

import pytest

from iabsim import PathMode

RUNS = [("ref_reroute", PathMode.UPF_REROUTE),
        ("ref_bap", PathMode.BAP_BYPASS),
        ("compare_traces", PathMode.UPF_REROUTE),
        ("compare_traces", PathMode.BAP_BYPASS)]
IDS = ["reference-reroute", "reference-bap", "compare-reroute", "compare-bap"]


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
