"""Golden hashes of the bundled runs.

Any change to a byte of `trace.jsonl` for paper-reference or bap-compare, in
either mode at its scenario seed, fails here, and so does any change to a
value of their summaries (`json.dumps(summary, sort_keys=True)`). A change
that means to alter either says why and pins the new hashes.
"""
import hashlib
import json

import pytest

from iabsim import PathMode, Simulator, load_scenario

GOLDEN = [
    ("ref_reroute", PathMode.UPF_REROUTE, 7,
     "773c57bae2addac9e29371ac98e4447fe3a1051d903221697b3d31d850b9368d",
     "856aacdf60678b21843feaee16b8c7c0beffce5312fa74ca3e2302328df29a43"),
    ("ref_bap", PathMode.BAP_BYPASS, 7,
     "f25d49ce254a52962da40e27506d180b98e1873b4d57d87b7ed1e4150d8c8ab0",
     "4623fa13797ffdf69662a61e31428db6d76fa42a66fad69055f5dcdac7cf37b9"),
    ("compare_traces", PathMode.UPF_REROUTE, 11,
     "0d1e96d6dade3d0e4b44575e76e489c50287e4ce8ebcc067d8aac6162300bf17",
     "e2ac238838b37491c4f784cda3120238a10ebacb9f304f5d4e736fc9d8931667"),
    ("compare_traces", PathMode.BAP_BYPASS, 11,
     "df0dfb912749addb5bd2ec373fe2ac65bb9ec09ec8daeba054fd73a054d3afff",
     "c3a54b6f9400a62ca741cb16c838e5a4be002d11185388f75a7d71ec19bed030"),
]

# bap-compare at summary level: (content_hash, summary SHA-256) per mode.
COMPARE_SUMMARY_LEVEL = {
    PathMode.UPF_REROUTE: (
        "1dc1ca4ee0e8a493eb9f22f921c5e36f65888bba6ba43f0653585519104a0f0d",
        "bae90f069d8d0476f363e58c918ed1e8cf30baeb0611c0e86e8199c8ecfb7469"),
    PathMode.BAP_BYPASS: (
        "284301e424f734b5fb79b0f502036a681f4948653335012497d48369c1073f73",
        "59a70dbce6dc7773998a853e2b29d886decdf55fd843759747842d094e1a1100"),
}


def summary_sha256(summary: dict) -> str:
    return hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("fixture, mode, seed, digest, summary_digest", GOLDEN,
                         ids=[f"{f}-{m.value}" for f, m, *_ in GOLDEN])
def test_bundled_full_trace_hash_is_pinned(request, fixture, mode, seed,
                                           digest, summary_digest):
    run = request.getfixturevalue(fixture)
    trace, _ = run[mode] if fixture == "compare_traces" else run
    assert (trace.mode, trace.seed) == (mode.value, seed)
    assert trace.content_hash() == digest
    assert summary_sha256(trace.summary) == summary_digest


@pytest.mark.parametrize("mode", list(COMPARE_SUMMARY_LEVEL),
                         ids=[m.value for m in COMPARE_SUMMARY_LEVEL])
def test_bap_compare_summary_level_is_pinned(mode):
    trace = Simulator(load_scenario("bap-compare"), mode=mode,
                      trace_level="summary").run()
    assert (trace.content_hash(), summary_sha256(trace.summary)) \
        == COMPARE_SUMMARY_LEVEL[mode]
