"""Golden content hashes of the four bundled full-trace runs.

Any change to a byte of `trace.jsonl` for paper-reference or bap-compare, in
either mode at its scenario seed, fails here. A change that means to alter
the trace says why and pins the new hashes.
"""
import pytest

from iabsim import PathMode

GOLDEN = [
    ("ref_reroute", PathMode.UPF_REROUTE, 7,
     "773c57bae2addac9e29371ac98e4447fe3a1051d903221697b3d31d850b9368d"),
    ("ref_bap", PathMode.BAP_BYPASS, 7,
     "f25d49ce254a52962da40e27506d180b98e1873b4d57d87b7ed1e4150d8c8ab0"),
    ("compare_traces", PathMode.UPF_REROUTE, 11,
     "0d1e96d6dade3d0e4b44575e76e489c50287e4ce8ebcc067d8aac6162300bf17"),
    ("compare_traces", PathMode.BAP_BYPASS, 11,
     "df0dfb912749addb5bd2ec373fe2ac65bb9ec09ec8daeba054fd73a054d3afff"),
]


@pytest.mark.parametrize("fixture, mode, seed, digest", GOLDEN,
                         ids=[f"{f}-{m.value}" for f, m, _, _ in GOLDEN])
def test_bundled_full_trace_hash_is_pinned(request, fixture, mode, seed,
                                           digest):
    run = request.getfixturevalue(fixture)
    trace, _ = run[mode] if fixture == "compare_traces" else run
    assert (trace.mode, trace.seed) == (mode.value, seed)
    assert trace.content_hash() == digest
