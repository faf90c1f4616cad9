import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import iabsim
from iabsim import Simulator, load_scenario
from iabsim.cli import main
from iabsim.scenario_io import bundled_scenario_path
from iabsim.trace import Trace

from conftest import alias_chain, alias_expansion, merge_chain


GOOD = """
seed: 5
duration: 0.2
nodes:
  - {id: cu, role: CU, position: [0.0, -20.0]}
  - {id: upf, role: Upf, position: [0.0, -40.0]}
  - id: donor-du
    role: DonorDU
    position: [0.0, 0.0]
    tx_power: 23.0
    carrier: {band_label: n41, center_frequency: 2.585e9, bandwidth: 20.0e6, scs: 30.0e3}
  - {id: ue1, role: Ue, position: [50.0, 0.0], tx_power: 23.0}
links:
  - {id: f1-wire, a: cu, b: donor-du, medium: Wired, wired_capacity: 1.0e9, propagation_delay: 1.0e-6}
  - {id: n6-wire, a: cu, b: upf, medium: Wired, wired_capacity: 1.0e9, propagation_delay: 1.0e-6}
flows:
  - {id: dl-ue1, src: upf, dst: ue1, rate: 5.0e6, packet_size: 1000, start: 0.02, stop: 0.18}
"""


def run_child(args, **env):
    """`python -m iabsim.cli <args>` in a child process that imports this
    iabsim, with `env` added to its environment."""
    src = str(Path(iabsim.__file__).resolve().parent.parent)
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "iabsim.cli", *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.fixture
def good_file(tmp_path):
    p = tmp_path / "good.yaml"
    p.write_text(GOOD)
    return str(p)


class TestValidate:
    def test_ok_scenario_exits_zero(self, good_file, capsys):
        assert main(["validate", good_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bundled_name_accepted(self, capsys):
        assert main(["validate", "paper-reference"]) == 0

    def test_violations_exit_one(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text(GOOD.replace("tx_power: 23.0\n    carrier", "carrier"))
        assert main(["validate", str(p)]) == 1
        assert "violation:" in capsys.readouterr().out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        p = tmp_path / "typo.yaml"
        p.write_text(GOOD.replace("duration:", "durationn:"))
        assert main(["validate", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_file_not_utf8_exits_two(self, tmp_path, capsys):
        p = tmp_path / "latin.yaml"
        p.write_bytes(b"duration: 1\n\xff\xfe")
        assert main(["validate", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: ")

    def test_deeply_nested_file_exits_two(self, tmp_path, capsys):
        # It once ended in a raw RecursionError traceback with exit 1.
        p = tmp_path / "deep.yaml"
        p.write_text("duration: " + "[" * 5000 + "]" * 5000 + "\n")
        assert main(["validate", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: ")

    @pytest.mark.parametrize("text", ["duration: " + "[" * 100_000
                                      + "]" * 100_000,
                                      "- " * 100_000 + "x"],
                             ids=["flow", "block"])
    def test_nesting_far_past_the_limit_exits_two(self, tmp_path, text):
        # libyaml builds a document with recursive C calls: without the
        # depth check both files crashed the interpreter with SIGSEGV. The
        # child process keeps such a crash a failed assert (returncode -11).
        p = tmp_path / "deep.yaml"
        p.write_text(text)
        done = run_child(["validate", str(p)])
        assert done.returncode == 2
        assert done.stderr.startswith(f"error: {p}: ")

    @pytest.mark.parametrize("text, line", [(merge_chain(2000), 1),
                                            (alias_chain(3000), 1),
                                            (alias_expansion(9), 2)],
                             ids=["merge-chain", "alias-chain", "expansion"])
    def test_an_alias_exits_two(self, tmp_path, capsys, text, line):
        # Loading the merge chain once recursed 2,000 deep, and the alias
        # chain ended in a raw RecursionError traceback with exit 1. The
        # expansion file is 505 bytes, but its seed's last list holds 10**9
        # ones: at 5 levels the repr in its ParseError was 358,060 characters.
        p = tmp_path / "aliases.yaml"
        p.write_text(text)
        assert main(["validate", str(p)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {p}: line {line}: an alias is not allowed\n"
        assert len(err) < 200

    @pytest.mark.parametrize("key", ["radio", "carrier"])
    def test_link_radio_or_carrier_exits_two(self, tmp_path, capsys, key):
        # A wired link once loaded with either key and ignored it.
        value = {"radio": "{efficiency: 0.01}",
                 "carrier": "{band_label: n78, center_frequency: 3.47e9, "
                            "bandwidth: 30.0e6, scs: 30.0e3}"}[key]
        p = tmp_path / "link-key.yaml"
        p.write_text(GOOD.replace("propagation_delay: 1.0e-6}",
                                  f"propagation_delay: 1.0e-6, {key}: {value}}}",
                                  1))
        assert main(["validate", str(p)]) == 2
        assert capsys.readouterr().err \
            == f"error: {p}:links[0]: unknown key {key!r}\n"

    @pytest.mark.parametrize("old, new, error", [
        ("role: Ue", "role: IabMt", "ValueError: an IabMt comes only with its "
         "IAB node (add_iab_node, or its directive)"),
        ("role: Ue", "role: IabDu", "ValueError: an IabDu comes only with its "
         "IAB node (add_iab_node, or its directive)"),
        ("role: Ue,", "role: Ue, owner_group: uav1,", "unknown key 'owner_group'"),
    ], ids=["IabMt", "IabDu", "owner_group"])
    def test_iab_node_in_a_file_exits_two(self, tmp_path, capsys, old, new,
                                          error):
        # IAB nodes come only from an instantiate_iab_node directive.
        p = tmp_path / "iab-node.yaml"
        p.write_text(GOOD.replace(old, new, 1))
        assert main(["validate", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}:nodes[3]: {error}\n"

    def test_second_link_between_two_nodes_exits_two(self, tmp_path, capsys):
        # It validated, and f1-wire2 never carried a packet.
        p = tmp_path / "pair-twice.yaml"
        p.write_text(GOOD.replace("\nflows:", "\n  - {id: f1-wire2, a: cu, "
                                  "b: donor-du, medium: Wired, "
                                  "wired_capacity: 1.0e3}\nflows:"))
        assert main(["validate", str(p)]) == 2
        assert capsys.readouterr().err \
            == (f"error: {p}:links[2]: ValueError: cu and donor-du are already "
                f"linked, by f1-wire\n")

    @pytest.mark.parametrize("field, bad", [("packet_size: 1000", "packet_size: 0"),
                                            ("rate: 5.0e6", "rate: .inf")],
                             ids=["packet_size-0", "rate-inf"])
    def test_degenerate_flow_is_a_violation(self, tmp_path, capsys, field, bad):
        # Either value made the injection interval 0: the run never ended.
        p = tmp_path / "degenerate.yaml"
        p.write_text(GOOD.replace(field, bad))
        assert main(["validate", str(p)]) == 1
        assert "violation: flow dl-ue1" in capsys.readouterr().out


    def test_duplicate_link_id_exits_two(self, tmp_path, capsys):
        p = tmp_path / "dup.yaml"
        p.write_text(GOOD.replace("id: n6-wire", "id: f1-wire"))
        assert main(["validate", str(p)]) == 2
        assert "links[1]: ValueError: duplicate link id 'f1-wire'" in \
            capsys.readouterr().err

    def test_missing_n6_link_is_a_violation(self, tmp_path, capsys):
        # It once validated: UpfReroute then aborted with TransportDown and
        # BapBypass exited 0 with every packet dropped.
        text = bundled_scenario_path("bap-compare").read_text()
        n6 = next(line for line in text.splitlines(keepends=True)
                  if "id: n6-wire" in line)
        p = tmp_path / "no-n6.yaml"
        p.write_text(text.replace(n6, ""))
        assert main(["validate", str(p)]) == 1
        assert "violation: CU has no wired UPF" in capsys.readouterr().out

    def test_flow_named_like_an_f1_association_is_a_violation(self, tmp_path,
                                                               capsys):
        # It once ran with exit 0 and merged the F1 deliveries into the
        # flow's: delivered 1864 of 1858 injected, in_flight -6.
        p = tmp_path / "f1c.yaml"
        text = bundled_scenario_path("bap-compare").read_text()
        assert "dl-ue1" in text
        p.write_text(text.replace("dl-ue1", "f1c:donor-du"))
        assert main(["validate", str(p)]) == 1
        assert ("violation: flow id f1c:donor-du: the f1c: prefix names F1 "
                "associations" in capsys.readouterr().out)

    def test_non_finite_directive_position_is_a_violation(self, tmp_path,
                                                         capsys):
        # It once validated, and the run exited 0 with dl-ue2 delivering
        # nothing: the directive was a NoDonorCoverage Drop.
        p = tmp_path / "nan.yaml"
        text = bundled_scenario_path("bap-compare").read_text()
        assert text.count("position: [880.0, 0.0]") == 1
        p.write_text(text.replace("position: [880.0, 0.0]",
                                  "position: [.nan, 0.0]"))
        assert main(["validate", str(p)]) == 1
        assert ("violation: IabNodeDirective at t=0.5: position must be "
                "finite" in capsys.readouterr().out)

    @pytest.mark.parametrize("x", [".nan", ".inf"])
    def test_non_finite_node_position_is_a_violation(self, tmp_path, capsys,
                                                     x):
        # It was a ParseError, exit 2, from add_node; the NaN of a node set
        # in code validated, and each of its packets was a no-route Drop.
        p = tmp_path / "nan.yaml"
        text = bundled_scenario_path("bap-compare").read_text()
        assert text.count("position: [6000.0, 0.0]") == 1
        p.write_text(text.replace("position: [6000.0, 0.0]",
                                  f"position: [{x}, 0.0]"))
        assert main(["validate", str(p)]) == 1
        assert ("violation: node ue2: position must be finite"
                in capsys.readouterr().out)

    def test_update_of_unknown_du_is_a_violation(self, tmp_path, capsys):
        # It once validated, and the run recorded a NotActive Drop.
        p = tmp_path / "ghost.yaml"
        p.write_text(bundled_scenario_path("bap-compare").read_text() + (
            "  - {at: 1.0, kind: du_config_update, du: ghost, carrier: "
            "{band_label: n41, center_frequency: 2.585e9, bandwidth: 20.0e6, "
            "scs: 30.0e3}}\n"))
        assert main(["validate", str(p)]) == 1
        assert ("violation: DuConfigUpdateDirective at t=1.0: unknown DU ghost"
                in capsys.readouterr().out)


class TestRun:
    def test_artifacts_written(self, good_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", good_file, "--out", str(out)]) == 0
        assert (out / "trace.jsonl").exists()
        assert (out / "summary.json").exists()
        assert (out / "flows.tsv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "UpfReroute"
        assert "dl-ue1" in summary["flows"]
        tsv = (out / "flows.tsv").read_text().splitlines()
        assert tsv[0].startswith("flow_id\t") and len(tsv) == 2

    def test_reruns_are_byte_identical(self, good_file, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", good_file, "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("trace.jsonl", "summary.json", "flows.tsv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_mode_alias_and_summary_level(self, good_file, tmp_path, capsys):
        out = tmp_path / "bap"
        assert main(["run", good_file, "--mode", "bap", "--out", str(out),
                     "--trace-level", "summary"]) == 0
        assert not (out / "trace.jsonl").exists()
        assert "trace_sha256" not in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "BapBypass"

    def test_seed_override_recorded(self, good_file, tmp_path, capsys):
        out = tmp_path / "seeded"
        assert main(["run", good_file, "--seed", "42", "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == 42

    def test_summary_identical_across_hash_seeds(self, tmp_path):
        outs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"hashseed{hash_seed}"
            run_child(["run", "bap-compare", "--trace-level", "summary",
                       "--out", str(out)], PYTHONHASHSEED=hash_seed
                      ).check_returncode()
            outs.append((out / "summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_run_time_link_skips_a_file_link_id(self, tmp_path, capsys):
        # ue1's access link once took the id l1 too, and summary.json merged
        # l1:cu->donor-du with l1:donor-du->ue1.
        p = tmp_path / "l1.yaml"
        p.write_text(GOOD.replace("id: f1-wire", "id: l1"))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out", str(out),
                     "--trace-level", "summary"]) == 0
        links = json.loads((out / "summary.json").read_text())["links"]
        assert sorted(links) == ["l1:cu->donor-du", "l1:donor-du->cu",
                                 "l2:donor-du->ue1", "n6-wire:upf->cu"]

    def test_failed_scenario_assert_exits_one(self, tmp_path, capsys):
        p = tmp_path / "asserted.yaml"
        p.write_text(GOOD + (
            "asserts:\n"
            "  - {flow: dl-ue1, window: [0.0, 0.2], min_goodput_bps: 1.0e9}\n"))
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
        assert "assert failed" in capsys.readouterr().out

    # A latency bound is no assert: it ignored the assert's window, and no
    # workload set one.
    @pytest.mark.parametrize("bound, code, failed", [
        ("max_goodput_bps: 1.0", 1, "dl-ue1: goodput 4.000e+06 > max "
                                    "1.000e+00 in window (0.0, 0.2)"),
        ("max_mean_latency_s: 1.0e-9", 2, None),
    ], ids=["max-goodput", "max-mean-latency"])
    def test_failed_upper_bound_exits_one(self, tmp_path, capsys, bound, code,
                                          failed):
        p = tmp_path / "bounded.yaml"
        p.write_text(GOOD + (
            f"asserts:\n  - {{flow: dl-ue1, window: [0.0, 0.2], {bound}}}\n"))
        assert main(["run", str(p), "--out", str(tmp_path / "o"),
                     "--trace-level", "summary"]) == code
        captured = capsys.readouterr()
        failures = [line for line in captured.out.splitlines()
                    if line.startswith("assert failed: ")]
        if failed is None:
            assert failures == [] and captured.err == (
                f"error: {p}:asserts[0]: unknown key 'max_mean_latency_s'\n")
        else:
            assert len(failures) == 1 and failures[0].startswith(
                f"assert failed: {failed}"), failures

    # Each once ended in a raw traceback: a ZeroDivisionError from the MT's
    # uplink capacity of 0, or an OverflowError from 10 ** (snr / 10). A
    # negative exponent and a 5,000 dBm IAB DU once ran to 0 or 1: the first
    # is now refused as malformed, and the second as invalid. `error` is all
    # of stderr after `error: `, and after the file name on exit 2.
    @pytest.mark.parametrize("old, new, codes, error", [
        ("tdd_dl_fraction: 0.7", "tdd_dl_fraction: 1.0", (0, 1), None),
        ("    tx_power: 43.0", "    tx_power: 5000.0", (1,),
         "ScenarioInvalid: IabNodeDirective at t=0.5: tx_power must be in "
         "[-100, 80] dBm"),
        ("pathloss_exponent: 2.2", "pathloss_exponent: -400.0", (2,),
         "radio_defaults: ValueError: pathloss_exponent must not be negative"),
        ("noise_figure: 7.0", "noise_figure: -1.0e300", (2,),
         "radio_defaults: ValueError: noise_figure must not be negative"),
    ], ids=["no-uplink-share", "huge-tx-power", "negative-exponent",
            "negative-noise-figure"])
    @pytest.mark.parametrize("mode", ["upf", "bap"])
    def test_extreme_radio_numbers_run_to_an_exit_code(self, tmp_path, capsys,
                                                       old, new, codes, error,
                                                       mode):
        text = bundled_scenario_path("bap-compare").read_text()
        assert old in text
        p = tmp_path / "extreme.yaml"
        p.write_text(text.replace(old, new, 1))
        code = main(["run", str(p), "--mode", mode,
                     "--out", str(tmp_path / "o")])
        assert code in codes
        err = capsys.readouterr().err
        assert err == ("" if error is None else
                       f"error: {p}:{error}\n" if code == 2 else
                       f"error: {error}\n")

    def test_huge_packet_is_a_violation_not_a_traceback(self, tmp_path,
                                                          capsys):
        # It passed validation, and _transmit raised OverflowError.
        text = bundled_scenario_path("bap-compare").read_text()
        p = tmp_path / "huge-packet.yaml"
        p.write_text(text.replace("packet_size: 1400", "packet_size: 1.0e308",
                                  1))
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: ScenarioInvalid: flow dl-ue1: packet size must be 1 to "
            "65535 bytes\n")

    def test_non_finite_summary_value_exits_one_writing_nothing(
            self, good_file, tmp_path, capsys, monkeypatch):
        # json.dumps wrote a bare NaN, which is no JSON, and exited 0.
        run = Simulator.run

        def with_nan(self):
            trace = run(self)
            trace.summary["flows"]["dl-ue1"]["mean_latency_s"] = float("nan")
            return trace
        monkeypatch.setattr(Simulator, "run", with_nan)
        out = tmp_path / "o"
        assert main(["run", good_file, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: summary.json: Out of range float "
                                "values are not JSON compliant: nan\n")
        assert captured.out == "" and list(out.iterdir()) == []

    def test_unknown_mode_is_a_usage_error(self, good_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["run", good_file, "--mode", "nonsense",
                  "--out", str(tmp_path / "o")])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unknown mode 'nonsense'" in err

    def test_out_naming_a_file_exits_two_before_the_run(
            self, good_file, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        monkeypatch.setattr(Simulator, "run",
                            lambda self: pytest.fail("the run started"))
        assert main(["run", good_file, "--out", str(blocker)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --out {blocker}")
        assert captured.out == ""

    def test_unwritable_output_file_exits_two(self, good_file, tmp_path,
                                              capsys):
        out = tmp_path / "d"
        (out / "summary.json").mkdir(parents=True)
        assert main(["run", good_file, "--out", str(out),
                     "--trace-level", "summary"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --out {out / 'summary.json'}: ")
        assert captured.out == ""


def _sha256_of_lines(trace) -> str:
    """Reference digest: every export line and its newline, hashed in order."""
    h = hashlib.sha256()
    for line in trace.to_jsonl_lines():
        h.update(line.encode() + b"\n")
    return h.hexdigest()


class TestStreamedExport:
    def test_file_digest_matches_report_and_fresh_run(self, good_file, tmp_path,
                                                      capsys):
        out = tmp_path / "out"
        assert main(["run", good_file, "--out", str(out)]) == 0
        printed = re.search(r"trace_sha256=([0-9a-f]{64})\n",
                            capsys.readouterr().out).group(1)
        written = hashlib.sha256((out / "trace.jsonl").read_bytes()).hexdigest()
        fresh = Simulator(load_scenario(good_file)).run()
        assert written == printed == fresh.content_hash()
        assert written == _sha256_of_lines(fresh)

    def test_empty_trace_exports_header_line(self):
        trace = Trace(mode="UpfReroute", seed=3)
        fh = io.BytesIO()
        digest = trace.write_jsonl(fh)
        header = (b'{"schema_version": 1, "record": "header", '
                  b'"mode": "UpfReroute", "seed": 3}\n')
        assert fh.getvalue() == header
        assert digest == hashlib.sha256(header).hexdigest() == trace.content_hash()

    def test_content_hash_recomputed_after_change(self, good_file):
        trace = Simulator(load_scenario(good_file)).run()
        stored = trace.write_jsonl(io.BytesIO())
        assert trace.content_hash() == stored
        trace.emit(1.0, "Directive", location="scenario", subject="extra")
        assert trace.content_hash() == _sha256_of_lines(trace) != stored
        after_emit = trace.content_hash()
        trace.seed += 1
        assert trace.content_hash() == _sha256_of_lines(trace) != after_emit


class TestCompare:
    def _summary(self, good_file, tmp_path, name, mode):
        out = tmp_path / name
        assert main(["run", good_file, "--mode", mode, "--out", str(out),
                     "--trace-level", "summary"]) == 0
        return str(out / "summary.json")

    def test_identity_compare_shows_zero_deltas(self, good_file, tmp_path, capsys):
        s = self._summary(good_file, tmp_path, "x", "upf")
        capsys.readouterr()
        assert main(["compare", s, s]) == 0
        out = capsys.readouterr().out
        assert "goodput +0.000e+00 bps" in out
        assert "total header bytes: +0" in out

    def test_flow_in_one_summary_only_is_named(self, good_file, tmp_path,
                                              capsys):
        s = self._summary(good_file, tmp_path, "x", "upf")
        doc = json.loads(open(s).read())
        doc["flows"]["extra"] = doc["flows"]["dl-ue1"]
        other = tmp_path / "more.json"
        other.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["compare", s, str(other)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "flow extra: only in one trace" in out
        assert any(line.startswith("flow dl-ue1: goodput +0.000e+00")
                   for line in out)

    def test_schema_mismatch_exits_two(self, good_file, tmp_path, capsys):
        s = self._summary(good_file, tmp_path, "x", "upf")
        doc = json.loads(open(s).read())
        doc["schema_version"] = 999
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["compare", s, str(bad)]) == 2

    # Each equals 1, and once compared as version 1 with exit 0.
    @pytest.mark.parametrize("version", [True, 1.0])
    def test_a_version_of_another_type_exits_two(self, good_file, tmp_path,
                                                 capsys, version):
        s = self._summary(good_file, tmp_path, "x", "upf")
        doc = json.loads(open(s).read())
        doc["schema_version"] = version
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["compare", s, str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: schema_version {version!r}, expected 1\n")

    def test_garbage_summary_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        bad.write_text("{not json")
        assert main(["compare", str(bad), str(bad)]) == 2

    @pytest.mark.parametrize("missing", ["mode", "flows", "totals"])
    def test_summary_without_a_key_exits_two(self, good_file, tmp_path,
                                             capsys, missing):
        s = self._summary(good_file, tmp_path, "x", "upf")
        doc = json.loads(open(s).read())
        del doc[missing]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["compare", s, str(bad)]) == 2
        assert f"error: {bad}: no '{missing}' key" in capsys.readouterr().err

    def test_summary_not_an_object_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1]")
        assert main(["compare", str(bad), str(bad)]) == 2
        assert "not a JSON object" in capsys.readouterr().err

    def test_deeply_nested_summary_exits_two(self, tmp_path, capsys):
        # It once ended in a raw RecursionError traceback with exit 1.
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["compare", str(bad), str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_summary_not_utf8_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "latin.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["compare", str(bad), str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("flows, totals, named", [
        ({}, {}, "no 'totals.header_bytes' key"),
        ({"f": {}}, {"header_bytes": 0}, "no 'flows.f.goodput_bps' key"),
        ([], {"header_bytes": 0}, "'flows' is not an object"),
        ({"f": dict(goodput_bps=1.0, mean_latency_s=0.0, mean_hop_count=3,
                    overhead_bytes=1.5)}, {"header_bytes": 0},
         "'flows.f.overhead_bytes' is not an integer"),
    ])
    def test_summary_of_the_wrong_shape_exits_two(self, tmp_path, capsys,
                                                  flows, totals, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "mode": "x",
                                   "flows": flows, "totals": totals}))
        assert main(["compare", str(bad), str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {named}\n"
