"""Smoke tests of scripts/: each runs on bap-compare, exits 0 and reports."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_reference_reports_both_modes():
    lines = run_script("run_reference.py", "--scenario", "bap-compare")
    assert ("UpfReroute: example F1 uplink path "
            "uav1-du -> uav1-mt -> donor-du -> cu -> upf -> cu") in lines
    assert ("BapBypass: example F1 uplink path "
            "uav1-du -> uav1-mt -> donor-du -> cu") in lines
    assert ("BapBypass: UE2 downlink path "
            "upf -> cu -> donor-du -> uav1-mt -> uav1-du -> ue2") in lines
    rows = [line.split() for line in lines if line.startswith(("UpfReroute ",
                                                               "BapBypass "))]
    # mode, steady Mbit/s, latency ms, hops, flow overhead B, total header B
    assert [(r[0], r[3]) for r in rows] == [("UpfReroute", "8.00"),
                                            ("BapBypass", "6.00")]
    # bap-compare has no goodput assert: the steady window is dl-ue2's own
    # [start, stop), where it is delivered in full in both modes.
    assert all(float(r[1]) > 19.0 for r in rows)
