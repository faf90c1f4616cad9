"""Command-line entry point: validate / run / compare.

Exit codes: 0 success, 1 violations or failed scenario assertions,
2 parse/usage errors, among them any malformed scenario file: its ParseError
names the entry (the README lists what counts as malformed).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import Simulator, measure_throughput
from .errors import IabSimError, ParseError, SchemaMismatch
from .gtp import PathMode
from .scenario_io import load_scenario
from .topology import validate_topology
from .trace import SCHEMA_VERSION


def _mode(value: str) -> PathMode:
    """The --mode argument: a PathMode value or an alias of one."""
    aliases = {"upf": PathMode.UPF_REROUTE, "reroute": PathMode.UPF_REROUTE,
               "bap": PathMode.BAP_BYPASS, "bypass": PathMode.BAP_BYPASS}
    if value in aliases:
        return aliases[value]
    try:
        return PathMode(value)
    except ValueError:
        names = ", ".join([m.value for m in PathMode] + list(aliases))
        raise argparse.ArgumentTypeError(
            f"unknown mode {value!r}, expected one of {names}") from None


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    report = validate_topology(scenario)
    if report.ok:
        print(f"{args.scenario}: OK "
              f"({len(scenario.nodes)} nodes, {len(scenario.links)} links, "
              f"{len(scenario.flows)} flows)")
        return 0
    for v in report.violations:
        print(f"violation: {v}")
    return 1


def _check_asserts(scenario, trace) -> list[str]:
    failures = []
    for a in scenario.asserts:
        goodput = measure_throughput(trace, a.flow, a.window)
        if a.min_goodput_bps is not None and goodput < a.min_goodput_bps:
            failures.append(f"{a.flow}: goodput {goodput:.3e} < min "
                            f"{a.min_goodput_bps:.3e} in window {a.window}")
        if a.max_goodput_bps is not None and goodput > a.max_goodput_bps:
            failures.append(f"{a.flow}: goodput {goodput:.3e} > max "
                            f"{a.max_goodput_bps:.3e} in window {a.window}")
    return failures


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    sim = Simulator(scenario, mode=args.mode, seed=args.seed,
                    trace_level=args.trace_level)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: --out {out}: {exc}", file=sys.stderr)
        return 2
    trace = sim.run()
    try:  # a NaN or an infinity is no JSON: refused before any file is written
        summary = json.dumps(trace.summary, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        print(f"error: summary.json: {exc}", file=sys.stderr)
        return 1
    report = (f"mode={trace.mode} seed={trace.seed} "
              f"events={trace.summary['totals']['events']}")
    try:
        if args.trace_level == "full":
            with (out / "trace.jsonl").open("wb") as fh:
                report += f" trace_sha256={trace.write_jsonl(fh)}"
        (out / "summary.json").write_text(summary)
        with (out / "flows.tsv").open("w") as fh:
            cols = ["flow_id", "offered_bps", "goodput_bps", "mean_latency_s",
                    "delivered", "dropped", "mean_hop_count", "overhead_bytes"]
            fh.write("\t".join(cols) + "\n")
            for fid, row in trace.summary["flows"].items():
                fh.write("\t".join(str(row[c]) for c in cols) + "\n")
    except OSError as exc:
        print(f"error: --out {exc.filename or out}: {exc}", file=sys.stderr)
        return 2

    print(report)
    for fid, row in trace.summary["flows"].items():
        print(f"flow {fid}: goodput {row['goodput_bps'] / 1e6:.3f} Mbit/s, "
              f"delivered {row['delivered']}, dropped {row['dropped']}, "
              f"mean latency {row['mean_latency_s'] * 1e3:.3f} ms")
    failures = _check_asserts(scenario, trace)
    for f in failures:
        print(f"assert failed: {f}")
    return 1 if failures else 0


# JSON types a summary's values are checked against: (Python types, name).
_OBJECT = ((dict,), "an object")
_NUMBER = ((int, float), "a number")
_INTEGER = ((int,), "an integer")
# What cmd_compare reads of each flow.
_FLOW_KEYS = {"goodput_bps": _NUMBER, "mean_latency_s": _NUMBER,
              "mean_hop_count": _NUMBER, "overhead_bytes": _INTEGER}


def _get(path: str, doc: dict, key: str, kind: tuple, where: str = ""):
    """doc[key], which must be of JSON type `kind`; the ParseError names the
    file and the key, `where` its parents."""
    if key not in doc:
        raise ParseError(f"{path}: no {where + key!r} key")
    if type(doc[key]) not in kind[0]:  # so a JSON true is no number
        raise ParseError(f"{path}: {where + key!r} is not {kind[1]}")
    return doc[key]


def _load_summary(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not UTF-8 or not JSON; RecursionError: nested too deep
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: not a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # true == 1
        raise SchemaMismatch(f"{path}: schema_version {version!r}, "
                             f"expected {SCHEMA_VERSION}")
    if "mode" not in doc:
        raise ParseError(f"{path}: no 'mode' key")
    flows = _get(path, doc, "flows", _OBJECT)
    for fid in flows:
        flow = _get(path, flows, fid, _OBJECT, "flows.")
        for key, kind in _FLOW_KEYS.items():
            _get(path, flow, key, kind, f"flows.{fid}.")
    _get(path, _get(path, doc, "totals", _OBJECT), "header_bytes", _INTEGER,
         "totals.")
    return doc


def cmd_compare(args) -> int:
    a = _load_summary(args.trace_a)
    b = _load_summary(args.trace_b)
    flows = sorted(set(a["flows"]) | set(b["flows"]))
    print(f"comparing {args.trace_a} ({a['mode']}) vs {args.trace_b} ({b['mode']})")
    for fid in flows:
        fa, fb = a["flows"].get(fid), b["flows"].get(fid)
        if fa is None or fb is None:
            print(f"flow {fid}: only in one trace")
            continue
        print(f"flow {fid}: "
              f"goodput {fb['goodput_bps'] - fa['goodput_bps']:+.3e} bps, "
              f"latency {fb['mean_latency_s'] - fa['mean_latency_s']:+.6f} s, "
              f"hops {fb['mean_hop_count'] - fa['mean_hop_count']:+.2f}, "
              f"overhead {fb['overhead_bytes'] - fa['overhead_bytes']:+d} B")
    da = a["totals"]["header_bytes"]
    db = b["totals"]["header_bytes"]
    print(f"total header bytes: {db - da:+d}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="iabsim",
        description="Deterministic simulator of a 5G IAB network with an "
                    "aerial DU. Bundled scenarios: paper-reference, bap-compare.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a scenario file")
    v.add_argument("scenario")
    v.set_defaults(fn=cmd_validate)

    r = sub.add_parser("run", help="run a scenario and write artifacts")
    r.add_argument("scenario")
    r.add_argument("--mode", type=_mode, default="UpfReroute",
                   help="UpfReroute (default) or BapBypass; 'bap' works too")
    r.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    r.add_argument("--out", default="out", help="output directory")
    r.add_argument("--trace-level", choices=("summary", "full"), default="full")
    r.set_defaults(fn=cmd_run)

    c = sub.add_parser("compare", help="diff two run summaries")
    c.add_argument("trace_a")
    c.add_argument("trace_b")
    c.set_defaults(fn=cmd_compare)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, SchemaMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IabSimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
