"""Every imported name is read somewhere in its module, every error class
is named outside `errors.py`, nodes and links enter a scenario only
through `Scenario.add_node`/`add_iab_node`/`add_link`, only `gtp.py` writes the
Forwarder's routing tables and memo, only `radio.py` reads the reference
distance and the coverage threshold, the protocol modules import nothing
from `topology`, `gtp.py` holds no trace state, and every entry point that
`perfbench/run.py` wraps by name exists.

Stdlib-only checks (ast, and for the entry points, attribute lookups), so an
unused import, a dead error class or a bypassed builder fails the suite
without a linter. Package `__init__.py` files re-export by importing, so
they are left out of the import check, and so are `from __future__` imports
and names listed in `__all__`.
"""
import ast
import dataclasses
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "iabsim").glob("*.py"),
                             *(ROOT / "tests").glob("*.py"),
                             *(ROOT / "scripts").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in read]


def test_an_unused_import_is_found():
    assert unused_imports("import os\nimport sys\nprint(sys)\n") \
        == ["line 1: os"]
    assert unused_imports("from __future__ import annotations\n"
                          "from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def names_in(source: str) -> set[str]:
    """Every name a module reads, imports or reaches as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_error_class_is_named_elsewhere():
    package = ROOT / "src" / "iabsim"
    errors = package / "errors.py"
    defined = {node.name for node in ast.parse(errors.read_text()).body
               if isinstance(node, ast.ClassDef)}
    named = set().union(*(names_in(p.read_text())
                          for p in package.glob("*.py") if p != errors))
    assert sorted(defined - named) == []


# What changes a list, a dict or a set in place.
MUTATORS = {"append", "extend", "insert", "remove", "pop", "clear", "update",
            "setdefault", "popitem", "add", "discard"}


def writes(source: str, attrs: tuple[str, ...]) -> list[int]:
    """Lines that store to or delete an attribute named in `attrs` or one of
    its items, or call a mutator on it."""
    def named(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in attrs

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr in MUTATORS
                    and named(f.value)):
                lines.append(node.lineno)
        elif (isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
              and (named(node) or isinstance(node, ast.Subscript)
                   and named(node.value))):
            lines.append(node.lineno)
    return sorted(lines)


def builder_bypasses(source: str) -> list[int]:
    """Lines that make a Node or Link, or change a `.nodes` or `.links`
    attribute or one of its items, other than by Scenario's builders."""
    made = [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None))
            in ("Node", "Link")]
    return sorted(made + writes(source, ("nodes", "links")))


def test_a_builder_bypass_is_found():
    assert builder_bypasses(
        "s.links.append(Link('x', 'a', 'b', m))\n"
        "s.nodes['x'] = n\n"
        "del s.links[0]\n"
        "s.links += []\n"
        "s.nodes.pop('x')\n"
        "t.Node('x')\n") == [1, 1, 2, 3, 4, 5, 6]
    assert builder_bypasses("s.nodes['du'].carrier = None\n"
                            "s.links[0].propagation_delay_s = 1.0\n"
                            "links.append(1)\nx = s.nodes['du']\n") == []


def test_nodes_and_links_enter_only_through_the_builders():
    found = [f"{p.relative_to(ROOT)}:{line}"
             for p in [*MODULES, ROOT / "src" / "iabsim" / "__init__.py"]
             if p.name != "topology.py"
             for line in builder_bypasses(p.read_text())]
    assert found == []


# The Forwarder's routing tables and the memo of decisions they decide.
FORWARDER_TABLES = ("entries", "strips", "_memo")


def test_a_table_write_is_found():
    assert writes("f.entries[k] = e\n"
                  "f.strips.add(p)\n"
                  "f._memo.clear()\n"
                  "f._memo = {}\n"
                  "del f.entries[k]\n"
                  "f.entries.setdefault(k, e)\n"
                  "f.strips.update(s)\n"
                  "f._memo.pop(k)\n", FORWARDER_TABLES) == list(range(1, 9))
    assert writes("e = f.entries[k]\nn = len(f.strips)\n"
                  "d = dict(f.entries)\nf._memo.get(k)\n"
                  "f.header_bytes['teid'] = 8\n", FORWARDER_TABLES) == []


def test_only_the_forwarder_writes_its_tables():
    # The memo is right only while the Forwarder's own methods, which clear
    # it, are the only writers of the tables.
    gtp = ROOT / "src" / "iabsim" / "gtp.py"
    found = [f"{p.relative_to(ROOT)}:{line}"
             for p in [*MODULES, ROOT / "src" / "iabsim" / "__init__.py"]
             if p != gtp
             for line in writes(p.read_text(), FORWARDER_TABLES)]
    assert found == []


# The radio parameters behind every distance and coverage decision.
RADIO_REACH = ("reference_distance_m", "coverage_rsrp_threshold_dbm")


def reads(source: str, attrs: tuple[str, ...]) -> list[int]:
    """Lines that read an attribute named in `attrs`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in attrs
                  and isinstance(node.ctx, ast.Load))


def test_a_radio_reach_read_is_found():
    assert reads("d = max(d, p.reference_distance_m)\n"
                 "ok = rx >= params.coverage_rsrp_threshold_dbm\n"
                 "f(scn.radio_params.reference_distance_m)\n",
                 RADIO_REACH) == [1, 2, 3]
    assert reads("RENAME = {'reference': 'reference_distance_m'}\n"
                 "p.coverage_rsrp_threshold_dbm = -90.0\n"
                 "p.reference_distance = 1.0\n", RADIO_REACH) == []


def test_only_radio_reads_the_reach_parameters():
    # A clamp or threshold test outside radio.py is a second owner of reach.
    package = ROOT / "src" / "iabsim"
    found = [f"{p.relative_to(ROOT)}:{line}"
             for p in package.glob("*.py") if p.name != "radio.py"
             for line in reads(p.read_text(), RADIO_REACH)]
    assert found == []


def imports_from(source: str, module: str) -> list[int]:
    """Lines that import the package module `module` or a name from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(a.name for a in node.names)]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(name.split(".")[-1] == module for name in names):
            lines.append(node.lineno)
    return lines


def test_protocol_modules_take_node_ids_not_the_scenario():
    # The engine resolves each node from the scenario once and hands on its
    # id: a module that read the graph itself could decide it differently.
    assert imports_from("from .topology import Role\n"
                        "from iabsim.topology import Scenario\n"
                        "import iabsim.topology\n"
                        "from . import radio, topology\n"
                        "from . import radio\nfrom .trace import x\n",
                        "topology") == [1, 2, 3, 4]
    package = ROOT / "src" / "iabsim"
    found = [f"{name}:{line}"
             for name in ("gtp.py", "f1ap.py", "radio.py", "trace.py")
             for line in imports_from((package / name).read_text(),
                                      "topology")]
    assert found == []


def test_gtp_holds_no_trace_state():
    # Trace rows and their heads are the engine's: a forwarding decision
    # holds what forwarding decided and, in `out`, the engine's record of
    # it (its link direction and row heads), which gtp does not read.
    from iabsim.gtp import Decision
    assert imports_from((ROOT / "src" / "iabsim" / "gtp.py").read_text(),
                        "trace") == []
    assert [f.name for f in dataclasses.fields(Decision)] \
        == ["next_hop", "header_stack", "delta", "out"]


def test_a_trace_holds_one_record_per_flow():
    # A flow's counters, delivery times and paths are its FlowRecord's, in
    # Trace.flows: no other Trace field holds per-flow results.
    from iabsim.trace import Trace
    assert [f.name for f in dataclasses.fields(Trace)] \
        == ["mode", "seed", "flows", "summary", "times", "heads", "pkts",
            "pending", "_digest"]


def test_the_entry_points_perfbench_wraps_exist():
    # perfbench/run.py's traced pass patches these by name; without this
    # check only a `--trace 1` run notices a rename.
    from iabsim import cli, engine, gtp
    from conftest import build_donor_scenario
    for module, names in ((cli, ("load_scenario", "Simulator",
                                 "_check_asserts")),
                          (engine, ("validate_topology", "link_capacity")),
                          (gtp, ("encapsulate",))):
        for name in names:
            assert callable(getattr(module, name, None)), name
    assert callable(getattr(engine.heapq, "heappop", None))
    assert isinstance(vars(gtp.Packet).get("wire_size_bytes"), property)
    sim = engine.Simulator(build_donor_scenario())
    for obj, name in ((sim.fwd, "forward"), (sim.trace, "emit"),
                      (sim.scn, "find_link"), (sim.cp, "on_message"),
                      (sim, "_transmit")):
        assert callable(getattr(obj, name, None)), name
