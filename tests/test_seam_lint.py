"""The runtime seam must not erode.

Only ``repro.runtimes`` (the registry), ``core/analyzer.py`` (which defines
``distributed_run`` / ``run_distributed``) and the three runtime modules may
construct a runtime.  Everything else in ``src/repro`` goes through
``repro.runtimes.execute`` — that is what lets the inside of a node be
swapped without touching a caller.

Below the seam the same holds one level down: the node core
(``transducers/node.py``) is the only place that states the transition
relation, and it stays sans-IO.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Calls that build or start a runtime.
FORBIDDEN_NAMES = {"ClusterRun", "ProcessCluster", "distributed_run"}
FORBIDDEN_METHODS = {"new_run"}

MAY_CONSTRUCT = {
    "runtimes.py",
    "core/analyzer.py",
    "transducers/runtime.py",
    "cluster/runtime.py",
    "cluster/procs.py",
}

#: Below the seam, for a stated reason; a new entry needs one too.
MODEL_LEVEL = {
    # Definition 3's witnesses drive *single heartbeat transitions* of the
    # formal model at one node and inspect its state after each — a prefix
    # of a run, which no runtime can be asked for.
    "core/calm.py",
    "transducers/coordination.py",
}


def _calls(tree: ast.AST):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        function = node.func
        if isinstance(function, ast.Name) and function.id in FORBIDDEN_NAMES:
            yield node.lineno, function.id
        elif isinstance(function, ast.Attribute) and (
            function.attr in FORBIDDEN_NAMES | FORBIDDEN_METHODS
        ):
            yield node.lineno, function.attr


def test_only_the_registry_constructs_runtimes():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in MAY_CONSTRUCT | MODEL_LEVEL:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{relative}:{line} {name}(" for line, name in _calls(tree)]
    assert offenders == [], (
        "runtime constructed outside repro.runtimes — call execute() instead:\n"
        + "\n".join(offenders)
    )


def test_the_seven_dispatchers_do_not_handle_quiescence_errors_or_reports():
    """None of the former dispatchers catches QuiescenceError around a run or
    picks a report builder: both happen once, inside ``execute``."""
    for relative in (
        "cli.py",
        "service/app.py",
        "cluster/gate.py",
        "streaming/scenario.py",
        "conformance/streaming.py",
        "conformance/stacks.py",
        "optimizer/executor.py",
    ):
        tree = ast.parse((SRC / relative).read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert not names & {
            "QuiescenceError", "build_run_report", "build_cluster_report",
        }, relative


def test_the_lint_sees_a_planted_call():
    planted = ast.parse(
        "from repro.cluster import ClusterRun\n"
        "def f(net, i):\n"
        "    ClusterRun(net, i).run_to_quiescence()\n"
        "    return net.new_run(i)\n"
    )
    assert sorted(_calls(planted)) == [(3, "ClusterRun"), (4, "new_run")]


def test_the_allowlists_name_real_files():
    for relative in MAY_CONSTRUCT | MODEL_LEVEL:
        assert (SRC / relative).is_file(), relative


# ----------------------------------------------------------------------
# the node core: pure, and the only copy
# ----------------------------------------------------------------------

IO_MODULES = {"asyncio", "socket", "os", "time", "threading", "tempfile"}
CORE = "transducers/node.py"


def _imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def _modules_where(predicate) -> set[str]:
    return {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if any(predicate(node) for node in ast.walk(ast.parse(path.read_text())))
    }


def _is_memory_update(node: ast.AST) -> bool:
    """``<x>.insertions - <y>.deletions`` or the reverse: a half of
    ``(mem ∪ (ins ∖ del)) ∖ (del ∖ ins)``."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.left, ast.Attribute)
        and isinstance(node.right, ast.Attribute)
        and {node.left.attr, node.right.attr} == {"insertions", "deletions"}
    )


def _builds_local_view(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "LocalView"
    )


def test_the_node_core_imports_no_io():
    tree = ast.parse((SRC / CORE).read_text())
    assert not set(_imports(tree)) & IO_MODULES
    planted = ast.parse("def f():\n    import os.path\n    from time import sleep\n")
    assert set(_imports(planted)) == {"os", "time"}


def test_the_transition_relation_is_stated_once():
    assert _modules_where(_is_memory_update) == {CORE}
    assert _modules_where(_builds_local_view) == {CORE}


def test_the_cluster_driver_decides_nothing():
    """``ClusterNode`` performs effects; Safra counters, colours, tokens and
    epochs are the core's business."""
    tree = ast.parse((SRC / "cluster/runtime.py").read_text())
    (driver,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "ClusterNode"
    ]
    touched = {
        node.attr for node in ast.walk(driver) if isinstance(node, ast.Attribute)
    }
    assert not touched & {"counter", "black", "token", "epoch", "epochs_injected"}


# ----------------------------------------------------------------------
# the gate registry: floors, schema and entry point in one module
# ----------------------------------------------------------------------

REPO = SRC.parents[1]
REGISTRY = SRC / "gates.py"
LEGACY_FLOOR_DICTS = {
    "OPTIMIZER_TARGETS", "SCENARIO_TARGETS", "SCALING_TARGETS", "SERVICE_TARGETS",
}


def _outside_the_registry():
    for root in (SRC, REPO / "benchmarks", REPO / "scripts"):
        for path in sorted(root.rglob("*.py")):
            if path != REGISTRY:
                yield path.relative_to(REPO).as_posix(), ast.parse(path.read_text())


def _strings(tree: ast.AST) -> set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _writes_a_file(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        called = getattr(node.func, "attr", getattr(node.func, "id", None))
        if called in {"write_text", "write_bytes", "dump"}:
            return True
        if called == "open" and any(
            isinstance(arg, ast.Constant) and str(arg.value)[:1] in {"w", "a", "x"}
            for arg in [*node.args[1:], *(k.value for k in node.keywords)]
        ):
            return True
    return False


def _private_gate_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("gate"):
            yield from (a.name for a in node.names if a.name.startswith("_"))


def test_gate_floors_and_the_artifact_schema_live_only_in_the_registry():
    from repro.gates import GATES

    owned = {metric for gate in GATES.values() for metric in gate.floors} | {"floor"}
    offenders = [
        relative
        for relative, tree in _outside_the_registry()
        if _strings(tree) & owned or _names(tree) & LEGACY_FLOOR_DICTS
    ]
    assert offenders == [], "a headline is compared with a floor outside repro.gates"


def test_no_script_or_benchmark_is_a_gate_entry_point():
    offenders = []
    for relative, tree in _outside_the_registry():
        if relative.startswith("src/"):
            continue
        if any("BENCH_" in text for text in _strings(tree)) and _writes_a_file(tree):
            offenders.append(f"{relative} writes a BENCH_*.json")
        if "argparse" in set(_imports(tree)) and relative != "scripts/matrix.py":
            offenders.append(f"{relative} parses its own command line")
    assert offenders == [], "gates are run by `repro gate <name>` only"


def test_nothing_outside_cluster_gate_imports_its_private_names():
    offenders = [
        f"{relative}: {name}"
        for relative, tree in _outside_the_registry()
        for name in _private_gate_imports(tree)
    ]
    assert offenders == []


def test_the_gate_lints_see_planted_offenders():
    planted = ast.parse(
        "import argparse, json\n"
        "from repro.cluster.gate import _ZOO_INSTANCES, gate_workloads\n"
        "OPTIMIZER_TARGETS = {'optimizer_byte_identical': 1.0}\n"
        "def main():\n"
        "    ok = 1.0 >= OPTIMIZER_TARGETS['optimizer_byte_identical']\n"
        "    with open('BENCH_optimizer.json', 'w') as handle:\n"
        "        json.dump({'floor': 1.0, 'ok': ok}, handle)\n"
    )
    assert {"floor", "optimizer_byte_identical", "BENCH_optimizer.json"} <= _strings(planted)
    assert "OPTIMIZER_TARGETS" in _names(planted)
    assert _writes_a_file(planted)
    assert "argparse" in set(_imports(planted))
    assert list(_private_gate_imports(planted)) == ["_ZOO_INSTANCES"]
    assert not _writes_a_file(ast.parse("open('BENCH_cluster.json').read()"))
