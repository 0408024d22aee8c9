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
