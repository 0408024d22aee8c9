"""The runtime seam must not erode.

Only ``repro.runtimes`` (the registry), ``core/analyzer.py`` (which defines
``distributed_run`` / ``run_distributed``) and the three runtime modules may
construct a runtime.  Everything else in ``src/repro`` goes through
``repro.runtimes.execute`` — that is what lets the inside of a node be
swapped without touching a caller.

Below the seam the same holds one level down: the node core
(``transducers/node.py``) is the only place that states the transition
relation, and it stays sans-IO.

Two more fences keep the tree small: the naive oracles live in
``repro.reference`` and only the conformance stacks import them, and every
module is reached by an import walk from an entry point.
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
    for relative in MAY_IMPORT_REFERENCE:
        assert (SRC / relative).exists(), relative


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
# no switch: the program reads no environment variable
# ----------------------------------------------------------------------

ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.AST):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENVIRONMENT_READS
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from (
                (node.lineno, f"from os import {alias.name}")
                for alias in node.names
                if alias.name in ENVIRONMENT_READS
            )


def test_no_module_reads_the_environment():
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{line} {read}"
        for path in sorted(SRC.rglob("*.py"))
        for line, read in _environment_reads(ast.parse(path.read_text()))
    ]
    assert offenders == [], "behaviour must not hang on an env var:\n" + "\n".join(
        offenders
    )


def test_the_environment_lint_sees_planted_reads():
    planted = ast.parse(
        "import os\n"
        "from os import getenv, path\n"
        "def f():\n"
        "    return os.environ.get('X'), os.getenv('Y'), getenv('Z')\n"
    )
    assert sorted(_environment_reads(planted)) == [
        (2, "from os import getenv"), (4, "os.environ"), (4, "os.getenv"),
    ]
    assert not list(_environment_reads(ast.parse("env = {}; env.get('X')")))


# ----------------------------------------------------------------------
# the gate registry: floors, schema and entry point in one module
# ----------------------------------------------------------------------

REPO = SRC.parents[1]
REGISTRY = SRC / "gates.py"
LEGACY_FLOOR_DICTS = {
    "OPTIMIZER_TARGETS", "SCENARIO_TARGETS", "SCALING_TARGETS", "SERVICE_TARGETS",
}


def _outside_the_registry():
    for root in (SRC, REPO / "scripts"):
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


# ----------------------------------------------------------------------
# the reference fence: one production engine, the oracles kept apart
# ----------------------------------------------------------------------

#: Where ``repro.reference`` may be imported from, for a stated reason.
MAY_IMPORT_REFERENCE = {
    # The differential baseline of the fuzzer is the naive stack.
    "conformance",
    # ILOG¬ evaluates through the naive join until item 7a.
    "ilog/evaluation.py",
}
REFERENCE = "reference"


def _modules(src: Path) -> dict[str, tuple[Path, ast.Module]]:
    """Every module under the package directory *src*, by dotted name (a
    package by its own name, parsed from its ``__init__.py``)."""
    modules = {}
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src.parent).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path, ast.parse(path.read_text())
    return modules


def _from_base(node: ast.ImportFrom, module: str, path: Path) -> str:
    """The absolute name of the module a ``from ... import`` reads."""
    if node.level == 0:
        return node.module
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _imported(tree: ast.AST, module: str, path: Path):
    """``(line, base, name)`` for every import in *tree*, function-local
    ones included: ``import a.b`` gives ``(line, "a.b", None)`` and ``from
    a import b`` gives ``(line, "a", "b")``, relative bases made absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _from_base(node, module, path)
            yield from ((node.lineno, base, alias.name) for alias in node.names)


def _imports_of(tree: ast.AST, module: str, path: Path, target: str) -> list[int]:
    """Lines of *tree* that import *target* or anything under it."""
    return sorted({
        line
        for line, base, name in _imported(tree, module, path)
        for imported in (base if name is None else f"{base}.{name}", base)
        if imported == target or imported.startswith(target + ".")
    })


def _fence_offenders(modules) -> list[str]:
    offenders = []
    for module, (path, tree) in modules.items():
        relative = path.relative_to(SRC).as_posix()
        inside = relative.split("/")[0]
        if inside == REFERENCE:
            forbidden = "repro.kernel"
        elif relative in MAY_IMPORT_REFERENCE or inside in MAY_IMPORT_REFERENCE:
            continue
        else:
            forbidden = "repro.reference"
        offenders += [
            f"{relative}:{line} imports {forbidden}"
            for line in _imports_of(tree, module, path, forbidden)
        ]
    return offenders


def test_only_the_conformance_stacks_import_the_reference():
    """The kernel is the one production engine: the naive oracles are
    imported only where runtimes are checked against them, and never
    import the engine they check."""
    assert _fence_offenders(_modules(SRC)) == []


def test_the_reference_fence_sees_planted_imports():
    planted = {
        "repro.transducers.planted": (
            SRC / "transducers" / "planted.py",
            ast.parse(
                "from ..reference import naive_fixpoint\n"
                "def f():\n"
                "    from repro import reference\n"
                "    import repro.reference.datalog\n"
            ),
        ),
        "repro.reference.planted": (
            SRC / REFERENCE / "planted.py",
            ast.parse(
                "from .datalog import match_rule\n"
                "def f():\n"
                "    from ..kernel.engine import KernelEvaluator\n"
                "    from .. import kernel\n"
            ),
        ),
        "repro.conformance.planted": (
            SRC / "conformance" / "planted.py",
            ast.parse("from ..reference import naive_fixpoint\n"),
        ),
    }
    assert sorted(_fence_offenders(planted)) == [
        "reference/planted.py:3 imports repro.kernel",
        "reference/planted.py:4 imports repro.kernel",
        "transducers/planted.py:1 imports repro.reference",
        "transducers/planted.py:3 imports repro.reference",
        "transducers/planted.py:4 imports repro.reference",
    ]


# ----------------------------------------------------------------------
# reachability: every module is imported, transitively, by an entry point
# ----------------------------------------------------------------------

ENTRY_POINTS = (
    "repro.cli",
    "repro.__main__",
    "repro.service.app",
    "repro.gates",
    "repro.runtimes",
)

#: Unreached modules kept for a paper claim, each until its ROADMAP item
#: wires it to an entry point or removes it.  The list only shrinks (it is
#: empty now): the walk fails on a pending module that has become reached.
PENDING: dict[str, str] = {}


def _defining_module(modules, base: str, name: str) -> str:
    """The module ``from base import name`` reads *name* from: a submodule,
    else the module a package's ``__init__`` imports *name* from, else
    *base* itself."""
    if f"{base}.{name}" in modules:
        return f"{base}.{name}"
    path, tree = modules.get(base, (None, None))
    if path is not None and path.name == "__init__.py":
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        source = _from_base(node, base, path)
                        return _defining_module(modules, source, alias.name)
    return base


def _reached(modules, entry_points) -> set[str]:
    """Modules an import walk from *entry_points* reaches.  Importing a
    module runs its packages' ``__init__``, so those are reached too, but a
    package ``__init__``'s own imports are not edges: ``from pkg import
    name`` reaches the module that defines *name*, not all of *pkg*."""
    reached: set[str] = set()
    todo = list(entry_points)
    while todo:
        module = todo.pop()
        if module in reached:
            continue
        reached.add(module)
        path, tree = modules[module]
        if path.name == "__init__.py":
            continue
        for _, base, name in _imported(tree, module, path):
            target = base if name is None else _defining_module(modules, base, name)
            while target:
                if target in modules:
                    todo.append(target)
                target = target.rpartition(".")[0]
    return reached


def _ratchet(unreached: set[str], pending: dict[str, str]) -> list[str]:
    return [
        f"{module} is reached by no entry point"
        for module in sorted(unreached - set(pending))
    ] + [
        f"{module} is reached now: drop it from PENDING ({pending[module]})"
        for module in sorted(set(pending) - unreached)
    ]


def test_every_module_is_reached_from_an_entry_point():
    modules = _modules(SRC)
    unreached = set(modules) - _reached(modules, ENTRY_POINTS)
    assert _ratchet(unreached, PENDING) == []


def test_the_reachability_walk_sees_a_planted_orphan(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    for relative, text in {
        "__init__.py": "from .used import helper\nfrom .orphan import thing\n",
        "entry.py": "from pkg import helper\ndef f():\n    from . import sub\n",
        "used.py": "def helper():\n    pass\n",
        "orphan.py": "thing = 1\n",
        "sub/__init__.py": "",
        "sub/leaf.py": "from ..used import helper\n",
    }.items():
        (package / relative).write_text(text)
    modules = _modules(package)
    unreached = set(modules) - _reached(modules, ["pkg.entry"])
    assert unreached == {"pkg.orphan", "pkg.sub.leaf"}
    assert _ratchet(unreached, {"pkg.sub.leaf": "item 0", "pkg.used": "item 1"}) == [
        "pkg.orphan is reached by no entry point",
        "pkg.used is reached now: drop it from PENDING (item 1)",
    ]
