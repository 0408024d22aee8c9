"""Per-rule code generation: one specialized Python function per join.

For every ``(rule, seed_atom)`` pair the kernel emits one plain Python
function whose loop nest is fixed at compile time, with zero per-tuple
interpretation: no binding dicts, no position walks, just locals, tuple
subscripts, dict lookups on interned ints, and inlined
constant/inequality/negation guards.  A generated body looks like::

    def _kernel_fire(db, seed, append):
        _r0 = db.relation('E')
        _g0 = _r0.index(0).get
        _n0 = db.relation('S').tuples
        for _t0 in seed:
            if len(_t0) != 2: continue
            v0 = _t0[0]
            v1 = _t0[1]
            for _t1 in _g0(v1, _EMPTY):
                if len(_t1) != 2: continue
                v2 = _t1[1]
                if v2 == v0: continue
                if (v0, v2) in _n0: continue
                append((v0, v2))

Compilation decisions (all deterministic — atoms, inequalities and negated
atoms are ordered by ``repr``):

* **atom order** — greedy bound-variable propagation seeded from the
  required (delta) atom, ties broken by position;
* **access path** — each atom with at least one bound position draws
  candidates from one lazily-built column index (bound-variable positions
  preferred over constants), re-checking the remaining bound positions
  inline; atoms with no bound position scan the relation;
* **guards** — inequality and negation checks are emitted at the
  shallowest loop depth where all their variables are bound, so failing
  branches are pruned before deeper loops run;
* **constants** — interned to ids before emission and inlined as int
  literals, which is what keeps the table append-only (ids never move).

Negated atoms read the *live* row set of their relation: the check is
against the full current database.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..datalog.rules import Rule
from ..datalog.terms import Atom, Variable
from .interning import SymbolTable
from .relation import ColumnarDatabase

__all__ = ["CompiledRule", "compile_rule"]

#: Shared default for index ``.get`` misses inside generated loops.
_EMPTY: tuple = ()


class CompiledRule:
    """One generated firing function plus its dispatch metadata."""

    __slots__ = ("rule", "seed_atom", "seed_relation", "head_relation", "fire", "source")

    def __init__(
        self,
        rule: Rule,
        seed_atom: Atom | None,
        fire: Callable[[ColumnarDatabase, Iterable[tuple], Callable], None],
        source: str,
    ) -> None:
        self.rule = rule
        self.seed_atom = seed_atom
        self.seed_relation = seed_atom.relation if seed_atom is not None else None
        self.head_relation = rule.head.relation
        self.fire = fire
        self.source = source


class _Emitter:
    """Indentation-tracking line buffer for the generated source."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _order_atoms(rule: Rule, seed_atom: Atom | None) -> list[Atom]:
    """The static join order: greedy bound-variable propagation from the
    seed atom, ties broken by the deterministic ``repr`` order."""
    remaining = sorted(rule.pos, key=repr)
    if seed_atom is not None:
        remaining.remove(seed_atom)
    bound: set[Variable] = set() if seed_atom is None else seed_atom.variables()
    ordered: list[Atom] = []
    while remaining:
        best_position = 0
        best_boundness = -1
        for position, atom in enumerate(remaining):
            boundness = sum(
                1
                for term in atom.terms
                if not isinstance(term, Variable) or term in bound
            )
            if boundness > best_boundness:
                best_position, best_boundness = position, boundness
        atom = remaining.pop(best_position)
        ordered.append(atom)
        bound |= atom.variables()
    return ordered


def compile_rule(
    rule: Rule, seed_atom: Atom | None, table: SymbolTable
) -> CompiledRule:
    """Generate and ``exec`` the specialized firing function for one rule.

    With a *seed_atom*, the function enumerates the semi-naive seeds from
    the ``seed`` row iterable (the delta of that relation) and joins the
    remaining positive atoms against the database.  Without one the rule
    must be ground (empty positive body): the body runs once per call.
    Appended rows may repeat; the engine dedupes against the database.
    """
    if seed_atom is None and rule.pos:
        raise ValueError("non-ground rules compile against a seed atom")

    emitter = _Emitter()
    prelude: list[str] = []
    relation_slots: dict[str, str] = {}
    slot_count = 0

    def relation_slot(name: str) -> str:
        nonlocal slot_count
        slot = relation_slots.get(name)
        if slot is None:
            slot = f"_r{slot_count}"
            slot_count += 1
            relation_slots[name] = slot
            prelude.append(f"{slot} = db.relation({name!r})")
        return slot

    # Pre-pass: the atom order fixes where every variable first binds
    # (depth 0 = the seed row, depth i = inside the i-th generated loop),
    # so guard code can be laid out before any loop is emitted.
    ordered = _order_atoms(rule, seed_atom)
    var_names: dict[Variable, str] = {}
    bind_depth: dict[Variable, int] = {}

    def visit(atom: Atom, depth: int) -> None:
        for term in atom.terms:
            if isinstance(term, Variable) and term not in bind_depth:
                bind_depth[term] = depth
                var_names[term] = f"v{len(var_names)}"

    if seed_atom is not None:
        visit(seed_atom, 0)
    for atom_number, atom in enumerate(ordered):
        visit(atom, atom_number + 1)

    def term_expr(term: object) -> str:
        """The expression for a term: a bound local or an interned literal."""
        if isinstance(term, Variable):
            return var_names[term]
        return repr(table.intern(term))

    # Guard lines keyed by the shallowest depth where they are decidable.
    # Ground rules run outside any loop, so their guards reject with
    # ``return`` instead of ``continue``.
    bail = "continue" if (seed_atom is not None or ordered) else "return"
    pending: list[tuple[int, str]] = []
    for ineq in sorted(rule.ineq, key=repr):
        depth = max(bind_depth[v] for v in ineq.variables())
        pending.append(
            (depth, f"if {var_names[ineq.left]} == {var_names[ineq.right]}: {bail}")
        )
    for neg_number, atom in enumerate(sorted(rule.neg, key=repr)):
        slot = f"_n{neg_number}"
        prelude.append(f"{slot} = db.relation({atom.relation!r}).tuples")
        depth = max((bind_depth[v] for v in atom.variables()), default=0)
        if atom.terms:
            inner = ", ".join(term_expr(term) for term in atom.terms)
            key = f"({inner},)" if len(atom.terms) == 1 else f"({inner})"
        else:
            key = "()"
        pending.append((depth, f"if {key} in {slot}: {bail}"))

    def flush_guards(depth: int) -> None:
        for ready_depth, line in pending:
            if ready_depth == depth:
                emitter.emit(line)

    def emit_atom_bindings(atom: Atom, row: str, depth: int, skip: int | None) -> None:
        """Arity guard, position checks, and new-variable binds for one atom.

        *skip* is the position already guaranteed by the index lookup the
        row was drawn from (checking it again would be dead code).
        """
        emitter.emit(f"if len({row}) != {atom.arity}: continue")
        first_seen: dict[Variable, int] = {}
        for position, term in enumerate(atom.terms):
            if not isinstance(term, Variable):
                if position != skip:
                    emitter.emit(
                        f"if {row}[{position}] != {table.intern(term)}: continue"
                    )
            elif bind_depth[term] < depth:
                if position != skip:
                    emitter.emit(f"if {row}[{position}] != {var_names[term]}: continue")
            elif term in first_seen:
                emitter.emit(
                    f"if {row}[{position}] != {row}[{first_seen[term]}]: continue"
                )
            else:
                first_seen[term] = position
                emitter.emit(f"{var_names[term]} = {row}[{position}]")

    emitter.emit("def _kernel_fire(db, seed, append):")
    emitter.depth = 1
    body_start = len(emitter.lines)

    if seed_atom is not None:
        row = "_t0"
        emitter.emit(f"for {row} in seed:")
        emitter.depth += 1
        emit_atom_bindings(seed_atom, row, 0, None)
        flush_guards(0)

    for atom_number, atom in enumerate(ordered):
        loop_depth = atom_number + 1
        row = f"_t{loop_depth}"
        slot = relation_slot(atom.relation)
        # Access path: prefer an index probe on a bound-variable position,
        # then on a constant position, else a full scan.
        probe: tuple[int, str] | None = None
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable) and bind_depth[term] < loop_depth:
                probe = (position, var_names[term])
                break
        if probe is None:
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Variable):
                    probe = (position, repr(table.intern(term)))
                    break
        if probe is None:
            emitter.emit(f"for {row} in {slot}.tuples:")
            skip = None
        else:
            position, key = probe
            getter = f"_g{atom_number}"
            prelude.append(f"{getter} = {slot}.index({position}).get")
            emitter.emit(f"for {row} in {getter}({key}, _EMPTY):")
            skip = position
        emitter.depth += 1
        emit_atom_bindings(atom, row, loop_depth, skip)
        flush_guards(loop_depth)

    if seed_atom is None and not ordered:
        # Ground rule: guards (depth 0) run once, straight-line.
        flush_guards(0)

    head = rule.head
    if head.terms:
        inner = ", ".join(term_expr(term) for term in head.terms)
        head_row = f"({inner},)" if len(head.terms) == 1 else f"({inner})"
    else:
        head_row = "()"
    emitter.emit(f"append({head_row})")

    # Splice the prelude (relation slots, index getters, negation sets)
    # ahead of the loops, inside the function body.
    emitter.lines[body_start:body_start] = [
        "    " + line for line in prelude
    ]
    source = emitter.source()
    namespace: dict = {"_EMPTY": _EMPTY}
    exec(  # noqa: S102 — the source is generated here, from validated rules
        compile(source, f"<kernel:{head.relation}>", "exec"), namespace
    )
    return CompiledRule(rule, seed_atom, namespace["_kernel_fire"], source)
