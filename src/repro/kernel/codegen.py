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

Two more kinds serve the well-founded evaluator's continued Γ
(:mod:`repro.kernel.wellfounded`): one seeded by the rows of a *negated*
atom, and a head-bound probe that looks for one derivation of a given
head row.  Both reuse the layout above; only what binds at depth 0
differs (see :func:`compile_rule`).
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
    """One generated firing function plus its dispatch metadata.

    ``seed_atom`` is the atom the seed rows bind (the head, for a probe);
    ``seed_relation`` is the relation those rows are drawn from.
    """

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


def _order_atoms(atoms: list[Atom], bound: set[Variable]) -> list[Atom]:
    """The static join order: greedy bound-variable propagation from the
    variables the seed row binds, ties broken by the deterministic ``repr``
    order."""
    remaining = sorted(atoms, key=repr)
    bound = set(bound)
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
    rule: Rule, seed_atom: Atom | None, table: SymbolTable, *, probe: bool = False
) -> CompiledRule:
    """Generate and ``exec`` the specialized firing function for one rule.

    The function's ``seed`` rows bind the variables of one atom; the
    remaining positive atoms are joined against the database.  Four kinds:

    * *seed_atom* a positive atom — the semi-naive specialization: the
      seeds are the delta of that relation;
    * *seed_atom* a negated atom — the seeds are rows of the negated
      relation.  The atom's own guard is dropped, every other guard reads
      the relation as it is when the function runs.  The well-founded
      evaluator feeds it the rows that left or entered a twin;
    * ``probe=True`` (no *seed_atom*) — the head-bound probe: each seed is
      a candidate head row, appended once if the body has a derivation
      for it;
    * neither — the rule must be ground (empty positive body): the body
      runs once per call.

    Appended rows may repeat; the caller dedupes against the database.
    """
    if probe:
        bound_atom: Atom | None = rule.head
    else:
        bound_atom = seed_atom
        if seed_atom is None and rule.pos:
            raise ValueError("non-ground rules compile against a seed atom")
    positive_seed = seed_atom is not None and seed_atom in rule.pos
    joined = [atom for atom in rule.pos if not (positive_seed and atom == seed_atom)]
    guarded = [atom for atom in rule.neg if positive_seed or atom != seed_atom]

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
    var_names: dict[Variable, str] = {}
    bind_depth: dict[Variable, int] = {}

    def visit(atom: Atom, depth: int) -> None:
        for term in atom.terms:
            if isinstance(term, Variable) and term not in bind_depth:
                bind_depth[term] = depth
                var_names[term] = f"v{len(var_names)}"

    if bound_atom is not None:
        visit(bound_atom, 0)
    ordered = _order_atoms(joined, set(bind_depth))
    for atom_number, atom in enumerate(ordered):
        visit(atom, atom_number + 1)

    def term_expr(term: object) -> str:
        """The expression for a term: a bound local or an interned literal."""
        if isinstance(term, Variable):
            return var_names[term]
        return repr(table.intern(term))

    # A failed check moves on to the next row of its loop.  At depth 0 of a
    # seeded rule that is the next seed; a ground rule and a probe are not
    # in a loop there, so they ``return`` instead.
    bail_at_seed = "continue" if seed_atom is not None else "return"

    def bail(depth: int) -> str:
        return "continue" if depth else bail_at_seed

    # Guard conditions keyed by the shallowest depth where they are decidable.
    pending: list[tuple[int, str]] = []
    for ineq in sorted(rule.ineq, key=repr):
        depth = max(bind_depth[v] for v in ineq.variables())
        pending.append((depth, f"{var_names[ineq.left]} == {var_names[ineq.right]}"))
    for neg_number, atom in enumerate(sorted(guarded, key=repr)):
        slot = f"_n{neg_number}"
        prelude.append(f"{slot} = db.relation({atom.relation!r}).tuples")
        depth = max((bind_depth[v] for v in atom.variables()), default=0)
        pending.append((depth, f"{_row_expr(atom, term_expr)} in {slot}"))

    def flush_guards(depth: int) -> None:
        for ready_depth, condition in pending:
            if ready_depth == depth:
                emitter.emit(f"if {condition}: {bail(depth)}")

    def emit_atom_bindings(atom: Atom, row: str, depth: int, skip: int | None) -> None:
        """Arity guard, position checks, and new-variable binds for one atom.

        *skip* is the position already guaranteed by the index lookup the
        row was drawn from (checking it again would be dead code).
        """
        reject = bail(depth)
        emitter.emit(f"if len({row}) != {atom.arity}: {reject}")
        first_seen: dict[Variable, int] = {}
        for position, term in enumerate(atom.terms):
            if not isinstance(term, Variable):
                if position != skip:
                    emitter.emit(
                        f"if {row}[{position}] != {table.intern(term)}: {reject}"
                    )
            elif bind_depth[term] < depth:
                if position != skip:
                    emitter.emit(f"if {row}[{position}] != {var_names[term]}: {reject}")
            elif term in first_seen:
                emitter.emit(
                    f"if {row}[{position}] != {row}[{first_seen[term]}]: {reject}"
                )
            else:
                first_seen[term] = position
                emitter.emit(f"{var_names[term]} = {row}[{position}]")

    emitter.emit("def _kernel_fire(db, seed, append):")
    emitter.depth = 1
    body_start = len(emitter.lines)

    if probe:
        # One candidate per call of the nested function, so the first
        # derivation found can leave every loop at once.
        emitter.emit("def _derives(_t0):")
        emitter.depth += 1
    elif seed_atom is not None:
        emitter.emit("for _t0 in seed:")
        emitter.depth += 1
    if bound_atom is not None:
        emit_atom_bindings(bound_atom, "_t0", 0, None)
    flush_guards(0)

    for atom_number, atom in enumerate(ordered):
        loop_depth = atom_number + 1
        row = f"_t{loop_depth}"
        slot = relation_slot(atom.relation)
        # Access path: prefer an index probe on a bound-variable position,
        # then on a constant position, else a full scan.
        access: tuple[int, str] | None = None
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable) and bind_depth[term] < loop_depth:
                access = (position, var_names[term])
                break
        if access is None:
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Variable):
                    access = (position, repr(table.intern(term)))
                    break
        if access is None:
            emitter.emit(f"for {row} in {slot}.tuples:")
            skip = None
        else:
            position, key = access
            getter = f"_g{atom_number}"
            prelude.append(f"{getter} = {slot}.index({position}).get")
            emitter.emit(f"for {row} in {getter}({key}, _EMPTY):")
            skip = position
        emitter.depth += 1
        emit_atom_bindings(atom, row, loop_depth, skip)
        flush_guards(loop_depth)

    head = rule.head
    if probe:
        emitter.emit("return True")
        emitter.depth = 1
        emitter.emit("for _t0 in seed:")
        emitter.emit("    if _derives(_t0): append(_t0)")
    else:
        emitter.emit(f"append({_row_expr(head, term_expr)})")

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
    return CompiledRule(rule, bound_atom, namespace["_kernel_fire"], source)


def _row_expr(atom: Atom, term_expr: Callable[[object], str]) -> str:
    """The tuple expression of *atom*'s row under the current bindings."""
    if not atom.terms:
        return "()"
    inner = ", ".join(term_expr(term) for term in atom.terms)
    return f"({inner},)" if len(atom.terms) == 1 else f"({inner})"
