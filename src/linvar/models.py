"""Finite algebras: evaluation, satisfaction, and backtracking model search.

A model of size >= 2 witnesses consistency of a theory; a model in which an
identity's two sides evaluate differently refutes entailment.  The search
keeps every table in one list `cells`, indexed by the `FlatLayout` ids over
the elements: cell v < size is element v itself, decided from the start,
and each symbol's block follows in `theory.symbols` order, so the first
undecided cell is the lexicographically first.  A ground instance's flat
side is the id of its cell, taken from the layout's instance spreading as
saturation takes its atom ids; a nested side grounds to a tree (symbol
name, children).  An instance is evaluated until it reads an undecided
cell and waits on that cell's watch list; deciding the cell puts it back on
the stack.  Forcing is monotone, so the closure and any conflict do not depend
on that order, and the search, branching on the first undecided cell with
values ascending, returns the lexicographically first model in range.

The layout and the identities' instances depend only on the theory and the
size, so `find_model` compiles them once per theory object and size and
keeps them in `Theory.compiled`; each search compiles only its goal.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .terms import Code, FlatLayout, OperationSymbol, Term, Variable
from .theories import (
    Identity,
    Theory,
    identity_code,
    identity_variables,
)

Assignment = dict[Variable, int]


class MissingTableError(Exception):
    pass


class MissingAssignmentError(Exception):
    pass


class IncompleteModelError(Exception):
    """A model search returned an algebra with an undecided table cell."""


@dataclass(frozen=True)
class FiniteAlgebra:
    size: int
    symbols: tuple[OperationSymbol, ...]
    # per symbol name, a row-major table over argument tuples
    tables: Mapping[str, tuple[int, ...]]

    def op_value(self, name: str, args: tuple[int, ...]) -> int:
        table = self.tables.get(name)
        if table is None:
            raise MissingTableError(name)
        index = 0
        for a in args:
            index = index * self.size + a
        return table[index]

    def to_json(self) -> dict:
        return {"size": self.size,
                "tables": {s.name: list(self.tables[s.name]) for s in self.symbols}}


def algebra_from_json(data: dict, symbols: tuple[OperationSymbol, ...]) -> FiniteAlgebra:
    tables = {name: tuple(values) for name, values in data["tables"].items()}
    return FiniteAlgebra(int(data["size"]), symbols, tables)


def eval_term(algebra: FiniteAlgebra, t: Term, assignment: Mapping[Variable, int]) -> int:
    if isinstance(t, Variable):
        if t not in assignment:
            raise MissingAssignmentError(t.name)
        return assignment[t]
    args = tuple(eval_term(algebra, c, assignment) for c in t.children)
    return algebra.op_value(t.symbol.name, args)


@dataclass(frozen=True)
class SatisfactionResult:
    ok: bool
    violated: Optional[Identity] = None
    assignment: Optional[tuple[tuple[str, int], ...]] = None

    def __bool__(self) -> bool:
        return self.ok


def satisfies(algebra: FiniteAlgebra, theory: Theory) -> SatisfactionResult:
    """Check every identity under every assignment; report the first failure."""
    for e in theory.identities:
        vs = identity_variables(e)
        for values in itertools.product(range(algebra.size), repeat=len(vs)):
            rho = dict(zip(vs, values))
            if eval_term(algebra, e.lhs, rho) != eval_term(algebra, e.rhs, rho):
                witness = tuple((v.name, k) for v, k in rho.items())
                return SatisfactionResult(False, e, witness)
    return SatisfactionResult(True)


def _instance_pairs(layout: FlatLayout, source: Code | Identity
                    ) -> list[tuple[object, object]]:
    """Both sides of every instance, the variables over every element in
    `itertools.product` order: cell ids spread from a linear identity's
    code, trees grounded from a nested identity, which has no code."""
    pairs: list[tuple[object, object]] = []
    if not isinstance(source, Identity):
        for ls, rs in layout.code_instances(source):
            pairs += zip(ls, rs)
        return pairs
    vs = identity_variables(source)
    return [(_ground(source.lhs, rho), _ground(source.rhs, rho))
            for rho in (dict(zip(vs, values)) for values in
                        itertools.product(range(layout.n), repeat=len(vs)))]


def _ground(t: Term, rho: Mapping[Variable, int]) -> object:
    """A variable's value, which is its cell, else (name, children codes)."""
    if isinstance(t, Variable):
        return rho[t]
    return (t.symbol.name, tuple(_ground(c, rho) for c in t.children))


def _compile(theory: Theory, size: int
             ) -> tuple[FlatLayout, tuple[tuple[object, object], ...]]:
    """The cell layout over `size` elements and every identity's ground
    instances, which no search changes; kept on the theory per size."""
    layout = FlatLayout(theory.symbols, size)
    pairs: list[tuple[object, object]] = []
    for k, code in enumerate(theory.codes):
        pairs += _instance_pairs(layout, theory.identities[k] if code is None else code)
    return layout, tuple(pairs)


class _TableSearch:
    """Backtracking over `cells` with forcing propagation (module docstring).

    The layout and the identities' instances are shared and only read; the
    cells, watch lists, trail and the goal's instances are the search's own.
    """

    def __init__(self, layout: FlatLayout, instances: Sequence[tuple[object, object]],
                 goal: Optional[Identity]):
        self.size = size = layout.n
        self.layout = layout
        self.cells: list[Optional[int]] = list(range(size)) + [None] * (layout.size - size)
        self.watch: list[list[int]] = [[] for _ in self.cells]
        self.watched: set[tuple[int, int]] = set()  # lists only grow: no pair twice
        self.trail: list[int] = []
        self.instances = instances
        self.stack = list(range(len(instances)))
        self.goal = goal
        if goal is not None:
            self.goal_vars = identity_variables(goal)
            self.goal_instances = _instance_pairs(layout, identity_code(goal) or goal)

    def _value(self, code: object) -> int:
        """A compiled side's value, or ~c for the first undecided cell c it reads."""
        if isinstance(code, int):
            cell = code
        else:
            name, kids = code  # type: ignore[misc]
            values = []
            for k in kids:
                v = self._value(k)
                if v < 0:
                    return v
                values.append(v)
            cell = self.layout.encode(name, values)
        v = self.cells[cell]
        return ~cell if v is None else v

    def _set(self, cell: int, value: int) -> None:
        self.cells[cell] = value
        self.trail.append(cell)
        self.stack.extend(self.watch[cell])

    def _propagate(self) -> bool:
        """Evaluate the stacked instances to a fixpoint; False on a conflict."""
        stack, value, watch = self.stack, self._value, self.watch
        while stack:
            j = stack.pop()
            lhs, rhs = self.instances[j]
            lv, rv = value(lhs), value(rhs)
            if lv >= 0 and rv >= 0:
                if lv == rv:
                    continue
                stack.clear()
                return False
            # an undecided root cell, with every argument decided, is forced
            if lv >= 0 and (isinstance(rhs, int) or all(value(k) >= 0 for k in rhs[1])):
                self._set(~rv, lv)
            elif rv >= 0 and (isinstance(lhs, int) or all(value(k) >= 0 for k in lhs[1])):
                self._set(~lv, rv)
            else:
                for v in (lv, rv):
                    if v < 0 and (~v, j) not in self.watched:
                        self.watched.add((~v, j))
                        watch[~v].append(j)
        return True

    def _first_undecided(self) -> Optional[int]:
        return self.cells.index(None) if None in self.cells else None

    def _constraint_status(self) -> tuple[Optional[Assignment], bool]:
        """(first assignment definitely separating the sides, any undecided)."""
        undecided = False
        for j, (lhs, rhs) in enumerate(self.goal_instances):
            lv, rv = self._value(lhs), self._value(rhs)
            if lv < 0 or rv < 0:
                undecided = True
            elif lv != rv:
                # instance j assigns the goal's variables j's base-size
                # digits, the last variable's the lowest
                values = []
                for _ in self.goal_vars:
                    j, digit = divmod(j, self.size)
                    values.append(digit)
                return dict(zip(self.goal_vars, reversed(values))), undecided
        return None, undecided

    def _freeze(self) -> FiniteAlgebra:
        tables = {}
        for s in self.layout.symbols:
            offset = self.layout.offsets[s.name]
            tab = self.cells[offset:offset + self.size ** s.arity]
            if None in tab:
                raise IncompleteModelError(
                    f"table of {s.name} has an undecided cell at index {tab.index(None)}")
            tables[s.name] = tuple(tab)
        return FiniteAlgebra(self.size, self.layout.symbols, tables)  # type: ignore[arg-type]

    def run(self) -> Optional[tuple[FiniteAlgebra, Assignment]]:
        return self._search() if self._propagate() else None

    def _search(self) -> Optional[tuple[FiniteAlgebra, Assignment]]:
        witness: Optional[Assignment] = {}
        if self.goal is not None:
            witness, undecided = self._constraint_status()
            if witness is None and not undecided:
                return None  # constraint already failed on every assignment
        cell = self._first_undecided()
        if cell is None:
            return None if witness is None else (self._freeze(), witness)
        mark = len(self.trail)
        for value in range(self.size):
            self._set(cell, value)
            if self._propagate():
                found = self._search()
                if found is not None:
                    return found
            for c in self.trail[mark:]:
                self.cells[c] = None
            del self.trail[mark:]
        return None


def find_model(theory: Theory, lo: int = 2, hi: int = 3,
               constraint: Optional[Identity] = None
               ) -> Optional[tuple[FiniteAlgebra, Assignment]]:
    """First model of the theory in the size range, in deterministic order,
    and an assignment separating the constraint's sides (empty without one).

    An idempotency axiom needs no special case: its instances fix the
    diagonal cells in the first propagation.  Returns None when the range
    is exhausted, which is a bound, never a proof of entailment.
    """
    if lo < 1:
        raise ValueError("model size must be at least 1")
    for size in range(lo, hi + 1):
        layout, instances = theory.compiled(("models", size),
                                            lambda: _compile(theory, size))
        found = _TableSearch(layout, instances, constraint).run()
        if found is not None:
            return found
    return None


def refute_entailment(theory: Theory, goal: Identity, lo: int = 2, hi: int = 3
                      ) -> Optional[tuple[FiniteAlgebra, Assignment]]:
    """A model of the theory separating the goal's sides, if one exists in range."""
    return find_model(theory, lo, hi, goal)
