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

The layout, the identities' instances and the first model depend only on
the theory and the size, so the first model is searched once per theory
object and size, and `find_model` keeps all three in `Theory.compiled`.
A goal (a constraint whose sides must differ under some assignment) is
first evaluated on that model, and the constrained search runs only when
the model does not separate it.  That returns what the constrained search
alone would:

- The goal never enters propagation, so the constrained search walks the
  same tree, in the same order, as the unconstrained one.
- It prunes only subtrees in which every goal instance is already decided
  equal; decided cells stay decided below, so those subtrees hold no
  separating leaf.
- So it returns the first leaf, in the unconstrained order, that separates
  the goal, with the first unequal instance as its witness.  When the first
  model separates the goal, that model is the leaf, and the witness is read
  from it the same way.
- A size with no model at all has no separating one, so it is skipped.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

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
    """The algebra of a `FiniteAlgebra.to_json` dict over the given symbols.

    A forged one raises `ValueError`: a size that is not an int of at least
    1 (an empty algebra satisfies every theory), a missing or an extra
    symbol, a table whose length is not size ** arity, or a value outside
    range(size)."""
    size = data["size"]
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise ValueError(f"model size must be an int of at least 1, not {size!r}")
    names = {s.name for s in symbols}
    if set(data["tables"]) != names:
        raise ValueError(f"model tables name {sorted(data['tables'])}, "
                         f"but the symbols are {sorted(names)}")
    tables = {}
    for s in symbols:
        table = tuple(data["tables"][s.name])
        if len(table) != size ** s.arity:
            raise ValueError(f"table of {s.name} has {len(table)} entries, "
                             f"not {size}**{s.arity}")
        bad = [v for v in table
               if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < size]
        if bad:
            raise ValueError(f"table of {s.name} holds {bad[0]!r}, "
                             f"not an element of range({size})")
        tables[s.name] = table
    return FiniteAlgebra(size, symbols, tables)


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
                    ) -> Iterator[tuple[object, object]]:
    """Both sides of every instance, the variables over every element in
    `itertools.product` order: cell ids spread from a linear identity's
    code, trees grounded from a nested identity, which has no code."""
    if not isinstance(source, Identity):
        for ls, rs in layout.code_instances(source):
            yield from zip(ls, rs)
        return
    vs = identity_variables(source)
    for values in itertools.product(range(layout.n), repeat=len(vs)):
        rho = dict(zip(vs, values))
        yield _ground(source.lhs, rho), _ground(source.rhs, rho)


def _ground(t: Term, rho: Mapping[Variable, int]) -> object:
    """A variable's value, which is its cell, else (name, children codes)."""
    if isinstance(t, Variable):
        return rho[t]
    return (t.symbol.name, tuple(_ground(c, rho) for c in t.children))


class _Compiled(NamedTuple):
    """What `find_model` keeps per theory object and model size."""

    layout: FlatLayout
    instances: tuple[tuple[object, object], ...]  # every identity's, in order
    first: Optional[tuple[int, ...]]  # the first model's cells; None: no model


def _compile(theory: Theory, size: int) -> _Compiled:
    """The cell layout over `size` elements, every identity's ground
    instances and the first model, none of which depends on a goal."""
    layout = FlatLayout(theory.symbols, size)
    pairs: list[tuple[object, object]] = []
    for k, code in enumerate(theory.codes):
        pairs += _instance_pairs(layout, theory.identities[k] if code is None else code)
    instances = tuple(pairs)
    search = _TableSearch(layout, instances, None)
    first = None if search.run() is None else tuple(search.cells)
    return _Compiled(layout, instances, first)


def _value(layout: FlatLayout, cells: Sequence[Optional[int]], side: object) -> int:
    """A compiled side's value, or ~c for the first undecided cell c it reads."""
    if isinstance(side, int):
        cell = side
    else:
        name, kids = side  # type: ignore[misc]
        values = []
        for k in kids:
            v = _value(layout, cells, k)
            if v < 0:
                return v
            values.append(v)
        cell = layout.encode(name, values)
    v = cells[cell]
    return ~cell if v is None else v


def _goal_status(goal: Iterable[tuple[object, object]], value: Callable[[object], int]
                 ) -> tuple[Optional[int], bool]:
    """(the first goal instance whose sides are decided and differ, whether
    any instance reads an undecided cell)."""
    undecided = False
    for j, (lhs, rhs) in enumerate(goal):
        lv, rv = value(lhs), value(rhs)
        if lv < 0 or rv < 0:
            undecided = True
        elif lv != rv:
            return j, undecided
    return None, undecided


def _freeze(layout: FlatLayout, cells: Sequence[Optional[int]]) -> FiniteAlgebra:
    """The algebra of complete cells, in tables of its own, so no two
    callers share one; an undecided cell raises `IncompleteModelError`."""
    size = layout.n
    tables = {}
    for s in layout.symbols:
        offset = layout.offsets[s.name]
        tab = tuple(cells[offset:offset + size ** s.arity])
        if None in tab:
            raise IncompleteModelError(
                f"table of {s.name} has an undecided cell at index {tab.index(None)}")
        tables[s.name] = tab
    return FiniteAlgebra(size, layout.symbols, tables)  # type: ignore[arg-type]


class _TableSearch:
    """Backtracking over `cells` with forcing propagation (module docstring).

    The layout and the identities' instances are shared and only read; the
    cells, watch lists and trail are the search's own.
    """

    def __init__(self, layout: FlatLayout, instances: Sequence[tuple[object, object]],
                 goal: Optional[Sequence[tuple[object, object]]]):
        self.size = size = layout.n
        self.layout = layout
        self.cells: list[Optional[int]] = list(range(size)) + [None] * (layout.size - size)
        self.watch: list[list[int]] = [[] for _ in self.cells]
        self.watched: set[tuple[int, int]] = set()  # lists only grow: no pair twice
        self.trail: list[int] = []
        self.instances = instances
        self.stack = list(range(len(instances)))
        self.goal = goal  # the goal's instances, if any
        self.value = functools.partial(_value, layout, self.cells)

    def _set(self, cell: int, value: int) -> None:
        self.cells[cell] = value
        self.trail.append(cell)
        self.stack.extend(self.watch[cell])

    def _propagate(self) -> bool:
        """Evaluate the stacked instances to a fixpoint; False on a conflict."""
        stack, value, watch = self.stack, self.value, self.watch
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

    def _first_undecided(self, start: int) -> Optional[int]:
        """The first undecided cell from `start` on; every cell before the
        last branching cell is decided, so the scan resumes there."""
        try:
            return self.cells.index(None, start)
        except ValueError:
            return None

    def run(self) -> Optional[int]:
        """Search for the first model that separates the goal, and leave it
        in `cells`; return the first goal instance it separates (0 without
        a goal), or None when there is no such model.

        A depth-first search on an explicit stack of open branches, one
        (cell, trail mark, value tried) per branching cell, so its depth is
        not bounded by Python's recursion limit.  Values are tried in
        ascending order, so the first leaf reached is the first model.
        """
        if not self._propagate():
            return None
        branches: list[list[int]] = []
        start = 0
        while True:
            witness: Optional[int] = 0
            undecided = True
            if self.goal is not None:
                witness, undecided = _goal_status(self.goal, self.value)
            # a node whose goal instances are all decided equal is pruned
            if witness is not None or undecided:
                cell = self._first_undecided(start)
                if cell is None:
                    return witness
                branches.append([cell, len(self.trail), -1])
            while True:
                if not branches:
                    return None
                branch = branches[-1]
                cell, mark, value = branch
                for c in self.trail[mark:]:
                    self.cells[c] = None
                del self.trail[mark:]
                if value + 1 == self.size:
                    branches.pop()
                    continue
                branch[2] = value + 1
                self._set(cell, value + 1)
                if self._propagate():
                    break
            start = cell + 1


def _assignment(variables: Sequence[Variable], j: int, size: int) -> Assignment:
    """The assignment of goal instance j: instances run over the variables'
    values in `itertools.product` order, so j's base-size digits, the last
    variable's the lowest."""
    values = []
    for _ in variables:
        j, digit = divmod(j, size)
        values.append(digit)
    return dict(zip(variables, reversed(values)))


def find_model(theory: Theory, lo: int = 2, hi: int = 3,
               constraint: Optional[Identity] = None
               ) -> Optional[tuple[FiniteAlgebra, Assignment]]:
    """First model of the theory in the size range, in deterministic order,
    and an assignment separating the constraint's sides (empty without one).

    An idempotency axiom needs no special case: its instances fix the
    diagonal cells in the first propagation.  The first model of each size
    is searched once and kept on the theory; a constraint it does not
    separate gets a search of its own (module docstring).  Returns None
    when the range is exhausted, which is a bound, never a proof of
    entailment.
    """
    if lo < 1:
        raise ValueError("model size must be at least 1")
    goal_source = None if constraint is None else identity_code(constraint) or constraint
    for size in range(lo, hi + 1):
        layout, instances, cells = theory.compiled(("models", size),
                                                   lambda: _compile(theory, size))
        if cells is None:
            continue  # no model of this size, so none separating the goal
        if goal_source is None:
            return _freeze(layout, cells), {}
        witness, _ = _goal_status(_instance_pairs(layout, goal_source),
                                  functools.partial(_value, layout, cells))
        if witness is None:
            search = _TableSearch(layout, instances,
                                  tuple(_instance_pairs(layout, goal_source)))
            witness = search.run()
            if witness is None:
                continue
            cells = search.cells
        return (_freeze(layout, cells),
                _assignment(identity_variables(constraint), witness, size))
    return None


def refute_entailment(theory: Theory, goal: Identity, lo: int = 2, hi: int = 3
                      ) -> Optional[tuple[FiniteAlgebra, Assignment]]:
    """A model of the theory separating the goal's sides, if one exists in range."""
    return find_model(theory, lo, hi, goal)
