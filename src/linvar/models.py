"""Finite algebras: evaluation, satisfaction, and backtracking model search.

A model of size >= 2 witnesses consistency of a theory; a model in which an
identity's two sides evaluate differently refutes entailment.  The search
fills operation-table cells in lexicographic order with constraint
propagation from the theory's identities, so results are deterministic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

from .terms import OperationSymbol, Term, Variable, term_variables
from .theories import (
    Identity,
    Theory,
    canonicalize_identity,
    idempotency_identity,
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


@dataclass(frozen=True)
class Disequality:
    """Require some assignment extending `fixed` with lhs and rhs differing."""

    lhs: Term
    rhs: Term
    fixed: tuple[tuple[Variable, int], ...] = ()


def _explicitly_idempotent(theory: Theory) -> frozenset[str]:
    canon = theory.identity_set()
    return frozenset(
        s.name for s in theory.symbols
        if s.arity >= 1 and canonicalize_identity(idempotency_identity(s)) in canon
    )


class _TableSearch:
    """Backtracking over table cells with forcing propagation.

    Linear identities give strong propagation: once an instance's argument
    cells are decided, the instance pins the remaining root cell.
    """

    def __init__(self, theory: Theory, size: int, fix_diagonals: bool,
                 constraint: Optional[Disequality] = None):
        self.theory = theory
        self.size = size
        self.symbols = theory.symbols
        self.tables: dict[str, list[Optional[int]]] = {
            s.name: [None] * (size ** s.arity) for s in self.symbols
        }
        self.trail: list[tuple[str, int]] = []
        self.instances = self._ground_instances()
        self.constraint_instances = self._constraint_instances(constraint)
        if fix_diagonals:
            idempotent = _explicitly_idempotent(theory)
            for sym in self.symbols:
                if sym.name in idempotent:
                    for a in range(size):
                        self.tables[sym.name][self._index((a,) * sym.arity)] = a

    def _index(self, args: tuple[int, ...]) -> int:
        index = 0
        for a in args:
            index = index * self.size + a
        return index

    # Ground terms are nested tuples: an int leaf, or (symbol name, children).
    def _ground_instances(self) -> list[tuple[object, object]]:
        out = []
        for e in self.theory.identities:
            vs = identity_variables(e)
            for values in itertools.product(range(self.size), repeat=len(vs)):
                rho = dict(zip(vs, values))
                out.append((self._ground(e.lhs, rho), self._ground(e.rhs, rho)))
        return out

    def _ground(self, t: Term, rho: Mapping[Variable, int]) -> object:
        if isinstance(t, Variable):
            return rho[t]
        return (t.symbol.name, tuple(self._ground(c, rho) for c in t.children))

    def _eval(self, t: object) -> Optional[int]:
        if isinstance(t, int):
            return t
        name, children = t  # type: ignore[misc]
        args = []
        for c in children:
            v = self._eval(c)
            if v is None:
                return None
            args.append(v)
        return self.tables[name][self._index(tuple(args))]

    def _root_cell(self, t: object) -> Optional[tuple[str, int]]:
        """The undecided root cell of t, when all arguments are decided."""
        if isinstance(t, int):
            return None
        name, children = t  # type: ignore[misc]
        args = []
        for c in children:
            v = self._eval(c)
            if v is None:
                return None
            args.append(v)
        index = self._index(tuple(args))
        if self.tables[name][index] is None:
            return (name, index)
        return None

    def _set(self, name: str, index: int, value: int) -> bool:
        cur = self.tables[name][index]
        if cur is not None:
            return cur == value
        self.tables[name][index] = value
        self.trail.append((name, index))
        return True

    def _propagate(self) -> bool:
        changed = True
        while changed:
            changed = False
            for lhs, rhs in self.instances:
                lv = self._eval(lhs)
                rv = self._eval(rhs)
                if lv is not None and rv is not None:
                    if lv != rv:
                        return False
                    continue
                if lv is not None and rv is None:
                    cell = self._root_cell(rhs)
                    if cell is not None:
                        if not self._set(cell[0], cell[1], lv):
                            return False
                        changed = True
                elif rv is not None and lv is None:
                    cell = self._root_cell(lhs)
                    if cell is not None:
                        if not self._set(cell[0], cell[1], rv):
                            return False
                        changed = True
        return True

    def _first_undecided(self) -> Optional[tuple[str, int]]:
        for s in self.symbols:
            table = self.tables[s.name]
            for index, value in enumerate(table):
                if value is None:
                    return (s.name, index)
        return None

    def _constraint_instances(self, constraint: Optional[Disequality]
                              ) -> Optional[list[tuple[object, object, Assignment]]]:
        if constraint is None:
            return None
        fixed = dict(constraint.fixed)
        vs = [v for v in
              dict.fromkeys(term_variables(constraint.lhs) + term_variables(constraint.rhs))
              if v not in fixed]
        out = []
        for values in itertools.product(range(self.size), repeat=len(vs)):
            rho = dict(fixed)
            rho.update(zip(vs, values))
            out.append((self._ground(constraint.lhs, rho),
                        self._ground(constraint.rhs, rho), rho))
        return out

    def _constraint_status(self) -> tuple[Optional[Assignment], bool]:
        """(first assignment definitely separating the sides, any undecided)."""
        undecided = False
        for lhs, rhs, rho in self.constraint_instances:
            lv = self._eval(lhs)
            rv = self._eval(rhs)
            if lv is None or rv is None:
                undecided = True
            elif lv != rv:
                return rho, undecided
        return None, undecided

    def _freeze(self) -> FiniteAlgebra:
        tables = {}
        for name, tab in self.tables.items():
            if None in tab:
                raise IncompleteModelError(
                    f"table of {name} has an undecided cell at index {tab.index(None)}")
            tables[name] = tuple(tab)
        return FiniteAlgebra(self.size, self.symbols, tables)  # type: ignore[arg-type]

    def run(self) -> Optional[tuple[FiniteAlgebra, Assignment]]:
        if not self._propagate():
            return None
        return self._search()

    def _search(self) -> Optional[tuple[FiniteAlgebra, Assignment]]:
        if self.constraint_instances is not None:
            witness, undecided = self._constraint_status()
            if witness is None and not undecided:
                return None  # constraint already failed on every assignment
        cell = self._first_undecided()
        if cell is None:
            if self.constraint_instances is None:
                return self._freeze(), {}
            witness, _ = self._constraint_status()
            if witness is None:
                return None
            return self._freeze(), witness
        name, index = cell
        for value in range(self.size):
            mark = len(self.trail)
            ok = self._set(name, index, value) and self._propagate()
            if ok:
                found = self._search()
                if found is not None:
                    return found
            while len(self.trail) > mark:
                n, i = self.trail.pop()
                self.tables[n][i] = None
        return None


def find_model(theory: Theory, lo: int = 2, hi: int = 3,
               constraint: Optional[Disequality] = None,
               fix_idempotent_diagonals: bool = True
               ) -> Optional[tuple[FiniteAlgebra, Assignment]]:
    """First model of the theory in the size range, in deterministic order.

    Diagonal cells of symbols with an explicit idempotency axiom are
    pre-fixed; every model of such a theory has identity diagonals, so this
    prunes without losing completeness.  Returns None when the range is
    exhausted, which is a bound, never a proof of entailment.
    """
    if lo < 1:
        raise ValueError("model size must be at least 1")
    for size in range(lo, hi + 1):
        search = _TableSearch(theory, size, fix_idempotent_diagonals, constraint)
        found = search.run()
        if found is not None:
            return found
    return None


def refute_entailment(theory: Theory, goal: Identity, lo: int = 2, hi: int = 3
                      ) -> Optional[tuple[FiniteAlgebra, Assignment]]:
    """A model of the theory separating the goal's sides, if one exists in range."""
    return find_model(theory, lo, hi, Disequality(goal.lhs, goal.rhs))
