"""Decision engine for linear identities: saturation over flat terms.

Every linear identity over a fixed finite variable context instantiates to
pairs of *flat atoms* (variables, or a symbol applied to context variables).
The engine computes the finest partition of all flat atoms that merges every
such instance pair; two flat terms are judged equal exactly when their
embeddings land in one class.  The atom universe is finite, so saturation
terminates, and the instance set is closed under composing substitutions,
which makes the resulting partition stable under every context endomap.

The context size follows from a retraction argument.  Take a chain of
instance steps over a context C whose endpoint atoms use only the
variables V, a subset of C, and map every atom along tau: C -> V, the
identity on V.  Each instance step maps to an instance step (compose its
substitution with tau) or to no step at all, so the image is a chain over V
with the same endpoints and no more steps.  A query over k variables
therefore gets the same answer, and a shortest chain of the same length, in
every context of at least k variables.  The engine's own queries are facts
x = F(w) and x = y, so the default context has max_arity + 1 variables (at
least two); a larger linear goal gets a context of its own variable count.

The same lemma bounds certificate extraction.  A shortest chain between two
atoms exists among the atoms over their own variables, so the chain search
assigns free variables only from the endpoints' variables: two of them for
an inconsistency chain x ~ F(y,...,y), whatever the context size.
Inconsistency is decided by a class test alone; `is_inconsistent` builds
the chain, and iteration traces call it only when their certificate is read.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from . import models
from .rewriting import CertificateError, Derivation, make_step, verify_derivation
from .terms import (
    Application,
    Term,
    Variable,
    canonical_variable,
    fresh_variables,
    is_flat,
    term_variables,
)
from .theories import (
    Identity,
    Theory,
    UnknownSymbolError,
    identity_variables,
    is_linear_identity,
)


class BudgetTooSmallError(Exception):
    """A query needs more distinct variables than the saturation context has."""


def default_budget(theory: Theory) -> int:
    """Variables of the largest query the engine makes: x = F(w)."""
    return max(2, theory.max_arity() + 1)


def goal_budget(theory: Theory, goal: Identity) -> int:
    """The default context, widened to hold every variable of the goal."""
    return max(default_budget(theory), len(identity_variables(goal)))


class FlatFactBase:
    """Partition of the flat atoms over a bounded variable context.

    Atoms are interned as integers: ids 0..budget-1 are the context
    variables, and each symbol owns a block of consecutive ids, one per
    argument tuple in row-major order.
    """

    def __init__(self, theory: Theory, budget: int):
        if budget < 2:
            raise BudgetTooSmallError("the context needs at least two variables")
        for e in theory.identities:
            if not is_linear_identity(e):
                raise ValueError(f"flat saturation needs a linear theory; {e} is not")
        self.theory = theory
        self.budget = budget
        self.context = tuple(canonical_variable(i) for i in range(budget))
        self._offsets: dict[str, int] = {}
        total = budget
        for s in theory.symbols:
            self._offsets[s.name] = total
            total += budget ** s.arity
        self.size = total
        self._parent = list(range(total))
        self._applied = 0
        self._apply_identities(0)

    # -- union-find ---------------------------------------------------------

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def _union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def same_class(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def classes(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i in range(self.size):
            out.setdefault(self.find(i), []).append(i)
        return out

    # -- atom interning -----------------------------------------------------

    def atom_id(self, t: Term) -> int:
        if isinstance(t, Variable):
            try:
                index = self.context.index(t)
            except ValueError:
                raise KeyError(f"{t} is not a context variable") from None
            return index
        offset = self._offsets.get(t.symbol.name)
        sym = self.theory.symbol_named(t.symbol.name)
        if offset is None or sym != t.symbol:
            raise UnknownSymbolError(f"{t.symbol} is not in {self.theory.name}")
        index = 0
        for c in t.children:
            if not isinstance(c, Variable):
                raise ValueError(f"{t} is not flat")
            index = index * self.budget + self.context.index(c)
        return offset + index

    def atom_term(self, i: int) -> Term:
        name, digits = self._atom_digits(i)
        if name is None:
            return self.context[i]
        return Application(self.theory.symbol_named(name),
                           tuple(self.context[d] for d in digits))

    def _atom_digits(self, i: int) -> tuple[Optional[str], tuple[int, ...]]:
        """(symbol name or None for a variable, context indices used)."""
        if i < self.budget:
            return None, (i,)
        for s in reversed(self.theory.symbols):
            offset = self._offsets[s.name]
            if i >= offset:
                digits = []
                rem = i - offset
                for _ in range(s.arity):
                    digits.append(rem % self.budget)
                    rem //= self.budget
                digits.reverse()
                return s.name, tuple(digits)
        raise IndexError(i)

    # -- saturation ---------------------------------------------------------

    def _side_plan(self, side: Term, var_index: dict[Variable, int]):
        if isinstance(side, Variable):
            return (var_index[side], None, None)
        offset = self._offsets[side.symbol.name]
        coeffs = []
        c = 1
        for child in reversed(side.children):
            coeffs.append((var_index[child], c))
            c *= self.budget
        return (None, offset, tuple(coeffs))

    def _apply_identities(self, start: int) -> None:
        b = self.budget
        for idx in range(start, len(self.theory.identities)):
            e = self.theory.identities[idx]
            vs = identity_variables(e)
            var_index = {v: i for i, v in enumerate(vs)}
            lvar, loff, lcoef = self._side_plan(e.lhs, var_index)
            rvar, roff, rcoef = self._side_plan(e.rhs, var_index)
            for assignment in itertools.product(range(b), repeat=len(vs)):
                if lvar is not None:
                    a = assignment[lvar]
                else:
                    a = loff
                    for vi, c in lcoef:
                        a += assignment[vi] * c
                if rvar is not None:
                    c2 = assignment[rvar]
                else:
                    c2 = roff
                    for vi, c in rcoef:
                        c2 += assignment[vi] * c
                if a != c2:
                    self._union(a, c2)
        self._applied = len(self.theory.identities)

    def extend(self, theory: Theory) -> "FlatFactBase":
        """Saturation for a theory extending this one by extra identities.

        Merging is monotone in the identity set, so the existing partition
        carries over and only the new identities' instances are processed.
        """
        if theory.symbols != self.theory.symbols:
            raise ValueError("extension must keep the signature")
        n = len(self.theory.identities)
        if theory.identities[:n] != self.theory.identities:
            raise ValueError("extension must keep the existing identities as a prefix")
        out = object.__new__(FlatFactBase)
        out.theory = theory
        out.budget = self.budget
        out.context = self.context
        out._offsets = self._offsets
        out.size = self.size
        out._parent = list(self._parent)
        out._applied = n
        out._apply_identities(n)
        return out

    # -- queries ------------------------------------------------------------

    def _embed(self, goal: Identity) -> tuple[int, int, dict[Variable, int]]:
        for side in (goal.lhs, goal.rhs):
            if not is_flat(side):
                raise ValueError(f"{side} is not linear; only flat queries are decidable")
        goal_vars = [v for v in
                     dict.fromkeys(term_variables(goal.lhs) + term_variables(goal.rhs))]
        if len(goal_vars) > self.budget:
            raise BudgetTooSmallError(
                f"goal uses {len(goal_vars)} variables, context has {self.budget}")
        embedding = {v: i for i, v in enumerate(goal_vars)}

        def encode(side: Term) -> int:
            if isinstance(side, Variable):
                return embedding[side]
            sym = self.theory.symbol_named(side.symbol.name)
            if sym != side.symbol:
                raise UnknownSymbolError(
                    f"{side.symbol} is not in {self.theory.name}")
            index = 0
            for c in side.children:
                index = index * self.budget + embedding[c]
            return self._offsets[side.symbol.name] + index

        return encode(goal.lhs), encode(goal.rhs), embedding

    def entails(self, goal: Identity) -> bool:
        """Linear entailment: one class, or a collapsed theory.

        Once two distinct variables share a class the theory proves every
        identity, including ones with no flat derivation of their own (the
        flattening argument needs consistency), so that case short-circuits.
        """
        a, b, _ = self._embed(goal)
        return self.same_class(a, b) or self.variables_merged()

    def fact_entailed(self, symbol_name: str, digits: tuple[int, ...]) -> bool:
        """Does the class of v0 contain symbol(context[digits])?"""
        index = 0
        for d in digits:
            index = index * self.budget + d
        return self.same_class(0, self._offsets[symbol_name] + index) \
            or self.variables_merged()

    def variables_merged(self) -> bool:
        return self.same_class(0, 1)

    # -- derivation extraction ----------------------------------------------

    def _neighbors(self, aid: int, allowed: list[int]
                   ) -> Iterator[tuple[int, int, bool, dict[Variable, int]]]:
        """Atoms one identity instance away, in a fixed deterministic order.

        Free variables of the produced side range over the context indices
        `allowed` (a chain search passes its endpoints' variables, so every
        atom it reaches stays over them).  Those absent from the source atom
        come first, so extracted chains introduce fresh variables the way a
        written-out proof would.
        """
        kind, digits = self._atom_digits(aid)
        order = [i for i in allowed if i not in digits] + sorted(set(digits))
        for idx, e in enumerate(self.theory.identities):
            for src, dst, forward in ((e.lhs, e.rhs, True), (e.rhs, e.lhs, False)):
                sigma0 = self._match_side(src, kind, digits)
                if sigma0 is None:
                    continue
                free = [v for v in term_variables(dst) if v not in sigma0]
                for values in itertools.product(order, repeat=len(free)):
                    sigma = dict(sigma0)
                    sigma.update(zip(free, values))
                    tid = self._encode_side(dst, sigma)
                    if tid != aid:
                        yield tid, idx, forward, sigma

    def _match_side(self, side: Term, kind: Optional[str],
                    digits: tuple[int, ...]) -> Optional[dict[Variable, int]]:
        if isinstance(side, Variable):
            if kind is not None:
                return None
            return {side: digits[0]}
        if kind != side.symbol.name:
            return None
        sigma: dict[Variable, int] = {}
        for child, d in zip(side.children, digits):
            if not isinstance(child, Variable):
                raise ValueError(f"{side} is not flat")
            if sigma.setdefault(child, d) != d:
                return None
        return sigma

    def _encode_side(self, side: Term, sigma: dict[Variable, int]) -> int:
        if isinstance(side, Variable):
            return sigma[side]
        index = 0
        for c in side.children:
            index = index * self.budget + sigma[c]
        return self._offsets[side.symbol.name] + index

    def shortest_chain(self, a: int, b: int
                       ) -> Optional[tuple[list[int], list[tuple[int, bool, dict[Variable, int]]]]]:
        """Shortest path between two atoms through identity-instance edges.

        The search stays among the atoms over the endpoints' variables; by
        the retraction lemma a shortest chain of the whole context has an
        image there that is no longer.
        """
        if not self.same_class(a, b):
            return None
        if a == b:
            return [a], []
        allowed = sorted(set(self._atom_digits(a)[1]) | set(self._atom_digits(b)[1]))
        parents: dict[int, tuple[int, tuple[int, bool, dict[Variable, int]]]] = {}
        seen = {a}
        queue = deque([a])
        while queue:
            cur = queue.popleft()
            for tid, idx, forward, sigma in self._neighbors(cur, allowed):
                if tid in seen:
                    continue
                seen.add(tid)
                parents[tid] = (cur, (idx, forward, sigma))
                if tid == b:
                    ids = [b]
                    edges = []
                    node = b
                    while node != a:
                        prev, edge = parents[node]
                        edges.append(edge)
                        ids.append(prev)
                        node = prev
                    ids.reverse()
                    edges.reverse()
                    return ids, edges
                queue.append(tid)
        # Atoms of one class are joined by a chain over their own variables
        # (the retraction lemma), so this is unreachable.
        raise CertificateError("atoms share a class but no chain was found")


@dataclass(frozen=True)
class Entailed:
    derivation: Derivation


@dataclass(frozen=True)
class NotEntailed:
    note: str = "saturation fixpoint reached without merging the goal"


@dataclass(frozen=True)
class NotEntailedWithModel:
    algebra: models.FiniteAlgebra
    assignment: tuple[tuple[str, int], ...]


EntailmentVerdict = Entailed | NotEntailed | NotEntailedWithModel


_CACHE: dict[tuple[Theory, int], FlatFactBase] = {}


def saturate(theory: Theory, budget: Optional[int] = None) -> FlatFactBase:
    """Saturated fact base for the theory, memoized per (theory, budget)."""
    if budget is None:
        budget = default_budget(theory)
    key = (theory, budget)
    base = _CACHE.get(key)
    if base is None:
        base = FlatFactBase(theory, budget)
        _CACHE[key] = base
    return base


def saturate_extending(prev: FlatFactBase, theory: Theory) -> FlatFactBase:
    """Like saturate, but reuses a previous stage's partition."""
    key = (theory, prev.budget)
    base = _CACHE.get(key)
    if base is None:
        base = prev.extend(theory)
        _CACHE[key] = base
    return base


def _output_renaming(base: FlatFactBase, embedding: dict[Variable, int]
                     ) -> dict[int, Variable]:
    """Map context indices back to goal variables, keeping the rest readable."""
    rename: dict[int, Variable] = {i: v for v, i in embedding.items()}
    taken = {v.name for v in rename.values()}
    fresh = fresh_variables(taken)
    for i in range(base.budget):
        if i in rename:
            continue
        name = base.context[i].name
        if name not in taken:
            rename[i] = base.context[i]
            taken.add(name)
        else:
            v = next(fresh)
            rename[i] = v
            taken.add(v.name)
    return rename


def _chain_derivation(base: FlatFactBase, ids: list[int],
                      edges: list[tuple[int, bool, dict[Variable, int]]],
                      rename: dict[int, Variable]) -> Derivation:
    terms = []
    for i in ids:
        t = base.atom_term(i)
        if isinstance(t, Variable):
            terms.append(rename[base.context.index(t)])
        else:
            terms.append(Application(
                t.symbol, tuple(rename[base.context.index(c)] for c in t.children)))
    steps = []
    for idx, forward, sigma in edges:
        eq = base.theory.identities[idx]
        subst = {v: rename[d] for v, d in sigma.items()}
        steps.append(make_step(eq, forward, (), subst))
    d = Derivation(base.theory.name, tuple(terms), tuple(steps))
    check = verify_derivation(base.theory, d)
    if not check:
        raise CertificateError(
            f"extracted derivation failed verification: {check.reason}")
    return d


def _chain(base: FlatFactBase, a: int, b: int
           ) -> tuple[list[int], list[tuple[int, bool, dict[Variable, int]]]]:
    chain = base.shortest_chain(a, b)
    if chain is None:
        raise CertificateError(
            f"no chain between {base.atom_term(a)} and {base.atom_term(b)}")
    return chain


def _collapse_instance_derivation(base: FlatFactBase, goal: Identity) -> Derivation:
    """Certificate for a goal over a theory whose variables collapsed.

    The chain proving two variables equal is instantiated with the goal's
    sides; the instance verifies, though its inner terms need not be flat.
    """
    from .rewriting import substitute_derivation

    goal_names = {v.name for v in
                  term_variables(goal.lhs) + term_variables(goal.rhs)}
    fresh = fresh_variables(goal_names)
    rename = {}
    taken = set(goal_names)
    for i in range(base.budget):
        v = next(fresh)
        rename[i] = v
        taken.add(v.name)
    ids, edges = _chain(base, 0, 1)
    collapse = _chain_derivation(base, ids, edges, rename)
    instance = substitute_derivation(
        collapse, {rename[0]: goal.lhs, rename[1]: goal.rhs})
    check = verify_derivation(base.theory, instance)
    if not check:
        raise CertificateError(
            f"collapse instance failed verification: {check.reason}")
    return instance


def entails_flat(base: FlatFactBase, goal: Identity,
                 with_countermodel: bool = True,
                 model_range: tuple[int, int] = (2, 3)) -> EntailmentVerdict:
    """Decide a linear goal against the saturated base.

    Entailed verdicts carry a verifying derivation, flat throughout whenever
    the theory is consistent; a negative verdict is upgraded with a
    separating finite model when one exists in the default size range.
    """
    a, b, embedding = base._embed(goal)
    if base.same_class(a, b):
        ids, edges = _chain(base, a, b)
        rename = _output_renaming(base, embedding)
        return Entailed(_chain_derivation(base, ids, edges, rename))
    if base.variables_merged():
        return Entailed(_collapse_instance_derivation(base, goal))
    if with_countermodel:
        found = models.refute_entailment(base.theory, goal, *model_range)
        if found is not None:
            algebra, rho = found
            witness = tuple(sorted((v.name, k) for v, k in rho.items()))
            return NotEntailedWithModel(algebra, witness)
    return NotEntailed()


def inconsistency_target(base: FlatFactBase) -> Optional[int]:
    """An atom whose class shows the theory inconsistent, or None.

    That is the context variable v1 once the variables merged, else
    F(v1,...,v1) for the first symbol F of positive arity when it lies in
    the class of v0.  No chain is built: this is the whole decision.
    """
    if base.variables_merged():
        return 1
    first = next((s for s in base.theory.symbols if s.arity >= 1), None)
    if first is None:
        return None
    index = 0
    for _ in range(first.arity):
        index = index * base.budget + 1
    qid = base._offsets[first.name] + index
    return qid if base.same_class(0, qid) else None


def is_inconsistent(theory: Theory, with_countermodel: bool = True,
                    model_range: tuple[int, int] = (2, 3)) -> EntailmentVerdict:
    """Decide whether the theory proves two distinct variables equal.

    For an idempotent theory this is equivalent to the flat query
    x = F(y,...,y) for any symbol F; both that query and the direct
    variable-to-variable class check are consulted, so theories containing
    bare two-variable identities are still caught.
    """
    base = saturate(theory)
    x, y = Variable("x"), Variable("y")
    target = inconsistency_target(base)
    if target is not None:
        rename = _output_renaming(base, {x: 0, y: 1})
        ids, edges = _chain(base, 0, target)
        return Entailed(_chain_derivation(base, ids, edges, rename))
    if with_countermodel:
        found = models.refute_entailment(theory, Identity(x, y), *model_range)
        if found is not None:
            algebra, rho = found
            witness = tuple(sorted((v.name, k) for v, k in rho.items()))
            return NotEntailedWithModel(algebra, witness)
    return NotEntailed()
