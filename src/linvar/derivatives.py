"""Weak-independence profiles, the derivative and order derivative, and
their iteration to inconsistency or a fixpoint.

A symbol F is weakly independent of place i when some derivable flat fact
x = F(w) has an entry other than x at place i.  The derivative strengthens
every weak independence to full independence; the order derivative closes
every derivable fact x = F(w) under replacing entries by x.  Both operators
only grow the theory, and their trigger data live in finite sets, so
iteration always stabilizes or turns inconsistent.

Both operators take one step, `_next_stage`, writing each new identity as
the code (`terms.Code`) of a canonical identity, never as terms: a pair
(F, i) is F(v0,...,v(a-1)) = F(the same with v(a) at place i), and a
mixture m of a fact x = F(w) is v0 = F(m renumbered by first occurrence).
So a stage is its parent plus the new codes, nothing is canonicalized
again, saturation extends the parent's base by them, and a stage builds
its `Identity` terms only when read.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Literal, Optional

from . import saturation
from .saturation import MIN_BUDGET, EntailmentVerdict, FlatFactBase
from .terms import Application, Code, OperationSymbol, Variable
from .theories import Identity, Theory, UnknownSymbolError

Operator = Literal["derivative", "order_derivative"]

_X = Variable("x")


class StabilizationError(Exception):
    """A stage's trigger data lost part of the previous stage's."""


@lru_cache(maxsize=None)
def _canonical_tuples(arity: int, width: int) -> tuple[tuple[int, ...], ...]:
    """Argument tuples over {x, y1..yn} up to renaming of the y's, in
    lexicographic order, with every entry below `width` (all of them from
    arity + 1 on).

    Entry 0 stands for x; nonzero entries are renamed to 1, 2, ... by first
    occurrence, which picks one representative per renaming class: the
    restricted-growth strings, where each entry is at most one more than
    the largest entry before it.  The fact x = F(w) of such a tuple has
    max(w) + 1 variables; at width 2 the tuples are {0,1}^arity in
    `itertools.product` order.
    """
    out: list[tuple[int, ...]] = [()]
    for _ in range(arity):
        out = [w + (d,) for w in out for d in range(min(max(w, default=0) + 2, width))]
    return tuple(out)


def _fact_identity(symbol: OperationSymbol, digits: tuple[int, ...]) -> Identity:
    args = tuple(_X if d == 0 else Variable(f"y{d}") for d in digits)
    return Identity(_X, Application(symbol, args))


def _mixture_code(name: str, digits: tuple[int, ...]) -> Code:
    """The code of x = F(digits) in canonical form: x is v0, and the other
    entries are renumbered by first occurrence, a restricted-growth string."""
    renaming = {0: 0}
    return None, (0,), name, tuple(renaming.setdefault(d, len(renaming)) for d in digits)


@dataclass(frozen=True)
class WeakIndependenceProfile:
    pairs: frozenset[tuple[str, int]]
    # one witnessing fact x = F(w) per pair, in (symbol, place) order, as
    # (F, place, w)
    witness_digits: tuple[tuple[OperationSymbol, int, tuple[int, ...]], ...]

    @cached_property
    def witnesses(self) -> tuple[tuple[str, int, Identity], ...]:
        """The witnessing facts as (symbol name, place, x = F(w)), built on
        first read."""
        return tuple((s.name, i, _fact_identity(s, w)) for s, i, w in self.witness_digits)


def weak_independence_profile(theory: Theory,
                              base: Optional[FlatFactBase] = None
                              ) -> WeakIndependenceProfile:
    """Which (symbol, place) pairs have a derivable fact x = F(w), w_i != x.

    Sending every y_j to one y is a substitution instance, so a place has
    such a fact exactly when it has one with w over {x, y}; and that
    substitution lowers or keeps every entry, so the lexicographically first
    witness is already such a tuple.  The queries are the canonical tuples
    of width two, so any base decides them, by default the two-variable one.
    """
    if base is None:
        base = saturation.saturate(theory, MIN_BUDGET)
    pairs = []
    witnesses = []
    for s in theory.symbols:
        if s.arity == 0:
            continue
        entailed = base.entailed_facts(s.name, _canonical_tuples(s.arity, MIN_BUDGET))
        for i in range(1, s.arity + 1):
            for w in entailed:
                if w[i - 1] != 0:
                    pairs.append((s.name, i))
                    witnesses.append((s, i, w))
                    break
    return WeakIndependenceProfile(frozenset(pairs), tuple(witnesses))


def _symbol(theory: Theory, name: str) -> OperationSymbol:
    symbol = theory.symbol_named(name)
    if symbol is None:
        raise UnknownSymbolError(f"{name!r} is not a symbol of {theory.name}")
    return symbol


def _independence_code(name: str, arity: int, place: int) -> Code:
    """The code of F(z1,...,u,...,zn) = F(z1,...,u',...,zn) in canonical
    form: u' is the new last variable."""
    left = tuple(range(arity))
    return name, left, name, left[:place - 1] + (arity,) + left[place:]


def _order_facts(base: FlatFactBase) -> tuple[frozenset, FlatFactBase]:
    """The canonical facts x = F(w) of the base's theory, and the base, as
    wide as they need, that decided them.

    The fact of w has max(w) + 1 variables, and the widths that occur are
    downward-closed: identifying two y's of a fact, or its only y with x,
    is a substitution instance one variable narrower.  So once no fact
    fills the context none is wider, and the context lemma decides every
    narrower fact exactly; until then the context grows by one, at most to
    max_arity + 1, the width of an n-ary symbol's widest fact."""
    theory = base.theory
    while True:
        width = base.budget
        facts = frozenset((s.name, w) for s in theory.symbols if s.arity for w in
                          base.entailed_facts(s.name, _canonical_tuples(s.arity, width)))
        if width > theory.max_arity() or all(max(w) + 1 < width for _, w in facts):
            return facts, base
        base = saturation.saturate(theory, width + 1)


def order_fact_set(theory: Theory, base: Optional[FlatFactBase] = None
                   ) -> frozenset[tuple[str, tuple[int, ...]]]:
    """All derivable canonical facts x = F(w), as (symbol, tuple) keys,
    read from the base (by default the two-variable one), widened as far as
    the facts need."""
    if base is None:
        base = saturation.saturate(theory, MIN_BUDGET)
    return _order_facts(base)[0]


def _next_stage(theory: Theory, operator: Operator, triggers: frozenset) -> Theory:
    """The theory plus the canonical codes its trigger data add, in order,
    each kept once; `Theory.extended` builds their identities on read."""
    codes: list[Code] = []
    if operator == "derivative":
        suffix = "'"
        for name, place in sorted(triggers):
            codes.append(_independence_code(name, _symbol(theory, name).arity, place))
    else:
        suffix = "+"
        for name, w in sorted(triggers):
            _symbol(theory, name)  # refuses a name outside the signature
            # every mixture replacing entries of w by x
            choices = [(0,) if d == 0 else (0, d) for d in w]
            codes += [_mixture_code(name, m) for m in itertools.product(*choices)]
    return theory.extended(theory.name + suffix, codes)


def derivative(theory: Theory) -> Theory:
    """The theory plus an independence identity for every weak independence."""
    return _next_stage(theory, "derivative", weak_independence_profile(theory).pairs)


def order_derivative(theory: Theory) -> Theory:
    """The theory plus all x-mixtures of every derivable fact x = F(w)."""
    return _next_stage(theory, "order_derivative", order_fact_set(theory))


@dataclass(frozen=True)
class IterationTrace:
    operator: Operator
    stages: tuple[Theory, ...]
    # per stage, the trigger data the fixpoint test compares
    stage_data: tuple[frozenset, ...]
    stop_reason: Literal["inconsistent", "fixpoint"]
    # the saturated base of the final stage, which the certificate reads
    final_base: FlatFactBase = field(compare=False, repr=False)

    @property
    def final(self) -> Theory:
        return self.stages[-1]

    @property
    def budget(self) -> int:
        """The final base's context: 2, or as wide as the order derivative's facts need."""
        return self.final_base.budget

    @cached_property
    def certificate(self) -> Optional[EntailmentVerdict]:
        """The inconsistency derivation of the final stage, built on first read.

        None after a fixpoint stop.  The trace keeps the final stage's
        saturated base, so this only extracts and verifies the chain.
        """
        if self.stop_reason == "fixpoint":
            return None
        return saturation.is_inconsistent(self.final_base)

    def stage(self, n: int) -> Theory:
        """Stage n, extending past a fixpoint stop by repetition."""
        if n < len(self.stages):
            return self.stages[n]
        if self.stop_reason == "fixpoint":
            return self.stages[-1]
        raise IndexError(
            f"stage {n} not computed; iteration stopped inconsistent at "
            f"stage {len(self.stages) - 1}")


def iterate(theory: Theory, operator: Operator) -> IterationTrace:
    """Apply the operator until the stage is inconsistent or triggers stabilize.

    Stage n+1 is a function of stage n's trigger data (profile pairs or fact
    set), so equal consecutive data means every later stage repeats.  Both
    operators start from validation's two-variable base, each stage's base
    extends the previous one, and the order derivative widens it only when
    a stage's facts fill it (`_order_facts`).  The stop test is a class
    lookup; the certificate is built when the trace's `certificate` is read.

    Termination needs no stage cap: the operators only add identities, so
    each stage's trigger data contain the previous stage's, and a strictly
    growing subset of the finite (symbol, place) or canonical-fact universe
    must stop.  Data that do not contain their predecessor's raise
    `StabilizationError` instead of being iterated on.
    """
    stages = [theory]
    data: list[frozenset] = []
    base = saturation.saturate(theory, MIN_BUDGET)
    while True:
        cur = stages[-1]
        if saturation.inconsistency_target(base) is not None:
            return IterationTrace(operator, tuple(stages), tuple(data),
                                  "inconsistent", base)
        if operator == "derivative":
            triggers = weak_independence_profile(cur, base).pairs
        else:
            triggers, base = _order_facts(base)
        if data and triggers == data[-1]:
            data.append(triggers)
            return IterationTrace(operator, tuple(stages), tuple(data),
                                  "fixpoint", base)
        if data and not triggers > data[-1]:
            raise StabilizationError(
                f"{operator} trigger data of {theory.name} shrank at stage "
                f"{len(data)}; the operators only add identities")
        data.append(triggers)
        # the current stage already holds the codes of the previous triggers
        nxt = _next_stage(cur, operator, triggers - data[-2] if len(data) > 1 else triggers)
        base = base.extend(nxt)
        stages.append(nxt)
