"""Weak-independence profiles, the derivative and order derivative, and
their iteration to inconsistency or a fixpoint.

A symbol F is weakly independent of place i when some derivable flat fact
x = F(w) has an entry other than x at place i.  The derivative strengthens
every weak independence to full independence; the order derivative closes
every derivable fact x = F(w) under replacing entries by x.  Both operators
only grow the theory, and their trigger data live in finite sets, so
iteration always stabilizes or turns inconsistent.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Literal, Optional

from . import saturation
from .saturation import EntailmentVerdict, FlatFactBase
from .terms import Application, OperationSymbol, Variable
from .theories import Identity, Theory, make_theory

Operator = Literal["derivative", "order_derivative"]

_X = Variable("x")

# Trigger data grow monotonically inside finite sets, so a well-formed
# iteration stops long before this many stages.
_MAX_STAGES = 10_000


class StabilizationError(Exception):
    """An iteration ran past the stage cap without stopping."""


@lru_cache(maxsize=None)
def _canonical_tuples(arity: int) -> tuple[tuple[int, ...], ...]:
    """Argument tuples over {x, y1..yn} up to renaming of the y's.

    Entry 0 stands for x; nonzero entries are renamed to 1, 2, ... by first
    occurrence, which picks one representative per renaming class.
    """
    seen: set[tuple[int, ...]] = set()
    out: list[tuple[int, ...]] = []
    for w in itertools.product(range(arity + 1), repeat=arity):
        renaming: dict[int, int] = {}
        norm = []
        for entry in w:
            if entry == 0:
                norm.append(0)
            else:
                renaming.setdefault(entry, len(renaming) + 1)
                norm.append(renaming[entry])
        key = tuple(norm)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return tuple(out)


def _fact_identity(symbol: OperationSymbol, digits: tuple[int, ...]) -> Identity:
    args = tuple(_X if d == 0 else Variable(f"y{d}") for d in digits)
    return Identity(_X, Application(symbol, args))


@dataclass(frozen=True)
class WeakIndependenceProfile:
    pairs: frozenset[tuple[str, int]]
    # one witnessing fact x = F(w) per pair, in (symbol, place) order
    witnesses: tuple[tuple[str, int, Identity], ...]

    def places(self, symbol_name: str) -> tuple[int, ...]:
        return tuple(sorted(i for name, i in self.pairs if name == symbol_name))


def weak_independence_profile(theory: Theory,
                              base: Optional[FlatFactBase] = None
                              ) -> WeakIndependenceProfile:
    """Which (symbol, place) pairs have a derivable fact x = F(w), w_i != x."""
    if base is None:
        base = saturation.saturate(theory)
    pairs = []
    witnesses = []
    for s in theory.symbols:
        if s.arity == 0:
            continue
        entailed = [w for w in _canonical_tuples(s.arity)
                    if base.fact_entailed(s.name, w)]
        for i in range(1, s.arity + 1):
            for w in entailed:
                if w[i - 1] != 0:
                    pairs.append((s.name, i))
                    witnesses.append((s.name, i, _fact_identity(s, w)))
                    break
    return WeakIndependenceProfile(frozenset(pairs), tuple(witnesses))


def _independence_identity(symbol: OperationSymbol, place: int) -> Identity:
    left = tuple(Variable(f"z{j}") for j in range(1, symbol.arity + 1))
    right = list(left)
    u, u2 = Variable("u"), Variable("u_")
    left = left[:place - 1] + (u,) + left[place:]
    right[place - 1] = u2
    return Identity(Application(symbol, left), Application(symbol, tuple(right)))


def _derivative_from_profile(theory: Theory, profile: WeakIndependenceProfile) -> Theory:
    new = []
    for name, place in sorted(profile.pairs):
        symbol = theory.symbol_named(name)
        assert symbol is not None
        new.append(_independence_identity(symbol, place))
    return make_theory(theory.name + "'", theory.symbols,
                       list(theory.identities) + new, renames=theory.renames)


def derivative(theory: Theory) -> Theory:
    """The theory plus an independence identity for every weak independence."""
    return _derivative_from_profile(theory, weak_independence_profile(theory))


def order_fact_set(theory: Theory, base: Optional[FlatFactBase] = None
                   ) -> frozenset[tuple[str, tuple[int, ...]]]:
    """All derivable canonical facts x = F(w), as (symbol, tuple) keys."""
    if base is None:
        base = saturation.saturate(theory)
    out = set()
    for s in theory.symbols:
        if s.arity == 0:
            continue
        for w in _canonical_tuples(s.arity):
            if base.fact_entailed(s.name, w):
                out.add((s.name, w))
    return frozenset(out)


def _order_derivative_from_facts(theory: Theory,
                                 facts: frozenset[tuple[str, tuple[int, ...]]]
                                 ) -> Theory:
    new = []
    for name, w in sorted(facts):
        symbol = theory.symbol_named(name)
        assert symbol is not None
        # every mixture replacing entries of w by x
        choices = [(0,) if d == 0 else (0, d) for d in w]
        for mixture in itertools.product(*choices):
            new.append(_fact_identity(symbol, mixture))
    return make_theory(theory.name + "+", theory.symbols,
                       list(theory.identities) + new, renames=theory.renames)


def order_derivative(theory: Theory) -> Theory:
    """The theory plus all x-mixtures of every derivable fact x = F(w)."""
    return _order_derivative_from_facts(theory, order_fact_set(theory))


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
        return self.final_base.budget

    @cached_property
    def certificate(self) -> Optional[EntailmentVerdict]:
        """The inconsistency derivation of the final stage, built on first read.

        None after a fixpoint stop.  The trace keeps the final stage's
        saturated base, so this only extracts and verifies the chain.
        """
        if self.stop_reason == "fixpoint":
            return None
        return saturation.is_inconsistent(self.final_base, with_countermodel=False)

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

    Stage n+1 is a function of stage n's trigger data (profile or fact set),
    so equal consecutive data means every later stage repeats.  Every stage
    keeps the signature, so all of them share the default context size.
    The stop test is a class lookup; the certificate is built only when the
    trace's `certificate` is read.
    """
    stages = [theory]
    data: list[frozenset] = []
    base = saturation.saturate(theory)
    while True:
        cur = stages[-1]
        if saturation.inconsistency_target(base) is not None:
            return IterationTrace(operator, tuple(stages), tuple(data),
                                  "inconsistent", base)
        if operator == "derivative":
            profile = weak_independence_profile(cur, base=base)
            stage_key: frozenset = profile.pairs
        else:
            stage_key = order_fact_set(cur, base=base)
        if data and stage_key == data[-1]:
            data.append(stage_key)
            return IterationTrace(operator, tuple(stages), tuple(data),
                                  "fixpoint", base)
        data.append(stage_key)
        if operator == "derivative":
            nxt = _derivative_from_profile(cur, profile)
        else:
            nxt = _order_derivative_from_facts(cur, stage_key)
        base = base.extend(nxt)
        stages.append(nxt)
        if len(stages) >= _MAX_STAGES:
            raise StabilizationError(
                f"{operator} iteration of {theory.name} did not stabilize "
                f"within {_MAX_STAGES} stages")
