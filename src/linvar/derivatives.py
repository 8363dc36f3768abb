"""Weak-independence profiles, the derivative and order derivative, and
their iteration to inconsistency or a fixpoint.

A symbol F is weakly independent of place i when some derivable flat fact
x = F(w) has an entry other than x at place i.  The derivative strengthens
every weak independence to full independence; the order derivative closes
every derivable fact x = F(w) under replacing entries by x.  Both operators
only grow the theory, and their trigger data live in finite sets, so
iteration always stabilizes or turns inconsistent.

Both operators take one step, `_next_stage`, from their trigger data.  It
writes each new identity as a code (`terms.Code`), the form the engine
reads, and never as terms: an independence pair (F, i) is the code of
F(v0,...,v(a-1)) = F(the same with v(a) at place i), and a mixture m of a
fact x = F(w) is the code of v0 = F(m renumbered by first occurrence).
Both are codes of canonical identities, so a stage is its parent plus the
new codes, a set lookup drops the ones the parent has, and nothing is
canonicalized again.  Saturation extends the parent's base by the new
codes; a stage builds its `Identity` terms only when a reader asks for
them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Literal, Optional

from . import saturation
from .saturation import EntailmentVerdict, FlatFactBase
from .terms import Application, Code, OperationSymbol, Variable
from .theories import Identity, Theory, UnknownSymbolError

Operator = Literal["derivative", "order_derivative"]

_X = Variable("x")


class StabilizationError(Exception):
    """A stage's trigger data lost part of the previous stage's."""


@lru_cache(maxsize=None)
def _canonical_tuples(arity: int) -> tuple[tuple[int, ...], ...]:
    """Argument tuples over {x, y1..yn} up to renaming of the y's, in
    lexicographic order.

    Entry 0 stands for x; nonzero entries are renamed to 1, 2, ... by first
    occurrence, which picks one representative per renaming class: the
    restricted-growth strings, where each entry is at most one more than
    the largest entry before it.
    """
    out: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], top: int) -> None:
        if len(prefix) == arity:
            out.append(prefix)
            return
        for d in range(top + 2):
            grow(prefix + (d,), max(top, d))

    grow((), 0)
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
    witness is already such a tuple.  The queries use two variables, so any
    base of at least two variables decides them.
    """
    if base is None:
        base = saturation.saturate(theory, _context_size(theory, "derivative"))
    pairs = []
    witnesses = []
    for s in theory.symbols:
        if s.arity == 0:
            continue
        entailed = base.entailed_facts(s.name, itertools.product((0, 1), repeat=s.arity))
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


def order_fact_set(theory: Theory, base: Optional[FlatFactBase] = None
                   ) -> frozenset[tuple[str, tuple[int, ...]]]:
    """All derivable canonical facts x = F(w), as (symbol, tuple) keys."""
    if base is None:
        base = saturation.saturate(theory, _context_size(theory, "order_derivative"))
    return frozenset((s.name, w) for s in theory.symbols if s.arity
                     for w in base.entailed_facts(s.name, _canonical_tuples(s.arity)))


def _context_size(theory: Theory, operator: Operator) -> int:
    """Two variables for the derivative, whose queries use only x and y; the
    default max_arity + 1 for the order derivative's facts x = F(w)."""
    return 2 if operator == "derivative" else saturation.default_budget(theory)


def _triggers(theory: Theory, operator: Operator,
              base: Optional[FlatFactBase] = None) -> frozenset:
    """The profile's (symbol, place) pairs, or the canonical fact set."""
    if operator == "derivative":
        return weak_independence_profile(theory, base).pairs
    return order_fact_set(theory, base)


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
    return _next_stage(theory, "derivative", _triggers(theory, "derivative"))


def order_derivative(theory: Theory) -> Theory:
    """The theory plus all x-mixtures of every derivable fact x = F(w)."""
    return _next_stage(theory, "order_derivative", _triggers(theory, "order_derivative"))


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
    set), so equal consecutive data means every later stage repeats.  Every
    stage keeps the signature, so one context size (`_context_size`) serves
    the whole iteration, and each stage's base extends the previous one.
    The stop test is a class lookup; the certificate is built only when the
    trace's `certificate` is read.

    Termination needs no stage cap: the operators only add identities, so
    each stage's trigger data contain the previous stage's, and a strictly
    growing subset of the finite (symbol, place) or canonical-fact universe
    must stop.  Data that do not contain their predecessor's raise
    `StabilizationError` instead of being iterated on.
    """
    stages = [theory]
    data: list[frozenset] = []
    base = saturation.saturate(theory, _context_size(theory, operator))
    while True:
        cur = stages[-1]
        if saturation.inconsistency_target(base) is not None:
            return IterationTrace(operator, tuple(stages), tuple(data),
                                  "inconsistent", base)
        triggers = _triggers(cur, operator, base)
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
