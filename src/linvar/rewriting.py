"""Derivations with full syntactic bookkeeping, a verifier, and proof search.

A derivation records, per step, the identity used, its orientation, the
rewrite position, and the matched substitution, which is enough to replay
every step mechanically.  The substitution is stored rather than recomputed
because reverse steps with collapsing identities are ambiguous without it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Optional

from .dsl import parse_identity, parse_term, render_identity
from .terms import (
    Application,
    InvalidPositionError,
    Position,
    Term,
    Variable,
    apply_substitution,
    fresh_variables,
    match_term,
    render_term,
    replace_at,
    subterm_at,
    term_size,
    term_symbols,
    term_variables,
    variable_occurrences,
)
from .theories import Identity, Theory, UnknownSymbolError, canonicalize_identity


class CertificateError(Exception):
    """A derivation built as a certificate is missing or fails the verifier."""


@dataclass(frozen=True)
class DerivationStep:
    equation: Identity
    forward: bool
    position: Position
    # (variable, image) pairs sorted by variable name
    subst: tuple[tuple[Variable, Term], ...]

    @property
    def mapping(self) -> dict[Variable, Term]:
        return dict(self.subst)


def make_step(equation: Identity, forward: bool, position: Position,
              subst: Mapping[Variable, Term]) -> DerivationStep:
    pairs = tuple(sorted(subst.items(), key=lambda kv: kv[0].name))
    return DerivationStep(equation, forward, tuple(position), pairs)


@dataclass(frozen=True)
class Derivation:
    theory_name: str
    terms: tuple[Term, ...]
    steps: tuple[DerivationStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    step_index: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _is_reflexivity(e: Identity) -> bool:
    return isinstance(e.lhs, Variable) and e.lhs == e.rhs


def verify_derivation(theory: Theory, d: Derivation,
                      allow_reflexivity: bool = False) -> VerifyResult:
    """Replay every step; pinpoint the first one that does not check out."""
    if not d.terms or len(d.terms) != len(d.steps) + 1:
        return VerifyResult(False, None, "terms and steps do not line up")
    canon = theory.identity_set()
    for i, step in enumerate(d.steps):
        eq = step.equation
        if not (allow_reflexivity and _is_reflexivity(eq)):
            # an identity in the canonical set is its own canonical form
            if eq not in canon and canonicalize_identity(eq) not in canon:
                return VerifyResult(False, i, f"equation {eq} is not in {theory.name}")
        src, dst = (eq.lhs, eq.rhs) if step.forward else (eq.rhs, eq.lhs)
        sigma = step.mapping
        try:
            sub = subterm_at(d.terms[i], step.position)
        except InvalidPositionError:
            return VerifyResult(False, i, f"position {list(step.position)} invalid")
        if apply_substitution(src, sigma) != sub:
            return VerifyResult(
                False, i,
                f"instance of {render_term(src)} does not match at {list(step.position)}")
        produced = replace_at(d.terms[i], step.position, apply_substitution(dst, sigma))
        if produced != d.terms[i + 1]:
            return VerifyResult(False, i, "step does not produce the next term")
    return VerifyResult(True)


@dataclass(frozen=True)
class SearchBounds:
    max_terms: int = 200_000
    max_depth: int = 10
    max_term_size: int = 24
    fresh_variables: int = 2


@dataclass(frozen=True)
class SearchStats:
    expanded: int
    visited_forward: int
    visited_backward: int
    reason: str


@dataclass(frozen=True)
class Proved:
    derivation: Derivation


@dataclass(frozen=True)
class Unknown:
    stats: SearchStats


ProofSearchOutcome = Proved | Unknown


class _SearchRule(NamedTuple):
    """One orientation of an identity, split once for proof search."""

    equation: Identity
    forward: bool
    source: Term
    produced: Term
    # produced-side variables absent from the source, in first-occurrence order
    free: tuple[Variable, ...]
    # the produced side's instance has `size` nodes, plus n times the size
    # of the matched subterm at each (source path, n) in `weights`
    size: int
    weights: tuple[tuple[Position, int], ...]


def _search_rules(theory: Theory) -> list[_SearchRule]:
    """Both orientations of every identity, in the order search tries them."""
    rules = []
    for eq in theory.identities:
        for forward in (True, False):
            src, dst = (eq.lhs, eq.rhs) if forward else (eq.rhs, eq.lhs)
            paths: dict[Variable, Position] = {}
            for p, v in variable_occurrences(src):
                paths.setdefault(v, p)
            uses: dict[Variable, int] = {}
            for _, v in variable_occurrences(dst):
                uses[v] = uses.get(v, 0) + 1
            weights = tuple((paths[v], n) for v, n in uses.items() if v in paths)
            rules.append(_SearchRule(
                eq, forward, src, dst,
                tuple(v for v in uses if v not in paths),
                term_size(dst) - sum(n for _, n in weights), weights))
    return rules


def _subterms(t: Term) -> list[tuple[Position, Term, int]]:
    """(position, subterm, size) of every node of t, in preorder."""
    out: list = []

    def walk(s: Term, pos: Position) -> int:
        slot = len(out)
        out.append(None)
        size = 1
        if isinstance(s, Application):
            for i, c in enumerate(s.children, start=1):
                size += walk(c, pos + (i,))
        out[slot] = (pos, s, size)
        return size

    walk(t, ())
    return out


# How `_expansions` produced a successor: the rule, the rewrite position
# and the values of the rule's free variables.
_Expansion = tuple[_SearchRule, Position, tuple[Variable, ...]]


def _expansions(rules: list[_SearchRule], t: Term,
                candidates: tuple[Variable, ...], max_size: int
                ) -> Iterator[tuple[Term, _Expansion]]:
    """Successors of t: every rule of `_search_rules`, every position.

    Variables appearing only on the produced side range over the fixed
    candidate pool, which keeps branching finite.  The candidates are
    variables, so a successor's size depends only on the match and is
    checked before the successor is built.  The step is built only on
    request, by `_expansion_step`.
    """
    nodes = _subterms(t)
    size_at = {pos: size for pos, _, size in nodes}
    total = nodes[0][2]
    for rule in rules:
        for pos, sub, size in nodes:
            base = match_term(rule.source, sub)
            if base is None:
                continue
            image = rule.size + sum(n * size_at[pos + path] for path, n in rule.weights)
            if total - size + image > max_size:
                continue
            for values in itertools.product(candidates, repeat=len(rule.free)):
                sigma = dict(base)
                sigma.update(zip(rule.free, values))
                produced = replace_at(t, pos, apply_substitution(rule.produced, sigma))
                yield produced, (rule, pos, values)


def _expansion_step(t: Term, how: _Expansion) -> DerivationStep:
    """The step of `_expansions` that rewrote t as `how` says."""
    rule, pos, values = how
    sigma = dict(match_term(rule.source, subterm_at(t, pos)))  # type: ignore[arg-type]
    sigma.update(zip(rule.free, values))
    return make_step(rule.equation, rule.forward, pos, sigma)


def _flip(step: DerivationStep) -> DerivationStep:
    return DerivationStep(step.equation, not step.forward, step.position, step.subst)


def substitute_derivation(d: Derivation, subst: Mapping[Variable, Term]) -> Derivation:
    """The substitution instance of a derivation, which is again a derivation."""
    from .terms import compose_substitutions

    terms = tuple(apply_substitution(t, subst) for t in d.terms)
    steps = tuple(
        make_step(s.equation, s.forward, s.position,
                  compose_substitutions(s.mapping, subst))
        for s in d.steps
    )
    return Derivation(d.theory_name, terms, steps)


def bfs_prove(theory: Theory, goal: Identity,
              bounds: SearchBounds = SearchBounds()) -> ProofSearchOutcome:
    """Bidirectional breadth-first search for a derivation of the goal.

    Goal variables are never renamed; they behave as constants.  A Proved
    outcome always carries a derivation that verifies.  Unknown means the
    bounded frontier was exhausted, never that the goal fails.
    """
    sig = set(theory.symbols)
    for s in term_symbols(goal.lhs) | term_symbols(goal.rhs):
        if s not in sig:
            raise UnknownSymbolError(f"goal symbol {s} is not in {theory.name}")

    goal_vars = [v for v in
                 dict.fromkeys(term_variables(goal.lhs) + term_variables(goal.rhs))]
    pool = itertools.islice(fresh_variables([v.name for v in goal_vars]),
                            bounds.fresh_variables)
    candidates = tuple(goal_vars) + tuple(pool)

    if goal.lhs == goal.rhs:
        return Proved(Derivation(theory.name, (goal.lhs,), ()))

    # parents: term -> (previous term, how `_expansions` rewrote it)
    sides: list[dict[Term, Optional[tuple[Term, _Expansion]]]] = [
        {goal.lhs: None}, {goal.rhs: None}]
    frontiers: list[list[Term]] = [[goal.lhs], [goal.rhs]]
    expanded = 0
    rules = _search_rules(theory)

    def stats(reason: str) -> SearchStats:
        return SearchStats(expanded, len(sides[0]), len(sides[1]), reason)

    def assemble(meet: Term) -> Derivation:
        forward_terms: list[Term] = []
        forward_steps: list[DerivationStep] = []
        cur = meet
        while True:
            forward_terms.append(cur)
            entry = sides[0][cur]
            if entry is None:
                break
            prev, how = entry
            forward_steps.append(_expansion_step(prev, how))
            cur = prev
        forward_terms.reverse()
        forward_steps.reverse()
        terms = forward_terms
        steps = forward_steps
        cur = meet
        while True:
            entry = sides[1][cur]
            if entry is None:
                break
            prev, how = entry
            steps.append(_flip(_expansion_step(prev, how)))
            terms.append(prev)
            cur = prev
        d = Derivation(theory.name, tuple(terms), tuple(steps))
        check = verify_derivation(theory, d)
        if not check:
            raise CertificateError(
                f"search produced an invalid derivation: {check.reason}")
        return d

    for _ in range(bounds.max_depth):
        if not frontiers[0] and not frontiers[1]:
            return Unknown(stats("frontier exhausted"))
        for side in (0, 1):
            other = 1 - side
            new: dict[Term, tuple[Term, _Expansion]] = {}
            for t in frontiers[side]:
                expanded += 1
                for produced, how in _expansions(rules, t, candidates,
                                                 bounds.max_term_size):
                    if produced in sides[side] or produced in new:
                        continue
                    if len(sides[0]) + len(sides[1]) + len(new) > bounds.max_terms:
                        sides[side].update(new)
                        return Unknown(stats("max_terms reached"))
                    new[produced] = (t, how)
                    if produced in sides[other]:
                        sides[side].update(new)
                        return Proved(assemble(produced))
            sides[side].update(new)
            frontiers[side] = list(new)
    return Unknown(stats("max_depth reached"))


def derivation_to_json(d: Derivation) -> dict:
    return {
        "theory": d.theory_name,
        "terms": [render_term(t) for t in d.terms],
        "steps": [
            {
                "eq": render_identity(s.equation),
                "dir": "fwd" if s.forward else "rev",
                "pos": list(s.position),
                "subst": {v.name: render_term(t) for v, t in s.subst},
            }
            for s in d.steps
        ],
    }


def derivation_from_json(data: dict) -> Derivation:
    terms = tuple(parse_term(t) for t in data["terms"])
    steps = []
    for s in data["steps"]:
        eq = parse_identity(s["eq"])
        subst = {Variable(name): parse_term(t) for name, t in s.get("subst", {}).items()}
        steps.append(make_step(eq, s["dir"] == "fwd", tuple(s["pos"]), subst))
    return Derivation(data["theory"], terms, tuple(steps))
