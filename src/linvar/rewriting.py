"""Derivations with full syntactic bookkeeping, a verifier, and proof search.

A derivation records, per step, the identity used, its orientation, the
rewrite position, and the matched substitution, which is enough to replay
every step mechanically.  The substitution is stored rather than recomputed
because reverse steps with collapsing identities are ambiguous without it.

`verify_derivation` checks each step in place and builds no term: it walks
the step's position down the term and the next term together, comparing
the children beside the path, and matches the two sides of the equation
under the stored substitution against the subterms at the position.  That
accepts exactly the steps whose replay, the term with the instance of the
produced side put in at the position, equals the next term.  It looks an
equation up in the theory once per equation object and call, and still
walks and matches every step that uses it.

Proof search (`bfs_prove`) runs on an encoded copy of the terms: a variable
is its index in the search's candidate variables, an application the plain
tuple (symbol index, child 1, ..., child n), and each rule's sides are
compiled over slot numbers once per theory object, kept in
`Theory.compiled`: the source to its root symbol and a matcher, the
produced side to a builder.  Equality and hashing then run in C, and
so do matching a variable or a flat source over distinct variables and
building a variable or a flat produced side of two or more children.
`_expand` expands a term in place: a rule is tried only at the nodes with
its source's root symbol (at every node for a variable source), each
successor is sized before it is built and rebuilt from the node's
ancestors without recursion, and only a successor new to its side's
parent map gets an entry there.  The encoding is injective, and
candidates are tried in the same order as on `Term`s, so the search meets
at the same term and returns the same derivation and statistics.  A step
on the returned path is read off its encoded predecessor with the rule's
matcher, and only the matched slots and the path's terms are
decoded; the derivation is checked on `Term`s by `verify_derivation`,
which knows nothing of the encoding.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from .dsl import json_list, parse_identity, parse_term
from .terms import (
    Application,
    LinvarError,
    OperationSymbol,
    Position,
    Term,
    Variable,
    apply_substitution,
    compose_substitutions,
    fresh_variables,
    render_term,
    term_size,
    term_symbols,
    variable_occurrences,
)
from .theories import (
    Identity,
    Theory,
    UnknownSymbolError,
    canonicalize_identity,
    identity_variables,
)


class CertificateError(LinvarError):
    """A derivation built as a certificate is missing or fails the verifier."""


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def _is_instance(pattern: Term, target: Term, images: Mapping[str, Term]) -> bool:
    """Whether `pattern` under the substitution `images`, keyed by variable
    name, equals `target`, building and binding nothing; a variable outside
    it stands for itself.  Recurses over the pattern, an equation side, and
    compares each image whole."""
    if isinstance(pattern, Variable):
        image = images.get(pattern.name, pattern)
        return image is target or image == target
    if not isinstance(target, Application) or (
            target.symbol is not pattern.symbol and target.symbol != pattern.symbol):
        return False
    for p, t in zip(pattern.children, target.children):
        if not _is_instance(p, t, images):
            return False
    return True


def verify_derivation(theory: Theory, d: Derivation,
                      allow_reflexivity: bool = False) -> VerifyResult:
    """Check every step; pinpoint the first one that does not check out.

    A step is checked in place, without building a term.  One loop walks
    `terms[i]` and `terms[i+1]` together down the step's position: the
    position is valid when each index names a child of `terms[i]`, and the
    next term agrees with the rewrite off the path when at each level it
    has the same symbol and equal children beside the path.  At the
    position, `src` under σ must be the subterm of `terms[i]` and `dst`
    under σ the subterm of `terms[i+1]`.  Since the position is valid in
    `terms[i]`, that is exactly `replace_at(terms[i], p, dst·σ) ==
    terms[i+1]`, the replay the checks stand for, and the checks run and
    fail in the replay's order: equation, position, source instance,
    produced term.  An equation object found in the theory at one step is
    not looked up again at a later one.
    """
    if not d.terms or len(d.terms) != len(d.steps) + 1:
        return VerifyResult(False, None, "terms and steps do not line up")
    canon = theory.identity_set()
    # ids of the equation objects found in the theory: `d` holds each one
    # for the whole call, and an Identity is frozen
    members: set[int] = set()
    for i, step in enumerate(d.steps):
        eq = step.equation
        if id(eq) not in members:
            if not (allow_reflexivity and _is_reflexivity(eq)):
                # an identity in the canonical set is its own canonical form
                if eq not in canon and canonicalize_identity(eq) not in canon:
                    return VerifyResult(False, i, f"equation {eq} is not in {theory.name}")
            members.add(id(eq))
        src, dst = (eq.lhs, eq.rhs) if step.forward else (eq.rhs, eq.lhs)
        # variables are equal exactly when their names are, and a name
        # hashes without a call into Python
        images = {v.name: t for v, t in step.subst}
        # `there` turns None where the next term leaves the rewrite's context
        here, there = d.terms[i], d.terms[i + 1]
        for k in step.position:
            if isinstance(here, Variable) or not 1 <= k <= len(here.children):
                return VerifyResult(False, i, f"position {list(step.position)} invalid")
            if (isinstance(there, Application)
                    and (there.symbol is here.symbol or there.symbol == here.symbol)
                    and there.children[:k - 1] == here.children[:k - 1]
                    and there.children[k:] == here.children[k:]):
                there = there.children[k - 1]
            else:
                there = None
            here = here.children[k - 1]
        if not _is_instance(src, here, images):
            return VerifyResult(
                False, i,
                f"instance of {render_term(src)} does not match at {list(step.position)}")
        if there is None or not _is_instance(dst, there, images):
            return VerifyResult(False, i, "step does not produce the next term")
    return VerifyResult(True)


@dataclass(frozen=True)
class SearchBounds:
    """Bounds of a proof search; 0 is a bound like any other, a negative
    one a ValueError."""

    max_terms: int = 200_000
    max_depth: int = 10
    max_term_size: int = 24

    def __post_init__(self) -> None:
        for name in ("max_terms", "max_depth", "max_term_size"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative, got {getattr(self, name)}")


# variables besides the goal's that a search term may hold
FRESH_VARIABLES = 2


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


# An encoded term: a variable is an int, an application the tuple
# (symbol id, child 1, ..., child n), so child i sits at index i as in a
# Position.
_Code = Union[int, tuple]


class _Encoding:
    """Terms over fixed symbols and variables, numbered by their index."""

    def __init__(self, symbols: Sequence[OperationSymbol],
                 variables: Sequence[Variable]):
        self.symbols = tuple(symbols)
        self.variables = tuple(variables)
        self._symbol_ids = {s: i for i, s in enumerate(self.symbols)}
        self._variable_ids = {v: i for i, v in enumerate(self.variables)}

    def encode(self, t: Term) -> _Code:
        if isinstance(t, Variable):
            return self._variable_ids[t]
        return (self._symbol_ids[t.symbol],) + tuple(self.encode(c) for c in t.children)

    def decode(self, code: _Code) -> Term:
        if type(code) is int:
            return self.variables[code]
        return Application(self.symbols[code[0]],
                           tuple(self.decode(c) for c in code[1:]))


class _SearchRule(NamedTuple):
    """One orientation of an identity, split and encoded once for proof search."""

    equation: Identity
    forward: bool
    # the variables by slot: the source's `slots` variables first, then the
    # produced side's others, each in first-occurrence order
    variables: tuple[Variable, ...]
    slots: int
    # the produced side's instance has `size` nodes, plus n times the size
    # of the matched subterm at each (source path, n) in `weights`
    size: int
    weights: tuple[tuple[Position, int], ...]
    # the source's root symbol id (None for a variable, which matches
    # anywhere), and its slots' values at a node with that symbol (None
    # for no match); both sides are encoded over the theory's symbol ids
    # with each variable as its slot
    root: Optional[int]
    match: Callable[[_Code], Optional[tuple]]
    # the produced side's instance from every slot's value
    build: Callable[[tuple], _Code]


def _search_rules(theory: Theory) -> tuple[_SearchRule, ...]:
    """Both orientations of every identity, in the order search tries them;
    a tuple, since `bfs_prove` shares it through `Theory.compiled`."""
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
            by_slot = _Encoding(theory.symbols,
                                tuple(paths) + tuple(v for v in uses if v not in paths))
            pattern = by_slot.encode(src)
            rules.append(_SearchRule(
                eq, forward, by_slot.variables, len(paths),
                term_size(dst) - sum(n for _, n in weights), weights,
                None if type(pattern) is int else pattern[0],
                _matcher(pattern, len(paths)), _builder(by_slot.encode(dst))))
    return tuple(rules)


def _matcher(pattern: _Code, slots: int) -> Callable[[_Code], Optional[tuple]]:
    """Matching at a node whose root symbol is the pattern's.  A variable
    binds the node, and a flat pattern over distinct slots its children,
    without a Python frame; a flat pattern with a repeated slot compares
    the repeats and picks the first occurrences; deeper patterns go
    through `_match`."""
    if type(pattern) is int:
        return lambda sub: (sub,)
    children = pattern[1:]
    if list(children) == list(range(len(children))):
        return operator.itemgetter(slice(1, None))
    if all(type(c) is int for c in children):
        first: dict[int, int] = {}
        for i, c in enumerate(children, start=1):
            first.setdefault(c, i)
        picks = tuple(first.values())
        repeats = [(i, first[c]) for i, c in enumerate(children, start=1) if first[c] != i]

        def match_flat(sub: _Code) -> Optional[tuple]:
            for i, j in repeats:
                if sub[i] != sub[j]:
                    return None
            return tuple(map(sub.__getitem__, picks))
        return match_flat

    def match(sub: _Code) -> Optional[tuple]:
        sigma: list = [None] * slots
        return tuple(sigma) if _match(pattern, sub, sigma) else None
    return match


def _builder(template: _Code) -> Callable[[tuple], _Code]:
    """Instantiation of the template from a tuple of every slot's value; a
    variable or a flat template over two or more children without a Python
    loop."""
    if type(template) is int:
        return operator.itemgetter(template)
    if len(template) > 2 and all(type(c) is int for c in template[1:]):
        head, get = template[:1], operator.itemgetter(*template[1:])
        return lambda sigma: head + get(sigma)
    return functools.partial(_instantiate, template)


# A node of an encoded term: its position, the subterm there, the
# subterm's size, and per ancestor, innermost first, the ancestor's
# children before and after the path (with its symbol id in front), so
# that `before + (u,) + after` at each level in turn puts u at the node.
_Node = tuple[Position, _Code, int, tuple[tuple[tuple, tuple], ...]]


def _nodes(t: _Code) -> list[_Node]:
    """The nodes of t, in preorder."""
    out: list = []

    def walk(s: _Code, pos: Position, around: tuple) -> int:
        slot = len(out)
        out.append(None)
        size = 1
        if type(s) is tuple:
            for i in range(1, len(s)):
                size += walk(s[i], pos + (i,), ((s[:i], s[i + 1:]),) + around)
        out[slot] = (pos, s, size, around)
        return size

    walk(t, (), ())
    return out


def _match(pattern: _Code, target: _Code, sigma: list) -> bool:
    """Bind sigma's unset slots so that pattern's instance is target."""
    if type(pattern) is int:
        bound = sigma[pattern]
        if bound is None:
            sigma[pattern] = target
            return True
        return bound == target
    if type(target) is int or target[0] != pattern[0]:
        return False
    for i in range(1, len(pattern)):
        if not _match(pattern[i], target[i], sigma):
            return False
    return True


def _instantiate(template: _Code, sigma: tuple) -> _Code:
    if type(template) is int:
        return sigma[template]
    out = [template[0]]
    for c in template[1:]:
        out.append(sigma[c] if type(c) is int else _instantiate(c, sigma))
    return tuple(out)


# A parent entry of the search: the term a successor was first reached
# from, the rule, the rewrite position and the candidate indices of the
# rule's free variables' values; None for a goal side.
_Entry = Optional[tuple[_Code, _SearchRule, Position, tuple[int, ...]]]


def _expand(t: _Code, rules: Sequence[_SearchRule], values: Mapping[int, list],
            max_size: int, seen: dict[_Code, _Entry], limit: int,
            other: Mapping[_Code, _Entry]) -> Optional[_Code]:
    """Put every successor of the encoded t not in `seen` into it, with its
    entry, in the search's order: rule by rule, at preorder positions, the
    free variables' values in the order of `values[number of them]`.

    A rule is tried only at nodes with its source's root symbol, at every
    node for a variable source.  The values are candidates, encoded
    variables, so a successor's size depends only on the match and is
    checked before the successor is built.  Returns None once t is
    expanded.  It stops early at a successor found in `other`, which it
    has entered into `seen`, or at the first new one past `limit` entries
    of `seen`, which it has not; either is returned.
    """
    nodes = _nodes(t)
    size_at = {}
    at_root: dict[int, list[_Node]] = {}
    for node in nodes:
        size_at[node[0]] = node[2]
        if type(node[1]) is tuple:
            at_root.setdefault(node[1][0], []).append(node)
    total = nodes[0][2]
    for rule in rules:
        match, build = rule.match, rule.build
        choices = values[len(rule.variables) - rule.slots]
        for pos, sub, size, around in (nodes if rule.root is None
                                       else at_root.get(rule.root, ())):
            base = match(sub)
            if base is None:
                continue
            image = rule.size
            for path, n in rule.weights:
                image += n * size_at[pos + path]
            if total - size + image > max_size:
                continue
            for vals in choices:
                produced = build(base + vals)
                for before, after in around:
                    produced = before + (produced,) + after
                if produced in seen:
                    continue
                if len(seen) > limit:
                    return produced
                seen[produced] = (t, rule, pos, vals)
                if produced in other:
                    return produced
    return None


def _step(entry: tuple[_Code, _SearchRule, Position, tuple[int, ...]],
          encoding: _Encoding) -> DerivationStep:
    """The step a parent entry of `_expand` records, from its term: the
    rule matched again at the position, then every slot decoded, the free
    ones' candidate indices being encoded variables."""
    t, rule, pos, values = entry
    for i in pos:
        t = t[i]  # type: ignore[index]
    images = map(encoding.decode, rule.match(t) + values)
    return make_step(rule.equation, rule.forward, pos, dict(zip(rule.variables, images)))


def _flip(step: DerivationStep) -> DerivationStep:
    return DerivationStep(step.equation, not step.forward, step.position, step.subst)


def substitute_derivation(d: Derivation, subst: Mapping[Variable, Term]) -> Derivation:
    """The substitution instance of a derivation, which is again a derivation."""
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

    Every variable a search term can hold is a goal variable or one of the
    `FRESH_VARIABLES` pool variables, so the search encodes terms
    over those candidates (see the module docstring).  Each side keeps one
    parent map, in discovery order, and the keys a level adds are the next
    level's frontier.  `_expand` tries successors rule by rule, at
    preorder positions, with the free variables' values in
    `itertools.product` order, sizes each before building it, and enters
    only a new one.  The path to the meeting term is decoded, built into
    steps and checked by `verify_derivation` before it is returned.
    """
    sig = set(theory.symbols)
    for s in term_symbols(goal.lhs) | term_symbols(goal.rhs):
        if s not in sig:
            raise UnknownSymbolError(f"goal symbol {s} is not in {theory.name}")

    goal_vars = identity_variables(goal)
    pool = itertools.islice(fresh_variables(v.name for v in goal_vars), FRESH_VARIABLES)
    candidates = goal_vars + tuple(pool)

    if goal.lhs == goal.rhs:
        return Proved(Derivation(theory.name, (goal.lhs,), ()))

    encoding = _Encoding(theory.symbols, candidates)
    lhs, rhs = encoding.encode(goal.lhs), encoding.encode(goal.rhs)
    sides: list[dict[_Code, _Entry]] = [{lhs: None}, {rhs: None}]
    frontiers: list[list[_Code]] = [[lhs], [rhs]]
    expanded = 0
    rules = theory.compiled(("rewriting",), lambda: _search_rules(theory))
    values = {n: list(itertools.product(range(len(candidates)), repeat=n))
              for n in {len(r.variables) - r.slots for r in rules}}

    def stats(reason: str) -> SearchStats:
        return SearchStats(expanded, len(sides[0]), len(sides[1]), reason)

    def path(side: int, meet: _Code) -> tuple[list[Term], list[DerivationStep]]:
        """Terms from meet back to the side's goal term, and their steps
        from each term's predecessor; only these terms are decoded."""
        terms = [encoding.decode(meet)]
        steps = []
        entry = sides[side][meet]
        while entry is not None:
            terms.append(encoding.decode(entry[0]))
            steps.append(_step(entry, encoding))
            entry = sides[side][entry[0]]
        return terms, steps

    def assemble(meet: _Code) -> Derivation:
        forward_terms, forward_steps = path(0, meet)
        backward_terms, backward_steps = path(1, meet)
        terms = forward_terms[::-1] + backward_terms[1:]
        steps = forward_steps[::-1] + [_flip(s) for s in backward_steps]
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
            seen, other = sides[side], sides[1 - side]
            known = len(seen)
            limit = bounds.max_terms - len(other)
            for t in frontiers[side]:
                expanded += 1
                stop = _expand(t, rules, values, bounds.max_term_size, seen, limit, other)
                if stop is not None:
                    if stop in seen:
                        return Proved(assemble(stop))
                    return Unknown(stats("max_terms reached"))
            frontiers[side] = list(itertools.islice(seen, known, None))
    return Unknown(stats("max_depth reached"))


def derivation_to_json(d: Derivation) -> dict:
    return {
        "theory": d.theory_name,
        "terms": [render_term(t) for t in d.terms],
        "steps": [
            {
                "eq": str(s.equation),
                "dir": "fwd" if s.forward else "rev",
                "pos": list(s.position),
                "subst": {v.name: render_term(t) for v, t in s.subst},
            }
            for s in d.steps
        ],
    }


def derivation_from_json(data: object) -> Derivation:
    """The derivation `derivation_to_json` wrote; a ValueError names the
    first part of a document of another shape."""
    if not isinstance(data, dict) or not isinstance(data.get("theory"), str):
        raise ValueError("a derivation is a JSON object with a string 'theory'")
    terms = tuple(parse_term(t) for t in json_list(data, "terms", str))
    steps = []
    for s in json_list(data, "steps", dict):
        subst = s.get("subst", {})
        if not (isinstance(s.get("eq"), str) and s.get("dir") in ("fwd", "rev")
                and isinstance(subst, dict)
                and all(isinstance(t, str) for t in subst.values())):
            raise ValueError("each step needs a string 'eq', a 'dir' of 'fwd' "
                             "or 'rev', and a 'subst' object of strings")
        eq = parse_identity(s["eq"])
        pos = tuple(json_list(s, "pos", int))
        mapping = {Variable(name): parse_term(t) for name, t in subst.items()}
        steps.append(make_step(eq, s["dir"] == "fwd", pos, mapping))
    return Derivation(data["theory"], terms, tuple(steps))
