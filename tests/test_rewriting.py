import dataclasses
import hashlib
import itertools
import json
import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import verify_reference as reference
from linvar import rewriting
from linvar.derivatives import _fact_identity, derivative, order_derivative, order_fact_set
from linvar.dsl import parse_identity, parse_term, parse_theory
from linvar.presets import maltsev, semilattice
from linvar.rewriting import (
    FRESH_VARIABLES,
    CertificateError,
    Derivation,
    DerivationStep,
    Proved,
    SearchBounds,
    SearchStats,
    Unknown,
    VerifyResult,
    bfs_prove,
    derivation_from_json,
    derivation_to_json,
    make_step,
    verify_derivation,
)
from linvar.saturation import Entailed, entails_flat, is_inconsistent, saturate
from linvar.terms import (
    Application,
    OperationSymbol,
    Term,
    Variable,
    apply_substitution,
    fresh_variables,
    match_term,
    replace_at,
    subterm_at,
    term_depth,
    term_size,
    term_symbols,
    term_variables,
    variable_occurrences,
)
from linvar.theories import (Identity, UnknownSymbolError, embedded_components,
                             idempotency_identity)
from test_random_theories import _nested_starts, small_theories, ternary_theories


@pytest.fixture
def maltsev_prime(maltsev):
    return derivative(maltsev)


@pytest.fixture
def collapse_chain(maltsev_prime):
    """x = p(x,y,y) = p(y,y,y) = y, written out with full step data."""
    ax1, ax2, ind1 = (maltsev_prime.identities[i] for i in (0, 1, 2))
    x, y = Variable("x"), Variable("y")
    v0, v1, v2, v3 = (Variable(f"v{i}") for i in range(4))
    return Derivation(
        maltsev_prime.name,
        (x, parse_term("p(x,y,y)"), parse_term("p(y,y,y)"), y),
        (
            make_step(ax1, True, (), {v0: x, v1: y}),
            make_step(ind1, True, (), {v0: x, v1: y, v2: y, v3: y}),
            make_step(ax2, False, (), {v0: y, v1: y}),
        ),
    )


class TestVerifyDerivation:
    def test_collapse_chain_verifies(self, maltsev_prime, collapse_chain):
        assert verify_derivation(maltsev_prime, collapse_chain)

    def test_single_term_derivation(self, maltsev):
        d = Derivation(maltsev.name, (parse_term("p(x,y,z)"),), ())
        assert verify_derivation(maltsev, d)

    def test_corrupted_position_pinpointed(self, maltsev_prime, collapse_chain):
        bad_step = make_step(collapse_chain.steps[1].equation, True, (1,),
                             collapse_chain.steps[1].mapping)
        bad = Derivation(collapse_chain.theory_name, collapse_chain.terms,
                         (collapse_chain.steps[0], bad_step, collapse_chain.steps[2]))
        # p(x,y,y) at [1] is x, not an instance of the step's source
        assert verify_derivation(maltsev_prime, bad) == VerifyResult(
            False, 1, "instance of p(v0,v1,v2) does not match at [1]")

    def test_foreign_equation_rejected(self, maltsev, collapse_chain):
        # the independence identity is not part of the base theory
        result = verify_derivation(maltsev, collapse_chain)
        assert not result
        assert result.step_index == 1
        assert "not in" in result.reason

    def test_reflexivity_needs_the_flag(self, maltsev):
        x = Variable("x")
        refl = parse_identity("v = v")
        d = Derivation(maltsev.name,
                       (parse_term("p(x,y,y)"), parse_term("p(x,y,y)")),
                       (make_step(refl, True, (), {Variable("v"): parse_term("p(x,y,y)")}),))
        assert not verify_derivation(maltsev, d)
        assert verify_derivation(maltsev, d, allow_reflexivity=True)

    def test_the_flag_admits_no_other_variable_sided_equation(self, maltsev):
        """`x = p(y,x,x)` has a variable side but is not v = v, and it is not
        an identity of maltsev, so the flag does not let it through."""
        a, b = Variable("a"), Variable("b")
        foreign = parse_identity("x = p(y,x,x)")
        d = Derivation(maltsev.name, (parse_term("p(b,a,a)"), a),
                       (make_step(foreign, False, (), {Variable("x"): a, Variable("y"): b}),))
        result = verify_derivation(maltsev, d, allow_reflexivity=True)
        assert not result and result.step_index == 0 and "not in" in result.reason

    def test_equation_checked_up_to_renaming_and_sides(self, maltsev):
        # a renamed, side-swapped copy of an axiom is not literally in the
        # canonical set but still verifies; a non-axiom of the same shape fails
        x, y = Variable("x"), Variable("y")
        a, b = Variable("a"), Variable("b")
        renamed = parse_identity("a = p(b,b,a)")
        assert renamed not in maltsev.identity_set()
        d = Derivation(maltsev.name, (parse_term("p(y,y,x)"), x),
                       (make_step(renamed, False, (), {a: x, b: y}),))
        assert verify_derivation(maltsev, d)
        foreign = parse_identity("a = p(a,b,a)")
        bad = Derivation(maltsev.name, (parse_term("p(x,y,x)"), x),
                         (make_step(foreign, False, (), {a: x, b: y}),))
        result = verify_derivation(maltsev, bad)
        assert not result and result.step_index == 0 and "not in" in result.reason

    def test_a_repeated_equation_is_matched_at_every_step(self, maltsev):
        """One equation object used at several steps is looked up in the
        theory once, but every step is still walked and matched: a repeat
        at a wrong position, with a wrong instance or producing a wrong
        term is rejected at its own index, and so is a later step whose
        equation is not in the theory."""
        ax = maltsev.identities[0]  # v0 = p(v0,v1,v1), read right to left
        v0, v1 = Variable("v0"), Variable("v1")
        a, b, c = Variable("a"), Variable("b"), Variable("c")
        inner = parse_term("p(a,b,b)")
        terms = (parse_term("p(p(a,b,b),c,c)"), inner, a)
        first = make_step(ax, False, (), {v0: inner, v1: c})
        again = make_step(ax, False, (), {v0: a, v1: b})
        assert first.equation is again.equation
        assert verify_derivation(maltsev, Derivation(maltsev.name, terms, (first, again)))
        cases = [
            (terms, make_step(ax, False, (1,), {v0: a, v1: b}),
             "instance of p(v0,v1,v1) does not match at [1]"),
            (terms, make_step(ax, False, (), {v0: b, v1: b}),
             "instance of p(v0,v1,v1) does not match at []"),
            (terms[:2] + (b,), again, "step does not produce the next term"),
        ]
        for these, bad, reason in cases:
            d = Derivation(maltsev.name, these, (first, bad))
            assert verify_derivation(maltsev, d) == VerifyResult(False, 1, reason)
        foreign = parse_identity("a = p(a,b,a)")
        later = make_step(foreign, True, (), {a: a, b: b})
        d = Derivation(maltsev.name, terms + (parse_term("p(a,b,a)"),), (first, again, later))
        assert verify_derivation(maltsev, d) == VerifyResult(
            False, 2, f"equation {foreign} is not in {maltsev.name}")

    @pytest.mark.parametrize("equation, term, images", [
        # a flat source, p(v0,v1,v1), at a term with another symbol
        ("v0 = p(v0,v1,v1)", "q(x,y,y)", {"v0": "x", "v1": "y"}),
        # a flat child whose image differs: v1 is y, the child z
        ("v0 = p(v0,v1,v1)", "p(x,z,z)", {"v0": "x", "v1": "y"}),
        # a repeated variable bound to two different children, y then z
        ("v0 = p(v0,v1,v1)", "p(x,y,z)", {"v0": "x", "v1": "y"}),
        # a nested child, g(v1), that does not match g(y)
        ("v0 = p(g(v1),v0,v0)", "p(g(y),x,x)", {"v0": "x", "v1": "x"}),
    ], ids=["symbol", "image", "repeat", "nested"])
    def test_each_branch_of_the_flat_loop_rejects(self, equation, term, images):
        """`_is_instance` compares a flat side's variable children in its
        loop and recurses only into a nested child; a step whose source
        side fails at any of these places is rejected there."""
        theory = parse_theory("theory pq\nop g/1\nop p/3\nop q/3\n"
                              "axiom v0 = p(v0,v1,v1)\naxiom v0 = p(g(v1),v0,v0)\n")
        eq = parse_identity(equation)
        assert eq in theory.identity_set()
        subst = {Variable(v): parse_term(t) for v, t in images.items()}
        produced = apply_substitution(eq.lhs, subst)
        d = Derivation(theory.name, (parse_term(term), produced),
                       (make_step(eq, False, (), subst),))
        assert verify_derivation(theory, d) == VerifyResult(
            False, 0, f"instance of {eq.rhs} does not match at []")
        # the same step at its source's own instance, parsed afresh so that
        # its children equal the images without being them, verifies
        instance = parse_term(str(apply_substitution(eq.rhs, subst)))
        good = Derivation(theory.name, (instance, produced), d.steps)
        assert verify_derivation(theory, good)

    def test_shape_mismatch(self, maltsev):
        d = Derivation(maltsev.name, (), ())
        assert not verify_derivation(maltsev, d)

    def test_invalid_position_reason(self, maltsev_prime, collapse_chain):
        # the first term is the variable x, which has no child 1
        step = dataclasses.replace(collapse_chain.steps[0], position=(1,))
        bad = Derivation(collapse_chain.theory_name, collapse_chain.terms,
                         (step,) + collapse_chain.steps[1:])
        assert verify_derivation(maltsev_prime, bad) == VerifyResult(
            False, 0, "position [1] invalid")

    def test_wrong_next_term_reason(self, maltsev_prime, collapse_chain):
        terms = list(collapse_chain.terms)
        terms[2] = parse_term("p(y,y,x)")
        bad = Derivation(collapse_chain.theory_name, tuple(terms), collapse_chain.steps)
        assert verify_derivation(maltsev_prime, bad) == VerifyResult(
            False, 1, "step does not produce the next term")


class TestBfsProve:
    def test_axiom_in_one_step(self, maltsev):
        outcome = bfs_prove(maltsev, parse_identity("p(x,y,y) = x"))
        assert isinstance(outcome, Proved)
        assert len(outcome.derivation.steps) == 1

    def test_inconsistency_of_the_derivative(self, maltsev_prime):
        outcome = bfs_prove(maltsev_prime, parse_identity("x = y"))
        assert isinstance(outcome, Proved)
        assert len(outcome.derivation.steps) == 3

    def test_non_consequence_is_unknown(self, maltsev):
        bounds = SearchBounds(max_terms=500, max_depth=3, max_term_size=12)
        outcome = bfs_prove(maltsev, parse_identity("x = p(y,x,x)"), bounds)
        assert isinstance(outcome, Unknown)

    def test_trivial_goal(self, maltsev):
        outcome = bfs_prove(maltsev, parse_identity("p(x,y,z) = p(x,y,z)"))
        assert isinstance(outcome, Proved)
        assert len(outcome.derivation.steps) == 0

    def test_proved_outcomes_verify(self, maltsev, maltsev_prime, semilattice):
        cases = [
            (maltsev, "p(x,y,y) = x"),
            (maltsev, "p(x,x,x) = x"),
            (maltsev_prime, "x = y"),
            (semilattice, "m(y,x) = m(x,y)"),
            (semilattice, "x = m(x,x)"),
        ]
        for theory, goal_text in cases:
            goal = parse_identity(goal_text)
            outcome = bfs_prove(theory, goal)
            assert isinstance(outcome, Proved), (theory.name, goal_text)
            d = outcome.derivation
            assert verify_derivation(theory, d)
            assert d.terms[0] == goal.lhs and d.terms[-1] == goal.rhs

    def test_deterministic(self, maltsev_prime):
        a = bfs_prove(maltsev_prime, parse_identity("x = y"))
        b = bfs_prove(maltsev_prime, parse_identity("x = y"))
        assert isinstance(a, Proved) and isinstance(b, Proved)
        assert a.derivation == b.derivation

    def test_goal_symbols_checked(self, maltsev):
        from linvar.theories import UnknownSymbolError

        with pytest.raises(UnknownSymbolError):
            bfs_prove(maltsev, parse_identity("g(x) = x"))

    def test_deep_goal_through_larger_terms(self, semilattice):
        # provable only by growing the term before shrinking it
        goal = parse_identity("m(m(x,y),x) = m(x,m(y,x))")
        outcome = bfs_prove(semilattice, goal)
        assert isinstance(outcome, Proved)
        assert verify_derivation(semilattice, outcome.derivation)


class TestDerivationJson:
    def test_round_trip(self, maltsev_prime, collapse_chain):
        data = derivation_to_json(collapse_chain)
        again = derivation_from_json(data)
        assert again == collapse_chain
        assert verify_derivation(maltsev_prime, again)

    def test_round_trip_with_a_constant(self):
        """`render_term` writes a constant c as c(), which parses back."""
        theory = parse_theory("theory k\nop c/0\nop p/2\naxiom p(x,c()) = x\n")
        outcome = bfs_prove(theory, parse_identity("p(p(x,c()),c()) = x",
                                                   {"c": 0, "p": 2}))
        assert isinstance(outcome, Proved)
        data = derivation_to_json(outcome.derivation)
        assert "p(x,c())" in data["terms"]
        assert derivation_from_json(data) == outcome.derivation

    def test_schema_fields(self, collapse_chain):
        data = derivation_to_json(collapse_chain)
        assert set(data) == {"theory", "terms", "steps"}
        assert data["terms"][0] == "x"
        step = data["steps"][0]
        assert set(step) == {"eq", "dir", "pos", "subst"}
        assert step["dir"] in ("fwd", "rev")


def test_search_result_failing_verification_raises(maltsev, monkeypatch):
    # the check must survive python -O, so it is a raise, not an assert
    monkeypatch.setattr(rewriting, "verify_derivation",
                        lambda *args, **kwargs: VerifyResult(False, 0, "forced"))
    with pytest.raises(CertificateError, match="forced"):
        bfs_prove(maltsev, parse_identity("x = p(x,y,y)"))


# -- the Term-based search, kept as the reference for the encoded one ---------


class _ReferenceRule(NamedTuple):
    equation: Identity
    forward: bool
    source: Term
    produced: Term
    free: tuple
    size: int
    weights: tuple


def _reference_rules(theory):
    rules = []
    for eq in theory.identities:
        for forward in (True, False):
            src, dst = (eq.lhs, eq.rhs) if forward else (eq.rhs, eq.lhs)
            paths = {}
            for p, v in variable_occurrences(src):
                paths.setdefault(v, p)
            uses = {}
            for _, v in variable_occurrences(dst):
                uses[v] = uses.get(v, 0) + 1
            weights = tuple((paths[v], n) for v, n in uses.items() if v in paths)
            rules.append(_ReferenceRule(
                eq, forward, src, dst,
                tuple(v for v in uses if v not in paths),
                term_size(dst) - sum(n for _, n in weights), weights))
    return rules


def _reference_subterms(t):
    out = []

    def walk(s, pos):
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


def _reference_sized_expansions(rules, t, candidates, max_size):
    nodes = _reference_subterms(t)
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


def _reference_step(t, how):
    rule, pos, values = how
    sigma = dict(match_term(rule.source, subterm_at(t, pos)))
    sigma.update(zip(rule.free, values))
    return make_step(rule.equation, rule.forward, pos, sigma)


def _flipped(step):
    return DerivationStep(step.equation, not step.forward, step.position, step.subst)


def _reference_bfs_prove(theory, goal, bounds=SearchBounds()):
    """`bfs_prove` on `Term`s: the same search without the encoding."""
    sig = set(theory.symbols)
    for s in term_symbols(goal.lhs) | term_symbols(goal.rhs):
        if s not in sig:
            raise UnknownSymbolError(f"goal symbol {s} is not in {theory.name}")
    goal_vars = list(dict.fromkeys(term_variables(goal.lhs) + term_variables(goal.rhs)))
    pool = itertools.islice(fresh_variables([v.name for v in goal_vars]),
                            FRESH_VARIABLES)
    candidates = tuple(goal_vars) + tuple(pool)
    if goal.lhs == goal.rhs:
        return Proved(Derivation(theory.name, (goal.lhs,), ()))
    sides = [{goal.lhs: None}, {goal.rhs: None}]
    frontiers = [[goal.lhs], [goal.rhs]]
    expanded = 0
    rules = _reference_rules(theory)

    def stats(reason):
        return SearchStats(expanded, len(sides[0]), len(sides[1]), reason)

    def assemble(meet):
        terms, steps, cur = [], [], meet
        while True:
            terms.append(cur)
            entry = sides[0][cur]
            if entry is None:
                break
            prev, how = entry
            steps.append(_reference_step(prev, how))
            cur = prev
        terms.reverse()
        steps.reverse()
        cur = meet
        while sides[1][cur] is not None:
            prev, how = sides[1][cur]
            steps.append(_flipped(_reference_step(prev, how)))
            terms.append(prev)
            cur = prev
        d = Derivation(theory.name, tuple(terms), tuple(steps))
        assert verify_derivation(theory, d)
        return d

    for _ in range(bounds.max_depth):
        if not frontiers[0] and not frontiers[1]:
            return Unknown(stats("frontier exhausted"))
        for side in (0, 1):
            other = 1 - side
            new = {}
            for t in frontiers[side]:
                expanded += 1
                for produced, how in _reference_sized_expansions(
                        rules, t, candidates, bounds.max_term_size):
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


def _walk(theory, t, steps, rng):
    """t after `steps` seeded rewrites (at most size 12) that never return
    to a term the walk has visited, values for new variables drawn from t's
    own: the other side of a provable goal."""
    candidates = term_variables(t)
    rules = _reference_rules(theory)
    visited = {t}
    for _ in range(steps):
        options = [u for u, _ in _reference_sized_expansions(rules, t, candidates, 12)
                   if u not in visited]
        if not options:
            break
        t = rng.choice(options)
        visited.add(t)
    return t


def _differential_goals(theory, rng):
    """Nested non-linear goals: pairs of `_nested_starts` terms, each start
    against a seeded rewrite walk from it, and x = y."""
    starts = _nested_starts(theory)
    x, y = Variable("x"), Variable("y")
    goals = [Identity(x, y)]
    goals += [Identity(a, b) for a, b in itertools.combinations(starts, 2)][:6]
    goals += [Identity(s, _walk(theory, s, rng.randint(1, 3), rng)) for s in starts[1:5]]
    return goals


# (max_terms, max_depth, max_term_size): the tiny bounds stop a search at
# its first candidates, the larger ones let it meet
DIFFERENTIAL_BOUNDS = [SearchBounds(n, d, 12) for n in range(4) for d in (1, 2)] + [
    SearchBounds(50, 0, 12), SearchBounds(200, 2, 8), SearchBounds(400, 3, 12),
    SearchBounds(300, 4, 10), SearchBounds(1500, 4, 12)]


def _assert_search_equals_the_reference(theory, goals, bounds_list):
    for goal in goals:
        for bounds in bounds_list:
            got = bfs_prove(theory, goal, bounds)
            expected = _reference_bfs_prove(theory, goal, bounds)
            assert got == expected, (str(goal), bounds)


@pytest.mark.parametrize("index", range(7))
def test_search_equals_the_reference_on_presets(corpus, index):
    theory = corpus[index]
    goals = _differential_goals(theory, random.Random(index))
    _assert_search_equals_the_reference(theory, goals, DIFFERENTIAL_BOUNDS)


@settings(max_examples=25, deadline=None)
@given(st.one_of(small_theories(), ternary_theories()), st.randoms(use_true_random=False),
       st.lists(st.sampled_from(DIFFERENTIAL_BOUNDS), min_size=1, max_size=4))
def test_search_equals_the_reference(theory, rng, bounds_list):
    _assert_search_equals_the_reference(theory, _differential_goals(theory, rng),
                                        bounds_list)


# Axioms with nested sides: patterns and templates deeper than one level,
# over one symbol and over two; each theory's text and goals
NON_LINEAR_CASES = [
    ("theory n1\nop m/2\naxiom m(x,x) = x\naxiom m(x,y) = m(y,x)\n"
     "axiom m(m(x,y),z) = m(x,m(y,z))\naxiom m(x,m(x,y)) = m(x,y)\n",
     ["m(m(x,y),m(y,x)) = m(x,y)", "m(x,m(y,m(x,z))) = m(m(z,y),x)",
      "m(m(x,x),y) = m(y,x)", "x = m(y,x)"]),
    ("theory n2\nop m/2\nop g/1\naxiom m(x,x) = x\naxiom g(x) = x\n"
     "axiom m(g(x),y) = g(m(y,x))\naxiom g(g(x)) = m(x,g(x))\n",
     ["m(g(x),g(y)) = g(m(y,x))", "g(m(g(x),y)) = m(y,x)",
      "m(x,g(g(y))) = g(m(x,y))", "g(x) = m(g(y),x)"]),
]


def _non_linear_goals():
    """(theory, goal) pairs of `NON_LINEAR_CASES`."""
    for text, goal_texts in NON_LINEAR_CASES:
        theory = parse_theory(text)
        arities = {s.name: s.arity for s in theory.symbols}
        for goal in goal_texts:
            yield theory, parse_identity(goal, arities)


def test_search_equals_the_reference_on_non_linear_theories():
    for theory, goal in _non_linear_goals():
        _assert_search_equals_the_reference(theory, [goal], DIFFERENTIAL_BOUNDS)


# The bounds the entail benchmark searches with: terms up to size 16, past
# the 12 of `DIFFERENTIAL_BOUNDS`
ENTAIL_BOUNDS = SearchBounds(max_terms=1000, max_depth=4, max_term_size=16)


def _flat_term(theory, rng):
    """H(...) over seeded variables of x, y, z."""
    s = rng.choice(theory.symbols)
    return Application(s, tuple(Variable(rng.choice("xyz")) for _ in range(s.arity)))


def _nested_term(theory, rng):
    """F(..., G(...), ...): one seeded argument nested, the rest variables,
    as the entail benchmark draws its search goals."""
    top = _flat_term(theory, rng)
    k = rng.randrange(top.symbol.arity)
    return Application(top.symbol, top.children[:k] + (_flat_term(theory, rng),)
                       + top.children[k + 1:])


def _entail_shaped_goals(theory, rng):
    """A nested goal F(..., G(...), ...) = H(...) the search gives up on at
    its term bound, and a provable one: a nested term against the end of a
    seeded two-step rewrite walk from it that revisits no term."""
    while True:
        open_goal = Identity(_nested_term(theory, rng), _flat_term(theory, rng))
        outcome = bfs_prove(theory, open_goal, ENTAIL_BOUNDS)
        if isinstance(outcome, Unknown) and outcome.stats.reason == "max_terms reached":
            break
    rules = _reference_rules(theory)
    start = t = _nested_term(theory, rng)
    for _ in range(2):
        t = rng.choice([u for u, _ in _reference_sized_expansions(
            rules, t, term_variables(t), ENTAIL_BOUNDS.max_term_size) if u not in (start, t)])
    proved = Identity(start, t)
    assert isinstance(bfs_prove(theory, proved, ENTAIL_BOUNDS), Proved)
    return [open_goal, proved]


@pytest.mark.parametrize("index", range(7))
def test_search_equals_the_reference_at_the_entail_bounds(corpus, index):
    theory = corpus[index]
    _assert_search_equals_the_reference(
        theory, _entail_shaped_goals(theory, random.Random(index)), [ENTAIL_BOUNDS])


def _pinned_search_goals(corpus):
    """Each preset's idempotency goals, its derivable facts x = F(w), x = y
    over it and over its derivative, and its `_differential_goals`; then
    the goals of `NON_LINEAR_CASES`."""
    x, y = Variable("x"), Variable("y")
    for index, theory in enumerate(corpus):
        symbols = {s.name: s for s in theory.symbols}
        for s in theory.symbols:
            yield theory, idempotency_identity(s)
        for name, w in sorted(order_fact_set(theory)):
            yield theory, _fact_identity(symbols[name], w)
        for t in (theory, derivative(theory)):
            yield t, Identity(x, y)
        for goal in _differential_goals(theory, random.Random(index)):
            yield theory, goal
    yield from _non_linear_goals()


# sha256 over one JSON line per goal of `_pinned_search_goals`: the
# derivation's JSON, or the statistics of an Unknown outcome, under
# `PINNED_SEARCH_BOUNDS`; taken before the search read its steps off the
# encoded terms, and taken again on the search as it then stood when
# `_walk` stopped returning to terms it had visited.
PINNED_SEARCH_BOUNDS = SearchBounds(max_terms=5000, max_depth=4, max_term_size=20)
PINNED_SEARCH = (107, "de3a940c4f527abd22142d4174f73027f8becbb9d52716b55d955eff72a6cf78")


def test_proof_search_outcomes_are_pinned(corpus):
    digest = hashlib.sha256()
    count = 0
    for theory, goal in _pinned_search_goals(corpus):
        outcome = bfs_prove(theory, goal, PINNED_SEARCH_BOUNDS)
        if isinstance(outcome, Proved):
            record = derivation_to_json(outcome.derivation)
        else:
            record = dataclasses.asdict(outcome.stats)
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == PINNED_SEARCH


# -- the in-place verifier against the replaying one ------------------------


def _preset_certificates(corpus):
    """(theory, derivation) pairs of the engine's certificates: `entails_flat`
    and `bfs_prove` on each preset's axioms, both ways round, and on its
    idempotency identities, and `is_inconsistent` on each derivative of it
    that collapses."""
    out = []
    bounds = SearchBounds(max_terms=2000, max_depth=4, max_term_size=12)
    x = Variable("x")
    for theory in corpus:
        base = saturate(theory)
        goals = [g for e in theory.identities for g in (e, Identity(e.rhs, e.lhs))]
        goals += [Identity(Application(s, (x,) * s.arity), x) for s in theory.symbols]
        for goal in goals:
            verdict = entails_flat(base, goal)
            assert isinstance(verdict, Entailed), (theory.name, str(goal))
            out.append((theory, verdict.derivation))
            outcome = bfs_prove(theory, goal, bounds)
            if isinstance(outcome, Proved):
                out.append((theory, outcome.derivation))
        for operator in (derivative, order_derivative):
            stage = operator(theory)
            verdict = is_inconsistent(saturate(stage))
            if isinstance(verdict, Entailed):
                out.append((stage, verdict.derivation))
    return out


def _mutations(d, rng):
    """Broken copies of d: misaligned terms and steps, and for steps drawn
    by rng, a position too deep, with index 0 or with an index above the
    arity; one σ binding changed; the next term with a leaf replaced below
    the rewrite position, a sibling replaced above it, or its root symbol
    swapped; a foreign equation, the next step's equation, and the
    direction flipped."""
    out = [Derivation(d.theory_name, d.terms[:-1], d.steps)]
    if not d.steps:
        return out
    out.append(Derivation(d.theory_name, d.terms, d.steps[:-1]))
    fresh = Variable("u9")

    def pick():
        i = rng.randrange(len(d.steps))
        return i, d.steps[i], subterm_at(d.terms[i], d.steps[i].position)

    def with_step(i, **changes):
        steps = list(d.steps)
        steps[i] = dataclasses.replace(steps[i], **changes)
        out.append(Derivation(d.theory_name, d.terms, tuple(steps)))

    def with_next(i, t):
        terms = list(d.terms)
        terms[i + 1] = t
        out.append(Derivation(d.theory_name, tuple(terms), d.steps))

    i, step, sub = pick()
    with_step(i, position=step.position + (1,) * (term_depth(sub) + 1))
    i, step, sub = pick()
    with_step(i, position=step.position + (0,))
    i, step, sub = pick()
    arity = len(sub.children) if isinstance(sub, Application) else 0
    with_step(i, position=step.position + (arity + 1,))
    i, step, sub = pick()
    if step.subst:
        k = rng.randrange(len(step.subst))
        v, image = step.subst[k]
        subst = step.subst[:k] + ((v, fresh if image != fresh else sub),) + step.subst[k + 1:]
        with_step(i, subst=subst)
    i, step, sub = pick()
    there, pos = d.terms[i + 1], step.position
    below = [p for p, _ in variable_occurrences(there) if p[:len(pos)] == pos]
    if below:
        with_next(i, replace_at(there, rng.choice(below), fresh))
    beside = [q + (j,) for n in range(len(pos)) for q in [pos[:n]]
              for j in range(1, len(subterm_at(there, q).children) + 1) if j != pos[n]]
    if beside:
        with_next(i, replace_at(there, rng.choice(beside), fresh))
    if isinstance(there, Application):
        swapped = OperationSymbol(there.symbol.name + "_", there.symbol.arity)
        with_next(i, Application(swapped, there.children))
    else:
        with_next(i, Variable(there.name + "_"))
    i, step, sub = pick()
    foreign = Identity(Variable("v0"), Application(OperationSymbol("g", 1), (Variable("v0"),)))
    with_step(i, equation=foreign)
    with_step(i, equation=d.steps[(i + 1) % len(d.steps)].equation)
    i, step, sub = pick()
    with_step(i, forward=not step.forward)
    return out


def test_verifier_equals_the_reference(corpus):
    """The same (ok, step, reason) as the verifier that builds each step's
    instances and replayed term, kept in `verify_reference`, on every walk
    of the projection corpus, on the presets' certificates and on seeded
    mutations of each."""
    from test_projection import _walk_corpus

    rng = random.Random(2117)
    cases = [(embedded_components(a, b)[2], d) for a, b, d in _walk_corpus()]
    cases += _preset_certificates(corpus)
    seen = {}
    for theory, d in cases:
        for candidate in [d] + _mutations(d, rng):
            expected = reference.verify_derivation(theory, candidate)
            assert verify_derivation(theory, candidate) == expected, \
                ([str(t) for t in candidate.terms], expected)
            kind = "valid" if expected else expected.reason.split()[0]
            seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {"valid", "terms", "equation", "position", "instance", "step"}, seen
    assert min(seen.values()) >= 300, seen


def test_verifying_builds_no_term(monkeypatch):
    """Checking a 40-step derivation, a corpus walk and its mirror image,
    constructs no `Application`, whether it verifies or fails at its last
    step."""
    from test_projection import _walk_corpus

    a, b, d = next(case for case in _walk_corpus() if len(case[2].steps) == 20)
    joined = embedded_components(a, b)[2]
    mirror = tuple(dataclasses.replace(s, forward=not s.forward) for s in reversed(d.steps))
    long = Derivation(d.theory_name, d.terms + d.terms[-2::-1], d.steps + mirror)
    wrong_end = Derivation(long.theory_name, long.terms[:-1] + (Variable("u9"),), long.steps)
    joined.identity_set()   # the theory's own memo, built once
    built = []
    original = Application.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Application, "__post_init__", counted)
    assert len(long.steps) == 40
    assert verify_derivation(joined, long)
    assert verify_derivation(joined, wrong_end) == VerifyResult(
        False, 39, "step does not produce the next term")
    assert built == []


def _deep_maltsev_derivation(bottom):
    """p(x,y,y) = x rewritten at the bottom of MAX_TERM_DEPTH − 2 levels of
    p(·,y,z), with `bottom` as the produced subterm in the next term."""
    from linvar.dsl import MAX_TERM_DEPTH

    levels = MAX_TERM_DEPTH - 3
    before = "p(" * levels + "p(x,y,y)" + ",y,z)" * levels
    after = "p(" * levels + bottom + ",y,z)" * levels
    axiom = parse_identity("p(v0,v1,v1) = v0")
    step = make_step(axiom, True, (1,) * levels, {Variable("v0"): Variable("x"),
                                                   Variable("v1"): Variable("y")})
    return Derivation("maltsev", (parse_term(before), parse_term(after)), (step,))


def test_verifying_at_the_nesting_bound(maltsev):
    from linvar.dsl import MAX_TERM_DEPTH

    valid = _deep_maltsev_derivation("x")
    assert term_depth(valid.terms[0]) == MAX_TERM_DEPTH - 2
    assert verify_derivation(maltsev, valid)
    assert verify_derivation(maltsev, _deep_maltsev_derivation("y")) == VerifyResult(
        False, 0, "step does not produce the next term")
