import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import projection_reference as reference
from linvar import presets
from linvar.dsl import parse_identity, parse_term
from linvar.presets import maltsev, semilattice
from linvar.projection import (
    DerivationOccurrence,
    InconsistencyDetectedError,
    NotAProjectionInstanceError,
    ProjectionError,
    _chain_search,
    _edges_for,
    project_to_component,
    successors,
)
from linvar.rewriting import (Derivation, Proved, bfs_prove, derivation_to_json, make_step,
                              verify_derivation)
from linvar.terms import (Application, OperationSymbol, Variable, apply_substitution, is_flat,
                          match_term, positions, replace_at, subterm_at, term_variables)
from linvar.theories import embedded_components, join_disjoint, make_theory


def occ(index, *pos):
    return DerivationOccurrence(index, tuple(pos))


def all_occurrences(d):
    return [DerivationOccurrence(i, pos) for i, t in enumerate(d.terms) for pos in positions(t)]


def eager_adjacency(d):
    """Reference: every successor edge of the derivation, built up front for
    both reading directions of every step, grouped by source and sorted."""
    edges = []
    for m in range(1, len(d.steps) + 1):
        for direction in (1, -1):
            from_index = m - 1 if direction > 0 else m
            for pos in positions(d.terms[from_index]):
                edges.extend(_edges_for(d, m, direction, DerivationOccurrence(from_index, pos)))
    adjacency = {}
    for e in edges:
        adjacency.setdefault(e.source, []).append(e)
    return {src: tuple(sorted(lst, key=lambda e: (-e.direction, e.case,
                                                  e.target.index, e.target.position)))
            for src, lst in adjacency.items()}


def edge_targets(d, source, case=None):
    return {(e.target, e.case) if case is None else e.target
            for e in successors(d, source)
            if case is None or e.case == case}


@pytest.fixture
def unary_collapse():
    """{f(v) = v} with spare symbols for building example terms."""
    return make_theory("collapse", [OperationSymbol("f", 1), OperationSymbol("g", 2),
                                    OperationSymbol("r", 2)],
                       [parse_identity("f(v) = v")])


class TestSuccessorGraph:
    """The successor edges, computed per occurrence by `successors`."""

    def test_case1_untouched_sibling(self, unary_collapse):
        t = unary_collapse
        eq = t.identities[0]
        d = Derivation(t.name,
                       (parse_term("r(g(x,x),f(y))"), parse_term("r(g(x,x),y)")),
                       (make_step(eq, False, (2,), {Variable("v0"): Variable("y")}),))
        assert verify_derivation(t, d)
        assert (occ(1, 1), 1) in edge_targets(d, occ(0, 1))

    def test_case2_rewrite_inside(self, unary_collapse):
        t = unary_collapse
        eq = t.identities[0]
        d = Derivation(t.name,
                       (parse_term("f(g(x,f(y)))"), parse_term("f(g(x,y))")),
                       (make_step(eq, False, (1, 2), {Variable("v0"): Variable("y")}),))
        assert verify_derivation(t, d)
        assert (occ(1, 1), 2) in edge_targets(d, occ(0, 1))

    def test_case3_fanout_skips_fresh_variable_image(self):
        h = OperationSymbol("h", 3)
        t = make_theory("spread", [OperationSymbol("f", 1), OperationSymbol("g", 2), h],
                        [parse_identity("v = h(v,v,w)")])
        eq = t.identities[0]
        v0, v1 = Variable("v0"), Variable("v1")
        gxy = parse_term("g(x,y)")
        d = Derivation(t.name,
                       (parse_term("f(g(x,y))"),
                        parse_term("f(h(g(x,y),g(x,y),g(x,y)))")),
                       (make_step(eq, True, (1,), {v0: gxy, v1: gxy}),))
        assert verify_derivation(t, d)
        targets = edge_targets(d, occ(0, 1), case=3)
        assert occ(0, 1) in targets          # self-transport
        assert occ(1, 1, 1) in targets
        assert occ(1, 1, 2) in targets
        assert occ(1, 1, 3) not in targets   # that copy matches the fresh variable

    def test_case4_root_step(self):
        g, h = OperationSymbol("g", 3), OperationSymbol("h", 2)
        t = make_theory("merge", [g, h, OperationSymbol("k", 2)],
                        [parse_identity("g(v,v,w) = h(v,w)")])
        eq = t.identities[0]
        hxy = parse_term("k(x,y)")
        d = Derivation(t.name,
                       (parse_term("g(k(x,y),k(x,y),k(x,y))"),
                        parse_term("h(k(x,y),k(x,y))")),
                       (make_step(eq, True, (), {Variable("v0"): hxy, Variable("v1"): hxy}),))
        assert verify_derivation(t, d)
        assert (occ(1,), 4) in edge_targets(d, occ(0,))

    def test_edges_exist_in_both_directions(self, unary_collapse):
        t = unary_collapse
        eq = t.identities[0]
        d = Derivation(t.name, (parse_term("f(x)"), parse_term("x")),
                       (make_step(eq, True, (), {Variable("v0"): Variable("x")}),))
        directions = {e.direction for o in all_occurrences(d) for e in successors(d, o)}
        assert directions == {1, -1}

    def test_edge_soundness(self, maltsev, semilattice):
        # every edge preserves the underlying term or rewrites it provably
        joined = join_disjoint(maltsev, semilattice)
        d = _spec_example_derivation(maltsev, semilattice)
        edges = [e for o in all_occurrences(d) for e in successors(d, o)]
        for e in edges[:200]:
            a = subterm_at(d.terms[e.source.index], e.source.position)
            b = subterm_at(d.terms[e.target.index], e.target.position)
            if a == b:
                continue
            outcome = bfs_prove(joined, parse_identity(f"{a} = {b}"))
            assert isinstance(outcome, Proved), (str(a), str(b))

    def test_successors_equal_the_eager_adjacency(self, maltsev, semilattice):
        """Per occurrence, the same edges in the same order as building the
        whole graph, on the spec example and on generated join derivations."""
        from test_acceptance import _projection_corpus

        derivations = [_spec_example_derivation(maltsev, semilattice)]
        derivations += [d for _, _, d, _ in _projection_corpus()]
        for d in derivations:
            eager = eager_adjacency(d)
            occurrences = all_occurrences(d)
            assert set(eager) <= set(occurrences)
            for o in occurrences:
                assert successors(d, o) == eager.get(o, ()), (o, [str(t) for t in d.terms])


def _spec_example_derivation(mal, sem):
    joined = join_disjoint(mal, sem)
    ax_m = sem.identities[0]   # v0 = m(v0,v0)
    ax_p = mal.identities[0]   # v0 = p(v0,v1,v1)
    x, y = Variable("x"), Variable("y")
    v0, v1 = Variable("v0"), Variable("v1")
    myy = parse_term("m(y,y)")
    d = Derivation(joined.name,
                   (parse_term("p(x,y,y)"), parse_term("p(x,m(y,y),y)"),
                    parse_term("p(x,m(y,y),m(y,y))"), x),
                   (make_step(ax_m, True, (2,), {v0: y}),
                    make_step(ax_m, True, (3,), {v0: y}),
                    make_step(ax_p, False, (), {v0: x, v1: myy})))
    assert verify_derivation(joined, d)
    return d


class TestProjectToComponent:
    def test_spec_example(self, maltsev, semilattice):
        d = _spec_example_derivation(maltsev, semilattice)
        result = project_to_component(maltsev, semilattice, d)
        assert result.owner_index == 1
        out = result.derivation
        assert [str(t) for t in out.terms] == ["p(x,y,y)", "x"]
        assert verify_derivation(result.owner_theory, out, allow_reflexivity=True)
        assert all(is_flat(t) for t in out.terms)

    def test_pure_component_derivation_passes_through(self, maltsev, semilattice):
        prime_free = maltsev
        ax1 = prime_free.identities[0]
        x, y = Variable("x"), Variable("y")
        d = Derivation(join_disjoint(maltsev, semilattice).name,
                       (parse_term("p(x,y,y)"), x),
                       (make_step(ax1, False, (), {Variable("v0"): x, Variable("v1"): y}),))
        result = project_to_component(maltsev, semilattice, d)
        assert [str(t) for t in result.derivation.terms] == ["p(x,y,y)", "x"]

    def test_zero_step_derivation_rejected(self, maltsev, semilattice):
        d = Derivation(join_disjoint(maltsev, semilattice).name,
                       (parse_term("p(x,y,y)"),), ())
        with pytest.raises(NotAProjectionInstanceError):
            project_to_component(maltsev, semilattice, d)

    def test_wrong_shape_rejected(self, maltsev, semilattice):
        joined = join_disjoint(maltsev, semilattice)
        ax_m = semilattice.identities[0]
        d = Derivation(joined.name, (parse_term("m(x,x)"), Variable("x")),
                       (make_step(ax_m, False, (), {Variable("v0"): Variable("x")}),))
        # fine shape, owned by the right component
        result = project_to_component(maltsev, semilattice, d)
        assert result.owner_index == 2
        deep = Derivation(joined.name,
                          (parse_term("p(m(x,x),y,y)"), parse_term("m(x,x)")),
                          (make_step(maltsev.identities[0], False, (),
                                     {Variable("v0"): parse_term("m(x,x)"),
                                      Variable("v1"): Variable("y")}),))
        with pytest.raises(NotAProjectionInstanceError):
            project_to_component(maltsev, semilattice, deep)

    def test_scrambled_walk_derivations_project(self):
        """Fact-anchored random walks through the join always flatten back."""
        import random

        from linvar import presets
        from linvar.derivatives import _fact_identity, order_fact_set
        from linvar.rewriting import (Proved, SearchBounds, _Encoding, _search_rules,
                                      _step, bfs_prove)
        from test_random_theories import _successors
        from linvar.theories import Identity, embedded_components

        rng = random.Random(987)
        corpus = presets.presets()
        bounds = SearchBounds(max_terms=4000, max_depth=5, max_term_size=14)
        projected = 0
        for _ in range(60):
            a, b = rng.choice(corpus), rng.choice(corpus)
            a_emb, b_emb, joined = embedded_components(a, b)
            rules = _search_rules(joined)
            owner = rng.choice([a_emb, b_emb])
            facts = sorted(order_fact_set(owner))
            name, w = rng.choice(facts)
            fact = _fact_identity(owner.symbol_named(name), w)
            start, goal_var = fact.rhs, fact.lhs
            pool = tuple({v: None for v in (goal_var, *start.children)}) \
                + (Variable("u0"),)
            encoding = _Encoding(joined.symbols, pool)
            cur, terms, steps = start, [start], []
            for _ in range(rng.randint(0, 4)):
                # encoded variables are ints, applications tuples
                options = [o for o in _successors(rules, encoding.encode(cur),
                                                  len(pool), 12).items()
                           if isinstance(o[0], tuple)]
                if not options:
                    break
                produced, entry = rng.choice(options)
                steps.append(_step(entry, encoding))
                cur = encoding.decode(produced)
                terms.append(cur)
            outcome = bfs_prove(joined, Identity(cur, goal_var), bounds)
            if not isinstance(outcome, Proved) or \
                    len(steps) + len(outcome.derivation.steps) == 0:
                continue
            d = Derivation(joined.name,
                           tuple(terms) + outcome.derivation.terms[1:],
                           tuple(steps) + outcome.derivation.steps)
            assert verify_derivation(joined, d)
            result = project_to_component(a, b, d)
            out = result.derivation
            assert verify_derivation(result.owner_theory, out, allow_reflexivity=True)
            assert all(is_flat(t) for t in out.terms)
            assert out.terms[0] == d.terms[0] and out.terms[-1] == d.terms[-1]
            projected += 1
        assert projected >= 40

    def test_inconsistency_detected_with_certificate(self, semilattice):
        g = OperationSymbol("g", 2)
        shaky = make_theory("shaky", [g], [
            parse_identity("g(v,v) = v"),
            parse_identity("v = g(v,w)"),
            parse_identity("v = g(w,v)"),
        ])
        joined = join_disjoint(shaky, semilattice)
        e_diag = shaky.identities[0]   # v0 = g(v0,v0)? check orientation below
        ids = {str(e): e for e in shaky.identities}
        diag = ids["v0 = g(v0,v0)"]
        left = ids["v0 = g(v0,v1)"]
        right = ids["v0 = g(v1,v0)"]
        x, y = Variable("x"), Variable("y")
        v0, v1 = Variable("v0"), Variable("v1")
        gxy = parse_term("g(x,y)")
        d = Derivation(joined.name,
                       (gxy, parse_term("g(g(x,y),y)"),
                        parse_term("g(g(x,y),g(x,y))"), gxy, x),
                       (make_step(left, True, (1,), {v0: x, v1: y}),
                        make_step(right, True, (2,), {v0: y, v1: x}),
                        make_step(diag, False, (), {v0: gxy}),
                        make_step(left, False, (), {v0: x, v1: y})))
        assert verify_derivation(joined, d)
        with pytest.raises(InconsistencyDetectedError) as excinfo:
            project_to_component(shaky, semilattice, d)
        cert = excinfo.value.derivation
        assert verify_derivation(joined, cert)
        assert {str(cert.terms[0]), str(cert.terms[-1])} == {"x", "y"}

    def test_class_without_a_variable_gets_a_fresh_name(self, semilattice):
        # the root step f(x) -> p(x,w,w) instantiates its right-only w with
        # m(y,y), so the class of p's last two slots holds no variable
        f, p = OperationSymbol("f", 1), OperationSymbol("p", 3)
        spread = make_theory("spread", [f, p], [parse_identity("f(v) = p(v,w,w)"),
                                                parse_identity("v = p(v,w,w)")])
        ids = {str(e): e for e in spread.identities}
        x, myy = Variable("x"), parse_term("m(y,y)")
        v0, v1 = Variable("v0"), Variable("v1")
        joined = join_disjoint(spread, semilattice)
        d = Derivation(joined.name,
                       (parse_term("f(x)"), parse_term("p(x,m(y,y),m(y,y))"), x),
                       (make_step(ids["f(v0) = p(v0,v1,v1)"], True, (), {v0: x, v1: myy}),
                        make_step(ids["v0 = p(v0,v1,v1)"], False, (), {v0: x, v1: myy})))
        assert verify_derivation(joined, d)
        out = project_to_component(spread, semilattice, d).derivation
        assert [str(t) for t in out.terms] == ["f(x)", "p(x,v2,v2)", "x"]
        assert verify_derivation(spread, out, allow_reflexivity=True)

    def test_non_flat_step_is_rejected(self, semilattice):
        with pytest.raises(ProjectionError, match=r"equation side g\(g\(v0\)\) is not flat"):
            project_to_component(*_nested_root_step_example(semilattice))

    def test_first_non_flat_step_is_named(self, semilattice):
        """The flatness check names the first non-flat step in step order,
        here a repeated f(v) = g(g(v)) before f(v) = h(h(v))."""
        f, g, h = (OperationSymbol(name, 1) for name in "fgh")
        nested = make_theory("nested2", [f, g, h], [parse_identity("f(v) = g(g(v))"),
                                                   parse_identity("f(v) = h(h(v))"),
                                                   parse_identity("h(v) = v")])
        ids = {str(e): e for e in nested.identities}
        x, v0 = Variable("x"), Variable("v0")
        gg, hh = ids["f(v0) = g(g(v0))"], ids["f(v0) = h(h(v0))"]
        d = Derivation(join_disjoint(nested, semilattice).name,
                       tuple(map(parse_term, ("f(x)", "g(g(x))", "f(x)", "g(g(x))", "f(x)",
                                              "h(h(x))", "h(x)", "x"))),
                       (make_step(gg, True, (), {v0: x}), make_step(gg, False, (), {v0: x}),
                        make_step(gg, True, (), {v0: x}), make_step(gg, False, (), {v0: x}),
                        make_step(hh, True, (), {v0: x}),
                        make_step(ids["v0 = h(v0)"], False, (1,), {v0: x}),
                        make_step(ids["v0 = h(v0)"], False, (), {v0: x})))
        with pytest.raises(ProjectionError, match=r"equation side g\(g\(v0\)\) is not flat"):
            project_to_component(nested, semilattice, d)

    def test_chain_checks_do_not_rely_on_assert(self):
        # python -O strips asserts; a chain whose case 1 edge joins two
        # different terms must still raise instead of being flattened
        script = "\n".join([
            "import sys",
            "sys.path.insert(0, sys.argv[1])",
            "from linvar import projection",
            "from linvar.presets import maltsev, semilattice",
            "from test_projection import _spec_example_derivation",
            "search = projection._chain_search",
            "def tampered(*args):",
            "    chain, edges = search(*args)",
            "    return chain, [edges[0]._replace(case=1)] + edges[1:]",
            "projection._chain_search = tampered",
            "mal, sem = maltsev(), semilattice()",
            "try:",
            "    projection.project_to_component(mal, sem, _spec_example_derivation(mal, sem))",
            "except projection.ProjectionError as exc:",
            "    print('raised', sys.flags.optimize, 'changes' in str(exc))",
        ])
        here = Path(__file__).resolve().parent
        result = subprocess.run([sys.executable, "-O", "-c", script, str(here)],
                                env=dict(os.environ, PYTHONPATH=str(here.parent / "src")),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["raised", "1", "True"]


def _nested_root_step_example(semilattice):
    """A join derivation f(x) -> g(g(x)) -> g(x) -> x whose first step uses
    the non-flat identity f(v) = g(g(v))."""
    f, g = OperationSymbol("f", 1), OperationSymbol("g", 1)
    nested = make_theory("nested", [f, g], [parse_identity("f(v) = g(g(v))"),
                                            parse_identity("g(v) = v")])
    ids = {str(e): e for e in nested.identities}
    x, v0 = Variable("x"), Variable("v0")
    d = Derivation(join_disjoint(nested, semilattice).name,
                   (parse_term("f(x)"), parse_term("g(g(x))"), parse_term("g(x)"), x),
                   (make_step(ids["f(v0) = g(g(v0))"], True, (), {v0: x}),
                    make_step(ids["v0 = g(v0)"], False, (1,), {v0: x}),
                    make_step(ids["v0 = g(v0)"], False, (), {v0: x})))
    return nested, semilattice, d


def _inner_rename_example(semilattice):
    """A join derivation f(x) -> p(x,m(y,y),m(y,y)) -> p(x,y,m(y,y)) ->
    p(x,m(y,y),m(y,y)) -> x over `spread`: the class of p's last two
    children holds no variable until the rewrite inside the second child
    turns it into y, which names the class."""
    spread = _spread_theory()
    ids = {str(e): e for e in spread.identities}
    idem = semilattice.identities[0]  # v0 = m(v0,v0)
    x, y, v0, v1 = Variable("x"), Variable("y"), Variable("v0"), Variable("v1")
    myy = parse_term("m(y,y)")
    out = parse_term("p(x,m(y,y),m(y,y))")
    inner = replace_at(out, (2,), y)
    back = replace_at(inner, (2,), myy)
    d = Derivation(join_disjoint(spread, semilattice).name,
                   (parse_term("f(x)"), out, inner, back, x),
                   (make_step(ids["f(v0) = p(v0,v1,v1)"], True, (), {v0: x, v1: myy}),
                    make_step(idem, False, (2,), {v0: y}),
                    make_step(idem, True, (2,), {v0: y}),
                    make_step(ids["v0 = p(v0,v1,v1)"], False, (), {v0: x, v1: myy})))
    return spread, semilattice, d


# -- a seeded corpus that reaches the rare paths of the projection ----------


def _orientations(theory):
    """(equation, forward, source side, produced side) for both readings of
    every identity."""
    return [(eq, fwd) + ((eq.lhs, eq.rhs) if fwd else (eq.rhs, eq.lhs))
            for eq in theory.identities for fwd in (True, False)]


class _Walk:
    """A join derivation built step by step from seeded random choices."""

    def __init__(self, rng, joined, start, pool):
        self.rng, self.pool = rng, pool
        self.rules = _orientations(joined)
        self.terms, self.steps = [start], []

    def apply(self, eq, forward, pos, sigma):
        dst = eq.rhs if forward else eq.lhs
        self.steps.append(make_step(eq, forward, pos, sigma))
        self.terms.append(replace_at(self.terms[-1], pos, apply_substitution(dst, sigma)))

    def instance(self, src, dst, pos):
        """A substitution rewriting the subterm at pos by src -> dst, or None.
        Produced-side variables get a pool variable or a subterm."""
        sigma = match_term(src, subterm_at(self.terms[-1], pos))
        if sigma is None:
            return None
        sigma = dict(sigma)
        subterms = [subterm_at(self.terms[-1], p) for p in positions(self.terms[-1])]
        for v in term_variables(dst):
            if v not in sigma:
                sigma[v] = self.rng.choice(self.pool + [self.rng.choice(subterms)])
        return sigma

    def excursion(self, pos, depth):
        """Rewrite at pos, maybe wander inside the result, and rewrite back."""
        eq, fwd, src, dst = self.rng.choice(self.rules)
        sigma = self.instance(src, dst, pos)
        if sigma is None or len(str(self.terms[-1])) > 60:
            return
        self.apply(eq, fwd, pos, sigma)
        if depth > 0 and self.rng.random() < 0.6:
            self.excursion(self.rng.choice(list(positions(self.terms[-1]))), depth - 1)
        self.apply(eq, not fwd, pos, sigma)

    def wander(self):
        for _ in range(self.rng.randint(0, 2)):
            self.excursion(self.rng.choice(list(positions(self.terms[-1]))), 1)

    def derivation(self, joined):
        return Derivation(joined.name, tuple(self.terms), tuple(self.steps))


def _root_walk(rng, owner, joined):
    """F(w) = z: root steps of the owner between applications, out and
    partly back, with excursions of both components between them, closed by
    a collapsing root step.  None when the owner has nothing to close with."""
    owned = _orientations(owner)
    closers = [s for _, _, s, d in owned if isinstance(s, Application)
               and isinstance(d, Variable) and d in term_variables(s)]
    if not closers:
        return None
    pool = [Variable(n) for n in ("x", "y", "z")][:rng.randint(2, 3)]
    src = rng.choice(closers)
    w = _Walk(rng, joined, apply_substitution(
        src, {v: rng.choice(pool) for v in term_variables(src)}), pool)
    drifts = []
    for _ in range(rng.randint(1, 4)):
        w.wander()
        options = [r for r in owned
                   if isinstance(r[2], Application) and isinstance(r[3], Application)]
        rng.shuffle(options)
        for eq, fwd, s, d in options:
            sigma = w.instance(s, d, ())
            if sigma is not None:
                w.apply(eq, fwd, (), sigma)
                drifts.append((eq, fwd, sigma))
                break
    while True:
        w.wander()
        root = w.terms[-1]
        ends = [(eq, fwd, s) for eq, fwd, s, d in owned
                if isinstance(s, Application) and isinstance(d, Variable)
                and d in term_variables(s) and match_term(s, root) is not None]
        if ends and (rng.random() < 0.3 or not drifts):
            eq, fwd, s = rng.choice(ends)
            w.apply(eq, fwd, (), dict(match_term(s, root)))
            return w.derivation(joined)
        eq, fwd, sigma = drifts.pop()
        w.apply(eq, not fwd, (), sigma)


def _projections_theory(arity):
    """g(v,...,v) = v and v = g(..., v at k, ...) for each k, like `shaky`
    in `test_inconsistency_detected_with_certificate`: inconsistent."""
    def g(args):
        return f"g({','.join(args)})"

    ids = [parse_identity(f"{g(['v'] * arity)} = v")]
    for k in range(arity):
        ids.append(parse_identity(
            f"v = {g(['v' if i == k else f'w{i}' for i in range(arity)])}"))
    return make_theory(f"projections{arity}", [OperationSymbol("g", arity)], ids)


def _conflict_walk(rng, owner, joined):
    """g(x1..xn) = z over `_projections_theory`: turn each child into the
    whole term, collapse the diagonal, and project, with excursions."""
    g = owner.symbols[0]
    projs = {}
    for eq, fwd, src, dst in _orientations(owner):
        if isinstance(src, Variable) and isinstance(dst, Application):
            if all(c == src for c in dst.children):
                diag = (eq, not fwd, dst, src)                   # g(v,...,v) -> v
            else:
                projs[dst.children.index(src) + 1] = (eq, fwd, dst)   # v -> g(..v..)
    pool = [Variable(n) for n in ("x", "y", "z")]
    w = _Walk(rng, joined, Application(g, tuple(rng.choice(pool) for _ in range(g.arity))),
              pool)
    for _ in range(rng.randint(1, 2)):
        whole = w.terms[-1]
        order = list(range(1, g.arity + 1))
        rng.shuffle(order)
        for k in order:
            w.wander()
            eq, fwd, dst = projs[k]
            w.apply(eq, fwd, (k,), dict(match_term(dst, whole)))
        w.wander()
        eq, fwd, src, dst = diag
        w.apply(eq, fwd, (), {dst: whole})
    w.wander()
    eq, fwd, dst = projs[rng.randint(1, g.arity)]
    w.apply(eq, not fwd, (), dict(match_term(dst, w.terms[-1])))
    return w.derivation(joined)


def _spread_theory():
    """f(v) = p(v,w,w) and v = p(v,w,w): a root step that instantiates w with
    a compound term leaves a class without a variable."""
    return make_theory("spread", [OperationSymbol("f", 1), OperationSymbol("p", 3)],
                       [parse_identity("f(v) = p(v,w,w)"), parse_identity("v = p(v,w,w)")])


def _walk_corpus():
    """(left, right, join derivation) triples: eight root walks for each of
    the 42 ordered pairs of distinct presets, root walks over `spread`, and
    conflict walks over theories of projections, all from one seed."""
    rng = random.Random(5417)
    corpus = presets.presets()
    cases = []
    for a, b in itertools.permutations(corpus, 2):
        a_emb, _, joined = embedded_components(a, b)
        for _ in range(8):
            d = _root_walk(rng, a_emb, joined)
            if d is not None:
                cases.append((a, b, d))
    for owner, walk, copies in ((_spread_theory(), _root_walk, 4),
                                (_projections_theory(2), _conflict_walk, 3),
                                (_projections_theory(3), _conflict_walk, 3)):
        for b in corpus:
            a_emb, _, joined = embedded_components(owner, b)
            for _ in range(copies):
                cases.append((owner, b, walk(rng, a_emb, joined)))
    return cases


def _outcome(project, left, right, d):
    """What a projection returns or raises, as JSON-ready data."""
    try:
        result = project(left, right, d)
    except ProjectionError as exc:
        cert = getattr(exc, "derivation", None)
        return ["raised", type(exc).__name__, str(exc),
                None if cert is None else derivation_to_json(cert)]
    return ["projected", result.owner_index, result.owner_theory.name,
            derivation_to_json(result.derivation)]


# sha256 of `_outcome` over `_walk_corpus()`, taken before projection was
# rewritten without per-edge objects
PINNED_PROJECTIONS = "c47f2f558fd7f6b707f7a7b41ddc62192c9bcbb7805e9345c0d7c20cccbbc49f"


def test_projections_are_pinned():
    cases = _walk_corpus()
    for left, right, d in cases:
        assert verify_derivation(embedded_components(left, right)[2], d)
    outcomes = [_outcome(project_to_component, *case) for case in cases]
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == PINNED_PROJECTIONS


@pytest.mark.xfail(strict=True, raises=ProjectionError,
                   reason="the chain search treats a bare variable other than the goal "
                          "as a dead end")
def test_a_walk_through_a_bare_variable_projects_or_certifies_a_conflict():
    """Case 368, `projections2` joined with the majority, passes through the
    bare variable x.  The component is inconsistent, so projection must give
    a projection that verifies or a conflict certificate over the join."""
    left, right, d = _walk_corpus()[368]
    assert (left.name, right.name) == ("projections2", "majority")
    joined = embedded_components(left, right)[2]
    assert verify_derivation(joined, d)
    assert Variable("x") in d.terms[1:-1]
    try:
        result = project_to_component(left, right, d)
    except InconsistencyDetectedError as exc:
        assert verify_derivation(joined, exc.derivation)
    else:
        assert verify_derivation(result.owner_theory, result.derivation,
                                 allow_reflexivity=True)


def _edge_cases(maltsev, semilattice):
    """Hand-built inputs: the spec example, a derivation the right-hand
    component owns, inputs rejected because they do not verify, have the
    wrong shape or use a non-flat identity, and a class named only by a
    child rewritten inside a chain term."""
    joined = join_disjoint(maltsev, semilattice)
    x, v0 = Variable("x"), Variable("v0")
    ax_m = semilattice.identities[0]
    return [
        (maltsev, semilattice, _spec_example_derivation(maltsev, semilattice)),
        (maltsev, semilattice, Derivation(joined.name, (parse_term("p(x,y,y)"),), ())),
        (maltsev, semilattice, Derivation(joined.name, (parse_term("m(x,x)"), x),
                                          (make_step(ax_m, False, (), {v0: x}),))),
        (maltsev, semilattice, Derivation(joined.name, (parse_term("m(x,x)"), x),
                                          (make_step(ax_m, True, (), {v0: x}),))),
        (maltsev, semilattice, Derivation(
            joined.name, (parse_term("p(m(x,x),y,y)"), parse_term("m(x,x)")),
            (make_step(maltsev.identities[0], False, (),
                       {v0: parse_term("m(x,x)"), Variable("v1"): Variable("y")}),))),
        _nested_root_step_example(semilattice),
        _inner_rename_example(semilattice),
    ]


def _as_tuples(found):
    """A chain search's answer with occurrences and edges as plain tuples."""
    if found is None:
        return None
    chain, edges = found
    return ([(o.index, o.position) for o in chain],
            [(e.source.index, e.source.position, e.target.index, e.target.position,
              e.case, e.step, e.direction) for e in edges])


def test_projection_matches_the_reference(maltsev, semilattice):
    """The same projections, errors, messages and certificates as the
    projection code before its rewrite, kept in `projection_reference`, and
    the same chains.  The corpus reaches every path of the class pass."""
    from test_acceptance import _projection_corpus

    cases = _walk_corpus() + _edge_cases(maltsev, semilattice)
    cases += [(a, b, d) for a, b, d, _ in _projection_corpus()]
    seen = {"inner root step": 0, "case 1": 0, "case 3": 0, "conflict": 0, "fresh name": 0}
    for left, right, d in cases:
        expected = _outcome(reference.project_to_component, left, right, d)
        assert _outcome(project_to_component, left, right, d) == expected, \
            [str(t) for t in d.terms]
        a_emb, b_emb, joined = embedded_components(left, right)
        if not (verify_derivation(joined, d) and isinstance(d.terms[0], Application)):
            continue
        owner = a_emb if d.terms[0].symbol in a_emb.symbols else b_emb
        sig = frozenset(owner.symbols)
        found = reference._chain_search(d, sig, d.terms[-1])
        assert _as_tuples(_chain_search(d, sig, d.terms[-1])) == _as_tuples(found)
        kinds = [e.case for e in found[1]] if found else []
        seen["inner root step"] += 4 in kinds[:-1]
        seen["case 1"] += 1 in kinds
        seen["case 3"] += 3 in kinds
        seen["conflict"] += expected[1] == "InconsistencyDetectedError"
        if expected[0] == "projected":
            names = {v for t in d.terms for v in term_variables(t)}
            seen["fresh name"] += any(v not in names for t in expected[3]["terms"]
                                      for v in term_variables(parse_term(t)))
    assert seen["inner root step"] >= 100 and seen["conflict"] >= 20, seen
    assert min(seen.values()) >= 5, seen


def test_successors_match_the_reference():
    """Every occurrence of the corpus has the same out-edges, in the same
    order, as the reference computes."""
    for _, _, d in _walk_corpus()[::4]:
        for o in all_occurrences(d):
            new = _as_tuples(([], successors(d, o)))[1]
            old = _as_tuples(([], reference.successors(
                d, reference.DerivationOccurrence(o.index, o.position))))[1]
            assert new == old, (o, [str(t) for t in d.terms])
