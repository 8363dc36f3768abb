"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or read captured output).

Expected values marked as derived below were computed with the independent
oracles in this file (exhaustive model checks, bounded proof search) before
being frozen into assertions; the engines under test never feed their own
expectations.
"""
import itertools

from linvar import presets
from linvar.classification import check_join_decomposition, classify
from linvar.derivatives import derivative, iterate, weak_independence_profile
from linvar.dsl import parse_identity, parse_term
from linvar.models import refute_entailment, satisfies
from linvar.presets import hagemann_mitschke, maltsev, majority, semilattice
from linvar.projection import project_to_component
from linvar.rewriting import (
    Derivation,
    Proved,
    SearchBounds,
    bfs_prove,
    make_step,
    verify_derivation,
)
from linvar.saturation import Entailed, saturate
from linvar.terms import Application, Variable, is_flat, rename_jointly, term_variables
from linvar.theories import (
    Identity,
    embedded_components,
    join_disjoint,
    make_theory,
    theory_equal,
)


def report(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def same_up_to_renaming(terms_a, terms_b):
    if len(terms_a) != len(terms_b):
        return False
    canon_a, _ = rename_jointly(terms_a)
    canon_b, _ = rename_jointly(terms_b)
    return canon_a == canon_b


def test_01_maltsev_derivative_exact_set():
    got = derivative(maltsev())
    expected = make_theory("expected", maltsev().symbols, [
        parse_identity("p(x,y,y) = x"),
        parse_identity("p(y,y,x) = x"),
        parse_identity("p(u,y,z) = p(v,y,z)"),
        parse_identity("p(x,u,z) = p(x,v,z)"),
        parse_identity("p(x,y,u) = p(x,y,v)"),
    ])
    assert theory_equal(got, expected)
    report(1, "derivative of the Maltsev presentation is exactly the "
              "five-identity set")


def test_02_maltsev_derivative_inconsistency_certificate():
    trace = iterate(maltsev(), "derivative")
    assert trace.stop_reason == "inconsistent"
    cert = trace.certificate.derivation
    assert len(cert.steps) <= 3
    assert verify_derivation(trace.final, cert)
    expected = [parse_term(t) for t in ("x", "p(x,y,y)", "p(y,y,y)", "y")]
    assert same_up_to_renaming(cert.terms, expected)
    report(2, "derivative collapse certified by x = p(x,y,y) = p(y,y,y) = y "
              f"({len(cert.steps)} steps)")


def test_03_maltsev_order_derivative_inconsistency_certificate():
    trace = iterate(maltsev(), "order_derivative")
    assert trace.stop_reason == "inconsistent"
    cert = trace.certificate.derivation
    assert len(cert.steps) <= 2
    assert verify_derivation(trace.final, cert)
    expected = [parse_term(t) for t in ("x", "p(x,y,y)", "y")]
    assert same_up_to_renaming(cert.terms, expected)
    report(3, "order-derivative collapse certified by x = p(x,y,y) = y "
              f"({len(cert.steps)} steps)")


def test_04_maltsev_weak_independence_profile():
    profile = weak_independence_profile(maltsev())
    assert profile.pairs == {("p", 1), ("p", 2), ("p", 3)}
    report(4, "Maltsev operation weakly independent of places {1, 2, 3} exactly")


def test_05_classification_goldens():
    answers = {}
    for theory in (maltsev(), semilattice(), majority(),
                   hagemann_mitschke(2), hagemann_mitschke(3)):
        rep = classify(theory)
        answers[theory.name] = (rep.cm.answer, rep.nci.answer, rep.nperm.answer)
        for verdict, trace in ((rep.nci, rep.traces[0]), (rep.nperm, rep.traces[1])):
            if verdict.answer:
                assert verify_derivation(trace.final, verdict.derivation)
            elif verdict.model is not None:
                assert verdict.model.size >= 2
                assert satisfies(verdict.model, trace.final)

    assert answers["maltsev"] == (True, True, True)
    assert answers["semilattice"] == (False, False, False)
    assert answers["majority"][0] is True
    assert answers["hagemann_mitschke2"][2] is True
    assert answers["hagemann_mitschke3"][2] is True

    # independent search oracle corroborates the yes answers used above
    assert isinstance(bfs_prove(derivative(majority()), parse_identity("x = y")),
                      Proved)
    for k in (2, 3):
        final = iterate(hagemann_mitschke(k), "order_derivative").final
        assert isinstance(bfs_prove(final, parse_identity("x = y")), Proved)
    report(5, "classification goldens hold for maltsev/semilattice/majority/"
              "hagemann-mitschke, certificates checked")


def test_06_join_decomposition_all_pairs():
    corpus = presets.presets()
    assert len(corpus) >= 6
    checked = 0
    for a, b in itertools.product(corpus, repeat=2):
        rep = check_join_decomposition(a, b)
        assert rep.decomposition_holds, (a.name, b.name, rep.to_json())
        checked += 1
    report(6, f"derivative and order derivative distribute over all "
              f"{checked} ordered preset joins at every iteration stage")


def test_07_prime_filter_property():
    corpus = presets.presets()
    checked = 0
    for a, b in itertools.product(corpus, repeat=2):
        rep = check_join_decomposition(a, b)
        assert rep.prime_filter_holds, (a.name, b.name, rep.to_json())
        checked += 3
    report(7, f"each property holds in a join exactly when it holds in a "
              f"component ({checked} comparisons)")


# -- projection corpus --------------------------------------------------------


def _collapsing_axiom(theory):
    """First axiom of shape z = F(...) whose arguments include a second
    variable; returns (identity, z, that variable)."""
    for e in theory.identities:
        if isinstance(e.lhs, Variable) and isinstance(e.rhs, Application):
            others = [a for a in e.rhs.children if a != e.lhs]
            if others and all(isinstance(a, Variable) for a in e.rhs.children):
                return e, e.lhs, others[0]
    return None


def _variable_axiom(theory):
    for e in theory.identities:
        if isinstance(e.lhs, Variable) and isinstance(e.rhs, Application):
            return e
    return None


def _inflate_and_collapse(owner, other, joined):
    """Join derivation F(w) = z: pad one repeated argument with the other
    component's diagonal, then collapse by the owner axiom."""
    found = _collapsing_axiom(owner)
    if found is None:
        return None
    axiom, z, pad_var = found
    diag_axiom = _variable_axiom(other)
    if diag_axiom is None:
        return None
    g = diag_axiom.rhs.symbol
    pad_term = Application(g, (pad_var,) * g.arity)
    diag_sigma = {v: pad_var for v in
                  term_variables(diag_axiom.lhs) + term_variables(diag_axiom.rhs)}

    start = axiom.rhs
    terms = [start]
    steps = []
    cur = start
    for i, arg in enumerate(start.children, start=1):
        if arg == pad_var:
            cur = Application(cur.symbol,
                              cur.children[:i - 1] + (pad_term,) + cur.children[i:])
            steps.append(make_step(diag_axiom, True, (i,), diag_sigma))
            terms.append(cur)
    collapse_sigma = {v: (pad_term if v == pad_var else v)
                      for v in term_variables(axiom.rhs)}
    steps.append(make_step(axiom, False, (), collapse_sigma))
    terms.append(z)
    d = Derivation(joined.name, tuple(terms), tuple(steps))
    assert verify_derivation(joined, d), (owner.name, other.name)
    return d


def _projection_corpus():
    corpus = presets.presets()
    cases = []
    for a, b in itertools.product(corpus, repeat=2):
        a_emb, b_emb, joined = embedded_components(a, b)
        d = _inflate_and_collapse(a_emb, b_emb, joined)
        if d is not None:
            cases.append((a, b, d, 1))
    # search-generated derivations over a couple of joins
    bounds = SearchBounds(max_terms=3000, max_depth=4, max_term_size=16)
    for a, b, goal_text in [
        (maltsev(), semilattice(), "p(x,y,y) = x"),
        (maltsev(), semilattice(), "p(x,x,x) = x"),
        (semilattice(), maltsev(), "m(x,x) = x"),
        (majority(), semilattice(), "m(y,x,x) = x"),
        (hagemann_mitschke(2), majority(), "q2(x,x,y) = y"),
    ]:
        joined = join_disjoint(a, b)
        outcome = bfs_prove(joined, parse_identity(goal_text), bounds)
        assert isinstance(outcome, Proved), goal_text
        cases.append((a, b, outcome.derivation, 1))
    return cases


def test_08_projection_suite():
    cases = _projection_corpus()
    assert len(cases) >= 20
    for a, b, d, expected_owner in cases:
        result = project_to_component(a, b, d)
        out = result.derivation
        assert result.owner_index == expected_owner
        assert verify_derivation(result.owner_theory, out, allow_reflexivity=True), \
            (a.name, b.name)
        assert all(is_flat(t) for t in out.terms)
        assert out.terms[0] == d.terms[0]
        assert out.terms[-1] == d.terms[-1]
    report(8, f"all {len(cases)} join derivations project to flat component "
              "derivations that verify")


# -- cross-oracle coherence ---------------------------------------------------


def _stage_theories():
    """Every iteration stage the classification suite exercises."""
    seen = {}
    for theory in presets.presets():
        for operator in ("derivative", "order_derivative"):
            for stage in iterate(theory, operator).stages:
                seen.setdefault((stage.name, stage.identities), stage)
    return list(seen.values())


def _goal_corpus(theory):
    from linvar.derivatives import _canonical_tuples, _fact_identity

    goals = [Identity(Variable("x"), Variable("y"))]
    for s in theory.symbols:
        for w in _canonical_tuples(s.arity, s.arity + 1):
            goals.append(_fact_identity(s, w))
    return goals


def test_09_cross_oracle_coherence():
    entailed_checked = 0
    open_checked = 0
    for theory in _stage_theories():
        base = saturate(theory)
        small = theory.max_arity() <= 3
        bounds = SearchBounds(max_terms=400 if small else 150,
                              max_depth=3 if small else 2,
                              max_term_size=14)
        for goal in _goal_corpus(theory):
            if base.entails(goal):
                # a finite countermodel would contradict the saturation proof
                assert refute_entailment(theory, goal, 2, 2) is None, \
                    (theory.name, str(goal))
                entailed_checked += 1
            else:
                # a bounded proof would expose an incomplete saturation
                outcome = bfs_prove(theory, goal, bounds)
                assert not isinstance(outcome, Proved), (theory.name, str(goal))
                open_checked += 1
    report(9, f"flat saturation agrees with the model and search oracles on "
              f"{entailed_checked} entailed and {open_checked} open goals")


# -- verifier robustness ------------------------------------------------------


def _valid_derivation_corpus():
    out = []
    for theory in (derivative(maltsev()), iterate(maltsev(), "order_derivative").final,
                   iterate(hagemann_mitschke(2), "order_derivative").final):
        verdict = iterate_theory_inconsistency(theory)
        out.append((theory, verdict.derivation, False))
    for theory, goal_text in [
        (maltsev(), "p(x,y,y) = x"),
        (maltsev(), "p(x,x,x) = x"),
        (semilattice(), "m(m(x,y),x) = m(x,m(y,x))"),
        (majority(), "m(x,x,x) = x"),
    ]:
        outcome = bfs_prove(theory, parse_identity(goal_text))
        assert isinstance(outcome, Proved)
        out.append((theory, outcome.derivation, False))
    for a, b, d, _ in _projection_corpus()[:12]:
        a_emb, b_emb, joined = embedded_components(a, b)
        out.append((joined, d, False))
        result = project_to_component(a, b, d)
        out.append((result.owner_theory, result.derivation, True))
    return out


def iterate_theory_inconsistency(theory):
    from linvar.saturation import is_inconsistent, saturate

    verdict = is_inconsistent(saturate(theory))
    assert isinstance(verdict, Entailed)
    return verdict


def _mutations(theory, d):
    """Single-field corruptions that must each break verification.

    Mutations that would be no-ops (flipping a symmetric instance, moving a
    step that rewrites a term to itself) are filtered out structurally, not
    by consulting the verifier.
    """
    variables = [Variable(n) for n in ("x", "y", "mut")]
    for i, step in enumerate(d.steps):
        src, dst = (step.equation.lhs, step.equation.rhs)
        if not step.forward:
            src, dst = dst, src
        sigma = step.mapping
        from linvar.terms import apply_substitution, positions, subterm_at
        from linvar.theories import canonicalize_identity

        src_instance = apply_substitution(src, sigma)
        dst_instance = apply_substitution(dst, sigma)

        # equation swapped for a structurally incompatible one
        for other in theory.identities:
            if canonicalize_identity(other) == canonicalize_identity(step.equation):
                continue
            for fwd in (True, False):
                o_src = other.lhs if fwd else other.rhs
                o_dst = other.rhs if fwd else other.lhs
                broken = (apply_substitution(o_src, sigma) != src_instance
                          or apply_substitution(o_dst, sigma) != dst_instance)
                if broken:
                    yield _with_step(d, i, make_step(other, fwd, step.position, sigma))

        # orientation flipped on a step that actually changes the term
        if src_instance != dst_instance:
            yield _with_step(d, i,
                             make_step(step.equation, not step.forward,
                                       step.position, sigma))

        # position moved somewhere else valid
        if src_instance != dst_instance:
            for pos in positions(d.terms[i]):
                if pos != step.position:
                    yield _with_step(d, i, make_step(step.equation, step.forward,
                                                     pos, sigma))

        # one substitution image changed
        for v, old in step.subst:
            pool = [t for t in variables + [src_instance, dst_instance]
                    if t != old]
            for new in pool[:2]:
                sigma2 = dict(sigma)
                sigma2[v] = new
                yield _with_step(d, i, make_step(step.equation, step.forward,
                                                 step.position, sigma2))

    # a term replaced with a corrupted variant
    if d.steps:
        from linvar.terms import positions, replace_at, subterm_at

        for i, t in enumerate(d.terms):
            for pos in positions(t):
                if subterm_at(t, pos) != Variable("mut"):
                    corrupted = replace_at(t, pos, Variable("mut"))
                    if corrupted != t:
                        terms = list(d.terms)
                        terms[i] = corrupted
                        yield Derivation(d.theory_name, tuple(terms), d.steps)


def _with_step(d, index, step):
    steps = list(d.steps)
    steps[index] = step
    return Derivation(d.theory_name, d.terms, tuple(steps))


def test_10_verifier_robustness():
    corpus = _valid_derivation_corpus()
    total = 0
    for theory, d, allow_refl in corpus:
        assert verify_derivation(theory, d, allow_reflexivity=allow_refl), \
            "corpus derivation must verify"
        for mutant in _mutations(theory, d):
            assert not verify_derivation(theory, mutant, allow_reflexivity=allow_refl), \
                (theory.name, [str(t) for t in mutant.terms])
            total += 1
    assert total >= 1000, total
    report(10, f"verifier accepted all {len(corpus)} corpus derivations and "
               f"rejected all {total} single-field mutations")
