import copy
import dataclasses
import gc
import hashlib
import itertools
import json
import os
import pickle
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import saturation_reference as reference
from linvar import presets, saturation
from linvar.derivatives import (
    _canonical_tuples,
    _fact_identity,
    derivative,
    iterate,
    order_derivative,
    order_fact_set,
)
from linvar.dsl import parse_identity
from linvar.models import find_model
from linvar.presets import maltsev, semilattice
from linvar.rewriting import (
    VerifyResult,
    bfs_prove,
    derivation_to_json,
    verify_derivation,
)
from linvar.saturation import (
    BudgetTooSmallError,
    CertificateError,
    Entailed,
    FlatFactBase,
    NotEntailed,
    NotEntailedWithModel,
    default_budget,
    entails_flat,
    goal_budget,
    is_inconsistent,
    saturate,
)
from linvar.terms import (
    Application,
    FlatLayout,
    OperationSymbol,
    Variable,
    code_width,
    is_flat,
)
from linvar.theories import (
    Identity,
    UnknownSymbolError,
    idempotency_identity,
    identity_variables,
    make_theory,
    validate,
)
from test_random_theories import identities as flat_identities, small_theories


class TestSaturate:
    def test_maltsev_variable_class(self, maltsev):
        base = FlatFactBase(maltsev, 4)
        v0_class = {base.atom_term(i)
                    for i in range(base.size)
                    if base.same_class(i, base.atom_id(Variable("v0")))}
        from linvar.dsl import parse_term

        for member in ("p(v0,v1,v1)", "p(v1,v1,v0)", "p(v0,v0,v0)"):
            assert parse_term(member) in {t for t in v0_class}

    def test_empty_theory_all_singletons(self):
        t = make_theory("free", [OperationSymbol("f", 1)], [])
        base = FlatFactBase(t, 2)
        assert all(len(members) == 1 for members in base.classes().values())

    def test_inconsistent_stage_merges_variables(self, maltsev):
        base = FlatFactBase(derivative(maltsev), 2)
        assert base.variables_merged()

    def test_budget_floor(self):
        t = make_theory("free", [OperationSymbol("f", 1)], [])
        with pytest.raises(BudgetTooSmallError):
            FlatFactBase(t, 1)

    def test_rejects_nonlinear(self):
        f = OperationSymbol("f", 1)
        with pytest.raises(ValueError):
            FlatFactBase(make_theory("deep", [f], [parse_identity("f(f(x)) = x")]), 4)

    def test_atom_id_rejects_non_context_variables(self, maltsev):
        from linvar.dsl import parse_term

        base = saturate(maltsev)
        for term in ("w", "p(v0,w,v1)"):
            with pytest.raises(KeyError, match="not a context variable"):
                base.atom_id(parse_term(term))

    def test_fact_query_past_the_context_is_refused(self, maltsev):
        # p(v0,v1,v2) needs a third variable, which a 2-variable context
        # lacks; the digit 2 must not be read as carrying into the next one
        for base in (saturate(maltsev, 2), saturate(derivative(maltsev), 2)):
            with pytest.raises(BudgetTooSmallError, match=r"\(0, 1, 2\).* 2 variables"):
                base.fact_entailed("p", (0, 1, 2))
        assert saturate(maltsev, 3).fact_entailed("p", (0, 1, 1))

    def test_fact_query_past_the_atom_space_is_refused(self, maltsev):
        with pytest.raises(BudgetTooSmallError, match=r"\(2, 2, 2\).* 2 variables"):
            saturate(maltsev, 2).fact_entailed("p", (2, 2, 2))

    @pytest.mark.parametrize("theory, symbol, digits", [
        (maltsev(), "p", (0,)),
        (maltsev(), "p", (0, 0, 0, 0)),
        # a Horner index past the atom space
        (maltsev(), "p", (1,) * 6),
        # a Horner index inside the next symbol's block, p2(v0,v0,v0)
        (presets.jonsson(3), "p1", (1, 0, 0, 0)),
    ])
    def test_fact_query_of_the_wrong_length_is_refused(self, theory, symbol, digits):
        with pytest.raises(ValueError, match=rf"{symbol} has arity 3"):
            saturate(theory, 2).fact_entailed(symbol, digits)

    # (0, 0, -1) once read the atom v1, one id before p's block, and
    # (-9, 0, 0) an id before the atom space
    @pytest.mark.parametrize("digits", [(0, 0, -1), (-9, 0, 0)])
    def test_fact_query_with_a_negative_entry_is_refused(self, maltsev, digits):
        with pytest.raises(ValueError, match=rf"{re.escape(str(digits))} has a negative entry"):
            saturate(maltsev, 2).fact_entailed("p", digits)

    def test_fact_query_of_an_unknown_symbol_is_refused(self, maltsev):
        with pytest.raises(UnknownSymbolError, match="q is not in maltsev"):
            saturate(maltsev, 2).fact_entailed("q", (0, 0, 0))

    def test_order_fact_set_widens_a_narrow_base(self):
        # day(2) derives x = m1(x,y,y,z), a fact of three variables, so two
        # variables are filled and the query widens until no fact fills it
        day = presets.day(2)
        wide = saturate(day, default_budget(day))
        every = frozenset((s.name, w) for s in day.symbols
                          for w in wide.entailed_facts(s.name, _canonical_tuples(s.arity, s.arity + 1)))
        assert max(max(w) + 1 for _, w in every) == 3
        assert order_fact_set(day, saturate(day, 2)) == every
        assert order_fact_set(day) == every

    def test_default_budget(self, maltsev, semilattice):
        # max_arity + 1 variables: the widest query is a fact x = F(w)
        assert default_budget(maltsev) == 4
        assert default_budget(semilattice) == 3
        assert default_budget(make_theory("empty", [], [])) == 2

    def test_every_class_member_has_a_verifying_chain(self, maltsev):
        # classes are exactly the components of the instance graph
        base = saturate(derivative(maltsev))
        for members in base.classes().values():
            for member in members:
                chain = base.shortest_chain(members[0], member)
                assert chain is not None, base.atom_term(member)
                ids, edges = chain
                assert ids[0] == members[0] and ids[-1] == member
                saturation._chain_derivation(base, members[0], member, base.context)

    def test_extension_matches_fresh_build(self, maltsev):
        base = saturate(maltsev, 6)
        grown = base.extend(derivative(maltsev))
        fresh = FlatFactBase(derivative(maltsev), 6)
        assert {frozenset(v) for v in grown.classes().values()} == \
               {frozenset(v) for v in fresh.classes().values()}

    def test_extension_refuses_a_non_linear_identity(self, maltsev):
        # Maltsev proves x = p(p(y,y,y),y,x), so reading the nested child as
        # a context variable would wrongly merge the variables
        nested = make_theory("m2", maltsev.symbols, list(maltsev.identities)
                             + [parse_identity("x = p(p(y,y,y),y,x)")])
        with pytest.raises(ValueError, match="needs a linear theory") as fresh:
            FlatFactBase(nested, 4)
        with pytest.raises(ValueError, match="needs a linear theory") as grown:
            saturate(maltsev).extend(nested)
        assert str(grown.value) == str(fresh.value)
        assert not saturate(maltsev).variables_merged()


class TestEntailsFlat:
    def test_axiom_one_step(self, maltsev):
        verdict = entails_flat(saturate(maltsev, 4), parse_identity("x = p(x,y,y)"))
        assert isinstance(verdict, Entailed)
        assert len(verdict.derivation.steps) == 1

    def test_not_entailed_with_model(self, maltsev):
        verdict = entails_flat(saturate(maltsev, 4), parse_identity("x = p(y,x,x)"))
        assert isinstance(verdict, NotEntailedWithModel)
        assert verdict.algebra.size == 2
        from linvar.models import eval_term, satisfies

        assert satisfies(verdict.algebra, maltsev)
        rho = {Variable(name): k for name, k in verdict.assignment}
        goal = parse_identity("x = p(y,x,x)")
        assert eval_term(verdict.algebra, goal.lhs, rho) != \
            eval_term(verdict.algebra, goal.rhs, rho)

    def test_reflexive_zero_steps(self, maltsev):
        verdict = entails_flat(saturate(maltsev), parse_identity("p(x,y,z) = p(x,y,z)"))
        assert isinstance(verdict, Entailed)
        assert len(verdict.derivation.steps) == 0

    def test_entailed_derivations_verify_and_are_flat(self, maltsev, semilattice):
        for theory in (maltsev, derivative(maltsev), semilattice):
            base = saturate(theory)
            for goal_text in ("x = p(x,y,y)", "p(x,x,x) = x") if theory.name != "semilattice" \
                    else ("x = m(x,x)", "m(x,y) = m(y,x)"):
                goal = parse_identity(goal_text)
                if base.entails(goal):
                    d = entails_flat(base, goal).derivation
                    assert verify_derivation(theory, d, allow_reflexivity=True)
                    assert all(is_flat(t) for t in d.terms)

    def test_budget_monotone(self, maltsev):
        # every context from the default size up gives the same answers
        goals = ["x = p(x,y,y)", "x = p(y,x,x)", "p(x,x,x) = x", "x = y",
                 "p(x,x,y) = p(y,x,x)"]
        for goal_text in goals:
            goal = parse_identity(goal_text)
            answers = {saturate(maltsev, budget).entails(goal)
                       for budget in range(4, 11)}
            assert len(answers) == 1, goal_text

    def test_budget_too_small_for_goal(self, maltsev):
        base = FlatFactBase(maltsev, 2)
        with pytest.raises(BudgetTooSmallError):
            base.entails(parse_identity("p(x,y,z) = x"))

    def test_deep_goal_rejected(self, maltsev):
        base = saturate(maltsev)
        with pytest.raises(ValueError):
            base.entails(parse_identity("p(p(x,y,y),y,y) = x"))

    def test_refused_goals_keep_their_messages(self, maltsev):
        """A nested side (the left one first), too many variables, and a
        symbol outside the theory, by name or by arity."""
        base = FlatFactBase(maltsev, 2)
        x, y = Variable("x"), Variable("y")
        p2, q1 = OperationSymbol("p", 2), OperationSymbol("q", 1)
        cases = [
            (parse_identity("x = p(p(x,y,y),y,y)"), ValueError,
             "p(p(x,y,y),y,y) is not linear; only flat queries are decidable"),
            (parse_identity("p(x,p(x,y,y),y) = p(p(x,y,y),y,y)"), ValueError,
             "p(x,p(x,y,y),y) is not linear; only flat queries are decidable"),
            (parse_identity("x = p(y,z,x)"), BudgetTooSmallError,
             "goal uses 3 variables, context has 2"),
            (Identity(x, Application(p2, (x, y))), UnknownSymbolError,
             "p/2 is not in maltsev"),
            (Identity(Application(q1, (y,)), Application(p2, (x, y))), UnknownSymbolError,
             "q/1 is not in maltsev"),
        ]
        for goal, error, message in cases:
            with pytest.raises(error) as caught:
                base.entails(goal)
            assert str(caught.value) == message

    def test_collapsed_theory_entails_everything(self, maltsev):
        base = saturate(derivative(maltsev))
        goal = parse_identity("x = p(x,y,z)")
        assert base.entails(goal)
        verdict = entails_flat(base, goal)
        assert isinstance(verdict, Entailed)
        assert verify_derivation(derivative(maltsev), verdict.derivation)
        assert verdict.derivation.terms[0] == goal.lhs
        assert verdict.derivation.terms[-1] == goal.rhs


def _width_goals(theory):
    """x = y, and x = F(w) for every symbol F and canonical tuple w."""
    yield Identity(Variable("x"), Variable("y"))
    for s in theory.symbols:
        for w in _canonical_tuples(s.arity, s.arity + 1):
            yield _fact_identity(s, w)


def _assert_goal_width_decides_like_the_default_context(theory, goals):
    """`goal_budget` saturates over the goal's own variables; the verdict,
    its certificate and its countermodel equal those of the context it
    replaced, the default widened to the goal."""
    count = 0
    for goal in goals:
        width = len(identity_variables(goal))
        wide = saturate(theory, max(default_budget(theory), width))
        narrow = saturate(theory, goal_budget(goal))
        assert narrow.budget == max(2, width)
        assert entails_flat(narrow, goal) == entails_flat(wide, goal), (theory.name, str(goal))
        count += 1
    return count


def test_entail_at_the_goal_width_equals_the_default_context(corpus, families):
    """Every x = y and x = F(w) goal over the presets, the families and
    every stage of both their iterations."""
    count = 0
    for theory in corpus + families:
        stages = [theory] + [stage for operator in ("derivative", "order_derivative")
                             for stage in iterate(theory, operator).stages[1:]]
        for stage in stages:
            count += _assert_goal_width_decides_like_the_default_context(
                stage, _width_goals(stage))
    assert count == 3431


@settings(max_examples=40, deadline=None)
@given(small_theories(), st.lists(flat_identities, min_size=1, max_size=4))
def test_entail_at_the_goal_width_equals_the_default_context_on_random_theories(
        theory, goals):
    _assert_goal_width_decides_like_the_default_context(theory, goals)


class TestSubstitutionStability:
    def test_merged_pairs_stay_merged_under_endomaps(self, maltsev):
        # closure under arbitrary context endomaps comes for free from
        # enumerating every instance substitution; spot-check it
        base = saturate(derivative(maltsev), 4)
        context = list(range(4))
        classes = [members for members in base.classes().values() if len(members) > 1]
        endomaps = list(itertools.product(context, repeat=4))[::7]  # a sample

        def apply_map(aid, sigma):
            kind, digits = base.digits(aid)
            return base.encode(kind, [sigma[d] for d in digits])

        for members in classes:
            a = members[0]
            for b in members[1:3]:
                for sigma in endomaps[:5]:
                    assert base.same_class(apply_map(a, sigma), apply_map(b, sigma))


class TestIsInconsistent:
    def test_derivative_of_maltsev(self, maltsev):
        verdict = is_inconsistent(saturate(derivative(maltsev)))
        assert isinstance(verdict, Entailed)
        d = verdict.derivation
        assert verify_derivation(derivative(maltsev), d)
        assert isinstance(d.terms[0], Variable) and isinstance(d.terms[-1], Variable)
        assert d.terms[0] != d.terms[-1]

    def test_order_derivative_of_maltsev(self, maltsev):
        verdict = is_inconsistent(saturate(order_derivative(maltsev)))
        assert isinstance(verdict, Entailed)

    def test_semilattice_is_consistent(self, semilattice):
        # a consistent base answers without a model search
        assert is_inconsistent(saturate(semilattice)) == NotEntailed()

    def test_empty_signature(self):
        verdict = is_inconsistent(saturate(make_theory("empty", [], [])))
        assert isinstance(verdict, (NotEntailed, NotEntailedWithModel))

    def test_two_variable_identity_is_caught(self):
        t = make_theory("collapse", [OperationSymbol("f", 2)],
                        [parse_identity("x = y"), parse_identity("f(x,x) = x")])
        verdict = is_inconsistent(saturate(t))
        assert isinstance(verdict, Entailed)


class TestCertificateChecks:
    def test_failed_verification_raises(self, maltsev, monkeypatch):
        monkeypatch.setattr(saturation, "verify_derivation",
                            lambda *args, **kwargs: VerifyResult(False, 0, "forced"))
        with pytest.raises(CertificateError, match="forced"):
            entails_flat(saturate(maltsev), parse_identity("x = p(x,y,y)"))
        with pytest.raises(CertificateError, match="forced"):
            is_inconsistent(saturate(derivative(maltsev)))
        # a collapsed theory certifies any goal through the x = y chain
        with pytest.raises(CertificateError, match="forced"):
            entails_flat(saturate(derivative(maltsev)), parse_identity("x = p(y,z,z)"))

    def test_certificate_check_does_not_rely_on_assert(self):
        # python -O strips asserts; the verification of an inconsistency
        # certificate must still stop a derivation that fails to replay
        script = "\n".join([
            "import sys",
            "from linvar import saturation",
            "from linvar.derivatives import derivative",
            "from linvar.presets import maltsev",
            "from linvar.rewriting import VerifyResult",
            "saturation.verify_derivation = "
            "lambda *args, **kwargs: VerifyResult(False, 0, 'forced')",
            "try:",
            "    saturation.is_inconsistent(saturation.saturate(derivative(maltsev())))",
            "except saturation.CertificateError:",
            "    print('raised', sys.flags.optimize)",
        ])
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run([sys.executable, "-O", "-c", script],
                                env=dict(os.environ, PYTHONPATH=str(src)),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["raised", "1"]


# sha256 over the JSON of every certificate below, one line each; a change to
# the chain search that alters any chain, its order or its substitutions
# changes it.  The certificates do not depend on the string hash seed.
STAGE_CERTIFICATES = (443, "1fedffabccc622577f21f7b63f9d745c9f9e825cf3ea9bee8efe852e5e4d3b84")


def test_stage_certificates_are_pinned():
    """Every entailed x = y and x = F(w) over the presets' derivative and
    order-derivative stages keeps its certificate byte for byte."""
    digest = hashlib.sha256()
    count = 0
    for theory in presets.presets():
        for operator in ("derivative", "order_derivative"):
            for stage in iterate(theory, operator).stages:
                base = saturate(stage)
                goals = [Identity(Variable("x"), Variable("y"))]
                goals += [_fact_identity(s, w) for s in stage.symbols
                          for w in _canonical_tuples(s.arity, s.arity + 1)]
                for goal in goals:
                    if base.entails(goal):
                        verdict = entails_flat(base, goal)
                        count += 1
                        line = json.dumps(derivation_to_json(verdict.derivation),
                                          sort_keys=True)
                        digest.update(line.encode() + b"\n")
    assert (count, digest.hexdigest()) == STAGE_CERTIFICATES


# sha256 over the verdict of every goal below, one line each: the separating
# model's JSON and assignment, or the note when none is in range.  A change
# to the model search that alters a first model or its assignment changes it.
STAGE_REFUTATIONS = (476, "1796f346aa42e57528ae377d11d40fdc65dd9bf49678c61a7cb0d54a96b75cbe")


def test_stage_refutations_are_pinned():
    """Every x = y and x = F(w) over the presets' derivative and
    order-derivative stages that the base does not entail keeps its model
    byte for byte.  Each goal is decided twice on one theory object, so
    the second answer is read with the theory's compiled search tables."""
    digest = hashlib.sha256()
    count = 0
    for theory in presets.presets():
        for operator in ("derivative", "order_derivative"):
            for stage in iterate(theory, operator).stages:
                base = saturate(stage)
                goals = [Identity(Variable("x"), Variable("y"))]
                goals += [_fact_identity(s, w) for s in stage.symbols
                          for w in _canonical_tuples(s.arity, s.arity + 1)]
                for goal in goals:
                    if base.entails(goal):
                        continue
                    lines = []
                    for _ in range(2):
                        verdict = entails_flat(base, goal)
                        if isinstance(verdict, NotEntailedWithModel):
                            lines.append(json.dumps([verdict.algebra.to_json(),
                                                     verdict.assignment]))
                        else:
                            lines.append(json.dumps(verdict.note))
                    assert lines[0] == lines[1], goal
                    count += 1
                    digest.update(lines[0].encode() + b"\n")
    assert (count, digest.hexdigest()) == STAGE_REFUTATIONS


def _fresh(theory):
    """An equal-but-renamed copy, so no base built earlier in the session
    is keyed by it."""
    return replace(theory, name=f"{theory.name}@fresh")


def _module_sizes():
    return {(name, attr): len(value)
            for name, module in list(sys.modules.items())
            if name == "linvar" or name.startswith("linvar.")
            for attr, value in vars(module).items()
            if not attr.startswith("__") and type(value) in (dict, list, set)}


def test_no_module_level_state_grows():
    """Saturated bases belong to their theory, not to a module."""
    from linvar.classification import check_join_decomposition, classify

    before = _module_sizes()
    theories = [_fresh(t) for t in presets.presets()]
    for theory in theories:
        classify(theory)
        entails_flat(saturate(theory), parse_identity("x = y"))
    check_join_decomposition(theories[0], theories[2])
    assert _module_sizes() == before


def test_a_base_dies_with_its_theory():
    theory = _fresh(maltsev())
    base = weakref.ref(saturate(theory))
    assert base() is saturate(theory)
    del theory
    gc.collect()
    assert base() is None


def test_classify_builds_each_base_once(monkeypatch):
    """Validation's two-variable base is the one both iterations start
    from; later stages are extensions, and a new base is built only where
    the order iteration widens a stage, one variable at a time, up to the
    width its trace reports."""
    from linvar.classification import classify

    built = []
    init = FlatFactBase.__init__

    def spy(self, theory, budget):
        built.append((theory, budget))
        init(self, theory, budget)

    monkeypatch.setattr(FlatFactBase, "__init__", spy)
    for theory in map(_fresh, presets.presets()):
        built.clear()
        report = classify(theory)
        assert built[0] == (theory, 2)
        assert len({(id(t), b) for t, b in built}) == len(built)
        assert [b for _, b in built] == list(range(2, len(built) + 2))
        assert report.traces[1].budget == len(built) + 1 <= default_budget(theory)


def _assert_validates_over_two_variables(theory):
    """`validate` builds only two-variable bases, at most one, and each
    idempotency status is the one the default context decides."""
    built = []
    init = FlatFactBase.__init__

    def spy(self, t, budget):
        built.append(budget)
        init(self, t, budget)

    with mock.patch.object(FlatFactBase, "__init__", spy):
        report = validate(theory)
    canon = theory.identity_set()
    wide = saturate(theory, default_budget(theory))
    asked = False
    for symbol, (name, status) in zip(theory.symbols, report.idempotency):
        goal = idempotency_identity(symbol)
        assert name == symbol.name
        if goal in canon:
            assert status == "explicit"
        else:
            asked = True
            assert status == ("derivable" if wide.entails(goal) else "not-established")
    assert built == ([2] if asked else [])
    return asked


def test_validation_decides_idempotency_over_two_variables(corpus, families):
    asked = [_assert_validates_over_two_variables(_fresh(t)) for t in corpus + families]
    assert any(asked)


def _without_idempotency(theory):
    """The theory less its literal idempotency identities."""
    goals = {idempotency_identity(s) for s in theory.symbols}
    return make_theory(theory.name, theory.symbols,
                       [e for e in theory.identities if e not in goals])


@settings(max_examples=60, deadline=None)
@given(small_theories(), st.booleans())
def test_validation_decides_idempotency_over_two_variables_on_random_theories(theory, strip):
    _assert_validates_over_two_variables(_without_idempotency(theory) if strip else theory)


def test_copies_of_a_saturated_theory_carry_no_bases():
    """Nor any other compiled work: copies and pickles hold the fields only."""
    theory = maltsev()
    saturate(theory)
    find_model(theory, 2, 3)
    bfs_prove(theory, parse_identity("p(x,y,y) = x"))  # verifies its proof
    assert {key[0] for key in theory._memo} == {"saturation", "models", "rewriting",
                                                "identity_set"}
    fields = {f.name for f in dataclasses.fields(theory)}
    for twin in (copy.copy(theory), copy.deepcopy(theory),
                 pickle.loads(pickle.dumps(theory))):
        assert twin == theory and hash(twin) == hash(theory)
        assert set(vars(twin)) == fields


def test_an_extension_starts_with_no_chain_trees(maltsev):
    """`extend` copies the base, but the trees follow the parent's edges:
    the inconsistent derivative joins atoms by chains its parent lacks."""
    base = FlatFactBase(maltsev, 4)
    members = [i for i in range(base.size) if base.same_class(0, i)]
    for member in members:
        base.shortest_chain(0, member)
    assert base._trees
    grown = base.extend(derivative(maltsev))
    assert grown._trees == {} and base._trees
    fresh = FlatFactBase(derivative(maltsev), 4)
    for member in range(grown.size):
        assert grown.shortest_chain(0, member) == fresh.shortest_chain(0, member)


def _check_against_reference(theory):
    """At every stage of both iterations, the kernel's partition equals the
    reference loop's, whether the stage's base was extended from its
    parent's or built afresh, and the batched fact query reads that
    partition the way per-atom class tests do."""
    for operator in ("derivative", "order_derivative"):
        trace = iterate(theory, operator)
        budget = trace.budget
        base = None
        for stage in trace.stages:
            base = FlatFactBase(stage, budget) if base is None else base.extend(stage)
            oracle = reference.ReferenceBase(stage, budget)
            expected = reference.partition(oracle.find, oracle.size)
            assert reference.partition(base.find, base.size) == expected, stage.name
            fresh = FlatFactBase(stage, budget)
            assert reference.partition(fresh.find, fresh.size) == expected, stage.name
            merged = oracle.find(0) == oracle.find(1)
            for s in stage.symbols:
                tuples = _canonical_tuples(s.arity, budget)
                assert base.entailed_facts(s.name, tuples) == [
                    w for w in tuples
                    if merged or oracle.find(0) == oracle.find(oracle.encode(s.name, w))]


def test_kernel_matches_the_reference_on_presets_and_families(families):
    for theory in presets.presets() + families:
        _check_against_reference(theory)


@settings(max_examples=30, deadline=None)
@given(small_theories())
def test_kernel_matches_the_reference_on_random_theories(theory):
    _check_against_reference(theory)


_ORDER_SYMBOLS = [OperationSymbol("c", 0), OperationSymbol("d", 0),
                  OperationSymbol("g", 1), OperationSymbol("f", 3)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("code", [
    ("c", (), "d", ()),                 # width 0: one instance
    (None, (0,), "g", (0,)),            # width 1, a bare-variable side
    (None, (0,), "f", (0, 0, 0)),       # one variable repeated
    ("f", (0, 1, 1), None, (0,)),
    ("f", (0, 1, 2), "f", (2, 1, 0)),
    ("g", (0,), "f", (1, 2, 1)),        # variable 0 absent from one side
], ids=["width-0", "bare-variable", "idempotency", "repeat", "permutation",
        "lead-absent"])
def test_code_instances_run_in_product_order(code, n):
    """Flattened, the pairs are both sides encoded under every assignment in
    `itertools.product` order (the order `models._assignment` decodes), in
    one pair of lists per value of variable 0, none longer than
    n**(width - 1)."""
    layout = FlatLayout(_ORDER_SYMBOLS, n)
    width = code_width(code)
    expected = [(layout.encode(code[0], [values[v] for v in code[1]]),
                 layout.encode(code[2], [values[v] for v in code[3]]))
                for values in itertools.product(range(n), repeat=width)]
    chunks = list(layout.code_instances(code))
    assert [pair for lhs, rhs in chunks for pair in zip(lhs, rhs)] == expected
    assert len(chunks) == (n if width else 1)
    bound = n ** max(width - 1, 0)
    assert all(len(lhs) == len(rhs) == bound for lhs, rhs in chunks)
    lhs, rhs, *_ = layout.code_spread(code)
    assert len(lhs) == len(rhs) == bound
