import pytest

from linvar import rewriting
from linvar.derivatives import derivative
from linvar.dsl import parse_identity, parse_term
from linvar.presets import maltsev, semilattice
from linvar.rewriting import (
    CertificateError,
    Derivation,
    Proved,
    SearchBounds,
    Unknown,
    VerifyResult,
    bfs_prove,
    derivation_from_json,
    derivation_to_json,
    make_step,
    verify_derivation,
)
from linvar.terms import Variable


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
        result = verify_derivation(maltsev_prime, bad)
        assert not result
        assert result.step_index == 1

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

    def test_shape_mismatch(self, maltsev):
        d = Derivation(maltsev.name, (), ())
        assert not verify_derivation(maltsev, d)


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
