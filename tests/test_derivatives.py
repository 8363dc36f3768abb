import contextlib
import copy
import dataclasses
import hashlib
import io
import itertools
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from linvar import cli, derivatives, saturation
from linvar.derivatives import (
    StabilizationError,
    _canonical_tuples,
    _fact_identity,
    _independence_code,
    _is_canonical,
    _mixture_code,
    _next_stage,
    derivative,
    iterate,
    order_derivative,
    order_fact_set,
    weak_independence_profile,
)
from linvar.dsl import parse_identity, parse_theory
from linvar.models import refute_entailment
from linvar.rewriting import verify_derivation
from linvar.presets import hagemann_mitschke, maltsev, semilattice
from linvar.saturation import MIN_BUDGET, Entailed, default_budget, saturate
from linvar.terms import Application, OperationSymbol, Variable
from linvar.theories import (
    Identity,
    Theory,
    UnknownSymbolError,
    canonicalize_identity,
    code_identity,
    identity_code,
    join_disjoint,
    make_theory,
    theory_equal,
    validate,
)
from test_random_theories import small_theories


class TestWeakIndependenceProfile:
    def test_maltsev_all_places(self, maltsev):
        profile = weak_independence_profile(maltsev)
        assert profile.pairs == {("p", 1), ("p", 2), ("p", 3)}

    def test_semilattice_empty(self, semilattice):
        profile = weak_independence_profile(semilattice)
        assert profile.pairs == frozenset()
        # cross-check: each candidate fact is refuted by a finite model
        for goal_text in ("x = m(x,y)", "x = m(y,x)", "x = m(y,y)"):
            assert refute_entailment(semilattice, parse_identity(goal_text)) \
                is not None, goal_text

    def test_lone_idempotency_axiom(self):
        t = make_theory("diag", [OperationSymbol("f", 2)],
                        [parse_identity("f(x,x) = x")])
        assert weak_independence_profile(t).pairs == frozenset()

    def test_witnesses_are_entailed_facts(self, corpus):
        for theory in corpus:
            profile = weak_independence_profile(theory)
            base = saturate(theory)
            for _, _, witness in profile.witnesses:
                assert base.entails(witness)


class TestDerivative:
    def test_maltsev_exact_set(self, maltsev):
        got = derivative(maltsev)
        expected = make_theory("expected", maltsev.symbols, [
            parse_identity("p(x,y,y) = x"),
            parse_identity("p(y,y,x) = x"),
            parse_identity("p(u,y,z) = p(v,y,z)"),
            parse_identity("p(x,u,z) = p(x,v,z)"),
            parse_identity("p(x,y,u) = p(x,y,v)"),
        ])
        assert theory_equal(got, expected)

    def test_semilattice_unchanged(self, semilattice):
        assert theory_equal(derivative(semilattice), semilattice)

    def test_extends_input(self, corpus):
        for theory in corpus:
            extended = derivative(theory)
            assert theory.identity_set() <= extended.identity_set(), theory.name

    def test_profile_monotone(self, corpus):
        for theory in corpus:
            before = weak_independence_profile(theory).pairs
            after = weak_independence_profile(derivative(theory)).pairs
            assert before <= after, theory.name

    def test_output_stays_linear_idempotent(self, corpus):
        for theory in corpus:
            report = validate(derivative(theory))
            assert report.is_linear and report.is_idempotent, theory.name


class TestOrderDerivative:
    def test_maltsev_mixtures(self, maltsev):
        got = order_derivative(maltsev).identity_set()
        for text in ("x = p(x,x,y)", "x = p(x,y,x)", "x = p(y,x,x)"):
            assert canonicalize_identity(parse_identity(text)) in got, text

    def test_semilattice_unchanged(self, semilattice):
        assert theory_equal(order_derivative(semilattice), semilattice)

    def test_extends_input(self, corpus):
        for theory in corpus:
            assert theory.identity_set() <= order_derivative(theory).identity_set()

    def test_output_stays_linear_idempotent(self, corpus):
        for theory in corpus:
            report = validate(order_derivative(theory))
            assert report.is_linear and report.is_idempotent, theory.name


class TestIterate:
    def test_maltsev_derivative_stops_inconsistent(self, maltsev):
        trace = iterate(maltsev, "derivative")
        assert trace.stop_reason == "inconsistent"
        assert len(trace.stages) - 1 == 1
        assert isinstance(trace.certificate, Entailed)

    def test_maltsev_order_stops_inconsistent(self, maltsev):
        trace = iterate(maltsev, "order_derivative")
        assert trace.stop_reason == "inconsistent"
        assert len(trace.stages) - 1 == 1

    def test_semilattice_fixpoint_at_first_successor(self, semilattice):
        trace = iterate(semilattice, "derivative")
        assert trace.stop_reason == "fixpoint"
        assert len(trace.stages) == 2
        assert theory_equal(trace.stages[1], trace.stages[0])

    def test_stage_count_bounds(self, corpus):
        for theory in corpus:
            pairs = sum(s.arity for s in theory.symbols)
            trace = iterate(theory, "derivative")
            assert len(trace.stages) - 1 <= pairs + 1, theory.name

    def test_stage_accessor_extends_fixpoints(self, semilattice):
        trace = iterate(semilattice, "derivative")
        assert theory_equal(trace.stage(5), trace.stages[-1])

    def test_hagemann_mitschke_reaches_inconsistency(self):
        trace = iterate(hagemann_mitschke(3), "order_derivative")
        assert trace.stop_reason == "inconsistent"

    def test_certificate_built_once_on_read(self, maltsev, semilattice):
        trace = iterate(maltsev, "derivative")
        cert = trace.certificate
        assert trace.certificate is cert
        assert verify_derivation(trace.final, cert.derivation)
        assert iterate(semilattice, "derivative").certificate is None

    def test_shrinking_trigger_data_raise(self, semilattice, monkeypatch):
        # each stage's data must contain the previous stage's; after the
        # first stage this fact set drops every fact
        calls = []
        order_facts = derivatives._order_facts

        def shrinking(base):
            calls.append(base.theory)
            facts, base = order_facts(base)
            return (facts if len(calls) == 1 else frozenset()), base

        monkeypatch.setattr(derivatives, "_order_facts", shrinking)
        with pytest.raises(StabilizationError, match="shrank at stage 1"):
            iterate(semilattice, "order_derivative")
        assert len(calls) == 2


def test_a_base_lacking_a_symbol_of_the_theory_is_refused(maltsev, semilattice):
    """Both fact readers refuse a caller's base whose theory lacks one of
    the theory's symbols, whether by name or by arity."""
    p2 = make_theory("p2", [OperationSymbol("p", 2)], [parse_identity("p(x,x) = x")])
    for theory, base, message in ((maltsev, saturate(semilattice, 2), "p is not in semilattice"),
                                  (maltsev, saturate(p2, 2), "p is not in p2"),
                                  (semilattice, saturate(maltsev, 3), "m is not in maltsev")):
        for read in (weak_independence_profile, order_fact_set):
            with pytest.raises(UnknownSymbolError, match=message):
                read(theory, base)


def test_a_merged_base_gives_every_fact():
    """Once x = y is derivable every fact is: the order fact set is every
    canonical tuple, as wide as max_arity + 1, and the profile every
    (symbol, place) pair."""
    inc = parse_theory("theory inc\nop f/2\nop g/3\naxiom x = y\n")
    every = frozenset((s.name, w) for s in inc.symbols
                      for w in _canonical_tuples(s.arity, s.arity + 1))
    assert len(every) == 20
    assert order_fact_set(inc) == every
    profile = weak_independence_profile(inc)
    assert profile.pairs == {("f", 1), ("f", 2), ("g", 1), ("g", 2), ("g", 3)}
    assert [(s.name, i, w) for s, i, w in profile.witness_digits] == [
        ("f", 1, (1, 0)), ("f", 2, (0, 1)),
        ("g", 1, (1, 0, 0)), ("g", 2, (0, 1, 0)), ("g", 3, (0, 0, 1))]


def _iterate_over_all_triggers(theory, operator):
    """`iterate` over the fixed context of `default_budget` (max_arity + 1
    variables, wide enough for every fact), every fact read there, kept
    when `_canonical_tuples` lists it, and every stage built by
    `_next_stage` from all of its trigger data: (stages, stage data, stop
    reason, certificate)."""
    stages, data = [theory], []
    base = saturation.saturate(theory, default_budget(theory))
    canonical = {s: set(_canonical_tuples(s.arity, s.arity + 1)) for s in theory.symbols}
    while saturation.inconsistency_target(base) is None:
        cur = stages[-1]
        if operator == "derivative":
            data.append(weak_independence_profile(cur, base).pairs)
        else:
            data.append(frozenset((s.name, w) for s, w in base.v0_facts()
                                  if w in canonical[s]))
        if len(data) > 1 and data[-1] == data[-2]:
            return stages, data, "fixpoint", None
        stages.append(_next_stage(cur, operator, data[-1]))
        base = base.extend(stages[-1])
    return stages, data, "inconsistent", saturation.is_inconsistent(base)


def _assert_iterates_as_over_all_triggers(theory):
    for operator in ("derivative", "order_derivative"):
        trace = iterate(theory, operator)
        stages, data, stop, certificate = _iterate_over_all_triggers(theory, operator)
        assert [(s.name, s.codes) for s in trace.stages] == \
            [(s.name, s.codes) for s in stages], (theory.name, operator)
        assert (trace.stage_data, trace.stop_reason) == (tuple(data), stop)
        assert trace.certificate == certificate, (theory.name, operator)
        # the context ends one past the widest fact, within 2..max_arity + 1
        facts = data[-1] if operator == "order_derivative" and data else ()
        widest = max((max(w) + 1 for _, w in facts), default=1)
        assert trace.budget == max(MIN_BUDGET, min(widest + 1, default_budget(theory)))


def test_stages_from_new_triggers_equal_stages_from_all(corpus, families):
    """A stage built from only the trigger data its parent lacked, over the
    context its facts need, has the same codes, in the same order, as one
    built from all of them over the fixed context, with the same data,
    stop and certificate, on the presets, the families and every ordered
    preset join."""
    joins = [join_disjoint(a, b) for a, b in itertools.product(corpus, repeat=2)]
    for theory in corpus + families + joins:
        _assert_iterates_as_over_all_triggers(theory)


_WIDE_VARIABLES = [Variable(n) for n in "xyzuvw"]


@st.composite
def wide_theories(draw):
    """One to three idempotent symbols of arities 2-5 and up to three flat
    identities over six variables, so a fact can need any context up to
    max_arity + 1."""
    arities = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    symbols = [OperationSymbol(f"f{k}", a) for k, a in enumerate(arities)]
    variables = st.sampled_from(_WIDE_VARIABLES)
    terms = st.one_of(variables, *(
        st.builds(lambda *args, s=s: Application(s, args), *[variables] * s.arity)
        for s in symbols))
    x = _WIDE_VARIABLES[0]
    extra = draw(st.lists(st.builds(Identity, terms, terms), max_size=3))
    return make_theory("wide", symbols,
                       [Identity(Application(s, (x,) * s.arity), x) for s in symbols] + extra)


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_theories(), wide_theories()))
def test_stages_from_new_triggers_equal_stages_from_all_on_random_theories(theory):
    _assert_iterates_as_over_all_triggers(theory)


class TestJoinDistribution:
    def test_derivative_distributes_maltsev_semilattice(self, maltsev, semilattice):
        joined = join_disjoint(maltsev, semilattice)
        lhs = derivative(joined)
        rhs = join_disjoint(derivative(maltsev), derivative(semilattice))
        assert theory_equal(lhs, rhs)

    def test_order_derivative_distributes(self, maltsev, semilattice):
        joined = join_disjoint(maltsev, semilattice)
        lhs = order_derivative(joined)
        rhs = join_disjoint(order_derivative(maltsev), order_derivative(semilattice))
        assert theory_equal(lhs, rhs)

    def test_fact_sets_decompose(self, maltsev, semilattice):
        joined = join_disjoint(maltsev, semilattice)
        joint = order_fact_set(joined)
        separate = order_fact_set(maltsev) | order_fact_set(semilattice)
        assert joint == separate


def _canonical_tuples_by_brute_force(arity):
    """Every tuple over {0..arity}, renamed by first occurrence of its
    nonzero entries, kept at its first appearance."""
    seen = {}
    for w in itertools.product(range(arity + 1), repeat=arity):
        renaming = {0: 0}
        seen.setdefault(tuple(renaming.setdefault(d, len(renaming)) for d in w))
    return tuple(seen)


class TestStageBuilders:
    @pytest.mark.parametrize("arity", range(1, 8))
    def test_canonical_tuples_match_brute_force(self, arity):
        every = _canonical_tuples_by_brute_force(arity)
        assert _canonical_tuples(arity, arity + 1) == every
        for width in range(1, arity + 2):
            # the facts of at most `width` variables, in the same order
            assert _canonical_tuples(arity, width) == \
                tuple(w for w in every if max(w) < width)
        assert _canonical_tuples(arity, MIN_BUDGET) == \
            tuple(itertools.product((0, 1), repeat=arity))
        if arity <= 6:
            # the filter the order derivative reads v0's class through
            for width in range(1, arity + 2):
                assert _canonical_tuples(arity, width) == tuple(
                    w for w in itertools.product(range(width), repeat=arity)
                    if _is_canonical(w))

    @pytest.mark.parametrize("arity", range(1, 5))
    def test_new_identities_are_written_in_canonical_form(self, arity):
        """The operators' codes stand for canonical identities, and for the
        identities the operators are defined by."""
        symbol = OperationSymbol("f", arity)
        symbols = {"f": symbol}
        for place in range(1, arity + 1):
            e = code_identity(_independence_code("f", arity, place), symbols)
            assert canonicalize_identity(e) == e
            assert identity_code(e) == _independence_code("f", arity, place)
            # u and u' at the place, the other places shared
            assert [a == b for a, b in zip(e.lhs.children, e.rhs.children)] == \
                [j != place for j in range(1, arity + 1)]
        for w in itertools.product(range(arity + 1), repeat=arity):
            e = code_identity(_mixture_code("f", w), symbols)
            assert e == canonicalize_identity(_fact_identity(symbol, w)), w
            assert identity_code(e) == _mixture_code("f", w)

    def test_unknown_symbols_raise_without_asserts(self, maltsev):
        # raised errors, so that python -O keeps the check
        with pytest.raises(UnknownSymbolError):
            _next_stage(maltsev, "derivative", frozenset({("q", 1)}))
        with pytest.raises(UnknownSymbolError):
            _next_stage(maltsev, "order_derivative", frozenset({("q", (0, 1))}))


# sha256 over one JSON line per stage (theory, operator, stage name, size,
# identities in order) of both operators' traces of the presets and the
# families, and over `linvar derive [--order] --iterate` stdout on the
# preset files; taken while stages were still built from Identity terms.
PINNED_STAGES = (79, "9a93edcfd0e847e7a1e87ac9040794ee2e1c6ece9225aa492e801cdf95a2cb1c")
PINNED_DERIVE_OUTPUT = "086bf058304184b337cf495568c0bc4496890c650db806af44815c63bb0a4082"
THEORY_FILES = sorted((Path(__file__).resolve().parents[1] / "theories").glob("*.thy"))


def test_stage_contents_are_pinned(corpus, families):
    """Stages hold their codes and build their identities only when read,
    and then the same identities, in the same order, as before."""
    digest = hashlib.sha256()
    count = 0
    for theory in corpus + families:
        for operator in ("derivative", "order_derivative"):
            for stage in iterate(theory, operator).stages:
                # the count needs no identity; stage 0 is the input itself
                size = len(stage.codes)
                assert ("identities" in vars(stage)) == (stage is theory)
                line = json.dumps([theory.name, operator, stage.name, size,
                                   [str(e) for e in stage.identities]])
                digest.update(line.encode() + b"\n")
                count += 1
    assert (count, digest.hexdigest()) == PINNED_STAGES


def test_derive_output_is_pinned():
    digest = hashlib.sha256()
    assert len(THEORY_FILES) == 7
    for path in THEORY_FILES:
        for extra in ([], ["--order"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["derive", str(path), "--iterate", *extra])
            digest.update(f"{path.name} {extra} {code}\n".encode() + out.getvalue().encode())
    assert digest.hexdigest() == PINNED_DERIVE_OUTPUT


def test_a_stage_behaves_as_the_eager_theory_of_its_fields(corpus):
    """A stage builds its identities on first read, and compares, hashes,
    copies and pickles as a `Theory` built from the same four fields."""
    for theory in corpus:
        for operator in ("derivative", "order_derivative"):
            stage = iterate(theory, operator).stages[1]
            assert isinstance(stage, Theory) and "identities" not in vars(stage)
            eager = Theory(stage.name, stage.symbols, stage.identities, stage.renames)
            assert stage == eager and eager == stage and hash(stage) == hash(eager)
            assert repr(stage) == repr(eager) and stage.codes == eager.codes
            for twin in (copy.copy(stage), copy.deepcopy(stage),
                         pickle.loads(pickle.dumps(stage)),
                         dataclasses.replace(stage)):
                assert twin == stage and hash(twin) == hash(stage)
                assert set(vars(twin)) == {f.name for f in dataclasses.fields(Theory)}
