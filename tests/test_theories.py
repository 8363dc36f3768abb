import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from linvar import presets
from linvar.dsl import parse_identity, parse_term, parse_theory, render_theory
from linvar.presets import day, hagemann_mitschke, jonsson, maltsev, semilattice
from linvar.terms import (
    Application,
    OperationSymbol,
    Variable,
    apply_substitution,
    canonical_rename,
    rename_jointly,
    term_key,
)
from linvar.theories import (
    Identity,
    SignatureMismatchError,
    UnknownSymbolError,
    canonicalize_identity,
    embedded_components,
    join_disjoint,
    make_theory,
    theory_equal,
    validate,
)

from test_terms import terms


def ident(text):
    return parse_identity(text)


def _canonicalize_by_renamed_terms(e):
    """Reference canonicalization that builds every renamed term: orient by
    the sides renamed apart, and on a tie take the smaller joint renaming."""
    kl, kr = term_key(canonical_rename(e.lhs)), term_key(canonical_rename(e.rhs))
    if kl != kr:
        pairs = [(e.lhs, e.rhs) if kl < kr else (e.rhs, e.lhs)]
    else:
        pairs = [(e.lhs, e.rhs), (e.rhs, e.lhs)]
    renamed = [Identity(*rename_jointly(pair)[0]) for pair in pairs]
    return min(renamed, key=lambda r: (term_key(r.lhs), term_key(r.rhs)))


class TestCanonicalizeIdentity:
    def test_variable_side_first(self):
        assert canonicalize_identity(ident("x = p(x,y,y)")) == ident("v0 = p(v0,v1,v1)")

    def test_symmetry_then_rename(self):
        assert canonicalize_identity(ident("p(y,y,x) = x")) == ident("v0 = p(v1,v1,v0)")

    def test_orientation_by_term_order(self):
        assert canonicalize_identity(ident("m(x,y) = m(y,x)")) == ident("m(v0,v1) = m(v1,v0)")

    @given(terms(), terms())
    def test_matches_renaming_the_terms(self, a, b):
        e = Identity(a, b)
        assert canonicalize_identity(e) == _canonicalize_by_renamed_terms(e)

    def test_matches_renaming_the_terms_past_ten_variables(self):
        # v10 sorts before v2 as a name, so wide identities order by names
        # the way renamed terms do
        f = OperationSymbol("f", 12)
        ys = [Variable(f"y{i}") for i in range(12)]
        for shift in range(12):
            e = Identity(Application(f, tuple(ys)),
                         Application(f, tuple(ys[shift:] + ys[:shift])))
            assert canonicalize_identity(e) == _canonicalize_by_renamed_terms(e)

    @given(terms(), terms())
    def test_idempotent(self, a, b):
        e = canonicalize_identity(Identity(a, b))
        assert canonicalize_identity(e) == e

    @given(terms(), terms())
    def test_symmetric(self, a, b):
        assert canonicalize_identity(Identity(a, b)) == canonicalize_identity(Identity(b, a))

    @given(terms(), terms())
    def test_renaming_invariant(self, a, b):
        swap = {Variable("x"): Variable("s"), Variable("y"): Variable("t"),
                Variable("z"): Variable("u")}
        renamed = Identity(apply_substitution(a, swap), apply_substitution(b, swap))
        assert canonicalize_identity(renamed) == canonicalize_identity(Identity(a, b))


class TestValidate:
    def test_maltsev_linear_idempotency_derivable(self, maltsev):
        report = validate(maltsev)
        assert report.is_linear
        assert dict(report.idempotency) == {"p": "derivable"}

    def test_explicit_idempotency(self, semilattice):
        report = validate(semilattice)
        assert report.is_linear
        assert dict(report.idempotency) == {"m": "explicit"}

    def test_nonlinear_detected(self):
        f, g = OperationSymbol("f", 1), OperationSymbol("g", 1)
        x = Variable("x")
        t = make_theory("nonlinear", [f, g],
                        [Identity(Application(f, (Application(g, (x,)),)), x)])
        report = validate(t)
        assert not report.is_linear
        assert len(report.nonlinear_identities) == 1

    def test_unknown_symbol_rejected(self):
        f = OperationSymbol("f", 1)
        with pytest.raises(UnknownSymbolError):
            make_theory("bad", [f], [ident("g(x) = x")])


class TestJoinDisjoint:
    def test_disjoint_signatures(self, maltsev, semilattice):
        j = join_disjoint(maltsev, semilattice)
        assert {s.name for s in j.symbols} == {"p", "m"}
        assert len(j.identities) == 4
        assert j.renames == ()

    def test_join_with_empty_theory(self, maltsev):
        empty = make_theory("empty", [], [])
        j = join_disjoint(maltsev, empty)
        assert set(j.symbols) == set(maltsev.symbols)
        assert theory_equal(j, make_theory("m2", maltsev.symbols, maltsev.identities))

    def test_name_clash_renamed(self, maltsev):
        j = join_disjoint(maltsev, maltsev)
        assert {s.name for s in j.symbols} == {"p", "p_2"}
        assert j.renames == (("p", "p_2"),)
        assert len(j.identities) == 4

    def test_commutative_up_to_theory_equal(self, maltsev, semilattice):
        assert theory_equal(join_disjoint(maltsev, semilattice),
                            join_disjoint(semilattice, maltsev))

    def test_associative_up_to_theory_equal(self, maltsev, semilattice):
        third = jonsson(2)
        left = join_disjoint(join_disjoint(maltsev, semilattice), third)
        right = join_disjoint(maltsev, join_disjoint(semilattice, third))
        assert theory_equal(left, right)

    def test_rename_chains_stay_collision_free(self, maltsev):
        tripled = join_disjoint(join_disjoint(maltsev, maltsev), maltsev)
        names = [s.name for s in tripled.symbols]
        assert len(names) == len(set(names)) == 3


def _prefixed(theory, prefix):
    """The theory over its symbols renamed prefix + name, as the benchmark's
    join workload renames both sides of a pair."""
    mapping = {s.name: OperationSymbol(prefix + s.name, s.arity) for s in theory.symbols}

    def walk(t):
        if isinstance(t, Variable):
            return t
        return Application(mapping[t.symbol.name], tuple(walk(c) for c in t.children))

    return make_theory(prefix + theory.name, mapping.values(),
                       [Identity(walk(e.lhs), walk(e.rhs)) for e in theory.identities])


def _join_pairs():
    """Every ordered preset pair, bare and under one shared prefix; a
    component already holding m and m_2, so that a clashing m becomes m_3
    (and a clashing m_2 after a rename to m_2, m_2_2); and x = y in both
    components, with and without a clash."""
    corpus = presets.presets()
    pairs = list(itertools.product(corpus, repeat=2))
    pairs += [(_prefixed(a, "abc0_"), _prefixed(b, "abc0_"))
              for a, b in itertools.product(corpus, repeat=2)]
    both_m = parse_theory("theory both_m\nop m/2\nop m_2/2\naxiom m(x,x) = x\n"
                          "axiom m_2(x,x) = x\naxiom m(x,y) = m_2(y,x)\n")
    pairs += [(both_m, semilattice()), (semilattice(), both_m), (both_m, both_m)]
    trivial_m = parse_theory("theory trivial_m\nop m/2\naxiom x = y\naxiom m(x,x) = x\n")
    trivial_p = parse_theory("theory trivial_p\nop p/3\naxiom x = y\n"
                             "axiom p(x,x,x) = x\n")
    pairs += [(trivial_m, trivial_p), (trivial_m, trivial_m)]
    return pairs


def _theory_record(t):
    return [t.name, [[s.name, s.arity] for s in t.symbols],
            [str(e) for e in t.identities], [list(r) for r in t.renames]]


# sha256 of the records of `join_disjoint` and of the three
# `embedded_components` theories over `_join_pairs()`, taken while each of
# the two still renamed the right component on its own
PINNED_JOINS = "43bd52c4e8764b3e64a7e4723d9ee22bdcc65fad988590a0215c4996560f8f37"


def test_joins_are_pinned():
    records = [[_theory_record(join_disjoint(a, b))]
               + [_theory_record(t) for t in embedded_components(a, b)]
               for a, b in _join_pairs()]
    assert len(records) == 103
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == PINNED_JOINS


class TestTheoryEqual:
    def test_reflexive(self, maltsev):
        assert theory_equal(maltsev, maltsev)

    def test_collapses_renaming_and_symmetry(self):
        p = OperationSymbol("p", 3)
        a = make_theory("a", [p], [ident("x = p(x,y,y)")])
        b = make_theory("b", [p], [ident("p(x,z,z) = x")])
        assert theory_equal(a, b)

    def test_strict_extension_differs(self, maltsev):
        from linvar.derivatives import derivative

        assert not theory_equal(maltsev, derivative(maltsev))

    def test_signature_mismatch(self, maltsev, semilattice):
        with pytest.raises(SignatureMismatchError):
            theory_equal(maltsev, semilattice)

    def test_equivalence_on_fixed_signature(self, maltsev):
        reordered = make_theory("r", maltsev.symbols, tuple(reversed(maltsev.identities)))
        assert theory_equal(maltsev, reordered)
        assert theory_equal(reordered, maltsev)


class TestPresets:
    def test_maltsev_axioms(self, maltsev):
        expected = make_theory("expected", maltsev.symbols,
                               [ident("p(x,y,y) = x"), ident("p(y,y,x) = x")])
        assert theory_equal(maltsev, expected)

    def test_corpus_is_large_enough(self, corpus):
        assert len(corpus) >= 6

    def test_all_presets_linear_idempotent(self, corpus):
        for theory in corpus:
            report = validate(theory)
            assert report.is_linear, theory.name
            assert report.is_idempotent, (theory.name, report.idempotency)

    def test_hagemann_mitschke_2_shape(self):
        t = hagemann_mitschke(2)
        expected = make_theory("expected", t.symbols, [
            ident("x = q1(x,y,y)"),
            ident("q1(x,x,y) = q2(x,y,y)"),
            ident("q2(x,x,y) = y"),
        ])
        assert theory_equal(t, expected)

    def test_parameterized_presets_validate(self):
        for t in (jonsson(2), jonsson(4), day(3), hagemann_mitschke(1),
                  hagemann_mitschke(4)):
            assert validate(t).ok, t.name


class TestDsl:
    def test_parse_maltsev_file(self):
        text = """
# a Maltsev operation
theory maltsev
op p/3
axiom p(x,y,y) = x
axiom p(y,y,x) = x
"""
        t = parse_theory(text)
        assert theory_equal(t, maltsev())

    def test_empty_axiom_list(self):
        t = parse_theory("theory trivial\nop f/2\n")
        assert t.identities == ()

    def test_arity_mismatch_reports_line(self):
        from linvar.dsl import ParseError

        with pytest.raises(ParseError) as excinfo:
            parse_theory("theory bad\nop p/3\naxiom p(x,y) = x\n")
        assert excinfo.value.line == 3
        assert "arity" in str(excinfo.value)

    def test_unknown_symbol_in_axiom(self):
        from linvar.dsl import ParseError

        with pytest.raises(ParseError):
            parse_theory("theory bad\nop p/3\naxiom q(x,y,y) = x\n")

    def test_round_trip_presets(self, corpus):
        for theory in corpus:
            again = parse_theory(render_theory(theory))
            assert theory_equal(theory, again)

    def test_round_trip_derived_stages(self, maltsev):
        from linvar.derivatives import derivative, order_derivative

        for stage in (derivative(maltsev), order_derivative(maltsev)):
            again = parse_theory(render_theory(stage))
            assert theory_equal(stage, again)

    def test_bad_character_position(self):
        from linvar.dsl import ParseError

        with pytest.raises(ParseError) as excinfo:
            parse_term("p(x,$)")
        assert excinfo.value.col == 5

    def test_nesting_bound_reports_position(self):
        from linvar.dsl import MAX_TERM_DEPTH, ParseError

        deep = "p(" * (MAX_TERM_DEPTH + 1) + "x" + ",x,x)" * (MAX_TERM_DEPTH + 1)
        with pytest.raises(ParseError) as excinfo:
            parse_theory(f"theory bad\nop p/3\naxiom {deep} = x\n")
        assert excinfo.value.line == 3
        # the opening parenthesis one level past the bound, counted from the
        # start of the line
        assert excinfo.value.col == len("axiom ") + 2 * MAX_TERM_DEPTH + 2
        assert "nested deeper" in str(excinfo.value)

    def test_identity_error_columns_count_from_its_start(self):
        from linvar.dsl import ParseError

        for text, col in [("x = p(x,y", 10), ("  p(x,$) = x", 7), ("x =  p(x) y", 11)]:
            with pytest.raises(ParseError) as excinfo:
                parse_identity(text)
            assert excinfo.value.col == col, text
        with pytest.raises(ParseError) as excinfo:
            parse_theory("theory bad\nop p/3\n\taxiom  x = p(x,$,y)\n")
        assert (excinfo.value.line, excinfo.value.col) == (3, 17)

    def test_term_at_nesting_bound_passes_later_passes(self):
        # rendering, substitution, matching and proof search all recurse per
        # level; at the bound they must fit Python's default recursion limit
        from linvar.dsl import MAX_TERM_DEPTH
        from linvar.rewriting import SearchBounds, Unknown, bfs_prove
        from linvar.terms import match_term, render_term, term_depth

        text = "p(" * MAX_TERM_DEPTH + "x" + ",y,z)" * MAX_TERM_DEPTH
        goal = parse_identity(f"{text} = x", {"p": 3})
        assert term_depth(goal.lhs) == MAX_TERM_DEPTH
        assert parse_term(render_term(goal.lhs)) == goal.lhs
        swapped = apply_substitution(goal.lhs, {Variable("x"): Variable("y")})
        assert match_term(goal.lhs, swapped) is not None
        outcome = bfs_prove(maltsev(), goal, SearchBounds(max_terms=2))
        assert isinstance(outcome, Unknown)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.text(alphabet="pfxyz(),= \t#$", max_size=40),
        st.integers(0, 600).map(lambda d: "f(" * d + "x" + ")" * d + " = x")))
    def test_parse_identity_raises_only_parse_error(self, text):
        from linvar.dsl import ParseError

        try:
            result = parse_identity(text)
        except ParseError:
            return
        assert isinstance(result, Identity)

    def test_json_mirror_round_trip(self, corpus):
        from linvar.dsl import theory_from_json, theory_to_json

        for theory in corpus:
            data = theory_to_json(theory)
            assert set(data) == {"name", "ops", "axioms", "renames"}
            assert theory_equal(theory, theory_from_json(data))
