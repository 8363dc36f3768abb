import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from linvar.dsl import parse_term
from linvar.rewriting import Derivation, DerivationStep, make_step
from linvar.terms import (
    Application,
    InvalidPositionError,
    OperationSymbol,
    Variable,
    apply_substitution,
    canonical_rename,
    compose_substitutions,
    is_flat,
    match_term,
    positions,
    render_term,
    replace_at,
    subterm_at,
    term_size,
    term_variables,
)
from linvar.theories import Identity

F1 = OperationSymbol("f", 1)
G2 = OperationSymbol("g", 2)
P3 = OperationSymbol("p", 3)

VARS = [Variable(n) for n in ("x", "y", "z")]


def terms(max_depth=3):
    base = st.sampled_from(VARS)

    def extend(children):
        return st.one_of(
            st.builds(lambda c: Application(F1, (c,)), children),
            st.builds(lambda a, b: Application(G2, (a, b)), children, children),
            st.builds(lambda a, b, c: Application(P3, (a, b, c)),
                      children, children, children),
        )

    return st.recursive(base, extend, max_leaves=8)


substitutions = st.dictionaries(st.sampled_from(VARS), terms(), max_size=3)


class TestSubtermAt:
    def test_child(self):
        t = parse_term("p(x,m(y,y),z)")
        assert subterm_at(t, (2,)) == parse_term("m(y,y)")

    def test_root(self):
        t = parse_term("f(x)")
        assert subterm_at(t, ()) == t

    def test_off_the_tree(self):
        with pytest.raises(InvalidPositionError):
            subterm_at(parse_term("p(x,y,y)"), (4,))


class TestReplaceAt:
    def test_inner(self):
        assert replace_at(parse_term("f(g(x,x))"), (1,), parse_term("h(y)")) \
            == parse_term("f(h(y))")

    def test_root(self):
        assert replace_at(Variable("x"), (), parse_term("p(a,b,c)")) \
            == parse_term("p(a,b,c)")

    def test_sibling_untouched(self):
        assert replace_at(parse_term("p(x,y,y)"), (2,), parse_term("m(y,y)")) \
            == parse_term("p(x,m(y,y),y)")

    def test_invalid(self):
        with pytest.raises(InvalidPositionError):
            replace_at(parse_term("f(x)"), (1, 1), Variable("y"))


class TestSubstitution:
    def test_basic(self):
        sigma = {Variable("x"): Variable("a"), Variable("y"): Variable("b")}
        assert apply_substitution(parse_term("p(x,y,y)"), sigma) == parse_term("p(a,b,b)")

    def test_empty_is_identity(self):
        t = parse_term("g(f(x),y)")
        assert apply_substitution(t, {}) == t

    def test_collapsing(self):
        assert apply_substitution(parse_term("g(x,y)"), {Variable("x"): Variable("y")}) \
            == parse_term("g(y,y)")


class TestMatch:
    def test_binds_whole_subterms(self):
        sigma = match_term(parse_term("p(v,w,w)"), parse_term("p(x,m(y,y),m(y,y))"))
        assert sigma == {Variable("v"): Variable("x"),
                         Variable("w"): parse_term("m(y,y)")}

    def test_conflicting_repeat(self):
        assert match_term(parse_term("p(v,w,w)"), parse_term("p(x,y,z)")) is None

    def test_variable_pattern(self):
        assert match_term(Variable("v"), parse_term("f(x)")) \
            == {Variable("v"): parse_term("f(x)")}


class TestCanonicalRename:
    def test_first_occurrence_order(self):
        assert canonical_rename(parse_term("p(y,y,x)")) == parse_term("p(v0,v0,v1)")

    def test_idempotent_on_example(self):
        assert canonical_rename(parse_term("p(v0,v0,v1)")) == parse_term("p(v0,v0,v1)")

    def test_two_vars(self):
        assert canonical_rename(parse_term("g(z,x)")) == parse_term("g(v0,v1)")


def test_is_flat():
    assert is_flat(Variable("x"))
    assert is_flat(parse_term("p(x,y,y)"))
    assert not is_flat(parse_term("f(g(x,y))"))


# -- properties ---------------------------------------------------------------


@given(terms())
def test_positions_cover_the_term(t):
    assert len(list(positions(t))) == term_size(t)
    for p in positions(t):
        subterm_at(t, p)


@given(terms(), terms())
def test_replace_then_read_back(t, u):
    for p in positions(t):
        assert subterm_at(replace_at(t, p, u), p) == u
        assert replace_at(t, p, subterm_at(t, p)) == t


@given(terms(), substitutions, substitutions)
def test_substitution_composes(t, sigma, tau):
    once = apply_substitution(apply_substitution(t, sigma), tau)
    composed = compose_substitutions(sigma, tau)
    assert once == apply_substitution(t, composed)


@given(terms())
def test_canonical_rename_idempotent(t):
    c = canonical_rename(t)
    assert canonical_rename(c) == c


@given(terms())
def test_canonical_rename_invariant_under_injective_renaming(t):
    swap = {Variable("x"): Variable("s"), Variable("y"): Variable("t"),
            Variable("z"): Variable("u")}
    assert canonical_rename(apply_substitution(t, swap)) == canonical_rename(t)


@given(terms(), substitutions)
def test_match_recovers_substitution(t, sigma):
    instance = apply_substitution(t, sigma)
    recovered = match_term(t, instance)
    assert recovered is not None
    assert apply_substitution(t, recovered) == instance
    for v in term_variables(t):
        assert recovered[v] == sigma.get(v, v)


def _rebuilt(t):
    """An equal term sharing no Application object with t."""
    if isinstance(t, Variable):
        return Variable(t.name)
    return Application(OperationSymbol(t.symbol.name, t.symbol.arity),
                       tuple(_rebuilt(c) for c in t.children))


class TestHashCache:
    @given(terms().filter(lambda t: isinstance(t, Application)))
    def test_hash_is_the_dataclass_hash_before_and_after_caching(self, t):
        expected = hash((t.symbol, t.children))
        assert hash(t) == expected
        assert hash(t) == expected

    @given(terms())
    def test_equal_terms_built_apart_hash_equal(self, t):
        u = _rebuilt(t)
        hash(t)
        assert u == t and hash(u) == hash(t)

    @given(terms())
    def test_repr_equality_and_fields_are_unchanged(self, t):
        before = repr(t)
        hash(t)
        assert repr(t) == before
        if isinstance(t, Application):
            assert before == f"Application(symbol={t.symbol!r}, children={t.children!r})"
        assert t == _rebuilt(t) and t != Application(F1, (t,))
        assert [f.name for f in dataclasses.fields(Application)] == ["symbol", "children"]

    @given(terms())
    def test_deepcopy_round_trips(self, t):
        hash(t)
        u = copy.deepcopy(t)
        assert u == t and hash(u) == hash(t) and repr(u) == repr(t)

    def test_pickle_hashes_right_under_another_hash_seed(self):
        texts = ["p(x,f(y),g(z,x))", "g(f(f(x)),p(y,y,z))", "f(x)"]
        hashed = [parse_term(text) for text in texts]
        for t in hashed:
            hash(t)
        script = "\n".join([
            "import pickle, sys",
            "from linvar.dsl import parse_term",
            "terms = pickle.loads(sys.stdin.buffer.read())",
            "for t in terms:",
            "    fresh = parse_term(str(t))",
            "    print(t == fresh and hash(t) == hash(fresh) and {t: 1}.get(fresh) == 1)",
        ])
        src = Path(__file__).resolve().parents[1] / "src"
        seed = "1" if os.environ.get("PYTHONHASHSEED") == "2" else "2"
        result = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps(hashed),
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
            capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.decode().split() == ["True"] * len(texts)
        assert [render_term(t) for t in hashed] == texts


def _values():
    """One object of each slotted value class, built afresh on every call,
    with the names of its dataclass fields."""
    x, y = Variable("x"), Variable("y")
    t = Application(G2, (x, Application(F1, (y,))))
    e = Identity(t, x)
    step = make_step(e, False, (2,), {x: t, y: x})
    return [(x, ["name"]), (OperationSymbol("g", 2), ["name", "arity"]),
            (t, ["symbol", "children"]), (e, ["lhs", "rhs"]),
            (step, ["equation", "forward", "position", "subst"]),
            (Derivation("g", (t, x), (step,)), ["theory_name", "terms", "steps"])]


@pytest.mark.parametrize("k", range(len(_values())),
                         ids=[type(v).__name__ for v, _ in _values()])
def test_slotted_values_behave_as_frozen_dataclasses(k):
    """No instance dict; the same fields, repr, equality and hash as the
    dataclass; pickles and copies give equal objects; a field cannot be
    assigned or deleted, and no other attribute can be added."""
    (a, names), (b, _) = _values()[k], _values()[k]
    assert not hasattr(a, "__dict__")
    assert [f.name for f in dataclasses.fields(a)] == names
    fields = ", ".join(f"{n}={getattr(a, n)!r}" for n in names)
    assert repr(a) == f"{type(a).__name__}({fields})"
    assert a == b and hash(a) == hash(b) and a is not b
    hash(a)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        twin = pickle.loads(pickle.dumps(a, protocol))
        assert type(twin) is type(a) and twin == a and hash(twin) == hash(a)
    for twin in (copy.copy(a), copy.deepcopy(a), dataclasses.replace(a)):
        assert type(twin) is type(a) and twin == a and repr(twin) == repr(a)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, name)
    # a dataclass made with slots=True refuses an attribute it has no slot
    # for with a TypeError, Application (slots of its own) with
    # FrozenInstanceError
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        a.note = None
    assert a == b and not hasattr(a, "note")
