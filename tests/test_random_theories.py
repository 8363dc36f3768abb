"""Property tests over randomly generated linear idempotent theories.

The presets exercise known mathematics; these catch engine-level mistakes on
arbitrary inputs, including deliberately inconsistent ones, by holding the
saturation, search, and model engines to each other.
"""

import itertools
import random
import sys
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

import saturation_reference as reference
from linvar import presets, saturation
from linvar.classification import _join_stage_matches, check_join_decomposition
from linvar.derivatives import (
    _canonical_tuples,
    _fact_identity,
    _mixture_code,
    derivative,
    iterate,
    order_derivative,
    order_fact_set,
    weak_independence_profile,
)
from linvar.models import refute_entailment, satisfies
from linvar.rewriting import (
    Proved,
    SearchBounds,
    _Encoding,
    _expand,
    _search_rules,
    _step,
    bfs_prove,
    make_step,
    verify_derivation,
)
from linvar.saturation import Entailed, default_budget, saturate
from linvar.terms import (
    Application,
    OperationSymbol,
    Variable,
    apply_substitution,
    canonical_variable,
    flat_parts,
    match_term,
    positions,
    replace_at,
    subterm_at,
    term_size,
    term_variables,
)
from linvar.theories import (
    Identity,
    Theory,
    _rename_symbols,
    embedded_components,
    identity_variables,
    join_disjoint,
    make_theory,
    theory_equal,
    validate,
)

F2 = OperationSymbol("f", 2)
G1 = OperationSymbol("g", 1)
VARS = [Variable(n) for n in ("x", "y", "z")]


def _flat_terms(f2, g1):
    return st.one_of(
        st.sampled_from(VARS),
        st.builds(lambda a, b: Application(f2, (a, b)),
                  st.sampled_from(VARS), st.sampled_from(VARS)),
        st.builds(lambda a: Application(g1, (a,)), st.sampled_from(VARS)),
    )


flat_terms = _flat_terms(F2, G1)
identities = st.builds(Identity, flat_terms, flat_terms)


def _theories_over(name, f2, g1, max_extra=3):
    terms = _flat_terms(f2, g1)
    idents = st.builds(Identity, terms, terms)

    @st.composite
    def build(draw) -> Theory:
        x = VARS[0]
        base = [Identity(Application(f2, (x, x)), x), Identity(Application(g1, (x,)), x)]
        extra = draw(st.lists(idents, max_size=max_extra))
        return make_theory(name, [f2, g1], base + extra)

    return build()


def small_theories():
    return _theories_over("random", F2, G1)


@settings(max_examples=40, deadline=None)
@given(small_theories())
def test_validation_and_operator_preservation(theory):
    report = validate(theory)
    assert report.is_linear and report.is_idempotent
    for derived in (derivative(theory), order_derivative(theory)):
        assert theory.identity_set() <= derived.identity_set()
        derived_report = validate(derived)
        assert derived_report.is_linear and derived_report.is_idempotent


@settings(max_examples=40, deadline=None)
@given(small_theories())
def test_iteration_terminates_within_bounds(theory):
    pairs = sum(s.arity for s in theory.symbols)
    trace = iterate(theory, "derivative")
    assert len(trace.stages) - 1 <= pairs + 1
    if trace.stop_reason == "inconsistent":
        assert isinstance(trace.certificate, Entailed)
        assert verify_derivation(trace.final, trace.certificate.derivation)
    trace = iterate(theory, "order_derivative")
    facts = sum(len(_canonical_tuples(s.arity, s.arity + 1)) for s in theory.symbols)
    assert len(trace.stages) - 1 <= facts + 1


@settings(max_examples=30, deadline=None)
@given(small_theories())
def test_cross_oracle_on_random_theories(theory):
    base = saturate(theory)
    facts = set(base.v0_facts())
    bounds = SearchBounds(max_terms=300, max_depth=3, max_term_size=12)
    for s in theory.symbols:
        for w in _canonical_tuples(s.arity, s.arity + 1):
            goal = _fact_identity(s, w)
            entailed = (s, w) in facts
            assert entailed == reference.fact_entailed(base, s, w), str(goal)
            if entailed:
                assert refute_entailment(theory, goal, 2, 2) is None, str(goal)
            else:
                assert not isinstance(bfs_prove(theory, goal, bounds), Proved), str(goal)


def _fact_atom(base, symbol, digits):
    return base.atom_id(Application(symbol, tuple(canonical_variable(d) for d in digits)))


def _chain_length(base, a, b):
    return len(base.shortest_chain(a, b)[1])


@settings(max_examples=30, deadline=None)
@given(small_theories())
def test_budget_enlargement_is_monotone(theory):
    small = saturate(theory, 6)
    large = saturate(theory, 8)
    facts = list(small.v0_facts())
    assert facts == [(s, w) for s in theory.symbols if s.arity
                     for w in itertools.product(range(6), repeat=s.arity)
                     if reference.fact_entailed(small, s, w)]
    assert set(facts) <= set(large.v0_facts())


@settings(max_examples=30, deadline=None)
@given(small_theories())
def test_default_budget_answers_like_a_larger_one(theory):
    """Retraction lemma: a query over k variables gets the same answer and a
    shortest chain of the same length in every context of at least k
    variables, so widening the default context changes nothing."""
    b = default_budget(theory)
    small, large = saturate(theory, b), saturate(theory, b + 2)
    assert order_fact_set(theory, base=small) == order_fact_set(theory, base=large)
    assert weak_independence_profile(theory, base=small).pairs == \
        weak_independence_profile(theory, base=large).pairs
    assert small.variables_merged() == large.variables_merged()

    k = theory.max_arity() + 1
    atoms = [small.atom_term(i) for i in range(small.size)
             if all(d < k for d in small.digits(i)[1])]
    for s_, t in itertools.combinations(atoms, 2):
        assert small.same_class(small.atom_id(s_), small.atom_id(t)) == \
            large.same_class(large.atom_id(s_), large.atom_id(t)), (s_, t)

    for s in theory.symbols:
        for w in _canonical_tuples(s.arity, s.arity + 1):
            a, c = _fact_atom(small, s, w), _fact_atom(large, s, w)
            if small.same_class(0, a):
                assert _chain_length(small, 0, a) == _chain_length(large, 0, c)
    if small.variables_merged():
        assert _chain_length(small, 0, 1) == _chain_length(large, 0, 1)


T3 = OperationSymbol("t", 3)
VARS4 = VARS + [Variable("u")]
ternary_terms = st.one_of(
    st.sampled_from(VARS4),
    st.builds(lambda *args: Application(T3, args), *[st.sampled_from(VARS4)] * 3))


@st.composite
def ternary_theories(draw) -> Theory:
    """Idempotent theories of one ternary symbol plus up to three random
    flat identities over four variables."""
    x = VARS[0]
    extra = draw(st.lists(st.builds(Identity, ternary_terms, ternary_terms), max_size=3))
    return make_theory("ternary", [T3], [Identity(Application(T3, (x, x, x)), x)] + extra)


def _instance_pairs(base):
    """Atom pairs of every identity instance over the whole context, each
    side substituted as a term and interned with `atom_id`, independently
    of the engine's stride enumeration and chain search."""
    for e in base.theory.identities:
        vs = identity_variables(e)
        for values in itertools.product(base.context, repeat=len(vs)):
            sigma = dict(zip(vs, values))
            yield (base.atom_id(apply_substitution(e.lhs, sigma)),
                   base.atom_id(apply_substitution(e.rhs, sigma)))


def _whole_context_distances(base, source):
    """Breadth-first distances from one atom over every identity instance
    of the whole context."""
    adjacency = {}
    for a, b in _instance_pairs(base):
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    distance = {source: 0}
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        for nxt in adjacency.get(cur, ()):
            if nxt not in distance:
                distance[nxt] = distance[cur] + 1
                queue.append(nxt)
    return distance


@settings(max_examples=20, deadline=None)
@given(ternary_theories())
def test_chain_search_over_endpoint_variables_stays_shortest(theory):
    """Retraction lemma for certificates: searching only the atoms over the
    endpoints' variables finds chains as short as the whole context's."""
    base = saturate(theory)
    distance = _whole_context_distances(base, 0)
    # each fact over the lowest variables and over the highest, so that the
    # endpoint variables are not always the ones a search would try first
    top = base.budget
    targets = []
    for w in _canonical_tuples(3, 4):
        targets.append(_fact_atom(base, T3, w))
        targets.append(_fact_atom(base, T3, tuple(0 if d == 0 else top - d for d in w)))
    if base.variables_merged():
        targets += [1, top - 1]
    for target in targets:
        if not base.same_class(0, target):
            continue
        ids, edges = base.shortest_chain(0, target)
        assert len(edges) == distance[target], base.atom_term(target)
        endpoint_vars = {0} | set(base.digits(target)[1])
        for i in ids:
            assert set(base.digits(i)[1]) <= endpoint_vars, base.atom_term(i)
        for _, _, sigma in edges:
            assert set(sigma.values()) <= endpoint_vars, sigma


def _reference_chain(base, a, b):
    """`FlatFactBase.shortest_chain` as it was before rules were compiled to
    strides: each neighbour's substitution is built as a dict and encoded,
    in the same breadth-first order."""
    rules = []
    for idx, e in enumerate(base.theory.identities):
        for src, dst, forward in ((e.lhs, e.rhs, True), (e.rhs, e.lhs, False)):
            name, args = flat_parts(dst)
            rules.append((idx, forward, flat_parts(src), (name, args),
                          list(dict.fromkeys(args))))

    def neighbors(aid, allowed):
        kind, digits = base.digits(aid)
        order = [i for i in allowed if i not in digits] + sorted(set(digits))
        for idx, forward, (src_name, src_args), (name, args), dst_vars in rules:
            if src_name != kind:
                continue
            sigma0 = {}
            if any(sigma0.setdefault(v, d) != d for v, d in zip(src_args, digits)):
                continue
            free = [v for v in dst_vars if v not in sigma0]
            for values in itertools.product(order, repeat=len(free)):
                sigma = dict(sigma0)
                sigma.update(zip(free, values))
                tid = base.encode(name, [sigma[v] for v in args])
                if tid != aid:
                    yield tid, idx, forward, sigma

    if a == b:
        return [a], []
    allowed = sorted(set(base.digits(a)[1]) | set(base.digits(b)[1]))
    parents = {}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        for tid, idx, forward, sigma in neighbors(cur, allowed):
            if tid == a or tid in parents:
                continue
            parents[tid] = (cur, (idx, forward, sigma))
            if tid == b:
                ids, edges = [b], []
                while ids[-1] != a:
                    prev, edge = parents[ids[-1]]
                    ids.append(prev)
                    edges.append(edge)
                return ids[::-1], edges[::-1]
            queue.append(tid)
    raise AssertionError("no chain inside a class")


def _assert_chains_match_reference(base, pairs):
    for a, b in pairs:
        if base.same_class(a, b):
            chain = base.shortest_chain(a, b)
            expected = _reference_chain(base, a, b)
            # dict equality ignores the binding order, so compare items too
            assert [list(sigma.items()) for _, _, sigma in chain[1]] == \
                [list(sigma.items()) for _, _, sigma in expected[1]]
            assert chain == expected, (base.atom_term(a), base.atom_term(b))


def _fact_pairs(base):
    """(v0, F(w)) for every symbol F and canonical tuple w, and (v0, v1):
    the atom pairs `entails_flat` and `is_inconsistent` search."""
    pairs = [(0, 1)]
    for s in base.theory.symbols:
        pairs += [(0, _fact_atom(base, s, w)) for w in _canonical_tuples(s.arity, s.arity + 1)
                  if max(w, default=0) < base.budget]
    return pairs


@settings(max_examples=25, deadline=None)
@given(ternary_theories())
def test_compiled_chain_search_equals_the_reference(theory):
    """Stride-compiled neighbours give the same chains, substitutions
    included, as building and encoding each neighbour's substitution, from
    every class's first atom to each of its other atoms."""
    def check(base):
        first = {}
        pairs = [(first.setdefault(base.find(i), i), i) for i in range(base.size)]
        _assert_chains_match_reference(base, pairs + _fact_pairs(base))

    base = saturation.FlatFactBase(theory, default_budget(theory))
    check(base)
    # extended after the base compiled its rules, which must not carry over
    # to the extension's longer identity list
    check(base.extend(derivative(theory)))
    check(iterate(theory, "derivative").final_base)


def test_compiled_chain_search_equals_the_reference_on_preset_stages(corpus):
    for theory in corpus:
        for operator in ("derivative", "order_derivative"):
            for stage in iterate(theory, operator).stages:
                base = saturate(stage)
                _assert_chains_match_reference(base, _fact_pairs(base))


def _assert_resumed_chains_equal_fresh_ones(base, rng):
    """Every same-class pair's chain, asked in a shuffled order of one base,
    equals, substitutions included, the chain of a base that keeps no tree
    from an earlier query."""
    pairs = [(a, b) for a in range(base.size) for b in range(base.size)
             if base.same_class(a, b)]
    rng.shuffle(pairs)
    fresh = saturation.FlatFactBase(base.theory, base.budget)
    for a, b in pairs:
        fresh._trees.clear()
        expected = fresh.shortest_chain(a, b)
        chain = base.shortest_chain(a, b)
        assert [list(sigma.items()) for _, _, sigma in chain[1]] == \
            [list(sigma.items()) for _, _, sigma in expected[1]]
        assert chain == expected, (base.atom_term(a), base.atom_term(b))


@settings(max_examples=25, deadline=None)
@given(small_theories(), st.randoms(use_true_random=False))
def test_resumed_chain_trees_answer_in_any_order(theory, rng):
    base = saturate(theory)
    _assert_resumed_chains_equal_fresh_ones(base, rng)
    _assert_resumed_chains_equal_fresh_ones(base.extend(derivative(theory)), rng)


def test_resumed_chain_trees_answer_in_any_order_on_preset_stages():
    """Maltsev's and the majority's stages: all 13,316 same-class pairs,
    the inconsistent Maltsev derivative's 4,624 among them."""
    rng = random.Random(13)
    for theory in (presets.maltsev(), presets.majority()):
        for operator in ("derivative", "order_derivative"):
            for stage in iterate(theory, operator).stages:
                _assert_resumed_chains_equal_fresh_ones(
                    saturation.FlatFactBase(stage, default_budget(stage)), rng)


@settings(max_examples=20, deadline=None)
@given(st.one_of(small_theories(), ternary_theories()))
def test_atom_codec_round_trips(theory):
    base = saturate(theory)
    for i in range(base.size):
        name, digits = base.digits(i)
        assert base.encode(name, digits) == i
        assert base.atom_id(base.atom_term(i)) == i


def _assert_partition_matches_grounding(base):
    """The base's classes are those of a union-find over every ground
    identity instance of the whole context (`_instance_pairs`)."""
    parent = list(range(base.size))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in _instance_pairs(base):
        parent[find(a)] = find(b)
    expected = {}
    for i in range(base.size):
        expected.setdefault(find(i), []).append(i)
    assert sorted(base.classes().values()) == sorted(expected.values()), base.theory.name


@settings(max_examples=20, deadline=None)
@given(st.one_of(small_theories(), ternary_theories()))
def test_saturation_matches_an_independent_union_find(theory):
    """The stride enumeration merges exactly the instance pairs, both when
    building a base and when extending one along an iteration."""
    for base in (saturate(theory), iterate(theory, "derivative").final_base):
        _assert_partition_matches_grounding(base)


def _stage_bases(theory):
    """For both operators, a base built from each stage's codes at the
    iteration's context size, and the final base, which the iteration
    extended stage by stage with the new codes alone."""
    for operator in ("derivative", "order_derivative"):
        trace = iterate(theory, operator)
        for stage in trace.stages:
            yield saturation.FlatFactBase(stage, trace.budget)
        yield trace.final_base


@settings(max_examples=30, deadline=None)
@given(st.one_of(small_theories(), ternary_theories()))
def test_code_saturation_matches_grounding_on_every_stage(theory):
    """Saturation reads codes only; grounding the identities' terms under
    every assignment gives the same partition at every stage."""
    for base in _stage_bases(theory):
        _assert_partition_matches_grounding(base)


def test_code_saturation_matches_grounding_on_preset_and_family_stages(corpus, families):
    for theory in corpus + families:
        for base in _stage_bases(theory):
            _assert_partition_matches_grounding(base)


@settings(max_examples=25, deadline=None)
@given(small_theories())
def test_profiles_monotone_under_derivative(theory):
    before = weak_independence_profile(theory).pairs
    after = weak_independence_profile(derivative(theory)).pairs
    assert before <= after


@settings(max_examples=25, deadline=None)
@given(small_theories())
def test_found_models_satisfy(theory):
    from linvar.models import find_model

    found = find_model(theory, 2, 2)
    if found is not None:
        algebra, _ = found
        assert satisfies(algebra, theory)
    else:
        # no two-element model and the saturation agrees the theory collapsed,
        # or the model simply needs more elements; never contradict a model
        base = saturate(theory)
        if base.variables_merged():
            assert found is None


H2 = OperationSymbol("h", 2)
K1 = OperationSymbol("k", 1)
X, Y = VARS[0], VARS[1]
# f clashes and becomes f_2, which sorts after f0 where f sorted before it,
# so a rename can turn an identity of the clashing theory around
F0 = OperationSymbol("f0", 1)


@settings(max_examples=20, deadline=None)
@given(_theories_over("left", F2, G1, max_extra=2),
       _theories_over("right", H2, K1, max_extra=2))
def test_join_theorems_on_random_pairs(left, right):
    """Stagewise distribution of both operators over random joins, and
    agreement of each property with the disjunction over the components."""
    report = check_join_decomposition(left, right)
    assert report.decomposition_holds, report.to_json()
    assert report.prime_filter_holds, report.to_json()


def _flags_by_rejoining(left, right):
    """`check_join_decomposition`'s flags per operator as they were first
    computed: stage n of the join against join_disjoint(a_n, b_n), as
    identity sets."""
    joined = join_disjoint(left, right)
    out = []
    for operator in ("derivative", "order_derivative"):
        join_trace, left_trace, right_trace = (
            iterate(t, operator) for t in (joined, left, right))
        flags = []
        for n, stage in enumerate(join_trace.stages):
            try:
                a, b = left_trace.stage(n), right_trace.stage(n)
            except IndexError:
                flags.append(False)
                continue
            flags.append(theory_equal(stage, join_disjoint(a, b)))
        out.append(tuple(flags))
    return out


def _assert_join_flags_match_rejoining(left, right):
    report = check_join_decomposition(left, right)
    assert [op.equal_per_stage for op in report.operators] == \
        _flags_by_rejoining(left, right)
    joined = join_disjoint(left, right)
    starts = (joined, left, right)
    compared = 0
    for operator in ("derivative", "order_derivative"):
        traces = [iterate(t, operator) for t in starts]
        for n in range(1, len(traces[0].stages)):
            try:
                stages = tuple(trace.stage(n) for trace in traces)
            except IndexError:
                continue
            assert _join_stage_matches(stages, starts) == \
                theory_equal(stages[0], join_disjoint(*stages[1:]))
            compared += 1
    return compared


def test_join_flags_match_rejoining_on_preset_pairs(corpus):
    """Comparing the codes each stage added gives the flags that joining
    the components' stages again and comparing identity sets gives."""
    compared = sum(_assert_join_flags_match_rejoining(a, b)
                   for a in corpus for b in corpus)
    assert compared == 113


@settings(max_examples=30, deadline=None)
@given(_theories_over("left", F2, G1, max_extra=2),
       _theories_over("right", H2, K1, max_extra=2),
       _theories_over("clash", F2, F0, max_extra=3))
def test_join_flags_match_rejoining_on_random_pairs(left, right, clash):
    """As on the presets, with a clash that renames b's symbols too."""
    for b in (right, clash):
        _assert_join_flags_match_rejoining(left, b)


def test_a_join_stage_off_by_one_code_does_not_match(majority):
    """Stage 1 of majority joined with itself (m renamed m_2), with one
    added code more or one fewer, no longer matches its components."""
    joined = join_disjoint(majority, majority)
    assert joined.renames == (("m", "m_2"),)
    starts = (joined, majority, majority)
    stages = tuple(iterate(t, "derivative").stage(1) for t in starts)
    assert _join_stage_matches(stages, starts)
    join_1 = stages[0]
    # v0 = m_2(v0,v1,v1), which only the order derivative could add
    missing = _mixture_code("m_2", (0, 1, 1))
    assert missing not in join_1.codes
    added = join_1.extended(join_1.name, [missing])
    removed = Theory(join_1.name, join_1.symbols, join_1.identities[:-1], join_1.renames)
    assert len(removed.codes) > len(joined.codes)
    for tampered in (added, removed):
        assert not _join_stage_matches((tampered,) + stages[1:], starts)
        assert not theory_equal(tampered, join_disjoint(*stages[1:]))


def _profile_over_all_tuples(theory, base):
    """The weak-independence profile as first defined: witnesses are the
    lexicographically first entailed canonical tuple over all of {x, y1..yn},
    each fact decided on its own (`saturation_reference.fact_entailed`)."""
    pairs, witnesses = set(), []
    for s in theory.symbols:
        entailed = [w for w in _canonical_tuples(s.arity, s.arity + 1)
                    if reference.fact_entailed(base, s, w)]
        for i in range(1, s.arity + 1):
            w = next((w for w in entailed if w[i - 1] != 0), None)
            if w is not None:
                pairs.add((s.name, i))
                witnesses.append((s.name, i, _fact_identity(s, w)))
    return pairs, witnesses


@settings(max_examples=30, deadline=None)
@given(st.one_of(small_theories(), ternary_theories()))
def test_derivative_trace_in_two_variables_equals_default_context(theory):
    """The derivative's queries use two variables, so by the retraction lemma
    its trace from a two-variable base equals the trace from the default
    context: stages, trigger data, profile witnesses and certificate."""
    two = iterate(theory, "derivative")
    saturate_default = saturation.saturate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(saturation, "saturate", lambda t, budget=None: saturate_default(t))
        wide = iterate(theory, "derivative")
    assert (two.budget, wide.budget) == (2, default_budget(theory))
    # operator, stages, stage_data and stop reason
    assert two == wide
    for stage in two.stages:
        profile = weak_independence_profile(stage)
        assert (profile.pairs, list(profile.witnesses)) == \
            _profile_over_all_tuples(stage, saturate(stage))
    if two.certificate is None:
        assert wide.certificate is None
    else:
        assert two.certificate.derivation == wide.certificate.derivation


def _independence_by_names(symbol, place):
    """F(z1,...,u,...,zn) = F(z1,...,u_,...,zn) over readable names."""
    zs = [Variable(f"z{j}") for j in range(1, symbol.arity + 1)]
    left, right = list(zs), list(zs)
    left[place - 1], right[place - 1] = Variable("u"), Variable("u_")
    return Identity(Application(symbol, tuple(left)), Application(symbol, tuple(right)))


def _stages_by_make_theory(theory, operator):
    """Each next stage rebuilt by `make_theory` from every identity, old and
    new, with the new ones written over readable names."""
    if operator == "derivative":
        new = [_independence_by_names(theory.symbol_named(name), place)
               for name, place in sorted(weak_independence_profile(theory).pairs)]
        suffix = "'"
    else:
        new = [_fact_identity(theory.symbol_named(name), mixture)
               for name, w in sorted(order_fact_set(theory))
               for mixture in itertools.product(*[(0,) if d == 0 else (0, d) for d in w])]
        suffix = "+"
    return make_theory(theory.name + suffix, theory.symbols,
                       list(theory.identities) + new, renames=theory.renames)


def _with_examples(theories):
    """Run a hypothesis test on each of `theories` too."""
    def decorate(test):
        for theory in theories:
            test = example(theory)(test)
        return test
    return decorate


@settings(max_examples=30, deadline=None)
@given(st.one_of(small_theories(), ternary_theories()))
@_with_examples(presets.presets()
                + [presets.jonsson(4), presets.day(3), presets.hagemann_mitschke(4)])
def test_stages_equal_a_full_canonicalization(theory):
    """Each stage equals its `make_theory` rebuild, identities in order: the
    operators write their new identities canonically and append them to
    the parent's list, so canonicalizing every identity again changes
    nothing.  Runs on random theories, the presets and three larger
    family members, since nothing canonicalizes a stage at run time."""
    for operator in ("derivative", "order_derivative"):
        trace = iterate(theory, operator)
        for before, after in zip(trace.stages, trace.stages[1:]):
            expected = _stages_by_make_theory(before, operator)
            assert after == expected
            assert after.identities == expected.identities


def _join_by_make_theory(a, b, joined):
    """The join's identities rebuilt by `make_theory` from both theories'
    identities, with b's symbols renamed as the join recorded."""
    mapping = {old: joined.symbol_named(new) for old, new in joined.renames}
    renamed = [Identity(_rename_symbols(e.lhs, mapping), _rename_symbols(e.rhs, mapping))
               for e in b.identities]
    return make_theory(joined.name, joined.symbols, list(a.identities) + renamed,
                       renames=joined.renames)




@settings(max_examples=30, deadline=None)
@given(_theories_over("left", F2, G1, max_extra=2),
       _theories_over("right", H2, K1, max_extra=2),
       _theories_over("clash", F2, F0, max_extra=3),
       st.booleans())
def test_join_disjoint_equals_make_theory(left, right, clash, collapse):
    """With and without symbol renames, the join keeps both identity lists
    and canonicalizes only what a rename changed; `collapse` adds x = y to
    every theory, an identity without symbols that both sides then share.
    The same holds for `b` as `embedded_components` embeds it in the join."""
    if collapse:
        left, right, clash = (make_theory(t.name, t.symbols, t.identities + (Identity(X, Y),))
                              for t in (left, right, clash))
    for b in (right, clash):
        joined = join_disjoint(left, b)
        assert bool(joined.renames) == (b is clash)
        expected = _join_by_make_theory(left, b, joined)
        assert joined == expected and joined.identities == expected.identities
        a_emb, b_emb, joined_again = embedded_components(left, b)
        assert a_emb == left and joined_again == joined
        mapping = {old: joined.symbol_named(new) for old, new in joined.renames}
        expected_b = make_theory(
            b.name, [mapping.get(s.name, s) for s in b.symbols],
            [Identity(_rename_symbols(e.lhs, mapping), _rename_symbols(e.rhs, mapping))
             for e in b.identities])
        assert b_emb == expected_b and b_emb.identities == expected_b.identities


def _reference_expansions(theory, t, candidates, max_size):
    """The one-step rewrites of t, each with its step, as proof search
    enumerated them before candidates were sized ahead of building: build
    every one-step rewrite, then filter by size."""
    for eq in theory.identities:
        for forward in (True, False):
            src, dst = (eq.lhs, eq.rhs) if forward else (eq.rhs, eq.lhs)
            free = [v for v in term_variables(dst) if v not in term_variables(src)]
            for pos in positions(t):
                base = match_term(src, subterm_at(t, pos))
                if base is None:
                    continue
                for values in itertools.product(candidates, repeat=len(free)):
                    sigma = dict(base)
                    sigma.update(zip(free, values))
                    produced = replace_at(t, pos, apply_substitution(dst, sigma))
                    if term_size(produced) <= max_size:
                        yield produced, make_step(eq, forward, pos, sigma)


def _successors(rules, t, pool, max_size):
    """Every successor of the encoded t, each with the parent entry of its
    first occurrence, in the order `_expand` enters them into an empty map."""
    values = {n: list(itertools.product(range(pool), repeat=n))
              for n in {len(r.variables) - r.slots for r in rules}}
    seen = {}
    assert _expand(t, rules, values, max_size, seen, sys.maxsize, {}) is None
    return seen


def _assert_expansions_match_reference(theory, starts, max_size, levels=2, width=12):
    """Walk `levels` rewrite steps out from the starts, comparing each
    term's successors with the reference's first occurrences, in order, at
    the size bound."""
    x, y = VARS[0], VARS[1]
    candidates = (x, y, Variable("v0"), Variable("v1"))
    encoding = _Encoding(theory.symbols, candidates)
    rules = _search_rules(theory)
    frontier, seen = list(starts), set(starts)
    for _ in range(levels):
        reached = []
        for t in frontier:
            got = [(encoding.decode(produced), _step(entry, encoding))
                   for produced, entry in _successors(rules, encoding.encode(t),
                                                      len(candidates), max_size).items()]
            expected = {}
            for produced, step in _reference_expansions(theory, t, candidates, max_size):
                expected.setdefault(produced, step)
            assert got == list(expected.items()), t
            for produced, _ in got:
                if produced not in seen:
                    seen.add(produced)
                    reached.append(produced)
        frontier = reached[:width]


def _nested_starts(theory):
    """x, and F(G(x,y,x,...), y, x, ...) for every pair of symbols: terms
    larger than some bounds, with rewrites inside and at the root."""
    x, y = VARS[0], VARS[1]
    starts = [x]
    for f in theory.symbols:
        for g in theory.symbols:
            inner = Application(g, tuple((x, y)[i % 2] for i in range(g.arity)))
            starts.append(Application(
                f, (inner,) + tuple((y, x)[i % 2] for i in range(f.arity - 1))))
    return starts


@pytest.mark.parametrize("max_size", [1, 4, 7, 10])
def test_sized_expansions_equal_the_reference_on_presets(corpus, max_size):
    for theory in corpus:
        _assert_expansions_match_reference(theory, _nested_starts(theory), max_size)


@settings(max_examples=30, deadline=None)
@given(small_theories(), st.integers(1, 9))
def test_sized_expansions_equal_the_reference(theory, max_size):
    _assert_expansions_match_reference(theory, _nested_starts(theory), max_size, levels=3)
