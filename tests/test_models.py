import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from linvar.dsl import parse_identity, parse_term
from linvar.models import (
    FiniteAlgebra,
    eval_term,
    find_model,
    refute_entailment,
    satisfies,
)
from linvar import presets
from linvar.presets import maltsev, semilattice
from linvar.terms import OperationSymbol, Variable
from linvar.theories import Identity
from test_random_theories import small_theories, ternary_theories


P3 = OperationSymbol("p", 3)
M2 = OperationSymbol("m", 2)

# p(a,b,c) = a xor b xor c on {0,1}, row-major over (a,b,c)
XOR = FiniteAlgebra(2, (P3,), {"p": tuple(a ^ b ^ c for a, b, c in
                                          itertools.product((0, 1), repeat=3))})
# m(a,b) = min(a,b) on {0,1}
MIN = FiniteAlgebra(2, (M2,), {"m": (0, 0, 0, 1)})


def brute_force_holds(algebra, identity):
    """Independent oracle: exhaustive evaluation with explicit loops."""
    from linvar.theories import identity_variables

    vs = identity_variables(identity)
    for values in itertools.product(range(algebra.size), repeat=len(vs)):
        rho = dict(zip(vs, values))
        if eval_term(algebra, identity.lhs, rho) != eval_term(algebra, identity.rhs, rho):
            return False
    return True


class TestEvalTerm:
    def test_xor(self):
        rho = {Variable("x"): 1, Variable("y"): 0}
        assert eval_term(XOR, parse_term("p(x,y,y)"), rho) == 1

    def test_variable(self):
        assert eval_term(XOR, Variable("x"), {Variable("x"): 1}) == 1

    def test_min(self):
        rho = {Variable("x"): 0, Variable("y"): 1}
        assert eval_term(MIN, parse_term("m(x,y)"), rho) == 0


class TestSatisfies:
    def test_xor_models_maltsev(self):
        theory = maltsev()
        for e in theory.identities:
            assert brute_force_holds(XOR, e)
        assert satisfies(XOR, theory)

    def test_min_models_semilattice(self):
        theory = semilattice()
        for e in theory.identities:
            assert brute_force_holds(MIN, e)
        assert satisfies(MIN, theory)

    def test_one_element_algebra_models_everything(self):
        trivial = FiniteAlgebra(1, (P3,), {"p": (0,)})
        assert satisfies(trivial, maltsev())

    def test_failure_reports_witness(self):
        broken = FiniteAlgebra(2, (M2,), {"m": (0, 0, 1, 1)})  # first projection
        result = satisfies(broken, semilattice())
        assert not result
        assert result.violated is not None
        assert result.assignment is not None


def enumerate_semilattice_tables():
    """Oracle: every binary table on {0,1}, lexicographic, filtered directly."""
    for table in itertools.product((0, 1), repeat=4):
        def m(a, b):
            return table[a * 2 + b]
        if all(m(a, a) == a for a in (0, 1)) and \
           all(m(a, b) == m(b, a) for a in (0, 1) for b in (0, 1)):
            yield table


class TestFindModel:
    def test_semilattice_first_model_is_min(self):
        expected = next(enumerate_semilattice_tables())
        found = find_model(semilattice(), 2, 2)
        assert found is not None
        algebra, _ = found
        assert algebra.tables["m"] == expected == (0, 0, 0, 1)

    def test_inconsistent_theory_has_no_model(self):
        from linvar.derivatives import derivative

        assert find_model(derivative(maltsev()), 2, 3) is None

    def test_maltsev_refutation_witness(self):
        goal = parse_identity("x = p(y,x,x)")
        found = find_model(maltsev(), 2, 2, goal)
        assert found is not None
        algebra, rho = found
        assert satisfies(algebra, maltsev())
        assert eval_term(algebra, goal.lhs, rho) != eval_term(algebra, goal.rhs, rho)

    def test_found_models_always_satisfy(self, corpus):
        for theory in corpus:
            found = find_model(theory, 2, 2)
            assert found is not None, theory.name
            algebra, _ = found
            assert satisfies(algebra, theory), theory.name

    def test_deterministic(self):
        a = find_model(maltsev(), 2, 3)
        b = find_model(maltsev(), 2, 3)
        assert a is not None and b is not None
        assert a[0] == b[0]
        # one theory object keeps its first model, but each call gets its own
        theory = maltsev()
        c, d = find_model(theory, 2, 3), find_model(theory, 2, 3)
        assert c[0] == d[0] and c[0].tables is not d[0].tables


class TestRefuteEntailment:
    def test_refutes_non_consequence(self):
        found = refute_entailment(maltsev(), parse_identity("x = p(y,x,x)"), 2, 3)
        assert found is not None
        algebra, rho = found
        goal = parse_identity("x = p(y,x,x)")
        assert eval_term(algebra, goal.lhs, rho) != eval_term(algebra, goal.rhs, rho)

    def test_cannot_refute_axiom(self):
        assert refute_entailment(maltsev(), parse_identity("p(x,y,y) = x"), 2, 3) is None

    def test_separates_variables_in_consistent_theory(self):
        found = refute_entailment(semilattice(), parse_identity("x = y"), 2, 2)
        assert found is not None
        algebra, rho = found
        assert rho[Variable("x")] != rho[Variable("y")]

    def test_json_round_trip(self):
        from linvar.models import algebra_from_json

        data = XOR.to_json()
        assert data == {"size": 2, "tables": {"p": [0, 1, 1, 0, 1, 0, 0, 1]}}
        again = algebra_from_json(data, (P3,))
        assert again == XOR


class TestAlgebraFromJsonRefusesForgedTables:
    """A forged model must not reach `satisfies`: a size-0 algebra has no
    assignment to check, so it would satisfy every theory."""

    TABLE = [0, 1, 1, 0, 1, 0, 0, 1]

    def _refused(self, data, match, symbols=(P3,)):
        from linvar.models import algebra_from_json

        with pytest.raises(ValueError, match=match):
            algebra_from_json(data, symbols)

    @pytest.mark.parametrize("size", [0, -1, 2.0, "2", True, None])
    def test_a_size_that_is_not_an_int_of_at_least_1(self, size):
        self._refused({"size": size, "tables": {"p": self.TABLE}}, "model size")

    @pytest.mark.parametrize("length", [0, 4, 7, 9])
    def test_a_table_of_the_wrong_length(self, length):
        table = (self.TABLE * 2)[:length]
        self._refused({"size": 2, "tables": {"p": table}}, r"has %d entries, not 2\*\*3" % length)

    @pytest.mark.parametrize("value", [2, -1, 1.0, "1", True, None])
    def test_a_value_outside_the_elements(self, value):
        self._refused({"size": 2, "tables": {"p": [value] + self.TABLE[1:]}},
                      r"not an element of range\(2\)")

    def test_a_missing_or_an_extra_symbol(self):
        self._refused({"size": 2, "tables": {}}, "model tables name")
        self._refused({"size": 2, "tables": {"p": self.TABLE, "q": [0, 1]}},
                      "model tables name")
        self._refused({"size": 2, "tables": {"p": self.TABLE}}, "model tables name",
                      symbols=(P3, OperationSymbol("q", 1)))


def test_model_completeness_does_not_rely_on_assert():
    # python -O strips asserts; a search that leaves a table cell undecided
    # must still raise instead of returning that table as a model
    script = "\n".join([
        "import sys",
        "from linvar import models",
        "from linvar.presets import semilattice",
        "models._TableSearch._first_undecided = lambda self, start: None",
        "try:",
        "    models.find_model(semilattice(), 2, 2)",
        "except models.IncompleteModelError:",
        "    print('raised', sys.flags.optimize)",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["raised", "1"]


# -- differential test against the nested-tuple search -------------------------


def _reference_explicitly_idempotent(theory):
    from linvar.theories import canonicalize_identity, idempotency_identity

    canon = theory.identity_set()
    return frozenset(
        s.name for s in theory.symbols
        if s.arity >= 1 and canonicalize_identity(idempotency_identity(s)) in canon
    )


class _ReferenceTableSearch:
    """The model search as it was before the flat cell array: per-symbol
    tables, ground instances as nested tuples, and propagation that
    re-evaluates every instance until nothing changes."""

    def __init__(self, theory, size, fix_diagonals, constraint=None):
        self.theory = theory
        self.size = size
        self.symbols = theory.symbols
        self.tables = {s.name: [None] * (size ** s.arity) for s in self.symbols}
        self.trail = []
        self.instances = self._ground_instances()
        self.constraint_instances = self._constraint_instances(constraint)
        if fix_diagonals:
            idempotent = _reference_explicitly_idempotent(theory)
            for sym in self.symbols:
                if sym.name in idempotent:
                    for a in range(size):
                        self.tables[sym.name][self._index((a,) * sym.arity)] = a

    def _index(self, args):
        index = 0
        for a in args:
            index = index * self.size + a
        return index

    def _ground_instances(self):
        from linvar.theories import identity_variables

        out = []
        for e in self.theory.identities:
            vs = identity_variables(e)
            for values in itertools.product(range(self.size), repeat=len(vs)):
                rho = dict(zip(vs, values))
                out.append((self._ground(e.lhs, rho), self._ground(e.rhs, rho)))
        return out

    def _ground(self, t, rho):
        if isinstance(t, Variable):
            return rho[t]
        return (t.symbol.name, tuple(self._ground(c, rho) for c in t.children))

    def _eval(self, t):
        if isinstance(t, int):
            return t
        name, children = t
        args = []
        for c in children:
            v = self._eval(c)
            if v is None:
                return None
            args.append(v)
        return self.tables[name][self._index(tuple(args))]

    def _root_cell(self, t):
        if isinstance(t, int):
            return None
        name, children = t
        args = []
        for c in children:
            v = self._eval(c)
            if v is None:
                return None
            args.append(v)
        index = self._index(tuple(args))
        if self.tables[name][index] is None:
            return (name, index)
        return None

    def _set(self, name, index, value):
        cur = self.tables[name][index]
        if cur is not None:
            return cur == value
        self.tables[name][index] = value
        self.trail.append((name, index))
        return True

    def _propagate(self):
        changed = True
        while changed:
            changed = False
            for lhs, rhs in self.instances:
                lv = self._eval(lhs)
                rv = self._eval(rhs)
                if lv is not None and rv is not None:
                    if lv != rv:
                        return False
                    continue
                if lv is not None and rv is None:
                    cell = self._root_cell(rhs)
                    if cell is not None:
                        if not self._set(cell[0], cell[1], lv):
                            return False
                        changed = True
                elif rv is not None and lv is None:
                    cell = self._root_cell(lhs)
                    if cell is not None:
                        if not self._set(cell[0], cell[1], rv):
                            return False
                        changed = True
        return True

    def _first_undecided(self):
        for s in self.symbols:
            for index, value in enumerate(self.tables[s.name]):
                if value is None:
                    return (s.name, index)
        return None

    def _constraint_instances(self, constraint):
        from linvar.terms import term_variables

        if constraint is None:
            return None
        vs = list(dict.fromkeys(term_variables(constraint.lhs) + term_variables(constraint.rhs)))
        out = []
        for values in itertools.product(range(self.size), repeat=len(vs)):
            rho = dict(zip(vs, values))
            out.append((self._ground(constraint.lhs, rho),
                        self._ground(constraint.rhs, rho), rho))
        return out

    def _constraint_status(self):
        undecided = False
        for lhs, rhs, rho in self.constraint_instances:
            lv = self._eval(lhs)
            rv = self._eval(rhs)
            if lv is None or rv is None:
                undecided = True
            elif lv != rv:
                return rho, undecided
        return None, undecided

    def _freeze(self):
        tables = {name: tuple(tab) for name, tab in self.tables.items()}
        return FiniteAlgebra(self.size, self.symbols, tables)

    def run(self):
        if not self._propagate():
            return None
        return self._search()

    def _search(self):
        if self.constraint_instances is not None:
            witness, undecided = self._constraint_status()
            if witness is None and not undecided:
                return None
        cell = self._first_undecided()
        if cell is None:
            if self.constraint_instances is None:
                return self._freeze(), {}
            witness, _ = self._constraint_status()
            if witness is None:
                return None
            return self._freeze(), witness
        name, index = cell
        for value in range(self.size):
            mark = len(self.trail)
            ok = self._set(name, index, value) and self._propagate()
            if ok:
                found = self._search()
                if found is not None:
                    return found
            while len(self.trail) > mark:
                n, i = self.trail.pop()
                self.tables[n][i] = None
        return None


def _reference_find_model(theory, lo, hi, constraint=None, fix_idempotent_diagonals=True):
    for size in range(lo, hi + 1):
        found = _ReferenceTableSearch(theory, size, fix_idempotent_diagonals, constraint).run()
        if found is not None:
            return found
    return None


def _goals(theory):
    """(lhs, rhs) of flat and of nested non-linear goals over the theory's
    first symbol of positive arity."""
    from linvar.terms import Application

    x, y, z = Variable("x"), Variable("y"), Variable("z")
    f = next(s for s in theory.symbols if s.arity >= 1)

    def F(*args):
        return Application(f, tuple(args[i % len(args)] for i in range(f.arity)))

    return [
        (x, y),
        (x, F(x, y)),
        (x, F(y, x)),
        (F(x, y), F(y, x)),
        (F(x, y, z), F(z, y, x)),
        (F(F(x, y), y), y),                  # nested, non-linear
        (F(x, F(y, x)), F(F(x, y), x)),      # nested on both sides
        (x, F(F(y, y), F(x, y), z)),
    ]


def _assert_same_models(theory):
    """Equal results at sizes 1-3, with no goal and with each goal of
    `_goals`.  The search fixes no diagonal ahead of propagation, and
    equals the reference both with and without it."""
    constraints = [None] + [Identity(lhs, rhs) for lhs, rhs in _goals(theory)]
    identities = [str(e) for e in theory.identities]
    for size in (1, 2, 3):
        for constraint in constraints:
            got = find_model(theory, size, size, constraint)
            for fix in (True, False):
                want = _reference_find_model(theory, size, size, constraint, fix)
                label = (theory.name, identities, size, constraint, fix)
                if want is None:
                    assert got is None, label
                    continue
                assert got is not None, label
                assert got[0] == want[0], label
                assert list(got[1].items()) == list(want[1].items()), label


@settings(max_examples=25, deadline=None)
@given(small_theories())
def test_model_search_equals_the_reference(theory):
    _assert_same_models(theory)


@settings(max_examples=25, deadline=None)
@given(ternary_theories())
def test_model_search_equals_the_reference_on_ternary_theories(theory):
    _assert_same_models(theory)


def test_model_search_equals_the_reference_on_preset_stages(corpus):
    from linvar.derivatives import iterate

    stages = {}
    for theory in corpus:
        for operator in ("derivative", "order_derivative"):
            for stage in iterate(theory, operator).stages:
                stages.setdefault(stage, None)
    for stage in stages:
        _assert_same_models(stage)


def test_model_search_equals_the_reference_on_nested_theories():
    from linvar.dsl import parse_theory

    for text in ("theory n1\nop m/2\naxiom m(x,x) = x\naxiom m(m(x,y),y) = m(x,y)\n",
                 "theory n2\nop p/3\naxiom p(x,x,x) = x\naxiom p(p(x,y,z),y,y) = y\n",
                 "theory n3\nop m/2\naxiom m(m(x,y),m(y,x)) = x\n"):
        _assert_same_models(parse_theory(text))



# -- the first model of each size ---------------------------------------------


def _count_searches(monkeypatch):
    """Record, per `_TableSearch` built, whether it has a goal."""
    from linvar import models

    constrained = []
    init = models._TableSearch.__init__

    def spy(self, layout, instances, goal):
        constrained.append(goal is not None)
        init(self, layout, instances, goal)

    monkeypatch.setattr(models._TableSearch, "__init__", spy)
    return constrained


def test_a_goal_the_first_model_does_not_separate_is_searched_for(monkeypatch):
    """The first model of m(x,x) = x on two elements is min, which is
    commutative; the constrained search still finds the parent's answer."""
    from linvar.theories import make_theory

    theory = make_theory("idem", [M2], [parse_identity("m(x,x) = x")])
    constrained = _count_searches(monkeypatch)
    assert find_model(theory, 2, 2)[0].tables["m"] == (0, 0, 0, 1)
    found = refute_entailment(theory, parse_identity("m(x,y) = m(y,x)"), 2, 3)
    assert found is not None
    algebra, rho = found
    assert algebra.tables["m"] == (0, 0, 1, 1)
    assert rho == {Variable("x"): 0, Variable("y"): 1}
    assert constrained == [False, True]


def test_a_goal_no_two_element_model_separates_is_answered_at_three(monkeypatch):
    """x = p2(y1,y2,x) over jonsson3's first order derivative: the size-2
    search comes up empty, and the first model of size 3 separates it."""
    from linvar.derivatives import iterate

    stage = iterate(presets.jonsson(3), "order_derivative").stages[1]
    goal = parse_identity("x = p2(y1,y2,x)")
    constrained = _count_searches(monkeypatch)
    found = refute_entailment(stage, goal, 2, 3)
    assert constrained == [False, True, False]
    assert refute_entailment(stage, goal, 2, 2) is None
    assert found is not None
    algebra, rho = found
    assert algebra.size == 3 and algebra == find_model(stage, 3, 3)[0]
    assert rho == {Variable("x"): 1, Variable("y1"): 0, Variable("y2"): 2}
    want = _reference_find_model(stage, 2, 3, goal)
    assert (algebra, list(rho.items())) == (want[0], list(want[1].items()))


def test_model_searches_per_stage_and_size_are_pinned(monkeypatch):
    """Deciding every x = y and x = F(w) over the presets' stages searches
    once per stage and size it reaches, plus once per goal the first model
    does not separate: 17 and 4, where a search per refuted goal and size
    would be 480."""
    from linvar.derivatives import _canonical_tuples, iterate
    from linvar.saturation import entails_flat, saturate
    from linvar.terms import Application

    constrained = _count_searches(monkeypatch)
    stages = {}
    for theory in presets.presets():
        for operator in ("derivative", "order_derivative"):
            for stage in iterate(theory, operator).stages:
                stages[id(stage)] = stage
                goals = [parse_identity("x = y")]
                goals += [Identity(Variable("x"), Application(s, tuple(
                              Variable(f"y{d}" if d else "x") for d in w)))
                          for s in stage.symbols for w in _canonical_tuples(s.arity, s.arity + 1)]
                for goal in goals:
                    entails_flat(saturate(stage), goal)
    reached = sum(key[0] == "models" for stage in stages.values() for key in stage._memo)
    assert constrained.count(False) == reached == 17
    assert constrained.count(True) == 4
