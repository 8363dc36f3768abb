import itertools
import os
import subprocess
import sys
from pathlib import Path

from linvar.dsl import parse_identity, parse_term
from linvar.models import (
    Disequality,
    FiniteAlgebra,
    eval_term,
    find_model,
    refute_entailment,
    satisfies,
)
from linvar.presets import maltsev, semilattice
from linvar.terms import OperationSymbol, Variable


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
        found = find_model(maltsev(), 2, 2,
                           Disequality(goal.lhs, goal.rhs))
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

    def test_diagonal_pruning_preserves_findability(self, corpus):
        # On explicitly idempotent theories the pruned search must succeed
        # whenever the unpruned one does.
        for theory in corpus:
            unpruned = find_model(theory, 2, 2, fix_idempotent_diagonals=False)
            pruned = find_model(theory, 2, 2, fix_idempotent_diagonals=True)
            assert (unpruned is None) == (pruned is None), theory.name
            if pruned is not None:
                assert satisfies(pruned[0], theory)


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


def test_model_completeness_does_not_rely_on_assert():
    # python -O strips asserts; a search that leaves a table cell undecided
    # must still raise instead of returning that table as a model
    script = "\n".join([
        "import sys",
        "from linvar import models",
        "from linvar.presets import semilattice",
        "models._TableSearch._first_undecided = lambda self: None",
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
