import pytest

from linvar import presets
from linvar.terms import Application, OperationSymbol, Variable
from linvar.theories import Identity, make_theory


@pytest.fixture(scope="session")
def corpus():
    return presets.presets()


@pytest.fixture
def maltsev():
    return presets.maltsev()


@pytest.fixture
def majority():
    return presets.majority()


@pytest.fixture
def semilattice():
    return presets.semilattice()


def near_unanimity(n):
    """n-ary near-unanimity: f(x,...,y,...,x) = x with y at each place."""
    f = OperationSymbol("f", n)
    x, y = Variable("x"), Variable("y")
    return make_theory(f"nu{n}", [f], [
        Identity(Application(f, tuple(y if j == i else x for j in range(n))), x)
        for i in range(n)])


@pytest.fixture(scope="session")
def families():
    """The scaled family members the benchmark classifies."""
    return ([presets.jonsson(n) for n in (4, 5, 6)] + [presets.day(3)]
            + [presets.hagemann_mitschke(k) for k in (4, 5, 6)]
            + [near_unanimity(n) for n in (3, 4)])
