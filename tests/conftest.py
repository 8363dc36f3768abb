import pytest

from linvar import presets


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


@pytest.fixture(scope="session")
def families():
    """The scaled family members the benchmark classifies."""
    return ([presets.jonsson(n) for n in (4, 5, 6)] + [presets.day(3)]
            + [presets.hagemann_mitschke(k) for k in (4, 5, 6)]
            + [presets.near_unanimity(n) for n in (3, 4)])
