"""A corpus of linear idempotent theories used throughout the test suite."""
from __future__ import annotations

from .terms import Application, OperationSymbol, Variable
from .theories import Identity, Theory, make_theory

_x = Variable("x")
_y = Variable("y")
_z = Variable("z")
_w = Variable("w")


def maltsev() -> Theory:
    p = OperationSymbol("p", 3)
    return make_theory("maltsev", [p], [
        Identity(Application(p, (_x, _y, _y)), _x),
        Identity(Application(p, (_y, _y, _x)), _x),
    ])


def majority() -> Theory:
    m = OperationSymbol("m", 3)
    return make_theory("majority", [m], [
        Identity(Application(m, (_x, _x, _y)), _x),
        Identity(Application(m, (_x, _y, _x)), _x),
        Identity(Application(m, (_y, _x, _x)), _x),
    ])


def semilattice() -> Theory:
    m = OperationSymbol("m", 2)
    return make_theory("semilattice", [m], [
        Identity(Application(m, (_x, _x)), _x),
        Identity(Application(m, (_x, _y)), Application(m, (_y, _x))),
    ])


def jonsson(n: int = 3) -> Theory:
    """Directed chain of ternary terms witnessing congruence distributivity.

    The chain has endpoints folded in: with symbols p1 .. p_{n-1},
    x = p1(x,x,y), each pi(x,y,x) = x, alternating links, and the last
    link collapsing to y.
    """
    if n < 2:
        raise ValueError("chain length must be at least 2")
    syms = [OperationSymbol(f"p{i}", 3) for i in range(1, n)]
    ids: list[Identity] = [Identity(_x, Application(syms[0], (_x, _x, _y)))]
    ids += [Identity(Application(s, (_x, _y, _x)), _x) for s in syms]
    for i in range(1, n - 1):
        a, b = syms[i - 1], syms[i]
        if i % 2 == 1:
            ids.append(Identity(Application(a, (_x, _y, _y)), Application(b, (_x, _y, _y))))
        else:
            ids.append(Identity(Application(a, (_x, _x, _y)), Application(b, (_x, _x, _y))))
    last = syms[-1]
    if (n - 1) % 2 == 1:
        ids.append(Identity(Application(last, (_x, _y, _y)), _y))
    else:
        ids.append(Identity(Application(last, (_x, _x, _y)), _y))
    return make_theory(f"jonsson{n}", syms, ids)


def day(n: int = 2) -> Theory:
    """Directed chain of quaternary terms witnessing congruence modularity."""
    if n < 2:
        raise ValueError("chain length must be at least 2")
    syms = [OperationSymbol(f"m{i}", 4) for i in range(1, n)]
    ids: list[Identity] = [Identity(_x, Application(syms[0], (_x, _x, _w, _w)))]
    ids += [Identity(Application(s, (_x, _y, _y, _x)), _x) for s in syms]
    for i in range(1, n - 1):
        a, b = syms[i - 1], syms[i]
        if i % 2 == 1:
            ids.append(Identity(Application(a, (_x, _y, _y, _w)),
                                Application(b, (_x, _y, _y, _w))))
        else:
            ids.append(Identity(Application(a, (_x, _x, _w, _w)),
                                Application(b, (_x, _x, _w, _w))))
    last = syms[-1]
    if (n - 1) % 2 == 1:
        ids.append(Identity(Application(last, (_x, _y, _y, _w)), _w))
    else:
        ids.append(Identity(Application(last, (_x, _x, _w, _w)), _w))
    return make_theory(f"day{n}", syms, ids)


def hagemann_mitschke(k: int = 2) -> Theory:
    """Chain of ternary terms witnessing (k+1)-permutability."""
    if k < 1:
        raise ValueError("chain length must be at least 1")
    syms = [OperationSymbol(f"q{i}", 3) for i in range(1, k + 1)]
    ids: list[Identity] = [Identity(_x, Application(syms[0], (_x, _y, _y)))]
    for i in range(k - 1):
        ids.append(Identity(Application(syms[i], (_x, _x, _y)),
                            Application(syms[i + 1], (_x, _y, _y))))
    ids.append(Identity(Application(syms[-1], (_x, _x, _y)), _y))
    return make_theory(f"hagemann_mitschke{k}", syms, ids)


def presets() -> list[Theory]:
    return [
        maltsev(),
        majority(),
        semilattice(),
        jonsson(3),
        day(2),
        hagemann_mitschke(2),
        hagemann_mitschke(3),
    ]
