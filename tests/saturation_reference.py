"""Saturation as it stood before the kernel united instance pairs in place:
each side's instances come from a generator of their own, and each pair is
united through a method call that finds both roots.  Kept as the oracle of
the differential test in `test_saturation.py`, the way `verify_reference`
keeps the replaying verifier; it reads the package's own `FlatLayout` and
codes, so the two partitions compare atom by atom.  `fact_entailed` reads
one fact at a time through a base's term interface, the oracle of what
`FlatFactBase.v0_facts` lists."""
from __future__ import annotations

from typing import Callable, Iterator

from linvar.terms import Application, FlatLayout, FlatSide, canonical_variable, code_width
from linvar.theories import Theory


def instances(layout: FlatLayout, side: FlatSide, count: int) -> Iterator[list[int]]:
    """Ids of the flat side under every assignment of its `count`
    variables to values, in `itertools.product` order, one list per value
    of variable 0."""
    zero, strides = layout.strides(side, count)
    # an identity without variables has one instance: one list, [zero]
    lead, *rest = strides or [0]
    ids = [zero]
    for stride in rest:
        ids = [i + k * stride for i in ids for k in range(layout.n)]
    yield ids
    for k in range(1, layout.n if count else 1):
        yield [i + k * lead for i in ids]


class ReferenceBase(FlatLayout):
    """The finest partition of the flat atoms over `budget` values that
    merges every instance pair of the theory's codes."""

    def __init__(self, theory: Theory, budget: int):
        super().__init__(theory.symbols, budget)
        self._parent = list(range(self.size))
        for code in theory.codes:
            if code is None:
                raise ValueError("flat saturation needs a linear theory")
            width = code_width(code)
            for lhs, rhs in zip(instances(self, code[:2], width),
                                instances(self, code[2:], width)):
                for a, c in zip(lhs, rhs):
                    if a != c:
                        self._union(a, c)

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def _union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


def partition(find: Callable[[int], int], size: int) -> tuple[int, ...]:
    """Each atom's class as the smallest atom in it: equal tuples, equal
    partitions, whichever atoms the two union-finds keep as roots."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(find(i), i) for i in range(size))


def fact_entailed(base, symbol, w: tuple[int, ...]) -> bool:
    """Does the base put the atom symbol(v<w>) in the class of v0, or merge
    v0 and v1?  The atom is built as a term and found by `atom_id`."""
    atom = Application(symbol, tuple(canonical_variable(d) for d in w))
    return base.variables_merged() or base.same_class(0, base.atom_id(atom))
