"""First-order terms: positions, occurrences, matching, substitution,
renaming, and the integer layout of flat atoms.

Terms are immutable values; every function in this module is pure, so terms
can be shared freely between threads and used as dict keys.

Positions are tuples of 1-based child indices; the empty tuple is the root.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar, Union

_T = TypeVar("_T")


class LinvarError(Exception):
    """The base of every error the package raises, so a caller, the CLI
    among them, catches them all in one clause."""


class InvalidPositionError(LinvarError):
    """A position walked off the term it was applied to."""


class AtomSpaceTooLargeError(LinvarError):
    """A list with one entry per id of a `FlatLayout` does not fit."""


@dataclass(frozen=True, slots=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class OperationSymbol:
    name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True)
class Application:
    # `_hash` is a slot but not a dataclass field: set by the first __hash__
    __slots__ = ("symbol", "children", "_hash")

    symbol: OperationSymbol
    children: tuple["Term", ...]

    def __post_init__(self) -> None:
        if len(self.children) != self.symbol.arity:
            raise ValueError(
                f"{self.symbol.name} has arity {self.symbol.arity}, "
                f"got {len(self.children)} arguments"
            )

    def __hash__(self) -> int:
        """The hash the dataclass would compute, kept in the instance
        after the first call: hashing a term then costs one level, not
        its whole tree.  The fields are immutable, so it never goes stale."""
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.symbol, self.children))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # a kept hash is only valid under this process's string hash seed,
        # so copies and pickles rebuild the term from its fields
        return Application, (self.symbol, self.children)

    def __str__(self) -> str:
        return render_term(self)


Term = Union[Variable, Application]
Position = tuple[int, ...]
Substitution = Mapping[Variable, Term]

ROOT: Position = ()


def render_term(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    return f"{t.symbol.name}({','.join(render_term(c) for c in t.children)})"


def term_size(t: Term) -> int:
    """Number of nodes in the syntax tree."""
    if isinstance(t, Variable):
        return 1
    return 1 + sum(term_size(c) for c in t.children)


def term_depth(t: Term) -> int:
    if isinstance(t, Variable):
        return 0
    if not t.children:
        return 1
    return 1 + max(term_depth(c) for c in t.children)


def is_flat(t: Term) -> bool:
    """True for a variable or a symbol applied to variables only.

    Flat terms contain at most one operation symbol, which is what "linear"
    means for the identities this package works with.
    """
    if isinstance(t, Variable):
        return True
    return all(isinstance(c, Variable) for c in t.children)


def flat_parts(t: Term) -> tuple[Optional[str], tuple[Variable, ...]]:
    """(symbol name, or None for a variable; argument variables) of a flat
    term, the shape `FlatLayout.encode` takes with each argument as a value."""
    if isinstance(t, Variable):
        return None, (t,)
    if not is_flat(t):
        raise ValueError(f"{t} is not flat")
    return t.symbol.name, t.children  # type: ignore[return-value]


# A flat side as the engine reads it: the symbol name, or None for a bare
# variable, and the argument variables as indices.
FlatSide = tuple[Optional[str], tuple[int, ...]]

# A linear identity as the engine reads it: (lhs symbol name or None, lhs
# argument indices, rhs symbol name or None, rhs argument indices), with the
# variables numbered by first occurrence, lhs first.  A canonical identity's
# variable v<k> is index k.  `theories.identity_code` writes one.
Code = tuple[Optional[str], tuple[int, ...], Optional[str], tuple[int, ...]]


def code_width(code: Code) -> int:
    """The number of variables of a code (0 when only constants occur)."""
    return max(code[1] + code[3], default=-1) + 1


class FlatLayout:
    """Integer ids of the flat atoms over n values.

    Ids 0..n-1 are the values.  After them each symbol, in signature order,
    owns a block of n**arity ids, one per argument tuple in row-major order.
    Saturation reads the values as context variables; model search reads
    them as elements, and an atom's id as its table cell.  An id is affine
    in its digits, so the instances of a flat side are spread by one stride
    per variable instead of being encoded one at a time.
    """

    def __init__(self, symbols: Sequence[OperationSymbol], n: int):
        self.symbols = tuple(symbols)
        self.n = n
        self.offsets: dict[str, int] = {}
        total = n
        for s in self.symbols:
            self.offsets[s.name] = total
            total += n ** s.arity
        self.size = total

    def allocate(self, build: Callable[[], _T], task: str, values: str, ids: str,
                 count: Optional[int] = None) -> _T:
        """What `build` returns, by default a list with one entry per id;
        running out of memory, or past the platform's index range, raises
        `AtomSpaceTooLargeError` naming the task, n and `count` (the id
        count unless given)."""
        try:
            return build()
        except (MemoryError, OverflowError):
            raise AtomSpaceTooLargeError(
                f"{task} over {self.n} {values} needs "
                f"{self.size if count is None else count} {ids}; "
                "there is not enough memory for them") from None

    def encode(self, name: Optional[str], digits: Sequence[int]) -> int:
        """Id of the value digits[0] (name None) or of the atom name(digits)."""
        if name is None:
            return digits[0]
        index = 0
        for d in digits:
            index = index * self.n + d
        return self.offsets[name] + index

    def digits(self, i: int) -> tuple[Optional[str], tuple[int, ...]]:
        """The inverse of `encode`: (symbol name or None, values used)."""
        if i < self.n:
            return None, (i,)
        for s in reversed(self.symbols):
            offset = self.offsets[s.name]
            if i >= offset:
                digits = []
                rem = i - offset
                for _ in range(s.arity):
                    digits.append(rem % self.n)
                    rem //= self.n
                digits.reverse()
                return s.name, tuple(digits)
        raise IndexError(i)

    def strides(self, side: FlatSide, count: int) -> tuple[int, list[int]]:
        """The flat side's id with every variable at 0, and for each of the
        `count` variables, which include the side's, what one unit of its
        value adds."""
        name, args = side
        strides = [0] * count
        weight = 1
        for a in reversed(args):
            strides[a] += weight
            weight *= self.n
        return (0 if name is None else self.offsets[name]), strides

    def code_spread(self, code: Code) -> tuple[list[int], list[int], int, int, int]:
        """A code's instances as (lhs ids, rhs ids, lhs lead, rhs lead,
        count): the two sides' ids with variable 0 at value 0 and the other
        variables over every value in `itertools.product` order, what one
        unit of variable 0 adds to each side, and how many values it takes
        (1 for a code without variables).

        The instances with variable 0 at value k are the lists shifted by
        k times the leads, so no list outgrows n**(width - 1) ids.
        """
        width = code_width(code)
        lhs_zero, lhs_strides = self.strides(code[:2], width)
        rhs_zero, rhs_strides = self.strides(code[2:], width)
        lhs, rhs = [lhs_zero], [rhs_zero]
        values = range(self.n)
        for j in range(1, width):
            stride = lhs_strides[j]
            lhs = [i + k * stride for i in lhs for k in values]
            stride = rhs_strides[j]
            rhs = [i + k * stride for i in rhs for k in values]
        if not width:
            return lhs, rhs, 0, 0, 1
        return lhs, rhs, lhs_strides[0], rhs_strides[0], self.n

    def code_instances(self, code: Code) -> Iterator[tuple[list[int], list[int]]]:
        """The ids of both sides of every instance of a code, in
        `itertools.product` order, as one pair of lists per value of
        variable 0 (`code_spread` shifted)."""
        lhs, rhs, lhs_lead, rhs_lead, count = self.code_spread(code)
        for k in range(count):
            yield [i + k * lhs_lead for i in lhs], [i + k * rhs_lead for i in rhs]


def positions(t: Term, prefix: Position = ()) -> Iterator[Position]:
    """All positions of t in preorder, root first."""
    yield prefix
    if isinstance(t, Application):
        for i, c in enumerate(t.children, start=1):
            yield from positions(c, prefix + (i,))


def subterm_at(t: Term, p: Position) -> Term:
    cur = t
    for i in p:
        if isinstance(cur, Variable) or not 1 <= i <= len(cur.children):
            raise InvalidPositionError(f"position {list(p)} invalid in {render_term(t)}")
        cur = cur.children[i - 1]
    return cur


def replace_at(t: Term, p: Position, u: Term) -> Term:
    if not p:
        return u
    i = p[0]
    if isinstance(t, Variable) or not 1 <= i <= len(t.children):
        raise InvalidPositionError(f"position {list(p)} invalid in {render_term(t)}")
    children = list(t.children)
    children[i - 1] = replace_at(children[i - 1], p[1:], u)
    return Application(t.symbol, tuple(children))


def variable_occurrences(t: Term) -> Iterator[tuple[Position, Variable]]:
    for p in positions(t):
        s = subterm_at(t, p)
        if isinstance(s, Variable):
            yield p, s


def term_variables(t: Term) -> tuple[Variable, ...]:
    """Distinct variables of t in order of first occurrence (preorder)."""
    seen: dict[Variable, None] = {}
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Variable):
            seen.setdefault(cur)
        else:
            stack.extend(reversed(cur.children))
    return tuple(seen)


def term_symbols(t: Term) -> frozenset[OperationSymbol]:
    if isinstance(t, Variable):
        return frozenset()
    out = {t.symbol}
    for c in t.children:
        out |= term_symbols(c)
    return frozenset(out)


def apply_substitution(t: Term, subst: Substitution) -> Term:
    """Homomorphic image of t; variables outside the map are left unchanged."""
    if isinstance(t, Variable):
        return subst.get(t, t)
    return Application(t.symbol, tuple(apply_substitution(c, subst) for c in t.children))


def compose_substitutions(first: Substitution, second: Substitution) -> dict[Variable, Term]:
    """The substitution equivalent to applying `first` then `second`."""
    out = {v: apply_substitution(t, second) for v, t in first.items()}
    for v, t in second.items():
        out.setdefault(v, t)
    return out


def match_term(pattern: Term, target: Term) -> Optional[dict[Variable, Term]]:
    """One-sided syntactic matching: a substitution s with s(pattern) = target.

    Returns None when no such substitution exists.  The result is unique and
    restricted to the pattern's variables.
    """
    out: dict[Variable, Term] = {}
    stack = [(pattern, target)]
    while stack:
        p, t = stack.pop()
        if isinstance(p, Variable):
            bound = out.get(p)
            if bound is None:
                out[p] = t
            elif bound != t:
                return None
        else:
            if not isinstance(t, Application) or t.symbol != p.symbol:
                return None
            stack.extend(zip(p.children, t.children))
    return out


def canonical_variable(i: int) -> Variable:
    return Variable(f"v{i}")


def canonical_enumeration() -> Iterator[Variable]:
    for i in itertools.count():
        yield canonical_variable(i)


def fresh_variables(avoid: Iterable[str]) -> Iterator[Variable]:
    """Canonical enumeration, skipping names already in use."""
    taken = set(avoid)
    for v in canonical_enumeration():
        if v.name not in taken:
            yield v


def rename_jointly(terms: Iterable[Term]) -> tuple[tuple[Term, ...], dict[Variable, Variable]]:
    """Rename variables to v0, v1, ... by first occurrence across all terms."""
    mapping: dict[Variable, Variable] = {}
    renamed = []
    for t in terms:
        for v in term_variables(t):
            if v not in mapping:
                mapping[v] = canonical_variable(len(mapping))
        renamed.append(apply_substitution(t, mapping))
    return tuple(renamed), mapping


def canonical_rename(t: Term) -> Term:
    """Variables renamed to v0, v1, ... in preorder first-occurrence order.

    Idempotent; two terms have equal canonical forms exactly when they are
    equal up to an injective renaming of variables.
    """
    (renamed,), _ = rename_jointly([t])
    return renamed


def term_key(t: Term):
    """Total order key: variables before applications, applications by
    symbol name, then arity, then children."""
    if isinstance(t, Variable):
        return (0, t.name)
    return (1, t.symbol.name, t.symbol.arity, tuple(term_key(c) for c in t.children))
