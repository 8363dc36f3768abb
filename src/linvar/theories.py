"""Identities, signatures and theories.

A theory is a named signature plus a finite set of identities.  Identities
are unordered pairs of terms; theories store them in a canonical form so
that set-level comparisons (needed when comparing iterated derivatives)
are plain syntactic equality.  Construction order is preserved, which keeps
original axioms ahead of derived identities in search orders.

`canonicalize_identity` runs only on identities from outside the program,
in `make_theory`, and on those a symbol rename changed, in `_embed`, which
embeds the right component of a join for both `join_disjoint` and
`embedded_components`.  The derivatives and `idempotency_identity` write
their identities in canonical form.

The engine reads a linear identity as its code (`terms.Code`, written by
`identity_code`): symbol names and variable indices, with no terms.  A
code stands for one canonical identity (`code_identity`), so for
canonical identities comparing codes is comparing identities.  Every
theory has its `codes`; the derivatives build their stages with
`Theory.extended` from codes alone, and such a stage builds its
`identities` the first time they are read.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Optional

from .terms import (
    Application,
    Code,
    LinvarError,
    OperationSymbol,
    Term,
    Variable,
    canonical_variable,
    is_flat,
    rename_jointly,
    render_term,
    term_symbols,
    term_variables,
)


class UnknownSymbolError(LinvarError):
    """An identity uses an operation symbol outside the theory's signature."""


class SignatureMismatchError(LinvarError):
    """Two theories over different signatures were compared."""


@dataclass(frozen=True, slots=True)
class Identity:
    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{render_term(self.lhs)} = {render_term(self.rhs)}"


def identity_variables(e: Identity) -> tuple[Variable, ...]:
    seen: dict[Variable, None] = {}
    for v in term_variables(e.lhs) + term_variables(e.rhs):
        seen.setdefault(v)
    return tuple(seen)


def identity_symbols(e: Identity) -> frozenset[OperationSymbol]:
    return term_symbols(e.lhs) | term_symbols(e.rhs)


def is_linear_identity(e: Identity) -> bool:
    """Both sides contain at most one operation symbol."""
    return is_flat(e.lhs) and is_flat(e.rhs)


def identity_code(e: Identity) -> Optional[Code]:
    """The code of a linear identity, variables numbered by first
    occurrence; None for a non-linear one, which has no code."""
    index: dict[Variable, int] = {}
    code: list[object] = []
    for side in (e.lhs, e.rhs):
        if isinstance(side, Variable):
            code += (None, (index.setdefault(side, len(index)),))
            continue
        args = []
        for v in side.children:
            if not isinstance(v, Variable):
                return None
            args.append(index.setdefault(v, len(index)))
        code += (side.symbol.name, tuple(args))
    return tuple(code)  # type: ignore[return-value]


def code_identity(code: Code, symbols: dict[str, OperationSymbol]) -> Identity:
    """The identity a code stands for, over v0, v1, ... and the symbols
    named in `symbols`: the canonical identity, for a code of one."""
    sides = []
    for name, args in (code[:2], code[2:]):
        vs = tuple(map(canonical_variable, args))
        sides.append(vs[0] if name is None else Application(symbols[name], vs))
    return Identity(*sides)


def _renamed_key(t: Term, names: dict[Variable, str]) -> tuple:
    """`term_key` of t with its variables renamed v0, v1, ... by first
    occurrence, continuing the renaming in `names`, without building the
    renamed term."""
    if isinstance(t, Variable):
        return (0, names.setdefault(t, canonical_variable(len(names)).name))
    return (1, t.symbol.name, t.symbol.arity,
            tuple(_renamed_key(c, names) for c in t.children))


def canonicalize_identity(e: Identity) -> Identity:
    """Orient by term order, then rename variables jointly.

    Two identities canonicalize to the same value exactly when they are equal
    up to symmetry and injective variable renaming.  Idempotent.
    """
    kl, kr = _renamed_key(e.lhs, {}), _renamed_key(e.rhs, {})
    if kl == kr:
        # The sides are renamings of each other; pick the smaller joint form.
        forward: dict[Variable, str] = {}
        backward: dict[Variable, str] = {}
        kl = (_renamed_key(e.lhs, forward), _renamed_key(e.rhs, forward))
        kr = (_renamed_key(e.rhs, backward), _renamed_key(e.lhs, backward))
    pair = (e.lhs, e.rhs) if kl <= kr else (e.rhs, e.lhs)
    return Identity(*rename_jointly(pair)[0])


@dataclass(frozen=True)
class Theory:
    """A named signature with a canonicalized, order-preserving identity list.

    `renames` records symbol renamings applied while building the theory
    (only joins produce them).

    The engine reads a theory through `codes`.  A stage that `extended`
    builds holds its parent and its new codes, and makes `identities` from
    them on the first read; it is a `Theory` like any other, equal to, and
    hashed, copied and pickled as, the theory of the same four fields.
    """

    name: str
    symbols: tuple[OperationSymbol, ...]
    identities: tuple[Identity, ...]
    renames: tuple[tuple[str, str], ...] = field(default=())

    def __getattr__(self, attr: str) -> Any:
        # reached only for attributes the instance lacks: a stage's identities
        # before their first read
        parent_codes = self.__dict__.get("_parent_codes")
        if attr != "identities" or parent_codes is None:
            raise AttributeError(attr)
        parent, codes = parent_codes
        symbols = {s.name: s for s in self.symbols}
        identities = parent.identities + tuple(code_identity(c, symbols)
                                               for c in codes)
        self.__dict__["identities"] = identities
        del self.__dict__["_parent_codes"]
        return identities

    def symbol_named(self, name: str) -> Optional[OperationSymbol]:
        for s in self.symbols:
            if s.name == name:
                return s
        return None

    def max_arity(self) -> int:
        return max((s.arity for s in self.symbols), default=0)

    def identity_set(self) -> frozenset[Identity]:
        return self.compiled(("identity_set",), lambda: frozenset(self.identities))

    @cached_property
    def codes(self) -> tuple[Optional[Code], ...]:
        """Each identity's `identity_code`, in order: None for a non-linear
        one.  Its length is the identity count, which needs no identity."""
        return tuple(map(identity_code, self.identities))

    def extended(self, name: str, codes: Iterable[Code]) -> Theory:
        """This theory plus the identities of `codes`, in order, each kept
        once, under a new name: one stage of an operator.

        The codes are those of canonical identities, as are this theory's,
        and a code stands for one canonical identity, so a code already
        present is dropped by a set lookup.  The identities are built on
        their first read.
        """
        present = set(self.codes)
        new = tuple(c for c in dict.fromkeys(codes) if c not in present)
        stage = object.__new__(Theory)
        stage.__dict__.update(name=name, symbols=self.symbols, renames=self.renames,
                              codes=self.codes + new, _parent_codes=(self, new))
        return stage

    @cached_property
    def _memo(self) -> dict[tuple, Any]:
        # not a field: it is never compared or hashed, and dies with the theory
        return {}

    def compiled(self, key: tuple, build: Callable[[], Any]) -> Any:
        """Work compiled from this theory object, built by `build()` the
        first time `key` is asked for and kept for the object's lifetime.

        Keys name the owner first: `saturation.saturate`'s fact bases are
        ("saturation", context size), `models.find_model`'s layout,
        identity instances and first model ("models", model size),
        `rewriting.bfs_prove`'s search rules ("rewriting",), and the set of
        identities `identity_set` returns ("identity_set",).  An equal but
        distinct theory object compiles its own.
        """
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def __reduce__(self):
        # copies and pickles are rebuilt from the fields, without the memo
        return Theory, (self.name, self.symbols, self.identities, self.renames)

    def __str__(self) -> str:
        return self.name


def make_theory(name: str,
                symbols: Iterable[OperationSymbol],
                identities: Iterable[Identity],
                renames: tuple[tuple[str, str], ...] = ()) -> Theory:
    """Check, canonicalize and deduplicate the parts of a theory.

    An identity already present is canonical and is skipped; duplicates are
    dropped and the order is kept.
    """
    signature = _signature(symbols)
    by_name = {s.name: s for s in signature}
    canon: dict[Identity, None] = {}
    for e in identities:
        if e in canon:
            continue
        for s in identity_symbols(e):
            if by_name.get(s.name) != s:
                raise UnknownSymbolError(
                    f"identity {e} uses {s} outside the signature of {name!r}")
        canon.setdefault(canonicalize_identity(e))
    return Theory(name, signature, tuple(canon), renames)


def _signature(symbols: Iterable[OperationSymbol]) -> tuple[OperationSymbol, ...]:
    """The symbols in (name, arity) order; a name used twice is refused."""
    syms = tuple(sorted(set(symbols), key=lambda s: (s.name, s.arity)))
    seen: set[str] = set()
    for s in syms:
        if s.name in seen:
            raise ValueError(f"duplicate symbol name {s.name!r} in signature")
        seen.add(s.name)
    return syms


@dataclass(frozen=True)
class ValidationReport:
    theory_name: str
    is_linear: bool
    nonlinear_identities: tuple[Identity, ...]
    # status per symbol: "explicit" | "derivable" | "not-established"
    idempotency: tuple[tuple[str, str], ...]
    # the 0-ary symbols, always "not-established"
    constants: tuple[str, ...] = ()

    @property
    def is_idempotent(self) -> bool:
        return all(status in ("explicit", "derivable") for _, status in self.idempotency)

    @property
    def ok(self) -> bool:
        return self.is_linear and self.is_idempotent

    @property
    def problems(self) -> list[str]:
        """Why the theory is not linear idempotent, one phrase per reason."""
        out = [] if self.is_linear else ["not linear"]
        bad = [name for name, status in self.idempotency
               if status == "not-established" and name not in self.constants]
        if bad:
            out.append(f"idempotency not established for {', '.join(bad)}")
        # an idempotent constant c = x gives x = c = y
        out += [f"{c} is a constant, and {c} = x would force x = y, so only a "
                "trivial variety satisfies it" for c in self.constants]
        return out


def idempotency_identity(symbol: OperationSymbol) -> Identity:
    """v0 = F(v0,...,v0), written in canonical form."""
    x = canonical_variable(0)
    return Identity(x, Application(symbol, (x,) * symbol.arity))


def validate(theory: Theory) -> ValidationReport:
    """Check linearity and the idempotency of every symbol.

    Idempotency is an entailment question, so a symbol whose idempotency
    identity is not literally present is checked with the flat saturation
    engine; that check is only available when the theory is linear.  The
    identity is written in canonical form, so "literally present" is a set
    lookup.  Each goal is decided over its width (`goal_budget`), two
    variables, so every symbol reads one memoized base.
    """
    from . import saturation

    nonlinear = tuple(e for e in theory.identities if not is_linear_identity(e))
    linear = not nonlinear
    canon = theory.identity_set()

    statuses: list[tuple[str, str]] = []
    for s in theory.symbols:
        goal = idempotency_identity(s)
        if s.arity > 0 and goal in canon:
            status = "explicit"
        elif s.arity > 0 and linear:
            base = saturation.saturate(theory, saturation.goal_budget(goal))
            status = "derivable" if base.entails(goal) else "not-established"
        else:
            status = "not-established"
        statuses.append((s.name, status))
    return ValidationReport(theory.name, linear, nonlinear, tuple(statuses),
                            tuple(s.name for s in theory.symbols if s.arity == 0))


def _rename_symbols(t: Term, mapping: dict[str, OperationSymbol]) -> Term:
    if isinstance(t, Variable):
        return t
    sym = mapping.get(t.symbol.name, t.symbol)
    return Application(sym, tuple(_rename_symbols(c, mapping) for c in t.children))


def _embed(a: Theory, b: Theory
           ) -> tuple[list[OperationSymbol], tuple[Identity, ...], Theory]:
    """`b`'s symbols and identities as they sit inside the join of `a` and
    `b`, and the join, renaming and canonicalizing `b` once for both.

    Both identity lists are canonical already, and a symbol's name counts
    in canonical form only through the order of names, so only a rename
    makes `b`'s identities need canonicalizing again.
    """
    taken = {s.name for s in a.symbols}
    mapping: dict[str, OperationSymbol] = {}
    symbols = []
    for s in b.symbols:
        if s.name in taken:
            k = 2
            while f"{s.name}_{k}" in taken:
                k += 1
            mapping[s.name] = OperationSymbol(f"{s.name}_{k}", s.arity)
            s = mapping[s.name]
        symbols.append(s)
        taken.add(s.name)
    identities = b.identities
    if mapping:
        identities = tuple(dict.fromkeys(
            canonicalize_identity(Identity(_rename_symbols(e.lhs, mapping),
                                           _rename_symbols(e.rhs, mapping)))
            for e in identities))
    # symbol-free identities, such as x = y, may occur in both
    joined = Theory(f"join({a.name},{b.name})", _signature([*a.symbols, *symbols]),
                    tuple(dict.fromkeys(a.identities + identities)),
                    tuple((old, new.name) for old, new in mapping.items()))
    return symbols, identities, joined


def join_disjoint(a: Theory, b: Theory) -> Theory:
    """Union of two theories over a disjoint signature.

    A symbol of `b` whose name is taken, by `a` or by an earlier symbol of
    `b`, gets the first free suffix _2, _3, ...; the renames are recorded
    on the result.
    """
    return _embed(a, b)[2]


def embedded_components(a: Theory, b: Theory) -> tuple[Theory, Theory, Theory]:
    """The two component theories as they appear inside join_disjoint(a, b),
    and the join."""
    symbols, identities, joined = _embed(a, b)
    return a, Theory(b.name, _signature(symbols), identities), joined


def theory_equal(a: Theory, b: Theory) -> bool:
    """Equality of canonicalized identity sets over one signature."""
    if set(a.symbols) != set(b.symbols):
        raise SignatureMismatchError(
            f"{a.name} and {b.name} have different signatures")
    return a.identity_set() == b.identity_set()
