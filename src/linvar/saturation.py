"""Decision engine for linear identities: saturation over flat terms.

Every linear identity over a fixed finite variable context instantiates to
pairs of *flat atoms* (variables, or a symbol applied to context variables).
The engine computes the finest partition of all flat atoms that merges every
such instance pair; two flat terms are judged equal exactly when their
embeddings land in one class.  The atom universe is finite, so saturation
terminates, and the instance set is closed under composing substitutions,
which makes the resulting partition stable under every context endomap.

The context size follows from a retraction argument.  Take a chain of
instance steps over a context C whose endpoint atoms use only the
variables V, a subset of C, and map every atom along tau: C -> V, the
identity on V.  Each instance step maps to an instance step (compose its
substitution with tau) or to no step at all, so the image is a chain over V
with the same endpoints and no more steps.  A query over k variables
therefore gets the same answer, and a shortest chain of the same length, in
every context of at least k variables.  So each base is sized by its
question: a goal by its own variables, at least two (`goal_budget`), in
`linvar entail` and validation.  Both derivative iterations start from the
same two-variable base (`MIN_BUDGET`) and read their facts x = F(w) as the
atoms of v0's class (`FlatFactBase.v0_facts`): the derivative's x = y,
x = F(y,...,y) and weak-independence facts with w over {x, y} need no
more, and the order derivative widens by one only while its widest fact
fills the context, never past max_arity + 1.  The lemma bounds
the query's variables, not the identities', so identities with more
variables are fine there.

The same lemma bounds certificate extraction.  A shortest chain between two
atoms exists among the atoms over their own variables, so the chain search
assigns free variables only from the endpoints' variables: two of them for
an inconsistency chain x ~ F(y,...,y), whatever the context size.  A
certificate therefore names only its endpoints' variables: the goal's own,
x and y for an inconsistency, or two fresh names for a collapse.
Inconsistency is decided by a class test alone; `is_inconsistent` builds
the chain, and iteration traces call it only when their certificate is read.

The engine reads a theory through its identities' codes (`terms.Code`:
symbol names and variable indices), never through their terms, and a goal
through its own code.  A code's two sides give a layout id and one stride
per variable, and the instances are spread from those, so an iteration
stage, which `derivatives` writes as its parent plus new codes, is
saturated by extending the parent's base with the new codes' instances,
without building an identity.  A non-linear identity has no code and is
refused.

The kernel (`FlatFactBase._apply_codes`) unites each code's instance
pairs in place; the order of the unions decides which atom represents a
class, and nothing reads that: roots are only compared, and chains come
from the identities' rules.  An atom space too large for memory is
refused with its size (`AtomSpaceTooLargeError`).  A chain search's tree
does not depend on its target, so each base keeps and resumes it
(`FlatFactBase.shortest_chain`).
"""
from __future__ import annotations

import copy
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import models
from .rewriting import (
    CertificateError,
    Derivation,
    make_step,
    substitute_derivation,
    verify_derivation,
)
from .terms import (
    Application,
    FlatLayout,
    LinvarError,
    OperationSymbol,
    Term,
    Variable,
    canonical_variable,
    code_width,
    flat_parts,
    fresh_variables,
    is_flat,
)
from .theories import (
    Identity,
    Theory,
    UnknownSymbolError,
    identity_code,
    identity_variables,
)


class BudgetTooSmallError(LinvarError):
    """A query needs more distinct variables than the saturation context has."""


# The fewest context variables: x and y, for the collapse test x ~ y.  It is
# every iteration's first context and the width of idempotency goals.
MIN_BUDGET = 2


def default_budget(theory: Theory) -> int:
    """`saturate`'s default for callers of the API: max_arity + 1, enough
    for every fact x = F(w).  The package passes each question's width."""
    return max(MIN_BUDGET, theory.max_arity() + 1)


def goal_budget(goal: Identity) -> int:
    """The goal's own variables, and at least two.

    That is enough: a chain over a wider context maps, by the retraction
    onto the goal's variables, to a chain with the same endpoints and no
    more steps, so the verdict is the same in every context that holds the
    goal.  The chain search assigns free variables only from the
    endpoints' own, so the certificate is the same chain, and the
    countermodel comes from model search, which reads no base.  The second
    variable is for the collapse test, v0 ~ v1."""
    return max(MIN_BUDGET, len(identity_variables(goal)))


class _ChainRule(NamedTuple):
    """One orientation of an identity, compiled for the chain search over
    the affine id layout of `FlatLayout`: an instance of the produced side has
    id `zero` plus, for each of its variables, the variable's context index
    times its stride."""

    idx: int                  # the identity's index in the theory
    forward: bool
    src_args: tuple[Variable, ...]        # the source side's argument slots
    repeats: tuple[tuple[int, int], ...]  # slots one source variable fills twice
    zero: int                 # the produced side with every variable at index 0
    bound: tuple[tuple[int, int], ...]    # (source slot, stride) per bound variable
    free: tuple[Variable, ...]            # the produced side's other variables
    free_strides: tuple[int, ...]

    def substitution(self, digits: Sequence[int], values: Sequence[int]
                     ) -> dict[Variable, int]:
        """The instance's variables, bound to context indices."""
        sigma = dict(zip(self.src_args, digits))
        sigma.update(zip(self.free, values))
        return sigma


# How a chain search first reached an atom: (previous atom, rule, the
# previous atom's digits, values of the rule's free variables), built only
# for an atom new to the tree; `_ChainRule.substitution` turns the last
# three into the instance's substitution.
_Edge = tuple[int, _ChainRule, tuple[int, ...], tuple[int, ...]]


def _product_values(index: int, order: Sequence[int], n: int) -> tuple[int, ...]:
    """Entry `index` of `itertools.product(order, repeat=n)`, whose last
    place varies fastest."""
    values = []
    for _ in range(n):
        index, k = divmod(index, len(order))
        values.append(order[k])
    return tuple(reversed(values))


class _ChainTree(NamedTuple):
    """A breadth-first search from one atom over some context indices, kept
    where its last query stopped: first-discovery parents (None for the
    root) and the discovered atoms it has not expanded yet, in order."""

    parents: dict[int, Optional[_Edge]]
    queue: deque[int]


class FlatFactBase(FlatLayout):
    """Partition of the flat atoms over a bounded variable context.

    Atoms are interned as integers by the `FlatLayout` over `budget` values,
    read as the context variables: ids 0..budget-1 are the variables
    themselves, and the instances of an identity are enumerated by strides.
    """

    def __init__(self, theory: Theory, budget: int):
        if budget < MIN_BUDGET:
            raise BudgetTooSmallError("the context needs at least two variables")
        super().__init__(theory.symbols, budget)
        self.theory = theory
        self.context = tuple(canonical_variable(i) for i in range(budget))
        self._parent = self._atom_array(range(self.size))
        self._rule_table: Optional[dict[Optional[str], list[_ChainRule]]] = None
        self._trees: dict[tuple[int, tuple[int, ...]], _ChainTree] = {}
        self._apply_codes(0)

    @property
    def budget(self) -> int:
        """The number of context variables."""
        return self.n

    def _atom_array(self, values: Iterable[int]) -> list[int]:
        """A union-find array over every atom, or a refusal naming its size
        (`FlatLayout.allocate`)."""
        return self.allocate(lambda: list(values), "saturation", "variables", "atoms")

    # -- union-find ---------------------------------------------------------

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def same_class(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def classes(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i in range(self.size):
            out.setdefault(self.find(i), []).append(i)
        return out

    # -- atoms as terms -----------------------------------------------------

    def _context_index(self, v: Variable) -> int:
        try:
            return self.context.index(v)
        except ValueError:
            raise KeyError(f"{v} is not a context variable") from None

    def _check_symbol(self, side: Term) -> None:
        if isinstance(side, Application) and \
                self.theory.symbol_named(side.symbol.name) != side.symbol:
            raise UnknownSymbolError(f"{side.symbol} is not in {self.theory.name}")

    def atom_id(self, t: Term) -> int:
        self._check_symbol(t)
        name, args = flat_parts(t)
        return self.encode(name, [self._context_index(v) for v in args])

    def atom_term(self, i: int) -> Term:
        return self._named_atom(i, self.context)

    def _named_atom(self, i: int, names: Sequence[Variable]) -> Term:
        """Atom i with each context index d written as names[d]."""
        name, digits = self.digits(i)
        args = tuple(names[d] for d in digits)
        if name is None:
            return args[0]
        return Application(self.theory.symbol_named(name), args)

    # -- saturation ---------------------------------------------------------

    def _apply_codes(self, start: int) -> None:
        """Merge every instance of the identities' codes from `start` on;
        both the first build and `extend` come here, so both refuse a
        non-linear identity, which has no code.

        Each code's sides are spread once (`FlatLayout.code_spread`), and
        each instance pair is united in place: both roots are found with
        path halving, and the rhs root is hung under the lhs root.
        """
        parent = self._parent
        codes = self.theory.codes
        for k in range(start, len(codes)):
            if codes[k] is None:
                raise ValueError("flat saturation needs a linear theory; "
                                 f"{self.theory.identities[k]} is not")
            lhs, rhs, lhs_lead, rhs_lead, count = self.code_spread(codes[k])
            for j in range(count):
                dl, dr = j * lhs_lead, j * rhs_lead
                for a, c in zip(lhs, rhs):
                    a += dl
                    c += dr
                    if a != c:
                        while a != (p := parent[a]):
                            parent[a] = a = parent[p]
                        while c != (p := parent[c]):
                            parent[c] = c = parent[p]
                        if a != c:
                            parent[c] = a

    def extend(self, theory: Theory) -> "FlatFactBase":
        """Saturation for a theory extending this one by extra identities.

        Merging is monotone in the identity set, so the existing partition
        carries over and only the new identities' instances are processed.
        """
        if theory.symbols != self.theory.symbols:
            raise ValueError("extension must keep the signature")
        n = len(self.theory.codes)
        if theory.codes[:n] != self.theory.codes:
            raise ValueError("extension must keep the existing identities as a prefix")
        out = copy.copy(self)
        out.theory = theory
        out._parent = self._atom_array(self._parent)
        out._rule_table = None
        out._trees = {}  # the parent's trees follow the parent's instance edges
        out._apply_codes(n)
        return out

    # -- queries ------------------------------------------------------------

    def _embed(self, goal: Identity) -> tuple[int, int]:
        """The atom ids of the goal's sides, read from its code.

        The code numbers the goal's variables by first occurrence, lhs
        first, and the atoms read variable k as context index k; a chain's
        derivation inverts that by naming index k after the k-th of
        `identity_variables`.
        """
        code = identity_code(goal)
        if code is None:
            side = goal.rhs if is_flat(goal.lhs) else goal.lhs
            raise ValueError(f"{side} is not linear; only flat queries are decidable")
        width = code_width(code)
        if width > self.budget:
            raise BudgetTooSmallError(
                f"goal uses {width} variables, context has {self.budget}")
        self._check_symbol(goal.lhs)
        self._check_symbol(goal.rhs)
        return self.encode(*code[:2]), self.encode(*code[2:])

    def entails(self, goal: Identity) -> bool:
        """Linear entailment: one class, or a collapsed theory.

        Once two distinct variables share a class the theory proves every
        identity, including ones with no flat derivation of their own (the
        flattening argument needs consistency), so that case short-circuits.
        """
        a, b = self._embed(goal)
        return self.same_class(a, b) or self.variables_merged()

    def v0_facts(self) -> Iterator[tuple[OperationSymbol, tuple[int, ...]]]:
        """Every fact x = F(w) of the context, F of positive arity, whose
        atom lies in the class of v0 (every one once the variables merged),
        as (F, w).  Each symbol's block is walked in id order, which is the
        `itertools.product` order of w, so no tuple is encoded."""
        merged = self.variables_merged()
        root = self.find(0)
        parent = self._parent
        for s in self.symbols:
            if not s.arity:
                continue
            offset = self.offsets[s.name]
            for a, w in enumerate(itertools.product(range(self.n), repeat=s.arity), offset):
                while a != (p := parent[a]):
                    parent[a] = a = parent[p]
                if merged or a == root:
                    yield s, w

    def variables_merged(self) -> bool:
        return self.same_class(0, 1)

    # -- derivation extraction ----------------------------------------------

    def _rules(self) -> dict[Optional[str], list[_ChainRule]]:
        """Both orientations of every identity's code, compiled once per
        base and grouped by the source side's symbol (None for a variable).
        Code index k is the canonical identity's variable v<k>."""
        if self._rule_table is None:
            table: dict[Optional[str], list[_ChainRule]] = {}
            for idx, code in enumerate(self.theory.codes):
                width = code_width(code)
                for src, dst, forward in ((code[:2], code[2:], True),
                                          (code[2:], code[:2], False)):
                    src_name, src_args = src
                    slot: dict[int, int] = {}
                    repeats = []
                    for i, v in enumerate(src_args):
                        if v in slot:
                            repeats.append((slot[v], i))
                        else:
                            slot[v] = i
                    dst_vars = tuple(dict.fromkeys(dst[1]))
                    zero, stride = self.strides(dst, width)
                    free = [v for v in dst_vars if v not in slot]
                    table.setdefault(src_name, []).append(_ChainRule(
                        idx, forward, tuple(map(canonical_variable, src_args)),
                        tuple(repeats), zero,
                        tuple((slot[v], stride[v]) for v in dst_vars if v in slot),
                        tuple(map(canonical_variable, free)),
                        tuple(stride[v] for v in free)))
            self._rule_table = table
        return self._rule_table

    def shortest_chain(self, a: int, b: int
                       ) -> Optional[tuple[list[int], list[tuple[int, bool, dict[Variable, int]]]]]:
        """Shortest path between two atoms through identity-instance edges.

        The search stays among the atoms over the endpoints' variables; by
        the retraction lemma a shortest chain of the whole context has an
        image there that is no longer.  Free variables of a produced side
        range over those indices, the ones absent from the atom expanded
        first, so chains introduce fresh variables the way a written-out
        proof would.  Ids are affine in the digits, so each rule's
        neighbour ids are computed in place, the rule's id at zero plus its
        variables' strides, in `itertools.product` order of the free
        values; an edge is built only for an atom new to the tree, its
        values decoded from the id's index in that order.

        It is a breadth-first search from a with first-discovery parents
        and that fixed order, so which atoms it reaches, and from where,
        does not depend on b: the base keeps one tree per (a, allowed) and
        resumes it, a whole atom's expansion at a time, only until b has a
        parent.  The chain read off the tree is the one a fresh search
        stopping at b would return, and substitutions are built only for
        its edges.
        """
        if not self.same_class(a, b):
            return None
        if a == b:
            return [a], []
        allowed = tuple(sorted(set(self.digits(a)[1]) | set(self.digits(b)[1])))
        tree = self._trees.get((a, allowed))
        if tree is None:
            tree = self._trees[a, allowed] = _ChainTree({a: None}, deque([a]))
        parents, queue = tree
        rules = self._rules()
        while b not in parents:
            if not queue:
                # Atoms of one class are joined by a chain over their own
                # variables (the retraction lemma), so this is unreachable.
                raise CertificateError("atoms share a class but no chain was found")
            cur = queue.popleft()
            kind, digits = self.digits(cur)
            # free variables take the endpoints' indices absent from cur first
            order = [i for i in allowed if i not in digits] + sorted(set(digits))
            for rule in rules.get(kind, ()):
                # a repeated source variable must meet equal digits
                if rule.repeats and any(digits[i] != digits[j] for i, j in rule.repeats):
                    continue
                base = rule.zero
                for i, stride in rule.bound:
                    base += stride * digits[i]
                reached = [base]
                # the last free variable varies fastest, as in itertools.product
                for stride in rule.free_strides:
                    reached = [i + k * stride for i in reached for k in order]
                for index, tid in enumerate(reached):
                    if tid not in parents:
                        parents[tid] = (cur, rule, digits,
                                        _product_values(index, order, len(rule.free)))
                        queue.append(tid)
        ids = [b]
        edges = []
        entry = parents[b]
        while entry is not None:
            prev, rule, digits, values = entry
            edges.append((rule.idx, rule.forward, rule.substitution(digits, values)))
            ids.append(prev)
            entry = parents[prev]
        ids.reverse()
        edges.reverse()
        return ids, edges


@dataclass(frozen=True)
class Entailed:
    derivation: Derivation


@dataclass(frozen=True)
class NotEntailed:
    note: str = "saturation fixpoint reached without merging the goal"


@dataclass(frozen=True)
class NotEntailedWithModel:
    algebra: models.FiniteAlgebra
    assignment: tuple[tuple[str, int], ...]


EntailmentVerdict = Entailed | NotEntailed | NotEntailedWithModel


def saturate(theory: Theory, budget: Optional[int] = None) -> FlatFactBase:
    """Saturated fact base for the theory, memoized on the theory per budget.

    The memo is `Theory.compiled`, so a base lives exactly as long as its
    theory object, and an equal but distinct object builds its own.  Calls
    on one theory share it: `classify` validates over two variables and
    iterates both operators from that base, and a caller deciding many
    goals builds it once.  Later stages extend it (`FlatFactBase.extend`),
    or come here when the order derivative widens a stage.  The package
    always passes its question's width; the default is for API callers.
    """
    if budget is None:
        budget = default_budget(theory)
    return theory.compiled(("saturation", budget),
                           lambda: FlatFactBase(theory, budget))


def _chain_derivation(base: FlatFactBase, a: int, b: int,
                      names: Sequence[Variable]) -> Derivation:
    """The shortest chain from atom a to atom b as a verified derivation,
    with context index k written as names[k].  The chain stays over the
    endpoints' variables, so only their indices need names."""
    chain = base.shortest_chain(a, b)
    if chain is None:
        raise CertificateError(
            f"no chain between {base.atom_term(a)} and {base.atom_term(b)}")
    ids, edges = chain
    terms = tuple(base._named_atom(i, names) for i in ids)
    steps = tuple(make_step(base.theory.identities[idx], forward, (),
                            {v: names[d] for v, d in sigma.items()})
                  for idx, forward, sigma in edges)
    d = Derivation(base.theory.name, terms, steps)
    check = verify_derivation(base.theory, d)
    if not check:
        raise CertificateError(
            f"extracted derivation failed verification: {check.reason}")
    return d


def _collapse_instance_derivation(base: FlatFactBase, goal: Identity) -> Derivation:
    """Certificate for a goal over a theory whose variables collapsed.

    The chain proving two variables equal, written over two fresh names, is
    instantiated with the goal's sides; the instance verifies, though its
    inner terms need not be flat.
    """
    fresh = fresh_variables(v.name for v in identity_variables(goal))
    names = (next(fresh), next(fresh))
    collapse = _chain_derivation(base, 0, 1, names)
    instance = substitute_derivation(
        collapse, {names[0]: goal.lhs, names[1]: goal.rhs})
    check = verify_derivation(base.theory, instance)
    if not check:
        raise CertificateError(
            f"collapse instance failed verification: {check.reason}")
    return instance


def _refuted(theory: Theory, goal: Identity) -> EntailmentVerdict:
    """A model of `models.DEFAULT_SIZES` separating the goal's sides, if any."""
    found = models.refute_entailment(theory, goal, *models.DEFAULT_SIZES)
    if found is None:
        return NotEntailed()
    algebra, rho = found
    return NotEntailedWithModel(algebra, tuple(sorted((v.name, k) for v, k in rho.items())))


def entails_flat(base: FlatFactBase, goal: Identity) -> EntailmentVerdict:
    """Decide a linear goal against the saturated base.

    Entailed verdicts carry a verifying derivation, flat throughout whenever
    the theory is consistent; a negative verdict is upgraded with a
    separating finite model when one of `models.DEFAULT_SIZES` exists.
    """
    a, b = base._embed(goal)
    if base.same_class(a, b):
        return Entailed(_chain_derivation(base, a, b, identity_variables(goal)))
    if base.variables_merged():
        return Entailed(_collapse_instance_derivation(base, goal))
    return _refuted(base.theory, goal)


def inconsistency_target(base: FlatFactBase) -> Optional[int]:
    """An atom whose class shows the theory inconsistent, or None.

    That is the context variable v1 once the variables merged, else
    F(v1,...,v1) for the first symbol F of positive arity when it lies in
    the class of v0.  No chain is built: this is the whole decision.
    """
    if base.variables_merged():
        return 1
    first = next((s for s in base.theory.symbols if s.arity >= 1), None)
    if first is None:
        return None
    qid = base.encode(first.name, (1,) * first.arity)
    return qid if base.same_class(0, qid) else None


def is_inconsistent(base: FlatFactBase) -> EntailmentVerdict:
    """Decide whether the base's theory proves two distinct variables equal.

    For an idempotent theory this is equivalent to the flat query
    x = F(y,...,y) for any symbol F; both that query and the direct
    variable-to-variable class check are consulted, so theories containing
    bare two-variable identities are still caught.  A consistent base gets
    a plain `NotEntailed`: no model search is run.
    """
    target = inconsistency_target(base)
    if target is not None:
        return Entailed(_chain_derivation(base, 0, target, (Variable("x"), Variable("y"))))
    return NotEntailed()
