"""Seeded inputs, the timed operation and the correctness gate per workload.

An operation (op) is one theory or join pair classified, one goal decided,
or one derivation projected.  Classify and project ops each get symbol
names of their own, so the program carries no cached work from one op to
the next.  Entail is reads against a few saturated bases on purpose: all
goals over one stage share its renamed theory, so whichever of them the
seeded order puts first pays for building the base, and the others reuse
it through the program's own saturation cache.

Only public names of `linvar` are used.  They are looked up at call time
through the module objects, so a tracer that wraps them in memory sees
every call made here.
"""
from __future__ import annotations

import hashlib
import itertools
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# (CM, NCI, n-permutable) per input theory: the preset goldens of the test
# suite, and for the families the answers the parent commit returns, which
# agree with the classical results (Jonsson, Day and near-unanimity terms
# give CM; Hagemann-Mitschke terms give n-permutability).
KNOWN_ANSWERS = {
    "maltsev": (True, True, True),
    "majority": (True, True, False),
    "semilattice": (False, False, False),
    "jonsson3": (True, True, False),
    "day2": (True, True, True),
    "hagemann_mitschke2": (True, True, True),
    "hagemann_mitschke3": (False, True, True),
    "jonsson4": (True, True, False),
    "jonsson5": (True, True, False),
    "jonsson6": (True, True, False),
    "day3": (True, True, False),
    "hagemann_mitschke4": (False, True, True),
    "hagemann_mitschke5": (False, True, True),
    "hagemann_mitschke6": (False, True, True),
    "nu3": (True, True, False),
    "nu4": (True, True, False),
}

# Rounds that together make one pass over a workload's inputs.
CLASSIFY_ROUNDS = 7
ROUNDS_PER_PASS = {"classify": CLASSIFY_ROUNDS, "entail": 1, "project": 1}

PRESET_FILES = ("maltsev", "majority", "semilattice", "jonsson3", "day2",
                "hagemann_mitschke2", "hagemann_mitschke3")

# Explicit bounds for the non-linear goals, as `linvar entail --max-terms
# 1000 --max-depth 4 --max-term-size 16` would pass them.
BFS_BOUNDS = dict(max_terms=1000, max_depth=4, max_term_size=16)

# Shape of the generated join derivations: levels of nested padding with
# the other component's diagonal, and out-and-back rewrite walks.
PAD_LEVELS = 3
WALKS = 12
DERIVATIONS_PER_PAIR = 3


@dataclass(frozen=True)
class Op:
    key: str          # names the input before renaming; seed-independent
    kind: str
    args: tuple
    known: Any = None  # input name(s) whose KNOWN_ANSWERS the gate checks


class Context:
    """The `linvar` package, imported from the checkout's `src` directory."""

    def __init__(self, root: Path):
        src = root / "src"
        if not (src / "linvar" / "__init__.py").is_file():
            raise FileNotFoundError(f"no linvar package under {src}")
        sys.path.insert(0, str(src))
        import linvar
        import linvar.classification
        import linvar.derivatives
        import linvar.dsl
        import linvar.models
        import linvar.presets
        import linvar.projection
        import linvar.rewriting
        import linvar.saturation
        import linvar.terms
        import linvar.theories

        if Path(linvar.__file__).resolve().parent != (src / "linvar").resolve():
            raise ImportError(f"linvar was imported from {linvar.__file__}, not {src}")
        self.lv = linvar
        self.root = root


# -- renaming -----------------------------------------------------------------


def _tag(rng: random.Random, index: int) -> str:
    letters = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
    return f"{letters}{index}_"


def rename_theory(ctx: Context, theory, tag: str):
    """The same theory over symbols renamed by a prefix."""
    terms = ctx.lv.terms
    mapping = {s.name: terms.OperationSymbol(tag + s.name, s.arity)
               for s in theory.symbols}

    def walk(t):
        if isinstance(t, terms.Variable):
            return t
        return terms.Application(mapping[t.symbol.name],
                                 tuple(walk(c) for c in t.children))

    identities = [ctx.lv.theories.Identity(walk(e.lhs), walk(e.rhs))
                  for e in theory.identities]
    return ctx.lv.theories.make_theory(tag + theory.name, mapping.values(),
                                       identities)


# -- input theories -----------------------------------------------------------


def load_presets(ctx: Context) -> list:
    return [ctx.lv.dsl.load_theory(str(ctx.root / "theories" / f"{name}.thy"))
            for name in PRESET_FILES]


def near_unanimity(ctx: Context, n: int):
    """n-ary near-unanimity: f(x,...,y,...,x) = x with y at each place."""
    terms = ctx.lv.terms
    f = terms.OperationSymbol("f", n)
    x, y = terms.Variable("x"), terms.Variable("y")
    identities = [
        ctx.lv.theories.Identity(
            terms.Application(f, tuple(y if j == i else x for j in range(n))), x)
        for i in range(n)
    ]
    return ctx.lv.theories.make_theory(f"nu{n}", [f], identities)


def families(ctx: Context) -> list:
    p = ctx.lv.presets
    return ([p.jonsson(n) for n in (4, 5, 6)] + [p.day(3)]
            + [p.hagemann_mitschke(k) for k in (4, 5, 6)]
            + [near_unanimity(ctx, n) for n in (3, 4)])


# -- workloads ----------------------------------------------------------------


def classify_ops(ctx: Context, rng: random.Random, round_index: int) -> list[Op]:
    """Round k of a cycle of CLASSIFY_ROUNDS that together cover the inputs.

    Round k classifies every CLASSIFY_ROUNDS-th input theory from the k-th
    on, and checks the joins (a_i, a_{i+k}) over the presets in file order:
    across the cycle, every ordered preset pair once.  All pairs rather than
    a seeded sample, and a fixed split, because join costs range from 5 ms
    to 2 s: a seeded choice would move the latency quantiles with the seed
    by more than any useful bound.  The seed renames and orders.
    """
    presets = load_presets(ctx)
    k = round_index % CLASSIFY_ROUNDS
    ops = []
    for theory in (presets + families(ctx))[k::CLASSIFY_ROUNDS]:
        ops.append(Op(f"classify:{theory.name}", "classify",
                      (rename_theory(ctx, theory, _tag(rng, len(ops))),),
                      theory.name))
    for i, a in enumerate(presets):
        b = presets[(i + k) % len(presets)]
        tag = _tag(rng, len(ops))
        ops.append(Op(f"join:{a.name}:{b.name}", "join",
                      (rename_theory(ctx, a, tag), rename_theory(ctx, b, tag)),
                      (a.name, b.name)))
    rng.shuffle(ops)
    return ops


def canonical_tuples(arity: int) -> list[tuple[int, ...]]:
    """Argument tuples over {x, y1..yn} up to renaming of the y's; 0 is x."""
    out = []
    for w in itertools.product(range(arity + 1), repeat=arity):
        renaming: dict[int, int] = {}
        norm = tuple(0 if e == 0 else renaming.setdefault(e, len(renaming) + 1)
                     for e in w)
        if norm not in out:
            out.append(norm)
    return out


def fact_goal(ctx: Context, symbol, w):
    terms = ctx.lv.terms
    x = terms.Variable("x")
    args = tuple(x if d == 0 else terms.Variable(f"y{d}") for d in w)
    return ctx.lv.theories.Identity(x, terms.Application(symbol, args))


def _stages(ctx: Context, presets: list) -> list:
    seen: dict = {}
    for theory in presets:
        for operator in ("derivative", "order_derivative"):
            for stage in ctx.lv.derivatives.iterate(theory, operator).stages:
                seen.setdefault((stage.name, stage.identities), stage)
    return list(seen.values())


def _nested_term(ctx: Context, rng: random.Random, theory, names):
    """F(..., G(vars), ...): one seeded argument nested, the rest variables."""
    terms = ctx.lv.terms

    def flat():
        s = rng.choice(theory.symbols)
        return terms.Application(s, tuple(terms.Variable(rng.choice(names))
                                          for _ in range(s.arity)))

    top = flat()
    nested = rng.randrange(top.symbol.arity)
    return terms.Application(top.symbol, tuple(
        flat() if i == nested else c for i, c in enumerate(top.children)))


def _rewrite_walk(ctx: Context, rng: random.Random, theory, t, length: int):
    """Apply `length` seeded rewrite steps to t, giving a provable goal t = u.

    Variables the produced side introduces are taken from the current term,
    and no step leaves the search's term-size bound, so the proof stays
    within what `bfs_prove` explores.
    """
    terms = ctx.lv.terms
    for _ in range(length):
        present = terms.term_variables(t)
        moves = []
        for pos in terms.positions(t):
            sub = terms.subterm_at(t, pos)
            for e in theory.identities:
                for src, dst in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
                    sigma = terms.match_term(src, sub)
                    if sigma is None:
                        continue
                    sigma = dict(sigma)
                    for v in terms.term_variables(dst):
                        sigma.setdefault(v, rng.choice(present))
                    u = terms.replace_at(t, pos, terms.apply_substitution(dst, sigma))
                    if u != t and terms.term_size(u) <= BFS_BOUNDS["max_term_size"]:
                        moves.append(u)
        t = rng.choice(moves)
    return t


def entail_ops(ctx: Context, rng: random.Random, round_index: int) -> list[Op]:
    """Every canonical fact goal x = F(w), and x = y, over each stage of the
    presets' derivative and order-derivative iterations, plus seeded
    non-linear goals over the presets; dispatched as `linvar entail` does."""
    lv = ctx.lv
    terms = lv.terms
    presets = load_presets(ctx)
    ops = []
    for index, stage in enumerate(_stages(ctx, presets)):
        tag = _tag(rng, index)
        renamed = rename_theory(ctx, stage, tag)
        goals = [("x=y", lv.theories.Identity(terms.Variable("x"), terms.Variable("y")))]
        for s in stage.symbols:
            symbol = renamed.symbol_named(tag + s.name)
            goals += [(f"{s.name}{w}", fact_goal(ctx, symbol, w))
                      for w in canonical_tuples(s.arity)]
        for label, goal in goals:
            ops.append(Op(f"linear:{stage.name}:{label}", "linear", (renamed, goal)))
    names = ("x", "y", "z")
    for index, theory in enumerate(presets):
        renamed = rename_theory(ctx, theory, _tag(rng, 100 + index))
        # Five provable goals, plus one that is usually out of reach and so
        # runs into the bounds; for the arity-4 preset such a goal costs about
        # a third of the round, so it gets none.
        open_goals = 1 if theory.max_arity() <= 3 else 0
        for k in range(5 + open_goals):
            while True:
                lhs = _nested_term(ctx, rng, renamed, names)
                rhs = (_rewrite_walk(ctx, rng, renamed, lhs, 2) if k < 5
                       else _nested_term(ctx, rng, renamed, names))
                goal = lv.theories.Identity(lhs, rhs)
                if lhs != rhs and not lv.theories.is_linear_identity(goal):
                    break
            ops.append(Op(f"search:{theory.name}:{k}", "search", (renamed, goal)))
    rng.shuffle(ops)
    return ops


def _variable_side_axioms(ctx: Context, theory) -> list:
    terms = ctx.lv.terms
    return [e for e in theory.identities
            if isinstance(e.lhs, terms.Variable) and isinstance(e.rhs, terms.Application)]


def _collapsing_axiom(ctx: Context, theory):
    """First axiom z = F(args) over variables with an argument other than z."""
    terms = ctx.lv.terms
    for e in _variable_side_axioms(ctx, theory):
        others = [a for a in e.rhs.children if a != e.lhs]
        if others and all(isinstance(a, terms.Variable) for a in e.rhs.children):
            return e, others[0]
    return None


def join_derivation(ctx: Context, rng: random.Random, owner, other, joined):
    """A join derivation F(x1..xn) = z with nested padding and rewrite walks.

    Every argument of F equal to the pad variable is padded, level by level,
    with the other component's diagonal G(v,...,v); seeded out-and-back
    walks with either component's axioms are interleaved; a root step with
    the owner's collapsing axiom ends the derivation at z.
    """
    lv = ctx.lv
    terms = lv.terms
    found = _collapsing_axiom(ctx, owner)
    diagonals = _variable_side_axioms(ctx, other)
    if found is None or not diagonals:
        return None
    axiom, pad_var = found
    diag = diagonals[0]
    walk_axioms = _variable_side_axioms(ctx, owner) + diagonals
    start = axiom.rhs
    pad_args = [i for i, a in enumerate(start.children, start=1) if a == pad_var]
    pool = terms.term_variables(start)

    term_list = [start]
    steps = []

    def step(eq, forward, pos, sigma):
        dst = eq.rhs if forward else eq.lhs
        steps.append(lv.rewriting.make_step(eq, forward, pos, sigma))
        term_list.append(terms.replace_at(term_list[-1], pos,
                                          terms.apply_substitution(dst, sigma)))

    def walk(pos, nested):
        leaf = terms.subterm_at(term_list[-1], pos)
        eq = rng.choice(walk_axioms)
        sigma = {v: rng.choice(pool) for v in terms.term_variables(eq.rhs)}
        sigma[eq.lhs] = leaf
        step(eq, True, pos, sigma)
        if nested:
            inner = [p for p in terms.positions(term_list[-1])
                     if p[:len(pos)] == pos and len(p) > len(pos)]
            walk(rng.choice(inner), False)
        step(eq, False, pos, sigma)

    arity = diag.rhs.symbol.arity
    pad_steps = len(pad_args) * sum(arity ** level for level in range(PAD_LEVELS))
    walk_after = set(rng.sample(range(pad_steps), min(WALKS, pad_steps)))
    pad_leaves = [()]
    for _level in range(PAD_LEVELS):
        order = [(i,) + q for i in pad_args for q in pad_leaves]
        rng.shuffle(order)
        for pos in order:
            step(diag, True, pos, {v: pad_var for v in terms.term_variables(diag.rhs)})
            if len(steps) - 1 in walk_after:
                leaves = [p for p, _ in terms.variable_occurrences(term_list[-1])]
                walk(rng.choice(leaves), rng.random() < 0.5)
        pad_leaves = [q + (k,) for q in pad_leaves for k in range(1, arity + 1)]
    padded = terms.subterm_at(term_list[-1], (pad_args[0],))
    sigma = {v: (padded if v == pad_var else v) for v in terms.term_variables(start)}
    step(axiom, False, (), sigma)
    d = lv.rewriting.Derivation(joined.name, tuple(term_list), tuple(steps))
    check = lv.rewriting.verify_derivation(joined, d)
    if not check:
        raise RuntimeError(f"generated join derivation does not verify: {check.reason}")
    return d


def project_ops(ctx: Context, rng: random.Random, round_index: int) -> list[Op]:
    """DERIVATIONS_PER_PAIR derivations per ordered preset pair whose left
    member has a collapsing axiom (every preset but the semilattice)."""
    presets = load_presets(ctx)
    ops = []
    for a, b in itertools.product(presets, repeat=2):
        for copy in range(DERIVATIONS_PER_PAIR):
            tag = _tag(rng, len(ops))
            left, right = rename_theory(ctx, a, tag), rename_theory(ctx, b, tag)
            owner, other, joined = ctx.lv.theories.embedded_components(left, right)
            d = join_derivation(ctx, rng, owner, other, joined)
            if d is None:
                break
            ops.append(Op(f"project:{a.name}:{b.name}:{copy}", "project", (left, right, d)))
    rng.shuffle(ops)
    return ops


MAKERS: dict[str, Callable[[Context, random.Random, int], list[Op]]] = {
    "classify": classify_ops,
    "entail": entail_ops,
    "project": project_ops,
}
WORKLOAD_NAMES = tuple(MAKERS)


def make_ops(ctx: Context, workload: str, seed: int, round_index: int) -> list[Op]:
    """The inputs of one round; a function of (workload, seed, round) only."""
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    return MAKERS[workload](ctx, rng, round_index)


def describe_ops(ctx: Context, ops: list[Op]) -> str:
    """Digest of the generated inputs, renamed symbols included."""

    def text(x) -> str:
        if isinstance(x, ctx.lv.theories.Theory):
            return x.name + "|" + ";".join(map(str, x.identities))
        if isinstance(x, ctx.lv.rewriting.Derivation):
            return " = ".join(map(str, x.terms))
        return str(x)

    h = hashlib.sha256()
    for op in ops:
        h.update("\n".join([op.key] + [text(a) for a in op.args]).encode())
    return h.hexdigest()[:16]


# -- the timed call -----------------------------------------------------------


def execute(ctx: Context, op: Op):
    lv = ctx.lv
    if op.kind == "classify":
        return lv.classification.classify(*op.args)
    if op.kind == "join":
        return lv.classification.check_join_decomposition(*op.args)
    if op.kind == "linear":
        theory, goal = op.args
        base = lv.saturation.saturate(theory)
        return lv.saturation.entails_flat(base, goal)
    if op.kind == "search":
        theory, goal = op.args
        return lv.rewriting.bfs_prove(theory, goal,
                                      lv.rewriting.SearchBounds(**BFS_BOUNDS))
    if op.kind == "project":
        return lv.projection.project_to_component(*op.args)
    raise ValueError(f"unknown op kind {op.kind}")


# -- the correctness gate -----------------------------------------------------


class GateError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _replays(ctx: Context, theory, derivation, allow_reflexivity: bool = False) -> None:
    check = ctx.lv.rewriting.verify_derivation(theory, derivation,
                                               allow_reflexivity=allow_reflexivity)
    _require(bool(check), f"certificate does not replay over {theory.name}: {check.reason}")


def _check_model(ctx: Context, algebra, theory) -> None:
    _require(bool(ctx.lv.models.satisfies(algebra, theory)),
             f"model does not satisfy {theory.name}")


def _check_report(ctx: Context, report, name: str) -> tuple[str, int]:
    answers = (report.cm.answer, report.nci.answer, report.nperm.answer)
    _require(answers == KNOWN_ANSWERS[name], f"{name}: answers {answers}")
    d_trace, o_trace = report.traces
    # the stage each verdict certifies: the first derivative for CM, the
    # last stage of the matching iteration for NCI and NPERM
    cm_stage = d_trace.stages[min(report.cm.stages_used, len(d_trace.stages) - 1)]
    steps = 0
    parts = []
    for verdict, stage in ((report.cm, cm_stage), (report.nci, d_trace.final),
                           (report.nperm, o_trace.final)):
        if verdict.derivation is not None:
            _replays(ctx, stage, verdict.derivation)
            steps += len(verdict.derivation.steps)
            parts.append(f"yes/{verdict.stages_used}/{len(verdict.derivation.steps)}")
        elif verdict.model is not None:
            _check_model(ctx, verdict.model, stage)
            parts.append(f"no/{verdict.stages_used}/model{verdict.model.size}")
        else:
            _require(bool(verdict.note) and verdict.answer is False,
                     f"{name}: {verdict.property_name} has no certificate and no note")
            parts.append(f"no/{verdict.stages_used}/note")
    return ",".join(parts), steps


def _same_ends(derivation, goal) -> bool:
    ends = (derivation.terms[0], derivation.terms[-1])
    return ends in ((goal.lhs, goal.rhs), (goal.rhs, goal.lhs))


def check(ctx: Context, op: Op, result) -> tuple[str, int]:
    """Raise GateError unless the result is correct; else (summary, cert steps)."""
    lv = ctx.lv
    if op.kind == "classify":
        return _check_report(ctx, result, op.known)
    if op.kind == "join":
        left, right = op.known
        _require(result.decomposition_holds, f"{op.key}: decomposition fails")
        _require(result.prime_filter_holds, f"{op.key}: prime-filter rule fails")
        for prop, j, a, b in result.properties:
            index = ("cm", "nci", "nperm").index(prop)
            _require(a == KNOWN_ANSWERS[left][index] and b == KNOWN_ANSWERS[right][index],
                     f"{op.key}: component answers for {prop}")
        return ",".join(f"{p}:{j}" for p, j, _, _ in result.properties), 0
    if op.kind == "linear":
        theory, goal = op.args
        if isinstance(result, lv.saturation.Entailed):
            _replays(ctx, theory, result.derivation)
            _require(_same_ends(result.derivation, goal), f"{op.key}: wrong endpoints")
            return f"entailed/{len(result.derivation.steps)}", len(result.derivation.steps)
        if isinstance(result, lv.saturation.NotEntailedWithModel):
            _check_model(ctx, result.algebra, theory)
            rho = {lv.terms.Variable(name): k for name, k in result.assignment}
            left = lv.models.eval_term(result.algebra, goal.lhs, rho)
            right = lv.models.eval_term(result.algebra, goal.rhs, rho)
            _require(left != right, f"{op.key}: model does not separate the goal")
            return f"refuted/{result.algebra.size}", 0
        _require(isinstance(result, lv.saturation.NotEntailed), f"{op.key}: {result!r}")
        return "not-entailed/note", 0
    if op.kind == "search":
        theory, goal = op.args
        if isinstance(result, lv.rewriting.Proved):
            _replays(ctx, theory, result.derivation)
            _require(_same_ends(result.derivation, goal), f"{op.key}: wrong endpoints")
            return f"proved/{len(result.derivation.steps)}", len(result.derivation.steps)
        _require(isinstance(result, lv.rewriting.Unknown), f"{op.key}: {result!r}")
        return "unknown", 0
    if op.kind == "project":
        d = op.args[2]
        out = result.derivation
        _replays(ctx, result.owner_theory, out, allow_reflexivity=True)
        _require(result.owner_index == 1, f"{op.key}: owner {result.owner_index}")
        _require(all(lv.terms.is_flat(t) for t in out.terms), f"{op.key}: not flat")
        _require(out.terms[0] == d.terms[0] and out.terms[-1] == d.terms[-1],
                 f"{op.key}: endpoints changed")
        return f"projected/{len(d.steps)}/{len(out.steps)}", len(out.steps)
    raise ValueError(f"unknown op kind {op.kind}")
