"""The projection code as it stood before its inner loops were rewritten
without per-edge objects, kept as the oracle of the differential tests in
`test_projection.py`, the way `_reference_bfs_prove` keeps the Term-based
proof search.  Errors and results are the package's own types, so the two
can be compared directly."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from linvar.projection import (
    InconsistencyDetectedError,
    NotAProjectionInstanceError,
    ProjectionError,
    ProjectionResult,
)
from linvar.rewriting import Derivation, DerivationStep, make_step, verify_derivation
from linvar.terms import (
    Application,
    Position,
    Term,
    Variable,
    fresh_variables,
    is_flat,
    render_term,
    subterm_at,
    term_variables,
)
from linvar.theories import Identity, Theory, embedded_components


class OwnerAmbiguousError(ProjectionError):
    """Never raised: the join renames the components' symbols apart."""


def _derivation_variable_names(d: Derivation) -> set[str]:
    names = set()
    for t in d.terms:
        names.update(v.name for v in term_variables(t))
    for step in d.steps:
        for v, t in step.subst:
            names.add(v.name)
            names.update(w.name for w in term_variables(t))
        names.update(v.name for v in term_variables(step.equation.lhs))
        names.update(v.name for v in term_variables(step.equation.rhs))
    return names


@dataclass(frozen=True)
class DerivationOccurrence:
    index: int
    position: Position


@dataclass(frozen=True)
class SuccessorEdge:
    source: DerivationOccurrence
    target: DerivationOccurrence
    case: int       # 1: untouched, 2: rewrite inside, 3: variable fan-out, 4: root step
    step: int       # 1-based step the edge crosses (or sits beside, for case 3)
    direction: int  # +1 along the derivation, -1 against it


def _is_prefix(p: Position, q: Position) -> bool:
    return len(p) <= len(q) and q[:len(p)] == p


@dataclass(frozen=True)
class _OrientedStep:
    """One rewriting step read in a fixed direction."""

    from_index: int
    to_index: int
    src_side: Term   # equation side matched in the from-term
    dst_side: Term
    position: Position
    step: int
    direction: int


def _oriented(d: Derivation, m: int, direction: int) -> _OrientedStep:
    step = d.steps[m - 1]
    src, dst = (step.equation.lhs, step.equation.rhs)
    if not step.forward:
        src, dst = dst, src
    if direction > 0:
        return _OrientedStep(m - 1, m, src, dst, step.position, m, direction)
    return _OrientedStep(m, m - 1, dst, src, step.position, m, direction)


def _variable_positions(side: Term, v: Variable) -> list[Position]:
    if isinstance(side, Variable):
        return [()] if side == v else []
    out: list[Position] = []
    for k, child in enumerate(side.children, start=1):
        if child == v:
            out.append((k,))
    return out


def _variable_children(side: Term) -> tuple[Variable, ...]:
    """The argument variables of an equation side that is a flat application."""
    if not (isinstance(side, Application) and is_flat(side)):
        raise ProjectionError(f"equation side {render_term(side)} is not a flat application")
    return side.children  # type: ignore[return-value]


def _edges_for(d: Derivation, ostep: _OrientedStep, pos: Position
               ) -> Iterator[SuccessorEdge]:
    """Successor edges leaving occurrence (ostep.from_index, pos)."""
    u = DerivationOccurrence(ostep.from_index, pos)
    s_pos = ostep.position
    if not _is_prefix(pos, s_pos) and not _is_prefix(s_pos, pos):
        yield SuccessorEdge(u, DerivationOccurrence(ostep.to_index, pos), 1,
                            ostep.step, ostep.direction)
        return
    if _is_prefix(pos, s_pos) and pos != s_pos:
        # the rewrite happened strictly inside this occurrence
        yield SuccessorEdge(u, DerivationOccurrence(ostep.to_index, pos), 2,
                            ostep.step, ostep.direction)
        return
    src, dst = ostep.src_side, ostep.dst_side
    if pos == s_pos and isinstance(src, Application):
        yield SuccessorEdge(u, DerivationOccurrence(ostep.to_index, s_pos), 4,
                            ostep.step, ostep.direction)
        return
    # this occurrence sits at or under the matched image of a variable
    if isinstance(src, Variable):
        w = src
        p_pos = s_pos
    else:
        child_index = pos[len(s_pos)]
        w = _variable_children(src)[child_index - 1]
        p_pos = s_pos + (child_index,)
    rel = pos[len(p_pos):]
    for q in _variable_positions(src, w):
        yield SuccessorEdge(u, DerivationOccurrence(ostep.from_index, s_pos + q + rel),
                            3, ostep.step, ostep.direction)
    for q in _variable_positions(dst, w):
        yield SuccessorEdge(u, DerivationOccurrence(ostep.to_index, s_pos + q + rel),
                            3, ostep.step, ostep.direction)


def successors(d: Derivation, occ: DerivationOccurrence) -> tuple[SuccessorEdge, ...]:
    """The successor edges leaving one occurrence.

    They come from the step after its term read forward and the step before
    it read backward, ordered forward edges first, then by case and target.
    """
    edges: list[SuccessorEdge] = []
    if occ.index < len(d.steps):
        edges.extend(_edges_for(d, _oriented(d, occ.index + 1, 1), occ.position))
    if occ.index > 0:
        edges.extend(_edges_for(d, _oriented(d, occ.index, -1), occ.position))
    return tuple(sorted(edges, key=lambda e: (-e.direction, e.case,
                                              e.target.index, e.target.position)))


def occurrence_term(d: Derivation, occ: DerivationOccurrence) -> Term:
    return subterm_at(d.terms[occ.index], occ.position)


# -- chain extraction and replay ---------------------------------------------


@dataclass(frozen=True)
class _UnionEdge:
    """Why two chain-children share a class.

    kind "equal": their subterms are syntactically equal.
    kind "rewrite": one inner rewriting step of the original derivation
    turns one subterm into the other (payload records how to replay it).
    """

    a: tuple[int, int]
    b: tuple[int, int]
    kind: str
    equation: Optional[Identity] = None
    forward: bool = True
    rel_position: Position = ()
    subst: tuple = ()


class _ClassAssignment:
    """Union-find over chain children with recorded reasons."""

    def __init__(self) -> None:
        self.parent: dict[tuple[int, int], tuple[int, int]] = {}
        self.edges: list[_UnionEdge] = []

    def find(self, x: tuple[int, int]) -> tuple[int, int]:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, edge: _UnionEdge) -> None:
        self.edges.append(edge)
        ra, rb = self.find(edge.a), self.find(edge.b)
        if ra != rb:
            self.parent[rb] = ra


def _chain_search(d: Derivation, owner_sig: frozenset, goal: Variable
                  ) -> Optional[tuple[list[DerivationOccurrence],
                                      list[SuccessorEdge]]]:
    """Shortest successor chain supporting a flat replay.

    The search walks occurrences rooted in the owner's signature.  A root
    step whose equation collapses to a variable ends the chain: either it
    lands on the goal variable directly, or it lands on a compound term, in
    which case the replay can still terminate there provided the collapsing
    child's class resolves to the goal variable (checked by the caller).
    Returns the application occurrences followed by the edges between them;
    the final edge is always such a collapsing root step.
    """
    start = DerivationOccurrence(0, ())
    parents: dict[DerivationOccurrence, tuple[DerivationOccurrence, SuccessorEdge]] = {}
    seen = {start}
    queue = deque([start])
    collapse: Optional[tuple[DerivationOccurrence, SuccessorEdge]] = None

    def assemble(last: DerivationOccurrence, final_edge: SuccessorEdge
                 ) -> tuple[list[DerivationOccurrence], list[SuccessorEdge]]:
        chain = [last]
        edges = [final_edge]
        node = last
        while node != start:
            prev, edge = parents[node]
            edges.append(edge)
            chain.append(prev)
            node = prev
        chain.reverse()
        edges.reverse()
        return chain, edges

    while queue:
        cur = queue.popleft()
        for e in successors(d, cur):
            occ = e.target
            if occ in seen:
                continue
            collapsing = e.case == 4 and \
                isinstance(_oriented(d, e.step, e.direction).dst_side, Variable)
            term = occurrence_term(d, occ)
            if isinstance(term, Variable):
                if term == goal and collapsing:
                    return assemble(cur, e)
                continue  # other variables are dead ends
            if not (isinstance(term, Application) and term.symbol in owner_sig):
                if collapsing and collapse is None:
                    collapse = (cur, e)
                continue
            if collapsing:
                # do not walk through the collapsed image; remember the hop
                if collapse is None:
                    collapse = (cur, e)
                continue
            seen.add(occ)
            parents[occ] = (cur, e)
            queue.append(occ)
    if collapse is not None:
        return assemble(*collapse)
    return None


def project_to_component(left: Theory, right: Theory, d: Derivation
                         ) -> ProjectionResult:
    """Flat derivation of F(x1..xn) = y inside the component owning F.

    The input must verify over the disjoint join of the two theories, start
    at a flat application of owned F on variables, and end at a variable.
    """
    left_emb, right_emb, joined = embedded_components(left, right)
    check = verify_derivation(joined, d)
    if not check:
        raise NotAProjectionInstanceError(
            f"derivation does not verify over {joined.name}: {check.reason}")
    t0, tn = d.terms[0], d.terms[-1]
    if not (isinstance(t0, Application)
            and all(isinstance(c, Variable) for c in t0.children)
            and isinstance(tn, Variable)):
        raise NotAProjectionInstanceError(
            "expected a derivation from F(x1,...,xn) to a variable")
    in_left = t0.symbol in left_emb.symbols
    in_right = t0.symbol in right_emb.symbols
    if in_left and in_right:
        raise OwnerAmbiguousError(f"{t0.symbol} appears in both components")
    if not in_left and not in_right:
        raise NotAProjectionInstanceError(f"{t0.symbol} belongs to neither component")
    owner_index = 1 if in_left else 2
    owner = left_emb if in_left else right_emb
    # The edge rule needs flat equation sides.  Check every step up front,
    # not only those the chain search reaches, so that a derivation is
    # accepted or rejected as a whole.
    for step in d.steps:
        eq = step.equation
        for side in ((eq.lhs, eq.rhs) if step.forward else (eq.rhs, eq.lhs)):
            if not is_flat(side):
                raise ProjectionError(f"equation side {render_term(side)} is not flat")

    found = _chain_search(d, frozenset(owner.symbols), tn)
    if found is None:
        raise ProjectionError(
            "no successor chain reaches the goal variable through "
            f"{owner.name}-rooted occurrences")
    chain, edges = found
    k = len(chain)  # application occurrences; edges[-1] is the collapsing hop

    classes = _ClassAssignment()
    # the chain search keeps application occurrences only
    chain_terms: list[Application] = [occurrence_term(d, occ) for occ in chain]  # type: ignore[misc]
    for i in range(k):
        for j in range(1, len(chain_terms[i].children) + 1):
            classes.find((i, j))
    for i, edge in enumerate(edges[:-1]):
        here, there = chain_terms[i], chain_terms[i + 1]
        if edge.case in (1, 3):
            if here != there:
                raise ProjectionError(
                    f"case {edge.case} edge at step {edge.step} changes "
                    f"{render_term(here)} into {render_term(there)}")
            for j in range(1, len(here.children) + 1):
                classes.union(_UnionEdge((i, j), (i + 1, j), "equal"))
        elif edge.case == 2:
            ostep = _oriented(d, edge.step, edge.direction)
            rel = ostep.position[len(chain[i].position):]
            affected = rel[0]
            for j in range(1, len(here.children) + 1):
                if j == affected:
                    step = d.steps[edge.step - 1]
                    fwd = step.forward if edge.direction > 0 else not step.forward
                    classes.union(_UnionEdge(
                        (i, j), (i + 1, j), "rewrite",
                        equation=step.equation, forward=fwd,
                        rel_position=rel[1:], subst=step.subst))
                else:
                    classes.union(_UnionEdge((i, j), (i + 1, j), "equal"))
        else:  # case 4 between two retained applications
            ostep = _oriented(d, edge.step, edge.direction)
            by_var: dict[Variable, list[tuple[int, int]]] = {}
            for j, v in enumerate(_variable_children(ostep.src_side), start=1):
                by_var.setdefault(v, []).append((i, j))
            for j, v in enumerate(_variable_children(ostep.dst_side), start=1):
                by_var.setdefault(v, []).append((i + 1, j))
            for slots in by_var.values():
                for a, b in zip(slots, slots[1:]):
                    classes.union(_UnionEdge(a, b, "equal"))

    # the collapsing hop relates the last application's children to each other
    terminal = edges[-1]
    if terminal.case != 4:
        raise ProjectionError(f"the chain ends on a case {terminal.case} edge, not a root step")
    terminal_step = _oriented(d, terminal.step, terminal.direction)
    collapse_var = terminal_step.dst_side
    if not isinstance(collapse_var, Variable):
        raise ProjectionError(
            f"the chain's last root step lands on {render_term(collapse_var)}, "
            "not a variable")
    terminal_slots: dict[Variable, list[tuple[int, int]]] = {}
    for j, v in enumerate(_variable_children(terminal_step.src_side), start=1):
        terminal_slots.setdefault(v, []).append((k - 1, j))
    for slots in terminal_slots.values():
        for a, b in zip(slots, slots[1:]):
            classes.union(_UnionEdge(a, b, "equal"))

    # Resolve classes to variables; two distinct variables in one class is an
    # inconsistency proof for the join.
    roots = {slot: classes.find(slot) for slot in sorted(classes.parent)}
    resolved: dict[tuple[int, int], Variable] = {}
    var_slot: dict[tuple[int, int], tuple[int, int]] = {}
    for slot, root in roots.items():
        i, j = slot
        term = chain_terms[i].children[j - 1]
        if isinstance(term, Variable):
            prev = var_slot.get(root)
            if prev is not None and chain_terms[prev[0]].children[prev[1] - 1] != term:
                raise InconsistencyDetectedError(
                    _conflict_derivation(joined, chain_terms, classes, prev, slot))
            var_slot.setdefault(root, slot)
            resolved[root] = term
    fresh: Optional[Iterator[Variable]] = None
    for root in roots.values():
        if root not in resolved:
            if fresh is None:
                fresh = fresh_variables(_derivation_variable_names(d))
            resolved[root] = next(fresh)
    image = {slot: resolved[root] for slot, root in roots.items()}

    flat_terms: list[Term] = [
        Application(t.symbol, tuple(image[i, j] for j in range(1, len(t.children) + 1)))
        for i, t in enumerate(chain_terms)]

    # where does the collapsing hop land, flatly?
    if collapse_var in terminal_slots:
        landing: Term = image[terminal_slots[collapse_var][0]]
    else:
        # fresh right-hand variable: its image is the hop's actual target
        landing = occurrence_term(d, terminal.target)
    if landing != tn:
        raise ProjectionError(
            f"the chain collapses to {render_term(landing)}, "
            f"not the goal variable {tn.name}")
    flat_terms.append(tn)

    out_terms: list[Term] = [flat_terms[0]]
    out_steps: list[DerivationStep] = []
    for i, edge in enumerate(edges):
        if edge.case != 4:
            if flat_terms[i] != flat_terms[i + 1]:
                raise ProjectionError(
                    f"non-root step {edge.step} does not flatten away: "
                    f"{render_term(flat_terms[i])} becomes {render_term(flat_terms[i + 1])}")
            continue
        ostep = _oriented(d, edge.step, edge.direction)
        dst = ostep.dst_side
        sigma: dict[Variable, Term] = {}
        for j, v in enumerate(_variable_children(ostep.src_side), start=1):
            sigma.setdefault(v, image[i, j])
        if isinstance(dst, Application):
            for j, v in enumerate(_variable_children(dst), start=1):
                sigma.setdefault(v, image[i + 1, j])
        else:
            sigma.setdefault(dst, tn)
        step_obj = d.steps[edge.step - 1]
        fwd = step_obj.forward if edge.direction > 0 else not step_obj.forward
        out_steps.append(make_step(step_obj.equation, fwd, (), sigma))
        out_terms.append(flat_terms[i + 1])

    out = Derivation(owner.name, tuple(out_terms), tuple(out_steps))
    check = verify_derivation(owner, out, allow_reflexivity=True)
    if not check:
        raise ProjectionError(
            f"projected derivation failed verification at step "
            f"{check.step_index}: {check.reason}")
    if not all(is_flat(t) for t in out.terms):
        raise ProjectionError("projected derivation is not flat")
    if out.terms[0] != t0 or out.terms[-1] != tn:
        raise ProjectionError("projected derivation does not keep the goal's endpoints")
    return ProjectionResult(out, owner_index, owner)


def _conflict_derivation(joined: Theory, chain_terms: list[Application],
                         classes: _ClassAssignment, a: tuple[int, int],
                         b: tuple[int, int]) -> Derivation:
    """Stitch recorded union reasons into a derivation between two child
    subterms whose classes collided."""
    adjacency: dict[tuple[int, int], list[tuple[tuple[int, int], _UnionEdge, bool]]] = {}
    for e in classes.edges:
        adjacency.setdefault(e.a, []).append((e.b, e, True))
        adjacency.setdefault(e.b, []).append((e.a, e, False))
    parents: dict[tuple[int, int], tuple[tuple[int, int], _UnionEdge, bool]] = {}
    seen = {a}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        if cur == b:
            break
        for nxt, e, along in adjacency.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                parents[nxt] = (cur, e, along)
                queue.append(nxt)
    if b not in seen:
        raise ProjectionError("collided slots are not connected by recorded unions")
    path: list[tuple[tuple[int, int], _UnionEdge, bool]] = []
    node = b
    while node != a:
        prev, e, along = parents[node]
        path.append((node, e, along))
        node = prev
    path.reverse()

    def slot_term(slot: tuple[int, int]) -> Term:
        return chain_terms[slot[0]].children[slot[1] - 1]

    terms: list[Term] = [slot_term(a)]
    steps: list[DerivationStep] = []
    for nxt, e, along in path:
        if e.kind == "rewrite":
            fwd = e.forward if along else not e.forward
            steps.append(DerivationStep(e.equation, fwd, e.rel_position, e.subst))  # type: ignore[arg-type]
            terms.append(slot_term(nxt))
        elif slot_term(nxt) != terms[-1]:
            raise ProjectionError(
                f"slot {nxt} holds {render_term(slot_term(nxt))} but was united "
                f"as equal to {render_term(terms[-1])}")
    d = Derivation(joined.name, tuple(terms), tuple(steps))
    check = verify_derivation(joined, d)
    if not check:
        raise ProjectionError(
            f"conflict certificate failed verification: {check.reason}")
    return d
