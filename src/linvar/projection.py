"""Projecting a join derivation of F(x1,...,xn) = y into the component
theory owning F, as a flat derivation.

The construction tracks how subterm occurrences travel through a derivation
via a successor relation with four edge kinds, extracts a shortest successor
chain from the first term to an occurrence of the goal variable, identifies
chain children that are forced equal, and replays the chain's root steps on
variable representatives of those classes.  Output validity is certified by
the derivation verifier rather than assumed.

The successor relation is never built whole: the out-edges of one
occurrence come from the two steps beside its term, and the chain search
computes them only for the occurrences it expands, reading each step's
equation sides where the step lies.  One edge rule, `_targets`, gives an
edge's case and its targets as plain (index, position) tuples; the search
looks each target up as such a tuple and builds an occurrence and an edge
record only for a target it has not reached.  `successors` builds every
record for one occurrence on its own from the same rule.  The up-front
flatness check reads each equation object once, at its first step.

A chain edge that is not a root step maps child j of one chain term to
child j of the next, so the next term keeps the same list of class ids; only
inner root steps and the final collapsing hop unite ids, in a union-find
over ints.  Resolving classes to variables, a term that shares its row
with the previous one re-reads only the children that are not the objects
the previous term had there, and the replay builds the flat image only of
term 0 and the two ends of each root step.  When two variables collide,
`_conflict_derivation` walks the chain's edges again, tying each child slot
to the slot it is equal to or rewritten into, and stitches the
inconsistency certificate from a shortest path of ties between the two
slots.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .rewriting import Derivation, DerivationStep, make_step, verify_derivation
from .terms import (
    Application,
    LinvarError,
    Position,
    Term,
    Variable,
    fresh_variables,
    is_flat,
    render_term,
    subterm_at,
    term_variables,
)
from .theories import Theory, embedded_components


class ProjectionError(LinvarError):
    pass


class NotAProjectionInstanceError(ProjectionError):
    pass


class InconsistencyDetectedError(ProjectionError):
    """The chain forced two distinct variables equal; carries the proof."""

    def __init__(self, derivation: Derivation):
        self.derivation = derivation
        super().__init__(
            "the derivation forces two distinct variables equal: "
            f"{render_term(derivation.terms[0])} = {render_term(derivation.terms[-1])}")


class DerivationOccurrence(NamedTuple):
    index: int
    position: Position


class SuccessorEdge(NamedTuple):
    source: DerivationOccurrence
    target: DerivationOccurrence
    case: int       # 1: untouched, 2: rewrite inside, 3: variable fan-out, 4: root step
    step: int       # 1-based step the edge crosses (or sits beside, for case 3)
    direction: int  # +1 along the derivation, -1 against it


def _sides(step: DerivationStep, direction: int) -> tuple[Term, Term]:
    """The equation side a step matches and the side it produces, read in
    the direction of travel (+1 along the derivation, -1 against it)."""
    eq = step.equation
    if step.forward == (direction > 0):
        return eq.lhs, eq.rhs
    return eq.rhs, eq.lhs


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


def _targets(d: Derivation, m: int, direction: int, index: int, pos: Position
             ) -> tuple[int, list[tuple[int, Position]]]:
    """The edge rule: the case and the (index, position) targets of the
    successor edges leaving the occurrence at `pos` of term `index` across
    step m read in the given direction, ordered by target: a fan-out lists
    the from-term's copies and the to-term's copies in index order, each by
    position."""
    step = d.steps[m - 1]
    s_pos = step.position
    to_index = m if direction > 0 else m - 1
    if pos[:len(s_pos)] != s_pos:
        # the step is not at or above this occurrence: it leaves it untouched
        # (1), or the rewrite happened strictly inside it (2)
        return (2 if s_pos[:len(pos)] == pos else 1), [(to_index, pos)]
    src, dst = _sides(step, direction)
    if pos == s_pos and isinstance(src, Application):
        return 4, [(to_index, s_pos)]
    # this occurrence sits at or under the matched image of a variable
    if isinstance(src, Variable):
        w = src
        p_pos = s_pos
    else:
        child_index = pos[len(s_pos)]
        w = _variable_children(src)[child_index - 1]
        p_pos = s_pos + (child_index,)
    rel = pos[len(p_pos):]
    sides = ((index, src), (to_index, dst))
    return 3, [(i, s_pos + q + rel)
               for i, side in (sides if direction > 0 else sides[::-1])
               for q in _variable_positions(side, w)]


def _edges_for(d: Derivation, m: int, direction: int,
               u: DerivationOccurrence) -> list[SuccessorEdge]:
    """Successor edges leaving occurrence u across step m read in the given
    direction, in the order of `_targets`."""
    case, targets = _targets(d, m, direction, u.index, u.position)
    return [SuccessorEdge(u, DerivationOccurrence(i, pos), case, m, direction)
            for i, pos in targets]


def successors(d: Derivation, occ: DerivationOccurrence) -> tuple[SuccessorEdge, ...]:
    """The successor edges leaving one occurrence.

    They come from the step after its term read forward and the step before
    it read backward, ordered forward edges first, then by case and target.
    """
    i = occ.index
    return tuple(edge for m, direction in ((i + 1, 1), (i, -1)) if 0 < m <= len(d.steps)
                 for edge in _edges_for(d, m, direction, occ))


def _derivation_variable_names(d: Derivation) -> set[str]:
    """Every variable name the derivation uses, which fresh names avoid."""
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


# -- chain extraction and replay ---------------------------------------------


# A chain-child slot (i, j): child j of chain term i.
_Slot = tuple[int, int]


@dataclass(frozen=True)
class ProjectionResult:
    derivation: Derivation
    owner_index: int  # 1 or 2
    owner_theory: Theory


def _chain_search(d: Derivation, owner_sig: frozenset, goal: Variable
                  ) -> Optional[tuple[list[DerivationOccurrence], list[SuccessorEdge]]]:
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
    parents: dict[DerivationOccurrence, Optional[SuccessorEdge]] = {start: None}
    queue = deque([start])
    collapse: Optional[SuccessorEdge] = None
    terms, steps = d.terms, d.steps

    def assemble(final_edge: SuccessorEdge
                 ) -> tuple[list[DerivationOccurrence], list[SuccessorEdge]]:
        chain = [final_edge.source]
        edges = [final_edge]
        edge = parents[final_edge.source]
        while edge is not None:
            edges.append(edge)
            chain.append(edge.source)
            edge = parents[edge.source]
        chain.reverse()
        edges.reverse()
        return chain, edges

    while queue:
        cur = queue.popleft()
        i, pos = cur
        # the step after the term read forward, then the one before it backward
        for m, direction in ((i + 1, 1), (i, -1)):
            if not 0 < m <= len(steps):
                continue
            case, targets = _targets(d, m, direction, i, pos)
            collapsing = (case == 4 and
                          isinstance(_sides(steps[m - 1], direction)[1], Variable))
            for target in targets:
                # a plain tuple hashes and compares as the occurrence it names
                if target in parents:
                    continue
                term = subterm_at(terms[target[0]], target[1])
                if isinstance(term, Variable):
                    if term == goal and collapsing:
                        return assemble(SuccessorEdge(
                            cur, DerivationOccurrence(*target), case, m, direction))
                    continue  # other variables are dead ends
                if collapsing or term.symbol not in owner_sig:
                    # do not walk through a collapsed image; remember the first hop
                    if collapsing and collapse is None:
                        collapse = SuccessorEdge(
                            cur, DerivationOccurrence(*target), case, m, direction)
                    continue
                occ = DerivationOccurrence(*target)
                parents[occ] = SuccessorEdge(cur, occ, case, m, direction)
                queue.append(occ)
    if collapse is not None:
        return assemble(collapse)
    return None


def _root_pairs(src: Term, dst: Term) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The child slots a root step forces equal, chained per variable in
    slot order.  A slot is (0, j) for child j of the source side's image and
    (1, j) for child j of the produced side's; a collapsed side has none."""
    by_var: dict[Variable, list[tuple[int, int]]] = {}
    for j, v in enumerate(_variable_children(src), start=1):
        by_var.setdefault(v, []).append((0, j))
    if isinstance(dst, Application):
        for j, v in enumerate(_variable_children(dst), start=1):
            by_var.setdefault(v, []).append((1, j))
    return [pair for slots in by_var.values() for pair in zip(slots, slots[1:])]


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
    # the join renames the right component's symbols apart from the left's
    if t0.symbol in left_emb.symbols:
        owner_index, owner = 1, left_emb
    elif t0.symbol in right_emb.symbols:
        owner_index, owner = 2, right_emb
    else:
        raise NotAProjectionInstanceError(f"{t0.symbol} belongs to neither component")
    # The edge rule needs flat equation sides.  Check every step up front,
    # not only those the chain search reaches, so that a derivation is
    # accepted or rejected as a whole; an equation object is checked at the
    # first step that uses it, which is where it would fail.
    checked: set[int] = set()
    for step in d.steps:
        if id(step.equation) in checked:
            continue
        checked.add(id(step.equation))
        for side in _sides(step, 1):
            if not is_flat(side):
                raise ProjectionError(f"equation side {render_term(side)} is not flat")

    found = _chain_search(d, frozenset(owner.symbols), tn)
    if found is None:
        raise ProjectionError(
            "no successor chain reaches the goal variable through "
            f"{owner.name}-rooted occurrences")
    chain, edges = found  # edges[-1] is the collapsing hop
    # the chain search keeps application occurrences only
    chain_terms: list[Application] = [
        subterm_at(d.terms[o.index], o.position) for o in chain]  # type: ignore[misc]

    # Class ids of each chain term's children.  A non-root edge keeps child
    # j at child j, so the next term shares the list; a root step gives its
    # target fresh ids and unites the slots its equation's variables tie.
    parent: list[int] = list(range(chain_terms[0].symbol.arity))
    rows: list[list[int]] = [parent[:]]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def unite(pairs, here: list[int], there: list[int]) -> None:
        sides = (here, there)
        for (s, j), (t, l) in pairs:
            ra, rb = find(sides[s][j - 1]), find(sides[t][l - 1])
            if ra != rb:
                parent[rb] = ra

    for i, edge in enumerate(edges[:-1]):
        here, there = chain_terms[i], chain_terms[i + 1]
        if edge.case == 4:
            row = list(range(len(parent), len(parent) + there.symbol.arity))
            parent.extend(row)
            unite(_root_pairs(*_sides(d.steps[edge.step - 1], edge.direction)), rows[i], row)
            rows.append(row)
            continue
        # a rewrite strictly inside keeps the root symbol; the others keep the term
        changed = here.symbol != there.symbol if edge.case == 2 else here != there
        if changed:
            raise ProjectionError(
                f"case {edge.case} edge at step {edge.step} changes "
                f"{render_term(here)} into {render_term(there)}")
        rows.append(rows[i])

    # the collapsing hop relates the last application's children to each other
    terminal = edges[-1]
    if terminal.case != 4:
        raise ProjectionError(f"the chain ends on a case {terminal.case} edge, not a root step")
    terminal_src, collapse_var = _sides(d.steps[terminal.step - 1], terminal.direction)
    if not isinstance(collapse_var, Variable):
        raise ProjectionError(
            f"the chain's last root step lands on {render_term(collapse_var)}, "
            "not a variable")
    unite(_root_pairs(terminal_src, collapse_var), rows[-1], rows[-1])

    # Resolve classes to variables in slot order; two distinct variables in
    # one class is an inconsistency proof for the join.  Classes without a
    # variable get fresh names in the order of their first slot.
    held: dict[int, tuple[Variable, tuple[int, int]]] = {}
    unnamed: dict[int, None] = {}
    roots: list[list[int]] = []
    for i, t in enumerate(chain_terms):
        children = t.children
        if i and rows[i] is rows[i - 1]:
            # a child the previous term had there, under the same root, is
            # already resolved
            row_roots = roots[-1]
            before = chain_terms[i - 1].children
            slots = [j for j, child in enumerate(children) if child is not before[j]]
        else:
            row_roots = [find(c) for c in rows[i]]
            slots = range(len(children))
        roots.append(row_roots)
        for j in slots:
            child, r = children[j], row_roots[j]
            if isinstance(child, Variable):
                first = held.get(r)
                if first is None:
                    held[r] = (child, (i, j + 1))
                elif first[0] != child:
                    raise InconsistencyDetectedError(_conflict_derivation(
                        joined, d, chain, edges, chain_terms, first[1], (i, j + 1)))
            else:
                unnamed.setdefault(r)
    names = {r: v for r, (v, _) in held.items()}
    fresh: Optional[Iterator[Variable]] = None
    for r in unnamed:
        if r not in names:
            if fresh is None:
                fresh = fresh_variables(_derivation_variable_names(d))
            names[r] = next(fresh)

    # where does the collapsing hop land, flatly?
    src_children = _variable_children(terminal_src)
    if collapse_var in src_children:
        landing: Term = names[roots[-1][src_children.index(collapse_var)]]
    else:
        # fresh right-hand variable: its image is the hop's actual target
        landing = subterm_at(d.terms[terminal.target.index], terminal.target.position)
    if landing != tn:
        raise ProjectionError(
            f"the chain collapses to {render_term(landing)}, "
            f"not the goal variable {tn.name}")

    # replay the root steps on the flat terms, which read only term 0 and
    # the two ends of each root step but the collapsing hop's variable
    read = {0}
    for i, edge in enumerate(edges):
        if edge.case == 4:
            read.update((i, i + 1))
    read.discard(len(chain_terms))
    image = {i: tuple(names[r] for r in roots[i]) for i in read}
    out_terms: list[Term] = [Application(t0.symbol, image[0])]
    out_steps: list[DerivationStep] = []
    for i, edge in enumerate(edges):
        if edge.case != 4:
            continue
        step_obj = d.steps[edge.step - 1]
        src, dst = _sides(step_obj, edge.direction)
        sigma: dict[Variable, Term] = {}
        for v, value in zip(_variable_children(src), image[i]):
            sigma.setdefault(v, value)
        if isinstance(dst, Application):
            for v, value in zip(_variable_children(dst), image[i + 1]):
                sigma.setdefault(v, value)
            out_terms.append(Application(chain_terms[i + 1].symbol, image[i + 1]))
        else:
            sigma.setdefault(dst, tn)
            out_terms.append(tn)
        fwd = step_obj.forward if edge.direction > 0 else not step_obj.forward
        out_steps.append(make_step(step_obj.equation, fwd, (), sigma))

    out = Derivation(owner.name, tuple(out_terms), tuple(out_steps))
    check = verify_derivation(owner, out)
    if not check:
        raise ProjectionError(
            f"projected derivation failed verification at step "
            f"{check.step_index}: {check.reason}")
    if not all(is_flat(t) for t in out.terms):
        raise ProjectionError("projected derivation is not flat")
    if out.terms[0] != t0 or out.terms[-1] != tn:
        raise ProjectionError("projected derivation does not keep the goal's endpoints")
    return ProjectionResult(out, owner_index, owner)


def _conflict_derivation(joined: Theory, d: Derivation,
                         chain: list[DerivationOccurrence], edges: list[SuccessorEdge],
                         chain_terms: list[Application], a: _Slot, b: _Slot
                         ) -> Derivation:
    """A derivation between two chain-child slots whose classes collided.

    Edge by edge along the chain, a root step ties the slots its equation's
    variables tie, and a non-root edge ties child j of term i to child j of
    term i+1, through the inner step that rewrites inside that child, if
    any.  Each tie is stored both ways, with its inner step read in the
    direction of travel, and a shortest path of ties from a to b gives the
    derivation's steps.
    """
    adjacency: dict[_Slot, list[tuple[_Slot, Optional[DerivationStep]]]] = {}

    def tie(s: _Slot, t: _Slot, step: Optional[DerivationStep] = None,
            back: Optional[DerivationStep] = None) -> None:
        adjacency.setdefault(s, []).append((t, step))
        adjacency.setdefault(t, []).append((s, back))

    for i, edge in enumerate(edges):
        step = d.steps[edge.step - 1]
        if edge.case == 4:
            for (s, j), (t, l) in _root_pairs(*_sides(step, edge.direction)):
                tie((i + s, j), (i + t, l))
            continue
        inner, along, back = 0, None, None
        if edge.case == 2:
            rel = step.position[len(chain[i].position):]
            inner = rel[0]
            fwd = step.forward == (edge.direction > 0)
            along = DerivationStep(step.equation, fwd, rel[1:], step.subst)
            back = DerivationStep(step.equation, not fwd, rel[1:], step.subst)
        for j in range(1, chain_terms[i].symbol.arity + 1):
            if j == inner:
                tie((i, j), (i + 1, j), along, back)
            else:
                tie((i, j), (i + 1, j))
    parents: dict[_Slot, tuple[_Slot, Optional[DerivationStep]]] = {}
    seen = {a}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        if cur == b:
            break
        for nxt, via in adjacency.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                parents[nxt] = (cur, via)
                queue.append(nxt)
    if b not in seen:
        raise ProjectionError("collided slots are not connected by recorded unions")
    path: list[tuple[_Slot, Optional[DerivationStep]]] = []
    node = b
    while node != a:
        prev, via = parents[node]
        path.append((node, via))
        node = prev
    path.reverse()

    def slot_term(slot: _Slot) -> Term:
        return chain_terms[slot[0]].children[slot[1] - 1]

    terms: list[Term] = [slot_term(a)]
    steps: list[DerivationStep] = []
    for nxt, via in path:
        if via is not None:
            steps.append(via)
            terms.append(slot_term(nxt))
        elif slot_term(nxt) != terms[-1]:
            raise ProjectionError(
                f"slot {nxt} holds {render_term(slot_term(nxt))} but was united "
                f"as equal to {render_term(terms[-1])}")
    out = Derivation(joined.name, tuple(terms), tuple(steps))
    check = verify_derivation(joined, out)
    if not check:
        raise ProjectionError(
            f"conflict certificate failed verification: {check.reason}")
    return out
