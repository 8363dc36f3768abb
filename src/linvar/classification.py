"""Three-property classification with certificates, and the join test.

For a linear idempotent presentation:
  - congruence modularity (CM) holds iff the derivative is inconsistent;
  - a nontrivial congruence identity (NCI) holds iff some iterated
    derivative is inconsistent;
  - n-permutability for some n (NPERM) holds iff some iterated order
    derivative is inconsistent.

Yes verdicts carry an inconsistency derivation; no verdicts carry a small
model of the stabilized stage when one exists in range.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal, Optional

from . import derivatives, models, rewriting
from .derivatives import IterationTrace
from .rewriting import Derivation, SearchBounds, bfs_prove
from .terms import Code, LinvarError, Variable
from .theories import (
    Identity,
    Theory,
    ValidationReport,
    idempotency_identity,
    join_disjoint,
    validate,
)

PropertyName = Literal["cm", "nci", "nperm"]


class NotLinearIdempotentError(LinvarError):
    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(f"{report.theory_name}: {'; '.join(report.problems)}")


@dataclass(frozen=True)
class Verdict:
    property_name: str
    answer: Optional[bool]  # None only in sufficient-only mode
    stages_used: int
    certificate_kind: Literal["derivation", "model", "none"]
    derivation: Optional[Derivation] = None
    model: Optional[models.FiniteAlgebra] = None
    note: str = ""

    def to_json(self) -> dict:
        out: dict = {
            "property": self.property_name,
            "answer": {True: "yes", False: "no", None: "unknown"}[self.answer],
            "stages_used": self.stages_used,
            "certificate": self.certificate_kind,
        }
        if self.derivation is not None:
            out["derivation"] = rewriting.derivation_to_json(self.derivation)
        if self.model is not None:
            out["model"] = self.model.to_json()
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class ClassificationReport:
    theory_name: str
    cm: Verdict
    nci: Verdict
    nperm: Verdict
    traces: tuple[IterationTrace, ...] = ()
    mode: str = "exact"

    @property
    def verdicts(self) -> tuple[Verdict, Verdict, Verdict]:
        return (self.cm, self.nci, self.nperm)

    def answer(self, prop: PropertyName) -> Optional[bool]:
        return getattr(self, prop).answer

    def to_json(self) -> dict:
        return {
            "theory": self.theory_name,
            "mode": self.mode,
            "verdicts": {
                "cm": self.cm.to_json(),
                "nci": self.nci.to_json(),
                "nperm": self.nperm.to_json(),
            },
            "traces": [
                {
                    "operator": tr.operator,
                    "budget": tr.budget,
                    "stop": tr.stop_reason,
                    "stages": [t.name for t in tr.stages],
                    "stage_sizes": [len(t.codes) for t in tr.stages],
                }
                for tr in self.traces
            ],
        }


def _no_verdict(prop: str, stage: Theory, stages_used: int,
                model_range: tuple[int, int]) -> Verdict:
    """A no-verdict with the first model of the stage in the size range.

    A one-element algebra satisfies x = y, so it certifies nothing and is
    not searched.  A consistent linear stage has a model of every size of
    at least two (the classes of a saturation over that many variables),
    so the certificate is "none" only when the range holds no such size.
    """
    found = models.find_model(stage, max(2, model_range[0]), model_range[1])
    if found is None:
        return Verdict(prop, False, stages_used, "none",
                       note=f"saturation fixpoint consistent; no model of at "
                            f"least two elements in the size range "
                            f"{model_range[0]}..{model_range[1]}")
    algebra, _ = found
    return Verdict(prop, False, stages_used, "model", model=algebra)


def _answers(d_trace: IterationTrace, o_trace: IterationTrace
             ) -> tuple[bool, bool, bool]:
    """(cm, nci, nperm) read off the stop reasons, without certificates."""
    nci = d_trace.stop_reason == "inconsistent"
    # the derivative, or already the input, is inconsistent
    cm = nci and len(d_trace.stages) <= 2
    nperm = o_trace.stop_reason == "inconsistent"
    return cm, nci, nperm


def _trace_verdict(prop: str, trace: IterationTrace, answer: bool,
                   model_range: tuple[int, int]) -> Verdict:
    if answer:
        return Verdict(prop, True, len(trace.stages) - 1, "derivation",
                       derivation=trace.certificate.derivation)
    return _no_verdict(prop, trace.final, len(trace.stages) - 1, model_range)


def _report(theory: Theory, d_trace: IterationTrace, o_trace: IterationTrace,
            model_range: tuple[int, int]) -> ClassificationReport:
    """The three verdicts of `_answers`, each with its certificate."""
    cm_yes, nci_yes, nperm_yes = _answers(d_trace, o_trace)
    nci = _trace_verdict("nci", d_trace, nci_yes, model_range)
    if cm_yes:
        cm = Verdict("cm", True, nci.stages_used, "derivation",
                     derivation=nci.derivation)
    elif d_trace.stages[1] is d_trace.final:
        # a fixpoint at stage 1: the NCI no-verdict is about the same stage
        cm = replace(nci, property_name="cm")
    else:
        # a consistent stage 0 always has its derivative recorded as stage 1
        cm = _no_verdict("cm", d_trace.stages[1], 1, model_range)
    nperm = _trace_verdict("nperm", o_trace, nperm_yes, model_range)
    return ClassificationReport(theory.name, cm, nci, nperm,
                                traces=(d_trace, o_trace))


def classify(theory: Theory, model_range: tuple[int, int] = models.DEFAULT_SIZES,
             sufficient_only: bool = False) -> ClassificationReport:
    """Decide all three properties; certificates attached per verdict.

    Inputs must be linear and idempotent; `sufficient_only` admits
    idempotent non-linear input and reports only the sound direction
    (derivative inconsistency implies CM), leaving the rest unknown.
    """
    report = validate(theory)
    if not report.ok:
        if sufficient_only:
            return _classify_sufficient_only(theory, report)
        raise NotLinearIdempotentError(report)
    return _report(theory, derivatives.iterate(theory, "derivative"),
                   derivatives.iterate(theory, "order_derivative"),
                   model_range)


def _bfs_idempotent(theory: Theory, report: ValidationReport,
                    bounds: SearchBounds) -> bool:
    for name, status in report.idempotency:
        if status != "not-established":
            continue
        symbol = derivatives._symbol(theory, name)
        outcome = bfs_prove(theory, idempotency_identity(symbol), bounds)
        if not isinstance(outcome, rewriting.Proved):
            return False
    return True


def _classify_sufficient_only(theory: Theory, report: ValidationReport
                              ) -> ClassificationReport:
    """One-directional check for idempotent non-linear presentations.

    Weak independences are collected by bounded proof search, so the profile
    is a sound under-approximation; an inconsistency proof for the resulting
    derivative is then conclusive for CM.
    """
    bounds = SearchBounds(max_terms=5_000, max_depth=4, max_term_size=20)
    if not _bfs_idempotent(theory, report, bounds):
        raise NotLinearIdempotentError(report)
    pairs = set()
    for s in theory.symbols:
        for i in range(1, s.arity + 1):
            for w in derivatives._canonical_tuples(s.arity, s.arity + 1):
                if w[i - 1] == 0:
                    continue
                fact = derivatives._fact_identity(s, w)
                if isinstance(bfs_prove(theory, fact, bounds), rewriting.Proved):
                    pairs.add((s.name, i))
                    break
    first = derivatives._next_stage(theory, "derivative", frozenset(pairs))
    outcome = bfs_prove(first, Identity(Variable("x"), Variable("y")), bounds)
    if isinstance(outcome, rewriting.Proved):
        cm = Verdict("cm", True, 1, "derivation", derivation=outcome.derivation,
                     note="sufficient-only: derivative inconsistency proved by search")
    else:
        cm = Verdict("cm", None, 1, "none",
                     note="sufficient-only: search found no inconsistency proof")
    unknown = Verdict("nci", None, 0, "none", note="not evaluated: input not linear")
    unknown2 = Verdict("nperm", None, 0, "none", note="not evaluated: input not linear")
    return ClassificationReport(theory.name, cm, unknown, unknown2,
                                mode="sufficient-only")


@dataclass(frozen=True)
class OperatorDecomposition:
    operator: str
    stages_compared: int
    equal_per_stage: tuple[bool, ...]

    @property
    def holds(self) -> bool:
        return all(self.equal_per_stage)


@dataclass(frozen=True)
class JoinDecompositionReport:
    left: str
    right: str
    join: str
    operators: tuple[OperatorDecomposition, ...]
    # per property: (join answer, left answer, right answer)
    properties: tuple[tuple[str, bool, bool, bool], ...]

    @property
    def decomposition_holds(self) -> bool:
        return all(op.holds for op in self.operators)

    @property
    def prime_filter_holds(self) -> bool:
        return all(j == (a or b) for _, j, a, b in self.properties)

    def to_json(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "join": self.join,
            "operators": [
                {"operator": op.operator, "stages": op.stages_compared,
                 "equal_per_stage": list(op.equal_per_stage)}
                for op in self.operators
            ],
            "properties": [
                {"property": name, "join": j, "left": a, "right": b}
                for name, j, a, b in self.properties
            ],
            "decomposition_holds": self.decomposition_holds,
            "prime_filter_holds": self.prime_filter_holds,
        }


def _added(stage: Theory, start: Theory) -> frozenset[Code]:
    """The codes a trace's stage added to its stage 0, `start`."""
    return frozenset(stage.codes[len(start.codes):])


def _join_stage_matches(stages: tuple[Theory, Theory, Theory],
                        starts: tuple[Theory, Theory, Theory]) -> bool:
    """Whether stage n of the join's trace has the identity set of
    join_disjoint(a_n, b_n), for `stages` (join_n, a_n, b_n) and the
    traces' stage 0 `starts` (join, a, b), without building that join.

    A code stands for one canonical identity, so comparing codes compares
    identities.  Past stage 0 the operators add the codes of v0 = F(...)
    and F(...) = F(...), whose canonical forms do not depend on F's name:
    renaming b's symbols through the join's `renames` maps b's added codes
    to those of its added identities as the join holds them.  No added
    code is an identity of the join's stage 0, since each names a symbol
    of one component and is new in that component (the rename being a
    bijection).  So both theories are stage 0 plus a disjoint added part,
    empty at n = 0, and they are equal exactly when the added parts are.
    Taking the parts since stage 0, not since stage n - 1, keeps this exact
    after an earlier mismatch too.
    """
    (join_n, a_n, b_n), (joined, a, b) = stages, starts
    rename = dict(joined.renames)
    renamed_b = {(rename.get(ln, ln), la, rename.get(rn, rn), ra)
                 for ln, la, rn, ra in _added(b_n, b)}
    return _added(join_n, joined) == _added(a_n, a) | renamed_b


def check_join_decomposition(left: Theory, right: Theory
                             ) -> JoinDecompositionReport:
    """Stage-by-stage distribution of both operators over the join, plus the
    prime-filter comparison for all three properties.

    Each theory is iterated once per operator; the same traces feed both
    the stagewise comparison and the three answers, which need no
    certificate, so none is built.  Every stage is compared by the codes
    it added since stage 0 (`_join_stage_matches`).
    """
    joined = join_disjoint(left, right)
    theories = (joined, left, right)
    for report in map(validate, theories):
        if not report.ok:
            raise NotLinearIdempotentError(report)
    traces = {operator: [derivatives.iterate(t, operator) for t in theories]
              for operator in ("derivative", "order_derivative")}
    ops = []
    for operator, (join_trace, left_trace, right_trace) in traces.items():
        flags = []
        for n in range(len(join_trace.stages)):
            try:
                a, b = left_trace.stage(n), right_trace.stage(n)
            except IndexError:
                # A component stopped inconsistent at a stage m < n.  Had the
                # join's stage m equalled the combined one, the join would
                # have stopped there too, so an earlier flag is already false.
                flags.append(False)
                continue
            flags.append(_join_stage_matches((join_trace.stages[n], a, b), theories))
        ops.append(OperatorDecomposition(operator, len(flags), tuple(flags)))

    answers = [_answers(d, o) for d, o in
               zip(traces["derivative"], traces["order_derivative"])]
    # transpose per-theory (cm, nci, nperm) into per-property (join, left, right)
    props = tuple((prop, j, a, b) for prop, (j, a, b) in
                  zip(("cm", "nci", "nperm"), zip(*answers)))
    return JoinDecompositionReport(left.name, right.name, joined.name,
                                   tuple(ops), props)
