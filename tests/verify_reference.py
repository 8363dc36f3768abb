"""The step verifier as it stood before it checked steps in place: each
step's source instance, produced instance and replayed term are built and
compared.  Kept as the oracle of the differential test in
`test_rewriting.py`, the way `projection_reference` keeps the projection
code; it returns the package's own `VerifyResult`, so the two compare
directly."""
from __future__ import annotations

from linvar.rewriting import Derivation, VerifyResult
from linvar.terms import (
    InvalidPositionError,
    Variable,
    apply_substitution,
    render_term,
    replace_at,
    subterm_at,
)
from linvar.theories import Identity, Theory, canonicalize_identity


def _is_reflexivity(e: Identity) -> bool:
    return isinstance(e.lhs, Variable) and e.lhs == e.rhs


def verify_derivation(theory: Theory, d: Derivation,
                      allow_reflexivity: bool = False) -> VerifyResult:
    """Replay every step; pinpoint the first one that does not check out."""
    if not d.terms or len(d.terms) != len(d.steps) + 1:
        return VerifyResult(False, None, "terms and steps do not line up")
    canon = theory.identity_set()
    for i, step in enumerate(d.steps):
        eq = step.equation
        if not (allow_reflexivity and _is_reflexivity(eq)):
            # an identity in the canonical set is its own canonical form
            if eq not in canon and canonicalize_identity(eq) not in canon:
                return VerifyResult(False, i, f"equation {eq} is not in {theory.name}")
        src, dst = (eq.lhs, eq.rhs) if step.forward else (eq.rhs, eq.lhs)
        sigma = step.mapping
        try:
            sub = subterm_at(d.terms[i], step.position)
        except InvalidPositionError:
            return VerifyResult(False, i, f"position {list(step.position)} invalid")
        if apply_substitution(src, sigma) != sub:
            return VerifyResult(
                False, i,
                f"instance of {render_term(src)} does not match at {list(step.position)}")
        produced = replace_at(d.terms[i], step.position, apply_substitution(dst, sigma))
        if produced != d.terms[i + 1]:
            return VerifyResult(False, i, "step does not produce the next term")
    return VerifyResult(True)
