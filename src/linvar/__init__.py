"""linvar: Maltsev-condition classification of linear idempotent equational
theories via derivatives and order derivatives, with verifiable certificates.
"""

from .classification import (
    ClassificationReport,
    NotLinearIdempotentError,
    Verdict,
    check_join_decomposition,
    classify,
)
from .derivatives import (
    IterationTrace,
    StabilizationError,
    WeakIndependenceProfile,
    derivative,
    iterate,
    order_derivative,
    order_fact_set,
    weak_independence_profile,
)
from .dsl import ParseError, load_theory, parse_identity, parse_term, parse_theory, render_theory
from .models import (
    FiniteAlgebra,
    eval_term,
    find_model,
    refute_entailment,
    satisfies,
)
from .projection import (
    DerivationOccurrence,
    InconsistencyDetectedError,
    ProjectionResult,
    project_to_component,
    successors,
)
from .rewriting import (
    CertificateError,
    Derivation,
    DerivationStep,
    Proved,
    SearchBounds,
    Unknown,
    bfs_prove,
    derivation_from_json,
    derivation_to_json,
    verify_derivation,
)
from .saturation import (
    BudgetTooSmallError,
    Entailed,
    FlatFactBase,
    NotEntailed,
    NotEntailedWithModel,
    default_budget,
    entails_flat,
    goal_budget,
    is_inconsistent,
    saturate,
)
from .terms import (
    Application,
    AtomSpaceTooLargeError,
    InvalidPositionError,
    LinvarError,
    OperationSymbol,
    Term,
    Variable,
    apply_substitution,
    canonical_rename,
    match_term,
    replace_at,
    subterm_at,
)
from .theories import (
    Identity,
    SignatureMismatchError,
    Theory,
    UnknownSymbolError,
    ValidationReport,
    canonicalize_identity,
    join_disjoint,
    make_theory,
    theory_equal,
    validate,
)

__version__ = "0.1.0"
