"""Exact-arithmetic Nash blowups of affine toric varieties.

Affine toric varieties are encoded as finitely generated subsemigroups of
Z^d; the Nash blowup is computed combinatorially as the blowup of the
logarithmic Jacobian ideal, in any characteristic, and iterated until the
charts are smooth, a chart repeats up to unimodular isomorphism, or a
budget runs out.
"""

from .blowup import (
    Chart,
    EmptyLogJacobian,
    MonomialIdeal,
    blowup_charts,
    log_jacobian,
    minimalize,
    nash_step,
    step_charts,
    validate_characteristic,
)
from .cones import (
    Cone,
    DegenerateConeError,
    dual_rays,
    hilbert_basis,
)
from .families import (
    X_RELATIONS,
    counterexample_generators,
    counterexample_x,
    cyclic_quotient,
    from_preset,
    numerical,
    rebassoo,
    reeve,
)
from .intlinalg import (
    NoSolution,
    Underdetermined,
    determinant,
    hermite_normal_form,
    kernel_basis,
    smith_normal_form,
    solve_rational,
)
from .iterate import IterationNode, IterationTree, RunConfig, run
from .semigroups import (
    AffineSemigroup,
    IsoCertificate,
    NotPointedError,
    canonicalize,
    from_json_dict,
    invariant_key,
    is_smooth,
    isomorphic,
    to_json_dict,
    unit_quotient,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSemigroup",
    "Chart",
    "Cone",
    "DegenerateConeError",
    "EmptyLogJacobian",
    "IsoCertificate",
    "IterationNode",
    "IterationTree",
    "MonomialIdeal",
    "NoSolution",
    "NotPointedError",
    "RunConfig",
    "Underdetermined",
    "X_RELATIONS",
    "blowup_charts",
    "canonicalize",
    "counterexample_generators",
    "counterexample_x",
    "cyclic_quotient",
    "determinant",
    "dual_rays",
    "from_json_dict",
    "from_preset",
    "hermite_normal_form",
    "hilbert_basis",
    "invariant_key",
    "is_smooth",
    "isomorphic",
    "kernel_basis",
    "log_jacobian",
    "minimalize",
    "nash_step",
    "numerical",
    "rebassoo",
    "reeve",
    "run",
    "smith_normal_form",
    "solve_rational",
    "step_charts",
    "to_json_dict",
    "unit_quotient",
    "validate_characteristic",
]
