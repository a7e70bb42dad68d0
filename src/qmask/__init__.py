"""Numerical verification toolkit for qubit information masking.

A single qubit b = alpha0|0> + alpha1|1> is *masked* by a pair of
two-qubit carrier states when Psi = alpha0|Psi0> + alpha1|Psi1> has
reduced states (on both subsystems) independent of the alphas.  This
package evaluates the masking conditions as numerical residuals,
decides feasibility of basis patterns by a certified bound, then a
witness (searched for the marginal-equality system, built from closed
forms for the full masking system), and samples the solution surfaces
of the two orthogonal-pair families it ships as built-in examples.
"""

from .qlinalg import QubitState, TwoQubitState
from .conditions import (
    MaskingReport,
    cross_term_matrix,
    eq4_residuals,
    eq7_eq8_residuals,
    masking_partner,
    masks_state,
    reduced_pair_residual,
)
from .patterns import (
    BasisPattern,
    FeasibilityConfig,
    FeasibilityOutcome,
    FeasibilityStatus,
    ScanViolation,
    TableRow,
    TableRowResult,
    Witness,
    assemble,
    feasible_eq4,
    feasible_full,
    load_table_fixture,
    reproduce_tables,
    support_theorem_scan,
)
from .ortho import (
    BRANCHES,
    EXAMPLE1_PAIR,
    SURFACE_CSV_HEADER,
    Example1Point,
    OrthoPairParams,
    SurfacePoint,
    build_example2_states,
    complete_masker_unitary,
    eq9_residuals,
    eq13_residuals,
    example2_residual,
    sample_example1,
    sample_example2,
    write_surface_csv,
)

__version__ = "0.1.0"

__all__ = [
    "QubitState", "TwoQubitState",
    "MaskingReport", "cross_term_matrix", "eq4_residuals",
    "eq7_eq8_residuals", "masking_partner", "masks_state",
    "reduced_pair_residual",
    "BasisPattern", "FeasibilityConfig", "FeasibilityOutcome",
    "FeasibilityStatus", "ScanViolation", "TableRow", "TableRowResult",
    "Witness", "assemble", "feasible_eq4", "feasible_full",
    "load_table_fixture", "reproduce_tables", "support_theorem_scan",
    "BRANCHES", "EXAMPLE1_PAIR", "SURFACE_CSV_HEADER", "Example1Point",
    "OrthoPairParams", "SurfacePoint",
    "build_example2_states", "complete_masker_unitary", "eq9_residuals",
    "eq13_residuals", "example2_residual", "sample_example1",
    "sample_example2", "write_surface_csv",
]
