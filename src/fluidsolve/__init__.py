"""Iterative fixed-point solvers with a fluid-diffusion view of convergence.

Power iteration, Jacobi and Gauss-Seidel re-expressed as diffusion of
residual fluid, with per-step accounting of where the L1 mass goes
(contraction vs sign cancellation).
"""

from .cases import BUILTIN_CASES, DEFAULT_DAMPING, CaseDefinition, load_case
from .diffusion import (
    DiffusionRun,
    DiffusionState,
    StoppingRule,
    aggregate_sweeps,
    diffuse_coordinate,
    diffuse_vector,
    run_diffusion,
)
from .equivalence import (
    DiffusionEquivalent,
    EquivalenceReport,
    dense_solve_oracle,
    pagerank_decompose,
    pagerank_matrix,
    to_diffusion,
    verify_equivalence,
)
from .io import ParseError, read_matrix_market, read_vector, write_trace_csv
from .linalg import (
    SparseColumnMatrix,
    UpdateSequence,
    as_vector,
    l1_norm,
    sigma,
    uniform_vector,
)
from .schemes import (
    SCHEME_KINDS,
    RowView,
    SchemeSpec,
    step_gsa,
    step_gsl,
    step_jacobi,
    step_pi,
)

__version__ = "0.1.0"
