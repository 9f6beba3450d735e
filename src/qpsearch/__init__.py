"""Derivative-free pattern search with an exactly simulated quantum search
step.

The classical machinery is a standard generalized pattern search: a mesh of
candidate points, an opportunistic search step, and a convergence-carrying
poll step.  The quantum backend replaces the search step's O(N) scan with
amplitude amplification, simulated exactly on one amplitude per candidate,
using a finite-termination stopping rule, and keeps a strict ledger
separating classical from quantum oracle calls.  A sparse statevector over
full-width bitstrings is kept as the reference simulator.
"""

from .amplify import (
    DomainError,
    PreparationOperator,
    QSearchOutcome,
    QSearchParams,
    RoundRecord,
    SafetyCapReachedError,
    SearchProblem,
    analytic_success_probability,
    apply_Q,
    apply_S0,
    apply_Schi,
    desired_probability,
    failure_round_bound,
    is_desired,
    make_planted_problem,
    modified_qsearch,
    qsearch,
)
from .fixedpoint import (
    EncodingError,
    FixedPointFormat,
    FixedPointOverflowError,
    WidthMismatchError,
    decode_point,
    decode_scalar,
    encode_point,
    encode_point_exact,
    encode_scalar,
    encode_scalar_saturating,
    is_exactly_representable,
    negate_bits,
    sign_bit,
)
from .ledger import OracleLedger
from .objectives import UnknownObjectiveError, make_objective, objective_names
from .pattern import (
    DimensionMismatchError,
    GpsConfig,
    GpsRun,
    ImprovedPoint,
    IterationRecord,
    MeshExhaustedError,
    MeshState,
    NotPositiveSpanningError,
    PatternBasis,
    classical_search_step,
    gps_run,
    mesh_point,
    poll_set,
    poll_step,
    positive_spanning_check,
    select_search_points,
    update_mesh,
)
from .quantum_step import ComparisonReport, ComparisonRow, compare_backends, quantum_search_step
from .state import (
    CollisionError,
    EmptyTargetsError,
    HouseholderPrepare,
    IndexState,
    NormalizationError,
    RegisterLayout,
    SparseState,
    apply_basis_map,
    apply_phase,
    measure,
    sample_counts,
)

__version__ = "0.1.0"
