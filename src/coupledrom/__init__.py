"""coupledrom: certified reduced-order models for one-way coupled PDE systems.

A master model is solved independently, its interface trace becomes Dirichlet
data for a slave model (across conforming or non-conforming meshes), and all
three ingredients -- master, interface data, slave -- are reduced separately:
POD-Galerkin bases for the submodels, a greedy interpolation reducer for the
interface data, and residual-based a-posteriori bounds for the coupled error.
"""

from .errors import (
    ConfigError,
    DegenerateBasisError,
    DegenerateSnapshotsError,
    RomError,
    SolverFailureError,
)
from .estimator import (
    ErrorBoundReport,
    error_bound_steady,
    error_bound_unsteady,
    residual_steady,
    residual_unsteady,
    sigma_min,
)
from .experiments import (
    ExperimentConfig,
    config_from_dict,
    evaluate_test_set,
    measure_speedup,
    query_bounds,
    run_offline,
    run_sweep,
    steady_query_bound,
    summarize,
    unsteady_query_bounds,
)
from .fem import (
    apply_dirichlet_lifting,
    assemble_advection,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    l2_error,
    solve_steady,
    solve_unsteady_bdf1,
)
from .interface import (
    InterfaceReducer,
    build_transfer_matrix,
    deim_indices,
    nearest_dof_map,
)
from .mesh import InterfaceTrace, Mesh, build_box_mesh, extract_interface
from .pipeline import (
    FomProblem,
    OnlineResult,
    RomArtifacts,
    build_artifacts,
    build_fom,
    fom_coupled_solve,
    full_rank_artifacts,
    offline,
    online_solve,
    online_steady,
    online_unsteady,
    run_training,
)
from .pod import PodFactorization, ReducedBasis, SnapshotSet, pod
from .problems import (
    AffineTerm,
    BoxMeshSpec,
    CoupledProblemSpec,
    ForcingTerm,
    SubmodelSpec,
    TimeSpec,
    problem_from_dict,
    problem_to_dict,
)
from .sampling import ParameterSpace, SampleSet, lhs_sample
from .storage import (
    hash_bundle,
    load_bundle,
    read_matrix,
    write_bundle,
    write_matrix,
)

__version__ = "0.1.0"
