"""entmono: multipartite entanglement monotones, polynomial local-unitary
invariants, and LOCC convertibility obstructions."""

from .states import (
    StateTensor,
    DensityOp,
    PartyGrouping,
    new_state,
    squared_norm,
    pure_density,
    reduced_density,
    partial_trace,
    odot,
    schmidt_values,
    apply_local_unitaries,
    apply_unilocal_kraus,
    load_state,
    save_state,
    state_to_dict,
    state_from_dict,
)
from .rng import stream_rng, haar_random_state, haar_random_frame, haar_random_unitary
from .monotones import (
    ProjectorFrame,
    SolverConfig,
    MonotoneResult,
    objective,
    bipartite_E,
    solve_E,
    E_ensemble,
    coarse_grain,
    trace_power_invariants,
    symmetric_monotones,
    majorizes,
    nielsen_E,
)
from .contractions import (
    ContractionExpr,
    Factor,
    InvariantValue,
    parse_contraction,
    format_contraction,
    eval_contraction,
    expand_eps_square,
    is_simple_form,
)
from .invariants import (
    builtin_invariants,
    builtin_patterns,
    tangle,
    tangle_squared_expanded,
    multiplicativity_check,
    local_unitary_invariance_check,
)
from .locc import (
    RankItem,
    default_rank_items,
    compare_dlocc,
    slocc_bound,
    copy_ratio_feasibility,
)
from .oracle import sample_E, trace_product_max
from . import catalog, errors

__version__ = "0.1.0"
