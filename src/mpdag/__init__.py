"""Total-effect identification and minimal effect enumeration on MPDAGs."""

from .graphs import (
    AncestralSets,
    GraphError,
    InternalInconsistencyError,
    NodePath,
    NotAPathError,
    PartiallyDirectedGraph,
    Validation,
    ancestors,
    ancestral_sets,
    bucket_decomposition,
    d_separated,
    descendants,
    parents_of_set,
    path_in,
    possible_ancestors,
    possible_descendants,
    proper_possibly_causal_paths,
    validate_pdag,
)
from .graphio import (
    GraphParseError,
    graph_to_json,
    load_graph,
    parse_graph,
    parse_orientations,
    render_dot,
    render_edge_list,
)
from .identify import (
    AdjustmentVerdict,
    GFormula,
    Identifiability,
    NotIdentifiedError,
    find_adjustment_set,
    forbidden_set,
    g_formula,
    is_adjustment_set,
    is_identified,
    violating_paths,
)
from .idgraphs import (
    BranchRecord,
    EnumerationResult,
    PartitionReport,
    id_graphs,
    method2_graphs,
    method3_graphs,
    select_branch_edge,
    verify_partition,
)
from .linear import (
    Dataset,
    EffectEstimate,
    ExactCovariance,
    LinearScm,
    PossibleEffects,
    RandomInstance,
    RejectionBudgetError,
    count_distinct,
    covariance,
    estimate_effect,
    possible_effects,
    random_instance,
    redraw_coefficients,
    regression_effect_for_dag,
    sample,
    standardized,
    true_total_effect,
)
from .meek import (
    Mpdag,
    OrientationConflictError,
    construct_mpdag,
    consistent_extension,
    cpdag_of_dag,
    enumerate_dags,
    is_represented,
    meek_closure,
)

__version__ = "0.1.0"
