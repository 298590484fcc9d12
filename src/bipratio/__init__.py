"""Flow-based approximation of the vertex-weighted bipartiteness ratio.

The library revolves around four layers:

* ``graph``    -- exact data model: weighted multigraphs, sign vectors,
                  the doubled graph, and rational ratio evaluation.
* ``flow``     -- selection networks, blocking-flow max-flow, consistent
                  minimum cuts, path decomposition, demand graphs.
* ``spectral`` -- matrix multiplicative weights, Gram vectors from the
                  state's eigendecomposition, Gaussian rounding (plus a
                  standalone sketched Gram construction).
* ``game``     -- the cut-versus-matching round loop and the geometric
                  ratio sweep; ``maxcut`` builds the recursive max-cut
                  heuristic on top, ``oracle`` holds the brute-force ground
                  truth used everywhere in the tests.
"""

from .errors import (
    BipratioError,
    DegreeOverflowError,
    EmptyGraphError,
    EmptySelectionError,
    GameFailed,
    GraphFormatError,
    MalformedPathError,
    NumericalFailure,
    RoundFail,
    SaturatingFlowError,
    TooLargeError,
    ZeroVectorError,
)
from .flow import (
    DemandMultigraph,
    FlowAssignment,
    FlowNetwork,
    FlowPath,
    build_network,
    consistent_min_cut,
    decompose_flow,
    demand_graph,
    is_saturating,
    max_flow,
)
from .game import (
    Certificate,
    GameParams,
    SweepResult,
    Witness,
    approx_bipartiteness,
    cut_matching_game,
    play_round,
)
from .graph import (
    AuxiliaryGraph,
    Ratio,
    SignVector,
    WeightedGraph,
    aux_cut_ratio,
    build_auxiliary_graph,
    evaluate_beta,
    sign_vector,
    tripartition,
)
from .graphio import dump_graph, dumps_graph, load_graph, loads_graph
from .maxcut import CutResult, cut_value, induced_subgraph, recursive_bipart
from .oracle import brute_beta, brute_maxcut, brute_well_linked
from .spectral import (
    GramVectors,
    MmwuState,
    RoundedCut,
    approx_gram_vectors,
    demand_matrix,
    density_matrix,
    exact_gram_vectors,
    gaussian_round,
    taylor_apply_exp_half,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
