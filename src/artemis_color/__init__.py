"""Optimal vertex coloring for Artemis graphs by even-pair contraction.

Artemis graphs contain no odd hole, no antihole of length five or more and no
prism.  The engine contracts special even pairs down to disjoint cliques and
lifts a greedy residue coloring back, using exactly as many colors as the
largest clique; brute-force oracles validate every step at desk scale.
"""

from .bench import BenchResult, RunReport, bench
from .dimacs import DimacsError, write_dimacs
from .engine import (
    Coloring,
    ColoringError,
    DisjointCliques,
    InterestingSetResult,
    MaximalInteresting,
    NotArtemisError,
    OpCounters,
    OuterPath,
    PipelineObserver,
    color_artemis,
    find_even_pair,
    find_interesting,
    find_outer_path,
    find_special_even_pair,
    greedy_color_cliques,
    is_proper,
    lift_coloring,
)
from .generators import bipartite, chordal, filtered_random, generate, random_graph
from .graphs import (
    ContractionStep,
    ContractionTrace,
    Graph,
    GraphError,
    common_complete,
    complement,
    components,
    contract,
    induced,
    is_clique,
    is_simplicial,
    new_graph,
)
from .handles import (
    GeneralizedHandle,
    HandleSearchDiverged,
    cohandle_is_max_interesting,
    find_generalized_handle,
    interesting_gives_handle_check,
    is_generalized_handle,
)
from .oracles import (
    ANTIHOLE,
    ODD_HOLE,
    PRISM,
    BudgetExceeded,
    MaskGraph,
    StructureWitness,
    brute_maximal_interesting_check,
    brute_minimal_outer_path_check,
    chromatic_number_exact,
    enumerate_chordless_paths,
    find_antihole,
    find_odd_hole,
    find_prism,
    fonlupt_uhry_check,
    is_artemis,
    is_even_pair_exact,
    is_interesting_set,
    is_special_even_pair_exact,
    max_clique_exact,
    outer_path_exists_criterion,
)
from .verify import OracleVerifier

__version__ = "0.1.0"
