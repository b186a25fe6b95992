"""Random 2-dimensional complex process: exact homology, shadows, experiments."""

from .complexes import (
    Complex,
    LinkGraph,
    ProcessStream,
    iterated_log,
    link_subgraph,
    load_complex,
    min_edge_degree,
    rank_triple,
    sample_binomial,
    sample_fixed_size,
    sample_process,
    save_complex,
    triples_colex,
    uncovered_edges,
    unrank_triple,
)
from .exact_linalg import (
    EchelonBasis,
    MatrixFormatError,
    SnfResult,
    SparseIntMatrix,
    boundary_matrix,
    minor_gcd_oracle,
    rank_mod_p,
    smith_normal_form,
)
from .experiments import (
    CampaignConfig,
    CampaignReport,
    ProcessTrace,
    TorsionTrace,
    hitting_time_trial,
    run_campaign,
    torsion_scan,
)
from .homology import (
    HomologySummary,
    ShadowSet,
    betti1_mod_p,
    homology_Z,
    is_H1_trivial_Z,
    prime_bound_log,
    shadow,
    shadow_size_deficit,
)
from .shady_partitions import (
    CascadeResult,
    PartitionLabels,
    ShadyReport,
    Thresholds,
    cascade,
    claim_three_good_edges,
    fan_triangulation_good,
    five_triangle_move,
    is_complete,
    is_elementary,
    verify_shady,
)

__version__ = "0.1.0"
