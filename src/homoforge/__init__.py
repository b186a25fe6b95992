"""Random 2-dimensional complex process: exact homology, shadows, experiments."""

from .complexes import (
    Complex,
    ProcessStream,
    TripleSet,
    load_complex,
    sample_binomial,
    sample_fixed_size,
    save_complex,
    uncovered_edges,
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
    hitting_time_trial,
    run_campaign,
    torsion_scan,
)
from .homology import (
    HomologySummary,
    betti1_mod_p,
    homology_Z,
    shadow,
    shadow_size_deficit,
)
from .shady_partitions import (
    CascadeResult,
    ShadyReport,
    Thresholds,
    cascade,
    load_labels,
    save_labels,
    verify_shady,
)

__version__ = "0.1.0"
