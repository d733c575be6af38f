"""Polar codes for multi-user multiple access channels over prime fields.

The library has three layers: exact GF(q) linear algebra on plain
integer arrays and subspace lattices (`gfq`, `subspace`), explicit
channel tables with the two polarization transforms and their
information functionals (`mac`, `linear_mac`), and the coding stack
built on top of them (`polarize` for branch analysis and code
construction, `codec` for encoding, successive-cancellation decoding and
Monte Carlo evaluation).  `cli` exposes the same functionality as batch
subcommands.
"""

from .errors import (
    AmbientMismatchError,
    BadGridError,
    BadIndexSetError,
    BadRowSumError,
    BadToleranceError,
    MacPolarError,
    NegativeProbabilityError,
    NonFiniteError,
    NotFullRankError,
    NotSingleUserError,
    ParseError,
    SpecMismatchError,
    TooDeepError,
    TooLargeError,
)
from .gfq import (
    is_prime,
    mat_rank,
    rref,
)
from .subspace import (
    Subspace,
    count_subspaces,
    enumerate_subspaces,
)
from .mac import (
    DiscreteMac,
    bhattacharyya,
    merge_outputs,
    mutual_info,
    restrict,
    sum_capacity,
    transform_minus,
    transform_plus,
    user_subsets,
    validate,
)
from .linear_mac import (
    EvolveReport,
    LinearComboMac,
    RateRegion,
    binary2_evolve,
    binary2_state,
    binary2_subspaces,
    closure,
    consistency_check,
    evolve,
    orthogonal_passage_check,
    preservation,
    rate_region,
    total_loss_predict,
)
from .polarize import (
    CodeSpec,
    DirectionStat,
    all_sigs,
    branch_step,
    build_code,
    detect_linear,
    direction_stats,
    polarization_tree,
    projective_directions,
)
from .codec import (
    DecodeResult,
    TrialReport,
    encode,
    frozen_from_seed,
    random_message,
    run_trials,
    sc_decode,
    simulate_channel,
    wilson_interval,
)

__version__ = "0.1.0"
