"""Fractional-share coalition analysis.

Games assign strictly positive values to coalitions of up to 16 players
(nonnegative for singletons).  Allocations are per-block share vectors
summing to one; the library decides strong and weak core membership and
emptiness, fission/fusion resistance and stability of partitions, and the
centripetal partial order between games, exactly in rational mode or with
explicit tolerances in float mode.  Two risk constructions (mean-std pricing
and tail-average mixtures) generate ordered game families.
"""

from .errors import (
    AlphaOutOfRange,
    CapExceeded,
    DimensionMismatch,
    FracgameError,
    InfeasibleSolution,
    InfeasibleSystem,
    InvalidGameError,
    InvalidPartition,
    NumericFailure,
    RBarOutOfRange,
    ScenarioError,
)
from .games import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    MAX_PLAYERS,
    Game,
    ValidationIssue,
    ValidationReport,
    boundary_contains,
    boundary_empty,
    check_partition,
    coalition_from_label,
    coalitions,
    game_digest,
    game_from_dict,
    game_to_dict,
    load_game,
    make_game,
    mask_of,
    members,
    sample_boundary,
    save_game,
    solution_feasible,
    subgame,
    submasks,
    to_absolute,
    to_fractional,
    validate_game,
)
from .partitions import (
    DEFAULT_ENUM_CAP,
    bell_number,
    enumerate_partitions,
    fission_neighborhood,
    fusion_neighborhood,
    grand_partition,
    is_strict_refinement,
    make_partition,
    partition_from_label,
    partition_label,
    singleton_partition,
)
from .linfeas import (
    Halfspace,
    LinearSystem,
    feasible,
    linear_system,
    max_slack_point,
    minimize,
    satisfies,
    vertices,
)
from .stability import (
    EMPTY,
    NONEMPTY,
    STRONG,
    WEAK,
    BlockTable,
    CoreRegion,
    PatchedCore,
    StabilityReport,
    core_contains,
    core_region,
    fission_resistant,
    fusion_resistant,
    is_stable,
    patched_core,
    stable_sets,
)
from .centripetality import (
    InclusionReport,
    OrderVerdict,
    OrderViolation,
    generate_ordered_pair,
    leq_cp,
    verify_corollary,
    verify_theorem1,
)
from .risk import (
    Density,
    MeanStdScenario,
    QuantileCurve,
    beta_density,
    build_cvar_game,
    build_cvar_games,
    build_meanstd_game,
    check_tail_dominance,
    cvar,
    density_curve,
    default_uniform_family,
    empirical_curve,
    leq_lr,
    mixture_reward,
    quantile_curve,
    uniform_curve,
    uniform_curve_family,
    verify_prop1,
    verify_prop2,
    verify_prop2_chain,
)

__version__ = "0.1.0"
