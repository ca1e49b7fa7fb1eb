"""fracchrom: exact fractional-colouring certificates for triangle-free
subcubic graphs, built around a randomized independent-set sampler whose
output law is enumerated exactly in rational arithmetic."""

__version__ = "0.1.0"

from .graph_core import (  # noqa: F401
    Graph,
    GraphError,
    GuardExceeded,
    StructureReport,
    ReductionStep,
    analyze,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
    reduce_subcubic,
    to_edge_list_text,
)
from .two_factor import (  # noqa: F401
    NoQualifyingTwoFactor,
    TwoFactor,
    TwoFactorError,
    enumerate_perfect_matchings,
    minimal_small_cuts,
    satisfies_ks_condition,
    select_two_factor,
    two_factor_from_json_dict,
    two_factor_to_json_dict,
)
from .templates import (  # noqa: F401
    Template,
    TemplateError,
    builtin,
    lemma4_lower_bound,
    parse_template_dsl,
    sigma_library,
)
from .sampler import (  # noqa: F401
    Distribution,
    EnumerationResult,
    ExplosionGuard,
    MonteCarloReport,
    SplitMix64,
    enumerate_distribution,
    event_probability,
    is_independent,
    kernel_backend,
    monte_carlo,
    run_phases_1_4,
)
from .augment import (  # noqa: F401
    BiasInfeasible,
    DeficiencyError,
    DeficiencyRecord,
    Phase5Plan,
    PreconditionFailure,
    build_phase5_plan,
    classify_chord,
    deficiency_report,
    epsilon_full,
    epsilon_nochord,
    exact_phase5_distribution,
    receptivity,
    run_phase5,
    sponsor,
)
from .fractional_lp import (  # noqa: F401
    ColouringError,
    FractionalColouring,
    MergeFailure,
    MultisetCertificate,
    TARGET_BOUND,
    chi_f_exact,
    chi_f_upper_subcubic,
    maximal_independent_sets,
    verify_certificate,
    weighting_to_multiset,
)
