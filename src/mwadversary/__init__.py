"""Quantify the worst-case loss a malicious expert can impose on a
multiplicative-weights forecaster: exact offline policy evaluation, named
policy constructors, the optimal online adversary by dynamic programming,
multi-expert generalizations, and experiment pipelines."""

from .core import (
    BinomialDist,
    ExpertState,
    GuardError,
    ModelParams,
    binomial,
    mw_step,
    system_prediction,
    weight_power,
    weight_update_g,
    weight_update_g_inv,
)
from .exact_eval import (
    BonusReport,
    OffsetDistribution,
    berry_esseen_check,
    bonus_term,
    brute_force_value,
    exhaustive_offline_optimum,
    log_telescoping_residuals,
    mixed_policy_values,
    normal_cdf,
    offset_distribution,
    policy_value,
    two_honest_value,
    two_honest_values,
    value_block_policy,
    value_false,
    value_true,
)
from .online_dp import (
    KExpertParams,
    MCResult,
    OnlinePolicy,
    ValueTable,
    clairvoyant_value,
    monte_carlo_k_expert,
    no_info_conditional_losses,
    no_information_baseline,
    no_information_values,
    optimal_policy,
    optimal_value,
    optimal_values,
    simulate_online,
    solve_k_expert,
    solve_two_expert,
)
from .policies import (
    BlockForm,
    Decision,
    OfflinePolicy,
    block_form,
    false_policy,
    from_blocks,
    random_policy,
    ratio_policy,
    true_policy,
)

__version__ = "0.1.0"
