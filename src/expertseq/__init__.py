"""Prediction with expert advice through expert-sequence priors given as
lazy hidden Markov models with silent states.

The pieces: log-domain arithmetic (`logprob`), forecasting systems
(`experts`), the leveled HMM abstraction (`hmm`), the online forward
algorithm with backward posteriors and Viterbi (`forward`), the model zoo
(`models`), the switch-model MAP decoder (`switch_map`), loss-bound
formulas and their measurement harness (`bounds`), and fast
approximations (`approx`). The `expertseq` console script exposes the
evaluate / posterior / map / bounds pipeline over flat files.
"""

from .logprob import LogMass, NEG_INF, log_sum, log_sum_iter, logsumexp, to_bits
from .experts import (
    Alphabet,
    AdviceExpert,
    ConstantExpert,
    ForecastingSystem,
    KTEstimator,
    LaplaceEstimator,
    MarkovExpert,
    make_builtin_expert,
    model_as_expert,
    prediction_matrix,
    sequential_log_loss,
    uniform_expert,
    with_safe_expert,
)
from .hmm import (
    HmmModel,
    StateBudgetExceeded,
    ValidationIssue,
    propagate_frontier,
    validate,
)
from .forward import (
    AmbiguousModelError,
    ForwardPass,
    ForwardResult,
    WeightMap,
    ZeroMarginalError,
    expert_sequence_prior,
    forward_marginal,
    posterior_experts,
    viterbi_unambiguous,
)
from .models import (
    SwitchConfig,
    SwitchTimeLaw,
    bayes,
    default_switch_config,
    elias_delta,
    fixed_elementwise,
    fixed_share,
    geometric,
    inv_poly,
    overconfident,
    run_length,
    switch,
    truncate,
    uniform_span,
    universal_elementwise,
    universal_share,
)
from .switch_map import SwitchMapResult, map_probability, map_sequence, switch_map
from .bounds import (
    BoundReport,
    bayes_bound,
    compare_switch_vs_runlength,
    cross_entropy_bits,
    fixed_share_bound,
    overconfident_bound,
    run_length_bound,
    switch_bound,
    switch_runlength_crossover,
    unimix_bound,
    universal_share_bound,
)
from .approx import (
    kl_divergence,
    laplace_expert_conditional,
    ml_conditioned_marginal,
    ml_estimate,
    trim_frontier,
    trimming_hook,
)

__version__ = "0.1.0"
