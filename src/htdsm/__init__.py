"""Heavy-tailed denoising score matching toolkit.

Generalized-normal noising and score targets, quantile-matched noise
schedules, a small dense score network trained with DSM, (annealed)
Langevin sampler with configurable diffusion shape, generative metrics,
and the 2D mode-balance experiments built on top of them.
"""

from htdsm.distributions import (
    GeneralizedGamma,
    GeneralizedNormal,
    NormModel,
    SingularScoreError,
    empirical_norm_quantile,
    gn_cdf,
    gn_log_pdf,
    gn_sample,
    gn_score,
    gn_variance,
    norm_model_skew,
)
from htdsm.experiments import (
    ExperimentConfig,
    RunRecord,
    demo_config,
    run_convergence_demo,
    run_imbalance_grid,
)
from htdsm.metrics import (
    MetricReport,
    bootstrap_ci,
    fid,
    kid,
    mode_imbalance,
    prdc,
)
from htdsm.sampler import (
    SamplerConfig,
    ald_run,
    forward_chain,
)
from htdsm.schedule import NoiseSchedule, geometric_schedule, quantile_matched_schedule
from htdsm.scorenet import (
    MixtureSpec,
    ScoreNetwork,
    TrainConfig,
    analytic_mixture_score,
    dsm_loss,
    train,
)
from htdsm.specfun import (
    ConvergenceError,
    inv_reg_lower_inc_gamma,
    log_gamma,
    reg_lower_inc_gamma,
)

__version__ = "0.1.0"
