"""Minimax-robust detection of stationary Gaussian signals in white noise.

The toolkit checks spectral dominance conditions, computes error exponents,
simulates likelihood-ratio and mixture detectors at finite dimension, and
certifies the saddle-point structure of the underlying robustness game.
"""

__version__ = "0.19.0"

from .spectral import (  # noqa: F401
    PsdGrid,
    UncertaintySet,
    autocovariance,
    eval_psd,
    lower_envelope,
    make_psd,
)
from .dominance import (  # noqa: F401
    DominanceReport,
    discrete_dominance_integral,
    find_dominated,
    flat_psd_criterion,
    low_snr_criterion,
    sigma2_dominance_margin,
)
from .gaussian_model import (  # noqa: F401
    ToeplitzGaussian,
    build_model,
    finite_n_dominates,
    gaussian_kl,
    levinson_durbin,
    ratio_expectation,
    ratio_expectations,
    sample_gaussian,
    white_model,
)
from .exponent import error_exponent, genie_bound, kl_rate  # noqa: F401
from .detection import (  # noqa: F401
    DetectorSpec,
    ExponentEstimate,
    MixtureWeights,
    calibrate_threshold,
    chernoff_exponent,
    empirical_exponent,
    estimate_error_probs,
    mixture_statistic,
    mixture_statistics,
)
from .minimax import (  # noqa: F401
    KktCertificate,
    kkt_certificate,
    minimize_mixture_weights,
    regularity_probe,
    sample_average_kl,
    utility,
)
from .harness import (  # noqa: F401
    ExperimentConfig,
    ReportRecord,
    parse_config,
    run_experiment,
    write_report,
)
