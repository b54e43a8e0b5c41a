"""Deviation bounds for partial sums of weakly dependent sequences.

Layers: rate functions and thresholds (bounds), dependence-coefficient
profiles (coefficients), seeded example processes (processes), Monte Carlo
estimators (estimation), and the experiment harness plus CLI (harness, cli).
"""

from .bounds import (
    BlockSelection,
    DependenceProfile,
    VarianceProfile,
    bennett_h,
    bernstein_h1,
    h1_inverse,
    hoeffding_threshold,
    iid_bernstein_threshold,
    log_mgf_bound_thm1,
    log_mgf_bound_thm2,
    select_k_star,
    select_k_star_prime,
    thm1_threshold,
    thm2_bennett_tail,
    thm2_threshold,
    varest_bound,
    variance_profile,
)
from .coefficients import (
    GeometricWeights,
    PolynomialWeights,
    WeightSequence,
    ZeroWeights,
    bernoulli_shift_linf_profile,
    doubling_map_profile,
    infinite_memory_profile,
    markov_contraction_profile,
    validate_profile,
)
from .errors import ConfigError, DomainError, NoValidBlockSizeError, ValidationError
from .estimation import (
    CouplingEstimate,
    SigmaEstimate,
    TailEstimate,
    clopper_pearson,
    estimate_coupling_delta,
    estimate_sigma_profile,
)
from .harness import (
    AsymptoticsRow,
    ExperimentConfig,
    ReportRow,
    build_model,
    dependence_profile_for,
    load_config,
    parse_config,
    run_blocksize_asymptotics,
    run_verification,
)
from .processes import (
    BernoulliShiftGeometric,
    CoupledBlock,
    DoublingMap,
    IidUniform,
    InfiniteMemoryChain,
    LipschitzKernelChain,
    ObservableF,
    analytic_sigma_profile,
    observable_for,
    simulate,
    simulate_coupled_block,
)
from .rng import VectorXoshiro, derive_seed, mix64, replication_seeds

__version__ = "0.1.0"
