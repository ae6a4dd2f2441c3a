"""chainconc: concentration certificates for Lipschitz functions of finite-state
Markov chains, with exact small-instance oracles and Monte Carlo verification."""

__version__ = "0.1.0"

from .chain import (
    ChainSpec,
    Distribution,
    Kernel,
    chain_from_dict,
    conditional_law,
    dobrushin_coefficient,
    homogeneous_chain,
    marginal,
    prefix_probability,
    t_step_pair_tv,
    tv_distance,
    validate_chain,
)
from .concentration import (
    AdditiveFunction,
    ConcentrationReport,
    LipschitzWeights,
    TabularFunction,
    certify,
    conditional_expectation,
    conditional_expectation_tables,
    default_t_grid,
    local_oscillation_vector,
    martingale_brackets,
    martingale_differences,
    mixing_time,
    tail_bound,
    variance_proxy,
)
from .coupling import CouplingTable, goldstein_coupling, wasserstein_matrix_tv
from .errors import (
    ChainconcError,
    EnumerationCapError,
    NoMixError,
    ValidationError,
    enumeration_cap,
)
from .gamma import GammaMatrix, gamma_contractive, gamma_ergodic, operator_norm
from .rl import (
    HammingMetric,
    MdpSpec,
    MixingTimeMetric,
    Policy,
    PolicyClass,
    covering_number,
    dudley_bound,
    enumerate_policies,
    exact_value,
    finite_state_bound,
    induced_chain,
    lipschitz_process_bound,
    maximal_bound,
    mdp_from_dict,
)
from .verify import (
    MgfEstimate,
    SupValueEstimate,
    TailEstimate,
    default_lambda_grid,
    empirical_mgf,
    empirical_sup_value,
    empirical_tail,
)
