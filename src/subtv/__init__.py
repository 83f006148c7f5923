"""Total-variation distance estimation and identity testing for
self-reducible samplers over Boolean hypercubes, via subcube conditioning.

Ships with a poset/linear-extension domain adapter and a brute-force
rational oracle for desk-scale verification.
"""

from .core import (
    Condition,
    ConditionalSampler,
    FULL_CUBE,
    KnownDistribution,
    ProductSampler,
    bits_from_str,
    bits_to_str,
    evaluate_mass,
    make_condition,
    prefix_condition,
    rng_stream,
)
from .estimator import EstimatorParams, derive_params, estimate_mass, estimate_tv
from .gbas import gbas_estimate
from .oracle import ExactDistribution, exact_distribution, exact_marginal, exact_tv
from .posets import (
    LinearExtension,
    Poset,
    apply_condition,
    biased_extension_sampler,
    bits_to_extension,
    count_extensions,
    encode_cnf,
    encode_matrix,
    enumerate_extensions,
    extension_to_bits,
    orient_pair,
    parse_poset,
    uniform_extension_sampler,
)
from .tester import ACCEPT, REJECT, TesterParams, identity_test

__all__ = [
    "ACCEPT",
    "Condition",
    "ConditionalSampler",
    "EstimatorParams",
    "ExactDistribution",
    "FULL_CUBE",
    "KnownDistribution",
    "LinearExtension",
    "Poset",
    "ProductSampler",
    "REJECT",
    "TesterParams",
    "apply_condition",
    "biased_extension_sampler",
    "bits_from_str",
    "bits_to_extension",
    "bits_to_str",
    "count_extensions",
    "derive_params",
    "encode_cnf",
    "encode_matrix",
    "enumerate_extensions",
    "estimate_mass",
    "estimate_tv",
    "evaluate_mass",
    "exact_distribution",
    "exact_marginal",
    "exact_tv",
    "extension_to_bits",
    "gbas_estimate",
    "identity_test",
    "make_condition",
    "orient_pair",
    "parse_poset",
    "prefix_condition",
    "rng_stream",
    "uniform_extension_sampler",
]

__version__ = "0.1.0"
