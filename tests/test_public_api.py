"""The public names of the package and of each layer: consolidation must
keep them exactly."""

import pytest

import renzeta
from renzeta import arith, birkhoff, hopf, laurent, mzv


def test_all_is_pinned():
    assert sorted(renzeta.__all__) == [
        "Character", "CheckReport", "DELTA", "DELTA_FIELD",
        "DecompositionSession", "DeltaRationalFunction", "EMPTY_WORD",
        "HopfElement", "IncompletePolePart", "InsufficientPrecision",
        "Letter", "PoleAtZero", "PrecisionBudget", "PrecisionError",
        "RATIONAL_FIELD", "SUITES", "T", "TPolynomial", "T_POLY_RING",
        "TruncatedLaurentSeries", "Word", "__version__", "argument_word",
        "bernoulli", "convolve", "coproduct", "counit",
        "decomposition_session", "differentiate", "expansion_character",
        "numeric_oracle", "one_series", "one_var_series", "quasi_shuffle",
        "reduced_coproduct", "regularized_expansion", "renorm_directional",
        "renorm_mzv", "renormalized_series", "run_suite", "scalar_series",
        "series_from_terms", "symmetrized_zero",
        "verify_differential_compatibility", "windows_agree",
        "zero_series", "zeta_nonpositive",
    ]
    assert len(set(renzeta.__all__)) == len(renzeta.__all__)
    assert all(hasattr(renzeta, name) for name in renzeta.__all__)


LAYER_ALL = {
    arith: [
        "DELTA", "DeltaRationalFunction", "PoleAtZero", "bernoulli",
        "zeta_nonpositive",
    ],
    laurent: [
        "DELTA_FIELD", "DeltaFunctionField", "IncompletePolePart",
        "InsufficientPrecision", "PrecisionError", "RATIONAL_FIELD",
        "RationalField", "T", "TPolynomial", "TPolynomialRing",
        "T_POLY_RING", "TruncatedLaurentSeries", "one_series",
        "scalar_series", "series_from_terms", "windows_agree",
        "zero_series",
    ],
    hopf: [
        "EMPTY_WORD", "HopfElement", "Letter", "Word", "coproduct",
        "counit", "differentiate", "element_coproduct",
        "mixable_shuffle_direct", "quasi_shuffle", "reduced_coproduct",
        "tensor_quasi_shuffle",
    ],
    birkhoff: [
        "Character", "CheckReport", "DecompositionSession",
        "PrecisionBudget", "convolve", "verify_differential_compatibility",
        "zplus_length2_direct",
    ],
    mzv: [
        "ExpansionPlan", "argument_word", "decomposition_session",
        "expansion_character", "expansion_plans", "generating_check",
        "numeric_oracle", "one_var_series", "oracle_tail_bound",
        "regularized_expansion", "renorm_directional", "renorm_mzv",
        "renormalized_series", "symmetrized_zero", "two_var_an_check",
    ],
}


@pytest.mark.parametrize("module", LAYER_ALL, ids=lambda m: m.__name__)
def test_layer_all_is_pinned(module):
    assert sorted(module.__all__) == LAYER_ALL[module]
    assert len(set(module.__all__)) == len(module.__all__)
    assert all(hasattr(module, name) for name in module.__all__)
