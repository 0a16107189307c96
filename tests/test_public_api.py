"""The package's public names: consolidation must keep them exactly."""

import renzeta


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
