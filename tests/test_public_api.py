"""The public names of the package and of each layer: consolidation must
keep them exactly, with the way they refuse a malformed count and the
way the scalar types coerce a rational."""

import copy
import pickle
from fractions import Fraction

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


Q = laurent.RATIONAL_FIELD

# every public count and exponent: the name its message gives, the least
# value it takes (None for any int) and a call that passes it on
COUNTS = [
    ("bernoulli index", 0, arith.bernoulli),
    ("zeta_nonpositive k", 0, arith.zeta_nonpositive),
    ("min_order", None,
     lambda n: laurent.TruncatedLaurentSeries(Q, n, [1])),
    ("precision", None, lambda n: laurent.zero_series(Q, n)),
    ("precision", 1, lambda n: laurent.one_series(Q, n)),
    ("precision", 1, lambda n: laurent.scalar_series(Q, 2, n)),
    ("precision", None, lambda n: laurent.series_from_terms(Q, {}, n)),
    ("requested precision", 1, lambda n: birkhoff.PrecisionBudget(n, 0)),
    ("pole depth budget", 0, lambda n: birkhoff.PrecisionBudget(3, n)),
    ("slot power", 0, lambda n: mzv.one_var_series(n, 1, 2)),
    ("precision", 1, lambda n: mzv.one_var_series(0, 1, n)),
    ("precision", 1, lambda n: mzv.regularized_expansion((0,), (1,), n)),
    ("taylor order", 0, lambda n: mzv.expansion_character(Q, n, 1)),
    ("taylor order", 0, lambda n: mzv.decomposition_session(n, 1)),
    ("taylor order", 0,
     lambda n: mzv.renormalized_series((0,), (1,), n)),
    ("terms", 1, lambda n: mzv.numeric_oracle((0,), (1,), -0.1, n)),
    ("terms", 1, lambda n: mzv.oracle_tail_bound((0,), (1,), -0.1, n)),
]


@pytest.mark.parametrize("what, call, value", [
    pytest.param(what, call, value, id=f"{row}-{what}-{value!r}")
    for row, (what, least, call) in enumerate(COUNTS)
    for value in (True, 2.5) + (() if least is None else (least - 1,))
] + [
    pytest.param("exponent", lambda x: mzv.argument_word((x,), (1,)), x,
                 id=f"exponent-{x!r}")
    for x in (True, -1.0, 1)
])
def test_malformed_count_names_its_parameter(what, call, value):
    with pytest.raises(ValueError, match=what):
        call(value)


@pytest.mark.parametrize("x", [arith.DELTA, laurent.T], ids=["DELTA", "T"])
@pytest.mark.parametrize("c", [3, Fraction(-2, 5)], ids=["int", "Fraction"])
def test_scalars_coerce_a_rational_on_either_side(x, c):
    k = x - x + c
    assert type(k) is type(x) and k == c and c == k and k != c + 1
    assert x + c == x + k and c + x == k + x and (x + c) - x == k
    assert x - c == x - k and c - x == k - x and (c - x) + x == k
    assert x * c == x * k and c * x == k * x
    if x is arith.DELTA:
        assert x / c == x / k and c / x == k / x and (c / x) * x == k


def test_scalar_types_do_not_mix():
    delta, t = arith.DELTA, laurent.T
    for op in (lambda: t + delta, lambda: delta - t, lambda: t * delta):
        with pytest.raises(TypeError):
            op()
    assert t != delta


# Each record with its fields in order, and its repr text as the frozen
# dataclasses printed it.
RECORDS = [
    pytest.param(
        birkhoff.PrecisionBudget,
        {"requested_precision": 3, "max_pole_depth": 2},
        "PrecisionBudget(requested_precision=3, max_pole_depth=2)",
        id="PrecisionBudget"),
    pytest.param(
        birkhoff.CheckReport,
        {"word": "(0,0)", "check": "differential-plus", "passed": True,
         "lhs": "1/2", "rhs": "1/2"},
        "CheckReport(word='(0,0)', check='differential-plus', passed=True,"
        " lhs='1/2', rhs='1/2')",
        id="CheckReport"),
    pytest.param(
        mzv.ExpansionPlan,
        {"cumulative_directions": (Fraction(1), Fraction(3, 2)),
         "slot_exponents": (1, 0), "multiplicity": 2},
        "ExpansionPlan(cumulative_directions=(Fraction(1, 1), "
        "Fraction(3, 2)), slot_exponents=(1, 0), multiplicity=2)",
        id="ExpansionPlan"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS)
def test_record_behaviour(cls, fields, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert repr(by_keyword) == text
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, value)
    with pytest.raises(AttributeError):
        by_keyword.unknown = 1
    for copied in (pickle.loads(pickle.dumps(by_keyword)),
                   copy.copy(by_keyword), copy.deepcopy(by_keyword)):
        assert type(copied) is cls and copied == by_keyword
        assert repr(copied) == text


def test_check_report_to_json():
    report = birkhoff.CheckReport(
        word="(0,0)", check="differential-plus", passed=False, lhs="1/2",
        rhs="1/3")
    assert report.to_json() == {
        "word": "(0,0)", "check": "differential-plus", "pass": False,
        "lhs": "1/2", "rhs": "1/3"}
