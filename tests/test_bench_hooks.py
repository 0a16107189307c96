"""The benchmark's tracer still finds the call sites it wraps.

bench/pass_child.py runs in a subprocess, so the tracer's rebinding of
module globals never reaches this process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "bench" / "pass_child.py"

REQUEST = {
    "items": [["directional", "--s=-1,-1,-1", "--r=1,2,3"],
              ["eval", "--s=-1,0"]],
    "trace": True,
}


def test_traced_pass_reaches_every_layer():
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    env.pop("RENZETA_PRECISION", None)
    proc = subprocess.run(
        [sys.executable, str(CHILD)], cwd=ROOT, env=env,
        input=json.dumps(REQUEST) + "\n", capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    ready, reply = (json.loads(line) for line in proc.stdout.splitlines())
    assert ready["ready"]
    assert [item[1] for item in reply["items"]] == [0, 0], reply["items"]
    counters = reply["trace"]["counters"]
    for key in ("laurent.mul_q_calls", "laurent.mul_qdelta_calls",
                "birkhoff.sessions"):
        assert counters[key] > 0, key
    # the expansion recurses over carried exponents and enumerates no plans
    assert counters["mzv.plans"] == counters["mzv.plan_slot_vectors"] == 0
    # it builds its one-variable windows without calling one_var_series
    assert counters["mzv.one_var_calls"] == \
        counters["mzv.one_var_distinct"] == 0
    # the tracer splits TruncatedLaurentSeries.__mul__ by ring and counts
    # multiply-adds from its coefficient tuples; these exact figures break
    # if the product leaves __mul__ or its coefficients leave the rings.
    # The regularized expansion recurses over integer windows on both
    # paths, Q and Q(delta), so only the decomposition's own products and
    # split sums are series operations: both parts of a word are
    # projections of its prepared value, formed with no sum
    assert {key: counters[key] for key in (
        "laurent.mul_q_calls", "laurent.mul_q_coeff_ops",
        "laurent.mul_qdelta_calls", "laurent.mul_qdelta_coeff_ops",
        "laurent.add_calls")} == {
        "laurent.mul_q_calls": 3, "laurent.mul_q_coeff_ops": 32,
        "laurent.mul_qdelta_calls": 1, "laurent.mul_qdelta_coeff_ops": 4,
        "laurent.add_calls": 4}
    # the Q(delta) work of the word with a zero: the series keep the
    # expansion's factored integer layout, so neither the expansion nor the
    # decomposition runs a field operator or a gcd.  A coefficient is
    # reduced, with one gcd, when it is read: here the constant term, and
    # the 4 nonzero coefficients of the two factors of the one Q(delta)
    # product, which the tracer reads to count multiply-adds
    assert {key: counters[key] for key in (
        "arith.qdelta_ops", "arith.poly_gcd_calls",
        "arith.value_max_bits")} == {
        "arith.qdelta_ops": 0, "arith.poly_gcd_calls": 5,
        "arith.value_max_bits": 0}
    # the mzv work: the words the sessions decompose, each expanded once
    # by a character call; the character passes its own ring and the
    # validated word to the private recursion entry _expansion, not to
    # the traced public regularized_expansion
    assert {key: counters[key] for key in (
        "mzv.expansion_calls", "birkhoff.character_calls",
        "birkhoff.words_decomposed")} == {
        "mzv.expansion_calls": 0, "birkhoff.character_calls": 9,
        "birkhoff.words_decomposed": 5}
