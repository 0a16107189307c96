"""Record the expected stdout of every benchmark item, cross-checked.

Usage, from the repository root:

    PYTHONPATH=src python3 bench/record_expected.py          # check only
    PYTHONPATH=src python3 bench/record_expected.py --write  # rewrite

The items are the whole auto-delta space, every variant of the
rational-directions pool and the five verify items.  Each output is checked
by a route independent of the one that printed it:

- depth-one eval words against zeta(-k) from the textbook Bernoulli
  recurrence below;
- zero-free eval words s against ``directional --s=s --r=|s|``: with
  directions |s_i| + delta no direction sum over an infix vanishes at
  delta = 0, so both must print the same rational;
- every ``series`` regularized window against ``mzv.numeric_oracle`` at a
  negative eps (see ``check_window``);
- every verify report passes and checked at least one case.

Without ``--write`` the recorded file must match the fresh outputs byte for
byte.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction

import run
import workloads

from renzeta import cli
from renzeta.mzv import numeric_oracle, oracle_tail_bound, \
    regularized_expansion


def call(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise AssertionError(f"{' '.join(argv)} exited with {code}")
    return out.getvalue()


def zeta_textbook(k: int) -> Fraction:
    """zeta(-k) = (-1)^k B_(k+1) / (k+1), with B_0 = 1 and
    sum_(j<=m) C(m+1, j) B_j = 0 for m >= 1."""
    b = [Fraction(1)]
    for m in range(1, k + 2):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m))
                 / (m + 1))
    return (-1) ** k * b[k + 1] / (k + 1)


def parse_window(text: str) -> tuple:
    """'c·eps^k + ... + O(eps^p)' -> ({k: c}, p)."""
    *terms, tail = text.split(" + ")
    coeffs = {}
    for term in terms:
        coeff, _, power = term.partition("·")
        k = 0 if not power else 1 if power == "eps" else int(power[4:])
        coeffs[k] = Fraction(coeff)
    return coeffs, int(tail[len("O(eps^"):-1])


def check_window(s, r, coeffs, precision) -> None:
    """The printed window must be the start of a longer exact window, and
    that longer window must match the float oracle at eps0 = -1/(4 R),
    R = sum r.  The one-variable factors converge for |rho eps| < 2 pi,
    so coefficients grow at most like (R / 2 pi)^k times a polynomial; the
    tolerance bounds the dropped tail with that rate and a factor 1e3 for
    the polynomial, plus float rounding and the oracle's own tail."""
    longer = regularized_expansion(s, r, max(1, precision) + 12)
    for k in range(min([longer.min_order, *coeffs]), precision):
        if longer.coefficient(k) != coeffs.get(k, 0):
            raise AssertionError(f"s={s} r={r}: eps^{k} is not the prefix "
                                 f"of the longer window")
    big_r = float(sum(r))
    eps0 = -1 / (4 * big_r)
    rate = big_r / (2 * math.pi)
    terms = [(k, float(c)) for k, c in longer.terms()]
    window = math.fsum(c * eps0 ** k for k, c in terms)
    scale = max(abs(c) * rate ** -k for k, c in terms)
    truncation = 1e3 * scale * (abs(eps0) * rate) ** longer.precision
    n = 4000
    while oracle_tail_bound(s, r, eps0, n) > 1e-13 * abs(window):
        n *= 2
    exact = numeric_oracle(s, r, eps0, n)
    tolerance = truncation + 1e-10 * math.fsum(
        abs(c * eps0 ** k) for k, c in terms) \
        + oracle_tail_bound(s, r, eps0, n)
    if abs(exact - window) > tolerance:
        raise AssertionError(f"s={s} r={r}: window {window!r} against "
                             f"oracle {exact!r}, tolerance {tolerance:.3g}")


def _values(flag: str, argv, kind) -> tuple:
    text = next(a for a in argv if a.startswith(flag))[len(flag):]
    return tuple(kind(x) for x in text.split(","))


def record() -> dict:
    outputs = {}
    for word in workloads.auto_delta_words():
        argv = workloads.auto_delta_argv(word)
        got = call(argv)
        if len(word) == 1 and got != f"{zeta_textbook(-word[0])}\n":
            raise AssertionError(f"eval {word}: {got!r}")
        if 0 not in word:
            r = ",".join(str(-x) for x in word)
            other = call(["directional", argv[1], f"--r={r}"])
            if other != got:
                raise AssertionError(f"eval {word}: {got!r} but "
                                     f"directional at |s|: {other!r}")
        outputs[run.expected_key(argv)] = got
    for variants in workloads.rational_pool():
        for argv in variants:
            got = call(argv)
            if argv[0] == "series":
                line = got.splitlines()[0]
                coeffs, precision = parse_window(
                    line[len("regularized: "):])
                check_window(_values("--s=", argv, int),
                             _values("--r=", argv, Fraction),
                             coeffs, precision)
            outputs[run.expected_key(argv)] = got
    for suite, weight in workloads.VERIFY_SUITES:
        argv = workloads.verify_argv(suite, weight, 0)
        got = call(argv)
        reason = run.item_failure(argv, 0, got,
                                  {run.expected_key(argv): got})
        if reason is not None:
            raise AssertionError(f"{' '.join(argv)}: {reason}")
        outputs[run.expected_key(argv)] = got
    return outputs


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    outputs = record()
    if args.write:
        data = {
            "recorded": {
                "git_sha": _git_sha(),
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
            },
            "outputs": outputs,
        }
        run.EXPECTED.write_text(json.dumps(data, indent=1) + "\n")
        print(f"wrote {len(outputs)} outputs to {run.EXPECTED}")
        return 0
    recorded = json.loads(run.EXPECTED.read_text())["outputs"]
    differ = sorted(k for k in outputs.keys() | recorded.keys()
                    if outputs.get(k) != recorded.get(k))
    for key in differ[:20]:
        print(f"differs: {key}")
    print(f"{len(outputs)} outputs checked, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
