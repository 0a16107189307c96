"""Item lists for the three benchmark workloads.

An item is one command line for ``renzeta.cli.main``.  Every exponent list
uses the ``--s=`` form: argparse reads ``--s -2,-2`` as a flag followed by
an option and rejects it ("expected one argument").

The seed given to the benchmark only chooses which recorded inputs a pass
runs and in which order; the program receives nothing but the argv lists.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

WORKLOADS = ("auto-delta", "rational-directions", "verify")

# The rational-directions pool is fixed by this seed so that its expected
# outputs can be recorded once; the run seed draws from the pool.
POOL_SEED = 20071003
POOL_SHAPES = {"series": 24, "directional": 16}
POOL_VARIANTS = 6
DRAWS_PER_SHAPE = 2
SERIES_PREC = "6"

VERIFY_SUITES = (
    ("hopf", 4), ("rota-baxter", 3), ("birkhoff", 3),
    ("differential", 3), ("mzv", 3))


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def auto_delta_words() -> list:
    """Depth 1-2 with entries in -4..0, depth 3 with entries in -1..0."""
    words = []
    for depth in (1, 2):
        words += product(range(0, -5, -1), repeat=depth)
    words += product((0, -1), repeat=3)
    return words


def auto_delta_argv(word) -> list:
    return ["eval", f"--s={_join(word)}"]


def _direction(rng) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.randint(1, 3))


def rational_pool() -> list:
    """Shapes (command, exponents), each with POOL_VARIANTS direction
    vectors: depth 2-4, entries in -3..0 (-2..0 at depth 4), directions
    p/q with p in 1..6 and q in 1..3.  Returns a list of variant lists."""
    rng = random.Random(POOL_SEED)
    pool = []
    for command, count in POOL_SHAPES.items():
        for _ in range(count):
            depth = rng.randint(2, 4)
            low = -2 if depth == 4 else -3
            s = [rng.randint(low, 0) for _ in range(depth)]
            variants = []
            while len(variants) < POOL_VARIANTS:
                r = [_direction(rng) for _ in range(depth)]
                argv = [command, f"--s={_join(s)}", f"--r={_join(r)}"]
                if command == "series":
                    argv += ["--prec", SERIES_PREC]
                if argv not in variants:
                    variants.append(argv)
            pool.append(variants)
    return pool


def verify_argv(suite: str, max_weight: int, seed: int) -> list:
    return ["verify", "--suite", suite, "--max-weight", str(max_weight),
            "--seed", str(seed), "--format", "json"]


def items(workload: str, seed: int) -> list:
    """The argv lists of one pass; every pass of a run repeats them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "auto-delta":
        # the whole space, in a seeded order: each pass does the same
        # work, so runs with different seeds stay comparable
        words = auto_delta_words()
        rng.shuffle(words)
        return [auto_delta_argv(w) for w in words]
    if workload == "rational-directions":
        # every shape, each with DRAWS_PER_SHAPE of its direction vectors:
        # a few heavy shapes decide the pass time and the upper
        # percentiles, and two draws per shape make them depend less on
        # the directions of any one draw
        out = [argv for variants in rational_pool()
               for argv in rng.sample(variants, DRAWS_PER_SHAPE)]
        rng.shuffle(out)
        return out
    if workload == "verify":
        return [verify_argv(suite, weight, seed)
                for suite, weight in VERIFY_SUITES]
    raise ValueError(f"unknown workload {workload!r}")


def zero_free_share(workload_items) -> tuple:
    """(zero-free words, all words) among eval items."""
    words = [argv[1].partition("=")[2].split(",")
             for argv in workload_items if argv[0] == "eval"]
    return sum("0" not in w for w in words), len(words)
