"""Per-layer spans and counters, installed from outside the package.

The tracer wraps public callables of each ``renzeta`` layer.  A wrapper
replaces the callable where its callers look it up: on the class for
methods, and in every ``renzeta`` module namespace that bound the function
(``cli`` and ``suites`` bind ``renorm_mzv``, ``quasi_shuffle`` and others
with ``from ... import``), plus the ``suites.SUITES`` table.

Spans nest on one stack.  A span's self time is its duration minus the time
of the spans it caused; the wrappers' own bookkeeping is charged to neither.  A call to a span of the same name as the
innermost open span passes straight through, so a Q(delta) operator that
calls another operator counts once.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from renzeta import arith, birkhoff, cli, hopf, laurent, mzv, suites

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.max_bits = 0
        self._stack = []  # [name, seconds of child spans incl. overhead]
        self._one_var_keys = set()
        self._renorm_keys = set()

    # -- spans ----------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a span named name; after(args, result), if given,
        runs once the span has closed and is charged to no span."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            entered = _clock()
            frame = [name, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                self._account(frame, entered, start, _clock())
                raise
            end = _clock()
            stack.pop()
            if after is not None:
                after(args, result)
            self._account(frame, entered, start, end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _account(self, frame, entered, start, end):
        name, children = frame
        inner = end - start
        self.self_s[name] += inner - children
        self.total_s[name] += inner
        self.counts[name] += 1
        if self._stack:
            self._stack[-1][1] += _clock() - entered

    def counter(self, fn, before):
        """Count-only wrapper: before(args) runs, then fn, with no span."""

        def wrapper(*args, **kwargs):
            before(args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------

    @staticmethod
    def _rebind(fn, wrapper):
        for name, module in list(sys.modules.items()):
            if name != "renzeta" and not name.startswith("renzeta."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
        for key, value in list(suites.SUITES.items()):
            if value is fn:
                suites.SUITES[key] = wrapper

    @staticmethod
    def _method(cls, attr, wrapper_of):
        setattr(cls, attr, wrapper_of(vars(cls)[attr]))

    def install(self):
        # arith: Q(delta) operators and the polynomial gcd under them
        qdelta = arith.DeltaRationalFunction
        for attr in ("__add__", "__radd__", "__neg__", "__sub__",
                     "__rsub__", "__mul__", "__rmul__", "__truediv__",
                     "__rtruediv__", "__pow__"):
            self._method(qdelta, attr, lambda fn: self.span(
                "arith.qdelta", fn, self._after_qdelta))
        self._rebind(arith.poly_gcd,
                     self.span("arith.poly_gcd", arith.poly_gcd))

        # laurent: series products split by coefficient ring, and sums
        self._method(laurent.TruncatedLaurentSeries, "__mul__",
                     self._series_mul)
        self._method(laurent.TruncatedLaurentSeries, "__add__",
                     lambda fn: self.span("laurent.add", fn))

        # mzv: expansion, its plans, one-variable windows, directional
        # values
        self._rebind(mzv.regularized_expansion, self.span(
            "mzv.expansion", mzv.regularized_expansion))
        self._rebind(mzv.expansion_plans, self._plans(mzv.expansion_plans))
        self._rebind(mzv.one_var_series, self.counter(
            mzv.one_var_series, self._before_one_var))
        self._rebind(mzv.renorm_directional, self.counter(
            mzv.renorm_directional, self._before_renorm))

        # birkhoff: sessions, the counterterm recursion, character values
        session = birkhoff.DecompositionSession
        self._method(session, "__init__", lambda fn: self.counter(
            fn, lambda args: self._add("birkhoff.sessions")))
        for attr in ("counterterm", "renormalized", "counterterm_of",
                     "renormalized_of"):
            self._method(session, attr, self._session_span)
        self._method(birkhoff.Character, "on_word",
                     lambda fn: self.span("birkhoff.character", fn))
        for fn in (birkhoff.convolve, birkhoff.zplus_length2_direct,
                   birkhoff.verify_differential_compatibility):
            self._rebind(fn, self.span("birkhoff.check", fn))

        # hopf: the quasi-shuffle product and its enumeration oracle
        self._rebind(hopf.quasi_shuffle, self.span(
            "hopf.quasi_shuffle", hopf.quasi_shuffle, self._after_shuffle))
        self._rebind(hopf.mixable_shuffle_direct, self.span(
            "hopf.oracle", hopf.mixable_shuffle_direct))

        # suites and the command line
        for key, fn in list(suites.SUITES.items()):
            self._rebind(fn, self.span(f"suites.{key}", fn))
        self._rebind(cli.main, self.span("cli", cli.main))

    # -- per-layer hooks ------------------------------------------------

    def _add(self, key, amount=1):
        self.counts[key] += amount

    def _after_qdelta(self, args, result):
        if isinstance(result, arith.DeltaRationalFunction):
            bits = 0
            for c in result.num + result.den:
                bits = max(bits, c.numerator.bit_length(),
                           c.denominator.bit_length())
            if bits > self.max_bits:
                self.max_bits = bits

    def _series_mul(self, fn):
        spans = {}
        for ring, name in ((laurent.RATIONAL_FIELD, "laurent.mul_q"),
                           (laurent.DELTA_FIELD, "laurent.mul_qdelta"),
                           (laurent.T_POLY_RING, "laurent.mul_t")):
            spans[id(ring)] = self.span(name, fn, self._coeff_ops(name))

        def wrapper(a, b):
            if not isinstance(b, laurent.TruncatedLaurentSeries):
                return fn(a, b)
            return spans[id(a.ring)](a, b)

        return wrapper

    def _coeff_ops(self, name):
        key = name + "_coeff_ops"

        def after(args, result):
            self.counts[key] += _product_ops(*args)

        return after

    def _plans(self, fn):
        def wrapper(*args, **kwargs):
            slot_vectors = set()
            for plan in fn(*args, **kwargs):
                self.counts["mzv.plans"] += 1
                slot_vectors.add(plan.slot_exponents)
                yield plan
            self.counts["mzv.plan_slot_vectors"] += len(slot_vectors)

        return wrapper

    def _before_one_var(self, args):
        power, direction, precision = args[:3]
        self.counts["mzv.one_var_calls"] += 1
        self._one_var_keys.add((power, direction, precision))

    def _before_renorm(self, args):
        exponents, directions = args
        self.counts["mzv.renorm_directional_calls"] += 1
        self._renorm_keys.add((tuple(exponents), tuple(directions)))

    def _session_span(self, fn):
        def counted(session, *args):
            before = len(session.memo_minus)
            result = fn(session, *args)
            self._add("birkhoff.words_decomposed",
                      len(session.memo_minus) - before)
            return result

        return self.span("birkhoff.session", counted)

    def _after_shuffle(self, args, result):
        self.counts["hopf.quasi_shuffle_terms"] += len(result.terms)

    # -- report ---------------------------------------------------------

    def report(self) -> dict:
        """The per-layer metrics of BENCHMARK.json: exact counters, and
        self (for suites, total) times in seconds."""
        counts = self.counts
        counters = {metric: counts[key]
                    for metric, key in _SPAN_COUNTS.items()}
        counters["arith.value_max_bits"] = self.max_bits
        counters["mzv.one_var_distinct"] = len(self._one_var_keys)
        counters["mzv.renorm_directional_distinct"] = len(self._renorm_keys)
        calls = counters["mzv.one_var_calls"]
        counters["mzv.one_var_repeat_ratio"] = (
            1 - len(self._one_var_keys) / calls if calls else 0.0)
        times = {metric: self.self_s[key]
                 for metric, key in _SPAN_SELF.items()}
        times["birkhoff.self_s"] = sum(
            v for k, v in self.self_s.items() if k.startswith("birkhoff."))
        for suite in suites.SUITES:
            times[f"suites.{suite}_s"] = self.total_s[f"suites.{suite}"]
        return {"counters": counters, "times": times}


# metric name -> tracer count or span name
_SPAN_COUNTS = {
    "arith.qdelta_ops": "arith.qdelta",
    "arith.poly_gcd_calls": "arith.poly_gcd",
    "laurent.mul_q_calls": "laurent.mul_q",
    "laurent.mul_q_coeff_ops": "laurent.mul_q_coeff_ops",
    "laurent.mul_qdelta_calls": "laurent.mul_qdelta",
    "laurent.mul_qdelta_coeff_ops": "laurent.mul_qdelta_coeff_ops",
    "laurent.add_calls": "laurent.add",
    "mzv.expansion_calls": "mzv.expansion",
    "mzv.plans": "mzv.plans",
    "mzv.plan_slot_vectors": "mzv.plan_slot_vectors",
    "mzv.one_var_calls": "mzv.one_var_calls",
    "mzv.renorm_directional_calls": "mzv.renorm_directional_calls",
    "birkhoff.sessions": "birkhoff.sessions",
    "birkhoff.words_decomposed": "birkhoff.words_decomposed",
    "birkhoff.character_calls": "birkhoff.character",
    "hopf.quasi_shuffle_calls": "hopf.quasi_shuffle",
    "hopf.quasi_shuffle_terms": "hopf.quasi_shuffle_terms",
}
_SPAN_SELF = {
    "arith.qdelta_self_s": "arith.qdelta",
    "arith.poly_gcd_self_s": "arith.poly_gcd",
    "laurent.mul_q_self_s": "laurent.mul_q",
    "laurent.mul_qdelta_self_s": "laurent.mul_qdelta",
    "laurent.add_self_s": "laurent.add",
    "mzv.expansion_self_s": "mzv.expansion",
    "hopf.quasi_shuffle_self_s": "hopf.quasi_shuffle",
    "hopf.oracle_self_s": "hopf.oracle",
    "cli.self_s": "cli",
}


def _product_ops(a, b) -> int:
    """Coefficient multiply-adds TruncatedLaurentSeries.__mul__ performs:
    every nonzero coefficient of a against the part of b that lands below
    the product's precision."""
    prec = min(a.precision + b.min_order, b.precision + a.min_order)
    ops = 0
    for i, c in enumerate(a.coeffs):
        if not a.ring.is_zero(c):
            room = prec - (a.min_order + i + b.min_order)
            ops += max(0, min(len(b.coeffs), room))
    return ops
