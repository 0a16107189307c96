"""End-to-end benchmark of the renzeta command line.

Usage, from the repository root:

    python3 bench/run.py --workload auto-delta --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --seed 0            # every workload, in turn

Each item is one ``renzeta.cli.main(argv)`` call with stdout captured.  A
pass runs every item of a workload once, in a fresh interpreter started with
``PYTHONPATH=src`` and a fixed ``PYTHONHASHSEED``, so the package's caches
start empty as they do for one command-line invocation and fill within the
pass.  The load generator is this one process with one child at a time: a
closed loop with one client.  Passes repeat until ``--seconds`` is used
up.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced passes.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics: counters, which must repeat exactly between
traced passes, and medians of the per-layer self times.  Outputs are checked
against ``bench/expected.json`` after each pass, outside the timed region.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "pass_child.py"
EXPECTED = BENCH / "expected.json"
RECORD = BENCH / "record.json"
SPEC = ROOT / "BENCHMARK.json"

HASH_SEED = "0"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Child processes.

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    env.pop("RENZETA_PRECISION", None)
    return env


def run_pass(items, trace=False):
    """Start a fresh interpreter, time it to ready, run items there.
    Returns (setup seconds, reply dict)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD)], cwd=ROOT, env=_child_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - started
        request = json.dumps({"items": items, "trace": trace}) + "\n"
        out, err = proc.communicate(request, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a pass exceeded its time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not ready:
        raise BenchError(f"pass process failed:\n{err.strip()}")
    package = Path(json.loads(ready)["package"])
    if package.parent.parent != SRC:
        raise BenchError(f"imported renzeta from {package}, not {SRC}")
    return setup, json.loads(out)


# ---------------------------------------------------------------------------
# Output checks, outside the timed region.

def expected_key(argv) -> str:
    """verify output does not depend on --seed, so its key drops it."""
    if argv[0] == "verify":
        at = argv.index("--seed")
        argv = argv[:at] + argv[at + 2:]
    return " ".join(argv)


def item_failure(argv, code, stdout, expected):
    """Why an item failed, or None."""
    if code != 0:
        return f"exit code {code}"
    want = expected.get(expected_key(argv))
    if want is None:
        return "no recorded output"
    if stdout != want:
        return "output differs from the recorded bytes"
    if argv[0] == "verify":
        for line in stdout.splitlines():
            report = json.loads(line)
            if "0 cases agree" in (report["lhs"], report["rhs"]):
                return f"vacuous report {report['check']}"
    return None


def check_pass(items, reply, expected, failures) -> int:
    """Append (argv, reason, stderr) for each failed item; return the
    number of items checked."""
    for argv, (_, code, stdout, stderr) in zip(items, reply["items"]):
        reason = item_failure(argv, code, stdout, expected)
        if reason is not None:
            failures.append((argv, reason, stderr.strip()))
    return len(reply["items"])


# ---------------------------------------------------------------------------
# Metrics.

def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def end_to_end(passes, setups):
    """passes: the replies of the untraced passes of one run."""
    pooled = [item[0] for p in passes for item in p["items"]]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes),
                   len(passes), "passes"),
        "item_p50_ms": (1000 * _quantile(pooled, 50), len(pooled),
                        "items"),
        "item_p90_ms": (1000 * _quantile(pooled, 90), len(pooled),
                        "items"),
        "setup_s": (statistics.median(setups), len(setups),
                    "interpreter starts"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in passes)
                        / 1024, len(passes), "passes"),
    }


# ---------------------------------------------------------------------------
# Runs.

class Run:
    """The passes of one workload run, and what their checks found."""

    def __init__(self, workload, seed, seconds):
        self.items = workloads.items(workload, seed)
        self.expected = json.loads(EXPECTED.read_text())["outputs"]
        self.deadline = time.perf_counter() + seconds
        self.attempted = 0
        self.failures = []
        self.problems = []
        self.setups = []
        self.walls = []  # untraced passes, for the table
        self.pass_cost = 0.0

    def more(self, done: int, minimum: int = MIN_PASSES,
             step: int = 1) -> bool:
        """Whether to start `step` more passes after `done` steps."""
        return done < minimum or \
            time.perf_counter() + step * self.pass_cost < self.deadline

    def one_pass(self, trace=False):
        begun = time.perf_counter()
        setup, reply = run_pass(self.items, trace)
        self.setups.append(setup)
        self.attempted += check_pass(
            self.items, reply, self.expected, self.failures)
        if not trace:
            self.walls.append(reply["wall_s"])
        self.pass_cost = max(self.pass_cost, time.perf_counter() - begun)
        return reply


def measure(run: Run) -> dict:
    for _ in range(SETUP_PROBES):
        run.setups.append(run_pass([])[0])
    passes = []
    while run.more(len(passes)):
        passes.append(run.one_pass())
    return end_to_end(passes, run.setups)


def measure_layers(run: Run) -> dict:
    traced, counters, times = [], None, []
    while run.more(len(traced), MIN_TRACED_PASSES, step=2):
        run.one_pass()
        reply = run.one_pass(trace=True)
        traced.append(reply["wall_s"])
        got, spent = reply["trace"]["counters"], reply["trace"]["times"]
        if counters is None:
            counters = got
        elif got != counters:
            changed = sorted(k for k in got if got[k] != counters[k])
            run.problems.append(f"counters differ between traced passes: "
                                f"{', '.join(changed)}")
        times.append(spent)
    out = {k: (v, len(traced), "traced passes, equal")
           for k, v in counters.items()}
    for key in times[0]:
        out[key] = (statistics.median(t[key] for t in times), len(times),
                    "traced passes, median")
    out["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(run.walls),
        len(traced), f"traced over {len(run.walls)} untraced passes")
    return out


def report(workload, run, values, spec, record) -> dict:
    """Print the table for one workload; return the JSON metrics."""
    failed = len(run.failures)
    print(f"== {workload}: {len(run.items)} items per pass, "
          f"{run.attempted} attempted, {failed} failed, failed_ratio "
          f"{failed / run.attempted:.4g} (base {run.attempted} items)")
    for argv, reason, stderr in run.failures[:10]:
        print(f"   FAILED {' '.join(argv)}: {reason} {stderr[-200:]}")
    for problem in run.problems:
        print(f"   PROBLEM {problem}")
    print("   untraced pass wall_s: "
          + " ".join(f"{w:.3f}" for w in run.walls))
    metrics = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        value, count, base = values[name]
        moves = record.get(name, {})
        note = f"  -> {', '.join(moves['moves'])} on " \
               f"{', '.join(moves['on'])}" if moves.get("moves") else ""
        print(f"   {name:34s} {value:14.6g} {unit:6s} n={count} {base}{note}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "renzeta" / "cli.py").is_file():
        print(f"error: no renzeta sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads(SPEC.read_text())
        record = json.loads(RECORD.read_text())["predictions"]
        layer = "per_layer" if args.trace else "end_to_end"
        names = workloads.WORKLOADS if args.workload == "all" \
            else (args.workload,)
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for workload in names:
            run = Run(workload, args.seed, args.seconds)
            run_pass([])  # warm-up: the first start compiles bytecode
            values = measure_layers(run) if args.trace else measure(run)
            metrics = report(workload, run, values, spec[layer], record)
            result["correct"] &= not run.failures and not run.problems
            result["attempted"] += run.attempted
            result["failed"] += len(run.failures)
            if len(names) == 1:
                result["metrics"] = metrics
            else:
                result["metrics"].update(
                    {f"{workload}.{k}": v for k, v in metrics.items()})
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
