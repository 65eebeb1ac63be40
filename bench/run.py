"""chp-pack benchmark: one workload per invocation, closed loop, one caller.

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Operations run back to back, cycling through the workload's
fixed input set until ``--seconds`` have gone by and each has run at
least once.  Each operation is checked after its clock stops.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics that ``BENCHMARK.json`` lists, the
``end_to_end`` ones with ``--trace 0`` and the ``per_layer`` ones with
``--trace 1``.  The lines before it give each metric's sample count, the
unscaled times and the environment.

``attempted`` is the number of distinct operations in the input set and
``failed`` the number of them that raised or failed their check in any
of their runs, so both are the same in every run of one workload however
many cycles fit into ``--seconds``.

Times are scaled to a reference machine speed.  A fixed calibration
kernel (an interpreter loop and small numpy products, about as long as
``CALIB_REF_S``) runs before the first operation and after every
operation, for ``CALIB_SHARE`` of that operation's time and at least
once (its median time there is taken), and, on a timer signal, once
every ``CALIB_PERIOD_S`` while an operation runs; the kernel runs inside
an operation are taken out of its time.  Each run of an operation is
multiplied by ``CALIB_REF_S`` over the median kernel time just before,
during and just after it.  On a shared host whose speed drifts by tens
of percent within seconds and for minutes at a time, this removes the
drift that per-run statistics cannot; a change to the library does not
change the kernel.  The unscaled figures are printed on the lines
before the result.

End-to-end metrics (tracing off):
  setup_s      median time for a fresh process to import chp_pack and
               generate the workload's inputs (no border is solved),
               each scaled by the kernel times just before and after it
  wall_s       time to finish the whole input set once: the sum over
               its operations of each one's median scaled run
  op_p50_ms    median over the input set of each operation's median
               scaled run
  op_tail_ms   the highest percentile of those with at least ten
               operations beyond it, or the slowest when the set has
               ten or fewer
  ok_ratio     operations that passed their check in every run / attempted;
               an operation that raises has failed
  hit_ratio    operations whose result equals the reference value in every
               run / attempted: the golden row (catalog), chp_density(sigma, k)
               within 1e-6 (construct, search)
  peak_rss_mb  maximum resident set size of this process

The traced run (``--trace 1``) makes two untraced passes, then traced
passes with the same inputs for ``--seconds`` (at least two), then one
traced pass with the inputs of seed + 1.  Per-layer figures are per
pass and unscaled: counts must repeat exactly in every traced pass;
times are the median over the traced passes.  ``trace.overhead_s`` is
traced minus (second) untraced pass time; ``trace.unattributed_s`` is
traced pass time not inside any span.

Which end-to-end metric each per-layer metric should move, and where:
  chp.solve_border.{calls,distinct,self_s}  wall_s, op_p50_ms on catalog;
      wall_s on the polygon cells of construct; almost none on search
  chp.enumerate_dnas.{self_s,dnas}          op_tail_ms, wall_s on catalog only
  builder.build_chp.{self_s,failed}, builder.extract_dna.self_s
                                            wall_s, ok_ratio on construct; none on catalog
  validation.validate_config.self_s, validation.{symmetry_residual,contact_count_histogram}.self_s
                                            wall_s, peak_rss_mb on construct
  validation.packing_radius.{calls,self_s}  wall_s on search (once per rung)
  optimizer.minimize.{calls,self_s}, optimizer.{ladder,algorithm1,algorithm2}.self_s
                                            wall_s, op_p50_ms on search; hit_ratio must not move
  geometry.project_into.{calls,self_s}, geometry.polygon_vertices.self_s, geometry.contains.calls
                                            wall_s on the polygon runs of search; no
                                            projection on circle runs, catalog or construct
                                            (the builder's contains calls show on construct)
  configio.dumps_config.{self_s,bytes}, svg.render_svg.{self_s,bytes}
                                            wall_s on construct only
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from spans import LAYERS, Tracer, memo_clear

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
COUNT_SUFFIXES = (".calls", ".failed", ".dnas", ".bytes", ".distinct")
CALIB_REF_S = 0.0024  # the calibration kernel's time at the reference speed (about its median on a 2-vCPU shared x86-64 VM)
CALIB_SHARE = 0.03  # calibration time after an operation, as a share of the operation's time
CALIB_PERIOD_S = 0.2  # interval of the kernel runs during an operation
CALIB_SETUP_S = 0.03  # calibration time before and after each set-up process


@dataclass
class Pass:
    """Outcome of operations run back to back: one entry per run, in run order."""

    labels: List[str] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    outcomes: List[Tuple[bool, bool]] = field(default_factory=list)  # (passed its check, hit the reference)
    wrong: List[str] = field(default_factory=list)  # returned an output that failed its check
    raised: List[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


class Calibration:
    """A fixed kernel, timed between operations and, on a timer signal, during them.

    While armed (``with``), a SIGALRM every ``CALIB_PERIOD_S`` runs the
    kernel once if an operation is running (``active``) and appends its
    time to ``inside``.  The handler runs between the operation's
    bytecodes, so its time is inside the operation's clock and is taken
    out again by the caller.
    """

    def __init__(self) -> None:
        import numpy

        self.matrix = numpy.random.default_rng(0).random((60, 60))
        self.active = False
        self.inside: List[float] = []
        self._previous = None
        self.speed(0.05)

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIB_PERIOD_S, CALIB_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        if self.active:
            self.inside.append(self.time())

    def time(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        for _ in range(20):
            total += float((self.matrix @ self.matrix).sum())
        return time.perf_counter() - start

    def speed(self, budget: float) -> float:
        """Median kernel time over runs filling ``budget`` seconds (at least one run)."""
        times = [self.time()]
        while sum(times) < budget:
            times.append(self.time())
        return statistics.median(times)


def percentile(values: List[float], q: float) -> float:
    """Linear interpolation between closest ranks; q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it (100 if none has)."""
    return (100 * (n - 10)) // n if n > 10 else 100


def run_op(op, res: Pass, clear_memo, probe=None) -> None:
    """Run and check one operation; ``probe`` (a Tracer or Calibration) is active only inside its clock."""
    if op.cold:
        clear_memo()
    res.labels.append(op.label)
    start = time.perf_counter()
    if probe is not None:
        probe.active = True
    try:
        out = op.run()
    except Exception as exc:  # a failed operation is counted, and the loop goes on
        res.raised.append(f"{op.label}: {type(exc).__name__}: {exc}")
        res.outcomes.append((False, False))
        return
    finally:
        if probe is not None:
            probe.active = False
        res.latencies.append(time.perf_counter() - start)
    passed, hit = op.check(out)
    res.outcomes.append((passed, hit))
    if not passed:
        res.wrong.append(op.label)


def run_pass(ops, clear_memo, tracer=None) -> Pass:
    res = Pass()
    for op in ops:
        run_op(op, res, clear_memo, tracer)
    return res


def per_operation(passes: List[Pass]) -> Tuple[int, int, int]:
    """Distinct operations run, those that failed in any run, and those that hit the reference in every run."""
    passed: Dict[str, bool] = {}
    hit: Dict[str, bool] = {}
    for p in passes:
        for label, (ok, h) in zip(p.labels, p.outcomes):
            passed[label] = passed.get(label, True) and ok
            hit[label] = hit.get(label, True) and h
    return len(passed), sum(not ok for ok in passed.values()), sum(hit.values())


def measure_setup(workload: str, seed: int, kernel: "Calibration") -> Tuple[List[float], List[float]]:
    """Unscaled and scaled times of ``SETUP_REPEATS`` fresh processes that only set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    times, scaled = [], []
    before = kernel.speed(CALIB_SETUP_S)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        after = kernel.speed(CALIB_SETUP_S)
        scaled.append(times[-1] * 2 * CALIB_REF_S / (before + after))
        before = after
    return times, scaled


def environment(args, runs: int, ops: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chp_pack").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "operations_run": runs,
        "input_set_size": ops,
    }


def untraced(args, ops, clear_memo):
    """Cycle through the operations until ``--seconds`` are up and each has run at least once."""
    kernel = Calibration()
    setup, setup_scaled = measure_setup(args.workload, args.seed, kernel)
    res = Pass()
    before = kernel.speed(CALIB_SHARE)
    calib = [before]
    scaled = []
    n = len(ops)
    began = time.perf_counter()
    with kernel:
        while len(res.latencies) < n or time.perf_counter() - began < args.seconds:
            kernel.inside = []
            run_op(ops[len(res.latencies) % n], res, clear_memo, kernel)
            res.latencies[-1] -= sum(kernel.inside)
            after = kernel.speed(CALIB_SHARE * res.latencies[-1])
            # The operation ran at the median speed the kernel saw around and during it.
            scaled.append(res.latencies[-1] * CALIB_REF_S / statistics.median([before, *kernel.inside, after]))
            calib += kernel.inside + [after]
            before = after
    # Every run of an operation does the same work: take the median of its runs.
    typical = [statistics.median(scaled[i::n]) for i in range(n)]
    raw = [statistics.median(res.latencies[i::n]) for i in range(n)]
    q = tail_percentile(n)
    reps = f"median of {len(res.latencies) // n} to {-(-len(res.latencies) // n)} scaled runs of each of {n} ops"
    attempted, failed, hits = per_operation([res])
    values = {
        "setup_s": (statistics.median(setup_scaled), f"median of {len(setup)} fresh processes, scaled; unscaled {statistics.median(setup):.6g}"),
        "wall_s": (sum(typical), f"sum over ops of the {reps}; unscaled {sum(raw):.6g}"),
        "op_p50_ms": (1e3 * percentile(typical, 50), f"p50 over ops of the {reps}; unscaled {1e3 * percentile(raw, 50):.6g}"),
        "op_tail_ms": (1e3 * percentile(typical, q), f"p{q} over ops of the {reps}; unscaled {1e3 * percentile(raw, q):.6g}"),
        "ok_ratio": ((attempted - failed) / attempted, f"of {attempted} ops, each run at least once"),
        "hit_ratio": (hits / attempted, f"of {attempted} ops, each run at least once"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "one process"),
    }
    checks = {"speed_vs_reference": statistics.median(calib) / CALIB_REF_S}
    return [res], values, checks


def traced(args, ops, clear_memo):
    import workloads

    warm = run_pass(ops, clear_memo)  # the first pass in a process runs slower; compare with the second
    base = run_pass(ops, clear_memo)
    tracer = Tracer()
    tracer.install()
    passes, figures = [], []
    began = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - began < args.seconds:
        tracer.reset()
        passes.append(run_pass(ops, clear_memo, tracer))
        figures.append(tracer.metrics())
    tracer.reset()
    other = workloads.operations(args.workload, workloads.inputs(args.workload, args.seed + 1, ROOT))
    second = run_pass(other, clear_memo, tracer)

    first = figures[0]
    repeats = sorted({k for f in figures[1:] for k in first if k.endswith(COUNT_SUFFIXES) and f[k] != first[k]})
    n = len(passes)
    values: Dict[str, tuple] = {}
    for key, value in first.items():
        if key.endswith(COUNT_SUFFIXES):
            values[key] = (value, f"per pass, equal in all {n} traced passes" if not repeats else "per pass, first")
        else:
            values[key] = (statistics.median(f[key] for f in figures), f"per pass, median of {n} traced passes")
    spans = [sum(f[f"{layer}.self_s"] for layer in LAYERS) for f in figures]
    values["trace.overhead_s"] = (
        statistics.median(p.wall for p in passes) - base.wall,
        f"median of {n} traced passes minus the second untraced pass",
    )
    values["trace.unattributed_s"] = (
        statistics.median(p.wall - s for p, s in zip(passes, spans)),
        f"per pass, median of {n} traced passes",
    )
    checks = {
        "counts_repeat": not repeats,
        "counts_differing": repeats,
        "second_seed_clean": not second.wrong and len(second.raised) == len(passes[0].raised),
        "untraced_wall_s": base.wall,
        "span_self_s": statistics.median(spans),
    }
    return [warm, base] + passes + [second], values, checks


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chp_pack" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no chp_pack sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from chp_pack import chp

    if args.workload not in workloads.NAMES:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}\n")
        return 2
    data = workloads.inputs(args.workload, args.seed, ROOT)
    if args.setup_only:
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    ops = workloads.operations(args.workload, data)
    clear_memo = memo_clear(chp.solve_border)
    passes, values, checks = (traced if args.trace else untraced)(args, ops, clear_memo)

    if args.trace:  # a listed function that no longer exists is never called
        for m in wanted:
            values.setdefault(m["name"], (0, "not a function of the library"))
    metrics = {}
    for m in wanted:
        value, samples = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:10s} {m['name']:34s} {value:>14.6g} {m['unit']:6s} {samples}")
    wrong = [w for p in passes for w in p.wrong]
    raised = sorted({r for p in passes for r in p.raised})
    attempted, failed, _ = per_operation(passes)
    print("env " + json.dumps(environment(args, sum(len(p.latencies) for p in passes), len(ops))))
    print("failures " + json.dumps({"wrong": sorted(set(wrong)), "raised": raised, **checks}))
    correct = not wrong and checks.get("counts_repeat", True) and checks.get("second_seed_clean", True)
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
