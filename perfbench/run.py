"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload cold_plan --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` reports the end-to-end metrics of untraced passes;
``--trace 1`` reports the per-layer metrics of a traced pass (plus the
tracing overhead against an untraced pass over the same inputs).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check prints the reason on standard error and exits 1 with no result.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> (unit, better, bound); BENCHMARK.json declares the same list
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "op_p50_ms": ("ms", "lower", 0.2),
    "op_p90_ms": ("ms", "lower", 0.25),
    "reward_rate": ("reward/s", "higher", 0.05),
    "task_loss_fraction": ("ratio", "lower", 0.1),
}


def _import_program():
    """Put the checkout's ``src/`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in 10^6 bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def percentile_ms(samples: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile of ``samples`` (s), in ms."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return 1e3 * (ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def _check_same(reference, other, what: str) -> None:
    from workloads import CheckError

    if other.outcome_key() != reference.outcome_key():
        raise CheckError(f"{what} produced different outputs")


def _passes(workload, inputs, seconds: float) -> list:
    """As many passes as fill ``seconds`` at the first pass's pace."""
    passes = [workload.run(inputs)]
    wanted = max(1, round(seconds / passes[0].wall_s))
    while len(passes) < wanted:
        passes.append(workload.run(inputs))
    return passes


def untraced(workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    """End-to-end metrics: median set-up, then passes with tracing off.

    Every time is at reference speed (see ``refclock``).
    """
    from refclock import setup_scale, timed

    setups = []
    for _ in range(workload.setup_reps):
        inputs, timer = timed(workload.setup, seed)
        setups.append(timer)
    passes = _passes(workload, inputs, seconds)
    rss = peak_rss_mb()
    first = passes[0]
    workload.check(inputs, first)
    for i, other in enumerate(passes[1:], 2):
        _check_same(first, other, f"pass {i}")
    samples = [s for p in passes for s in p.op_s]
    metrics = {
        "setup_s": statistics.median(sum(t.raw()) for t in setups)
        * setup_scale(setups, passes),
        "peak_rss_mb": rss,
        "op_p50_ms": percentile_ms(samples, 50),
        "op_p90_ms": percentile_ms(samples, 90),
        "reward_rate": first.reward_rate,
        "task_loss_fraction": first.task_loss_fraction,
    }
    notes = {"setup_s": f"median of {len(setups)}",
             "op_p50_ms": f"n={len(samples)} over {len(passes)} passes",
             "op_p90_ms": f"n={len(samples)}, "
                          f"{len(samples) // 10} above"}
    return metrics, passes, notes


def traced(workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    """Per-layer metrics from a traced pass, checked against untraced ones.

    Untraced and traced passes alternate until ``seconds`` have elapsed
    (at least one of each); the overhead is the ratio of their median
    wall times.
    """
    from repro import obs

    import layers
    from refclock import setup_scale, timed
    from workloads import time_power_bounds

    with obs.capture() as setup_snap:
        inputs, timer = timed(workload.setup, seed)
        time_power_bounds(inputs)
    plain, marked, snaps = [], [], []
    t0 = time.perf_counter()
    while not marked or time.perf_counter() - t0 < seconds:
        plain.append(workload.run(inputs))
        with obs.capture() as snap:
            marked.append(workload.run(inputs))
        snaps.append(snap())
    workload.check(inputs, plain[0])
    for other in plain[1:]:
        _check_same(plain[0], other, "an untraced pass")
    for other in marked:
        _check_same(plain[0], other, "a traced pass")
    overhead = 100.0 * (statistics.median(p.wall_s for p in marked)
                        / statistics.median(p.wall_s for p in plain) - 1.0)
    metrics = layers.per_layer(
        setup_snap(), inputs.setup_times,
        setup_scale([timer], plain + marked), snaps[0], marked[0],
        overhead, n_stream_tasks=inputs.data.get("n_tasks", 0))
    notes = {"obs.overhead_pct": f"{len(marked)} traced vs {len(plain)} "
                                 "untraced passes"}
    return metrics, plain + marked, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import layers
    from workloads import BENCH, WORKLOADS, CheckError

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](BENCH)
    run = traced if args.trace else untraced
    try:
        metrics, passes, notes = run(workload, args.seed, args.seconds)
    except CheckError as exc:
        print(f"perfbench: {args.workload}: output check failed: {exc}",
              file=sys.stderr)
        return 1
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if failed == attempted:
        print(f"perfbench: {args.workload}: every operation failed",
              file=sys.stderr)
        return 1

    units = ({k: v[0] for k, v in layers.PER_LAYER.items()} if args.trace
             else {k: v[0] for k, v in END_TO_END.items()})
    scale = statistics.median(p.scale for p in passes)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {failed} of {attempted} operations "
          f"failed, times x{scale:.3f} to reference speed")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {value:>14.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
