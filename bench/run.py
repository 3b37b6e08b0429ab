"""pre-forge benchmark: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/preforge``.  The run times
``setup_s`` over fresh interpreters, primes the workload with a small untimed
call so lazy imports and allocator growth are paid before timing, then repeats
whole rounds of the workload's operations: at least two, and new ones while
``--seconds`` last.  The first round's outputs are checked against the oracle
and kept as the determinism reference; an operation that exits non-zero,
raises, or produces bytes different from the reference counts as failed.
With ``--trace 1`` the rounds are then repeated again with every layer wrapped
and the run reports per-layer metrics instead of end-to-end ones.  The last
line of standard output is the result JSON.
"""

import os

# Pin threads before numpy loads: one BLAS thread, one multistart worker.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PRE_FORGE_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("search-rf", "scan-threshold", "simulate-k2", "symmetry-d3")
SETUP_REPEATS = 3


def fail(message):
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(workload: str) -> float:
    """Median wall time of fresh interpreters that import and load the models."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            fail(f"set-up probe exited {proc.returncode}:\n{proc.stderr}")
    return statistics.median(times)


def run_round(ops):
    """One pass over the operations: seconds and (exit code, payload, value) per label."""
    seconds, outputs = {}, {}
    for label, call, collect in ops:
        outputs[label] = (1, b"", None)
        start = perf_counter()
        try:
            raw = call()
            raised = False
        except Exception:  # an operation that raises is counted as failed
            traceback.print_exc()
            raised = True
        seconds[label] = perf_counter() - start
        if not raised:
            try:
                outputs[label] = collect(raw)
            except Exception:
                traceback.print_exc()
    return seconds, outputs


class Rounds:
    """Repeats whole rounds and tallies attempted/failed operations."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def one(self):
        seconds, outputs = run_round(self.ops)
        if self.reference is None:
            self.reference = outputs
        self.attempted += len(self.ops)
        self.failed += sum(
            1
            for label, (rc, payload, _) in outputs.items()
            if rc != 0 or payload != self.reference[label][1]
        )
        return seconds

    def repeat(self, budget: float, at_least: int) -> list:
        """``at_least`` rounds, then new ones while the budget lasts."""
        end = perf_counter() + budget
        rounds = []
        while len(rounds) < at_least or perf_counter() < end:
            rounds.append(self.one())
        return rounds


def median_total(rounds, labels=None) -> float:
    return statistics.median(sum(v for k, v in r.items() if labels is None or k in labels) for r in rounds)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "preforge" / "__init__.py").is_file():
        fail(f"no program source: {SRC / 'preforge'} is missing")
    setup_s = measure_setup(args.workload)

    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import preforge

    if Path(preforge.__file__).resolve().parent != (SRC / "preforge").resolve():
        fail(f"imported preforge from {preforge.__file__}, not from {SRC}")
    import spans
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="run-") as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        workload.prime()
        rounds = Rounds(workload.operations())
        plain = rounds.repeat(args.seconds, at_least=2)
        values = {label: value for label, (_, _, value) in rounds.reference.items()}
        ok = all(rc == 0 for rc, _, _ in rounds.reference.values())
        problems = workload.check(values) if ok else []
        work = workload.work(values) if ok else {}
        traced = []
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
            try:
                traced = rounds.repeat(args.seconds, at_least=1)
            finally:
                tracer.restore()
            tracer.save(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")

    for message in problems:
        print(f"check failed: {message}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: rounds {[round(sum(r.values()), 3) for r in plain]}"
        + (f", traced {[round(sum(r.values()), 3) for r in traced]}" if traced else ""),
        file=sys.stderr,
    )

    wall_s = median_total(plain)
    if args.trace:
        output_bytes = sum(len(p) for _, p, _ in rounds.reference.values()) if workload.writes_output else 0
        metrics = spans.layer_metrics(tracer, len(traced), output_bytes)
        metrics["trace.overhead_s"] = (median_total(traced) - wall_s, "s")

        def rate(key, labels=None):
            return work[key] / median_total(plain, labels) if key in work else 0.0

        metrics["starts_per_s"] = (rate("starts"), "1/s")
        metrics["jumps_per_s"] = (rate("jumps", {"simulate"}), "1/s")
        metrics["trajectories_per_s"] = (rate("trajectories", {"unconditional"}), "1/s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
