"""Benchmark command for monoidtopos.

    python3 perfbench/run.py --workload lattice|strings|cli --seed N \
        --seconds S --trace 0|1 [--scale full|smoke]

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout, never from anywhere else.  One process and one thread: the
BLAS and OpenMP thread counts are pinned to 1 before numpy is imported.

With ``--trace 0`` the command reports the end-to-end metrics (``wall_s``,
``setup_s``, ``peak_rss_mb``, ``ok_ratio``, ``req_p50_ms``, ``req_p90_ms``).
With ``--trace 1`` it runs the workload untraced for half of the time and
traced for the other half and reports the per-layer metrics, including
``trace.overhead_s``.  Human-readable lines come first; the last line of
standard output is one JSON object.  The exit code is 1 when any output
check failed and 2 when the benchmark could not run at all.
"""

import time

_PROCESS_T0 = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"

# Claims are made on the default seed and checked again on the held-out
# seed, which was not used while the benchmark was written.
DEFAULT_SEED = 2027
HELD_OUT_SEED = 424242

SETUP_REPEATS = 5          # set-ups per untraced run; setup_s is their median
OP_BUDGET_S = 30.0         # an operation running longer is a timeout
RUN_DEADLINE_S = 150.0     # no operation starts or runs past this (from start)
MIN_ITERATIONS = 3         # per measured phase at full scale
MIN_SAMPLES = 100          # operations per phase, so that 10 lie above p90
ACCOUNTING_TOLERANCE = 0.02


class OpTimeout(BaseException):
    """Raised by the alarm inside an operation that exceeds its budget.
    Not an Exception, so handlers inside the package cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Outcome:
    """Attempts, failures and samples of one phase of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.layer_samples: list[dict] = []
        self.iteration_ops = 0

    def median_wall(self) -> float:
        return statistics.median(self.walls) if self.walls else float("nan")

    def fail(self, message: str):
        self.failed += 1
        self.failures.append(message)

    def merge(self, other: "Outcome"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


def run_iteration(ops, outcome: Outcome, deadline: float, tracer=None) -> bool:
    """Run one iteration of a workload generator; True if it completed.

    Every operation is timed on its own; checks and the generator's own
    code run between operations, outside the timed region.
    """
    durations = []
    sent = None
    last_failed = False
    while True:
        try:
            item = ops.send(sent)
        except StopIteration:
            break
        except Exception as exc:  # the workload's own code choked on an output
            outcome.fail(f"workload raised {type(exc).__name__}: {exc}")
            return False
        sent = None
        if not hasattr(item, "run"):
            if not last_failed:
                outcome.fail(item.message)
                last_failed = True
            continue
        outcome.attempted += 1
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            outcome.fail(f"{item.name}: timeout (run deadline reached)")
            ops.close()
            return False
        signal.setitimer(signal.ITIMER_REAL, min(OP_BUDGET_S, remaining))
        try:
            start = time.perf_counter()
            if tracer is not None:
                tracer.begin_op(outcome.attempted)
            try:
                result = item.run()
            finally:
                if tracer is not None:
                    tracer.end_op()
            elapsed = time.perf_counter() - start
        except OpTimeout:
            outcome.fail(f"{item.name}: timeout")
            ops.close()
            return False
        except Exception as exc:
            outcome.fail(f"{item.name}: {type(exc).__name__}: {exc}")
            ops.close()
            return False
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        durations.append(elapsed)
        try:
            error = item.check(result) if item.check else None
        except Exception as exc:  # malformed output
            error = f"check raised {type(exc).__name__}: {exc}"
        last_failed = error is not None
        if last_failed:
            outcome.fail(f"{item.name}: {error}")
        sent = result
    outcome.walls.append(sum(durations))
    outcome.latencies.extend(durations)
    outcome.iteration_ops = len(durations)
    return True


def measure(ops_fn, inputs, seconds: float, deadline: float, minimum: tuple[int, int],
            tracer=None) -> Outcome:
    """Repeat the workload's fixed list of operations for the given time,
    and at least for the minimum numbers of repetitions and operations."""
    outcome = Outcome()
    min_iterations, min_samples = minimum
    started = time.perf_counter()
    while True:
        gc.collect()   # every iteration starts from the same heap
        if tracer is not None:
            tracer.reset()
        done = run_iteration(ops_fn(inputs, tracer), outcome, deadline, tracer)
        if tracer is not None and done:
            sample = tracer.snapshot()
            sample["wall_s"] = outcome.walls[-1]
            sample["ops"] = outcome.iteration_ops
            outcome.layer_samples.append(sample)
        if not done or time.perf_counter() >= deadline:
            break
        if (time.perf_counter() - started >= seconds
                and len(outcome.walls) >= min_iterations
                and len(outcome.latencies) >= min_samples):
            break
    return outcome


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit() -> str:
    """The commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(numpy_version: str) -> dict:
    env = {var: os.environ[var] for var in THREAD_VARS}
    env.update({"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy_version, "commit": git_commit()})
    return env


def accounting_error(sample: dict, layers) -> str | None:
    """Self times plus the benchmark's own time must make up the traced wall."""
    accounted = sum(sample[f"{layer}.self_s"] for layer in layers) + sample["trace.unspanned_s"]
    slack = ACCOUNTING_TOLERANCE * sample["wall_s"] + 20e-6 * sample["ops"]
    if abs(accounted - sample["wall_s"]) > slack:
        return (f"trace accounting: self times and un-spanned time sum to {accounted:.6f} s, "
                f"traced wall is {sample['wall_s']:.6f} s")
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["lattice", "strings", "cli"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed for "
                             f"checking a claim: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full",
                        help="smoke: the smallest inputs, as in the warm-up pass and the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = _PROCESS_T0 + RUN_DEADLINE_S
    os.chdir(ROOT)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    try:
        import numpy
        import monoidtopos
        from perfbench import tracer as tracing
        from perfbench import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(monoidtopos.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: monoidtopos was imported from {monoidtopos.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _PROCESS_T0

    inputs_fn, ops_fn = workloads.WORKLOADS[args.workload]
    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        return _run(args, inputs_fn, ops_fn, import_s, deadline, numpy.__version__,
                    tracing, workloads)
    finally:
        signal.signal(signal.SIGALRM, previous_handler)


def _run(args, inputs_fn, ops_fn, import_s, deadline, numpy_version, tracing, workloads) -> int:
    full = args.scale == "full"
    total = Outcome()

    # Set-up: input generation plus a warm-up pass over the smallest inputs,
    # repeated so that setup_s is a median.
    repeats = SETUP_REPEATS if (args.trace == 0 and full) else 1
    setup_times = []
    for _ in range(repeats):
        started = time.perf_counter()
        inputs = inputs_fn(args.seed, args.scale, SCRATCH)
        warm = Outcome()
        run_iteration(ops_fn(inputs_fn(args.seed, "smoke", SCRATCH), None), warm, deadline)
        setup_times.append(time.perf_counter() - started)
        total.merge(warm)
    setup_s = import_s + statistics.median(setup_times)

    minimum = (MIN_ITERATIONS, MIN_SAMPLES) if full else (1, 1)
    metrics = {}
    lines = [f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} scale={args.scale}",
             "# env " + json.dumps(environment(numpy_version), sort_keys=True)]
    if args.trace == 0:
        run = measure(ops_fn, inputs, args.seconds, deadline, minimum)
        total.merge(run)
        lat_ms = [x * 1000.0 for x in run.latencies] or [float("nan")]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok_ratio = (total.attempted - total.failed) / max(total.attempted, 1)
        metrics = {
            "wall_s": (run.median_wall(), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_mb, "MiB"),
            "ok_ratio": (ok_ratio, "ok/attempted"),
            "req_p50_ms": (percentile(lat_ms, 50), "ms"),
            "req_p90_ms": (percentile(lat_ms, 90), "ms"),
        }
        lines += [
            f"wall_s = {metrics['wall_s'][0]:.6f} s (median of {len(run.walls)} repetitions)",
            f"setup_s = {setup_s:.6f} s (imports {import_s:.6f} s + median of "
            f"{repeats} set-ups)",
            f"peak_rss_mb = {peak_mb:.3f} MiB",
            f"fail_ratio = {total.failed / max(total.attempted, 1):g} failed/attempted "
            f"({total.failed}/{total.attempted})",
            f"ok_ratio = {ok_ratio:g} ok/attempted",
            f"req_p50_ms = {metrics['req_p50_ms'][0]:.6f} ms (n={len(run.latencies)})",
            f"req_p90_ms = {metrics['req_p90_ms'][0]:.6f} ms (n={len(run.latencies)}, "
            f"{sum(1 for x in lat_ms if x > metrics['req_p90_ms'][0])} above)",
        ]
    else:
        plain = measure(ops_fn, inputs, args.seconds / 2, deadline, minimum)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(ops_fn, inputs, args.seconds / 2, deadline, minimum, tracer)
        finally:
            tracer.uninstall()
        total.merge(plain)
        total.merge(traced)
        for sample in traced.layer_samples:
            error = accounting_error(sample, tracing.LAYERS)
            if error:
                total.fail(error)
        metrics, share = _layer_metrics(traced, plain, tracing,
                                        workloads.DOMINANT[args.workload][0])
        for name, (value, unit) in metrics.items():
            lines.append(f"{name} = {value:.9g} {unit}")
        layers, floor = workloads.DOMINANT[args.workload]
        verdict = "as predicted" if share >= floor else "BELOW the prediction"
        lines.append(f"# dominant layers {'+'.join(layers)}: {share:.1%} of traced self time "
                     f"({verdict}, which is at least {floor:.0%})")
        SCRATCH.mkdir(parents=True, exist_ok=True)
        span_file = SCRATCH / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(span_file)
        lines.append(f"# {len(tracer.spans)} spans written to "
                     f"{span_file.relative_to(ROOT)} ({tracer.spans_dropped} not kept)")

    for line in lines:
        print(line)
    for message in total.failures[:20]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    correct = total.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


def _layer_metrics(traced: Outcome, plain: Outcome, tracing, dominant) -> tuple[dict, float]:
    """Medians over the traced repetitions of every per-layer metric."""
    samples = traced.layer_samples
    for sample in samples:
        total_self = sum(sample[f"{layer}.self_s"] for layer in tracing.LAYERS)
        share = sum(sample[f"{layer}.self_s"] for layer in dominant)
        sample["trace.dominant_share"] = share / total_self if total_self else 0.0
    out = {}
    for name, unit in tracing.metric_units().items():
        if name == "trace.overhead_s":
            value = traced.median_wall() - plain.median_wall()
        elif samples:
            value = statistics.median(s[name] for s in samples)
        else:
            value = float("nan")
        if unit in ("count", "B") and math.isfinite(value) and value == int(value):
            value = int(value)
        out[name] = (value, unit)
    return out, out["trace.dominant_share"][0]


if __name__ == "__main__":
    sys.exit(main())
