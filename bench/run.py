"""Benchmark of fermi-modewise, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine and the run.  The per-layer metrics of a traced run are
the ``per_layer`` list of ``BENCHMARK.json``.  See bench/README.md.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread, set before numpy loads: two threads are slower on a
# 2-core machine and change which chain cases pass (see README).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
# The import is timed in this process and in IMPORT_PROBES fresh runs of this
# script with PROBE_FLAG, one after another; setup_s takes the median.
IMPORT_PROBES = 2
PROBE_FLAG = "--probe-import"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def import_package():
    """Import fermi_modewise from this checkout's src/, or exit 3."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    try:
        import fermi_modewise
    except ImportError as exc:
        print(f"bench: cannot import fermi_modewise from {src}: {exc}", file=sys.stderr)
        sys.exit(3)
    if not Path(fermi_modewise.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: fermi_modewise came from {fermi_modewise.__file__}, not {src}", file=sys.stderr)
        sys.exit(3)


def machine_info() -> dict:
    """nproc, BLAS threads as the bundled OpenBLAS libraries report them, versions."""
    import ctypes

    import numpy
    import scipy

    blas = {}
    for package in (numpy, scipy):
        libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for suffix in ("64_", ""):
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    blas[path.name] = {"threads": threads(), "config": config().decode()}
                    break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


class Run:
    """Timed rounds of one workload, with checks outside the timed region."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.ok_ops = 0
        self.timed_s = 0.0
        self.rounds = 0
        self.errors: list[str] = []
        self.times: list[list[float]] = [[] for _ in workload.cases]  # per case, per round

    def round(self, tracer=None, on_op=None):
        from workloads import CheckFailure

        for index, case in enumerate(self.workload.cases):
            self.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    ok, output = self.workload.run(case)
                else:
                    tracer.op = index
                    ok, output = tracer.span("bench.op", self.workload.run, case)
            except Exception:
                self._timed(index, start)
                self.failed += 1
                self.errors.append(f"{case.label}: unexpected exception\n{traceback.format_exc()}")
                continue
            self._timed(index, start)
            if ok:
                self.ok_ops += 1
            else:
                self.failed += 1
            if on_op is not None:
                on_op(case)
            try:
                self.workload.check(case, output)
            except CheckFailure as exc:
                self.errors.append(f"{case.label}: {exc}")
            except Exception:
                self.errors.append(f"{case.label}: check raised\n{traceback.format_exc()}")
        self.rounds += 1

    def _timed(self, index: int, start: float):
        elapsed = time.perf_counter() - start
        self.timed_s += elapsed
        self.times[index].append(elapsed)

    def until(self, seconds: float):
        """Whole rounds until at least ``seconds`` of timed operations."""
        while self.rounds == 0 or self.timed_s < seconds:
            self.round()

    @property
    def ops_per_s(self) -> float:
        """Successful operations of a round over the round's time, taking each
        case at its median over the rounds, so that a stall of the host during
        one operation does not move the figure."""
        round_s = sum(statistics.median(times) for times in self.times)
        return self.ok_ops / self.rounds / round_s

    @property
    def mean_ops_per_s(self) -> float:
        return self.ok_ops / self.timed_s


def traced_round(workload, untraced: Run) -> tuple[dict, dict, dict]:
    """One traced round: per-layer metrics, per-op call counts, spans."""
    from tracing import Tracer

    tracer = Tracer()
    traced = Run(workload)
    labels = [case.label for case in workload.cases]
    json_bytes = 0

    def count_bytes(case):
        nonlocal json_bytes
        json_bytes += sum(os.path.getsize(p) for p in getattr(workload, "written", lambda c: [])(case))

    tracer.install()
    try:
        traced.round(tracer, count_bytes)
    finally:
        tracer.uninstall()
    untraced.attempted += traced.attempted
    untraced.failed += traced.failed
    untraced.errors += traced.errors

    summary = tracer.summary()
    # Every other per-layer metric is "<layer>.calls" or "<layer>.self_s".
    values = {"serialize.json_bytes": json_bytes,
              "fock.dense_ground_state.peak_mb": tracer.peak_bytes["fock.dense_ground_state"] / 2**20,
              "decompose.modewise_decompose.failed": tracer.failed["decompose.modewise_decompose"],
              "trace.overhead_pct": 100.0 * (untraced.ops_per_s / traced.ops_per_s - 1.0)}
    metrics = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name = spec["name"]
        if name not in values:
            layer, stat = name.rsplit(".", 1)
            values[name] = summary[stat][layer]
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
    return metrics, tracer.calls_per_op(labels), tracer.dump()


def probe_import_s() -> float:
    """Import time of the package in a fresh interpreter running this script."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), PROBE_FLAG],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == [PROBE_FLAG]:
        import_package()
        print(time.perf_counter() - START)
        return 0
    parser = build_parser()
    args = parser.parse_args(argv)
    import_package()
    import_reps = [time.perf_counter() - START]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    import_reps += [probe_import_s() for _ in range(IMPORT_PROBES)]
    import_s = statistics.median(import_reps)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        setup_reps = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_reps.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_reps)

        run = Run(workload)
        run.until(args.seconds)
        ops_per_s = run.ops_per_s
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "import_repeats_s": import_reps, "setup_repeats_s": setup_reps, "rounds": run.rounds,
                "ops_per_round": len(workload.cases), "timed_s": run.timed_s,
                "mean_ops_per_s": run.mean_ops_per_s, **machine_info()}
        if args.trace:
            metrics, per_op, spans = traced_round(workload, run)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"info": info, "calls_per_op": per_op, **spans}))
            info["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            }

    for error in run.errors:
        print(f"bench: check failed: {error}", file=sys.stderr)
    result = {"correct": not run.errors, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, **result}, indent=1))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
