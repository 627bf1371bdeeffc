"""hjblab benchmark: runs one workload in this process and reports its metrics.

    python3 bench/run.py --workload mc_box --seed 7 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 7     # each workload in turn

Run from the repository root (hjblab is imported from ``src/``).  The
workload runs closed loop, one client: pass after pass of its ops at one
thread, until the next pass would end after ``--seconds``.  ``--seed`` goes
to the MC ops as ``--seed-override`` (omitted: each config's shipped seed);
the PDE ops are deterministic.

``--trace 0`` prints the end-to-end metrics: ``wall_ref`` (median over
passes, at least three, of the pass's wall time divided by the time the
reference kernel of reference.py took in the same pass), ``setup_s``
(median of three fresh interpreters importing hjblab and loading the
workload's configs) and ``peak_rss_mb``; the plain median ``wall_s`` is
printed with them.  ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics of the traced ones (see
tracer.py), with ``trace.overhead_s`` = median traced minus median plain pass
wall; the spans of the last traced pass go to ``.bench_out/``.

Lines before the last describe the run (quartiles, sample counts, fail rate,
workload figures, provenance).  The last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``src/`` the run exits nonzero before printing a result.
"""

from __future__ import annotations

import os

# a plain single-threaded baseline: BLAS pools stay at one thread unless set
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_PASSES = 3  # a median of two passes is their mean: one slow pass moves it

SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import hjblab.cli
from hjblab.config import load_config
for path in sys.argv[2:]:
    load_config(path)
print("ready", flush=True)
"""

E2E_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def import_hjblab():
    """Import hjblab from this checkout's src/, or exit nonzero."""
    sys.path.insert(0, str(SRC))
    try:
        import hjblab
    except ImportError as e:
        sys.exit(f"bench: cannot import hjblab from {SRC}: {e}")
    if not Path(hjblab.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: hjblab was imported from {hjblab.__file__}, not from {SRC}")
    return hjblab


@dataclass
class OpResult:
    name: str
    seconds: float
    problems: list
    digest: str | None
    figures: dict


@contextmanager
def _stopwatch():
    rec = [-1, -1, time.perf_counter_ns(), 0, None]
    try:
        yield rec
    finally:
        rec[3] = time.perf_counter_ns()


class OpTimer:
    """``timed()`` for one op: a stopwatch, or the tracer's root span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0

    @contextmanager
    def __call__(self):
        rec = None
        try:
            with (self.tracer.root() if self.tracer else _stopwatch()) as rec:
                yield
        finally:
            if rec is not None:
                self.seconds = (rec[3] - rec[2]) * 1e-9


def run_pass(workload, ctx, tracer=None):
    """Every op of the workload once; returns the op results and the seconds
    the reference kernel took, timed before each op and after the last."""
    from reference import reference_seconds

    results = []
    ref = 0.0
    for name, op in workload.ops:
        ref += reference_seconds()
        timer = OpTimer(tracer)
        try:
            problems, digest, figures = op(ctx, timer)
        except Exception as e:  # an op that raises is a failed op; the run goes on
            problems, digest, figures = [f"{type(e).__name__}: {e}"], None, {}
        results.append(OpResult(name, timer.seconds, problems, digest, figures))
    return results, ref + reference_seconds()


@dataclass
class Pass:
    traced: bool
    ops: list
    ref: float          # seconds of the reference kernel runs in this pass
    warmup: bool = False
    layer_figures: dict | None = None
    self_ns: dict | None = None
    partition_ok: bool = True

    @property
    def wall(self):
        return sum(r.seconds for r in self.ops)

    @property
    def wall_ref(self):
        return self.wall / self.ref

    def figure(self, key):
        return sum(r.figures.get(key, 0) for r in self.ops)


def measure(workload, ctx, seconds, trace):
    """Passes until the next one would end after ``seconds`` (at least
    MIN_PASSES plain ones); with ``trace``, plain and traced passes
    alternate, plain first, and one of each is enough."""
    from tracer import Tracer, pass_figures

    tracer = Tracer() if trace else None
    # caches fill and lazy set-up finishes in a warm-up pass, which is checked
    # but not timed
    passes = [Pass(False, *run_pass(workload, ctx), warmup=True)]
    last_spans = None
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        if trace and len(passes) % 2 == 0:
            with tracer:
                ops, ref = run_pass(workload, ctx, tracer)
            last_spans = tracer.take()
            figures, self_ns, pass_ns = pass_figures(tracer, last_spans)
            passes.append(Pass(True, ops, ref, layer_figures=figures, self_ns=self_ns,
                               partition_ok=sum(self_ns.values()) == pass_ns))
        else:
            passes.append(Pass(False, *run_pass(workload, ctx)))
        longest = max(longest, time.perf_counter() - t0)
        enough = len(passes) > (2 if trace else MIN_PASSES)
        if enough and time.perf_counter() - start + longest > seconds:
            break
    _check_repeats(passes)
    return passes, tracer, last_spans


def _check_repeats(passes):
    """Every pass of a run must reproduce the first pass's outputs exactly."""
    first = {}
    for p in passes:
        for r in p.ops:
            if r.digest is None:
                continue
            ref = first.setdefault(r.name, r.digest)
            if r.digest != ref:
                r.problems.append("outputs differ from the first pass of this run")


def measure_setup(paths, repeats=SETUP_REPEATS):
    """Seconds from starting a fresh interpreter until it has imported hjblab
    and loaded ``paths``, ``repeats`` times."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC), *paths],
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def provenance(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
        # informational, never gated
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _summary(name, values, unit):
    q1, q3 = _quartiles(values)
    return (f"{name:<34} {statistics.median(values):.6g} {unit}"
            f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if "ns_per_" in name:
        return "ns"
    if name.endswith("noise_bytes_per_block"):
        return "bytes_computed"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_ratio") or name.endswith("_per_step") or name.endswith("_per_call"):
        return "ratio"
    return "count"


def write_spans(path, tracer, spans):
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = min((rec[2] for rec in spans), default=0)
    with open(path, "w") as fh:
        fh.write("id,parent,layer,target,start_ns,end_ns\n")
        for i, rec in enumerate(spans):
            target = "op" if rec[1] < 0 else tracer.targets[rec[1]].where
            fh.write(f"{i},{rec[0]},{tracer.layer_of(rec)},{target},"
                     f"{rec[2] - t0},{rec[3] - t0}\n")


def report(workload, args, passes, setup):
    """Print the run's description and return the result object."""
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(1 for p in passes for r in p.ops if r.problems)
    partition_ok = all(p.partition_ok for p in passes)
    print(f"workload {workload.name}: seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    for p_index, p in enumerate(passes):
        for r in p.ops:
            if r.problems:
                print(f"FAILED pass {p_index} op {r.name}: " + "; ".join(r.problems))
    print(f"{'fail_rate':<34} {failed / attempted:.6g}  ({failed} of {attempted} ops)")

    plain = [p for p in passes if not p.traced and not p.warmup]
    walls = [p.wall for p in plain]
    metrics = {}
    if not args.trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ratios = [p.wall_ref for p in plain]
        metrics = {
            "wall_ref": statistics.median(ratios),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_mb,
        }
        print(_summary("wall_ref", ratios, "ref"))
        print(_summary("wall_s", walls, "s"))
        print("  pass walls " + " ".join(f"{w:.4f}" for w in walls))
        print(_summary("reference_s", [p.ref for p in plain], "s"))
        print("  pass references " + " ".join(f"{p.ref:.5f}" for p in plain))
        print(_summary("setup_s", setup, "s"))
        print(f"{'peak_rss_mb':<34} {rss_mb:.6g} MB")
        for r_name in (r.name for r in plain[0].ops):
            times = [r.seconds for p in plain for r in p.ops if r.name == r_name]
            print(_summary(f"  op {r_name}", times, "s"))
        steps = [p.figure("path_steps") / p.wall for p in plain if p.wall > 0]
        if any(steps):
            print(_summary("path_steps_per_s", steps, "1/s"))
        se2 = [r.figures["se"] ** 2 * r.seconds for p in plain for r in p.ops
               if "se" in r.figures]
        if se2:
            print(_summary("se2_s", se2, "s"))
        ref = [r.figures["ref_err"] for p in plain for r in p.ops if "ref_err" in r.figures]
        if ref:
            print(_summary("ref_err", ref, "1"))
    else:
        traced = [p for p in passes if p.traced]
        absent = [n for n, v in traced[0].layer_figures.items() if v is None]
        for name, value in traced[0].layer_figures.items():
            if value is not None:
                metrics[name] = statistics.median(p.layer_figures[name] for p in traced)
        metrics["cli.bytes_written"] = statistics.median(p.figure("bytes_written") for p in traced)
        metrics["cli.files_written"] = statistics.median(p.figure("files_written") for p in traced)
        metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                       - statistics.median(walls))
        print(_summary("plain pass wall_s", walls, "s"))
        print(_summary("traced pass wall_s", [p.wall for p in traced], "s"))
        pass_ns = statistics.median(sum(p.self_ns.values()) for p in traced)
        self_ns = {layer: statistics.median(p.self_ns[layer] for p in traced)
                   for layer in traced[0].self_ns}
        print("self time by layer, median over traced passes:")
        for layer, ns in sorted(self_ns.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<14} {ns * 1e-9:10.4f} s  {100.0 * ns / pass_ns:5.1f}%")
        if absent:
            print("absent (wrapped name no longer found): " + ", ".join(absent))
        if not partition_ok:
            print("FAILED: layer self times do not sum to the traced pass wall time")
        for name in sorted(metrics):
            print(f"{name:<34} {metrics[name]:.6g} {_layer_unit(name)}")
    return {
        "correct": failed == 0 and partition_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": E2E_UNITS.get(name) or _layer_unit(name)}
                    for name, value in metrics.items()},
    }


def run_all(args, workloads):
    """Every workload in turn, each in a fresh process; the last line sums
    their results, with each metric prefixed by its workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            total["correct"] = False
            code = 1
            continue
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total, sort_keys=True))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_hjblab()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    setup = measure_setup([str(ROOT / p) for p in workload.configs])

    from workloads import Context

    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_parent))
    try:
        ctx = Context(args.seed, tmp, workload.load_configs())
        passes, tracer, spans = measure(workload, ctx, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if spans is not None:
        write_spans(ROOT / ".bench_out" / f"spans_{workload.name}.csv", tracer, spans)
    result = report(workload, args, passes, setup)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
