"""Fast self-check of the benchmark itself (about half a minute).

    python3 bench/selfcheck.py

1. Self-time arithmetic on synthetic nested spans, the outermost-call rule
   that keeps solve_cyclic's inner solves from being counted twice, and a
   renamed target turning its metrics absent instead of failing.
2. The tracer wraps an entry point at every module binding and restores it.
3. One traced pass of every workload at the configs' shipped seeds: every op
   passes its output checks and the layer self times sum to the pass wall.
   The self-time ranking is printed, not asserted: optimizations move it.

Exits nonzero on the first failed check.
"""

from __future__ import annotations

import shutil
import sys
import tempfile

import run
from tracer import HARNESS, Target, Tracer, pass_figures, self_times


def expect(cond, what):
    if not cond:
        sys.exit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def check_arithmetic():
    spans = [
        [-1, -1, 0, 100, None],     # 0 root: children 1 and 4 cover 70
        [0, 0, 10, 60, None],       # 1: children 2 and 3 cover 20
        [1, 0, 20, 30, None],       # 2
        [1, 0, 40, 50, None],       # 3
        [0, 0, 70, 90, None],       # 4
        [-1, -1, 200, 260, None],   # 5 root: overlapping children cover 40
        [5, 0, 210, 240, None],     # 6
        [5, 0, 230, 250, None],     # 7
    ]
    selfs = self_times(spans)
    expect(selfs == [30, 30, 10, 10, 20, 20, 30, 20], "self times of nested spans")
    expect(sum(selfs[:5]) == 100, "self times of one nested tree sum to its root")

    tracer = Tracer(targets=(
        Target("tridiag", "solve", "tridiag:solve_tridiag"),
        Target("grids", "wrap", "grids:Grid.no_such_method"),
    ))
    tracer.install()
    tracer.uninstall()
    expect(tracer.absent == {("grids", "wrap")}, "a missing target is recorded as absent")
    solves = [
        [-1, -1, 0, 1000, None],
        [0, 0, 100, 900, {"unknowns": 60, "lines": 3}],   # outer call (solve_cyclic)
        [1, 0, 200, 400, {"unknowns": 60, "lines": 3}],   # its inner solves
        [1, 0, 500, 700, {"unknowns": 60, "lines": 3}],
    ]
    figures, self_ns, pass_ns = pass_figures(tracer, solves)
    expect(figures["tridiag.calls"] == 1 and figures["tridiag.unknowns"] == 60,
           "nested calls of one family count once, at the outermost entry")
    expect(abs(figures["tridiag.solve_s"] - 800e-9) < 1e-15 and self_ns[HARNESS] == 200,
           "a layer's self time covers its nested calls")
    expect(figures["grids.wrap_s"] is None and figures["grids.self_s"] is None,
           "metrics of an absent target are absent")
    expect(sum(self_ns.values()) == pass_ns == 1000, "self times partition the pass")


def check_bindings():
    import hjblab.hamiltonian as hamiltonian
    import hjblab.hjb as hjb

    original = hamiltonian.argmin_level
    with Tracer():
        wrapped = hjb.argmin_level is not original and hamiltonian.argmin_level is not original
    expect(wrapped, "an entry point is wrapped at every module binding")
    expect(hjb.argmin_level is original and hamiltonian.argmin_level is original,
           "uninstall restores every binding")


def dry_run():
    from workloads import WORKLOADS, Context

    tmp_parent = run.ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selfcheck-", dir=tmp_parent)
    try:
        for workload in WORKLOADS.values():
            ctx = Context(None, run.Path(tmp), workload.load_configs())
            tracer = Tracer()
            with tracer:
                ops, _ = run.run_pass(workload, ctx, tracer)
            _, self_ns, pass_ns = pass_figures(tracer, tracer.take())
            for r in ops:
                expect(not r.problems, f"{workload.name}: {r.name} passes its checks"
                       + "".join(f"; {p}" for p in r.problems))
            expect(sum(self_ns.values()) == pass_ns,
                   f"{workload.name}: layer self times sum to the pass wall")
            ranking = sorted(self_ns.items(), key=lambda kv: -kv[1])[:3]
            print("    largest self times: " + ", ".join(
                f"{layer} {100.0 * ns / pass_ns:.0f}%" for layer, ns in ranking))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it


if __name__ == "__main__":
    run.import_hjblab()
    check_arithmetic()
    check_bindings()
    dry_run()
    print("selfcheck passed")
