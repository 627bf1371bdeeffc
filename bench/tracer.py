"""Layer tracer that times calls into hjblab's modules from outside.

The tracer wraps named entry points of the package at every module binding
that refers to them (``hjb.argmin_level`` as well as
``hamiltonian.argmin_level``), records one span per call in memory with the
id of the enclosing span, and restores the originals when it is removed.
Nothing inside ``src/`` is changed.  A target whose name no longer exists is
recorded as absent and every metric that depends on it is left out of the
result instead of failing the run.

Spans are lists ``[parent, target_index, start_ns, end_ns, info]``; a span's
id is its index in ``Tracer.spans`` and parent -1 marks a root.  Root spans
are opened by the benchmark around each op (target index -1, layer
``harness``).  Self time is a span's duration minus the part of it that its
children cover, so the self times of all spans of a pass sum to the summed
durations of the pass's roots.  The tracer assumes one thread, which is how
the benchmark drives hjblab (``--threads 1``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "hjblab"
HARNESS = "harness"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _lines(args, kwargs, result):
    rhs = _arg(args, kwargs, 3, "rhs")
    return {"unknowns": rhs.size, "lines": rhs.size // rhs.shape[-1]}


def _argmin_nodes(args, kwargs, result):
    return {"nodes": result[0].size}


def _pi_iterations(args, kwargs, result):
    return {"iterations": result[2].iterations}


def _march(args, kwargs, result):
    grid = _arg(args, kwargs, 2, "grid")
    return {"steps": grid.nt, "flagged": len(result.meta["inner_flagged_steps"])}


def _field_nodes(args, kwargs, result):
    field = _arg(args, kwargs, 0, "field")
    return {"nodes": getattr(field, "values", field).size}


def _block(args, kwargs, result):
    grid = _arg(args, kwargs, 3, "grid")
    n_block, n_steps = result[0], result[4]
    # the noise array one block draws at once, computed from its shape
    return {"path_steps": n_block * n_steps, "noise_bytes_max": n_block * n_steps * grid.dim * 8}


@dataclass(frozen=True)
class Target:
    layer: str    # the hjblab module the time is charged to (cli.write: artifact writers)
    kind: str     # metric family inside the layer
    where: str    # "module:qualname" inside the package
    observe: object = None  # (args, kwargs, result) -> dict of counts


TARGETS = (
    Target("cli", "main", "cli:main"),
    Target("cli.write", "write", "grids:field_to_csv"),
    Target("cli.write", "write", "hamiltonian:Policy.to_csv"),
    Target("cli.write", "write", "hjb:IterationTrace.to_csv"),
    Target("cli.write", "write", "mollify:LadderReport.to_csv"),
    Target("cli.write", "write", "config:RunManifest.write"),
    Target("config", "load", "config:load_config"),
    Target("experiments", "report", "experiments:counterexample_report"),
    Target("experiments", "report", "experiments:dpp_battery"),
    Target("experiments", "report", "experiments:mollify_value_sweep"),
    Target("experiments", "report", "experiments:verification_check"),
    Target("experiments", "report", "experiments:countable_truncation_study"),
    Target("hjb", "pi", "hjb:policy_iteration", _pi_iterations),
    Target("hjb", "direct", "hjb:solve_hjb_direct"),
    Target("hjb", "march", "hjb:solve_hjb_tables", _march),
    Target("hjb", "residual", "hjb:hjb_residual"),
    Target("hjb", "policy_value", "hjb:solve_policy_value"),
    Target("parabolic", "frozen", "parabolic:solve_frozen"),
    Target("parabolic", "step", "parabolic:_step"),
    Target("parabolic", "operator", "parabolic:_step_operator"),
    Target("tridiag", "solve", "tridiag:solve_tridiag", _lines),
    Target("tridiag", "solve", "tridiag:solve_cyclic", _lines),
    Target("hamiltonian", "argmin", "hamiltonian:argmin_level", _argmin_nodes),
    Target("mollify", "field", "mollify:mollify_field", _field_nodes),
    Target("mollify", "samples", "mollify:mollify_samples"),
    Target("mollify", "ladder", "mollify:coefficient_ladder"),
    Target("montecarlo", "estimate", "montecarlo:simulate_cost"),
    Target("montecarlo", "estimate", "montecarlo:dpp_residual"),
    Target("montecarlo", "block", "montecarlo:_block_totals", _block),
    Target("montecarlo", "value_at", "montecarlo:value_at"),
    Target("montecarlo", "control", "montecarlo:FeedbackRule.values"),
    Target("montecarlo", "control", "montecarlo:GridPolicyControl.values"),
    Target("montecarlo", "control", "montecarlo:OpenLoopControl.values"),
    Target("coefficients", "eval", "coefficients:CoefficientOracle.eval"),
    Target("coefficients", "sample", "coefficients:sample_to_grid"),
    Target("coefficients", "sample", "coefficients:sample_all"),
    Target("grids", "wrap", "grids:Grid.wrap"),
    Target("grids", "clamp", "grids:Grid.clamp"),
    Target("grids", "gradient", "grids:spatial_gradient"),
    Target("grids", "gradient", "grids:gradient_pair"),
)

# Layers whose self times partition a pass, in report order.
LAYERS = (HARNESS, "cli", "cli.write", "config", "experiments", "hjb", "parabolic",
          "tridiag", "hamiltonian", "mollify", "montecarlo", "coefficients", "grids")


class Tracer:
    """Install with ``with Tracer(): ...``; spans accumulate in ``spans``."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans = []
        self.absent = set()         # (layer, kind) with a target that is gone
        self.observe_failed = set()  # (layer, kind) whose counts could not be read
        self._stack = []
        self._patches = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self):
        for index, target in enumerate(self.targets):
            module_name, qualname = target.where.split(":")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                owner, attr = module, qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.add((target.layer, target.kind))
                continue
            wrapper = self._wrap(index, original)
            if owner is module:
                for bound_module, name in self._bindings(original):
                    self._patch(bound_module, name, original, wrapper)
            else:
                self._patch(owner, attr, original, wrapper)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _bindings(self, original):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    yield module, attr

    def _patch(self, owner, name, original, wrapper):
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, index, fn):
        spans = self.spans
        stack = self._stack
        observe = self.targets[index].observe
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [stack[-1] if stack else -1, index, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if observe is not None:
                try:
                    rec[4] = observe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    target = self.targets[index]
                    self.observe_failed.add((target.layer, target.kind))
            return result

        return wrapper

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def root(self):
        """A harness span around one op; yields its record."""
        rec = [-1, -1, 0, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter_ns()
            self._stack.pop()

    def take(self):
        """Hand over the recorded spans and start an empty list (the same
        list object: installed wrappers hold it)."""
        spans = self.spans[:]
        self.spans.clear()
        return spans

    def layer_of(self, rec):
        return HARNESS if rec[1] < 0 else self.targets[rec[1]].layer

    def key_of(self, rec):
        if rec[1] < 0:
            return (HARNESS, "op")
        t = self.targets[rec[1]]
        return (t.layer, t.kind)


def self_times(spans):
    """Per-span duration minus the union of its children's intervals (ns)."""
    children = {}
    for rec in spans:
        if rec[0] >= 0:
            children.setdefault(rec[0], []).append((rec[2], rec[3]))
    out = [rec[3] - rec[2] for rec in spans]
    for parent, intervals in children.items():
        lo, hi = spans[parent][2], spans[parent][3]
        covered = 0
        cur_start = cur_end = None
        for start, end in sorted(intervals):
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[parent] -= covered
    return out


def pass_figures(tracer, spans):
    """Per-layer figures of one traced pass.

    Returns (figures, self_ns_by_layer, pass_ns).  ``figures`` maps each
    per-layer metric name to its value, or to None when the metric depends on
    an absent target or on counts that could not be read.
    """
    selfs = self_times(spans)
    by_layer = dict.fromkeys(LAYERS, 0)
    dur = {}
    calls = {}
    counts = {}
    for i, rec in enumerate(spans):
        key = tracer.key_of(rec)
        by_layer[key[0]] = by_layer.get(key[0], 0) + selfs[i]
        parent_key = tracer.key_of(spans[rec[0]]) if rec[0] >= 0 else None
        if parent_key == key:  # nested call of the same family (cyclic -> tridiag)
            continue
        dur[key] = dur.get(key, 0) + rec[3] - rec[2]
        calls[key] = calls.get(key, 0) + 1
        for name, value in (rec[4] or {}).items():
            bucket = counts.setdefault(key, {})
            if name.endswith("_max"):
                bucket[name] = max(bucket.get(name, 0), value)
            else:
                bucket[name] = bucket.get(name, 0) + value
    pass_ns = sum(rec[3] - rec[2] for rec in spans if rec[0] < 0)

    # step solves the direct marcher makes: _step spans directly under solve_hjb_tables
    march_solves = 0
    for rec in spans:
        if rec[0] >= 0 and tracer.key_of(rec) == ("parabolic", "step") \
                and tracer.key_of(spans[rec[0]]) == ("hjb", "march"):
            march_solves += 1

    s = lambda ns: ns * 1e-9  # noqa: E731
    d = lambda key: dur.get(key, 0)  # noqa: E731
    n = lambda key: calls.get(key, 0)  # noqa: E731
    c = lambda key, name: counts.get(key, {}).get(name, 0)  # noqa: E731
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731

    T, P, H = ("tridiag", "solve"), ("hjb", "march"), ("mollify", "field")
    B, A = ("montecarlo", "block"), ("hamiltonian", "argmin")
    S, PI = ("parabolic", "step"), ("hjb", "pi")
    E, SA = ("coefficients", "eval"), ("coefficients", "sample")
    W, CL, G = ("grids", "wrap"), ("grids", "clamp"), ("grids", "gradient")
    steps, flagged = c(P, "steps"), c(P, "flagged")
    layer = lambda name: s(by_layer[name])  # noqa: E731
    # name -> (targets it is timed at, targets whose counts it reads, value)
    table = {
        "tridiag.solve_s": ([T], [], layer("tridiag")),
        "tridiag.calls": ([T], [], n(T)),
        "tridiag.unknowns": ([T], [T], c(T, "unknowns")),
        "tridiag.lines_per_call": ([T], [T], ratio(c(T, "lines"), n(T))),
        "tridiag.ns_per_unknown": ([T], [T], ratio(by_layer["tridiag"], c(T, "unknowns"))),
        "parabolic.step_s": ([S], [], layer("parabolic")),
        "parabolic.steps": ([S], [], n(S)),
        "parabolic.frozen_solves": ([("parabolic", "frozen")], [], n(("parabolic", "frozen"))),
        "hamiltonian.argmin_s": ([A], [], layer("hamiltonian")),
        "hamiltonian.argmin_calls": ([A], [], n(A)),
        "hamiltonian.argmin_nodes": ([A], [A], c(A, "nodes")),
        "hjb.self_s": ([P, PI], [], layer("hjb")),
        "hjb.residual_s": ([("hjb", "residual")], [], s(d(("hjb", "residual")))),
        "hjb.pi_iterations": ([PI], [PI], c(PI, "iterations")),
        "hjb.sweeps_per_step": ([P, S], [P], ratio(march_solves, steps)),
        "hjb.flagged_steps": ([P], [P], flagged),
        "hjb.useful_sweep_ratio": ([P, S], [P], ratio(steps - flagged, march_solves)),
        "mollify.self_s": ([H], [], layer("mollify")),
        "mollify.field_s": ([H], [], s(d(H))),
        "mollify.field_calls": ([H], [], n(H)),
        "mollify.nodes": ([H], [H], c(H, "nodes")),
        "mollify.ns_per_node": ([H], [H], ratio(d(H), c(H, "nodes"))),
        "montecarlo.self_s": ([B], [], layer("montecarlo")),
        "montecarlo.blocks": ([B], [], n(B)),
        "montecarlo.path_steps": ([B], [B], c(B, "path_steps")),
        "montecarlo.control_s": ([("montecarlo", "control")], [], s(d(("montecarlo", "control")))),
        "montecarlo.value_at_s": ([("montecarlo", "value_at")], [], s(d(("montecarlo", "value_at")))),
        "montecarlo.noise_bytes_per_block": ([B], [B], c(B, "noise_bytes_max")),
        "coefficients.self_s": ([E, SA], [], layer("coefficients")),
        "coefficients.eval_s": ([E], [], s(d(E))),
        "coefficients.eval_calls": ([E], [], n(E)),
        "coefficients.sample_s": ([SA], [], s(d(SA))),
        "coefficients.sample_calls": ([SA], [], n(SA)),
        "grids.self_s": ([W, CL, G], [], layer("grids")),
        "grids.wrap_s": ([W], [], s(d(W))),
        "grids.wrap_calls": ([W], [], n(W)),
        "grids.clamp_s": ([CL], [], s(d(CL))),
        "grids.clamp_calls": ([CL], [], n(CL)),
        "grids.gradient_s": ([G], [], s(d(G))),
        "grids.gradient_calls": ([G], [], n(G)),
        "cli.write_s": ([("cli.write", "write")], [], layer("cli.write")),
        "cli.self_s": ([("cli", "main")], [], layer("cli")),
        "config.load_s": ([("config", "load")], [], layer("config")),
        "experiments.self_s": ([("experiments", "report")], [], layer("experiments")),
        "harness.self_s": ([], [], layer(HARNESS)),
        "trace.pass_s": ([], [], s(pass_ns)),
    }
    figures = {
        name: None if (any(k in tracer.absent for k in timed)
                       or any(k in tracer.observe_failed for k in counted)) else value
        for name, (timed, counted, value) in table.items()
    }
    return figures, by_layer, pass_ns
