"""Span tracing of dictolearn's public entry points, for traced runs only.

``instrument`` wraps the public classes' methods on the class and each
public module function in every ``dictolearn`` module that holds it by
name, so calls made inside the library are traced too. Untraced runs
never import this module and wrap nothing.

A span records its name, start, end, parent span and op id (one op is
one scan, training run or ELBO instance; -1 outside ops). Spans are kept
in flat arrays while the run lasts and written once at the end. A
span's self time is its duration minus the time covered by its
children, so the self times of one op's spans add up to the op span.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

# (module, class or None, attribute): the boundaries spans are taken at.
BOUNDARIES = [
    ("tomo", "Projector", "__init__"),
    ("tomo", "Projector", "forward"),
    ("tomo", "Projector", "adjoint"),
    ("tomo", "Projector", "norm_sq"),
    ("tomo", None, "fbp"),
    ("tomo", None, "forward_project"),
    ("tomo", None, "simulate_counts"),
    ("operators", "ConvSynthesis", "__init__"),
    ("operators", "ConvSynthesis", "apply"),
    ("operators", "ConvSynthesis", "adjoint"),
    ("operators", "ConvSynthesis", "dict_gradient"),
    ("operators", "PatchSynthesis", "apply"),
    ("operators", "PatchSynthesis", "adjoint"),
    ("operators", "PatchSynthesis", "dict_gradient"),
    ("operators", None, "normalize_atoms"),
    ("sparse", None, "soft_threshold"),
    ("sparse", None, "power_iteration_norm"),
    ("sparse", None, "estimate_lipschitz"),
    ("sparse", None, "fista_sparse_code"),
    ("recon", None, "reconstruct_dict"),
    ("recon", None, "reconstruct_dict_patch"),
    ("recon", None, "reconstruct_huber"),
    ("learn", None, "train_dictionary"),
    ("learn", None, "remove_low_frequency"),
    ("learn", None, "adam_update"),
    ("elbo", None, "posterior_mode"),
    ("elbo", None, "elbo_lower_bound"),
    ("elbo", None, "elbo_monte_carlo"),
    ("elbo", None, "log_evidence_quadrature"),
]

LAYERS = ("tomo", "operators", "sparse", "recon", "learn", "elbo")
OP_SPAN = "bench.op"


def _fista_iters(result):
    return len(result[1])


def _recon_iters(result):
    return len(result[1].objective)


# Work counts read from a call's result: iterations run.
_COUNTERS = {
    "sparse.fista_sparse_code": _fista_iters,
    "recon.reconstruct_dict": _recon_iters,
    "recon.reconstruct_dict_patch": _recon_iters,
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self._op = -1
        self._ops = 0

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None:
                self.work[sid] = counter(result)
            return result

        return traced

    @contextlib.contextmanager
    def op_span(self):
        """Root span of one op; every span opened inside shares its op id."""
        self._op = self._ops
        self._ops += 1
        sid = self._open(self._name_id(OP_SPAN))
        try:
            yield
        finally:
            self._close(sid)
            self._op = -1

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name_of, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "work": np.array(self.work, dtype=np.float64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def instrument(tracer: Tracer, callers=()):
    """Wrap every boundary that exists.

    Functions are replaced in every ``dictolearn`` module and in the
    ``callers`` modules that import them by name. A boundary that a later
    version of the library no longer has is skipped; its metrics read 0.
    """
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "dictolearn" or name.startswith("dictolearn.")}
    holders = list(mods.values()) + list(callers)
    for layer, cls_name, attr in BOUNDARIES:
        mod = mods.get(f"dictolearn.{layer}")
        if mod is None:
            continue
        if cls_name is not None:
            cls = getattr(mod, cls_name, None)
            if cls is None or attr not in vars(cls):
                continue
            span = f"{layer}.{cls_name}.{attr}"
            setattr(cls, attr, tracer.wrap(span, vars(cls)[attr]))
            continue
        fn = getattr(mod, attr, None)
        if fn is None:
            continue
        traced = tracer.wrap(f"{layer}.{attr}", fn)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is fn:
                    setattr(holder, key, traced)


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one traced call over a plain call, in seconds."""

    def nothing():
        return None

    probe = Tracer()
    traced = probe.wrap("probe", nothing)
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            nothing()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


class SpanTable:
    """Span arrays with durations and self times, queried by span name."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.name = a["name"]
        self.op = a["op"]
        self.work = a["work"]
        self.dur = a["end"] - a["start"]
        child = np.zeros_like(self.dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.ops = int(self.op.max()) + 1 if self.op.size else 0

    def select(self, name: str, in_ops: bool = True) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.dur.shape, dtype=bool)
        mask = self.name == self.names.index(name)
        if in_ops:
            mask &= self.op >= 0
        return mask

    def calls(self, name: str, in_ops: bool = True) -> int:
        return int(self.select(name, in_ops).sum())

    def total(self, name: str, in_ops: bool = True, self_only: bool = False) -> float:
        values = self.self_time if self_only else self.dur
        return float(values[self.select(name, in_ops)].sum())

    def mean(self, name: str, in_ops: bool = True) -> float:
        n = self.calls(name, in_ops)
        return self.total(name, in_ops) / n if n else 0.0

    def work_done(self, name: str) -> float:
        return float(self.work[self.select(name)].sum())

    def layer_self(self, layer: str) -> float:
        """Self time, summed over ops, of every span of one layer."""
        ids = [i for i, n in enumerate(self.names) if n.split(".")[0] == layer]
        mask = np.isin(self.name, ids) & (self.op >= 0)
        return float(self.self_time[mask].sum())


def layer_metrics(table: SpanTable, span_cost: float, huber_iters: int) -> dict:
    """Per-layer metrics derived from spans; the unit is the name's suffix.

    Means are per call, ``*_calls`` and ``*_per_op`` are per op, and only
    spans inside ops count, except set-up's assembly and ||A||^2.
    """
    ms = 1e3
    per_op = 1.0 / max(table.ops, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    dict_recon = ("recon.reconstruct_dict", "recon.reconstruct_dict_patch")
    recon_iters = sum(table.work_done(n) for n in dict_recon)
    steps = table.calls("learn.adam_update")
    train_s = table.total("learn.train_dictionary")
    lowpass_s = table.total("learn.remove_low_frequency")
    op_wall = table.total(OP_SPAN)
    spans = int((table.op >= 0).sum())
    out = {
        "tomo.forward_ms": ms * table.mean("tomo.Projector.forward"),
        "tomo.adjoint_ms": ms * table.mean("tomo.Projector.adjoint"),
        "tomo.forward_calls": table.calls("tomo.Projector.forward") * per_op,
        "tomo.adjoint_calls": table.calls("tomo.Projector.adjoint") * per_op,
        "tomo.assemble_s": table.mean("tomo.Projector.__init__", in_ops=False),
        # Set-up's calls compute ||A||^2; calls inside ops hit its cache.
        "tomo.norm_sq_s": table.mean("tomo.Projector.norm_sq", in_ops=False),
        "tomo.fbp_ms": ms * table.mean("tomo.fbp"),
        "operators.conv_apply_ms": ms * table.mean("operators.ConvSynthesis.apply"),
        "operators.conv_adjoint_ms": ms * table.mean("operators.ConvSynthesis.adjoint"),
        "operators.conv_calls": (table.calls("operators.ConvSynthesis.apply")
                                 + table.calls("operators.ConvSynthesis.adjoint")) * per_op,
        "operators.patch_apply_ms": ms * table.mean("operators.PatchSynthesis.apply"),
        "operators.patch_adjoint_ms": ms * table.mean("operators.PatchSynthesis.adjoint"),
        "operators.dict_gradient_ms": ms * ratio(
            table.total("operators.PatchSynthesis.dict_gradient")
            + table.total("operators.ConvSynthesis.dict_gradient"),
            table.calls("operators.PatchSynthesis.dict_gradient")
            + table.calls("operators.ConvSynthesis.dict_gradient")),
        "sparse.lipschitz_s": table.mean("sparse.estimate_lipschitz"),
        "sparse.lipschitz_calls": table.calls("sparse.estimate_lipschitz") * per_op,
        "sparse.soft_threshold_ms": ms * table.mean("sparse.soft_threshold"),
        "sparse.fista_ms": ms * table.mean("sparse.fista_sparse_code"),
        "sparse.fista_calls": table.calls("sparse.fista_sparse_code") * per_op,
        "sparse.fista_us_per_iter": 1e6 * ratio(table.total("sparse.fista_sparse_code"),
                                                table.work_done("sparse.fista_sparse_code")),
        "recon.iter_ms": ms * ratio(sum(table.total(n) for n in dict_recon), recon_iters),
        "recon.self_ms_per_iter": ms * ratio(
            sum(table.total(n, self_only=True) for n in dict_recon), recon_iters),
        "recon.huber_self_ms_per_iter": ms * ratio(
            table.total("recon.reconstruct_huber", self_only=True),
            table.calls("recon.reconstruct_huber") * huber_iters),
        "learn.step_ms": ms * ratio(train_s - lowpass_s, steps),
        "learn.self_ms_per_step": ms * ratio(
            table.total("learn.train_dictionary", self_only=True), steps),
        "learn.adam_ms": ms * table.mean("learn.adam_update"),
        "learn.lowpass_s": ratio(lowpass_s, table.calls("learn.train_dictionary")),
        "elbo.posterior_mode_ms": ms * table.mean("elbo.posterior_mode"),
        "elbo.mc_ms": ms * table.mean("elbo.elbo_monte_carlo"),
        "elbo.quadrature_ms": ms * table.mean("elbo.log_evidence_quadrature"),
        "trace.spans_per_op": spans * per_op,
        "trace.overhead_pct": 100.0 * ratio(spans * span_cost, op_wall - spans * span_cost),
        "trace.self_sum_ratio": ratio(
            sum(table.layer_self(layer) for layer in LAYERS + ("bench",)), op_wall),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_op"] = ms * table.layer_self(layer) * per_op
    return out
