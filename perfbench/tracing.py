"""Span tracing at the package's module bindings, and per-layer aggregation.

A traced run replaces each wrap target (a function as another module, or the
benchmark, looks it up) with a wrapper that records one span per call: name,
start, end, parent span and an optional extra value taken from the call's
result.  Nothing inside the package changes; `uninstall` puts the originals
back.  A target that no longer exists is reported by name as unresolved and
every metric of its layer is left out, never reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from time import perf_counter


def _sinkhorn_extra(args, kwargs, result):
    return (result.iterations, result.coupling.matrix.nbytes)


def _pivots(args, kwargs, result):
    return result.pivots


def _barycenter_iterations(args, kwargs, result):
    return result[1].iterations


def _regularized_iterations(args, kwargs, result):
    return getattr(result, "iterations", None)


def _semidiscrete_iterations(args, kwargs, result):
    return result[1]["iterations"] if isinstance(result, tuple) else None


def _gridcost_bytes(args, kwargs, result):
    return args[0].entries.nbytes


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (span name, dotted wrap target, extra-from-result).  Several targets may
# share a span name: they are the bindings of one layer in different modules.
TARGETS = (
    ("core.grid_apply", "smoothot.entropic.grid_kernel_apply", None),
    ("core.grid_apply", "smoothot.legendre.grid_kernel_apply", None),
    ("core.lse", "smoothot.entropic.logsumexp", None),
    ("core.lse", "smoothot.legendre.logsumexp", None),
    ("core.gridcost", "smoothot.core.GridCost2D.__init__", _gridcost_bytes),
    ("entropic.sinkhorn", "smoothot.entropic.sinkhorn", _sinkhorn_extra),
    ("entropic.dual_value", "smoothot.entropic.dual_value", None),
    ("legendre.semidual_batch", "smoothot.barycenter.semidual_conjugate_batch", None),
    ("legendre.semidual_batch", "smoothot.regularized.semidual_conjugate_batch", None),
    ("barycenter.solve", "smoothot.barycenter.solve_barycenter", _barycenter_iterations),
    ("regularized.solve", "smoothot.flow.solve_regularized", _regularized_iterations),
    ("regularized.prox", "smoothot.regularized.prox_tv_conjugate", None),
    ("flow.jko_step", "smoothot.flow.jko_step", None),
    # the descent records are the Sinkhorn solves as bound in `flow`; the
    # record wrapper goes on second, so its span is the sinkhorn span's parent
    ("entropic.sinkhorn", "smoothot.flow.sinkhorn", _sinkhorn_extra),
    ("flow.descent_record", "smoothot.flow.sinkhorn", None),
    ("semidiscrete.solve", "smoothot.semidiscrete.solve_semidiscrete",
     _semidiscrete_iterations),
    ("semidiscrete.objective_grad", "smoothot.semidiscrete.semidiscrete_objective_grad",
     None),
    ("lp_oracle.exact_ot", "smoothot.lp_oracle.exact_ot", _pivots),
    ("cli.main", "smoothot.cli.main", None),
    ("fileio.read", "smoothot.fileio.read_pgm", None),
    ("fileio.read", "smoothot.fileio.read_vector", None),
    ("fileio.read", "smoothot.fileio.read_matrix", None),
    ("fileio.write", "smoothot.fileio.write_pgm", _written_bytes),
    ("fileio.write", "smoothot.fileio.write_vector", _written_bytes),
    ("fileio.write", "smoothot.fileio.write_matrix", _written_bytes),
)


def _resolve(dotted: str):
    """(owner, attribute) for a dotted target, importing modules on the way."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise ImportError(dotted)


class Tracer:
    """Records spans as [name, start, end, parent index, extra] lists."""

    def __init__(self):
        self.spans = []
        self.unresolved = []  # [span name, dotted target] pairs
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, extra=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS):
        """Wrap every resolvable target; remember the rest as unresolved."""
        for name, dotted, extra in targets:
            try:
                owner, attr = _resolve(dotted)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                original = None
            if not callable(original):
                if [name, dotted] not in self.unresolved:
                    self.unresolved.append([name, dotted])
                continue
            setattr(owner, attr, self.wrap(name, original, extra))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        """Hand over the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def append_spans(dst, spans):
    """Append spans recorded in another list, shifting their parent indices."""
    offset = len(dst)
    dst.extend([name, start, end, parent + offset if parent >= 0 else -1, extra]
               for name, start, end, parent, extra in spans)


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds, extras.

    Self time is a span's duration minus the durations of its direct
    children; the driver is single-threaded, so children never overlap.
    Also counts, per (parent name, child name), how often the child ran
    directly under such a parent.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "extras": []})
    direct = defaultdict(int)
    for index, (name, start, end, parent, extra) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[index]
        if extra is not None:
            entry["extras"].append(extra)
        if parent >= 0:
            direct[(spans[parent][0], name)] += 1
    return out, direct


def count_under(spans, ancestor, name):
    """Number of `name` spans that have an `ancestor` span above them."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count


def _ratio(num, den):
    return num / den if den else 0.0


_EMPTY = {"calls": 0, "total": 0.0, "self": 0.0, "extras": []}


def layer_metrics(round_spans, setup_spans, rounds, unresolved, child_spawns=()):
    """Per-layer metrics as {name: (value, unit)}, per traced round.

    round_spans: spans of the traced rounds; setup_spans: spans recorded while
    the inputs were built (GridCost2D construction is reported per build, over
    both); child_spawns: perf_counter just before each traced CLI child was
    started, in the order of the children's cli.main spans, for cli.startup_s.
    A metric is left out when a layer it reads has an unresolved binding.
    Layers that do no work on a workload report zero counts and zero time.
    """
    stats, direct = summarize(round_spans)
    everything = list(setup_spans)
    append_spans(everything, round_spans)
    with_setup, _ = summarize(everything)

    def s(name):
        return stats.get(name, _EMPTY)

    per = 1.0 / rounds
    groups = {}  # (layers read) -> {metric name: (value, unit)}

    for layer in ("core.grid_apply", "core.lse", "legendre.semidual_batch"):
        st = s(layer)
        groups[(layer,)] = {
            f"{layer}.calls": (st["calls"] * per, "count"),
            f"{layer}.self_s": (st["self"] * per, "s"),
            f"{layer}.us_per_call": (1e6 * _ratio(st["self"], st["calls"]), "us"),
        }

    builds = with_setup.get("core.gridcost", _EMPTY)
    groups[("core.gridcost",)] = {
        "core.gridcost.build_s": (_ratio(builds["total"], builds["calls"]), "s"),
        "core.gridcost.bytes_computed": (
            _ratio(sum(builds["extras"]), builds["calls"]), "B"),
    }

    sk, dual = s("entropic.sinkhorn"), s("entropic.dual_value")
    sweeps = sum(extra[0] for extra in sk["extras"])
    # the sweeps run from the first to the last kernel apply directly under a
    # sinkhorn span; the cost copy, the plan build and the closing dual_value
    # before and after them stay out of the sweep time
    loops = {}  # sinkhorn span index -> (first apply start, last apply end)
    for name, start, end, parent, _ in round_spans:
        if (name in ("core.grid_apply", "core.lse") and parent >= 0
                and round_spans[parent][0] == "entropic.sinkhorn"):
            loops[parent] = (loops.get(parent, (start,))[0], end)
    loop_time = sum(end - start for start, end in loops.values())
    groups[("entropic.sinkhorn",)] = {
        "entropic.sinkhorn.calls": (sk["calls"] * per, "count"),
        "entropic.sinkhorn.sweeps": (sweeps * per, "count"),
        "entropic.sinkhorn.self_s": (sk["self"] * per, "s"),
        "entropic.sinkhorn.plan_bytes": (
            sum(extra[1] for extra in sk["extras"]) * per, "B"),
    }
    applies = (direct[("entropic.sinkhorn", "core.grid_apply")]
               + direct[("entropic.sinkhorn", "core.lse")])
    groups[("entropic.sinkhorn", "core.grid_apply", "core.lse")] = {
        "entropic.sinkhorn.sweep_us": (1e6 * _ratio(loop_time, sweeps), "us"),
        "entropic.applies_per_sweep": (_ratio(applies, sweeps), "apply/sweep"),
    }
    groups[("entropic.dual_value",)] = {"entropic.dual_value.s": (dual["total"] * per, "s")}

    bary = s("barycenter.solve")
    bary_iters = sum(bary["extras"])
    bary_evals = count_under(round_spans, "barycenter.solve", "legendre.semidual_batch")
    groups[("barycenter.solve", "legendre.semidual_batch")] = {
        "barycenter.iterations": (bary_iters * per, "count"),
        "barycenter.evals": (bary_evals * per, "count"),
        "barycenter.evals_per_iter": (_ratio(bary_evals, bary_iters), "eval/iter"),
    }

    reg, prox = s("regularized.solve"), s("regularized.prox")
    reg_iters = sum(x for x in reg["extras"] if x is not None)
    reg_evals = count_under(round_spans, "regularized.solve", "legendre.semidual_batch")
    groups[("regularized.solve", "legendre.semidual_batch", "regularized.prox")] = {
        "regularized.iterations": (reg_iters * per, "count"),
        "regularized.smooth_evals": (reg_evals * per, "count"),
        "regularized.evals_per_iter": (_ratio(reg_evals, reg_iters), "eval/iter"),
        "regularized.self_s": (reg["self"] * per, "s"),
    }
    groups[("regularized.prox",)] = {
        "regularized.prox.calls": (prox["calls"] * per, "count"),
        "regularized.prox.self_s": (prox["self"] * per, "s"),
    }

    jko, record = s("flow.jko_step"), s("flow.descent_record")
    record_sweeps = sum(
        span[4][0] for span in round_spans
        if span[0] == "entropic.sinkhorn" and span[3] >= 0
        and round_spans[span[3]][0] == "flow.descent_record")
    groups[("flow.jko_step",)] = {
        "flow.jko_step.calls": (jko["calls"] * per, "count"),
        "flow.jko_step.s": (jko["total"] * per, "s"),
    }
    groups[("flow.descent_record", "entropic.sinkhorn")] = {
        "flow.descent_record.calls": (record["calls"] * per, "count"),
        "flow.descent_record.sweeps": (record_sweeps * per, "count"),
        "flow.descent_record.s": (record["total"] * per, "s"),
    }

    sd, grad = s("semidiscrete.solve"), s("semidiscrete.objective_grad")
    groups[("semidiscrete.solve",)] = {
        "semidiscrete.iterations": (
            sum(x for x in sd["extras"] if x is not None) * per, "count"),
    }
    groups[("semidiscrete.objective_grad",)] = {
        "semidiscrete.objective_grad_us": (1e6 * _ratio(grad["total"], grad["calls"]), "us"),
    }

    lp = s("lp_oracle.exact_ot")
    pivots = sum(lp["extras"])
    groups[("lp_oracle.exact_ot",)] = {
        "lp_oracle.pivots": (pivots * per, "count"),
        "lp_oracle.us_per_pivot": (1e6 * _ratio(lp["total"], pivots), "us"),
    }

    # from the parent's spawn to cli.main entry in the child: interpreter
    # start and import.  perf_counter is one system-wide monotonic clock on
    # Linux, so the two processes' stamps compare; the child's span dump after
    # cli.main returns stays out.
    entries = [span[1] for span in round_spans if span[0] == "cli.main"]
    startup = sum(entry - spawn for entry, spawn in zip(entries, child_spawns))
    groups[("cli.main",)] = {
        "cli.startup_s": (_ratio(startup, len(child_spawns)), "s"),
    }
    read, write = s("fileio.read"), s("fileio.write")
    groups[("fileio.read",)] = {"fileio.read_s": (read["total"] * per, "s")}
    groups[("fileio.write",)] = {
        "fileio.write_s": (write["total"] * per, "s"),
        "fileio.bytes_written": (sum(write["extras"]) * per, "B"),
    }

    missing = {name for name, _ in unresolved}
    return {name: value
            for layers, group in groups.items() if not missing.intersection(layers)
            for name, value in group.items()}
