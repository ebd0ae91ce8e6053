"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public entry points of each ``vone`` layer. A
module-level function is replaced in every ``vone.*`` namespace that bound
it (``from .exactmath import smith_normal_form`` makes a separate binding in
each importing module), and a method is replaced on its class under every
name that refers to it (``__rmul__ = __mul__``). ``uninstall`` puts the
originals back.

Spans are aggregated as they close, per span key: the number of calls and
the self time, which is the span's duration minus the time covered by the
spans it directly encloses. Keeping every span would cost hundreds of
megabytes on the dicyclic path, where one certificate makes over a million
cyclotomic products.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

TRACE_MARK = "PERFBENCH-TRACE "  # prefix of the span totals a traced CLI child prints
LAYERS = ("groups", "exactmath", "burnside", "repring", "powerop", "jtheory", "certify", "cli")


def _count_cells(tracer, args, result):
    mat = args[0]
    tracer.counters["exactmath.snf_cells"] += mat.rows * mat.cols


def _count_verdict(tracer, args, result):
    tracer.counters["certify.verdict." + result.verdict.replace("-", "_")] += 1


# (layer, module, function or Class.method, span key, hook run on the result)
TARGETS = (
    ("groups", "vone.groups", "build_group", "build", None),
    ("groups", "vone.groups", "GroupModel.subgroup_classes", "subgroup_classes", None),
    ("groups", "vone.groups", "table_of_marks", "table_of_marks", None),
    ("groups", "vone.groups", "GroupModel.weyl_data", "weyl_data", None),
    ("groups", "vone.groups", "GroupModel.class_of_label", "lookup", None),
    ("groups", "vone.groups", "GroupModel.class_index_of", "lookup", None),
    ("groups", "vone.groups", "GroupModel.element_conjugacy_classes", "lookup", None),
    ("exactmath", "vone.exactmath", "smith_normal_form", "snf", _count_cells),
    ("exactmath", "vone.exactmath", "p_local_in_image", "p_local_in_image", None),
    ("exactmath", "vone.exactmath", "kernel_basis", "kernel_basis", None),
    ("exactmath", "vone.exactmath", "cokernel_data", "cokernel", None),
    ("exactmath", "vone.exactmath", "CyclotomicElement.__mul__", "cyclotomic_mul", None),
    ("exactmath", "vone.exactmath", "CyclotomicElement.__pow__", "cyclotomic_other", None),
    ("exactmath", "vone.exactmath", "CyclotomicElement.__add__", "cyclotomic_other", None),
    ("exactmath", "vone.exactmath", "bernoulli", "bernoulli", None),
    ("burnside", "vone.burnside", "bmul", "bmul", None),
    ("burnside", "vone.burnside", "marks", "marks", None),
    ("burnside", "vone.burnside", "from_marks", "from_marks", None),
    ("repring", "vone.repring", "VirtualRep.__mul__", "rep_mul", None),
    ("repring", "vone.repring", "VirtualRep.__pow__", "rep_pow", None),
    ("repring", "vone.repring", "character_table", "character_table", None),
    ("repring", "vone.repring", "CharacterTable.decompose", "decompose", None),
    ("repring", "vone.repring", "eigenvalue_multiplicities", "eigenvalue", None),
    ("repring", "vone.repring", "linearize", "linearize", None),
    ("repring", "vone.repring", "adams", "adams", None),
    ("repring", "vone.repring", "annihilator_and_quotient", "ideal", None),
    ("powerop", "vone.powerop", "sq1_gset", "sq1", None),
    ("jtheory", "vone.jtheory", "theta", "theta", None),
    ("jtheory", "vone.jtheory", "verify_adams_bott", "adams_bott", None),
    ("jtheory", "vone.jtheory", "verify_bott_fixed_mod_X", "fixed_mod_x", None),
    ("certify", "vone.certify", "certify_self_map", "certify", _count_verdict),
    ("cli", "vone.cli", "run", "run", None),
    ("cli", "vone.cli", "parse_expr", "parse", None),
    ("cli", "vone.cli", "parse_gset", "parse", None),
    ("cli", "vone.cli", "parse_rep", "parse", None),
)

COUNTERS = (
    "exactmath.snf_cells", "powerop.pairs", "cli.import_ms",
    "certify.verdict.certified", "certify.verdict.hypothesis_failed",
    "certify.verdict.step_failed",
)


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = {}  # "layer.key" -> [calls, self seconds]
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[float] = []
        self._installed: list[tuple] = []

    def _wrap(self, fn, key: str, hook):
        rec = self.totals.setdefault(key, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                rec[0] += 1
                rec[1] += took - stack.pop()
                if stack:
                    stack[-1] += took
            if hook is not None:
                hook(tracer, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "vone" or name.startswith("vone.")]
        for layer, modname, path, key, hook in TARGETS:
            if modname not in sys.modules:
                continue  # e.g. vone.cli in a library workload
            mod = importlib.import_module(modname)
            owner, _, attr = path.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                wrapper = self._wrap(original, f"{layer}.{key}", hook)
                for name, value in list(vars(cls).items()):
                    if value is original:
                        setattr(cls, name, wrapper)
                        self._installed.append((cls, name, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, f"{layer}.{key}", hook)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        self._installed.append((m, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def reset(self) -> None:
        for rec in self.totals.values():
            rec[0], rec[1] = 0, 0.0
        for key in self.counters:
            self.counters[key] = 0

    def snapshot(self) -> dict:
        """Calls and self milliseconds per span key, plus the counters."""
        out = {key: [rec[0], rec[1] * 1000.0] for key, rec in self.totals.items()}
        return {"spans": out, "counters": dict(self.counters)}


def merge(snapshots: list) -> dict:
    """Sum snapshots, e.g. those of the cold CLI processes of one round."""
    spans: dict = {}
    counters: dict = dict.fromkeys(COUNTERS, 0)
    for snap in snapshots:
        for key, (calls, ms) in snap["spans"].items():
            acc = spans.setdefault(key, [0, 0.0])
            acc[0] += calls
            acc[1] += ms
        for key, value in snap["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"spans": spans, "counters": counters}


def _calls(snap, *keys) -> int:
    return sum(snap["spans"].get(k, [0, 0.0])[0] for k in keys)


def _ms(snap, *keys) -> float:
    return sum(snap["spans"].get(k, [0, 0.0])[1] for k in keys)


def _layer(snap, layer) -> list:
    return [k for k in snap["spans"] if k.startswith(layer + ".")]


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics of one traced round, by metric name."""
    c = snap["counters"]
    m = {
        "groups.build_ms": _ms(snap, "groups.build"),
        "groups.subgroup_classes_ms": _ms(snap, "groups.subgroup_classes"),
        "groups.table_of_marks_ms": _ms(snap, "groups.table_of_marks"),
        "groups.weyl_data_ms": _ms(snap, "groups.weyl_data"),
        "groups.calls": _calls(snap, *_layer(snap, "groups")),
        "exactmath.snf_calls": _calls(snap, "exactmath.snf"),
        "exactmath.snf_ms": _ms(snap, "exactmath.snf"),
        "exactmath.snf_cells": c["exactmath.snf_cells"],
        "exactmath.p_local_in_image_ms": _ms(snap, "exactmath.p_local_in_image"),
        "exactmath.kernel_basis_ms": _ms(snap, "exactmath.kernel_basis"),
        "exactmath.cokernel_ms": _ms(snap, "exactmath.cokernel"),
        "exactmath.cyclotomic_mul_calls": _calls(snap, "exactmath.cyclotomic_mul"),
        "exactmath.cyclotomic_ms": _ms(snap, "exactmath.cyclotomic_mul", "exactmath.cyclotomic_other"),
        "exactmath.bernoulli_ms": _ms(snap, "exactmath.bernoulli"),
        "repring.rep_mul_calls": _calls(snap, "repring.rep_mul"),
        "repring.rep_mul_ms": _ms(snap, "repring.rep_mul", "repring.rep_pow"),
        "repring.character_table_ms": _ms(snap, "repring.character_table"),
        "repring.decompose_ms": _ms(snap, "repring.decompose"),
        "repring.eigenvalue_ms": _ms(snap, "repring.eigenvalue"),
        "repring.linearize_ms": _ms(snap, "repring.linearize"),
        "repring.adams_ms": _ms(snap, "repring.adams"),
        "repring.ideal_ms": _ms(snap, "repring.ideal"),
        "jtheory.theta_calls": _calls(snap, "jtheory.theta"),
        "jtheory.theta_ms": _ms(snap, "jtheory.theta"),
        "jtheory.adams_bott_ms": _ms(snap, "jtheory.adams_bott"),
        "jtheory.fixed_mod_x_ms": _ms(snap, "jtheory.fixed_mod_x"),
        "burnside.bmul_calls": _calls(snap, "burnside.bmul"),
        "burnside.bmul_ms": _ms(snap, "burnside.bmul"),
        "burnside.marks_ms": _ms(snap, "burnside.marks"),
        "burnside.from_marks_ms": _ms(snap, "burnside.from_marks"),
        "powerop.sq1_calls": _calls(snap, "powerop.sq1"),
        "powerop.sq1_ms": _ms(snap, "powerop.sq1"),
        "powerop.pairs": c["powerop.pairs"],
        "certify.calls": _calls(snap, "certify.certify"),
        "certify.self_ms": _ms(snap, "certify.certify"),
        "certify.verdict.certified": c["certify.verdict.certified"],
        "certify.verdict.hypothesis_failed": c["certify.verdict.hypothesis_failed"],
        "certify.verdict.step_failed": c["certify.verdict.step_failed"],
        "cli.import_ms": c["cli.import_ms"],
        "cli.run_ms": _ms(snap, "cli.run"),
        "cli.parse_ms": _ms(snap, "cli.parse"),
    }
    for layer in LAYERS:
        if layer != "certify":
            m[f"{layer}.self_ms"] = _ms(snap, *_layer(snap, layer))
    return m


def layer_loaded(snap: dict, layer: str) -> bool:
    keys = _layer(snap, layer)
    return _calls(snap, *keys) > 0 and _ms(snap, *keys) > 0


def median_metrics(rounds: list) -> dict:
    """Counts from the first traced round (every traced round does the same
    work), times as the median over the traced rounds."""
    per_round = [layer_metrics(s) for s in rounds]
    out = {}
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        out[name] = statistics.median(values) if name.endswith("_ms") else values[0]
    return out
