"""In-memory span tracing of the package's public functions, from outside.

`Tracer.install` replaces each traced function at every name its callers
look it up through: module globals in every ``iwasawa_kernel`` module that
holds the same object (so ``cli.ideal_closure`` is wrapped together with
``algebra.ideal_closure``), and class attributes for methods.  Each call
records one span ``(name, start, end, parent)``; spans stay in memory until
the caller reads them.  `Tracer.restore` puts every original object back.

`layer_metrics` turns the spans of one traced pass into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

_clock = time.perf_counter

# (span name, module, qualified attribute): one entry per traced function.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("linalg.howell", "linalg", "howell"),
    ("charts.coordinates", "charts", "GroupChart.coordinates"),
    ("charts.builtin_chart", "charts", "builtin_chart"),
    ("charts.chart_from_matrices", "charts", "chart_from_matrices"),
    ("algebra.build_quotient", "algebra", "build_quotient"),
    ("algebra.mult_table", "algebra", "QuotientGroup.mult_table"),
    ("algebra.ideal_closure", "algebra", "ideal_closure"),
    ("algebra.convolve", "algebra", "AlgebraElement.__mul__"),
    ("algebra.lazard_value", "algebra", "lazard_value"),
    ("control.is_controlled", "control", "is_controlled"),
    ("control.control_lattice", "control", "control_lattice"),
    ("control.is_faithful", "control", "is_faithful"),
    ("control.j_ideal_rank", "control", "j_ideal_rank"),
    ("control.controller_estimate", "control", "controller_estimate"),
    ("mahler.aut_mahler_coeffs", "mahler", "aut_mahler_coeffs"),
    ("mahler.is_mahler_aut", "mahler", "is_mahler_aut"),
    ("mahler.expand_aut", "mahler", "expand_aut"),
    ("mahler.verify_homomorphism", "mahler", "AutomorphismSpec.verify_homomorphism"),
    ("mahler.q_growth", "mahler", "q_growth"),
    ("nilpotent.validate", "nilpotent", "validate"),
    ("nilpotent.upper_central_series", "nilpotent", "upper_central_series"),
    ("nilpotent.second_centre_centralizer", "nilpotent", "second_centre_centralizer"),
    ("presentation.parse", "presentation", "parse_presentation"),
    ("cli.main", "cli", "main"),
)

PACKAGE = "iwasawa_kernel"


def _package_modules():
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


class Tracer:
    """Wraps the functions in `TARGETS` and records one span per call."""

    def __init__(self):
        # span: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        # per span index: extra counts (howell shapes, table builds, ...)
        self.counts: Dict[int, Dict[str, float]] = {}
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            if name == "algebra.mult_table":
                built_before = args[0]._mult_table is not None
            elif name == "algebra.ideal_closure":
                # callers pass a list; never consume a one-shot iterator here
                counts[idx] = {"rows_in": len(args[0]) if hasattr(args[0], "__len__") else 0}
            span[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _clock()
                stack.pop()
            if name == "linalg.howell":
                rows, cols = args[0].shape
                counts[idx] = {
                    "rows_in": rows, "cells_in": rows * cols, "rows_out": result.shape[0],
                }
            elif name == "algebra.mult_table":
                counts[idx] = {"builds": 0 if built_before else 1}
            return result

        return traced

    def install(self) -> None:
        mods = _package_modules()
        for name, modname, attr in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{modname}")
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(owner, clsname)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, orig, wrapped)

    def _set(self, owner, key: str, orig, new) -> None:
        self._undo.append((owner, key, orig))
        setattr(owner, key, new)

    def restore(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)


def self_times(spans: List[list]) -> List[float]:
    """Per span: its duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans: List[list], counts: Dict[int, Dict[str, float]]) -> Dict[str, float]:
    """Per-layer counts and times from the spans of one traced pass.

    ``*.calls`` count spans, ``*.self_s`` sum self times, and the other
    ``*.s`` / ``*_s`` entries sum the inclusive time of the outermost span of
    each name (a span nested under another of its own name is not counted
    twice).
    """
    selfs = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    incl: Dict[str, float] = defaultdict(float)
    extra: Dict[str, float] = defaultdict(float)
    max_cells = 0
    for idx, (span, st) in enumerate(zip(spans, selfs)):
        name = span[0]
        calls[name] += 1
        self_s[name] += st
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            incl[name] += span[2] - span[1]
        for key, val in counts.get(idx, {}).items():
            extra[f"{name}.{key}"] += val
        if name == "linalg.howell":
            max_cells = max(max_cells, counts[idx]["cells_in"])
    rows_in = extra["linalg.howell.rows_in"]
    return {
        "linalg.howell.calls": calls["linalg.howell"],
        "linalg.howell.self_s": self_s["linalg.howell"],
        "linalg.howell.cells_in": extra["linalg.howell.cells_in"],
        "linalg.howell.max_cells": max_cells,
        "linalg.howell.useful_ratio": extra["linalg.howell.rows_out"] / rows_in if rows_in else 0.0,
        "charts.coordinates.calls": calls["charts.coordinates"],
        "charts.coordinates.self_s": self_s["charts.coordinates"],
        "charts.build_s": incl["charts.builtin_chart"] + incl["charts.chart_from_matrices"],
        "algebra.build_quotient.s": incl["algebra.build_quotient"],
        "algebra.mult_table.builds": extra["algebra.mult_table.builds"],
        "algebra.mult_table.self_s": self_s["algebra.mult_table"],
        "algebra.ideal_closure.calls": calls["algebra.ideal_closure"],
        "algebra.ideal_closure.self_s": self_s["algebra.ideal_closure"],
        "algebra.ideal_closure.rows_in": extra["algebra.ideal_closure.rows_in"],
        "algebra.convolve.calls": calls["algebra.convolve"],
        "algebra.convolve.self_s": self_s["algebra.convolve"],
        "algebra.lazard_value.calls": calls["algebra.lazard_value"],
        "algebra.lazard_value.self_s": self_s["algebra.lazard_value"],
        "control.is_controlled.calls": calls["control.is_controlled"],
        "control.is_controlled.self_s": self_s["control.is_controlled"],
        "control.control_lattice.s": incl["control.control_lattice"],
        "control.post_s": incl["control.is_faithful"] + incl["control.j_ideal_rank"]
        + incl["control.controller_estimate"],
        "mahler.aut_mahler_coeffs.calls": calls["mahler.aut_mahler_coeffs"],
        "mahler.aut_mahler_coeffs.self_s": self_s["mahler.aut_mahler_coeffs"],
        "mahler.is_mahler_aut.self_s": self_s["mahler.is_mahler_aut"],
        "mahler.expand_aut.calls": calls["mahler.expand_aut"],
        "mahler.expand_aut.self_s": self_s["mahler.expand_aut"],
        "mahler.verify_homomorphism.s": incl["mahler.verify_homomorphism"],
        "mahler.q_growth.self_s": self_s["mahler.q_growth"],
        "nilpotent.validate.s": incl["nilpotent.validate"],
        "nilpotent.ucs.s": incl["nilpotent.upper_central_series"]
        + incl["nilpotent.second_centre_centralizer"],
        "presentation.parse.calls": calls["presentation.parse"],
        "presentation.parse_s": incl["presentation.parse"],
        "cli.main.s": incl["cli.main"],
    }
