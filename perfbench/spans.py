"""Span tracing of the program's public functions, from outside the program.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the
wrapper in every ``jordannum`` module that holds the original under that
name, so calls made through ``from .algebra import ...`` bindings are seen
too; ``Element`` is traced through its ``__init__``. ``uninstall`` puts the
originals back. A span is (name, start, end, parent), kept in flat arrays
in memory; self time is a span's duration minus that of its direct
children, which nest inside it because the benchmark runs on one thread.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

TRACED = {
    "algebra": ("Element", "jordan_mul", "mult_operator", "U_operator",
                "U_pair_operator", "jordan_power", "from_descriptor"),
    "spectral": ("jordan_spectrum", "inverse", "resolvent", "is_invertible",
                 "in_unbounded_component"),
    "calculus": ("exp", "log", "power_mu", "cos", "holomorphic_calculus",
                 "derivative_at_zero"),
    "trotter": ("convergence_report", "trotter_jordan", "trotter_U",
                "trotter_U_pair", "general_trotter"),
    "functionals": ("verify_character_theorem", "reconstruct_psi",
                    "linear_extension", "is_spectral_valued",
                    "is_U_multiplicative", "principal_component_sample"),
    "cli": ("run",),
}
NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
_HOLO, _RESOLVENT = "calculus.holomorphic_calculus", "spectral.resolvent"
_PSI, _EXP = "functionals.reconstruct_psi", "calculus.exp"
_SPECTRUM = "spectral.jordan_spectrum"


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore = []
        self.spectrum_points = 0
        # distinct contour nodes passed to resolvent, per holomorphic_calculus span
        self.holo_nodes = {}

    def _wrap(self, name, fn):
        nid = NAMES.index(name)
        name_arr, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_arr)
            name_arr.append(nid)
            parent.append(stack[-1])
            start.append(perf_counter())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end[idx] = perf_counter()
            if name == _SPECTRUM:
                self.spectrum_points += len(result.points)
            elif name == _RESOLVENT and NAMES[name_arr[stack[-1]]] == _HOLO:
                self.holo_nodes.setdefault(stack[-1], set()).add(complex(args[1]))
            return result
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "jordannum" or key.startswith("jordannum.")]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"jordannum.{mod_name}"]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                original = getattr(home, fn_name)
                if fn_name == "Element":
                    self._restore.append((original, "__init__", original.__init__))
                    original.__init__ = self._wrap(name, original.__init__)
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        self._restore.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def layer_metrics(self) -> dict:
        """calls and self_s per traced function, plus the derived counters."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(name, minlength=len(NAMES))
        self_s = np.bincount(name, weights=dur - child, minlength=len(NAMES))
        out = {}
        for i, full in enumerate(NAMES):
            out[f"{full}.calls"] = (int(calls[i]), "count")
            out[f"{full}.self_s"] = (float(self_s[i]), "s")
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        resolvents = int(np.sum((name == NAMES.index(_RESOLVENT))
                                & (parent_name == NAMES.index(_HOLO))))
        nodes = sum(len(s) for s in self.holo_nodes.values())
        out["calculus.holomorphic_calculus.resolvents"] = (resolvents, "count")
        out["calculus.holomorphic_calculus.node_yield"] = (
            nodes / resolvents if resolvents else 0.0, "ratio")
        out["spectral.jordan_spectrum.points"] = (self.spectrum_points, "count")
        out["functionals.reconstruct_psi.exp_calls"] = (
            int(np.sum((name == NAMES.index(_EXP))
                       & (parent_name == NAMES.index(_PSI)))), "count")
        return out

    def save(self, path):
        """Write the spans: name table, name ids, parents, starts, ends."""
        np.savez(path, names=np.array(NAMES),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
