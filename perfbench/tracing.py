"""Outside-in tracing of the anisolap layers.

``Tracer.install`` replaces each traced public function by a wrapper at every
module of the package that binds it by name (``from .mesh import build_mesh``
makes ``anisolap.cli.build_mesh`` a binding site of its own), plus
``Mesh.from_arrays`` on the class.  Each wrapped call records a span (name,
start, end, parent) kept in memory; ``Tracer.metrics`` turns the spans into
the per-layer metrics after the job.  No file of the package is changed.

A layer's time is the summed duration of its outermost spans, so a span nested
in another span of the same name (``shear_y`` recursing, ``lambda_min`` inside
a verify suite) is not counted twice.  Times are inclusive of child spans of
other layers, except ``solver.solve_self_s``, which subtracts the LU spans
opened inside each solve.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import time

# (defining module, attribute, span name).  A target missing from the code is
# skipped; the per-workload reach check in run.py then reports any layer that
# records no calls.
TARGETS = [
    ("anisolap.geometry", "rotate", "geometry"),
    ("anisolap.geometry", "shear_y", "geometry"),
    ("anisolap.geometry", "polygonize", "geometry"),
    ("anisolap.mesh", "build_mesh", "mesh.build"),
    ("anisolap.mesh", "triangulate", "mesh.triangulate"),
    ("anisolap.mesh", "refine", "mesh.refine"),
    ("anisolap.solver", "solve_p", "solver.solve"),
    ("anisolap.solver", "splu", "solver.lu"),
    ("anisolap.solver", "directional_constant", "solver.directional"),
    ("anisolap.optimizer", "lambda_min", "optimizer.lambda_min"),
    ("anisolap.optimizer", "profile_value", "optimizer.profile"),
    ("anisolap.optimizer", "verify_rigidity", "optimizer.verify_rigidity"),
    ("anisolap.optimizer", "verify_quantitative", "optimizer.verify_quantitative"),
    ("anisolap.optimizer", "verify_Q0_limit", "optimizer.verify_relaxation"),
    ("anisolap.optimizer", "verify_disk", "optimizer.verify_disk"),
    ("anisolap.optimizer", "verify_rectangle", "optimizer.verify_rectangle"),
    ("anisolap.cli", "main", "cli.main"),
    ("anisolap.cli", "_write_report", "cli.write"),
    ("anisolap.cli", "_atomic_write", "cli.write"),
    ("anisolap.mesh", "write_nodal_values_csv", "cli.write"),
]

# Counted but not timed: one call per line-search trial, too many for spans.
COUNTED = [("anisolap.solver", "pnorm_p", "solver.trial_points")]

def _package_modules():
    import anisolap

    mods = [anisolap]
    for info in pkgutil.iter_modules(anisolap.__path__, "anisolap."):
        mods.append(importlib.import_module(info.name))
    return mods


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.failures = 0
        self.iterations = 0
        self.grid_points = 0
        self.meshes: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding site in the package."""
        from anisolap.mesh import Mesh

        mods = _package_modules()
        originals = []
        targets = [(t, self._span) for t in TARGETS] + [(t, self._counter) for t in COUNTED]
        for (modname, attr, name), wrap in targets:
            fn = getattr(importlib.import_module(modname), attr, None)
            if fn is None:
                continue
            wrapper = wrap(name, fn)
            for mod in mods:
                if getattr(mod, attr, None) is fn:
                    setattr(mod, attr, wrapper)
            originals.append(fn)

        raw = Mesh.__dict__["from_arrays"].__func__
        Mesh.from_arrays = classmethod(self._span("mesh.from_arrays", raw))

        # Self-check: an original reachable under any name (an aliased import
        # included) would let calls through untraced.
        for mod in mods:
            for attr, value in vars(mod).items():
                if any(value is fn for fn in originals):
                    raise RuntimeError(f"unwrapped binding {mod.__name__}.{attr}")

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn):
        after = self._after_hook(name, fn)
        counts_failure = name in ("solver.solve", "solver.directional")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if counts_failure:
                    self.failures += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapper

    def _after_hook(self, name, fn):
        """What a span records from a call's result or arguments, if any."""
        if name == "mesh.build":
            def after(mesh, _args, _kwargs):
                self.meshes.append(mesh)
        elif name == "solver.solve":
            def after(result, _args, _kwargs):
                self.iterations += int(result.iterations)
        elif name == "optimizer.lambda_min":
            signature = inspect.signature(fn)

            def after(_result, args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.grid_points += int(bound.arguments["grid_n"])
        else:
            after = None
        return after

    # -- reduction ---------------------------------------------------------

    def _outermost(self, name: str) -> list[int]:
        """Indices of spans named ``name`` with no ancestor of the same name."""
        out = []
        for i, span in enumerate(self.spans):
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(i)
        return out

    def _duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name) + self.counts.get(name, 0)

    def seconds(self, name: str) -> float:
        return sum(self._duration(i) for i in self._outermost(name))

    def _solve_self_seconds(self) -> float:
        solves = set(self._outermost("solver.solve"))
        total = sum(self._duration(i) for i in solves)
        for i, span in enumerate(self.spans):
            if span[0] != "solver.lu":
                continue
            parent = span[3]
            while parent >= 0 and parent not in solves:
                parent = self.spans[parent][3]
            if parent >= 0:
                total -= self._duration(i)
        return total

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (``trace.overhead_s``
        is filled in by the caller, which also times untraced jobs)."""
        from anisolap.mesh import min_angle

        iterations = self.iterations
        trials = self.calls("solver.trial_points")
        m = {
            "geometry.calls": self.calls("geometry"),
            "geometry.s": self.seconds("geometry"),
            "mesh.build_calls": self.calls("mesh.build"),
            "mesh.build_s": self.seconds("mesh.build"),
            "mesh.triangulate_s": self.seconds("mesh.triangulate"),
            "mesh.refine_s": self.seconds("mesh.refine"),
            "mesh.from_arrays_s": self.seconds("mesh.from_arrays"),
            "mesh.nodes_max": max((mesh.n_nodes for mesh in self.meshes), default=0),
            "mesh.min_angle_deg": min(
                (math.degrees(min_angle(mesh)) for mesh in self.meshes), default=0.0
            ),
            "solver.solve_calls": self.calls("solver.solve"),
            "solver.solve_s": self.seconds("solver.solve"),
            "solver.solve_self_s": self._solve_self_seconds(),
            "solver.lu_calls": self.calls("solver.lu"),
            "solver.lu_s": self.seconds("solver.lu"),
            "solver.iterations": iterations,
            "solver.trial_points": trials,
            "solver.trials_per_iter": trials / iterations if iterations else 0.0,
            "solver.directional_calls": self.calls("solver.directional"),
            "solver.directional_s": self.seconds("solver.directional"),
            "solver.failures": self.failures,
            "optimizer.lambda_min_calls": self.calls("optimizer.lambda_min"),
            "optimizer.lambda_min_s": self.seconds("optimizer.lambda_min"),
            "optimizer.profile_calls": self.calls("optimizer.profile"),
            "optimizer.profile_s": self.seconds("optimizer.profile"),
            "optimizer.golden_evals": self.calls("optimizer.profile") - self.grid_points,
            "cli.main_s": self.seconds("cli.main"),
            "cli.write_s": self.seconds("cli.write"),
        }
        for suite in ("rigidity", "quantitative", "relaxation", "disk", "rectangle"):
            m[f"optimizer.verify_{suite}_s"] = self.seconds(f"optimizer.verify_{suite}")
        return m

    def call_counts(self) -> dict[str, int]:
        """Calls per span or counter name, for the reach check."""
        names = {s[0] for s in self.spans} | set(self.counts)
        return {n: self.calls(n) for n in sorted(names)}
