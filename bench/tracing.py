"""Layer spans recorded from outside the program.

`Tracer.install` replaces functions of the symtop modules with timing
wrappers and `uninstall` puts the originals back.  A function is replaced
under every name a symtop module holds it by, because callers resolve it
there: `dynamics` imported `ham_vector_field` and `reorthonormalize` by name,
`reduction` imported `bracket`, `checks` imported `random_chart_point`, and
`run_suite` reads the suites from the `checks.SUITES` dict.

Spans are kept in memory as flat arrays (name, parent, start, end) and
summarised, or written out, when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name) for every traced plain function.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "write_csv", "cli.write_csv"),
    ("dynamics", "simulate", "dynamics.simulate"),
    ("dynamics", "_repair", "dynamics.repair"),
    ("dynamics", "_monitors", "dynamics.monitors"),
    ("dynamics", "commutation_residual", "dynamics.commutation_residual"),
    ("poisson", "ham_vector_field", "poisson.ham_vector_field"),
    ("poisson", "structure_matrix", "poisson.structure_matrix"),
    ("poisson", "bracket", "poisson.bracket"),
    ("poisson", "jacobi_residual_all", "poisson.jacobi_residual_all"),
    ("poisson", "fd_gradient", "poisson.fd_gradient"),
    ("algebra3", "reorthonormalize", "algebra3.reorthonormalize"),
    ("algebra3", "exp_so3", "algebra3.exp_so3"),
    ("reduction", "poisson_map_residual", "reduction.poisson_map_residual"),
    ("reduction", "chart_projection", "reduction.chart_projection"),
    ("orbits", "coadjoint", "orbits.coadjoint"),
    ("orbits", "same_orbit_witness", "orbits.same_orbit_witness"),
    ("orbits", "witness_residual", "orbits.witness_residual"),
    ("phase", "random_chart_point", "phase.random_chart_point"),
    ("checks", "oracle_structure_matrix", "checks.oracle_structure_matrix"),
)

# Potential classes of symtop.dynamics and the label of their gradient spans.
POTENTIAL_KINDS = {
    "ZeroPotential": "zero",
    "LinearGravity": "gravity",
    "DipolePotential": "dipole",
    "SumPotential": "sum",
}
STEP_KINDS = ("full.rk4_repair", "reduced.rk4_repair", "reduced.rk4")
_CHART = {"CotSE3": "full", "Reduced": "reduced"}


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name, after=None):
        """Timing wrapper around fn.  `name` is a span name or a function of
        the call's arguments that returns one; `after(args, kwargs, result)`
        runs outside the span to update counters."""
        fixed = None if callable(name) else self._id(name)
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end)
            name_id.append(fixed if fixed is not None else self._id(name(args, kwargs)))
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "symtop" or mod_name.startswith("symtop.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced layer of the already imported symtop package."""
        mods = {name: sys.modules[f"symtop.{name}"] for name in
                ("algebra3", "checks", "cli", "dynamics", "orbits", "phase", "poisson", "reduction")}
        hooks = {
            "poisson.structure_matrix": lambda a, k, r: self.count(
                "poisson.structure_matrix.bytes", 8 * (r.shape[0] ** 2 + r.shape[0] ** 3)),
            "cli.write_csv": self._after_write_csv,
        }
        for mod, attr, span in FUNCTIONS:
            original = getattr(mods[mod], attr)
            self._replace_everywhere(original, self.wrap(original, span, hooks.get(span)))

        step = mods["dynamics"].step

        def step_name(args, kwargs):
            space = args[0] if args else kwargs["space"]
            method = args[4] if len(args) > 4 else kwargs.get("method", "rk4_repair")
            return f"dynamics.step.{_CHART.get(space.value, space.value)}.{method}"

        self._replace_everywhere(step, self.wrap(step, step_name))

        cls = mods["poisson"].ScalarField
        self._patch(cls, "gradient", self.wrap(cls.gradient, "poisson.gradient"))
        for cls_name, kind in POTENTIAL_KINDS.items():
            cls = getattr(mods["dynamics"], cls_name)
            for meth in ("grad_x", "grad_nu"):
                self._patch(cls, meth, self.wrap(getattr(cls, meth), f"dynamics.potential.{kind}.grad"))

        suites = mods["checks"].SUITES
        for suite, fn in list(suites.items()):
            self._patch_item(suites, suite, self.wrap(
                fn, "checks." + suite.replace("-", "_"),
                lambda a, k, r: self.count("checks.samples", sum(c.samples for c in r))))

    def _after_write_csv(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        traj = args[1] if len(args) > 1 else kwargs["traj"]
        self.count("cli.write_csv.rows", len(traj))
        self.count("cli.write_csv.bytes", os.path.getsize(path))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _patch_item(self, mapping: dict, key: str, wrapper) -> None:
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, object]]:
        """Per span name: calls, total seconds, self seconds and durations."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = ids == i
            out[name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
                "durations": dur[sel],
            }
        return out

    def save(self, path: str) -> None:
        """Write every span (name, parent index, start, end) to an .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
