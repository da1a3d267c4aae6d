"""Spans around the package's public functions, recorded from outside.

:meth:`Tracer.install` replaces each traced function or method with a
wrapper at every binding of the name: the defining module, each
``from .x import name`` copy in another ``betweenu`` module, and the
package namespace.  :meth:`Tracer.uninstall` puts every original object
back.  Each wrapped call records a span (name, start, end, parent span,
job id) in flat in-memory arrays; self time is a span's duration minus
the time its direct children cover, accumulated as spans close.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: (module, attribute) of every traced function, by metric prefix.
FUNCTIONS = {
    "engine.solve_utility_many": ("engine", "solve_utility_many"),
    "engine.implicit_utility_many": ("engine", "implicit_utility_many"),
    "engine.utility_fixed_point": ("engine", "utility_fixed_point"),
    "engine.implicit_utility": ("engine", "implicit_utility"),
    "engine.solve_mixing": ("engine", "solve_mixing"),
    "engine.solve_utility": ("engine", "solve_utility"),
    "engine.context_for": ("engine", "context_for"),
    "engine.chord_point": ("engine", "chord_point"),
    "simplex.mix": ("simplex", "mix"),
    "axioms.check_rationality": ("axioms", "check_rationality"),
    "axioms.check_nondegeneracy": ("axioms", "check_nondegeneracy"),
    "axioms.check_continuity": ("axioms", "check_continuity"),
    "axioms.check_betweenness": ("axioms", "check_betweenness"),
    "axioms.check_mixing_neutrality": ("axioms", "check_mixing_neutrality"),
    "separation.contour_samples": ("separation", "contour_samples"),
    "separation.separate": ("separation", "separate"),
    "separation.verify_separation": ("separation", "verify_separation"),
    "separation.cross_polytope_consistency": ("separation", "cross_polytope_consistency"),
    "separation.linprog": ("separation", "linprog"),
    "triangle.trace_level_curves": ("triangle", "trace_level_curves"),
    "triangle.collinearity_residual": ("triangle", "collinearity_residual"),
    "triangle.render_svg": ("triangle", "render_svg"),
}

#: (module, class, method) of every traced method, by metric prefix.  Both
#: compare implementations report as one ``models.compare``.
METHODS = (
    ("models.values", "models", "ValueModel", "values"),
    ("models.value", "models", "ValueModel", "value"),
    ("models.compare", "models", "ValueModel", "compare"),
    ("models.compare", "models", "BlackBoxOracle", "compare"),
    ("simplex.Polytope.contains", "simplex", "Polytope", "contains"),
)

#: Functions whose first batch argument's length is reported as ``rows``.
ROWS_ARG = {
    "models.values": 1,
    "engine.solve_utility_many": 1,
    "engine.implicit_utility_many": 1,
}

#: Functions whose per-job distinct arguments give a ``unique_ratio``.
UNIQUE_KEY = {
    "models.value": lambda args: args[1].probs,
    "engine.chord_point": lambda args: float(args[1]),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [package] + [
            mod
            for name, mod in sorted(sys.modules.items())
            if name.startswith(package.__name__ + ".") and mod is not None
        ]
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_job = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._covered: list[float] = []
        self.job = -1
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.rows: dict[str, int] = {}
        self.distinct: dict[str, int] = {name: 0 for name in UNIQUE_KEY}
        self._seen: dict[str, set] = {name: set() for name in UNIQUE_KEY}
        self.lotteries_created = 0
        self.bindings: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def start_job(self, job_id: int) -> None:
        """Close the previous job's distinct-argument sets and open a new job."""
        for name, seen in self._seen.items():
            self.distinct[name] += len(seen)
            seen.clear()
        self.job = job_id

    def wrap(self, name: str, fn):
        nid = self._id(name)
        rows_at = ROWS_ARG.get(name)
        unique = UNIQUE_KEY.get(name)
        seen = self._seen.get(name)
        stack, covered = self._stack, self._covered
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rows_at is not None:
                self.rows[name] = self.rows.get(name, 0) + len(args[rows_at])
            if unique is not None:
                seen.add(unique(args))
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_job.append(self.job)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0.0)
            stack.append(idx)
            covered.append(0.0)
            start = clock()
            self.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self.span_end[idx] = end
                stack.pop()
                duration = end - start
                self.calls[nid] += 1
                self.total[nid] += duration
                self.self_time[nid] += duration - covered.pop()
                if covered:
                    covered[-1] += duration

        return wrapper

    def _rebind(self, original, replacement) -> int:
        count = 0
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.bindings.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    count += 1
        return count

    def install(self) -> None:
        pkg = self.package
        for name, (mod_name, attr) in FUNCTIONS.items():
            original = getattr(getattr(pkg, mod_name), attr)
            if not self._rebind(original, self.wrap(name, original)):
                raise RuntimeError(f"no binding found for {name}")
        for name, mod_name, cls_name, method in METHODS:
            cls = getattr(getattr(pkg, mod_name), cls_name)
            original = cls.__dict__[method]
            self.bindings.append((cls, method, original))
            setattr(cls, method, self.wrap(name, original))
        lottery = pkg.simplex.Lottery
        post_init = lottery.__dict__["__post_init__"]

        def counted(obj):
            self.lotteries_created += 1
            post_init(obj)

        self.bindings.append((lottery, "__post_init__", post_init))
        lottery.__post_init__ = counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.bindings):
            setattr(owner, attr, original)

    def restored(self) -> list[str]:
        """Bindings that do not hold their original object (empty when clean)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self.bindings
            if (vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr))
            is not original
        ]

    def metric(self, name: str, kind: str) -> float:
        nid = self._ids.get(name)
        if kind == "calls":
            return self.calls[nid] if nid is not None else 0
        if kind == "s":
            return self.total[nid] if nid is not None else 0.0
        if kind == "self_s":
            return self.self_time[nid] if nid is not None else 0.0
        if kind == "rows":
            return self.rows.get(name, 0)
        if kind == "unique_ratio":
            calls = self.calls[nid] if nid is not None else 0
            distinct = self.distinct[name] + len(self._seen[name])
            return distinct / calls if calls else 0.0
        raise ValueError(kind)

    def self_times(self) -> dict[str, float]:
        return dict(zip(self.names, self.self_time))

    def drop_spans(self) -> None:
        """Free the span arrays once only the aggregates are needed."""
        for attr in ("span_name", "span_job", "span_parent"):
            setattr(self, attr, array("i"))
        for attr in ("span_start", "span_end"):
            setattr(self, attr, array("d"))

    def save(self, path: str) -> None:
        """Write every span, with the name table, as one ``.npz`` file."""
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            job=np.frombuffer(self.span_job, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
