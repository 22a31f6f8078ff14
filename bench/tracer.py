"""Span tracer installed from outside the program, around ivbounds' public functions.

Each wrapped function becomes a span named ``<module>.<function>``. The
tracer keeps, per span name, the number of calls and the self time (span
duration minus the time of the spans it directly contains), plus the
count of each (parent, child) name pair and a few result counters. All
of it is aggregated as calls finish, so memory does not grow with run
length.

Modules import each other's functions by name (``bounds`` holds its own
reference to ``facet_enumeration``, ``cli`` to ``derive``), so a wrapper
placed only on the defining module would miss those calls. ``install``
therefore replaces every reference held by any loaded ``ivbounds``
module, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns


def _count_images(c, result, args):
    c["scenarios.distinct_images"] += len(result)


def _count_hull(c, result, args):
    c["polytope.facets"] += len(result.facets)
    c["polytope.dimension"] += result.affine_dimension


def _count_partition(c, result, args):
    c["bounds.lower_forms"] += len(result.lower_forms)
    c["bounds.upper_forms"] += len(result.upper_forms)
    c["bounds.observable_tests"] += len(result.observable_tests)


def _count_evaluate(c, result, args):
    c["bounds.forms_evaluated"] += len(args[0].lower_forms) + len(args[0].upper_forms)


def _count_check(c, result, args):
    c["bounds.constraints_checked"] += len(result.entries)


def _count_solve(c, result, args):
    c[f"oracle.solve.{result.status}"] += 1


# (defining module, attribute path, span name, result counter)
SPECS = (
    ("scenarios", "scenario_vertex_set", "scenarios.scenario_vertex_set", _count_images),
    ("polytope", "affine_hull", "polytope.affine_hull", None),
    ("polytope", "facet_enumeration", "polytope.facet_enumeration", _count_hull),
    ("polytope", "reduce_mod_equalities", "polytope.reduce_mod_equalities", None),
    ("forms", "canonicalize", "forms.canonicalize", None),
    ("forms", "AffineForm.render", "forms.render", None),
    ("forms", "LinearConstraint.render", "forms.render", None),
    ("bounds", "derive", "bounds.derive", None),
    ("bounds", "partition", "bounds.partition", _count_partition),
    ("bounds", "classify_observable", "bounds.classify_observable", None),
    ("bounds", "evaluate_bounds", "bounds.evaluate_bounds", _count_evaluate),
    ("bounds", "model_check", "bounds.model_check", _count_check),
    ("bounds", "instrumental_inequality", "bounds.instrumental_inequality", None),
    ("bounds", "beta_bounds", "bounds.beta_bounds", None),
    ("data", "load", "data.load", None),
    ("data", "derive_marginals", "data.derive_marginals", None),
    ("data", "observable_point", "data.observable_point", None),
    ("oracle", "MixtureLP.from_scenario", "oracle.MixtureLP.from_scenario", None),
    ("oracle", "solve", "oracle.solve", _count_solve),
    ("oracle", "cross_check", "oracle.cross_check", None),
    ("cli", "entry", "cli.entry", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in SPECS))
COUNTER_NAMES = (
    "scenarios.distinct_images",
    "polytope.facets",
    "polytope.dimension",
    "bounds.forms_evaluated",
    "bounds.constraints_checked",
    "oracle.solve.optimal",
    "oracle.solve.infeasible",
    "cli.import_ms",
)


class Tracer:
    """Aggregated spans and counters for the calls made while installed."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.edges: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        stack = self._stack
        calls, self_ns, edges, counters = self.calls, self.self_ns, self.edges, self.counters

        def traced(*args, **kwargs):
            # A span re-entered directly (LinearConstraint.render calling
            # AffineForm.render) is one call of that span, not two.
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                calls[name] += 1
                self_ns[name] += dt - frame[1]
                edges[parent, name] += 1
                if stack:
                    stack[-1][1] += dt
            if count is not None:
                count(counters, result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        loaded = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "ivbounds" or n.startswith("ivbounds."))
        ]
        for module_name, path, name, count in SPECS:
            home = sys.modules.get(f"ivbounds.{module_name}")
            if home is None:
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(name, raw.__func__, count)))
                else:
                    self._set(cls, attr, self._wrap(name, raw, count))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(name, original, count)
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def snapshot(self) -> dict:
        """JSON-ready totals, for sending from a child process."""
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "counters": dict(self.counters),
        }

    def merge(self, snap: dict) -> None:
        self.calls.update(snap["calls"])
        self.self_ns.update(snap["self_ns"])
        self.edges.update({(p, c): n for p, c, n in snap["edges"]})
        self.counters.update(snap["counters"])

    def parents(self, name: str) -> set:
        return {p for (p, c) in self.edges if c == name}
