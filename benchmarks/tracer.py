"""Span and counter recording around the public entry points of qpart.

The wrappers live here, in the benchmark, not in the library: ``install``
replaces each target on its module or class and also every other binding
of the same function object in the loaded ``qpart`` modules, so names
bound by ``from ... import`` (``qpart.verification``, ``qpart.cli``, and
cross-module helpers) and the ``verification.TASKS`` table are traced
too.  Spans are kept in memory: per name the number of calls and the
inclusive time of the outermost activations, per layer the self time
(span duration minus the time of its direct child spans).
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

LAYERS = (
    "laurent", "series", "colored", "automata", "cylindric", "holonomic",
    "celine", "catalog", "serialize", "verification", "cli",
)


def _cylindric_objects(counters, out):
    counters["cylindric.objects_found"] += sum(sum(s.coeffs) for s in out.slices.values())


def _support_points(counters, out):
    counters["holonomic.support_points"] += len(out)


def _partitions_listed(counters, out):
    counters["colored.partitions_listed"] += len(out)


def _peak_terms(counters, out):
    n = len(getattr(out, "terms", ()))
    if n > counters["laurent.peak_terms"]:
        counters["laurent.peak_terms"] = n


def _columns(counters, out):
    counters["celine.columns"] += 1


#: (layer, attribute path inside the layer module, span name, counter hook)
TARGETS = [
    ("laurent", "LaurentPoly.__mul__", "laurent.LaurentPoly.mul", _peak_terms),
    ("laurent", "poly_gcd", "laurent.poly_gcd", None),
    ("series", "QSeries.__mul__", "series.QSeries.mul", None),
    ("series", "BiSeries.__mul__", "series.BiSeries.mul", None),
    ("series", "QSeries.invert", "series.QSeries.invert", None),
    ("series", "pochhammer_expand", "series.pochhammer_expand", None),
    ("colored", "enumerate_2colored", "colored.enumerate_2colored", _partitions_listed),
    ("colored", "gen_fun", "colored.gen_fun", None),
    ("colored", "check_condition", "colored.check_condition", None),
    ("automata", "build_avoidance_dfa", "automata.build_avoidance_dfa", None),
    ("automata", "derive_transfer_system", "automata.derive_transfer_system", None),
    ("automata", "solve_language_series", "automata.solve_language_series", None),
    ("cylindric", "enumerate_cylindric", "cylindric.enumerate_cylindric", _cylindric_objects),
    ("cylindric", "solve_cw_family", "cylindric.solve_cw_family", None),
    ("cylindric", "g_to_f", "cylindric.g_to_f", None),
    ("holonomic", "sequence_value", "holonomic.sequence_value", None),
    ("holonomic", "term_support", "holonomic.term_support", _support_points),
    ("holonomic", "recurrence_holds_at_point", "holonomic.recurrence_holds_at_point", None),
    ("holonomic", "evaluate_ag_sum", "holonomic.evaluate_ag_sum", None),
    ("holonomic", "apply_qdiff", "holonomic.apply_qdiff", None),
    ("holonomic", "poly_times_biseries", "holonomic.poly_times_biseries", None),
    ("holonomic", "verify_certificate", "holonomic.verify_certificate", None),
    ("holonomic", "uncouple_system", "holonomic.uncouple_system", None),
    ("celine", "celine_solve", "celine.celine_solve", None),
    ("celine", "_slot_column", "celine.slot_column", _columns),
    ("catalog", "certificate", "catalog.certificate", None),
    ("serialize", "dumps", "serialize.dumps", None),
    ("cli", "main", "cli.main", None),
]


def task_targets():
    """One span per verification task, named as in the report."""
    verification = importlib.import_module("qpart.verification")
    return [
        ("verification", fn.__name__, "verification." + fn.__name__[5:].replace("_", "-"), None)
        for fn in verification.TASKS
    ]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.counters: dict[str, int] = {
            "cylindric.objects_found": 0,
            "holonomic.support_points": 0,
            "colored.partitions_listed": 0,
            "laurent.peak_terms": 0,
            "celine.columns": 0,
        }
        self.root_s = 0.0
        self._stack: list[list[float]] = []  # [start, time of direct children]
        self._active: dict[str, int] = {}

    def wrap(self, name, layer, fn, hook):
        stack, active, calls = self._stack, self._active, self.calls
        inclusive, self_s, counters = self.inclusive, self.self_s, self.counters
        calls[name] = 0
        inclusive[name] = 0.0
        active[name] = 0

        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            active[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                active[name] -= 1
                calls[name] += 1
                self_s[layer] += dur - frame[1]
                if not active[name]:
                    inclusive[name] += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    self.root_s += dur
            if hook is not None:
                hook(counters, out)
            return out

        return traced

    def install(self, targets):
        """Wrap every target and rebind every reference to it in qpart."""
        for layer in LAYERS:
            importlib.import_module("qpart." + layer)
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("qpart.")]
        for layer, path, name, hook in targets:
            owner = sys.modules["qpart." + layer]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, layer, original, hook)
            if isinstance(owner, type):
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                tasks = getattr(module, "TASKS", None)
                if isinstance(tasks, list):
                    tasks[:] = [wrapper if t is original else t for t in tasks]

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.calls:
            out[name + ".s"] = self.inclusive[name]
            out[name + ".calls"] = self.calls[name]
        for layer, value in self.self_s.items():
            out[layer + ".self_s"] = value
        out.update(self.counters)
        return out
