"""Spans around the public functions of ``lecam``, recorded from outside.

A wrapper replaces every name bound to the original function, in every
module of the package, so that calls between modules (``cli`` calling
``distances.tv_jittered_vs_gaussian``, ``kernels`` calling it too) go through
the wrapper.  Spans are kept in memory and written out at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

import numpy as np

MODULES = ("cli", "distances", "expansion", "kernels", "lattice", "numerics", "pmf", "records")


def _rows(args, kwargs, result) -> int:
    return len(result)


def _size_of_first(args, kwargs, result) -> int:
    return int(np.size(args[0]))


def _draws(args, kwargs, result) -> int:
    return len(result) if isinstance(result, np.ndarray) else 1


def _points(args, kwargs, result) -> int:
    return int(np.size(result))


def _records_arg(args, kwargs, result) -> int:
    return len(args[0])


def _one(args, kwargs, result) -> int:
    return 1


def _zero(args, kwargs, result) -> int:
    return 0


# (module, function, span name, count of work done by one call)
TARGETS = (
    ("lattice", "count_vector_matrix", "lattice.enum", _rows),
    ("lattice", "support_matrix", "lattice.enum", _rows),
    ("lattice", "enumerate_support", "lattice.enum", _rows),
    ("numerics", "log_factorial", "numerics.log_factorial", _size_of_first),
    ("pmf", "hypergeometric_log_pmf_matrix", "pmf.log_pmf", _rows),
    ("pmf", "multinomial_log_pmf_matrix", "pmf.log_pmf", _rows),
    ("pmf", "hypergeometric_log_pmf", "pmf.log_pmf", _one),
    ("pmf", "multinomial_log_pmf", "pmf.log_pmf", _one),
    ("pmf", "sample_hypergeometric", "pmf.sample", _draws),
    ("pmf", "sample_multinomial", "pmf.sample", _draws),
    ("expansion", "expand", "expansion.expand", _one),
    ("distances", "GaussianLaw.log_density", "distances.log_density", _points),
    ("distances", "tv_jittered_vs_gaussian", "distances.quad", _one),
    ("distances", "tv_monte_carlo", "distances.mc", _one),
    ("distances", "tv_discrete", "distances.exact", _one),
    ("distances", "hellinger_discrete", "distances.exact", _one),
    ("kernels", "data_processing_check", "kernels", _one),
    ("kernels", "deficiency_upper_bounds", "kernels", _one),
    ("records", "write_csv", "records.write", _records_arg),
    ("records", "records_to_json", "records.write", _zero),
    ("records", "read_csv", "records.read", _rows),
    ("cli", "main", "cli", _one),
)


class Tracer:
    """Records name, parent, start, end and a work count for every wrapped call.

    Spans live in flat arrays rather than one object each: hundreds of
    thousands of live containers would make the garbage collector rescan
    them all and inflate the very calls being timed.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_code: array = array("i")
        self.parent: array = array("q")
        self.start: array = array("d")
        self.end: array = array("d")
        self.count: array = array("q")
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        name_code, parent, start, end, counts, stack = (
            self.name_code, self.parent, self.start, self.end, self.count, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_code.append(code)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            counts.append(0)
            stack.append(i)
            t = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            start[i] = t
            counts[i] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace each target, wherever the package binds it."""
        package = sys.modules["lecam"]
        modules = [package] + [sys.modules[f"lecam.{m}"] for m in MODULES]
        for module_name, attr, name, count in TARGETS:
            module = sys.modules[f"lecam.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, getattr(cls, method), count))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost time, self time, calls and count.

        A span nested in another span of the same name (support_matrix calling
        enumerate_support) adds nothing to the outermost time or the counts.
        Self time is a span's duration minus the durations of its children.
        """
        codes, parent = self.name_code, self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        child_time = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                child_time[p] += dur[i]
        totals = {name: {"time": 0.0, "self": 0.0, "calls": 0, "count": 0} for name in self.names}
        for i, code in enumerate(codes):
            entry = totals[self.names[code]]
            entry["self"] += dur[i] - child_time[i]
            ancestor = parent[i]
            while ancestor >= 0 and codes[ancestor] != code:
                ancestor = parent[ancestor]
            if ancestor < 0:
                entry["time"] += dur[i]
                entry["calls"] += 1
                entry["count"] += self.count[i]
        return totals

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("index,name,parent,start,end,count\n")
            for i, code in enumerate(self.name_code):
                out.write(f"{i},{self.names[code]},{self.parent[i]},{self.start[i]!r},"
                          f"{self.end[i]!r},{self.count[i]}\n")


def per_layer_metrics(totals: dict, rounds: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one run, per round of the workload."""

    def get(name, field):
        return totals.get(name, {}).get(field, 0) / rounds

    return {
        "lattice.enum_s": (get("lattice.enum", "time"), "s"),
        "lattice.points": (get("lattice.enum", "count"), "count"),
        "numerics.log_factorial_s": (get("numerics.log_factorial", "time"), "s"),
        "numerics.log_factorial_elems": (get("numerics.log_factorial", "count"), "count"),
        "pmf.log_pmf_s": (get("pmf.log_pmf", "time"), "s"),
        "pmf.log_pmf_rows": (get("pmf.log_pmf", "count"), "count"),
        "pmf.sample_s": (get("pmf.sample", "time"), "s"),
        "pmf.draws": (get("pmf.sample", "count"), "count"),
        "expansion.expand_s": (get("expansion.expand", "time"), "s"),
        "expansion.points": (get("expansion.expand", "count"), "count"),
        "distances.log_density_s": (get("distances.log_density", "time"), "s"),
        "distances.log_density_calls": (get("distances.log_density", "calls"), "count"),
        "distances.log_density_points": (get("distances.log_density", "count"), "count"),
        "distances.quad_self_s": (get("distances.quad", "self"), "s"),
        "distances.mc_self_s": (get("distances.mc", "self"), "s"),
        "distances.exact_self_s": (get("distances.exact", "self"), "s"),
        "kernels.self_s": (get("kernels", "self"), "s"),
        "records.write_s": (get("records.write", "time"), "s"),
        "records.read_s": (get("records.read", "time"), "s"),
        "records.rows": (get("records.write", "count") + get("records.read", "count"), "count"),
        "cli.self_s": (get("cli", "self"), "s"),
        "cli.calls": (get("cli", "calls"), "count"),
    }
