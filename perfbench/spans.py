"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces a function at each module attribute through
which another module calls it (for example ``solve_least_squares`` as
bound in ``static``, ``discrete``, ``continuous``, ``oracle`` and
``linalg``) with a wrapper that records a span: name, start, end, parent
span and request id. Spans stay in memory until ``dump``. An attribute
that no longer exists is listed as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

PACKAGE = "descriptor_minimax"


def _lstsq_attrs(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    m, n = np.shape(a)
    k = min(m, n)
    # SVD least squares: 4 m n k for the bidiagonalization plus 8 k^3.
    return {"order": max(m, n), "flops": 4 * m * n * k + 8 * k**3}


def _sample_attrs(args, kwargs, result):
    return {"count": args[3] if len(args) > 3 else kwargs["count"]}


def _riccati_attrs(args, kwargs, result):
    grid = args[4] if len(args) > 4 else kwargs["grid"]
    return {"steps": grid.steps}


def _report_attrs(args, kwargs, result):
    return {"bytes": len(result) + 1}


# (module, attribute, span name, attributes from a call's arguments and result)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "parse_config", "config.parse", None),
    ("cli", "read_trajectory_csv", "config.csv_read", None),
    ("cli", "write_trajectory_csv", "config.csv_write", None),
    ("config", "ResultReport.to_json", "config.report", _report_attrs),
    ("cli", "flatten", "discrete.flatten", None),
    ("cli", "flatten_bounds", "discrete.flatten", None),
    ("discrete", "flatten", "discrete.flatten", None),
    ("discrete", "flatten_bounds", "discrete.flatten", None),
    ("continuous", "flatten", "discrete.flatten", None),
    ("continuous", "flatten_bounds", "discrete.flatten", None),
    ("cli", "variational_estimate", "discrete.variational", None),
    ("cli", "estimate_from_block", "discrete.block", None),
    ("cli", "aposteriori_estimate", "static.aposteriori", None),
    ("discrete", "aposteriori_estimate", "static.aposteriori", None),
    ("cli", "apriori_estimate", "static.apriori", None),
    ("continuous", "apriori_estimate", "static.apriori", None),
    ("static", "representable", "static.representable", None),
    ("continuous", "representable", "static.representable", None),
    ("static", "solve_least_squares", "linalg.lstsq", _lstsq_attrs),
    ("discrete", "solve_least_squares", "linalg.lstsq", _lstsq_attrs),
    ("continuous", "solve_least_squares", "linalg.lstsq", _lstsq_attrs),
    ("oracle", "solve_least_squares", "linalg.lstsq", _lstsq_attrs),
    ("linalg", "solve_least_squares", "linalg.lstsq", _lstsq_attrs),
    ("cli", "filter_run", "filtering.run", None),
    ("filtering", "filter_step", "filtering.step", None),
    ("cli", "discretize", "continuous.discretize", None),
    ("continuous", "discretize", "continuous.discretize", None),
    ("cli", "apriori_estimate_continuous", "continuous.apriori", None),
    ("cli", "tikhonov_approximate", "continuous.tikhonov", None),
    ("cli", "riccati_filter", "continuous.riccati", _riccati_attrs),
    ("cli", "sample_reachability", "oracle.sample", _sample_attrs),
    ("cli", "chebyshev_check", "oracle.check", None),
    ("cli", "simulate_dae", "simulate.simulate", None),
]

# Per-layer metric -> (span names, what to take): "self" sums self
# seconds, "calls" counts spans, "roots" counts spans without a parent,
# "p50_us" is the median span length, "max:<key>" and "attr:<key>" take
# the largest value and the sum of a span attribute.
METRICS = {
    "cli.self_s": (("cli.main",), "self"),
    "cli.requests": (("cli.main",), "roots"),
    "config.parse_s": (("config.parse",), "self"),
    "config.csv_read_s": (("config.csv_read",), "self"),
    "config.csv_write_s": (("config.csv_write",), "self"),
    "config.report_s": (("config.report",), "self"),
    "config.report_bytes": (("config.report",), "attr:bytes"),
    "discrete.flatten_s": (("discrete.flatten",), "self"),
    "discrete.variational_s": (("discrete.variational",), "self"),
    "discrete.block_s": (("discrete.block",), "self"),
    "static.aposteriori_s": (("static.aposteriori",), "self"),
    "static.apriori_s": (("static.apriori",), "self"),
    "static.representable_s": (("static.representable",), "self"),
    "linalg.lstsq_s": (("linalg.lstsq",), "self"),
    "linalg.lstsq_calls": (("linalg.lstsq",), "calls"),
    "linalg.lstsq_max_order": (("linalg.lstsq",), "max:order"),
    "linalg.lstsq_flops_computed": (("linalg.lstsq",), "attr:flops"),
    "filtering.step_s": (("filtering.step",), "self"),
    "filtering.steps": (("filtering.step",), "calls"),
    "filtering.step_us_p50": (("filtering.step",), "p50_us"),
    "continuous.discretize_s": (("continuous.discretize",), "self"),
    "continuous.apriori_s": (("continuous.apriori",), "self"),
    "continuous.tikhonov_s": (("continuous.tikhonov",), "self"),
    "continuous.riccati_s": (("continuous.riccati",), "self"),
    "continuous.riccati_steps": (("continuous.riccati",), "attr:steps"),
    "oracle.sample_s": (("oracle.sample",), "self"),
    "oracle.samples": (("oracle.sample",), "attr:count"),
    "simulate.simulate_s": (("simulate.simulate",), "self"),
}

# Metrics that describe one call rather than accumulate over a round.
PER_CALL = ("linalg.lstsq_max_order", "filtering.step_us_p50")


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, request, attrs]
        self.children = []   # seconds covered by direct children, per span
        self.stack = []
        self.request = None
        self.absent = []
        self._restore = []

    def _wrap(self, fn, name, attrs_fn):
        spans, children, stack = self.spans, self.children, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            record = [name, clock(), None, parent, self.request, None]
            spans.append(record)
            children.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
                if parent is not None:
                    children[parent] += record[2] - record[1]
            if attrs_fn is not None:
                record[5] = attrs_fn(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for module_name, attr, name, attrs_fn in TARGETS:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(original, name, attrs_fn))
            self._restore.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def metrics(self, rounds: int) -> dict:
        """Per-layer figures; sums and counts are per round."""
        by_name = {}
        for i, (name, start, end, parent, _, attrs) in enumerate(self.spans):
            by_name.setdefault(name, []).append((end - start, self.children[i], parent, attrs))
        out = {}
        for metric, (names, how) in METRICS.items():
            rows = [r for nm in names for r in by_name.get(nm, [])]
            if how == "self":
                value = sum(d - c for d, c, _, _ in rows)
            elif how == "calls":
                value = len(rows)
            elif how == "roots":
                value = sum(1 for _, _, parent, _ in rows if parent is None)
            elif how == "p50_us":
                value = float(np.median([d for d, _, _, _ in rows])) * 1e6 if rows else 0.0
            elif how.startswith("max:"):
                value = max(((a or {}).get(how[4:], 0) for _, _, _, a in rows), default=0)
            else:
                value = sum((a or {}).get(how[5:], 0) for _, _, _, a in rows)
            out[metric] = value if metric in PER_CALL else value / rounds
        return out

    def dump(self, path):
        doc = {
            "absent": self.absent,
            "fields": ["name", "start", "end", "parent", "request", "attrs"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
