"""Span tracing of varexp's public functions, installed from outside.

``install()`` replaces each traced function at every module-level binding
inside the ``varexp`` package (``solver`` binds ``energy`` from
``operator``, ``estimates`` binds ``mean_over`` from ``grid``, and so on),
and SciPy's sparse direct solve at ``scipy.sparse.linalg.spsolve``, which
``varexp.solver`` imports at call time.  Each call records one span: name,
start, end, parent span, and a few counters read from the arguments or
the result.  Spans stay in memory until ``Tracer.dump``.

``layer_metrics`` merges the spans of one workload round, across processes,
into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
import time

# (module, attribute, span name); spans are named after the varexp layer
TARGETS = [
    ("varexp.solver", "solve_pxlaplace", "solver.solve_pxlaplace"),
    ("scipy.sparse.linalg", "spsolve", "solver.linear_solve"),
    ("varexp.operator", "energy", "operator.energy"),
    ("varexp.operator", "energy_gradient", "operator.energy_gradient"),
    ("varexp.operator", "energy_hessian", "operator.energy_hessian"),
    ("varexp.operator", "structure_fit", "operator.structure_fit"),
    ("varexp.grid", "integrate", "grid.integrate"),
    ("varexp.grid", "mean_over", "grid.mean_over"),
    ("varexp.grid", "gradient", "grid.gradient"),
    ("varexp.grid", "region_weights", "grid.region_weights"),
    ("varexp.estimates", "gehring_scan", "estimates.gehring_scan"),
    ("varexp.estimates", "higher_integrability_check", "estimates.higher_integrability_check"),
    ("varexp.estimates", "caccioppoli_check", "estimates.caccioppoli_check"),
    ("varexp.estimates", "reverse_holder_check", "estimates.reverse_holder_check"),
    ("varexp.dyadic", "maximal_function", "dyadic.maximal_function"),
    ("varexp.dyadic", "cz_cover", "dyadic.cz_cover"),
    ("varexp.dyadic", "good_lambda_measure", "dyadic.good_lambda_measure"),
    ("varexp.exponent", "log_holder_constant", "exponent.log_holder_constant"),
    ("varexp.exponent", "vanishing_profile", "exponent.vanishing_profile"),
    ("varexp.varlp", "luxemburg_norm", "varlp.luxemburg_norm"),
    ("varexp.cli", "load_config", "cli.load_config"),
    ("varexp.cli", "read_field", "cli.read_field"),
    ("varexp.cli", "write_field", "cli.write_field"),
]


def _solve_key(args, kwargs) -> str:
    """Digest of a solve's grid, exponent, data and boundary bytes."""
    G, p, boundary = args[:3]
    grid = args[3] if len(args) > 3 else kwargs.get("grid")
    h = hashlib.sha256(repr(grid if grid is not None else boundary.grid).encode())
    for arr in (p.values, G.values, boundary.values):
        h.update(arr.tobytes())
    return h.hexdigest()


def _before(name: str, args, kwargs) -> dict:
    if name == "solver.solve_pxlaplace":
        return {"key": _solve_key(args, kwargs)}
    if name == "solver.linear_solve":
        return {"nnz": int(args[0].nnz)}
    if name == "cli.read_field" and os.path.isfile(args[0]):
        return {"bytes": os.path.getsize(args[0])}
    return {}


def _after(name: str, attrs: dict, args, result) -> None:
    if name == "solver.solve_pxlaplace":
        attrs["iterations"] = int(result.iterations)
        attrs["history"] = len(result.energy_history)
    elif name == "estimates.gehring_scan":
        attrs["cube_evals"] = int(result.cubes_tested) * len(result.mu_grid)
    elif name == "dyadic.cz_cover":
        attrs["cubes"] = len(result.cubes)
    elif name == "varlp.luxemburg_norm":
        attrs["bisection_iterations"] = int(result.bisection_iterations)
    elif name == "cli.write_field":
        attrs["bytes"] = os.path.getsize(args[0])


class Tracer:
    """In-memory span list: [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, _before(name, args, kwargs)]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            _after(name, span[4], args, result)
            return result

        return traced

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("spans still open")
        out = list(self.spans)
        self.spans.clear()
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.take(), fh)


def install() -> Tracer:
    """Wrap every target at each of its bindings in the varexp modules."""
    import varexp.cli  # noqa: F401  (loads every varexp module)

    tracer = Tracer()
    for modname, attr, name in TARGETS:
        home = importlib.import_module(modname)
        orig = getattr(home, attr)
        wrapped = tracer.wrap(name, orig)
        setattr(home, attr, wrapped)
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "varexp" or mname.startswith("varexp.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
    return tracer


# ---------------------------------------------------------------------------
# merging

def layer_metrics(processes: list[list[list]], names: list[str]) -> dict[str, float]:
    """The per-layer metrics ``names`` of one round, from the span lists of
    its processes (in the order the processes ran).

    A metric ``<span name>.<kind>`` counts the spans (``calls``), sums their
    durations (``s``), their self times (``self_s``), or sums the span
    attribute ``kind``.  The solver's step, backtrack and repeat counts are
    derived from the solve spans."""
    spanned = {name for _, _, name in TARGETS}
    derived = {"solver.newton_steps", "solver.backtracks", "solver.repeat_solves"}
    unknown = [n for n in names if n not in derived and n.rsplit(".", 1)[0] not in spanned]
    if unknown:
        raise ValueError(f"no traced function gives the metrics {unknown}")
    out = dict.fromkeys(names, 0.0)

    seen: set[str] = set()
    for spans in processes:
        child_time = [0.0] * len(spans)
        energy_calls = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "operator.energy":
                    energy_calls[parent] += 1
        for i, (name, start, end, _, attrs) in enumerate(spans):
            values = {"calls": 1, "s": end - start, "self_s": end - start - child_time[i]}
            values.update(attrs)
            for kind, value in values.items():
                if f"{name}.{kind}" in out:
                    out[f"{name}.{kind}"] += value
            if name == "solver.solve_pxlaplace":
                out["solver.newton_steps"] += attrs["iterations"]
                # every energy call beyond the stage starts and accepted
                # steps (the energy history) is a rejected line-search trial
                out["solver.backtracks"] += energy_calls[i] - attrs["history"]
                if attrs["key"] in seen:
                    out["solver.repeat_solves"] += 1
                seen.add(attrs["key"])
    return out
