"""Traced in-process run of the beurling CLI, instrumented from outside the package.

    python3 perfbench/tracer.py --spans FILE -- <beurling CLI arguments>

The child imports the package from ``PYTHONPATH``, replaces the public
functions listed in ``WRAPPED`` with timing wrappers wherever a ``beurling``
module holds them (``cli`` imports ``materialize`` by name, so that binding is
replaced too), and runs ``beurling.cli.main(args, standalone_mode=False)``.
Each call becomes a span ``[name, start, end, parent, attrs]`` kept in memory
and written to FILE once the command has finished.  ``attrs`` holds counts
taken from the call's arguments and result; the time spent taking them is
recorded as ``bookkeeping_s`` on the parent span and left out of its self time.

``von_mangoldt`` is left unwrapped: it runs once per integer, and a wrapper
there would cost more than the work it measures.

The parent imports this module only for ``layer_metrics``, which turns the
spans of one traced run into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

WRAPPED = {
    "systems": ("materialize",),
    "semigroup": ("jump_arrays", "enumerate_integers", "write_dump"),
    "counting": ("build_table", "build_table_from_system", "write_counting_csv"),
    "hypothesis": ("l1_condition", "zhang_condition", "little_o_trend", "chebyshev_verdict"),
    "zeta": ("boundary_scan", "fourier_E1_boundary", "laplace_psi", "neg_logderiv"),
}
# Functions that evaluate one complex exponential per jump, or per prime.
PER_JUMP_EXP = ("fourier_E1_boundary", "laplace_psi")
PER_PRIME_EXP = ("neg_logderiv",)
HYPOTHESIS = WRAPPED["hypothesis"]
ROOT = "cli.main"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tied(logs) -> int:
    """Entries whose log value equals a neighbour's (a value-tie group)."""
    import numpy as np

    logs = np.asarray(logs)
    eq = logs[1:] == logs[:-1]
    mask = np.zeros(len(logs), dtype=bool)
    mask[1:] |= eq
    mask[:-1] |= eq
    return int(mask.sum())


def _counts(name: str, args, kwargs, result) -> dict:
    """Counts for one call, computed from its arguments and result."""
    import numpy as np

    func = name.split(".", 1)[1]
    if func == "materialize":
        return {"primes": len(result)}
    if func == "jump_arrays":
        return {"integers": len(result[0]), "tied": _tied(result[0])}
    if func == "enumerate_integers":
        return {"integers": len(result), "tied": _tied([g.log_value for g in result])}
    if func == "write_dump":
        path = args[2] if len(args) > 2 else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    if func in ("build_table", "build_table_from_system"):
        arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)]
        return {"table_bytes": sum(a.nbytes for a in arrays),
                "bound_mismatch": result.total_count - result.count_n(result.bound)}
    if func in PER_JUMP_EXP:
        return {"exp_evals": len(args[0].jump_logs)}
    if func in PER_PRIME_EXP:
        return {"exp_evals": len(args[0])}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, {}]
        self.spans.append(span)
        self.stack.append(idx)
        rss0 = _maxrss_mb()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            span[1], span[2] = t0, t1
            span[4]["maxrss_growth_mb"] = _maxrss_mb() - rss0
        span[4].update(_counts(name, args, kwargs, result))
        if span[3] >= 0:
            parent = self.spans[span[3]][4]
            parent["bookkeeping_s"] = parent.get("bookkeeping_s", 0.0) + time.perf_counter() - t1
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> None:
    """Replace every binding of the WRAPPED functions in the loaded beurling modules."""
    import importlib

    import beurling.cli  # noqa: F401  (loads every module the CLI uses)

    replaced = {}
    for module, names in WRAPPED.items():
        mod = importlib.import_module(f"beurling.{module}")
        for fname in names:
            fn = getattr(mod, fname)
            replaced[id(fn)] = tracer.wrap(f"{module}.{fname}", fn)
    for modname, mod in list(sys.modules.items()):
        if modname != "beurling" and not modname.startswith("beurling."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced and callable(value):
                setattr(mod, attr, replaced[id(value)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="file to write the spans to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    tracer = Tracer()
    install(tracer)
    from beurling import cli

    tracer.call(ROOT, cli.main, (cli_args,), {"standalone_mode": False})
    sys.stdout.flush()
    with open(opts.spans, "w") as fh:
        json.dump({"spans": tracer.spans}, fh)
    return 0


# --- per-layer metrics from one traced run (parent side) -------------------

PER_LAYER_UNITS = {
    "systems.materialize_s": "s",
    "systems.primes": "count",
    "semigroup.jump_arrays_s": "s",
    "semigroup.integers": "count",
    "semigroup.integers_per_s": "1/s",
    "semigroup.enumerate_integers_s": "s",
    "semigroup.enumerate_integers.rss_growth_mb": "MB",
    "semigroup.tied_integers": "count-computed",
    "semigroup.write_dump_s": "s",
    "semigroup.dump_bytes": "B",
    "counting.build_table_self_s": "s",
    "counting.table_bytes": "B-computed",
    "counting.write_counting_csv_s": "s",
    "counting.bound_mismatch": "count",
    **{f"hypothesis.{f}_s": "s" for f in HYPOTHESIS},
    "zeta.boundary_scan_s": "s",
    "zeta.fourier_E1_boundary.calls": "count",
    "zeta.laplace_psi_s": "s",
    "zeta.neg_logderiv_s": "s",
    "zeta.exp_evals": "count-computed",
    "zeta.exp_evals_per_s": "1/s-computed",
    "cli.self_s": "s",
    "cli.bytes_written": "B-computed",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list, wall: float, bytes_written: int) -> dict:
    """Per-layer metrics of one traced run, all but ``trace.overhead_s``.

    A ``_s`` metric is the inclusive time of every call of that function.
    ``counting.build_table_self_s`` is a self time: the span minus the time its
    child spans cover.  ``cli.self_s`` is the traced process's ``wall`` minus
    the layer spans, so it holds interpreter start-up, imports, option
    parsing and the files the CLI writes itself.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]

    def total(name):
        return sum(d for (n, *_), d in zip(spans, dur) if n == name)

    def self_time(name):
        return sum(d - c - a.get("bookkeeping_s", 0.0)
                   for (n, _, _, _, a), d, c in zip(spans, dur, child) if n == name)

    def attr(key, names=None):
        return sum(a.get(key, 0) for n, _, _, _, a in spans if names is None or n in names)

    enum_s = total("semigroup.jump_arrays") + total("semigroup.enumerate_integers")
    exp_s = sum(total(f"zeta.{f}") for f in PER_JUMP_EXP + PER_PRIME_EXP)
    integers = attr("integers")
    exp_evals = attr("exp_evals")
    return {
        "systems.materialize_s": total("systems.materialize"),
        "systems.primes": attr("primes"),
        "semigroup.jump_arrays_s": total("semigroup.jump_arrays"),
        "semigroup.integers": integers,
        "semigroup.integers_per_s": integers / enum_s if enum_s else 0.0,
        "semigroup.enumerate_integers_s": total("semigroup.enumerate_integers"),
        "semigroup.enumerate_integers.rss_growth_mb":
            attr("maxrss_growth_mb", {"semigroup.enumerate_integers"}),
        "semigroup.tied_integers": attr("tied"),
        "semigroup.write_dump_s": total("semigroup.write_dump"),
        "semigroup.dump_bytes": attr("bytes"),
        "counting.build_table_self_s":
            self_time("counting.build_table") + self_time("counting.build_table_from_system"),
        "counting.table_bytes": attr("table_bytes"),
        "counting.write_counting_csv_s": total("counting.write_counting_csv"),
        "counting.bound_mismatch": attr("bound_mismatch"),
        **{f"hypothesis.{f}_s": total(f"hypothesis.{f}") for f in HYPOTHESIS},
        "zeta.boundary_scan_s": total("zeta.boundary_scan"),
        "zeta.fourier_E1_boundary.calls": sum(1 for n, *_ in spans if n == "zeta.fourier_E1_boundary"),
        "zeta.laplace_psi_s": total("zeta.laplace_psi"),
        "zeta.neg_logderiv_s": total("zeta.neg_logderiv"),
        "zeta.exp_evals": exp_evals,
        "zeta.exp_evals_per_s": exp_evals / exp_s if exp_s else 0.0,
        "cli.self_s": wall - total(ROOT) + self_time(ROOT),
        "cli.bytes_written": bytes_written,
    }


if __name__ == "__main__":
    sys.exit(main())
