"""Output checks for one benchmark sample.

A sample passes only when all of these hold:

* standard output equals the reference line for line, so every verdict string
  matches exactly;
* the set of data files equals the reference's (``run.log`` carries a
  timestamp and is ignored);
* integer ``N`` columns equal the independent oracle of ``workloads.py``;
* every other CSV cell and every JSON number agree with the reference to
  ``RTOL`` relative to ``max(1, |reference|)``; JSON strings, integers and
  booleans match exactly;
* each ``enumeration.csv`` row matches the exact-arithmetic enumeration, in
  order: the exponent field exactly, value and lambda to ``DUMP_RTOL``.  Rows
  the seed commit wrote beyond the exact enumeration (integers equal to the
  bound, which the strict ``n < B`` convention excludes) are kept verbatim in
  the reference and expected as written.

References are the outputs of the seed commit, stored by ``make_reference.py``.
The tolerances admit float noise from summation order or a recurrence in
place of direct exponentials (both below 1e-11 relative here) and nothing a
changed verdict or count could hide in.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9
DUMP_RTOL = 1e-12
INT_COLUMNS = {"N"}
IGNORED_FILES = {"run.log"}
DUMP = "enumeration.csv"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(workload: str) -> dict:
    with gzip.open(REFERENCE_DIR / f"{workload}.json.gz", "rt") as fh:
        return json.load(fh)


def output_files(outdir: Path) -> dict:
    return {p.name: p for p in sorted(outdir.iterdir()) if p.name not in IGNORED_FILES}


def _close(got: float, ref: float, rtol: float) -> bool:
    if math.isnan(ref):
        return math.isnan(got)
    if math.isinf(ref):
        return got == ref
    return abs(got - ref) <= rtol * max(1.0, abs(ref))


def compare_csv(name: str, got_text: str, ref_text: str, oracle=None) -> list:
    got, ref = got_text.splitlines(), ref_text.splitlines()
    if not got or got[0] != ref[0]:
        return [f"{name}: header {got[:1]} != {ref[:1]}"]
    if len(got) != len(ref):
        return [f"{name}: {len(got) - 1} rows, reference has {len(ref) - 1}"]
    header = ref[0].split(",")
    problems = []
    for lineno, (g_line, r_line) in enumerate(zip(got[1:], ref[1:]), start=2):
        g_cells, r_cells = g_line.split(","), r_line.split(",")
        if len(g_cells) != len(r_cells):
            problems.append(f"{name}:{lineno}: {len(g_cells)} cells, reference has {len(r_cells)}")
            continue
        for col, g, r in zip(header, g_cells, r_cells):
            if col in INT_COLUMNS:
                ok = g == r
            else:
                try:
                    ok = _close(float(g), float(r), RTOL)
                except ValueError:
                    ok = False
            if not ok:
                problems.append(f"{name}:{lineno}: {col}={g}, reference {r}")
        if oracle is not None and "N" in header:
            x = float(g_cells[header.index("x")])
            want = oracle.count(x)
            if g_cells[header.index("N")] != str(want):
                problems.append(f"{name}:{lineno}: N({x!r})={g_cells[header.index('N')]}, oracle {want}")
        if len(problems) > 20:
            break
    return problems


def compare_json(name: str, got, ref, path: str = "") -> list:
    where = f"{name}:{path or '/'}"
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(ref):
            return [f"{where}: keys differ"]
        return [p for k in ref for p in compare_json(name, got[k], ref[k], f"{path}/{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: list length differs"]
        return [p for i, (g, r) in enumerate(zip(got, ref))
                for p in compare_json(name, g, r, f"{path}/{i}")]
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if _close(float(got), ref, RTOL) else [f"{where}: {got!r} != {ref!r}"]
    if type(got) is not type(ref) or got != ref:
        return [f"{where}: {got!r} != {ref!r}"]
    return []


def compare_dump(text: str, ref: dict, tie_oracle) -> list:
    lines = text.splitlines()
    values, exps, lambdas = tie_oracle.dump_columns
    extra = [line.split("\t") for line in ref["extra_rows"]]
    if len(lines) != len(exps) + len(extra):
        return [f"{DUMP}: {len(lines)} rows, reference has {len(exps) + len(extra)}"]
    fields = [line.split("\t") for line in lines]
    if any(len(f) != 3 for f in fields):
        return [f"{DUMP}: a row does not have three TAB-separated fields"]
    got_exps = [f[1] for f in fields]
    want_exps = exps + [f[1] for f in extra]
    if got_exps != want_exps:
        first = next(i for i, (g, w) in enumerate(zip(got_exps, want_exps)) if g != w)
        return [f"{DUMP}:{first + 1}: exponents {got_exps[first]!r}, expected {want_exps[first]!r}"]
    problems = []
    for col, label, exact in ((0, "value", values), (2, "lambda", lambdas)):
        got = np.array([f[col] for f in fields], dtype=float)
        want = np.concatenate((exact, np.array([f[col] for f in extra], dtype=float)))
        bad = np.nonzero(np.abs(got - want) > DUMP_RTOL * np.maximum(1.0, np.abs(want)))[0]
        if bad.size:
            i = int(bad[0])
            problems.append(f"{DUMP}:{i + 1}: {label} {got[i]!r}, expected {want[i]!r} "
                            f"({bad.size} rows differ)")
    return problems


def check_sample(ref: dict, outdir: Path, stdout: str, oracle) -> list:
    """Every way the sample's outputs differ from the reference and the oracle."""
    problems = []
    if stdout.splitlines() != ref["stdout"].splitlines():
        problems.append(f"stdout {stdout.splitlines()} != reference {ref['stdout'].splitlines()}")
    files = output_files(outdir) if outdir.is_dir() else {}
    want = sorted(ref["files"]) + ([DUMP] if "dump" in ref else [])
    if sorted(files) != sorted(want):
        problems.append(f"files {sorted(files)} != reference {sorted(want)}")
        return problems
    for name in want:
        try:
            text = files[name].read_text()
            if name == DUMP:
                problems += compare_dump(text, ref["dump"], oracle.tie)
            elif name.endswith(".csv"):
                problems += compare_csv(name, text, ref["files"][name],
                                        oracle if name == "counting.csv" else None)
            else:
                problems += compare_json(name, json.loads(text), json.loads(ref["files"][name]))
        except ValueError as exc:
            problems.append(f"{name}: unreadable: {exc}")
    return problems
