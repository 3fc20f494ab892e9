"""Self-test of the benchmark's gate, on reduced inputs (about a minute).

    python3 perfbench/selftest.py

Checks that

* a reduced-size run of every workload, traced and untraced, passes;
* deliberately corrupted outputs (a flipped verdict, a perturbed N, a float
  moved beyond float noise, reordered tie rows, a missing file) fail the
  output check, and a failing sample is counted in ``failed``;
* the default ``rational-check`` input is ``demos/configs/rational_full.ini``;
* the metric names and units match ``BENCHMARK.json``;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import verify
import workloads

HERE = Path(__file__).resolve().parent
FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def result_line(proc) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def reduced_runs() -> None:
    for workload in workloads.NAMES:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
                 "--seconds", "1", "--trace", trace, "--size", "small"],
                capture_output=True, text=True, timeout=170)
            res = result_line(proc)
            expect(proc.returncode == 0 and res is not None and res["correct"]
                   and res["failed"] == 0 and res["attempted"] >= 1,
                   f"reduced {workload} --trace {trace} passes")


def replace_in(path: Path, old: str, new: str, count: int = 1) -> None:
    text = path.read_text()
    if old not in text:
        raise AssertionError(f"{old!r} not in {path.name}")
    path.write_text(text.replace(old, new, count))


def perturb_cell(path: Path, row: int, col: int, change) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = change(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def swap_tied_rows(path: Path) -> None:
    lines = path.read_text().splitlines()
    i = next(k for k in range(len(lines) - 1)
             if lines[k].split("\t")[0] == lines[k + 1].split("\t")[0])
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "rational-check": {
        "flipped verdict on stdout": lambda d: replace_in(d / "stdout.txt", "identity: pass", "identity: fail"),
        "flipped verdict in a report": lambda d: replace_in(d / "out" / "report-l1.json",
                                                            "convergent-evidence", "divergent-evidence"),
        "perturbed N": lambda d: perturb_cell(d / "out" / "counting.csv", 50, 1, lambda c: str(int(c) + 1)),
        "psi moved by 1e-6": lambda d: perturb_cell(d / "out" / "counting.csv", 120, 2,
                                                    lambda c: repr(float(c) * (1 + 1e-6))),
        "missing boundary.csv": lambda d: (d / "out" / "boundary.csv").unlink(),
        "truncated report": lambda d: replace_in(d / "out" / "summary.json", "}\n", "", 1),
    },
    "tie-gen": {
        "perturbed N": lambda d: perturb_cell(d / "out" / "counting.csv", 100, 1, lambda c: str(int(c) - 1)),
        "tie rows reordered": lambda d: swap_tied_rows(d / "out" / verify.DUMP),
        "changed enumeration count": lambda d: replace_in(d / "stdout.txt", "18891", "18871"),
    },
}


def corrupted_outputs(work: Path) -> None:
    for workload, cases in CORRUPTIONS.items():
        job = workloads.make_job(workload, 0, "small")
        ref = verify.load_reference(workload)["variants"]["small/0"]
        oracle = workloads.Oracle(job)
        clean = work / f"{workload}-clean"
        clean.mkdir(parents=True)
        for name, text in job.files.items():
            (clean / name).write_text(text)
        _, _, code = run.run_child([sys.executable, "-c", run.LAUNCH, *job.argv], clean, 120.0)
        problems = verify.check_sample(ref, clean / "out", (clean / "stdout.txt").read_text(), oracle)
        expect(code == 0 and not problems, f"{workload}: uncorrupted outputs pass {problems[:2]}")
        for label, corrupt in cases.items():
            d = work / f"{workload}-{len(list(work.iterdir()))}"
            shutil.copytree(clean, d)
            corrupt(d)
            problems = verify.check_sample(ref, d / "out", (d / "stdout.txt").read_text(), oracle)
            expect(bool(problems), f"{workload}: {label} is caught ({problems[:1]})")


def failure_is_counted() -> None:
    bench = run.Bench("rational-check", 0, "small")
    try:
        bench.sample(traced=False)
        perturbed = bench.sample(traced=False)
        perturb_cell(perturbed.dir / "out" / "counting.csv", 50, 1, lambda c: str(int(c) + 1))
        repeated = bench.sample(traced=False)  # byte-identical to ``perturbed``
        perturb_cell(repeated.dir / "out" / "counting.csv", 50, 1, lambda c: str(int(c) + 1))
        unreadable = bench.sample(traced=False)
        (unreadable.dir / "out" / "report-l1.json").write_text("{")
        for s in bench.samples:
            bench.check(s)
    finally:
        bench.close()
    expect(bench.tally() == (4, 3) and any("oracle" in p for p in perturbed.problems)
           and repeated.problems == perturbed.problems and unreadable.problems,
           f"corrupted samples are counted as failed ({perturbed.problems[:1]}, {unreadable.problems})")


def static_checks() -> None:
    demo = run.ROOT / "demos" / "configs" / "rational_full.ini"
    job = workloads.make_job("rational-check", 0)
    if demo.is_file():
        expect(job.files["rational.ini"] == demo.read_text(),
               "default rational-check input is demos/configs/rational_full.ini")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
           "end-to-end metrics match BENCHMARK.json")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS,
           "per-layer metrics match BENCHMARK.json")
    expect(tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES,
           "workloads match BENCHMARK.json")


def bare_directory(work: Path) -> None:
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "tie-gen", "--seed", "1",
                           "--seconds", "5", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and result_line(proc) is None,
           "without the package the benchmark exits non-zero and prints no result")


def main() -> int:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        static_checks()
        bare_directory(work)
        corrupted_outputs(work)
        failure_is_counted()
        reduced_runs()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
