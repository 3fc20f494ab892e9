"""Record the reference outputs the benchmark checks every sample against.

    python3 perfbench/make_reference.py --src DIR --commit ID [--workload NAME ...]

Runs every input variant of each workload (both sizes) once with the package
found in DIR (the ``src`` directory of a checkout of commit ID), checks the
outputs against the exact-arithmetic oracles of ``workloads.py``, and writes
``perfbench/reference/<workload>.json.gz``.  The references in this directory
were made from the seed commit named in each file's ``source``; remake them
only when the benchmark's inputs change, never from a commit under test.

The 13.9 MB ``enumeration.csv`` of ``tie-gen`` is not stored: its rows must
equal the oracle's, which is checked here, so the reference keeps only the
rows the seed commit wrote beyond the oracle (integers equal to the bound),
the row count and the file's SHA-256.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import shutil
import sys
from pathlib import Path

import run
import verify
import workloads


def record(job: workloads.Job, src: Path) -> dict:
    d = run.WORK / "reference" / f"{job.workload}-{job.size}-{job.variant}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    for name, text in job.files.items():
        (d / name).write_text(text)
    _, _, code = run.run_child([sys.executable, "-c", run.LAUNCH, *job.argv], d, 900.0, src)
    if code != 0:
        raise SystemExit(f"{job}: exit code {code}\n{(d / 'stderr.txt').read_text()}")
    stdout = (d / "stdout.txt").read_text()
    files = verify.output_files(d / "out")
    entry = {
        "argv": list(job.argv),
        "inputs": job.files,
        "stdout": stdout,
        "files": {name: p.read_text() for name, p in files.items() if name != verify.DUMP},
    }
    oracle = workloads.Oracle(job)
    if verify.DUMP in files:
        path = files[verify.DUMP]
        lines = path.read_text().splitlines()
        extra = lines[len(oracle.tie.rows):]
        for line in extra:
            if abs(float(line.split("\t")[0]) / job.bound - 1.0) > verify.DUMP_RTOL:
                raise SystemExit(f"{job}: row {line!r} is neither in the oracle nor at the bound")
        entry["dump"] = {"rows": len(lines), "extra_rows": extra,
                         "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    problems = verify.check_sample(entry, d / "out", stdout, oracle)
    if problems:
        raise SystemExit(f"{job}: outputs disagree with the oracle:\n" + "\n".join(problems[:20]))
    shutil.rmtree(d)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="directory holding the beurling package of the reference commit")
    parser.add_argument("--commit", required=True, help="id of that commit, recorded as the source")
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    opts = parser.parse_args(argv)
    verify.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in opts.workload or workloads.NAMES:
        variants = {}
        for size in ("full", "small"):
            for v in workloads.variants(size):
                job = workloads.make_job(workload, v, size)
                print(f"{workload} {size}/{v}: {' '.join(job.argv)}", flush=True)
                variants[f"{size}/{v}"] = record(job, opts.src.resolve())
        data = json.dumps({"source": opts.commit, "variants": variants}, indent=1, sort_keys=True)
        with open(verify.REFERENCE_DIR / f"{workload}.json.gz", "wb") as raw, \
                gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(data.encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
