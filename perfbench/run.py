"""Benchmark of the beurling CLI: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is taken from ``src/`` next
to this directory, never from an installed copy.  Each sample is a fresh
``beurling`` process (the console-script entry point, launched through the
interpreter), run one at a time: a single client in a closed loop.  Every
sample's outputs are checked by ``verify.py``; a sample that exits non-zero
or fails a check counts in ``failed``.  A sample whose outputs are
byte-identical to an already checked one's gets that sample's verdict, since
the check reads nothing else.  The checks run after the last sample,
because a child's ``ru_maxrss`` starts from its parent's peak (Linux carries
it across exec): building the oracles first would inflate ``peak_rss_mb``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``wall_s``: median wall time of a sample process;
* ``peak_rss_mb``: median of the samples' peak resident set (``ru_maxrss``);
* ``setup_s``: median time of a fresh interpreter that imports
  ``beurling.cli`` and exits, the start-up every CLI call pays; timed
  ``SETUP_REPS`` times after one untimed warm-up, then once before each
  sample, so that the imports spread over the whole run;
* ``integers_per_s``: N(B), from the oracle, divided by ``wall_s``.

``--trace 1`` alternates untraced samples with traced ones (``tracer.py``) and
reports the per-layer metrics: medians over the traced samples, plus
``trace.overhead_s``, the traced minus the untraced median wall time.

Rounds of samples run until ``--seconds`` have passed, so a run measures at
least that long and at most one round longer; at least one round always runs.
The last line of standard output is one JSON object; the lines before it print
each metric with its unit.  The exit code is 1 when any sample failed and 2
when the benchmark cannot run at all (no package next to it, or no reference
for the inputs).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
LAUNCH = "import sys; from beurling.cli import main; sys.exit(main())"
# Speed calibration: a fresh interpreter that imports the package's
# dependencies (not the package), then builds a heap of Python tuples and
# sums a 32 MB array.  On a shared virtual machine the speed of a fresh
# process drifts by 15-30% within minutes with the load of other tenants, and
# this job's time follows the samples' (see perfbench/README.md).  The
# end-to-end times are scaled by CALIBRATION_S over the run's median
# calibration time: they read as on a machine that runs the job in
# CALIBRATION_S seconds.  Per-layer times are not scaled.
CALIBRATION = ("import heapq, click, numpy, scipy.special\n"
               "h = []\n"
               "for i in range(100_000): heapq.heappush(h, (i * 7919 % 100_003, i))\n"
               "numpy.ones(4_000_000).sum()")
CALIBRATION_S = 0.7
SETUP_REPS = 2
HARD_LIMIT_S = 165.0  # a run must end within 180 s, set-up included

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "integers_per_s": "1/s"}
PER_LAYER_UNITS = tracer.PER_LAYER_UNITS


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def run_child(cmd, cwd: Path, timeout: float, src: Path = SRC):
    """Run one process to completion; return (wall s, peak RSS MB, exit code).

    The package is imported from ``src``.  Standard output and error go to
    ``stdout.txt`` and ``stderr.txt`` in ``cwd``.  The process is killed if it
    outlives ``timeout``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    with open(cwd / "stdout.txt", "w") as out, open(cwd / "stderr.txt", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted, or terminated (see ``main``): end the child too
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


@dataclass
class Sample:
    dir: Path
    traced: bool
    wall: float
    rss_mb: float
    code: int
    problems: list = field(default_factory=list)
    spans: list | None = None
    bytes_written: int = 0


class Bench:
    """One benchmark run: a job, its reference and oracle, and the samples taken."""

    def __init__(self, workload: str, seed: int, size: str):
        if not (SRC / "beurling" / "__init__.py").is_file():
            raise BenchError(f"no beurling package under {SRC}")
        self.job = workloads.make_job(workload, workloads.variant_of(seed, size), size)
        try:
            self.ref = verify.load_reference(workload)["variants"][f"{size}/{self.job.variant}"]
        except (OSError, KeyError, ValueError) as exc:
            raise BenchError(f"no reference for {workload} {size}/{self.job.variant}: {exc}") from exc
        if self.ref["argv"] != list(self.job.argv) or self.ref["inputs"] != self.job.files:
            raise BenchError(f"reference for {workload} was made from other inputs")
        self.deadline = time.perf_counter() + HARD_LIMIT_S
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.samples = []
        self.verdicts = {}  # digest of a sample's outputs -> its problems

    @functools.cached_property
    def oracle(self) -> workloads.Oracle:
        return workloads.Oracle(self.job)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def timeout(self) -> float:
        return self.deadline - time.perf_counter()

    def child_time(self, args: list) -> float:
        """Wall time of a fresh interpreter run with ``args``, which must succeed."""
        wall, _, code = run_child([sys.executable, *args], self.work, self.timeout())
        if code != 0:
            raise BenchError(f"{' '.join(args)!r} failed: "
                             f"{(self.work / 'stderr.txt').read_text()[-500:]}")
        return wall

    def import_time(self) -> float:
        """Wall time of a fresh interpreter that imports ``beurling.cli`` and exits."""
        return self.child_time(["-c", "import beurling.cli"])

    def sample(self, traced: bool) -> Sample:
        """Run the job once in a fresh process; its outputs stay on disk for ``check``."""
        d = self.work / f"sample-{len(self.samples) + 1}"
        d.mkdir()
        for name, text in self.job.files.items():
            (d / name).write_text(text)
        if traced:
            cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")),
                   "--spans", "spans.json", "--", *self.job.argv]
        else:
            cmd = [sys.executable, "-c", LAUNCH, *self.job.argv]
        wall, rss, code = run_child(cmd, d, self.timeout())
        s = Sample(d, traced, wall, rss, code)
        self.samples.append(s)
        return s

    def check(self, s: Sample) -> None:
        """Check one sample's outputs, read its spans, and delete its directory."""
        d = s.dir
        if s.code != 0:
            s.problems = [f"exit code {s.code}: {(d / 'stderr.txt').read_text()[-500:]}"]
        else:
            try:
                key = self.digest(d)
                if key not in self.verdicts:
                    self.verdicts[key] = verify.check_sample(
                        self.ref, d / "out", (d / "stdout.txt").read_text(), self.oracle)
                s.problems = self.verdicts[key]
                if s.traced:
                    s.spans = json.loads((d / "spans.json").read_text())["spans"]
                    shutil.copy(d / "spans.json", WORK / f"last-trace-{self.job.workload}.json")
            except (OSError, ValueError, KeyError) as exc:
                s.problems = [f"outputs unreadable: {exc!r}"]
        if (d / "out").is_dir():
            s.bytes_written = sum(p.stat().st_size for p in (d / "out").rglob("*") if p.is_file())
        shutil.rmtree(d)

    @staticmethod
    def digest(d: Path) -> str:
        """SHA-256 of everything ``verify.check_sample`` reads from a sample directory."""
        h = hashlib.sha256((d / "stdout.txt").read_bytes())
        if (d / "out").is_dir():
            for name, path in verify.output_files(d / "out").items():
                h.update(b"\0" + name.encode() + b"\0" + path.read_bytes())
        return h.hexdigest()

    def loop(self, seconds: float, traced: bool, before=None) -> None:
        """Rounds of one untraced sample (plus one traced, if ``traced``) for ``seconds``,
        then the checks of every sample.  ``before()``, if given, runs at the start
        of each round."""
        start = time.perf_counter()
        rounds = 0
        while True:
            if before is not None:
                before()
            self.sample(False)
            if traced:
                self.sample(True)
            rounds += 1
            elapsed = time.perf_counter() - start
            per_round = elapsed / rounds
            if elapsed >= seconds or self.timeout() < 2 * per_round:
                break
        for s in self.samples:
            self.check(s)

    def tally(self) -> tuple:
        """(samples attempted, samples that exited non-zero or failed a check)."""
        return len(self.samples), sum(1 for s in self.samples if s.problems)

    def of_kind(self, traced: bool) -> list:
        return [s for s in self.samples if s.traced == traced]


def percentile_note(walls: list) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(walls)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(walls, n=100, method="inclusive")[p - 1]
            return f"p{p} {q:.4f} s"
    return "no tail percentile: fewer than 10 samples beyond any"


def end_to_end(bench: Bench, seconds: float):
    bench.import_time()  # warm-up
    bench.child_time(["-c", CALIBRATION])  # warm-up
    setup, speed = [], []

    def timed():
        setup.append(bench.import_time())
        speed.append(bench.child_time(["-c", CALIBRATION]))

    for _ in range(SETUP_REPS):
        timed()
    bench.loop(seconds, traced=False, before=timed)
    scale = CALIBRATION_S / statistics.median(speed)
    samples = bench.of_kind(traced=False)
    walls = [s.wall for s in samples]
    wall = statistics.median(walls) * scale
    n_b = bench.oracle.integers()
    metrics = {
        "wall_s": wall,
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "setup_s": statistics.median(setup) * scale,
        "integers_per_s": n_b / wall,
    }
    notes = {
        "wall_s": f"median of {len(walls)} samples: {', '.join(f'{w:.3f}' for w in walls)}; "
                  f"{percentile_note(walls)}; times the speed scale {scale:.4f}",
        "peak_rss_mb": f"median of {len(samples)} samples",
        "setup_s": f"median of {len(setup)} imports: {', '.join(f'{t:.3f}' for t in setup)}; "
                   f"times the speed scale",
        "integers_per_s": f"N(B) = {n_b} at B = {bench.job.bound:g}",
        "speed_scale": f"{CALIBRATION_S} s over the median of {len(speed)} calibrations: "
                       f"{', '.join(f'{c:.3f}' for c in speed)}",
    }
    return metrics, notes


def per_layer(bench: Bench, seconds: float):
    bench.import_time()  # warm-up
    bench.loop(seconds, traced=True)
    plain = [s.wall for s in bench.of_kind(traced=False)]
    traced = [(s.wall, tracer.layer_metrics(s.spans, s.wall, s.bytes_written))
              for s in bench.of_kind(traced=True) if s.spans is not None]
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    if traced:
        for name in traced[0][1]:
            metrics[name] = statistics.median(m[name] for _, m in traced)
        metrics["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                       - statistics.median(plain))
    notes = {name: f"median of {len(traced)} traced runs" for name in metrics}
    notes["trace.overhead_s"] = f"traced vs untraced medians of {len(traced)} and {len(plain)} runs"
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the beurling CLI.")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",),
                        help="'all' runs every workload in turn, each with its own result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="'small' runs the reduced inputs of the self-test")
    opts = parser.parse_args(argv)
    # A terminated run raises SystemExit, which ends the running sample and
    # removes the scratch directory on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if opts.workload == "all":
        rest = ["--seed", str(opts.seed), "--seconds", str(opts.seconds),
                "--trace", str(opts.trace), "--size", opts.size]
        return max(main(["--workload", w, *rest]) for w in workloads.NAMES)
    try:
        bench = Bench(opts.workload, opts.seed, opts.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        measure = per_layer if opts.trace else end_to_end
        metrics, notes = measure(bench, opts.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        bench.close()
    units = PER_LAYER_UNITS if opts.trace else END_TO_END_UNITS
    attempted, failed = bench.tally()
    for s in bench.samples:
        for p in s.problems[:10]:
            print(f"check failed, {s.dir.name}: {p}", file=sys.stderr)
    print(f"workload {opts.workload}, seed {opts.seed} (variant {bench.job.variant}), "
          f"B = {bench.job.bound:g}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}  ({notes.get(name, '')})")
    for name in notes.keys() - units.keys():
        print(f"  {name}: {notes[name]}")
    print(f"  failed_frac = {failed / attempted:.6g}  ({failed} of {attempted} samples)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
