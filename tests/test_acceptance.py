"""End-to-end acceptance checks, one per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they pass.
"""

import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from beurling import (
    PrimeSystemSpec,
    build_table_from_system,
    chebyshev_verdict,
    enumerate_integers,
    fourier_E1_boundary,
    g_eval,
    l1_condition,
    laplace_psi,
    little_o_trend,
    materialize,
    neg_logderiv,
    zhang_condition,
)
from beurling.cli import main as cli_main
from beurling.hypothesis import DIVERGENT, VIOLATED
from conftest import brute_force_enumerate, diamond_partial_naturals

EULER_GAMMA = 0.5772156649015329


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, detail


def test_criterion_1_semigroup_oracle_equivalence():
    systems = [[2, 3], [2, 2], [2, 3, 5], [1.5, 2.5, 3.5]]
    t0 = time.perf_counter()
    worst = 0.0
    for values in systems:
        seq = materialize(PrimeSystemSpec.explicit(values), 1e3)
        en = enumerate_integers(seq, 1e3)
        oracle = brute_force_enumerate(values, 1e3)
        assert len(en) == len(oracle)
        got = sorted(g.value for g in en)
        want = sorted(math.exp(lv) for lv, _ in oracle)
        worst = max(worst, max(abs(g - w) / w for g, w in zip(got, want)))
        assert Counter(g.exponents for g in en) == Counter(e for _, e in oracle)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report("criterion 1 (semigroup oracle equivalence)", ok,
           f"4 systems, max value mismatch {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_diamond_integral(rational_1e6):
    primes, table = rational_1e6.value
    t0 = time.perf_counter()
    checkpoints = [10, 100, 1000]
    rep = l1_condition(table, checkpoints=checkpoints + [1e6])
    worst = max(abs(p - diamond_partial_naturals(int(x)))
                for (x, p) in rep.checkpoints[:3])
    total = rep.checkpoints[-1][1]
    elapsed = time.perf_counter() - t0 + rational_1e6.seconds
    err = abs(total - (1 - EULER_GAMMA))
    ok = err <= 1e-4 and worst <= 1e-12 and elapsed < 10.0
    report("criterion 2 (Diamond integral closed form)", ok,
           f"partial {total:.6f} vs 1-gamma {1 - EULER_GAMMA:.6f} "
           f"(err {err:.1e}), checkpoint err {worst:.1e}, {elapsed:.1f} s")


def test_criterion_3_chebyshev_window(rational_1e6):
    primes, table = rational_1e6.value
    t0 = time.perf_counter()
    rep = chebyshev_verdict(table, 1e3, 1e6)
    elapsed = time.perf_counter() - t0 + rational_1e6.seconds
    ok = 0.8 <= rep.ratio_min and rep.ratio_max <= 1.1 and elapsed < 30.0
    report("criterion 3 (Chebyshev window on classical primes)", ok,
           f"psi(x)/x in [{rep.ratio_min:.4f}, {rep.ratio_max:.4f}] "
           f"on [1e3, 1e6], {elapsed:.1f} s")


def test_criterion_4_laplace_identity(rational_1e6):
    # B = 2^24 keeps the omitted tail of the transform below 1e-13
    seq2 = materialize(PrimeSystemSpec.single(2.0), 2.0**24)
    t2 = build_table_from_system(seq2, 2.0**24)
    lap = laplace_psi(t2, 2.0)
    rhs = neg_logderiv(seq2, 2.0).value / 2.0
    closed_err = max(abs(lap - math.log(2) / 6.0), abs(lap - rhs))

    primes, table = rational_1e6.value
    psi_total = float(table.cum_lambda[-1])
    worst_excess = -math.inf
    count = 0
    for sigma in np.linspace(1.5, 3.0, 5):
        for t in np.linspace(-5.0, 5.0, 4):
            s = complex(sigma, t)
            diff = abs(laplace_psi(table, s) - neg_logderiv(primes, s, 1.0).value / s)
            allowance = (1.0 * table.bound ** (1 - sigma) / (sigma - 1) / abs(s)
                         + psi_total * table.bound ** -sigma / sigma + 1e-9)
            worst_excess = max(worst_excess, diff - allowance)
            count += 1
    ok = closed_err <= 1e-12 and worst_excess <= 0.0
    report("criterion 4 (Laplace identity)", ok,
           f"{{2}} closed-form err {closed_err:.1e}, rational grid "
           f"{count} points, worst diff-allowance {worst_excess:.1e}")


def test_criterion_5_boundary_formula(rational_1e6):
    primes, table = rational_1e6.value
    g0 = fourier_E1_boundary(table, 0.0)
    err = abs(g0 - EULER_GAMMA)
    gaps = [abs(g_eval(table, 1.0 + d).value - EULER_GAMMA) for d in (0.1, 0.01, 0.001)]
    ok = err <= 1e-3 and gaps[0] > gaps[1] > gaps[2]
    report("criterion 5 (boundary formula)", ok,
           f"G(1) = {g0.real:.6f} vs gamma (err {err:.1e}), "
           f"|g_eval(1+delta) - gamma| = {gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}")


def test_criterion_6_hypothesis_failure_detection(single_prime_2_20):
    primes, table = single_prime_2_20
    l1 = l1_condition(table)
    trend = little_o_trend(table)
    cheb = chebyshev_verdict(table, 2.0, 2.0**20)
    ok = (l1.verdict == DIVERGENT and trend.verdict == VIOLATED
          and cheb.ratio_min < 1e-3)
    report("criterion 6 (hypothesis-failure detection)", ok,
           f"l1 {l1.verdict}, trend {trend.verdict}, ratio_min {cheb.ratio_min:.2e}")


def test_criterion_7_zhang_dominates_diamond(rational_1e4, single_prime_2_20):
    systems = [rational_1e4, single_prime_2_20]
    for values, bound in [([2, 3], 1e3), ([2, 2], 1e3), ([2, 3, 5], 1e3),
                          ([1.5, 2.5, 3.5], 1e3)]:
        seq = materialize(PrimeSystemSpec.explicit(values), bound)
        systems.append((seq, build_table_from_system(seq, bound, 1.0)))
    worst = math.inf
    for _, table in systems:
        l1 = l1_condition(table)
        zh = zhang_condition(table)
        for (_, pl), (_, pz) in zip(l1.checkpoints, zh.checkpoints):
            worst = min(worst, pz - pl)
    ok = worst >= -1e-12
    report("criterion 7 (Zhang partial >= Diamond partial)", ok,
           f"{len(systems)} systems, min(zhang - diamond) = {worst:.2e}")


def test_criterion_8_determinism(tmp_path):
    runner = CliRunner()
    args = ["check", "--variant", "rational-primes", "--bound", "10000",
            "--density-a", "1", "--checks", "l1,zhang,little-o,chebyshev,identity,boundary"]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        res = runner.invoke(cli_main, args + ["--out", str(d)])
        assert res.exit_code == 0, res.output

    def files(d):
        return {p.name: p.read_bytes() for p in sorted(Path(d).iterdir())
                if p.name != "run.log"}

    f1, f2 = files(dirs[0]), files(dirs[1])
    ok = f1 == f2 and len(f1) >= 8
    report("criterion 8 (determinism)", ok,
           f"{len(f1)} data files byte-identical across reruns")
