"""The ordinary primes as a Beurling system.

Builds the rational-primes system up to 10^6 with density a = 1 and walks
through the three positive diagnostics: the Diamond integral settling toward
1 - gamma, psi(x)/x hugging 1 over the last three decades, and the boundary
value G(1) landing on the Euler-Mascheroni constant.
"""

import math

from beurling import (
    PrimeSystemSpec,
    build_table_from_system,
    chebyshev_verdict,
    fourier_E1_boundary,
    g_eval,
    l1_condition,
    materialize,
    zhang_condition,
)

GAMMA = 0.5772156649015329
BOUND = 1e6

primes = materialize(PrimeSystemSpec.rational(), BOUND)
table = build_table_from_system(primes, BOUND, 1.0)
print(f"{len(primes)} primes below {BOUND:g}, {table.total_count} integers enumerated")

print("\nDiamond L1 integral, partial up to X:")
rep = l1_condition(table, checkpoints=[1e2, 1e4, 1e6])
for x, p in rep.checkpoints:
    print(f"  X = {x:>9g}   integral = {p:.6f}")
print(f"  limit 1 - gamma = {1 - GAMMA:.6f}   verdict: {rep.verdict}")

print("\nZhang tail-sup integral (strictly larger partials, same verdict here):")
zh = zhang_condition(table, checkpoints=[1e2, 1e4, 1e6])
for (x, p), (_, q) in zip(rep.checkpoints, zh.checkpoints):
    print(f"  X = {x:>9g}   zhang = {q:.6f} >= diamond = {p:.6f}")
print(f"  verdict: {zh.verdict}")

cheb = chebyshev_verdict(table, 1e3, BOUND)
print(f"\npsi(x)/x on [1e3, 1e6]: [{cheb.ratio_min:.4f}, {cheb.ratio_max:.4f}]")

g0 = fourier_E1_boundary(table, 0.0)
print(f"\nboundary value G(1) = {g0.real:.6f}  (gamma = {GAMMA:.6f})")
print("approach along the real axis:")
for d in (0.1, 0.01, 0.001):
    v = g_eval(table, 1.0 + d).value.real
    print(f"  G(1 + {d:<5g}) = {v:.6f}   |error| = {abs(v - GAMMA):.2e}")
