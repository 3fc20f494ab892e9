"""Batch front end: parse a system config, run checks, emit reports.

Configuration is an INI file plus command-line overrides (flag > file >
default), with each check's parameters in the INI section named after it; all
of it is resolved and range-checked before any file is written.  The table
commands run through one path, ``_run``, over the ``CHECKS`` table.  Data
files are deterministic; run.log alone records the wall-clock time.

Exit codes: 0 success, 1 identity-check failed, 2 bad configuration, 3 over capacity.
"""

from __future__ import annotations

import configparser
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from . import counting, hypothesis, semigroup, zeta
from .errors import CapacityError, InvalidSystemError
from .systems import VARIANTS, PrimeSystemSpec, materialize


def _identity(cfg, primes, table):
    p = cfg.params["identity"]
    return zeta.identity_check(table, primes, np.linspace(p["sigma_lo"], p["sigma_hi"], 5),
                               np.linspace(p["t_lo"], p["t_hi"], 4))


# Every check: (cfg, primes, table) -> a report with ``to_dict()``; the table carries
# the density.  Entries look their library function up when called, so rebinding a
# module attribute reaches them.
CHECKS = {
    "l1": lambda cfg, primes, table: hypothesis.l1_condition(table),
    "zhang": lambda cfg, primes, table: hypothesis.zhang_condition(table),
    "little-o": lambda cfg, primes, table: hypothesis.little_o_trend(table),
    "chebyshev": lambda cfg, primes, table: hypothesis.chebyshev_verdict(
        table, cfg.params["chebyshev"]["window_lo"], cfg.params["chebyshev"]["window_hi"]),
    "identity": _identity,
    "boundary": lambda cfg, primes, table: zeta.boundary_scan(table, **cfg.params["boundary"]),
}
CHECKS_NEEDING_A = {"l1", "zhang", "little-o", "boundary"}

# The checks that also write a CSV: file name, header, and rows from the report.
CSV_TABLES = {
    "identity": ("identity.csv", "sigma,t,laplace_re,laplace_im,rhs_re,rhs_im,abs_diff,allowance",
                 lambda rep: ((sigma, t, lap.real, lap.imag, rhs.real, rhs.imag, diff, allowance)
                              for sigma, t, lap, rhs, diff, allowance in rep.rows)),
    "boundary": ("boundary.csv", "t,G_re,G_im,G_abs",
                 lambda scan: ((t, v.real, v.imag, abs(v)) for t, v in zip(scan.ts, scan.values))),
}


def _s_grid_ok(sigma_lo, sigma_hi, t_lo, t_hi) -> bool:
    """A finite s-grid inside Re s > 1, where the Euler-product side converges."""
    return all(map(math.isfinite, (sigma_lo, sigma_hi, t_lo, t_hi))) and min(sigma_lo, sigma_hi) > 1.0


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    spec: PrimeSystemSpec
    bound: float
    density_a: float | None
    checks: tuple
    output_dir: str
    max_integers: int
    params: dict  # {check: {key: value}}, requested checks only

    def __post_init__(self):
        """Range-check every field, so that no invalid config exists."""
        if not math.isfinite(self.bound) or self.bound <= 1.0:
            raise ConfigError(f"bound must be finite and > 1, got {self.bound}")
        if self.density_a is not None and not 0.0 < self.density_a < math.inf:
            raise ConfigError(f"density_a must be finite and > 0, got {self.density_a}")
        for c in self.checks:
            if c not in CHECKS:
                raise ConfigError(f"unknown check {c!r}; choose from {', '.join(CHECKS)}")
        need_a = sorted(set(self.checks) & CHECKS_NEEDING_A)
        if need_a and self.density_a is None:
            raise ConfigError(f"checks {', '.join(need_a)} require --density-a (or density_a in [system])")
        if not 1 <= self.max_integers <= semigroup.MAX_ROWS:
            raise ConfigError(f"max_integers must be in [1, {semigroup.MAX_ROWS}], got {self.max_integers}")
        cheb = self.params.get("chebyshev")
        if cheb and not 1.0 < cheb["window_lo"] <= cheb["window_hi"] <= self.bound:
            raise ConfigError(f"[chebyshev] needs 1 < window_lo <= window_hi <= bound = {self.bound:g}")
        ident = self.params.get("identity")
        if ident and not _s_grid_ok(**ident):
            raise ConfigError("[identity] needs finite values with sigma_lo, sigma_hi > 1")
        bd = self.params.get("boundary")
        if bd and not (0.0 < bd["t_max"] < math.inf and bd["points"] >= 2 and bd["floor"] >= 0.0):
            raise ConfigError("[boundary] needs 0 < t_max < inf, points >= 2 and floor >= 0")


def _parse_list(text: str):
    return tuple(s.strip() for s in text.split(",") if s.strip())


def load_config(config_path, overrides) -> RunConfig:
    """Merge the INI file (if any) with CLI overrides and resolve check parameters."""
    cp = configparser.ConfigParser()
    try:
        if config_path is not None and not cp.read(config_path):
            raise ConfigError(f"cannot read config file {config_path}")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {config_path}: {exc}") from exc

    def pick(key, section, default, cast=str):
        """Flag > file > default; a value that does not cast is a ConfigError."""
        value = overrides.get(key)
        if value is None:
            value = cp.get(section, key, fallback=None)
        if value is None:
            return default
        try:
            return cast(value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"bad {key} {value!r}: {exc}") from exc

    variant = pick("variant", "system", None)
    if variant is None:
        raise ConfigError("a system variant is required (--variant or [system] variant)")
    bound = pick("bound", "system", None, float)
    if bound is None:
        raise ConfigError("a bound is required (--bound or [system] bound)")
    checks = tuple(dict.fromkeys(pick("checks", "run", (), _parse_list)))  # first-seen order
    defaults = {
        "chebyshev": {"window_lo": min(2.0, bound), "window_hi": bound},
        "identity": {"sigma_lo": 1.5, "sigma_hi": 3.0, "t_lo": -5.0, "t_hi": 5.0},
        "boundary": {"t_max": 5.0, "points": 201, "floor": 1e-3},
    }
    return RunConfig(
        spec=PrimeSystemSpec(variant, pick("params", "system", (),
                                           lambda v: tuple(map(float, _parse_list(v))))),
        bound=bound,
        density_a=pick("density_a", "system", None, float),
        checks=checks,
        output_dir=pick("output_dir", "run", "out"),
        max_integers=pick("max_integers", "run", semigroup.DEFAULT_MAX_INTEGERS,
                          lambda v: int(float(v))),
        params={name: {key: pick(key, name, d, type(d)) for key, d in defaults[name].items()}
                for name in checks if name in defaults},
    )


def _fail(message, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _within_capacity(build, *args):
    """``build(*args)``; an enumeration past max_integers exits 3."""
    try:
        return build(*args)
    except CapacityError as exc:
        _fail(exc, 3)


def _prepare(cfg: RunConfig, grid_points: int):
    """The output directory, the primes and their counting table.  A grid of
    ``grid_points`` past max_integers exits 3 before anything is built."""
    if grid_points > cfg.max_integers:
        _fail(f"a grid of {grid_points} points exceeds max_integers = {cfg.max_integers}", 3)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    primes = materialize(cfg.spec, cfg.bound)
    return out, primes, _within_capacity(counting.build_table_from_system, primes, cfg.bound,
                                         cfg.density_a, cfg.max_integers)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_summary(reports: list, out: Path) -> None:
    """summary.json from per-check reports, as ``check`` and ``report`` both write it."""
    params = reports[-1]["parameters"]
    headline = {}
    for rep in reports:
        if rep.get("checkpoints"):
            headline[rep["check"]] = rep["checkpoints"][-1][1]
        elif "ratio_min" in rep:
            headline[rep["check"]] = [rep["ratio_min"], rep["ratio_max"]]
    _write_json(out / "summary.json", {
        "system": {"variant": params["variant"], "params": params["params"]},
        "bound": params["bound"],
        "density_a": params["density_a"],
        "verdicts": {rep["check"]: rep.get("verdict") for rep in reports},
        "headline": headline,
    })


def common_options(fn):
    for opt in reversed([
        click.option("--config", "config_path", type=click.Path(), default=None,
                     help="INI config file; CLI flags override it."),
        click.option("--bound", type=float, default=None, help="Enumeration bound B (> 1)."),
        click.option("--density-a", type=float, default=None, help="Declared density a > 0."),
        click.option("--out", "output_dir", type=click.Path(), default=None,
                     help="Output directory (default: out)."),
        click.option("--max-integers", type=int, default=None, help="Capacity limit on enumerated"
                     f" integers (default {semigroup.DEFAULT_MAX_INTEGERS})."),
        click.option("--variant", type=click.Choice(VARIANTS), default=None,
                     help="System variant (overrides config)."),
        click.option("--params", type=str, default=None,
                     help="Comma list of variant parameters (primes, q, or scale c)."),
    ]):
        fn = opt(fn)
    return fn


def _load(opts: dict, checks) -> RunConfig:
    """The config of a command's common options; a bad one exits 2 before anything
    is written.  ``checks`` is a comma list, or None to read ``[run] checks``."""
    try:
        return load_config(opts["config_path"], dict(opts, checks=checks))
    except (ConfigError, InvalidSystemError) as exc:
        _fail(exc, 2)


def _run_log(out: Path, cfg: RunConfig, command: str) -> None:
    with open(out / "run.log", "a") as fh:
        fh.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S%z')} {command} "
                 f"variant={cfg.spec.variant} bound={cfg.bound} checks={','.join(cfg.checks)}\n")


def _run(cfg: RunConfig, command: str):
    """Build the table, run ``cfg.checks`` and write their reports and run.log,
    then echo one verdict line per check.  Returns (out, table, reports)."""
    out, primes, table = _prepare(cfg, cfg.params.get("boundary", {}).get("points", 0))
    parameters = {"variant": cfg.spec.variant, "params": list(cfg.spec.params),
                  "bound": cfg.bound, "density_a": cfg.density_a}
    reports = {}
    for name in cfg.checks:
        result = CHECKS[name](cfg, primes, table)
        if name in CSV_TABLES:
            filename, header, rows = CSV_TABLES[name]
            counting.write_csv(out / filename, header, rows(result))
        reports[name] = {"check": name, "parameters": parameters, **result.to_dict()}
        _write_json(out / f"report-{name}.json", reports[name])
    _run_log(out, cfg, command)
    for name, rep in reports.items():
        click.echo(f"{name}: {rep['verdict']}")
    return out, table, reports


@click.group()
def main():
    """Generalized prime systems: enumeration, counting, and Chebyshev diagnostics."""


@main.command()
@common_options
@click.option("--dump/--no-dump", default=True,
              help="Write enumeration.csv (TAB-separated value/exponents/lambda records).")
def gen(dump, **opts):
    """Enumerate the generalized integers and write enumeration/counting files."""
    cfg = _load(opts, "")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    primes = materialize(cfg.spec, cfg.bound)
    en = _within_capacity(semigroup.enumerate_integers, primes, cfg.bound, cfg.max_integers)
    if dump:
        semigroup.write_dump(en, path=out / "enumeration.csv")
    counting.write_counting_csv(counting.build_table(en, cfg.density_a), out / "counting.csv")
    _run_log(out, cfg, "gen")
    click.echo(f"enumerated {len(en)} integers below {cfg.bound:g}")


@main.command()
@common_options
@click.option("--checks", "checks_text", type=str, default=None,
              help="Comma list from {l1, zhang, little-o, chebyshev, identity, boundary}.")
def check(checks_text, **opts):
    """Run the requested hypothesis checks and write per-check reports."""
    cfg = _load(opts, checks_text or None)
    if not cfg.checks:
        _fail("no checks requested", 2)
    out, table, reports = _run(cfg, "check")
    counting.write_counting_csv(table, out / "counting.csv")
    _write_summary(list(reports.values()), out)


@main.command(name="zeta-sweep")
@common_options
@click.option("--sigma-lo", type=float, default=1.5)
@click.option("--sigma-hi", type=float, default=3.0)
@click.option("--sigma-steps", type=int, default=7)
@click.option("--t-lo", type=float, default=-5.0)
@click.option("--t-hi", type=float, default=5.0)
@click.option("--t-steps", type=int, default=5)
def zeta_sweep(sigma_lo, sigma_hi, sigma_steps, t_lo, t_hi, t_steps, **opts):
    """Evaluate zeta by all three methods on a grid and write zeta_sweep.csv."""
    cfg = _load(opts, "")
    if not _s_grid_ok(sigma_lo, sigma_hi, t_lo, t_hi) or min(sigma_steps, t_steps) < 1:
        _fail("the sigma/t grid must be finite, in Re s > 1, with at least one step each", 2)
    out, primes, table = _prepare(cfg, sigma_steps * t_steps)
    sigmas, ts = np.linspace(sigma_lo, sigma_hi, sigma_steps), np.linspace(t_lo, t_hi, t_steps)
    grid = (sigmas[:, None] + 1j * ts).ravel()
    ze, zs, zd = (zeta.zeta_euler(primes, grid, cfg.density_a), zeta.zeta_stieltjes(table, grid),
                  zeta.zeta_dirichlet(table, grid))
    counting.write_csv(out / "zeta_sweep.csv",
                       "sigma,t,euler_re,euler_im,euler_bound,stieltjes_re,stieltjes_im,"
                       "stieltjes_bound,dirichlet_re,dirichlet_im,dirichlet_bound",
                       zip(grid.real, grid.imag, ze.re, ze.im, ze.truncation_bound, zs.re, zs.im,
                           zs.truncation_bound, zd.re, zd.im, zd.truncation_bound))
    _run_log(out, cfg, "zeta-sweep")
    click.echo(f"wrote {out / 'zeta_sweep.csv'}")


@main.command(name="identity-check")
@common_options
def identity_check_cmd(**opts):
    """Compare the psi Laplace transform against -zeta'/(s zeta) on a grid."""
    _, _, reports = _run(_load(opts, "identity"), "identity-check")
    if reports["identity"]["verdict"] != "pass":
        sys.exit(1)


@main.command(name="boundary-scan")
@common_options
def boundary_scan_cmd(**opts):
    """Scan the boundary values G(1+it) and report the floor-clearing interval."""
    _run(_load(opts, "boundary"), "boundary-scan")


@main.command()
@click.option("--out", "output_dir", type=click.Path(), default="out",
              help="Directory holding report-<check>.json files.")
def report(output_dir):
    """Aggregate existing per-check reports into summary.json."""
    out = Path(output_dir)
    files = sorted(out.glob("report-*.json"))
    if not files:
        _fail(f"no report-*.json files in {out}", 2)
    reports = []
    for path in files:
        try:
            rep = json.loads(path.read_text())
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            _fail(f"{path} is not valid JSON: {exc}", 2)
        if not (isinstance(rep, dict) and "check" in rep and isinstance(rep.get("parameters"), dict)
                and {"variant", "params", "bound", "density_a"} <= rep["parameters"].keys()):
            _fail(f"{path} lacks check, or parameters with variant, params, bound and density_a", 2)
        # the headline fields that _write_summary reads; a report without checkpoints passes
        cps = rep.get("checkpoints", [[None, None]])
        if not (isinstance(cps, list) and cps and isinstance(cps[-1], list) and len(cps[-1]) == 2
                and ("ratio_min" not in rep or "ratio_max" in rep)):
            _fail(f"{path} has checkpoints not ending in an [X, partial] pair, or ratio_min alone", 2)
        if reports and rep["parameters"] != reports[0]["parameters"]:
            _fail(f"{files[0]} and {path} come from different runs: their parameters differ", 2)
        reports.append(rep)
    _write_summary(reports, out)
    click.echo(f"wrote {out / 'summary.json'}")


if __name__ == "__main__":
    main()
