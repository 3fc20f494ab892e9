"""Batch front end: parse a system config, run checks, emit reports.

Configuration is a flat INI file plus command-line overrides (flag > file >
default).  Outputs are deterministic: data files carry no timestamps and all
iteration orders are fixed, so re-running an identical config reproduces the
files byte for byte; a separate run.log records the wall-clock time.

Exit codes: 0 success, 2 validation error, 3 capacity exceeded.
"""

from __future__ import annotations

import configparser
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from . import counting, hypothesis, semigroup, zeta
from .errors import CapacityError, InvalidSystemError
from .systems import PrimeSystemSpec, materialize

ALL_CHECKS = ("l1", "zhang", "little-o", "chebyshev", "identity", "boundary")
CHECKS_NEEDING_A = {"l1", "zhang", "little-o", "boundary"}


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    spec: PrimeSystemSpec
    bound: float
    density_a: float | None = None
    checks: tuple = ()
    output_dir: str = "out"
    formats: tuple = ("csv", "json")
    max_integers: int = semigroup.DEFAULT_MAX_INTEGERS
    params: dict = field(default_factory=dict)  # per-check parameter sections

    def validate(self):
        if not math.isfinite(self.bound) or self.bound <= 1.0:
            raise ConfigError(f"bound must be finite and > 1, got {self.bound}")
        for c in self.checks:
            if c not in ALL_CHECKS:
                raise ConfigError(f"unknown check {c!r}; choose from {', '.join(ALL_CHECKS)}")
        need_a = sorted(set(self.checks) & CHECKS_NEEDING_A)
        if need_a and self.density_a is None:
            raise ConfigError(f"checks {', '.join(need_a)} require --density-a (or density_a in [system])")
        for f in self.formats:
            if f not in ("csv", "json"):
                raise ConfigError(f"unknown format {f!r}")

    def check_param(self, section: str, key: str, default, cast=float):
        sec = self.params.get(section, {})
        return cast(sec[key]) if key in sec else default


def _parse_list(text: str):
    return tuple(s.strip() for s in text.split(",") if s.strip())


def load_config(config_path, overrides) -> RunConfig:
    """Merge the INI file (if any) with CLI overrides."""
    cp = configparser.ConfigParser()
    if config_path is not None:
        read = cp.read(config_path)
        if not read:
            raise ConfigError(f"cannot read config file {config_path}")
    sys_sec = cp["system"] if cp.has_section("system") else {}
    run_sec = cp["run"] if cp.has_section("run") else {}

    variant = overrides.get("variant") or sys_sec.get("variant")
    if variant is None:
        raise ConfigError("a system variant is required (--variant or [system] variant)")
    params_text = overrides.get("params")
    if params_text is None:
        params_text = sys_sec.get("params", "")
    params = tuple(float(p) for p in _parse_list(params_text)) if params_text else ()

    density = overrides.get("density_a")
    if density is None and "density_a" in sys_sec:
        density = float(sys_sec["density_a"])

    bound = overrides.get("bound")
    if bound is None:
        if "bound" not in sys_sec:
            raise ConfigError("a bound is required (--bound or [system] bound)")
        bound = float(sys_sec["bound"])

    checks = overrides.get("checks")
    if checks is None:
        checks = _parse_list(run_sec.get("checks", ""))

    formats = overrides.get("formats")
    if formats is None:
        formats = _parse_list(run_sec.get("formats", "csv, json"))

    out_dir = overrides.get("output_dir") or run_sec.get("output_dir", "out")
    max_integers = overrides.get("max_integers")
    if max_integers is None:
        max_integers = int(float(run_sec.get("max_integers", str(semigroup.DEFAULT_MAX_INTEGERS))))

    per_check = {
        sec: dict(cp[sec]) for sec in cp.sections() if sec not in ("system", "run")
    }
    try:
        spec = PrimeSystemSpec(variant, params, density)
    except InvalidSystemError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        spec=spec,
        bound=float(bound),
        density_a=density,
        checks=tuple(checks),
        output_dir=out_dir,
        formats=tuple(formats),
        max_integers=max_integers,
        params=per_check,
    )


def _prepare(cfg: RunConfig):
    primes = materialize(cfg.spec, cfg.bound)
    table = counting.build_table_from_system(primes, cfg.bound, cfg.density_a, cfg.max_integers)
    return primes, table


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _base_report(cfg: RunConfig, name: str) -> dict:
    return {
        "check": name,
        "parameters": {
            "variant": cfg.spec.variant,
            "params": list(cfg.spec.params),
            "bound": cfg.bound,
            "density_a": cfg.density_a,
        },
    }


def _run_identity(cfg: RunConfig, primes, table, out: Path):
    sigmas = np.linspace(cfg.check_param("identity", "sigma_lo", 1.5),
                         cfg.check_param("identity", "sigma_hi", 3.0), 5)
    ts = np.linspace(cfg.check_param("identity", "t_lo", -5.0),
                     cfg.check_param("identity", "t_hi", 5.0), 4)
    psi_total = float(table.cum_lambda[-1])
    rows = []
    worst = 0.0
    ok = True
    for sigma in sigmas:
        for t in ts:
            s = complex(sigma, t)
            lap = zeta.laplace_psi(table, s)
            nld = zeta.neg_logderiv(primes, s, cfg.density_a)
            rhs = nld.value / s
            allowance = nld.truncation_bound / abs(s) + psi_total * table.bound ** (-sigma) / sigma + 1e-9
            diff = abs(lap - rhs)
            worst = max(worst, diff - allowance)
            ok = ok and diff <= allowance
            rows.append((sigma, t, lap, rhs, diff, allowance))
    if "csv" in cfg.formats:
        with open(out / "identity.csv", "w") as fh:
            fh.write("sigma,t,laplace_re,laplace_im,rhs_re,rhs_im,abs_diff,allowance\n")
            for sigma, t, lap, rhs, diff, allowance in rows:
                fh.write(",".join(map(_fmt, (sigma, t, lap.real, lap.imag,
                                             rhs.real, rhs.imag, diff, allowance))) + "\n")
    rep = _base_report(cfg, "identity")
    rep["verdict"] = "pass" if ok else "fail"
    rep["max_excess_over_allowance"] = max(worst, 0.0)
    rep["grid_points"] = len(rows)
    rep["caveats"] = ["agreement is within truncation allowances, not exact beyond closed-form systems"]
    return rep


def _run_boundary(cfg: RunConfig, table, out: Path):
    t_max = cfg.check_param("boundary", "t_max", 5.0)
    points = cfg.check_param("boundary", "points", 201, int)
    floor = cfg.check_param("boundary", "floor", 1e-3)
    scan = zeta.boundary_scan(table, t_max, points, floor)
    if "csv" in cfg.formats:
        with open(out / "boundary.csv", "w") as fh:
            fh.write("t,G_re,G_im,G_abs\n")
            for t, v in zip(scan.ts, scan.values):
                fh.write(",".join(map(_fmt, (t, v.real, v.imag, abs(v)))) + "\n")
    rep = _base_report(cfg, "boundary")
    rep["verdict"] = f"zero-free-halfwidth={scan.zero_free_halfwidth:.6g}"
    rep["floor"] = floor
    rep["t_max"] = t_max
    rep["caveats"] = ["boundary values truncated at the enumeration bound; diagnostic, not a proof"]
    return rep


def _run_checks(cfg: RunConfig, primes, table, out: Path) -> dict:
    reports = {}
    for name in cfg.checks:
        if name == "l1":
            r = hypothesis.l1_condition(table, cfg.density_a)
            rep = _base_report(cfg, "l1")
            rep.update(r.to_dict())
        elif name == "zhang":
            r = hypothesis.zhang_condition(table, cfg.density_a)
            rep = _base_report(cfg, "zhang")
            rep.update(r.to_dict())
        elif name == "little-o":
            r = hypothesis.little_o_trend(table, cfg.density_a)
            rep = _base_report(cfg, "little-o")
            rep.update(r.to_dict())
        elif name == "chebyshev":
            lo = cfg.check_param("chebyshev", "window_lo", min(2.0, cfg.bound))
            hi = cfg.check_param("chebyshev", "window_hi", cfg.bound)
            r = hypothesis.chebyshev_verdict(table, lo, hi)
            rep = _base_report(cfg, "chebyshev")
            rep.update(r.to_dict())
            rep["verdict"] = (
                f"ratio_min={r.ratio_min:.12g},ratio_max={r.ratio_max:.12g}"
            )
        elif name == "identity":
            rep = _run_identity(cfg, primes, table, out)
        elif name == "boundary":
            rep = _run_boundary(cfg, table, out)
        reports[name] = rep
        if "json" in cfg.formats:
            _write_json(out / f"report-{name}.json", rep)
    return reports


def _write_summary(reports: dict, out: Path) -> None:
    """summary.json from per-check reports, as ``check`` and ``report`` both write it."""
    params = list(reports.values())[-1]["parameters"]
    headline = {}
    for name, rep in reports.items():
        if rep.get("checkpoints"):
            headline[name] = rep["checkpoints"][-1][1]
        elif "ratio_min" in rep:
            headline[name] = [rep["ratio_min"], rep["ratio_max"]]
    _write_json(out / "summary.json", {
        "system": {"variant": params["variant"], "params": params["params"]},
        "bound": params["bound"],
        "density_a": params["density_a"],
        "verdicts": {name: rep.get("verdict") for name, rep in reports.items()},
        "headline": headline,
    })


_common_options = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="INI config file; CLI flags override it."),
    click.option("--bound", type=float, default=None, help="Enumeration bound B (> 1)."),
    click.option("--density-a", type=float, default=None, help="Declared density a > 0."),
    click.option("--out", "output_dir", type=click.Path(), default=None,
                 help="Output directory (default: out)."),
    click.option("--format", "formats", type=str, default=None,
                 help="Comma list from {csv, json} (default both)."),
    click.option("--max-integers", type=int, default=None,
                 help=f"Capacity limit on enumerated integers (default {semigroup.DEFAULT_MAX_INTEGERS})."),
    click.option("--variant", type=click.Choice(["explicit-list", "rational-primes",
                                                 "single-prime", "scaled-rational"]),
                 default=None, help="System variant (overrides config)."),
    click.option("--params", type=str, default=None,
                 help="Comma list of variant parameters (primes, q, or scale c)."),
]


def common_options(fn):
    for opt in reversed(_common_options):
        fn = opt(fn)
    return fn


def _load(config_path, bound, density_a, output_dir, formats, max_integers,
          variant, params, checks=None) -> RunConfig:
    overrides = {
        "bound": bound,
        "density_a": density_a,
        "output_dir": output_dir,
        "formats": _parse_list(formats) if formats else None,
        "max_integers": max_integers,
        "variant": variant,
        "params": params,
        "checks": checks,
    }
    try:
        cfg = load_config(config_path, overrides)
        cfg.validate()
    except (ConfigError, InvalidSystemError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    return cfg


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_log(out: Path, cfg: RunConfig, command: str) -> None:
    with open(out / "run.log", "a") as fh:
        fh.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S%z')} {command} "
                 f"variant={cfg.spec.variant} bound={cfg.bound} checks={','.join(cfg.checks)}\n")


@click.group()
def main():
    """Generalized prime systems: enumeration, counting, and Chebyshev diagnostics."""


@main.command()
@common_options
@click.option("--dump/--no-dump", default=True,
              help="Write enumeration.csv (TAB-separated value/exponents/lambda records).")
def gen(config_path, bound, density_a, output_dir, formats, max_integers,
        variant, params, dump):
    """Enumerate the generalized integers and write enumeration/counting files."""
    cfg = _load(config_path, bound, density_a, output_dir, formats, max_integers, variant, params)
    out = _outdir(cfg)
    primes = materialize(cfg.spec, cfg.bound)
    try:
        en = semigroup.enumerate_integers(primes, cfg.bound, cfg.max_integers)
    except CapacityError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    if dump and "csv" in cfg.formats:
        semigroup.write_dump(en, primes, out / "enumeration.csv")
    table = counting.build_table(en, primes, cfg.density_a)
    if "csv" in cfg.formats:
        counting.write_counting_csv(table, out / "counting.csv")
    _run_log(out, cfg, "gen")
    click.echo(f"enumerated {len(en)} integers below {cfg.bound:g}")


@main.command()
@common_options
@click.option("--checks", "checks_text", type=str, default=None,
              help="Comma list from {l1, zhang, little-o, chebyshev, identity, boundary}.")
def check(config_path, bound, density_a, output_dir, formats, max_integers,
          variant, params, checks_text):
    """Run the requested hypothesis checks and write per-check reports."""
    cfg = _load(config_path, bound, density_a, output_dir, formats, max_integers,
                variant, params, checks=_parse_list(checks_text) if checks_text else None)
    if not cfg.checks:
        click.echo("error: no checks requested", err=True)
        sys.exit(2)
    out = _outdir(cfg)
    try:
        primes, table = _prepare(cfg)
    except CapacityError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    if "csv" in cfg.formats:
        counting.write_counting_csv(table, out / "counting.csv")
    reports = _run_checks(cfg, primes, table, out)
    if "json" in cfg.formats:
        _write_summary(reports, out)
    _run_log(out, cfg, "check")
    for name, rep in reports.items():
        click.echo(f"{name}: {rep.get('verdict')}")


@main.command(name="zeta-sweep")
@common_options
@click.option("--sigma-lo", type=float, default=1.5)
@click.option("--sigma-hi", type=float, default=3.0)
@click.option("--sigma-steps", type=int, default=7)
@click.option("--t-lo", type=float, default=-5.0)
@click.option("--t-hi", type=float, default=5.0)
@click.option("--t-steps", type=int, default=5)
def zeta_sweep(config_path, bound, density_a, output_dir, formats, max_integers,
               variant, params, sigma_lo, sigma_hi, sigma_steps, t_lo, t_hi, t_steps):
    """Evaluate zeta by all three methods on a grid and write zeta_sweep.csv."""
    cfg = _load(config_path, bound, density_a, output_dir, formats, max_integers, variant, params)
    if sigma_lo <= 1.0:
        click.echo("error: sigma grid must stay in Re s > 1", err=True)
        sys.exit(2)
    out = _outdir(cfg)
    try:
        primes, table = _prepare(cfg)
    except CapacityError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    with open(out / "zeta_sweep.csv", "w") as fh:
        fh.write("sigma,t,euler_re,euler_im,euler_bound,stieltjes_re,stieltjes_im,"
                 "stieltjes_bound,dirichlet_re,dirichlet_im,dirichlet_bound\n")
        for sigma in np.linspace(sigma_lo, sigma_hi, sigma_steps):
            for t in np.linspace(t_lo, t_hi, t_steps):
                s = complex(sigma, t)
                ze = zeta.zeta_euler(primes, s, cfg.density_a)
                zs = zeta.zeta_stieltjes(table, s)
                zd = zeta.zeta_dirichlet(table, s)
                fh.write(",".join(map(_fmt, (
                    sigma, t, ze.re, ze.im, ze.truncation_bound,
                    zs.re, zs.im, zs.truncation_bound,
                    zd.re, zd.im, zd.truncation_bound))) + "\n")
    _run_log(out, cfg, "zeta-sweep")
    click.echo(f"wrote {out / 'zeta_sweep.csv'}")


@main.command(name="identity-check")
@common_options
def identity_check(config_path, bound, density_a, output_dir, formats, max_integers,
                   variant, params):
    """Compare the psi Laplace transform against -zeta'/(s zeta) on a grid."""
    cfg = _load(config_path, bound, density_a, output_dir, formats, max_integers, variant, params)
    out = _outdir(cfg)
    try:
        primes, table = _prepare(cfg)
    except CapacityError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    rep = _run_identity(cfg, primes, table, out)
    if "json" in cfg.formats:
        _write_json(out / "report-identity.json", rep)
    _run_log(out, cfg, "identity-check")
    click.echo(f"identity: {rep['verdict']}")
    if rep["verdict"] != "pass":
        sys.exit(1)


@main.command(name="boundary-scan")
@common_options
def boundary_scan_cmd(config_path, bound, density_a, output_dir, formats, max_integers,
                      variant, params):
    """Scan the boundary values G(1+it) and report the floor-clearing interval."""
    cfg = _load(config_path, bound, density_a, output_dir, formats, max_integers, variant, params)
    if cfg.density_a is None:
        click.echo("error: boundary-scan requires --density-a", err=True)
        sys.exit(2)
    out = _outdir(cfg)
    try:
        primes, table = _prepare(cfg)
    except CapacityError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    rep = _run_boundary(cfg, table, out)
    if "json" in cfg.formats:
        _write_json(out / "report-boundary.json", rep)
    _run_log(out, cfg, "boundary-scan")
    click.echo(f"boundary: {rep['verdict']}")


@main.command()
@click.option("--out", "output_dir", type=click.Path(), default="out",
              help="Directory holding report-<check>.json files.")
def report(output_dir):
    """Aggregate existing per-check reports into summary.json."""
    out = Path(output_dir)
    files = sorted(out.glob("report-*.json"))
    if not files:
        click.echo(f"error: no report-*.json files in {out}", err=True)
        sys.exit(2)
    reports = {}
    for path in files:
        rep = json.loads(path.read_text())
        reports[rep["check"]] = rep
    _write_summary(reports, out)
    click.echo(f"wrote {out / 'summary.json'}")


if __name__ == "__main__":
    main()
