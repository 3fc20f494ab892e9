import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from beurling import PrimeSystemSpec, counting, hypothesis, materialize, semigroup, zeta
from beurling.cli import load_config, main
from conftest import brute_force_dump

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


@pytest.fixture
def runner():
    return CliRunner()


def read_json(path):
    return json.loads(Path(path).read_text())


def strip_log(directory):
    """All output files except the timestamped run.log, as {name: bytes}."""
    out = {}
    for p in sorted(Path(directory).iterdir()):
        if p.name != "run.log":
            out[p.name] = p.read_bytes()
    return out


def test_gen_small_system(runner, tmp_path):
    res = runner.invoke(main, [
        "gen", "--variant", "explicit-list", "--params", "2,3",
        "--bound", "13", "--out", str(tmp_path / "o"),
    ])
    assert res.exit_code == 0, res.output
    assert "enumerated 8 integers" in res.output
    enum = (tmp_path / "o" / "enumeration.csv").read_text().splitlines()
    assert len(enum) == 8
    assert enum[0].split("\t") == ["1", "", "0"]
    counting = (tmp_path / "o" / "counting.csv").read_text().splitlines()
    assert counting[0] == "x,N,psi,psi_over_x,E1_log_x"
    assert (tmp_path / "o" / "run.log").exists()


def test_gen_dump_matches_oracle_on_ties(runner, tmp_path):
    res = runner.invoke(main, [
        "gen", "--variant", "explicit-list", "--params", "2,2,3",
        "--bound", "50", "--dump", "--out", str(tmp_path / "o"),
    ])
    assert res.exit_code == 0, res.output
    got = (tmp_path / "o" / "enumeration.csv").read_text().splitlines()
    want = brute_force_dump([2, 2, 3], 50)
    assert len(got) == len(want) == 43
    for g, w in zip(got, want):
        assert g == w


def test_gen_no_dump_writes_counting_only(runner, tmp_path):
    argv = ["gen", "--variant", "explicit-list", "--params", "2,2,3", "--bound", "50"]
    res = runner.invoke(main, argv + ["--no-dump", "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    assert "enumerated 43 integers" in res.output
    assert runner.invoke(main, argv + ["--dump", "--out", str(tmp_path / "d")]).exit_code == 0
    dumped = strip_log(tmp_path / "d")
    assert set(dumped) == {"counting.csv", "enumeration.csv"}
    assert strip_log(tmp_path / "o") == {"counting.csv": dumped["counting.csv"]}


def test_gen_passes_dump_path_by_keyword(runner, tmp_path, monkeypatch):
    # perfbench's tracer reads the dump's size from kwargs["path"].
    calls = []
    write_dump = semigroup.write_dump

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return write_dump(*args, **kwargs)

    monkeypatch.setattr(semigroup, "write_dump", spy)
    res = runner.invoke(main, [
        "gen", "--variant", "explicit-list", "--params", "2,3",
        "--bound", "13", "--dump", "--out", str(tmp_path / "o"),
    ])
    assert res.exit_code == 0, res.output
    [(args, kwargs)] = calls
    assert len(args) == 1
    assert set(kwargs) == {"path"}
    assert kwargs["path"] == tmp_path / "o" / "enumeration.csv"


def test_check_requires_density_before_writing(runner, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, [
        "check", "--variant", "rational-primes", "--bound", "100",
        "--checks", "l1", "--out", str(out),
    ])
    assert res.exit_code == 2
    assert "require" in res.output
    assert not out.exists()  # validation failed before any file was written


def test_check_unknown_name(runner, tmp_path):
    res = runner.invoke(main, [
        "check", "--variant", "rational-primes", "--bound", "100",
        "--density-a", "1", "--checks", "nope", "--out", str(tmp_path / "o"),
    ])
    assert res.exit_code == 2
    assert "unknown check" in res.output


def test_check_all_reports_and_summary(runner, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, [
        "check", "--variant", "rational-primes", "--bound", "10000",
        "--density-a", "1",
        "--checks", "l1,zhang,little-o,chebyshev,identity,boundary",
        "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    summary = read_json(out / "summary.json")
    for name in ("l1", "zhang", "little-o", "chebyshev", "identity", "boundary"):
        rep = read_json(out / f"report-{name}.json")
        assert rep["check"] == name
        assert summary["verdicts"][name] == rep["verdict"]
    assert summary["verdicts"]["l1"] == "convergent-evidence"
    assert summary["verdicts"]["identity"] == "pass"
    assert "ratio_min" in summary["verdicts"]["chebyshev"]
    assert (out / "identity.csv").exists()
    assert (out / "boundary.csv").exists()


def test_check_reruns_byte_identical(runner, tmp_path):
    args = [
        "check", "--variant", "explicit-list", "--params", "2,3,5",
        "--bound", "500", "--density-a", "0.5", "--checks", "l1,chebyshev",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = runner.invoke(main, args + ["--out", str(out1)])
    r2 = runner.invoke(main, args + ["--out", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert strip_log(out1) == strip_log(out2)


@pytest.mark.parametrize("argv, ini", [
    (["gen", "--max-integers", "5"], ""),
    (["boundary-scan", "--density-a", "1"], "[boundary]\npoints = 1000000000000\n"),
    (["zeta-sweep", "--sigma-steps", "1000000", "--t-steps", "1000000"], ""),
], ids=["enumeration", "boundary-grid", "sweep-grid"])
def test_capacity_exit_code(runner, tmp_path, argv, ini):
    # a grid of more points than max_integers is refused before the table is built
    cfg = tmp_path / "run.ini"
    cfg.write_text("[system]\nvariant = rational-primes\nbound = 10000\n" + ini)
    out = tmp_path / "o"
    res = runner.invoke(main, [*argv, "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert "error:" in res.output and "max" in res.output
    if argv[0] != "gen":
        assert "grid" in res.output and not out.exists()


def test_config_file_with_overrides(runner, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[system]\n"
        "variant = explicit-list\n"
        "params = 2, 3\n"
        "bound = 100\n"
        "density_a = 0.3\n"
        "[run]\n"
        "checks = l1\n"
        "[chebyshev]\n"
        "window_lo = 10\n"
        "window_hi = 50\n"
    )
    out = tmp_path / "o"
    res = runner.invoke(main, [
        "check", "--config", str(cfg), "--checks", "chebyshev", "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    rep = read_json(out / "report-chebyshev.json")
    assert rep["window"] == [10.0, 50.0]
    assert rep["parameters"]["bound"] == 100.0


def _system_ini(bound="1e3"):
    return f"[system]\nvariant = explicit-list\nparams = 2, 3\nbound = {bound}\ndensity_a = 0.5\n"


BAD_INPUTS = [
    ("params-text", ["check", "--checks", "l1", "--params", "2,abc"], _system_ini()),
    ("bound-text", ["check", "--checks", "l1"], _system_ini("abc")),
    ("window-text", ["check", "--checks", "chebyshev"], _system_ini() + "[chebyshev]\nwindow_lo = abc\n"),
    ("window-past-bound", ["check", "--checks", "chebyshev"],
     _system_ini() + "[chebyshev]\nwindow_lo = 5e3\n"),
    ("identity-sigma", ["identity-check"], _system_ini() + "[identity]\nsigma_lo = 1.0\n"),
    ("sweep-sigma", ["zeta-sweep", "--sigma-hi", "0.5"], _system_ini()),
    ("boundary-points", ["boundary-scan"], _system_ini() + "[boundary]\npoints = 0\n"),
    ("bound-1", ["check", "--checks", "l1", "--bound", "1"], _system_ini()),
    ("bound-inf", ["check", "--checks", "l1", "--bound", "inf"], _system_ini()),
    ("no-variant", ["check", "--checks", "l1"], "[system]\nbound = 1e3\ndensity_a = 0.5\n"),
    ("no-bound", ["check", "--checks", "l1"], "[system]\nvariant = explicit-list\nparams = 2, 3\n"),
    ("no-checks", ["check"], _system_ini()),
    ("scaled-c-0", ["gen", "--variant", "scaled-rational", "--params", "0"], _system_ini()),
    ("max-integers-0", ["gen", "--max-integers", "0"], _system_ini()),
    ("max-integers-negative", ["gen", "--max-integers", "-1"], _system_ini()),
    # row ids are C int: one more than np.iinfo(np.intc).max is refused, by flag or by file
    ("max-integers-past-c-int", ["gen", "--max-integers", "2147483648"], _system_ini()),
    ("max-integers-past-c-int-ini", ["gen"], _system_ini() + "[run]\nmax_integers = 2147483648\n"),
    ("no-section-header", ["check", "--checks", "l1"], "variant = explicit-list\n"),
    ("near-coincident-primes", ["check", "--checks", "l1", "--params", "2,3,2.0000000001"], _system_ini()),
    ("near-coincident-primes-gen", ["gen", "--params", "2,2,3,3.000000001"], _system_ini()),
    *((f"density-a-{a}", ["check", "--checks", "l1", "--density-a", a], _system_ini())
      for a in ("nan", "0", "-1", "inf")),
]


@pytest.mark.parametrize("argv, ini", [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_exits_2_before_writing(runner, tmp_path, argv, ini):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    out = tmp_path / "o"
    res = runner.invoke(main, argv + ["--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output
    assert not out.exists()


def test_near_coincident_primes_error_names_gap(runner, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, ["gen", "--variant", "explicit-list", "--params", "2,3,2.0000000001",
                               "--bound", "100", "--out", str(out)])
    assert res.exit_code == 2
    assert "error: explicit primes 2.0 and 2.0000000001" in res.output and "5e-11 apart" in res.output
    assert not out.exists()


def test_demo_configs_load_and_validate():
    paths = sorted(DEMO_CONFIGS.glob("*.ini"))
    assert paths
    for path in paths:
        cfg = load_config(path, {})
        assert set(cfg.params) == set(cfg.checks) & {"chebyshev", "identity", "boundary"}


def test_single_prime_demo_reports_failure(runner, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, ["check", "--config", str(DEMO_CONFIGS / "single_prime.ini"),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    summary = read_json(out / "summary.json")
    assert summary["verdicts"]["l1"] == "divergent-evidence"
    assert summary["verdicts"]["little-o"] == "violated"
    ratio_min, ratio_max = summary["headline"]["chebyshev"]
    assert ratio_min < 1e-3  # psi(x)/x falls to 0: no positive lower Chebyshev bound
    assert ratio_max < 0.5


def test_missing_config_file(runner, tmp_path):
    res = runner.invoke(main, [
        "gen", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path / "o"),
    ])
    assert res.exit_code == 2


def test_zeta_sweep(runner, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, [
        "zeta-sweep", "--variant", "explicit-list", "--params", "2,3",
        "--bound", "1000", "--density-a", "0.2", "--out", str(out),
        "--sigma-steps", "3", "--t-steps", "3",
    ])
    assert res.exit_code == 0, res.output
    lines = (out / "zeta_sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 9
    header = lines[0].split(",")
    assert header[:2] == ["sigma", "t"]
    row = dict(zip(header, map(float, lines[1].split(","))))
    # the three methods agree within their summed truncation bounds
    gap = math.hypot(row["euler_re"] - row["stieltjes_re"],
                     row["euler_im"] - row["stieltjes_im"])
    assert gap <= row["euler_bound"] + row["stieltjes_bound"] + 1e-9


def test_zeta_sweep_rows_match_point_calls(runner, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, [
        "zeta-sweep", "--variant", "explicit-list", "--params", "2,3,5", "--bound", "3000",
        "--density-a", "0.5", "--out", str(out), "--sigma-steps", "3", "--t-steps", "4",
    ])
    assert res.exit_code == 0, res.output
    lines = (out / "zeta_sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 12
    primes = materialize(PrimeSystemSpec.explicit([2, 3, 5]), 3000)
    table = counting.build_table_from_system(primes, 3000, 0.5)
    for line in lines[1:]:
        sigma, t, *cells = map(float, line.split(","))
        s = complex(sigma, t)
        ze = zeta.zeta_euler(primes, s, 0.5)
        assert cells[:2] == [ze.re, ze.im]  # one exp pass per point, array or not
        want = [ze.truncation_bound]
        for zr in (zeta.zeta_stieltjes(table, s), zeta.zeta_dirichlet(table, s)):
            want += [zr.re, zr.im, zr.truncation_bound]
        # the table sums cut their jumps into runs by the grid's largest |s|
        assert cells[2:] == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_zeta_sweep_rejects_bad_sigma(runner, tmp_path):
    res = runner.invoke(main, [
        "zeta-sweep", "--variant", "single-prime", "--params", "2",
        "--bound", "100", "--sigma-lo", "0.5", "--out", str(tmp_path / "o"),
    ])
    assert res.exit_code == 2


def test_identity_check_single_prime(runner, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, [
        "identity-check", "--variant", "single-prime", "--params", "2",
        "--bound", "1024", "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    rep = read_json(out / "report-identity.json")
    assert rep["verdict"] == "pass"
    assert rep["max_excess_over_allowance"] == 0.0


def test_identity_check_failure_exits_1(runner, tmp_path, monkeypatch):
    # the {3} primes against the {2} table: the identity cannot hold
    real, three = zeta.identity_check, materialize(PrimeSystemSpec.single(3.0), 1024)
    monkeypatch.setattr(zeta, "identity_check",
                        lambda table, primes, *grid: real(table, three, *grid))
    out = tmp_path / "o"
    res = runner.invoke(main, [
        "identity-check", "--variant", "single-prime", "--params", "2",
        "--bound", "1024", "--out", str(out),
    ])
    assert res.exit_code == 1, res.output
    assert "identity: fail" in res.output
    rep = read_json(out / "report-identity.json")
    assert rep["verdict"] == "fail"
    assert rep["max_excess_over_allowance"] > 0


@pytest.mark.parametrize("command, name, argv", [
    ("identity-check", "identity", ["--variant", "single-prime", "--params", "2", "--bound", "1024"]),
    ("boundary-scan", "boundary", ["--variant", "rational-primes", "--bound", "1e4", "--density-a", "1"]),
])
def test_single_check_commands_match_check(runner, tmp_path, command, name, argv):
    alone, full = tmp_path / "alone", tmp_path / "check"
    r1 = runner.invoke(main, [command, *argv, "--out", str(alone)])
    r2 = runner.invoke(main, ["check", "--checks", name, *argv, "--out", str(full)])
    assert r1.exit_code == r2.exit_code == 0, r1.output + r2.output
    assert r1.output == r2.output == f"{name}: {read_json(alone / f'report-{name}.json')['verdict']}\n"
    written = strip_log(alone)
    assert set(written) == {f"report-{name}.json", f"{name}.csv"}
    assert written == {k: v for k, v in strip_log(full).items() if k in written}


def test_boundary_scan_command(runner, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, [
        "boundary-scan", "--variant", "rational-primes", "--bound", "10000",
        "--density-a", "1", "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    rep = read_json(out / "report-boundary.json")
    assert rep["verdict"].startswith("zero-free-halfwidth=")
    lines = (out / "boundary.csv").read_text().splitlines()
    assert lines[0] == "t,G_re,G_im,G_abs"
    assert len(lines) == 202


def test_report_aggregates(runner, tmp_path):
    out = tmp_path / "o"
    runner.invoke(main, [
        "check", "--variant", "rational-primes", "--bound", "1000",
        "--density-a", "1", "--checks", "l1,zhang", "--out", str(out),
    ])
    (out / "summary.json").unlink()
    res = runner.invoke(main, ["report", "--out", str(out)])
    assert res.exit_code == 0, res.output
    summary = read_json(out / "summary.json")
    assert set(summary["verdicts"]) == {"l1", "zhang"}
    assert summary["system"]["variant"] == "rational-primes"


def test_report_rebuilds_check_summary(runner, tmp_path):
    out = tmp_path / "o"
    res = runner.invoke(main, [
        "check", "--variant", "rational-primes", "--bound", "1000",
        "--density-a", "1", "--checks", "l1,chebyshev", "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    written = (out / "summary.json").read_bytes()
    (out / "summary.json").unlink()
    res = runner.invoke(main, ["report", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "summary.json").read_bytes() == written


def test_report_refuses_reports_of_different_runs(runner, tmp_path):
    out = tmp_path / "o"
    first = runner.invoke(main, ["check", "--variant", "rational-primes", "--bound", "1e4",
                                 "--density-a", "1", "--checks", "l1,zhang", "--out", str(out)])
    second = runner.invoke(main, ["check", "--variant", "explicit-list", "--params", "2,3",
                                  "--bound", "1e3", "--density-a", "1", "--checks", "l1", "--out", str(out)])
    assert first.exit_code == second.exit_code == 0, first.output + second.output
    summary = (out / "summary.json").read_bytes()
    res = runner.invoke(main, ["report", "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "report-l1.json" in res.output and "report-zhang.json" in res.output
    assert (out / "summary.json").read_bytes() == summary


def test_report_empty_dir(runner, tmp_path):
    res = runner.invoke(main, ["report", "--out", str(tmp_path)])
    assert res.exit_code == 2


PARAMETERS = '"parameters": {"variant": "rational-primes", "params": [], "bound": 10, "density_a": 1}'


@pytest.mark.parametrize("text", ["{not json", '{"check": "l1"}', '["check", "parameters"]',
                                  '{"check": "l1", "parameters": {"bound": 10}}',
                                  '{"check": "l1", %s, "checkpoints": [5]}' % PARAMETERS,
                                  '{"check": "chebyshev", %s, "ratio_min": 0.9}' % PARAMETERS],
                         ids=["invalid-json", "no-parameters", "not-an-object", "no-variant",
                              "checkpoint-not-a-pair", "ratio-min-alone"])
def test_report_rejects_malformed_report(runner, tmp_path, text):
    (tmp_path / "report-l1.json").write_text(text)
    res = runner.invoke(main, ["report", "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "error:" in res.output
    assert [p.name for p in tmp_path.iterdir()] == ["report-l1.json"]


def test_repeated_check_names_run_once(runner, tmp_path, monkeypatch):
    real, calls = hypothesis.l1_condition, []
    monkeypatch.setattr(hypothesis, "l1_condition",
                        lambda *args, **kw: calls.append(args) or real(*args, **kw))
    argv = ["check", "--variant", "rational-primes", "--bound", "1000", "--density-a", "1"]
    twice = runner.invoke(main, [*argv, "--checks", "l1,l1", "--out", str(tmp_path / "twice")])
    assert twice.exit_code == 0, twice.output
    assert len(calls) == 1
    once = runner.invoke(main, [*argv, "--checks", "l1", "--out", str(tmp_path / "once")])
    assert once.exit_code == 0, once.output
    assert twice.output == once.output == f"l1: {read_json(tmp_path / 'once' / 'report-l1.json')['verdict']}\n"
    assert strip_log(tmp_path / "twice") == strip_log(tmp_path / "once")


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported by zeta_euler alone, so commands that never call it skip its start-up
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, beurling.cli; print('scipy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert res.stdout.strip() == "False"


def test_gen_dump_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma; the dump takes its Lambda keys from the prime rows instead
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; from beurling.cli import main\n"
            "try:\n    main(sys.argv[1:])\nexcept SystemExit as exc:\n    assert not exc.code, exc\n"
            "print('numpy.ma' in sys.modules, 'scipy' in sys.modules)")
    argv = ["gen", "--variant", "explicit-list", "--params", "2,3,2,5,3", "--bound", "500",
            "--dump", "--out", str(tmp_path / "o")]
    res = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert res.stdout.splitlines()[-1] == "False False"
    assert (tmp_path / "o" / "enumeration.csv").stat().st_size > 0


def test_tracer_wrapped_names_exist():
    # perfbench/tracer.py wraps these library functions by name; a rename or
    # removal here would otherwise break only the traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module, names in tracer.WRAPPED.items():
        mod = importlib.import_module(f"beurling.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"beurling.{module}.{name}"
