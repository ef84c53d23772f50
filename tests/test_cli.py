import os
import pathlib
import subprocess
import sys

import pytest

import mixshare
from mixshare import cli

CONFIG = """
task = squared1d
T = 30
B = 1.0
R = 0.5
noise_sd = 0.1
seed = 3
algorithms = fixed_share, ogd_constant:0.1
"""


def _write_config(tmp_path, text=CONFIG):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def test_run_subcommand(tmp_path, capsys):
    rc = cli.main(["run", "--config", _write_config(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final_regret.fixed_share" in out
    assert "path_length" in out


def test_run_seed_override(tmp_path, capsys):
    path = _write_config(tmp_path)
    cli.main(["run", "--config", path])
    base = capsys.readouterr().out
    cli.main(["run", "--config", path, "--seed", "99"])
    other = capsys.readouterr().out
    assert "seed = 99" in other
    assert base != other


def test_verify_subcommand_ok(capsys):
    rc = cli.main(["verify", "--suite", "gaussian", "--seed", "0"])
    assert rc == 0
    assert "suite gaussian" in capsys.readouterr().out


def test_verify_all_suites(capsys):
    rc = cli.main(["verify", "--suite", "all", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("gaussian", "posterior", "ensemble-equivalence", "forecasters", "oco"):
        assert f"suite {name}" in out


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "nope"])


def test_sweep_subcommand(tmp_path, capsys):
    rc = cli.main(["sweep", "--config", _write_config(tmp_path), "--axis", "T", "--values", "30,60"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fitted_loglog_slope" in out


def test_run_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("task = squared1d\nunknown_key = 5\n")
    assert cli.main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mixshare: config error: line 2: unknown key 'unknown_key'\n"


def test_run_exits_2_on_invalid_value(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("task = oco_quadratic\nd = 2\nalgorithms = fixed_share\n")
    assert cli.main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mixshare: config error: algorithm 'fixed_share'")


def test_entry_points_import_without_scipy_special():
    # scipy is a test dependency only: importing scipy.linalg takes a
    # process's peak RSS from 27 MB to 55 MB (numpy 2.4, scipy 1.17), more
    # than half of a whole short run's, so neither a run of any task nor
    # the verification suites may load any part of it
    src = str(pathlib.Path(mixshare.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import contextlib, io, sys\n"
        "from mixshare import bench, cli\n"
        "for task, algo in [('squared1d', 'fixed_share'), ('least_squares', 'fixed_share'),\n"
        "                   ('logistic', 'fixed_share'), ('oco_quadratic', 'oco')]:\n"
        "    d = 1 if task == 'squared1d' else 2\n"
        "    bench.run_experiment(bench.ExperimentConfig(task=task, d=d, T=30, algorithms=(algo,)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--suite', 'all']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
