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


def test_verify_rejects_negative_seed(capsys):
    assert cli.main(["verify", "--suite", "gaussian", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mixshare: --seed must be nonnegative, got -1\n"


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        cli.main(["verify", "--suite", "nope"])


def test_sweep_subcommand(tmp_path, capsys):
    rc = cli.main(["sweep", "--config", _write_config(tmp_path), "--axis", "T", "--values", "30,60"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fitted_loglog_slope" in out


@pytest.mark.parametrize(
    "values, message",
    [
        ("20,abc", "--values must be comma-separated numbers, got '20,abc'"),
        ("30,20.7", "horizon T must be an integer, got 20.7"),
    ],
)
def test_sweep_rejects_bad_values(tmp_path, capsys, values, message):
    assert cli.main(["sweep", "--config", _write_config(tmp_path), "--axis", "T", "--values", values]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mixshare: config error: {message}\n"


def test_sweep_rejects_nonpositive_final_regret(tmp_path, capsys):
    text = "task = logistic\nd = 2\nT = 50\nR = 1.0\nseed = 1\n"
    assert cli.main(["sweep", "--config", _write_config(tmp_path, text), "--axis", "T", "--values", "20,40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mixshare: config error: no log-log slope: final regret is not positive at T = 20")
    assert captured.err.count("\n") == 1


def test_run_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("task = squared1d\nunknown_key = 5\n")
    assert cli.main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mixshare: config error: line 2: unknown key 'unknown_key'\n"


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda path: None, "No such file or directory"),
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b"task = squared1d\n\xff\n"), "not UTF-8 text"),
    ],
    ids=["missing", "directory", "not_utf8"],
)
@pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "T"]], ids=["run", "sweep"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, make, reason, command):
    path = tmp_path / "exp.cfg"
    make(path)
    assert cli.main([command[0], "--config", str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"mixshare: config error: cannot read {path}: {reason}")
    assert captured.err.count("\n") == 1


def test_run_exits_2_on_invalid_value(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("task = oco_quadratic\nd = 2\nalgorithms = fixed_share\n")
    assert cli.main(["run", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mixshare: config error: algorithm 'fixed_share'")


@pytest.mark.parametrize(
    "text, argv, message",
    [
        ("seed = -1\n", ["run"], "seed must be nonnegative, got -1"),
        ("", ["run", "--seed", "-1"], "seed must be nonnegative, got -1"),
        ("", ["sweep", "--axis", "T", "--seed", "-1"], "seed must be nonnegative, got -1"),
        ("algorithms = fixed_share, fixed_share\n", ["run"], "duplicate algorithm 'fixed_share'"),
        ("algorithms = ogd_constant, ogd_constant:0.1\n", ["run"],
         "duplicate algorithm 'ogd_constant:0.1' (the same learner as 'ogd_constant')"),
    ],
    ids=["seed_in_file", "seed_flag_run", "seed_flag_sweep", "repeated_algorithm", "algorithm_spelled_twice"],
)
def test_invalid_seed_or_algorithms_exit_2(tmp_path, capsys, text, argv, message):
    path = _write_config(tmp_path, "task = squared1d\nT = 30\n" + text)
    assert cli.main([argv[0], "--config", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mixshare: config error: {message}\n"


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
