import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mixshare import baselines, bench, oco
from mixshare.core import DataPoint, dynamic_regret, path_length


def test_parse_config_roundtrip():
    text = """
    # comment line
    task = squared1d
    T = 50            # trailing comment
    B = 1.0
    drift = piecewise:3
    jump_norm = 0.25
    seed = 9
    algorithms = fixed_share, static_ew
    """
    cfg = bench.parse_config(text)
    assert cfg.task == "squared1d"
    assert cfg.T == 50
    assert cfg.drift == "piecewise:3"
    assert cfg.jump_norm == 0.25
    assert cfg.algorithms == ("fixed_share", "static_ew")
    # one table types, parses and prints every field, so it lists them all, in declaration order
    assert list(bench._FIELDS) == [f.name for f in fields(bench.ExperimentConfig)]


@st.composite
def _valid_configs(draw):
    task = draw(st.sampled_from(bench.TASKS))
    T = draw(st.integers(1, 10))
    R, B, L = (draw(st.floats(1e-3, 1e3)) for _ in range(3))
    noise_sd = draw(st.floats(0.0, 10.0))
    # noiseless squared labels need R * |x| <= B; squared1d fixes x = 1
    assume(task not in ("squared1d", "least_squares") or noise_sd > 0.0 or R * (1.0 if task == "squared1d" else L) <= B)
    drift = draw(
        st.sampled_from(["stationary"])
        | st.integers(0, T - 1).map(lambda k: f"piecewise:{k}")
        | st.floats(-1e3, 1e3).map(lambda rate: f"rotating:{rate!r}")
    )
    names = ["oco"] if task == "oco_quadratic" else ["fixed_share", "static_ew"]
    names += ["ogd_constant:0.5", "ogd_inverse_t"]
    return bench.ExperimentConfig(
        task=task,
        d=1 if task == "squared1d" else draw(st.integers(1, 5)),
        T=T,
        B=B,
        L=L,
        R=R,
        drift=drift,
        jump_norm=draw(st.none() | st.floats(0.01, 1.0).map(lambda f: f * R)),
        noise_sd=noise_sd,
        seed=draw(st.integers(0, 2**63)),
        algorithms=tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))),
        output_dir=draw(st.none() | st.text("abxyz019_-./", min_size=1, max_size=12)),
    )


@settings(max_examples=100, deadline=None)
@given(_valid_configs())
def test_summary_config_block_reparses(cfg):
    zeros = np.zeros(cfg.T)
    reports = {algo: dynamic_regret(zeros, zeros) for algo in cfg.algorithms}
    summary = bench.ExperimentResult(cfg, reports, {}, 0.0, 0.0).summary_text()
    block = summary.split("[config]\n", 1)[1].split("[summary]\n", 1)[0]
    assert bench.parse_config(block) == cfg


# R * L = 994 * 690 puts logistic scores far past exp's overflow at 709
@settings(max_examples=100, deadline=None)
@given(_valid_configs())
@example(bench.ExperimentConfig(task="logistic", T=10, R=994.0, L=690.0, seed=0,
                                algorithms=("fixed_share", "ogd_constant:0.5", "ogd_inverse_t")))
def test_every_valid_config_runs(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = bench.run_experiment(replace(cfg, output_dir=None))
    for rep in result.reports.values():
        assert rep.learner_loss.shape == (cfg.T,)
        assert np.all(np.isfinite(rep.learner_loss)) and np.all(np.isfinite(rep.comparator_loss))


def test_ogd_logistic_gradient_saturates_without_overflow():
    # after one step w'x = 0.25 * 690^2, so y w'x overflows exp; the gradient is then exactly 0
    cfg = bench.ExperimentConfig(task="logistic", T=3, R=1000.0, L=690.0, algorithms=("ogd_constant:0.5",))
    points = [DataPoint(np.array([690.0]), 1.0)] * 3
    bundle = bench.StreamBundle(points, np.zeros((3, 1)), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        losses, _ = bench._run_ogd(cfg, bundle, baselines.StepSchedule.CONSTANT, 0.5)
    assert losses[0] == pytest.approx(np.log(2.0))
    assert losses[1] == losses[2] == 0.0


def test_parse_config_unknown_key_is_hard_error():
    with pytest.raises(bench.ConfigError):
        bench.parse_config("task = squared1d\nbogus = 1\n")


def test_parse_config_malformed_line():
    with pytest.raises(bench.ConfigError):
        bench.parse_config("task squared1d\n")


def test_parse_config_bad_value_names_line_and_key():
    with pytest.raises(bench.ConfigError, match=r"line 2: bad value for 'T': '200.0'"):
        bench.parse_config("task = squared1d\nT = 200.0\n")


def test_parse_config_duplicate_key():
    with pytest.raises(bench.ConfigError, match=r"line 3: duplicate key 'T'"):
        bench.parse_config("T = 50\ntask = squared1d\nT = 60\n")


def test_config_rejects_empty_algorithms():
    with pytest.raises(bench.ConfigError, match="algorithms"):
        bench.parse_config("task = squared1d\nalgorithms =\n")


def test_config_validation():
    with pytest.raises(bench.ConfigError):
        bench.ExperimentConfig(task="nope")
    with pytest.raises(bench.ConfigError):
        bench.ExperimentConfig(task="squared1d", d=2)
    with pytest.raises(bench.ConfigError):
        bench.ExperimentConfig(task="squared1d", T=10, drift="piecewise:10")
    # infeasible noiseless config: ground truth can exceed the label bound
    with pytest.raises(bench.ConfigError):
        bench.ExperimentConfig(task="least_squares", d=2, R=2.0, L=1.0, B=1.0, noise_sd=0.0)
    # squared1d fixes x = 1, so its noiseless bound is R <= B whatever L is
    bench.ExperimentConfig(task="squared1d", L=2.0, R=0.5, B=0.9, noise_sd=0.0)
    with pytest.raises(bench.ConfigError, match=r"R \* \|x\| = 1.0 > B = 0.6"):
        bench.ExperimentConfig(task="squared1d", L=0.5, R=1.0, B=0.6, noise_sd=0.0, drift="piecewise:5", jump_norm=0.5)


@pytest.mark.parametrize(
    "line",
    [
        "drift = piecewise:x",
        "drift = piecewise:-1",
        "drift = rotating:fast",
        "drift = rotating:nan",
        "d = 0",
        "T = 0",
        "B = 0",
        "B = inf",
        "L = -1",
        "R = -1",
        "jump_norm = 0",
        "jump_norm = 0.75",
        "jump_norm = 1",
        "jump_norm = 3",
        "noise_sd = -1",
        "noise_sd = nan",
        "algorithms = nope",
        "algorithms = fixed_share:2",
        "algorithms = ogd_constant:fast",
        "algorithms = ogd_constant:nan",
        "algorithms = ogd_inverse_t:-1",
        "algorithms = oco",
        "algorithms = fixed_share, static_ew, fixed_share",
        "algorithms = ogd_constant, ogd_constant:0.1",
        "algorithms = ogd_inverse_t:1.0, ogd_inverse_t",
    ],
)
def test_config_rejects_invalid_values(line):
    # each line alone makes an otherwise default least_squares config invalid
    with pytest.raises(bench.ConfigError):
        bench.parse_config(f"task = least_squares\n{line}\n")


@pytest.mark.parametrize(
    "changes",
    [{"T": 20.5}, {"d": 2.5}, {"seed": 1.5}, {"T": True}, {"d": np.float64(2.0)}, {"seed": -1}],
    ids=["T_float", "d_float", "seed_float", "T_bool", "d_numpy_float", "seed_negative"],
)
def test_config_rejects_bad_integer_fields(changes):
    with pytest.raises(bench.ConfigError, match=next(iter(changes))):
        bench.ExperimentConfig(task="least_squares", B=2.0, **changes)


@pytest.mark.parametrize(
    "changes",
    [{"B": "1"}, {"R": "2"}, {"L": True}, {"noise_sd": None}, {"jump_norm": "0.1"}, {"task": 1},
     {"drift": 3}, {"output_dir": 5}, {"algorithms": "fixed_share"}, {"algorithms": ("fixed_share", 1)}],
    ids=["B_str", "R_str", "L_bool", "noise_sd_none", "jump_norm_str", "task_int",
         "drift_int", "output_dir_int", "algorithms_str", "algorithms_int_entry"],
)
def test_config_rejects_wrongly_typed_fields(changes):
    with pytest.raises(bench.ConfigError, match=f"^{next(iter(changes))} must be"):
        bench.ExperimentConfig(**{"task": "least_squares", "B": 2.0, **changes})


def test_config_accepts_numpy_real_fields():
    cfg = bench.ExperimentConfig(task="least_squares", d=2, T=5, B=np.float32(2.0), L=np.int64(1), R=np.float64(0.5),
                                 jump_norm=np.float64(0.25), noise_sd=np.float16(0.1))
    assert len(bench.run_experiment(cfg).reports["fixed_share"].learner_loss) == 5


def test_config_accepts_numpy_integer_fields():
    cfg = bench.ExperimentConfig(task="least_squares", d=np.int64(2), T=np.int32(5), B=2.0, seed=np.uint8(7))
    assert len(bench.run_experiment(cfg).reports["fixed_share"].learner_loss) == 5


def test_stationary_stream_has_zero_path_length():
    cfg = bench.ExperimentConfig(task="squared1d", T=30, seed=0)
    bundle = bench.generate_stream(cfg)
    assert bundle.path_length == 0.0
    assert len(bundle.points) == 30


def test_piecewise_path_length_is_k_delta():
    cfg = bench.ExperimentConfig(
        task="least_squares", d=3, T=100, B=2.0, R=1.0, drift="piecewise:5", jump_norm=0.3, seed=1
    )
    bundle = bench.generate_stream(cfg)
    assert bundle.path_length == pytest.approx(5 * 0.3)
    assert bundle.path_length == pytest.approx(path_length(bundle.comparators))


def test_jump_of_radius_is_placed_in_high_dimension():
    # at d = 200 a random direction from near the sphere almost never keeps a
    # jump of norm R inside; the jump toward the centre always does
    cfg = bench.ExperimentConfig(
        task="least_squares", d=200, T=30, B=30.0, R=1.0, drift="piecewise:10", jump_norm=1.0, seed=0
    )
    us = bench.generate_stream(cfg).comparators
    steps = np.linalg.norm(np.diff(us, axis=0), axis=1)
    assert np.allclose(steps[steps > 0.0], 1.0, rtol=1e-12) and np.count_nonzero(steps) == 10
    assert cfg.domain().contains(us, tol=1e-12)


def test_comparators_stay_in_domain():
    for drift in ("stationary", "piecewise:4", "rotating:0.05"):
        cfg = bench.ExperimentConfig(task="least_squares", d=2, T=60, B=2.0, R=1.0, drift=drift, seed=3)
        bundle = bench.generate_stream(cfg)
        dom = cfg.domain()
        for u in bundle.comparators:
            assert dom.contains(u, tol=1e-12)


def test_labels_respect_bound():
    cfg = bench.ExperimentConfig(task="squared1d", T=200, B=1.0, noise_sd=0.5, seed=4)
    bundle = bench.generate_stream(cfg)
    assert all(abs(pt.y) <= 1.0 for pt in bundle.points)


def test_logistic_labels_are_signs():
    cfg = bench.ExperimentConfig(task="logistic", d=2, T=50, seed=5)
    bundle = bench.generate_stream(cfg)
    assert all(pt.y in (-1.0, 1.0) for pt in bundle.points)


def test_same_seed_same_stream():
    cfg = bench.ExperimentConfig(task="least_squares", d=2, T=40, B=2.0, drift="piecewise:3", seed=6)
    b1 = bench.generate_stream(cfg)
    b2 = bench.generate_stream(cfg)
    assert all(np.array_equal(p.x, q.x) and p.y == q.y for p, q in zip(b1.points, b2.points))


def test_run_experiment_regret_consistency():
    cfg = bench.ExperimentConfig(
        task="squared1d", T=80, seed=7, algorithms=("fixed_share", "ogd_inverse_t:1.0")
    )
    result = bench.run_experiment(cfg)
    for algo in cfg.algorithms:
        rep = result.reports[algo]
        assert np.allclose(
            rep.cum_dynamic_regret, np.cumsum(rep.learner_loss - rep.comparator_loss)
        )
        # squared losses bounded by 4 B^2 (predictions and labels in [-B, B])
        assert np.all(rep.learner_loss >= 0.0)
        assert np.all(rep.learner_loss <= 4.0 * cfg.B**2 + 1e-12)


def test_run_experiment_oco_task():
    cfg = bench.ExperimentConfig(
        task="oco_quadratic", d=2, T=40, seed=8, algorithms=("oco", "ogd_constant:0.1")
    )
    result = bench.run_experiment(cfg)
    assert np.all(result.reports["oco"].learner_loss >= 0.0)


@pytest.mark.parametrize("d", [1, 2])
def test_oco_stream_carries_targets_in_points(d):
    # noise_sd = 1 sends many targets outside the ball, to be pulled back onto it
    cfg = bench.ExperimentConfig(
        task="oco_quadratic", d=d, T=50, R=1.0, noise_sd=1.0, drift="rotating:0.05", seed=11, algorithms=("oco",)
    )
    bundle = bench.generate_stream(cfg)
    assert isinstance(bundle.comparators, np.ndarray)
    assert bundle.comparators.shape == (cfg.T, d) and bundle.comparators.dtype == float
    targets = np.array([pt.x for pt in bundle.points])
    assert targets.shape == (cfg.T, d)
    assert cfg.domain().contains(targets, tol=1e-12)
    assert np.isclose(np.linalg.norm(targets, axis=1), cfg.R).any()
    assert all(pt.y == 0.0 for pt in bundle.points)


def test_oco_task_losses_match_hand_driven_learners():
    cfg = bench.ExperimentConfig(
        task="oco_quadratic", d=2, T=40, R=1.0, noise_sd=0.3, drift="rotating:0.05", seed=12,
        algorithms=("oco", "ogd_constant:0.2"),
    )
    result = bench.run_experiment(cfg)
    bundle = bench.generate_stream(cfg)
    dom = cfg.domain()
    s = oco.init_oco(dom, cfg.T, eta=1.0 / dom.diameter**2, G=2.0 * dom.R)
    ogd = baselines.init_ogd(dom, baselines.StepSchedule.CONSTANT, 0.2)
    oco_losses, ogd_losses = [], []
    for pt in bundle.points:
        w_t, s = oco.oco_round(s, lambda w: w - pt.x)
        oco_losses.append(0.5 * np.sum((w_t - pt.x) ** 2))
        ogd_losses.append(0.5 * np.sum((ogd.w - pt.x) ** 2))
        ogd = baselines.ogd_step(ogd, ogd.w - pt.x)
    assert np.array_equal(result.reports["oco"].learner_loss, oco_losses)
    assert np.array_equal(result.reports["ogd_constant:0.2"].learner_loss, ogd_losses)
    comp = [0.5 * np.sum((u - pt.x) ** 2) for u, pt in zip(bundle.comparators, bundle.points)]
    for rep in result.reports.values():
        assert np.array_equal(rep.comparator_loss, comp)


@pytest.mark.parametrize(
    "task, algorithms",
    [("squared1d", ("fixed_share", "ogd_constant")), ("oco_quadratic", ("oco", "ogd_inverse_t"))],
)
def test_every_algorithm_times_every_round(task, algorithms):
    cfg = bench.ExperimentConfig(task=task, T=20, seed=13, algorithms=algorithms)
    wallclock = bench.run_experiment(cfg).wallclock_ns
    for algo in algorithms:
        ns = wallclock[algo]
        assert ns.shape == (cfg.T,) and ns.dtype == np.int64
        assert np.all(ns > 0), f"{algo}: a round has no clock"


def test_algorithm_task_mismatch():
    with pytest.raises(bench.ConfigError):
        bench.ExperimentConfig(task="oco_quadratic", d=2, T=10, algorithms=("fixed_share",))
    with pytest.raises(bench.ConfigError):
        bench.ExperimentConfig(task="squared1d", T=10, algorithms=("oco",))


def test_csv_schema_and_determinism(tmp_path):
    cfg = bench.ExperimentConfig(
        task="squared1d", T=25, seed=9, algorithms=("fixed_share", "static_ew"),
        output_dir=str(tmp_path),
    )
    r1 = bench.run_experiment(cfg)
    text1 = (tmp_path / "squared1d_T25_seed9.csv").read_text()
    r2 = bench.run_experiment(cfg)
    text2 = (tmp_path / "squared1d_T25_seed9.csv").read_text()
    assert text1 == text2
    lines = text1.strip().split("\n")
    assert lines[0] == "round,algorithm,loss,comparator_loss,cum_regret,wallclock_ns"
    assert len(lines) == 1 + 2 * 25
    # timing sidecar carries the real per-round clocks
    timing = (tmp_path / "squared1d_T25_seed9.timing.csv").read_text().strip().split("\n")
    assert timing[0] == "round,algorithm,wallclock_ns"
    assert len(timing) == 1 + 2 * 25
    summary = (tmp_path / "squared1d_T25_seed9.summary.txt").read_text()
    assert "path_length" in summary and "final_regret.fixed_share" in summary


def test_sweep_rows_and_slope():
    cfg = bench.ExperimentConfig(task="squared1d", T=100, B=1.0, R=1.0, noise_sd=0.1, seed=10)
    rows, slope = bench.sweep(cfg, "T", [50, 100])
    assert [r.T for r in rows] == [50, 100]
    assert np.isfinite(slope)
    with pytest.raises(bench.ConfigError):
        bench.sweep(cfg, "X", [1, 2])


def test_sweep_rejects_nonpositive_final_regret():
    # seed 1 beats its comparator at both horizons (regrets -1.558 and -0.363),
    # which has no logarithm; seed 0 (regrets 0.693 and 1.086) fits a slope
    cfg = bench.ExperimentConfig(task="logistic", d=2, T=50, R=1.0, seed=1)
    with pytest.raises(bench.ConfigError, match=r"T = 20 \(final regret -1.558\d*\), T = 40 \(final regret -0.362"):
        bench.sweep(cfg, "T", [20, 40])
    rows, slope = bench.sweep(replace(cfg, seed=0), "T", [20, 40])
    assert [r.final_regret > 0 for r in rows] == [True, True]
    assert slope == pytest.approx(0.6479, abs=1e-4)


@pytest.mark.parametrize("axis, values", [("T", [50, 20.7]), ("T", [50, np.nan]), ("T", [50]), ("P", [1.0, 1.0])])
def test_sweep_rejects_bad_values_before_running(axis, values):
    cfg = bench.ExperimentConfig(task="squared1d", T=100, B=1.0, R=1.0, noise_sd=0.1, seed=10)
    with mock.patch.object(bench, "run_experiment") as run:
        with pytest.raises(bench.ConfigError):
            bench.sweep(cfg, axis, values)
    run.assert_not_called()
