import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mixshare import bench
from mixshare.core import dynamic_regret, path_length


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


@st.composite
def _valid_configs(draw):
    task = draw(st.sampled_from(bench.TASKS))
    T = draw(st.integers(1, 10))
    R, B, L = (draw(st.floats(1e-3, 1e3)) for _ in range(3))
    noise_sd = draw(st.floats(0.0, 10.0))
    assume(task not in ("squared1d", "least_squares") or noise_sd > 0.0 or R * L <= B)
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
        jump_norm=draw(st.none() | st.floats(0.01, 2.0).map(lambda f: f * R)),
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
    summary = bench.ExperimentResult(cfg, reports, {}, 0.0).summary_text()
    block = summary.split("[config]\n", 1)[1].split("[summary]\n", 1)[0]
    assert bench.parse_config(block) == cfg


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
        "jump_norm = 3",
        "noise_sd = -1",
        "noise_sd = nan",
        "algorithms = nope",
        "algorithms = fixed_share:2",
        "algorithms = ogd_constant:fast",
        "algorithms = ogd_constant:nan",
        "algorithms = ogd_inverse_t:-1",
        "algorithms = oco",
    ],
)
def test_config_rejects_invalid_values(line):
    # each line alone makes an otherwise default least_squares config invalid
    with pytest.raises(bench.ConfigError):
        bench.parse_config(f"task = least_squares\n{line}\n")


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


def test_comparators_stay_in_domain():
    for drift in ("stationary", "piecewise:4", "rotating:0.05"):
        cfg = bench.ExperimentConfig(task="least_squares", d=2, T=60, B=2.0, R=1.0, drift=drift, seed=3)
        bundle = bench.generate_stream(cfg)
        dom = cfg.domain()
        for u in bundle.comparators.u:
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
