import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixshare import baselines, bench, ensemble
from mixshare.core import DomainSpec, LossSpec


def test_ogd_zero_gradient_keeps_iterate():
    s = baselines.init_ogd(DomainSpec(2, 1.0), baselines.StepSchedule.CONSTANT, 0.1)
    w = s.w.copy()
    s2 = baselines.ogd_step(s, np.zeros(2))
    assert s2 is s
    assert np.allclose(s.w, w)
    assert s.round == 2


def test_ogd_single_step_1d():
    s = baselines.init_ogd(DomainSpec(1, 1.0), baselines.StepSchedule.CONSTANT, 0.1)
    s = baselines.ogd_step(s, np.array([1.0]))
    assert s.w[0] == pytest.approx(-0.1)


def test_ogd_projection_lands_on_boundary():
    s = baselines.init_ogd(DomainSpec(2, 1.0), baselines.StepSchedule.CONSTANT, 10.0)
    s = baselines.ogd_step(s, np.array([1.0, 1.0]))
    assert np.linalg.norm(s.w) == pytest.approx(1.0)
    # direction preserved
    assert s.w[0] == pytest.approx(s.w[1])


def test_ogd_inverse_t_schedule():
    s = baselines.init_ogd(DomainSpec(1, 5.0), baselines.StepSchedule.INVERSE_T, 1.0)
    assert s.step_size() == pytest.approx(1.0)
    s = baselines.ogd_step(s, np.array([1.0]))
    assert s.step_size() == pytest.approx(0.5)


def test_ogd_rejects_nonfinite_gradient():
    s = baselines.init_ogd(DomainSpec(1, 1.0), baselines.StepSchedule.CONSTANT, 0.1)
    with pytest.raises(ValueError):
        baselines.ogd_step(s, np.array([np.nan]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_projection_nonexpansive(seed):
    rng = np.random.default_rng(seed)
    dom = DomainSpec(3, float(rng.uniform(0.5, 2.0)))
    a = 4.0 * rng.standard_normal(3)
    b = 4.0 * rng.standard_normal(3)
    pa, pb = dom.project(a), dom.project(b)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_static_ew_is_mu_zero_ensemble():
    spec = LossSpec.squared_1d()
    dom = DomainSpec(1, 1.0)
    s = ensemble.init(spec, dom, 20, mu=0.0)
    assert s.mu == 0.0
    assert isinstance(s, ensemble.EnsembleState)


def test_static_ew_close_to_fixed_share_on_stationary_stream():
    cfg = bench.ExperimentConfig(
        task="squared1d",
        T=500,
        B=1.0,
        R=0.5,
        noise_sd=0.1,
        seed=2,
        algorithms=("fixed_share",),
    )
    bundle = bench.generate_stream(cfg)
    spec = cfg.loss_spec()
    fs = ensemble.init(spec, cfg.domain(), cfg.T)
    se = ensemble.init(spec, cfg.domain(), cfg.T, mu=0.0)
    for pt in bundle.points:
        assert abs(ensemble.play_round(fs, pt) - ensemble.play_round(se, pt)) <= 0.05
