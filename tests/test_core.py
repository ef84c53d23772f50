import numpy as np
import pytest

from mixshare.core import (
    DataPoint,
    DomainSpec,
    LabelRangeError,
    LossKind,
    LossSpec,
    dynamic_regret,
    logistic_loss,
    path_length,
)
from mixshare.forecasters import GaussianMixture, ScalarGaussianMixture
from mixshare.gaussian import GaussianDist
from mixshare.oco import MixtureInM
from mixshare.posterior import QuadraticPosterior
from mixshare.verification import GridDensity


def test_squared_spec_default_eta():
    spec = LossSpec.squared_1d(B=2.0)
    assert spec.eta == pytest.approx(1.0 / 8.0)
    assert spec.kind == LossKind.SQUARED_1D


def test_logistic_spec_default_eta():
    assert LossSpec.logistic().eta == 1.0


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LossSpec.squared_1d(B=-1.0)
    with pytest.raises(ValueError):
        LossSpec.squared_1d(B=np.nan)
    with pytest.raises(ValueError):
        LossSpec.least_squares(B=np.inf)


@pytest.mark.parametrize("make", [LossSpec.squared_1d, LossSpec.least_squares, LossSpec.logistic])
def test_spec_rate_is_not_settable(make):
    # every closed form assumes the family's own rate, so none can be passed
    with pytest.raises(TypeError):
        make(eta=0.05)
    with pytest.raises(AttributeError):
        make().eta = 0.05


def test_spec_check_label_and_loss():
    sq, lg = LossSpec.squared_1d(B=2.0), LossSpec.logistic()
    sq1, ls = LossSpec.squared_1d(B=1.0), LossSpec.least_squares(B=1.0)
    sq.check_label(-2.0)
    lg.check_label(-1.0)
    ls.check_label(-0.5)
    for spec, y in ((sq, 2.5), (sq1, 1.5), (ls, -1.5), (lg, 0.5), (lg, 0.0)):
        with pytest.raises(LabelRangeError):
            spec.check_label(y)
    assert sq.loss(0.5, 2.0) == 2.25
    assert sq1.loss(0.0, 0.5) == pytest.approx(0.25)
    # least squares is evaluated on the score w'x, like every other family
    assert ls.loss(0.25, -0.5) == pytest.approx(0.5625)
    assert lg.loss(0.0, -1.0) == pytest.approx(np.log(2.0))


def test_logistic_loss_stable_for_large_scores():
    assert logistic_loss(1000.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert logistic_loss(-1000.0, 1.0) == pytest.approx(1000.0)
    assert logistic_loss(0.0, -1.0) == pytest.approx(np.log(2.0))


def test_domain_projection():
    dom = DomainSpec(2, 1.0)
    w = np.array([3.0, 4.0])
    proj = dom.project(w)
    assert np.linalg.norm(proj) == pytest.approx(1.0)
    # direction preserved
    assert np.allclose(proj, w / 5.0)
    # idempotent
    assert np.allclose(dom.project(proj), proj)


def test_domain_contains_interior_point():
    dom = DomainSpec(3, 2.0, center=np.array([1.0, 0.0, 0.0]))
    assert dom.contains(np.array([2.0, 0.5, 0.0]))
    assert not dom.contains(np.array([4.0, 0.0, 0.0]))
    assert dom.diameter == 4.0


@pytest.mark.parametrize("R", [0.0, -1.0, np.nan, np.inf])
def test_domain_rejects_bad_radius(R):
    with pytest.raises(ValueError):
        DomainSpec(2, R)


@pytest.mark.parametrize("d", [True, 2.5, 2.0, "2", None])
def test_domain_rejects_a_dimension_that_is_not_an_int(d):
    with pytest.raises(TypeError, match="dimension d"):
        DomainSpec(d, 1.0)


@pytest.mark.parametrize("center", [[np.nan, 0.0], [0.0, np.inf]], ids=["nan", "inf"])
def test_domain_rejects_a_center_that_is_not_finite(center):
    # a NaN center would make project return NaN rows and surface only in an OCO round
    with pytest.raises(ValueError, match="center must be finite"):
        DomainSpec(2, 1.0, center=np.array(center))


def test_domain_keeps_a_read_only_copy_of_the_center():
    c = np.array([0.5, -0.5])
    dom = DomainSpec(2, 1.0, center=c)
    c[0] = np.nan
    assert np.array_equal(dom.center, [0.5, -0.5])
    for center in (dom.center, DomainSpec(2, 1.0).center):
        assert not center.flags.writeable
        with pytest.raises(ValueError):
            center[0] = 1.0


def test_domain_stack_is_row_wise():
    rng = np.random.default_rng(7)
    dom = DomainSpec(3, 1.0, center=np.array([0.5, 0.0, -0.5]))
    stack = dom.center + rng.uniform(-1.5, 1.5, size=(40, 3))
    inside = [dom.contains(row) for row in stack]
    assert 0 < sum(inside) < len(inside)
    assert np.array_equal(dom.project(stack), np.stack([dom.project(row) for row in stack]))
    assert dom.contains(dom.project(stack))
    assert not dom.contains(stack)
    assert dom.contains(stack[inside])


@pytest.mark.parametrize("x, y", [([1.0, np.nan], 0.0), ([1.0, np.inf], 0.0), ([1.0, 0.0], np.nan), ([1.0, 0.0], -np.inf)])
def test_data_point_rejects_non_finite(x, y):
    with pytest.raises(ValueError):
        DataPoint(np.array(x), y)


def test_data_point_keeps_a_read_only_copy_of_x():
    x = np.ones(2)
    pt = DataPoint(x, 0.5)
    x[0] = np.nan
    assert np.array_equal(pt.x, [1.0, 1.0])
    with pytest.raises(ValueError):
        pt.x[0] = np.nan
    assert np.array_equal(pt.x, [1.0, 1.0])


def test_path_length_stationary_is_zero():
    assert path_length(np.zeros((5, 2))) == 0.0


def test_path_length_known_jumps():
    # a list of rows or the (T, d) array it stacks to
    rows = [np.zeros(1), np.ones(1), np.ones(1), np.array([-1.0])]
    assert path_length(rows) == pytest.approx(3.0)
    assert path_length(np.array(rows)) == path_length(rows)


def test_path_length_single_point():
    assert path_length(np.zeros((1, 1))) == 0.0
    with pytest.raises(ValueError, match="non-empty"):
        path_length(np.zeros((0, 1)))


def test_dynamic_regret_constant_gap():
    rep = dynamic_regret([1.0, 1.0], [0.0, 0.0])
    assert np.allclose(rep.cum_dynamic_regret, [1.0, 2.0])


def test_dynamic_regret_length_mismatch():
    with pytest.raises(ValueError):
        dynamic_regret([1.0], [0.0, 0.0])


def _two_gaussians():
    return GaussianMixture(np.log([0.5, 0.5]), np.zeros((2, 2)), np.stack([np.eye(2), np.eye(2)]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: GaussianDist(np.zeros(2), np.eye(2)),
        lambda: ScalarGaussianMixture.from_weights([1.0, 1.0], [0.0, 1.0], [1.0, 1.0]),
        _two_gaussians,
        lambda: MixtureInM(_two_gaussians(), 10),
        lambda: DomainSpec(2, 1.0),
        lambda: DataPoint(np.ones(2), 1.0),
        lambda: QuadraticPosterior.from_anchor(np.zeros(2)),
        lambda: GridDensity(-1.0, 1.0, np.ones(5)),
    ],
    ids=["GaussianDist", "ScalarGaussianMixture", "GaussianMixture", "MixtureInM", "DomainSpec", "DataPoint",
         "QuadraticPosterior", "GridDensity"],
)
def test_array_dataclasses_compare_by_identity_without_raising(make):
    # a field-wise == would compare numpy arrays and raise on their truth value
    a, b = make(), make()
    assert a == a
    assert not a == b
    assert a != b
