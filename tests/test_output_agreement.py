"""The per-round loss comparison of tools/output_agreement.py, on hand-made runs."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "output_agreement.py"
_SPEC = importlib.util.spec_from_file_location("output_agreement", _PATH)
output_agreement = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_agreement)


def test_compare_counts_differing_rounds_and_the_largest_relative_difference():
    parent = [
        ["logistic", {"fixed_share": [1.0, 2.0, 0.0], "static_ew": [3.0]}],
        ["logistic", {"fixed_share": [4.0]}],
        ["squared1d", {"fixed_share": [0.5, 0.25]}],
    ]
    change = [
        ["logistic", {"fixed_share": [1.0, 2.0 * (1 + 1e-15), 0.0], "static_ew": [3.0]}],
        ["logistic", {"fixed_share": [4.0 * (1 - 4e-15)]}],
        ["squared1d", {"fixed_share": [0.5, 0.25]}],
    ]
    families = output_agreement.compare(parent, change)
    assert list(families) == ["logistic", "squared1d"]
    assert families["squared1d"] == [1, 2, 0, 0.0]
    configs, rounds, n_differ, max_rel = families["logistic"]
    assert (configs, rounds, n_differ) == (2, 5, 2)
    assert max_rel == pytest.approx(4e-15, rel=1e-3)


@pytest.mark.parametrize("change", [
    [["logistic", {"fixed_share": [1.0, 2.0]}]],
    [["logistic", {"static_ew": [1.0]}]],
    [["squared1d", {"fixed_share": [1.0]}]],
    [],
])
def test_compare_rejects_runs_that_are_not_the_same_rounds(change):
    with pytest.raises(ValueError):
        output_agreement.compare([["logistic", {"fixed_share": [1.0]}]], change)
