"""The benchmark's workloads and the config text each one hands to mixshare.

Each workload is a `mixshare run` config at fixed T; only the seed
varies between runs. Why each one is here is in README.md.
`BENCHMARK.json` checks `sq1d_mix` and `oco_d3`; `lsq_d8` and
`logistic_d2` are for paired runs by hand.
"""

from __future__ import annotations

WORKLOADS = {
    # Batched per-learner linear algebra at d = 8.
    "lsq_d8": {
        "task": "least_squares", "d": 8, "T": 1000, "B": 3.0, "R": 1.0,
        "drift": "piecewise:10", "jump_norm": 0.5, "algorithms": "fixed_share",
    },
    # The same ensemble at d = 1, where per-round fixed cost and the
    # forecaster dominate; the only workload that reaches `baselines`.
    "sq1d_mix": {
        "task": "squared1d", "d": 1, "T": 2000, "B": 1.0, "R": 1.0,
        "drift": "piecewise:10", "jump_norm": 0.5,
        "algorithms": "fixed_share, static_ew, ogd_inverse_t:1.0",
    },
    # The Newton refit inside `ensemble.observe`; the quadratic path is bypassed.
    "logistic_d2": {
        "task": "logistic", "d": 2, "T": 300, "R": 2.0,
        "drift": "piecewise:3", "jump_norm": 1.0, "algorithms": "fixed_share",
    },
    # The only workload that reaches `oco`: tilt, repair and validate.
    "oco_d3": {
        "task": "oco_quadratic", "d": 3, "T": 600, "R": 1.0, "noise_sd": 0.3,
        "drift": "rotating:0.01", "algorithms": "oco",
    },
}

# Horizon of the short runs that warm caches and of the count self-test.
SHORT_T = 40


def config_text(workload: str, seed: int, T: int | None = None) -> str:
    """The flat `key = value` config of one workload at one seed."""
    values = dict(WORKLOADS[workload], seed=seed)
    if T is not None:
        values["T"] = T
    return "".join(f"{key} = {val}\n" for key, val in values.items())
