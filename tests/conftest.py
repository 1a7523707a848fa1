import sys

import numpy as np
import pytest

from robustspec.spectral import make_psd

#: One master seed drives every randomized suite in this test tree.
MASTER_SEED = 2026

#: Case count for the per-module invariant runs; the acceptance gate re-runs
#: every suite at 200 cases.
MODULE_CASES = 60


def patch_everywhere(monkeypatch, original, replacement):
    """Replace `original` on every robustspec module that binds it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "robustspec":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def count_form_builds(monkeypatch):
    """List that gains one entry, the model's n, each time a scorer's rows
    are built by `ToeplitzGaussian.whitener`."""
    from robustspec.gaussian_model import ToeplitzGaussian

    original = ToeplitzGaussian.whitener
    builds = []

    def counting(model):
        builds.append(model.n)
        return original(model)

    monkeypatch.setattr(ToeplitzGaussian, "whitener", counting)
    return builds


#: One model of each non-flat family, for checks of the scoring algebra.
SCORED_PSDS = {
    "ar1": make_psd("rational_ar1", grid_size=4096, variance=1.5, pole=0.7),
    "raised_cosine": make_psd(
        "raised_cosine", grid_size=4096, peak=2.0, center=0.8, width=1.5
    ),
    "tabulated": make_psd(
        "tabulated", grid_size=64, values=1.0 + np.cos(np.linspace(0.0, np.pi, 64)) ** 2
    ),
}


def flat_set(levels, grid_size=256):
    return tuple(
        make_psd("flat", grid_size=grid_size, level=lv, label=f"flat{lv:g}")
        for lv in levels
    )


@pytest.fixture
def rng():
    return np.random.default_rng(MASTER_SEED)
