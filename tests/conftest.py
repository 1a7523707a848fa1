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


def flat_set(levels, grid_size=256):
    return tuple(
        make_psd("flat", grid_size=grid_size, level=lv, label=f"flat{lv:g}")
        for lv in levels
    )


@pytest.fixture
def rng():
    return np.random.default_rng(MASTER_SEED)
