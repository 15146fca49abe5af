import sys

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(func) wraps func wherever a resonance_atlas module holds
    it and returns a one-element list that counts the calls."""

    def install(func):
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return func(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "resonance_atlas" or name.startswith("resonance_atlas."):
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        monkeypatch.setattr(mod, attr, counted)
        return calls

    return install
