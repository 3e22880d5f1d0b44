"""Shared fixtures and hypothesis configuration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Keep property tests fast enough for CI-style runs while exercising a
# meaningful search space; the "thorough" profile is for local deep runs
# (select with HYPOTHESIS_PROFILE=thorough).
settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", max_examples=500, deadline=None)
settings.load_profile("default")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def python_tier(monkeypatch):
    """Turn the compiled kernels off for one test, as
    ``REPRO_NO_CKERNEL=1`` does for a whole process: the kernel library
    is looked up afresh, so every replay, ``quiet_apply`` and the tick
    walk take their python tier."""
    from repro.core import rngadvance

    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    monkeypatch.setattr(rngadvance, "_lib", None)
