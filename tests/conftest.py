"""Shared fixtures.

Synthesis runs are the expensive part of this suite, so canonical
results (the 26-core benchmark at representative island counts) are
computed once per session and shared read-only across test modules.
"""

from __future__ import annotations

import gc

import pytest

from repro import SoCSpec, SynthesisConfig, mobile_soc_26, synthesize
from repro.soc.partitioning import communication_partitioning, logical_partitioning

from _helpers import make_tiny_spec


@pytest.fixture(autouse=True)
def _gc_state_unchanged():
    """Fail a test that leaves the cyclic GC switched or retuned.

    Synthesis pauses the collector and must hand it back as it found
    it; a test that leaks a change would hide that from every later
    test.  The state is put back before the failure is reported.
    """
    before = (gc.isenabled(), gc.get_threshold())
    yield
    after = (gc.isenabled(), gc.get_threshold())
    if after != before:
        (gc.enable if before[0] else gc.disable)()
        gc.set_threshold(*before[1])
        pytest.fail("cyclic GC (enabled, threshold) changed: %r -> %r" % (before, after))


@pytest.fixture(scope="session")
def tiny_spec() -> SoCSpec:
    """Two-island 6-core spec."""
    return make_tiny_spec(2)


@pytest.fixture(scope="session")
def tiny_spec_1isl() -> SoCSpec:
    """Single-island variant of the tiny spec."""
    return make_tiny_spec(1)


@pytest.fixture(scope="session")
def d26() -> SoCSpec:
    """The 26-core mobile SoC (single island, as constructed)."""
    return mobile_soc_26()


@pytest.fixture(scope="session")
def d26_log6(d26) -> SoCSpec:
    """d26 under 6-island logical partitioning, keeping its name."""
    s = logical_partitioning(d26, 6)
    return s.with_vi_assignment(s.vi_assignment, name=d26.name)


@pytest.fixture(scope="session")
def d26_com4(d26) -> SoCSpec:
    """d26 under 4-island communication-based partitioning."""
    s = communication_partitioning(d26, 4)
    return s.with_vi_assignment(s.vi_assignment, name=d26.name)


@pytest.fixture(scope="session")
def tiny_space(tiny_spec):
    """Design space of the tiny two-island spec."""
    return synthesize(tiny_spec)


@pytest.fixture(scope="session")
def tiny_best(tiny_space):
    """Best-power design point of the tiny spec."""
    return tiny_space.best_by_power()


@pytest.fixture(scope="session")
def d26_space(d26_log6):
    """Design space of d26 at 6 logical islands (shared, read-only)."""
    return synthesize(d26_log6, config=SynthesisConfig(max_intermediate=2))


@pytest.fixture(scope="session")
def d26_best(d26_space):
    """Best-power d26 design point (shared, read-only)."""
    return d26_space.best_by_power()
