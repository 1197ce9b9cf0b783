import numpy as np
import pytest
from hypothesis import settings

from nskrt import SlabConfig, make_linear_profile

REFERENCE_KAPPA_C = 1.0 / (np.pi**2 + 1.0)  # linear profile, g=h=L=slope=1

# reproducible properties: a fixed example sequence, no wall-clock
# deadline (a busy 2-core host stretches single examples), and a bounded
# example count so the properties stay a few seconds of the fast suite
settings.register_profile("nskrt", derandomize=True, deadline=None,
                          max_examples=25, database=None)
settings.load_profile("nskrt")


@pytest.fixture
def slab():
    return SlabConfig(g=1.0, mu=0.1, kappa=0.0, L=1.0, h=1.0)


@pytest.fixture
def linear_profile(slab):
    return make_linear_profile(1.0, 1.0, slab, N=128)
