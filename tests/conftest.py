import multiprocessing
import os

# OpenBLAS and OpenMP read their thread counts when numpy loads, so they are
# pinned here, before any test module imports numpy, as bench/run.py pins
# them, so that the tests run the numerics as the benchmark does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from twobubble.experiments import ShootConfig, bisect_zeta  # noqa: E402
from twobubble.groundstate import solve_profile, structure_constants  # noqa: E402
from twobubble.nls_core import make_grid  # noqa: E402


@pytest.fixture(autouse=True)
def no_leaked_workers():
    # every shot ends its propagation worker, whatever way it ends
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def gs1():
    return solve_profile(3.0, 1)


@pytest.fixture(scope="session")
def sc1(gs1):
    return structure_constants(gs1)


@pytest.fixture(scope="session")
def gs2():
    return solve_profile(3.0, 2)


@pytest.fixture(scope="session")
def gs18():
    return solve_profile(1.8, 1)


@pytest.fixture(scope="session")
def gs145():
    return solve_profile(1.45, 1)


@pytest.fixture(scope="session")
def grid_2048_32():
    return make_grid(1, 2048, 32.0)


@pytest.fixture(scope="session")
def grid_2048_64():
    return make_grid(1, 2048, 64.0)


@pytest.fixture(scope="session")
def grid_1024_32():
    return make_grid(1, 1024, 32.0)


@pytest.fixture(scope="session")
def shoot_outcome(gs1, sc1):
    """The desk-scale topological shooting experiment, run once per session."""
    import time

    config = ShootConfig(s_in=300.0, s0=30.0, N=2048, L=64.0, dt=2e-3)
    t0 = time.perf_counter()
    out = bisect_zeta(config, gs1, sc1)
    out["elapsed"] = time.perf_counter() - t0
    out["config"] = config
    return out


def random_smooth_field(grid, rng, envelope_scale=None, k_decay=0.25):
    """Localized band-limited complex noise, shared across test modules."""
    if envelope_scale is None:
        envelope_scale = grid.L / 4.0
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    smooth = np.fft.ifftn(np.exp(-k_decay * grid.k_sq) * np.fft.fftn(noise))
    return smooth * np.exp(-sum(x ** 2 for x in grid.x_mesh) / envelope_scale ** 2)
