import numpy as np
import pytest
from scipy.integrate import simpson

from twobubble import nls_core as nc
from twobubble.errors import IoFailure, Overflow, ResolutionTooLow, StepTooLarge

from oracles import strang_reference


def soliton_field(gs, grid, boost=0.0, amp=1.0):
    vals = amp * gs.q_at(np.abs(grid.axis)) * np.exp(1j * boost * grid.axis)
    return nc.field_from_values(grid, vals)


def test_make_grid_examples():
    g = nc.make_grid(1, 2048, 64.0)
    assert g.h == pytest.approx(0.0625)
    with pytest.raises(ResolutionTooLow):
        nc.make_grid(1, 16, 64.0)
    assert nc.make_grid(2, 512, 32.0).d == 2
    with pytest.raises(ResolutionTooLow):
        nc.make_grid(1, 1000, 32.0)  # not a power of two


def test_stationary_soliton(gs1, grid_2048_32):
    u = soliton_field(gs1, grid_2048_32)
    out = nc.propagate(u, 1e-3, 1000, 3.0)
    err = np.max(np.abs(out.values - np.exp(1j) * u.values))
    assert err < 1e-6


def test_fourth_order_composition(gs1, grid_2048_32):
    u = soliton_field(gs1, grid_2048_32)
    out = nc.propagate(u, 1e-3, 1000, 3.0, order=4)
    assert np.max(np.abs(out.values - np.exp(1j) * u.values)) < 1e-10


def test_galilean_boost(gs1, grid_2048_64):
    beta = 0.5
    u = soliton_field(gs1, grid_2048_64, boost=0.5 * beta)
    out = nc.propagate(u, 1e-3, 10000, 3.0)
    m = np.abs(out.values) ** 2
    center = np.sum(grid_2048_64.axis * m) / np.sum(m)
    assert abs(center - beta * 10.0) < 1e-4


def test_conjugation_reversal(gs1, grid_2048_32):
    u = soliton_field(gs1, grid_2048_32, boost=0.2)
    fwd = nc.propagate(u, 1e-3, 1000, 3.0)
    back = nc.propagate(fwd.conj(), 1e-3, 1000, 3.0)
    assert np.max(np.abs(back.values - np.conj(u.values))) < 1e-6


def test_negative_dt_reversal(gs1, grid_2048_32):
    u = soliton_field(gs1, grid_2048_32, boost=0.2)
    fwd = nc.propagate(u, 1e-3, 500, 3.0)
    back = nc.propagate(fwd, -1e-3, 500, 3.0)
    assert np.max(np.abs(back.values - u.values)) < 1e-9


def test_observables_soliton(gs1, grid_2048_32):
    # quadrature oracle on the radial samples
    grad_sq = 2.0 * simpson(gs1.dq ** 2, x=gs1.r)
    quartic = 2.0 * simpson(gs1.q ** 4, x=gs1.r)
    energy_oracle = 0.5 * grad_sq - 0.25 * quartic
    u = soliton_field(gs1, grid_2048_32)
    obs = nc.observables(u, 3.0)
    assert abs(obs.mass - 4.0) < 1e-9
    assert abs(obs.energy - energy_oracle) < 1e-9
    assert abs(obs.energy - (-2.0 / 3.0)) < 1e-9
    assert np.max(np.abs(obs.momentum)) < 1e-12
    assert obs.h1 == pytest.approx(np.sqrt(obs.mass + grad_sq), rel=1e-9)


def test_momentum_phase_identity(gs1, grid_2048_32):
    beta = 0.37
    u = soliton_field(gs1, grid_2048_32, boost=beta)
    obs = nc.observables(u, 3.0)
    assert obs.momentum[0] == pytest.approx(beta * obs.mass, rel=1e-10)


def test_mass_conservation(gs1, grid_2048_32):
    u = soliton_field(gs1, grid_2048_32, boost=0.1, amp=1.1)
    m0 = nc.observables(u, 3.0).mass
    out = nc.propagate(u, 1e-3, 10000, 3.0)
    assert abs(nc.observables(out, 3.0).mass - m0) / m0 < 1e-10


def test_energy_drift_second_order(gs1, grid_2048_32):
    u = soliton_field(gs1, grid_2048_32, boost=0.3, amp=1.2)
    obs0 = nc.observables(u, 3.0)
    out_coarse = nc.observables(nc.propagate(u, 2e-3, 500, 3.0), 3.0)
    out_fine = nc.observables(nc.propagate(u, 1e-3, 1000, 3.0), 3.0)
    d_coarse = abs(out_coarse.energy - obs0.energy)
    d_fine = abs(out_fine.energy - obs0.energy)
    assert 3.0 < d_coarse / d_fine < 5.0
    # splitting is translation invariant: momentum conserved to roundoff
    assert abs(out_fine.momentum[0] - obs0.momentum[0]) < 1e-11


def test_critical_virial(grid_2048_32):
    # p = 5 is L2-critical in d = 1: variance acceleration equals 16 E
    p = 5.0
    g = grid_2048_32
    u = nc.field_from_values(g, 0.8 / np.cosh(g.axis) * np.exp(0.2j * g.axis))
    E = nc.observables(u, p).energy
    h, dt = 0.02, 1e-4
    n = int(h / dt)
    vp = nc.observables(nc.propagate(u, dt, n, p), p).variance
    vm = nc.observables(nc.propagate(u, -dt, n, p), p).variance
    v0 = nc.observables(u, p).variance
    d2v = (vp - 2.0 * v0 + vm) / h ** 2
    assert abs(d2v - 16.0 * E) < 0.02 * abs(16.0 * E)


def test_shift_equivariance(gs1, grid_1024_32):
    u = soliton_field(gs1, grid_1024_32, boost=0.1)
    shifted = nc.ComplexField(grid_1024_32, np.roll(u.values, 37))
    a = nc.propagate(shifted, 1e-3, 200, 3.0)
    b = nc.ComplexField(grid_1024_32, np.roll(nc.propagate(u, 1e-3, 200, 3.0).values, 37))
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_step_too_large(gs1, grid_1024_32):
    u = soliton_field(gs1, grid_1024_32, amp=3.0)
    with pytest.raises(StepTooLarge):
        nc.propagate(u, 0.2, 10, 3.0)


def test_step_too_large_during_a_chunk(grid_1024_32):
    # the phase bound holds at the start (0.29) and breaks as the pulse focuses
    g = grid_1024_32
    u = nc.field_from_values(g, 2.5 / np.cosh(g.axis))
    with pytest.raises(StepTooLarge, match=r"phase \d\.\d+ >= 1 at step 192"):
        nc.propagate(u, 3e-4, 6656, 6.0)


def test_blowup_guard(grid_1024_32):
    # supercritical focusing pulse trips the sup-norm guard; the factor is
    # tightened so the guard fires before the resolvable range is exhausted
    g = grid_1024_32
    u = nc.field_from_values(g, 2.5 / np.cosh(g.axis))
    with pytest.raises(Overflow):
        nc.propagate(u, 1e-5, 200000, 6.0, blowup_factor=2.0)


def test_reflect_involution(grid_1024_32):
    rng = np.random.default_rng(0)
    u = nc.ComplexField(grid_1024_32,
                        rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
    twice = nc.reflect(nc.reflect(u))
    assert np.array_equal(twice.values, u.values)


def test_snapshot_roundtrip(tmp_path, gs1, grid_1024_32):
    u = soliton_field(gs1, grid_1024_32, boost=0.25)
    path = tmp_path / "field.snap"
    nc.write_snapshot(path, u, 1.75)
    v, t = nc.read_snapshot(path)
    assert t == 1.75
    assert v.grid == u.grid
    assert np.array_equal(v.values, u.values)
    assert [f.name for f in tmp_path.iterdir()] == ["field.snap"]


def test_snapshot_truncated(tmp_path, gs1, grid_1024_32):
    path = tmp_path / "field.snap"
    nc.write_snapshot(path, soliton_field(gs1, grid_1024_32), 0.5)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(IoFailure, match="body"):
        nc.read_snapshot(path)
    path.write_bytes(raw[:16])
    with pytest.raises(IoFailure, match="header"):
        nc.read_snapshot(path)


def test_snapshot_header_not_power_of_two(tmp_path):
    path = tmp_path / "field.snap"
    header = np.array([1.0, 1000.0, 32.0, 0.0], dtype="<f8")
    body = np.zeros(2 * 1000, dtype="<f8")
    path.write_bytes(header.tobytes() + body.tobytes())
    with pytest.raises(IoFailure, match="power of two"):
        nc.read_snapshot(path)


def test_snapshot_write_failure(tmp_path, gs1, grid_1024_32):
    with pytest.raises(IoFailure):
        nc.write_snapshot(tmp_path / "no_dir" / "field.snap",
                          soliton_field(gs1, grid_1024_32), 0.0)
    assert list(tmp_path.iterdir()) == []


def test_2d_grid_observables(gs2):
    g = nc.make_grid(2, 256, 16.0)
    r = np.sqrt(sum(x ** 2 for x in g.x_mesh))
    u = nc.field_from_values(g, gs2.q_at(r))
    obs = nc.observables(u, 3.0)
    from twobubble.groundstate import structure_constants
    assert obs.mass == pytest.approx(structure_constants(gs2).l2, rel=1e-8)
    assert np.max(np.abs(obs.momentum)) < 1e-12


def reference_propagate(u, dt, n_steps, p, order):
    """The split-step composition of propagate, on the allocating oracle loop."""
    def lin(w):
        return np.exp(-0.5j * w * dt * u.grid.k_sq)

    if order == 2:
        return strang_reference(u.values, lin(1.0), dt, p, n_steps, np.inf)
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    w0 = 1.0 - 2.0 * w1
    v = u.values
    for _ in range(n_steps):
        for w in (w1, w0, w1):
            v = strang_reference(v, lin(w), w * dt, p, 1, np.inf)
    return v


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("dt", [1e-3, -1e-3])
@pytest.mark.parametrize("p, d, N, L, gs_name", [
    (3.0, 1, 2048, 64.0, "gs1"), (1.8, 1, 2048, 64.0, "gs18"), (3.0, 2, 64, 12.0, "gs2")])
def test_kernel_matches_reference(request, p, d, N, L, gs_name, dt, order):
    gs = request.getfixturevalue(gs_name)
    grid = nc.make_grid(d, N, L)
    # two boosted bubbles of unequal mass, so both flows are nontrivial
    r1 = np.sqrt(sum((x - (2.0 if m == 0 else 0.0)) ** 2 for m, x in enumerate(grid.x_mesh)))
    r2 = np.sqrt(sum((x + (2.0 if m == 0 else 0.0)) ** 2 for m, x in enumerate(grid.x_mesh)))
    vals = (1.1 * gs.q_at(r1) * np.exp(0.3j * grid.x_mesh[0])
            + 0.9 * gs.q_at(r2) * np.exp(-0.2j * grid.x_mesh[0]))
    u = nc.field_from_values(grid, vals)
    before = u.values.copy()
    out = nc.propagate(u, dt, 250, p, order=order)
    ref = reference_propagate(u, dt, 250, p, order)
    assert np.max(np.abs(out.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(u.values, before)
    assert not np.shares_memory(out.values, u.values)
