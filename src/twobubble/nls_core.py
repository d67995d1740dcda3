"""Periodic spectral representation and split-step propagator.

Evolves i u_t = -Delta u - |u|^(p-1) u on a uniform periodic box with Strang
splitting; sign conventions are fixed so that e^(it) Q is stationary.  One
kernel serves both orders, d = 1 and 2 and either sign of dt: each step runs
in preallocated buffers, transforms in place with scipy.fft, and applies the
nonlinear phase as cos + i sin of dt (re^2 + im^2)^((p-1)/2).  Snapshots are
checked on read and replaced atomically on write.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as sfft

from .errors import IoFailure, Overflow, ResolutionTooLow, StepTooLarge

BLOWUP_FACTOR = 1e3


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L, L)^d with N points per axis."""

    d: int
    N: int
    L: float

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @cached_property
    def axis(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.N)

    @cached_property
    def k_axis(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.h)

    @cached_property
    def x_mesh(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*([self.axis] * self.d), indexing="ij")

    @cached_property
    def k_mesh(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*([self.k_axis] * self.d), indexing="ij")

    @cached_property
    def k_sq(self) -> np.ndarray:
        return sum(k ** 2 for k in self.k_mesh)

    @property
    def cell_volume(self) -> float:
        return self.h ** self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d


@dataclass(frozen=True)
class ComplexField:
    """Complex-valued function sampled on a Grid."""

    grid: Grid
    values: np.ndarray

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.values.copy())

    def conj(self) -> "ComplexField":
        return ComplexField(self.grid, np.conj(self.values))


@dataclass(frozen=True)
class Observables:
    mass: float
    energy: float
    momentum: np.ndarray
    variance: float
    h1: float


def make_grid(d: int, N: int, L: float) -> Grid:
    if d not in (1, 2):
        raise ResolutionTooLow(f"d must be 1 or 2, got {d}")
    if N <= 0 or (N & (N - 1)) != 0:
        raise ResolutionTooLow(f"N must be a power of two, got {N}")
    if L <= 0:
        raise ResolutionTooLow(f"L must be positive, got {L}")
    # max resolved wavenumber N pi / (2L) must reach 8 to capture e^(-|x|) tails
    if N * np.pi / (2.0 * L) < 8.0:
        raise ResolutionTooLow(
            f"max wavenumber {N * np.pi / (2 * L):.3f} below 8; increase N or shrink L")
    return Grid(d=d, N=N, L=float(L))


def field_from_values(grid: Grid, values) -> ComplexField:
    values = np.asarray(values, dtype=complex)
    if values.shape != grid.shape:
        raise ResolutionTooLow(f"values shape {values.shape} != grid {grid.shape}")
    if not np.all(np.isfinite(values)):
        raise Overflow("non-finite values in field")
    return ComplexField(grid, values)


def reflect(u: ComplexField) -> ComplexField:
    """Values at -x, using the periodic identification of the box."""
    v = u.values
    for ax in range(u.grid.d):
        v = np.roll(np.flip(v, axis=ax), 1, axis=ax)
    return ComplexField(u.grid, v)


def gradient(u: ComplexField) -> list[np.ndarray]:
    """Spectral gradient, one array per axis."""
    uh = np.fft.fftn(u.values)
    return [np.fft.ifftn(1j * k * uh) for k in u.grid.k_mesh]


def laplacian(u: ComplexField) -> np.ndarray:
    return np.fft.ifftn(-u.grid.k_sq * np.fft.fftn(u.values))


def integrate(grid: Grid, values: np.ndarray) -> float:
    return float(np.sum(values).real) * grid.cell_volume


def l2_norm_sq(u: ComplexField) -> float:
    return integrate(u.grid, np.abs(u.values) ** 2)


def h1_norm_sq(u: ComplexField) -> float:
    """Spectral H1 norm squared, ||u||^2 + sum |xi|^2 |u_hat|^2."""
    uh = np.fft.fftn(u.values)
    w = (1.0 + u.grid.k_sq) * np.abs(uh) ** 2
    return float(np.sum(w)) * u.grid.cell_volume / u.grid.N ** u.grid.d


def observables(u: ComplexField, p: float) -> Observables:
    """Mass, energy, momentum, variance and H1 norm of a field."""
    g = u.grid
    absu2 = np.abs(u.values) ** 2
    mass = integrate(g, absu2)
    grads = gradient(u)
    grad_sq = sum(integrate(g, np.abs(gr) ** 2) for gr in grads)
    energy = 0.5 * grad_sq - integrate(g, np.abs(u.values) ** (p + 1)) / (p + 1.0)
    momentum = np.array([integrate(g, (gr * np.conj(u.values)).imag)
                         for gr in grads])
    variance = integrate(g, sum(x ** 2 for x in g.x_mesh) * absu2)
    h1 = np.sqrt(mass + grad_sq)
    return Observables(mass=mass, energy=energy, momentum=momentum,
                       variance=variance, h1=float(h1))


def write_atomically(path, what: str, *chunks) -> None:
    """Write the byte buffers ``chunks`` (bytes or contiguous arrays) as one file.

    The file is written under a temporary name in the same directory and
    moved into place, so a reader never sees a partial file.  An ``OSError``
    removes the temporary file and raises ``IoFailure`` naming ``what``.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise IoFailure(f"cannot write {what} {path}: {exc}") from exc


def write_snapshot(path, u: ComplexField, t: float) -> None:
    """Flat little-endian snapshot: header (d, N, L, t) then re/im doubles.

    Written through ``write_atomically``, so a reader never sees a partial
    snapshot.
    """
    header = np.array([u.grid.d, u.grid.N, u.grid.L, t], dtype="<f8")
    flat = u.values.ravel()
    body = np.empty(2 * flat.size, dtype="<f8")
    body[0::2] = flat.real
    body[1::2] = flat.imag
    write_atomically(path, "snapshot", header, body)


def read_snapshot(path) -> tuple[ComplexField, float]:
    """Read a snapshot, checking its header against the body length."""
    try:
        raw = np.fromfile(path, dtype="<f8")
    except OSError as exc:
        raise IoFailure(f"cannot read snapshot {path}: {exc}") from exc
    if raw.size < 4:
        raise IoFailure(f"snapshot {path}: {raw.size} doubles, shorter than the header")
    d, N, L, t = raw[:4]
    if d not in (1.0, 2.0):
        raise IoFailure(f"snapshot {path}: dimension {d} is not 1 or 2")
    if not (1.0 <= N <= 2.0 ** 30 and N == int(N) and int(N) & (int(N) - 1) == 0):
        raise IoFailure(f"snapshot {path}: N = {N} is not a power of two")
    if not (np.isfinite(L) and L > 0 and np.isfinite(t)):
        raise IoFailure(f"snapshot {path}: bad header L = {L}, t = {t}")
    d, N = int(d), int(N)
    body = raw[4:]
    if body.size != 2 * N ** d:
        raise IoFailure(f"snapshot {path}: body has {body.size} doubles, "
                        f"header (d={d}, N={N}) needs {2 * N ** d}")
    grid = make_grid(d, N, float(L))
    values = (body[0::2] + 1j * body[1::2]).reshape(grid.shape)
    return ComplexField(grid, values), float(t)


def _strang_chunk(values: np.ndarray, k_sq: np.ndarray, dt: float, p: float,
                  n_steps: int, guard: float, weights: tuple[float, ...]) -> np.ndarray:
    """n_steps of Strang splitting, drift-first with merged half drifts.

    A step is the composition of Strang sub-steps of size w * dt, w in
    weights; the half drifts that meet between sub-steps and between steps
    are merged into one linear factor, and the last step ends on the closing
    half drift.  The first forward transform writes a new array, so the
    caller's values are never touched; every later transform and product
    runs in place on the kernel's own buffers.  The nonlinear phase
    dt |v|^(p-1) is built from re^2 + im^2 and applied as cos + i sin.  The
    guard is checked after every 64th step and after the last; a check
    raises Overflow past the sup-norm guard and StepTooLarge once
    dt sup^(p-1) reaches 1.
    """
    halves = [np.exp(-0.5j * w * dt * k_sq) for w in weights]
    joins = [h * halves[(j + 1) % len(halves)] for j, h in enumerate(halves)]
    fft, ifft = (sfft.fft, sfft.ifft) if values.ndim == 1 else (sfft.fftn, sfft.ifftn)
    half_power = 0.5 * (p - 1.0)
    squares = np.empty(values.shape[:-1] + (2 * values.shape[-1],))
    phase = np.empty(values.shape)
    rot = np.empty(values.shape, dtype=complex)
    v = fft(np.asarray(values, dtype=complex))
    v *= halves[0]
    v = ifft(v, overwrite_x=True)
    last = len(weights) - 1
    for step in range(n_steps):
        closing = step == n_steps - 1
        for j, w in enumerate(weights):
            # |v|^2 as the pairwise sum of the squared re/im doubles
            np.square(v.view(np.float64), out=squares)
            np.add(squares[..., 0::2], squares[..., 1::2], out=phase)
            if half_power != 1.0:
                np.power(phase, half_power, out=phase)
            phase *= w * dt
            np.cos(phase, out=rot.real)
            np.sin(phase, out=rot.imag)
            v *= rot
            v = fft(v, overwrite_x=True)
            v *= halves[last] if closing and j == last else joins[j]
            v = ifft(v, overwrite_x=True)
        if not step % 64 or closing:
            m = float(np.max(np.abs(v)))
            if not np.isfinite(m) or m > guard:
                raise Overflow(f"sup-norm {m:.3e} exceeded blow-up guard {guard:.3e} "
                               f"at step {step}")
            bound = abs(dt) * m ** (p - 1.0)
            if bound >= 1.0:
                raise StepTooLarge(f"per-step nonlinear phase {bound:.3f} >= 1 at step {step}")
    return v


def propagate(u: ComplexField, dt: float, n_steps: int, p: float,
              order: int = 2, blowup_factor: float = BLOWUP_FACTOR) -> ComplexField:
    """Advance the field by n_steps * dt; dt may be negative.

    order=2 is plain Strang; order=4 is the triple-jump composition of Strang
    steps, for convergence studies.
    """
    if n_steps <= 0:
        return u.copy()
    sup0 = float(np.max(np.abs(u.values)))
    bound = abs(dt) * sup0 ** (p - 1.0)
    if bound >= 1.0:
        raise StepTooLarge(f"per-step nonlinear phase {bound:.3f} >= 1")
    guard = blowup_factor * max(sup0, 1e-300)
    if order == 2:
        weights = (1.0,)
    elif order == 4:
        w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
        weights = (w1, 1.0 - 2.0 * w1, w1)
    else:
        raise StepTooLarge(f"unsupported order {order}")
    g = u.grid
    return ComplexField(g, _strang_chunk(u.values, g.k_sq, dt, p, n_steps, guard, weights))
