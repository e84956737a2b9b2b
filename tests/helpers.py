"""Shared construction helpers for the test suite."""

import numpy as np

from caponplus.arraymodel import (
    ArrayGeometry,
    SourceScene,
    SourceSpec,
    build_cov_model,
)
from caponplus.errors import NotPositiveDefinite


def random_hpd(rng: np.random.Generator, m: int, jitter: float = 1.0) -> np.ndarray:
    """Random Hermitian positive definite matrix ``G G^H + jitter I``."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return g @ g.conj().T + jitter * np.eye(m)


def random_cvector(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def random_scene(rng: np.random.Generator, n_interferers: int = 2) -> SourceScene:
    """Random scene with distinct DOAs and powers in a moderate range."""
    doas = rng.permutation(np.arange(-85.0, 85.0, 2.5))[: n_interferers + 1]
    doas = doas + rng.uniform(-1.0, 1.0, size=doas.size)
    powers = 10.0 ** rng.uniform(-1.0, 1.0, size=n_interferers + 1)
    return SourceScene(
        soi=SourceSpec(float(doas[0]), float(powers[0])),
        interferers=tuple(
            SourceSpec(float(d), float(p)) for d, p in zip(doas[1:], powers[1:])
        ),
        noise_var=float(10.0 ** rng.uniform(-0.5, 0.5)),
    )


def random_model(rng: np.random.Generator, antennas: int = 6, n_interferers: int = 2):
    geom = ArrayGeometry(antennas, 0.5)
    scene = random_scene(rng, n_interferers)
    return geom, scene, build_cov_model(geom, scene)


def reference_cholesky(a: np.ndarray) -> np.ndarray:
    """Column-by-column complex Cholesky with the package's pivot rule.

    The reference for :func:`caponplus.linalg.cholesky`: returns the lower
    factor, or raises ``NotPositiveDefinite`` at the first pivot at or below
    ``M * eps * max(diag)``.
    """
    a = np.asarray(a, dtype=np.complex128)
    m = a.shape[0]
    tol = m * np.finfo(np.float64).eps * float(np.max(a.real.diagonal(), initial=0.0))
    lower = np.zeros_like(a)
    for j in range(m):
        col = a[j:, j] - lower[j:, :j] @ lower[j, :j].conj()
        pivot = col[0].real
        if pivot <= tol:
            raise NotPositiveDefinite(
                f"pivot {pivot:.3e} at index {j} is <= tolerance {tol:.3e}",
                pivot_index=j,
            )
        d = np.sqrt(pivot)
        lower[j, j] = d
        lower[j + 1 :, j] = col[1:] / d
    return lower
