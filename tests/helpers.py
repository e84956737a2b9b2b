"""Shared construction helpers for the test suite."""

import numpy as np

from caponplus.arraymodel import (
    ArrayGeometry,
    SourceScene,
    SourceSpec,
    build_cov_model,
    steering_vector,
)
from caponplus.errors import NotPositiveDefinite
from caponplus.signalsim import SnapshotBatch, StreamRole, WaveformKind


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


def _reference_stream(master_seed: int, trial_index: int, role: StreamRole) -> np.random.Generator:
    seq = np.random.SeedSequence(master_seed, spawn_key=(trial_index, int(role)))
    return np.random.Generator(np.random.PCG64(seq))


def _reference_waveform(
    kind: WaveformKind, gamma: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    if kind is WaveformKind.CIRCULAR_GAUSSIAN:
        z = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        return np.sqrt(gamma / 2.0) * z
    phases = rng.integers(0, 8, size=count) * (2.0 * np.pi / 8.0)
    return np.sqrt(gamma) * np.exp(1j * phases)


def _reference_interference(
    geom: ArrayGeometry,
    scene: SourceScene,
    kind: WaveformKind,
    count: int,
    wave_rng: np.random.Generator,
    noise_rng: np.random.Generator,
) -> np.ndarray:
    m = geom.antennas
    if scene.interferers:
        a_int = np.column_stack([steering_vector(geom, s.doa_deg) for s in scene.interferers])
        waves = np.column_stack(
            [_reference_waveform(kind, s.power, count, wave_rng) for s in scene.interferers]
        )
        e = waves @ a_int.T
    else:
        e = np.zeros((count, m), dtype=np.complex128)
    noise = noise_rng.standard_normal((count, m)) + 1j * noise_rng.standard_normal((count, m))
    e += np.sqrt(scene.noise_var / 2.0) * noise
    return e


def reference_synth_scene_snapshots(
    geom: ArrayGeometry, scene: SourceScene, kind: WaveformKind, count: int,
    master_seed: int, trial_index: int,
) -> SnapshotBatch:
    """The reference for :func:`caponplus.signalsim.synth_scene_snapshots`.

    One draw call per interferer and per real or imaginary part, with each
    role's stream seeded through ``np.random.SeedSequence`` directly.
    """
    s = _reference_waveform(
        kind, scene.soi.power, count, _reference_stream(master_seed, trial_index, StreamRole.SOI)
    )
    e = _reference_interference(
        geom, scene, kind, count,
        _reference_stream(master_seed, trial_index, StreamRole.INTERFERENCE),
        _reference_stream(master_seed, trial_index, StreamRole.NOISE),
    )
    e += s[:, None] * steering_vector(geom, scene.soi.doa_deg)[None, :]
    return SnapshotBatch(snapshots=e, truth=s, contains_soi=True)


def reference_synth_scene_secondary(
    geom: ArrayGeometry, scene: SourceScene, kind: WaveformKind, count: int,
    master_seed: int, trial_index: int,
) -> SnapshotBatch:
    """The reference for :func:`caponplus.signalsim.synth_scene_secondary`."""
    rng = _reference_stream(master_seed, trial_index, StreamRole.SECONDARY)
    e = _reference_interference(geom, scene, kind, count, rng, rng)
    return SnapshotBatch(snapshots=e, truth=np.empty(0, dtype=np.complex128), contains_soi=False)
