"""Seeded random streams and the synthesis of snapshot batches, and of the
outputs of fixed beamformers over them, nothing else.

A batch is the named pair ``(snapshots, truth)``.  The waveform law and the
closed-form output moments live in :mod:`.arraymodel`.

Randomness contract
-------------------
Every random draw comes from an :class:`RngStream` identified by
``(master_seed, trial_index, role)``.  The stream is exactly
``numpy.random.Generator(PCG64(SeedSequence(master_seed, spawn_key=(trial_index, role))))``,
so identical coordinates reproduce identical sample sequences regardless of
execution order, process, or thread count.  The four roles are:

=============  =====================================================
``soi``        SOI waveform draws
``interference``  interferer waveforms, drawn in interferer order
``noise``      additive white noise of the primary batch
``secondary``  everything in the SOI-free secondary batch
=============  =====================================================

Contract version 2 reads the ``secondary`` stream of a T0 sweep (regimes c
and d) once per trial: a trial draws it at the sweep's largest T0, and each
point trains on the first T0 snapshots of that batch.  Every other run draws
it at ``secondary_snapshots``, as version 1 did; version 1 drew a T0 sweep's
stream afresh at each point's T0.  A prefix of i.i.d. snapshots is i.i.d., so
each point's law, and the standard error of each of its means, is that of a
fresh draw; but the points of one T0 curve now share their secondary data,
so they are correlated, not independent.  A prefix is not the draw of the
smaller count, whose real and imaginary parts are laid out differently, so a
T0 point other than the largest reads other numbers than under version 1.

A trial's generator for a role is ``TrialRngs(master_seed, trial_index).stream(role)``
with a :class:`StreamRole`, which builds ``RngStream(...).generator()``.  Both
are ``typing.NamedTuple`` classes of the coordinates; building one checks nothing.

A stream's draws are a pure function of its coordinates and of the shapes
drawn, so synthesis does not draw them per call.  :func:`_new_draws`, the
unscaled draws of one stream, is an ``lru_cache`` of the four draws used
last, keyed by the trial coordinates, their types and the shapes: a trial
reads at most four (SOI, interference, noise, secondary).  It holds
each draw in the layout synthesis reads, a read-only C-contiguous complex
array with one row per sample: the generator calls are those of the
contract, and only their rearrangement into complex samples is made once
per draw instead of once per call.  A trial run at every sweep point in
turn builds its generators at the first point only and reuses the draws at
the others.  The cache serves the snapshot batches of regimes b to d only:
fixed weights read each primary draw once, for every point at once, and
draw it straight into the arrays of a block of trials
(:func:`synth_outputs`), bypassing the cache.  The cache is the module's
only per-trial state; :func:`clear_trial_memo` empties it, which
:func:`~.montecarlo.run_trial` does before it runs a block of trials and
the Monte-Carlo harness does again when a chunk of trials ends or raises.

The four PCG64 seed words of a stream are not hashed one stream at a time:
:func:`_block_words` runs numpy's ``SeedSequence`` hash as uint32 array
arithmetic over all 256 trials x 4 roles of a trial block at once and caches
the block.  ``TestStreamContract`` pins the result against the installed
numpy.  Master seeds must be integers >= 0 and trial indices integers in
``[0, 2**32)``, the range in which the spawn key ``(trial_index, role)`` is two
32-bit words.  :meth:`RngStream.generator`, the one reader of the seed words,
checks them and raises :class:`DomainError`; a cached draw can only match
coordinates of the same value and type as ones an earlier miss has checked,
so ``7.0`` never finds seed 7's draws.

The SOI and interference/noise streams never share state, which enforces the
zero-correlation model assumption by construction.

Scene synthesis
---------------
What a batch needs from the scene alone is computed once per
``(geom, scene, kind)`` by the cached :func:`_scene_constants`: one real
amplitude per source (``sqrt(p / 2)`` per Gaussian source, ``sqrt(p)`` per
8-PSK source), the interferer steering matrix transposed, the SOI steering
row and ``sqrt(noise_var / 2)``.  The source powers are checked there; the
sample count, which must be an integer >= 1, in every call.  Each trial then only scales and combines the
cached draws, out of place: ``raw * amp`` multiplies each complex sample by
its source's amplitude, which for nonzero draws gives the bits of scaling
the real and imaginary parts apart, and the scaled noise ``N`` plus the
interference ``I`` has the bits of ``I + N``, since IEEE addition commutes.
So a batch has the bits of drawing, scaling and adding afresh in every
call, whether its draws were cached or not.

Beamformer outputs
------------------
A fixed weight's output ``w^H x(t)`` over a primary batch is a linear map of
the batch's unscaled draws.  :func:`output_map` folds many weights, at one
or more scenes, into the amplitudes and steering vectors of each scene,
once: one row per weight and source kind (noise, interferers, SOI).
:func:`synth_outputs` then gives every weight's outputs over the primary
batches of a block of trials, without forming a batch: each trial draws its
three streams into a :class:`Workspace`, the arrays a chunk of trials keeps
from block to block, and stacked products project the block.  The outputs
equal the batch times the conjugate weight up to rounding, and a weight's
outputs have the same bits in any map it is part of and in any block.  The
sample count is checked first in every synthesis call, so a non-integer
count is rejected even where the draws of an equal integer count are
cached.
"""

from __future__ import annotations

import enum
import functools
import operator
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .arraymodel import (
    ArrayGeometry,
    SourceScene,
    WaveformKind,
    steering_vector,
)
from .errors import DomainError

__all__ = [
    "WaveformKind",
    "StreamRole",
    "RngStream",
    "TrialRngs",
    "SnapshotBatch",
    "synth_scene_snapshots",
    "synth_scene_secondary",
    "OutputMap",
    "output_map",
    "Workspace",
    "synth_outputs",
]


# The 8-PSK phasors exp(j 2 pi k / 8), k = 0..7; see _raw_draw.
_PSK_PHASORS = np.exp(1j * (np.arange(8) * (2.0 * np.pi / 8.0)))


class StreamRole(enum.IntEnum):
    SOI = 0
    INTERFERENCE = 1
    NOISE = 2
    SECONDARY = 3


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool size 4.
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL_SIZE = 4
_BLOCK_TRIALS = 256
_NUM_ROLES = len(StreamRole)


def _hashmix(value: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    value = value ^ np.uint32(const)
    const = const * _MULT_A & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> 16), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> 16)


@functools.lru_cache(maxsize=16)
def _block_words(master_seed: int, block: int) -> np.ndarray:
    """PCG64 seed words of every stream of trials ``256 block ... 256 block + 255``.

    Entry ``[t, role]`` equals
    ``SeedSequence(master_seed, spawn_key=(256 block + t, role)).generate_state(4, np.uint64)``:
    numpy's ``mix_entropy`` followed by ``generate_state``, evaluated on
    uint32 arrays (which wrap silently) that broadcast the seed words against
    trials (axis 0) and roles (axis 1).  Read-only, shape ``(256, 4, 4)``.
    """
    seed = master_seed
    entropy = []
    while True:
        entropy.append(np.full((1, 1), seed & _MASK32, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    # With a spawn key, SeedSequence zero-pads the seed words to the pool size.
    entropy += [np.zeros((1, 1), dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    first = block * _BLOCK_TRIALS
    entropy.append(np.arange(first, first + _BLOCK_TRIALS, dtype=np.uint32)[:, None])
    entropy.append(np.arange(_NUM_ROLES, dtype=np.uint32)[None, :])

    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        h, const = _hashmix(word, const)
        pool.append(h)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            h, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], h)

    const = _INIT_B
    state = []
    for i in range(8):
        v = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        v = v * np.uint32(const)
        state.append((v ^ (v >> 16)).astype(np.uint64))
    words = np.empty((_BLOCK_TRIALS, _NUM_ROLES, 4), dtype=np.uint64)
    for k in range(4):
        # generate_state(4, uint64) reads its uint32 words as little-endian pairs
        words[..., k] = state[2 * k] | (state[2 * k + 1] << np.uint64(32))
    words.flags.writeable = False
    return words


class _SeedWords(ISeedSequence):
    """Hands precomputed seed words to ``PCG64``, which seeds itself from them."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise NotImplementedError("only PCG64's generate_state(4, np.uint64) is served")
        return self.words


class RngStream(NamedTuple):
    """Deterministic sub-stream coordinates ``(master_seed, trial_index, role)``,
    checked by :meth:`generator`, the one reader of a stream's seed words."""

    master_seed: int
    trial_index: int
    role: StreamRole

    def generator(self) -> np.random.Generator:
        try:
            seed, trial = operator.index(self.master_seed), operator.index(self.trial_index)
        except TypeError:
            raise DomainError(f"stream coordinates must be integers, got {self[:2]}") from None
        if seed < 0:
            raise DomainError(f"master seed must be >= 0, got {seed}")
        if not 0 <= trial < 2**32:
            raise DomainError(f"trial index must be in [0, 2**32), got {trial}")
        block, t = divmod(trial, _BLOCK_TRIALS)
        words = _block_words(seed, block)[t, self.role]
        return np.random.Generator(np.random.PCG64(_SeedWords(words)))


class TrialRngs(NamedTuple):
    """The four per-trial role streams.  ``stream(role)`` is their one accessor:
    each call builds that role's generator afresh, at the start of its stream,
    and checks the coordinates as :meth:`RngStream.generator` does."""

    master_seed: int
    trial_index: int

    def stream(self, role: StreamRole) -> np.random.Generator:
        return RngStream(self.master_seed, self.trial_index, role).generator()


class SnapshotBatch(NamedTuple):
    """``T`` array snapshots (rows of ``snapshots``) and the true SOI waveform
    ``truth``, one sample per snapshot; empty in an SOI-free (secondary) batch."""

    snapshots: np.ndarray
    truth: np.ndarray


def _amplitudes(kind: WaveformKind, powers: np.ndarray) -> np.ndarray:
    """Read-only amplitudes of positive ``powers``, of shape ``(K,)`` for K
    sources: ``sqrt(p / 2)`` (Gaussian) or ``sqrt(p)`` (8-PSK)."""
    if powers.size == 0 or not powers.min() > 0.0:
        raise DomainError(f"waveform power must be positive, got {powers.tolist()}")
    amp = np.sqrt(powers / 2.0 if kind is WaveformKind.CIRCULAR_GAUSSIAN else powers).reshape(-1)
    amp.flags.writeable = False
    return amp


def _checked_count(count: int) -> int:
    """``count`` as an ``int``; :class:`DomainError` unless it is an integer >= 1."""
    try:
        count = operator.index(count)
    except TypeError:
        raise DomainError(f"sample count must be an integer, got {count!r}") from None
    if count < 1:
        raise DomainError(f"sample count must be >= 1, got {count}")
    return count


def _raw_draw(kind: WaveformKind, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The unscaled draw of K waveforms of ``count`` samples, the K sources in
    turn, as a C-contiguous ``(count, K)`` complex array: ``standard_normal((K,
    2, count))`` (source k's real parts, then its imaginary parts) or the 8-PSK
    phasors ``exp(j 2 pi k / 8)`` of ``k = integers(0, 8, size=(K, count))``."""
    if kind is WaveformKind.CIRCULAR_GAUSSIAN:
        parts = rng.standard_normal((k, 2, count)).transpose(2, 0, 1)
        return np.ascontiguousarray(parts).view(np.complex128)[..., 0]
    return np.ascontiguousarray(_PSK_PHASORS[rng.integers(0, 8, size=(k, count))].T)


@functools.lru_cache(maxsize=4, typed=True)
def _new_draws(
    master_seed: int, trial_index: int, role: StreamRole, kind: WaveformKind,
    k: int, count: int, m: int,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The read-only unscaled draws of one stream: ``k`` waveforms of ``count``
    samples (:func:`_raw_draw`), then ``count`` noise vectors of ``m`` antennas,
    ``standard_normal((2, count, m))`` (real parts, then imaginary parts) as a
    C-contiguous ``(count, m)`` complex array; ``None`` where ``k`` or ``m`` is 0."""
    rng = RngStream(master_seed, trial_index, role).generator()
    waves = noise = None
    if k:
        waves = _raw_draw(kind, k, count, rng)
        waves.setflags(write=False)
    if m:
        noise = np.empty((count, m), dtype=np.complex128)
        noise.real, noise.imag = rng.standard_normal((2, count, m))
        noise.setflags(write=False)
    return waves, noise


def clear_trial_memo() -> None:
    """Drop every cached draw."""
    _new_draws.cache_clear()


class _SceneConstants(NamedTuple):
    soi_amp: np.ndarray  # _amplitudes of the SOI power
    interferer_amp: np.ndarray | None  # _amplitudes of the interferer powers; None without any
    steering_int_t: np.ndarray | None  # (K, M): the interferers' steering vectors as rows
    soi_row: np.ndarray  # (1, M): the SOI steering vector
    noise_amp: float  # sqrt(noise_var / 2), the scale of each real and imaginary noise part


@functools.lru_cache(maxsize=256)
def _scene_constants(
    geom: ArrayGeometry, scene: SourceScene, kind: WaveformKind
) -> _SceneConstants:
    """Everything :func:`synth_scene_snapshots` and :func:`synth_scene_secondary`
    compute from the scene alone, computed once per ``(geom, scene, kind)``."""
    int_amp = steering_int_t = None
    if scene.interferers:
        powers = np.array([s.power for s in scene.interferers], dtype=np.float64)
        int_amp = _amplitudes(kind, powers)
        steering = np.column_stack([steering_vector(geom, s.doa_deg) for s in scene.interferers])
        steering.flags.writeable = False
        steering_int_t = steering.T
    return _SceneConstants(
        soi_amp=_amplitudes(kind, np.asarray(scene.soi.power, dtype=np.float64)),
        interferer_amp=int_amp,
        steering_int_t=steering_int_t,
        soi_row=steering_vector(geom, scene.soi.doa_deg)[None, :],
        noise_amp=np.sqrt(scene.noise_var / 2.0),
    )


def _interference_plus_noise(
    consts: _SceneConstants, waves: np.ndarray | None, noise: np.ndarray
) -> np.ndarray:
    """White noise from the raw ``noise`` plus interference from the raw
    interferer ``waves`` (``None`` without interferers)."""
    e = noise * consts.noise_amp
    if waves is not None:
        e += (waves * consts.interferer_amp) @ consts.steering_int_t
    return e


def synth_scene_snapshots(
    geom: ArrayGeometry,
    scene: SourceScene,
    kind: WaveformKind,
    count: int,
    rngs: TrialRngs,
) -> SnapshotBatch:
    """Snapshots with every source (SOI and interferers) modulated per ``kind``.

    This is the generator used by the experiment scenarios: the scene applies
    one waveform law to all sources, while the additive noise stays white
    Gaussian.
    """
    count = _checked_count(count)
    consts = _scene_constants(geom, scene, kind)
    k = len(scene.interferers)
    soi = _new_draws(*rngs, StreamRole.SOI, kind, 1, count, 0)[0]
    waves = _new_draws(*rngs, StreamRole.INTERFERENCE, kind, k, count, 0)[0] if k else None
    noise = _new_draws(*rngs, StreamRole.NOISE, kind, 0, count, geom.antennas)[1]
    s = soi * consts.soi_amp
    e = _interference_plus_noise(consts, waves, noise)
    e += s * consts.soi_row
    return SnapshotBatch(e, s.reshape(count))


def synth_scene_secondary(
    geom: ArrayGeometry,
    scene: SourceScene,
    kind: WaveformKind,
    count: int,
    rngs: TrialRngs,
) -> SnapshotBatch:
    """SOI-free secondary batch with per-source interferer waveforms of ``kind``.

    All draws (interferer waveforms first, then noise) come from the single
    ``secondary`` role stream, keeping the batch independent of the primary
    data of the same trial.
    """
    consts = _scene_constants(geom, scene, kind)
    count = _checked_count(count)
    waves, noise = _new_draws(rngs.master_seed, rngs.trial_index, StreamRole.SECONDARY, kind,
                              len(scene.interferers), count, geom.antennas)
    e = _interference_plus_noise(consts, waves, noise)
    return SnapshotBatch(e, np.empty(0, dtype=np.complex128))


class Workspace:
    """Arrays reused from one block of trials to the next.

    ``work(name, shape, dtype)`` is a C-contiguous array of ``shape`` whose
    first axis counts trials: the leading rows of the array made for
    ``name``, made again only for more rows or another trailing shape or
    type.  A block writes every element it reads, so no row of an earlier
    block reaches it.  Reuse spares each block the arrays above glibc's
    128 KiB mmap threshold, whose page faults cost more than a block saves.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, ...], dtype: type) -> np.ndarray:
        arr = self._arrays.get(name)
        if (arr is None or arr.shape[0] < shape[0] or arr.shape[1:] != shape[1:]
                or arr.dtype != dtype):
            arr = self._arrays[name] = np.empty(shape, dtype)
        return arr[:shape[0]]


class OutputMap(NamedTuple):
    """Fixed weights folded into the scenes' amplitudes and steering vectors,
    one row per output: ``n`` weights at each of ``P`` scenes, scene-major.

    A weight ``w`` at a scene gives the rows ``noise_amp w^H`` (``noise``),
    ``amp_k w^H a_k`` per interferer (``interference``, ``None`` without
    interferers) and ``amp_soi w^H a`` (``soi``), so that its output over a
    primary batch is ``noise @ N^T + interference @ E^T + soi S^T`` for the
    unscaled noise, interferer and SOI draws ``N``, ``E`` and ``S``.
    """

    noise: np.ndarray  # (rows, M)
    interference: np.ndarray | None  # (rows, K)
    soi: np.ndarray  # (rows, 1)
    soi_amp: np.ndarray  # (P, 1): each scene's SOI amplitude, which scales the true waveform
    kind: WaveformKind
    shape: tuple[int, int]  # (P, n)


def output_map(
    geom: ArrayGeometry, scenes: Sequence[SourceScene], kind: WaveformKind, weights: np.ndarray
) -> OutputMap:
    """The :class:`OutputMap` of ``weights[p]``, an ``(n, M)`` stack of weights,
    at ``scenes[p]``; every scene has the same number of interferers.

    Each row is computed from its own weight alone.  A map of one weight
    holds its row twice: numpy computes a one-row product as a
    matrix-vector product, whose bits differ from those of the same row in a
    matrix product, and a row of a matrix product keeps its bits whatever
    the rows around it.  So a weight's outputs do not depend on the map it
    is in.
    """
    weights = np.asarray(weights, dtype=np.complex128)
    n_scenes, n, m = weights.shape
    if len(scenes) != n_scenes or m != geom.antennas:
        raise DomainError(f"weights {weights.shape} do not match {len(scenes)} scenes "
                          f"of {geom.antennas} antennas")
    if len({len(scene.interferers) for scene in scenes}) != 1:
        raise DomainError("every scene of an output map needs the same number of interferers")
    consts = [_scene_constants(geom, scene, kind) for scene in scenes]
    noise, soi, interference = [], [], []
    for c, stack in zip(consts, weights):
        for w_h in stack.conj():
            noise.append(c.noise_amp * w_h)
            soi.append(c.soi_amp * (c.soi_row @ w_h))
            if c.interferer_amp is not None:
                interference.append(c.interferer_amp * (c.steering_int_t @ w_h))
    if n_scenes * n == 1:
        noise, soi, interference = noise * 2, soi * 2, interference * 2
    arrays = [np.array(rows) if rows else None for rows in (noise, interference, soi)]
    arrays.append(np.array([c.soi_amp for c in consts]))
    for arr in arrays:
        if arr is not None:
            arr.setflags(write=False)
    return OutputMap(*arrays, kind, (n_scenes, n))


def _raw_spec(kind: WaveformKind, k: int, count: int) -> tuple[tuple[int, ...], type]:
    """The shape and type of one stream's raw draw of ``k`` waveforms of
    ``count`` samples (:func:`_raw_draw`): ``standard_normal`` values ``(K, 2,
    count)`` or 8-PSK symbol indices ``(K, count)``."""
    if kind is WaveformKind.CIRCULAR_GAUSSIAN:
        return (k, 2, count), np.float64
    return (k, count), np.int64


def _fill(kind: WaveformKind, rng: np.random.Generator, raw: np.ndarray) -> None:
    """Draw ``rng``'s raw waveforms into ``raw``, an array of :func:`_raw_spec`,
    with the generator calls of :func:`_raw_draw`."""
    if kind is WaveformKind.CIRCULAR_GAUSSIAN:
        rng.standard_normal(out=raw)
    else:
        raw[...] = rng.integers(0, 8, size=raw.shape)


def _waves(kind: WaveformKind, raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The complex samples ``(..., count, K)`` of a stack of raw draws of
    :func:`_fill`, written into ``out``: those :func:`_raw_draw` returns."""
    if kind is WaveformKind.CIRCULAR_GAUSSIAN:
        out.real = raw[..., 0, :].swapaxes(-1, -2)
        out.imag = raw[..., 1, :].swapaxes(-1, -2)
    else:
        np.take(_PSK_PHASORS, raw.swapaxes(-1, -2), out=out, mode="clip")
    return out


def synth_outputs(
    omap: OutputMap, count: int, master_seed: int, trials: range, work: Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """The outputs ``w^H x(t)`` of every weight of ``omap`` over the primary
    batch of ``count`` snapshots of each trial of ``trials``, and the true SOI
    waveform at each scene, as ``(B, P, n, count)`` and ``(B, P, count)``
    arrays for a block of B trials.

    The batches are never formed.  Each trial builds its generators in turn,
    ``TrialRngs(master_seed, trial).stream(role)`` for the SOI, the
    interferers (if any) and the noise, and each draws straight into an
    array of ``work``.  The draws become complex samples once per block, in
    the layout :func:`_raw_draw` gives them, and stacked products project
    them: one BLAS call per trial, with the shapes, strides and transpose
    flags of a trial projected alone, so a trial's outputs do not depend on
    its block.  They equal :func:`synth_scene_snapshots`'s
    snapshots times the conjugate weights up to rounding; the true waveforms
    have its bits.  The outputs are a view of ``work``, which the next block
    drawn into it overwrites.
    """
    count = _checked_count(count)
    kind, b, m = omap.kind, len(trials), omap.noise.shape[1]
    k = 0 if omap.interference is None else omap.interference.shape[1]
    shape, dtype = _raw_spec(kind, 1, count)
    soi = work("soi", (b, *shape), dtype)
    if k:
        shape, dtype = _raw_spec(kind, k, count)
        waves = work("interference", (b, *shape), dtype)
    noise = work("noise", (b, 2, count, m), np.float64)
    for j, trial in enumerate(trials):
        rngs = TrialRngs(master_seed, trial)
        _fill(kind, rngs.stream(StreamRole.SOI), soi[j])
        if k:
            _fill(kind, rngs.stream(StreamRole.INTERFERENCE), waves[j])
        rngs.stream(StreamRole.NOISE).standard_normal(out=noise[j])
    soi = _waves(kind, soi, work("soi_samples", (b, count, 1), np.complex128)).swapaxes(1, 2)
    out = np.multiply(omap.soi, soi, out=work("outputs", (b, omap.noise.shape[0], count),
                                                 np.complex128))
    product = work("product", out.shape, np.complex128)
    if k:
        waves = _waves(kind, waves, work("interference_samples", (b, count, k), np.complex128))
        out += np.matmul(omap.interference, waves.swapaxes(1, 2), out=product)
    samples = work("noise_samples", (b, count, m), np.complex128)
    samples.real, samples.imag = noise[:, 0], noise[:, 1]
    out += np.matmul(omap.noise, samples.swapaxes(1, 2), out=product)
    n_scenes, n = omap.shape
    return out[:, :n_scenes * n].reshape(b, n_scenes, n, count), omap.soi_amp * soi
