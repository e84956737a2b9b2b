"""Dense complex linear algebra for small Hermitian positive definite systems.

Everything in this package runs through a handful of primitives: a complex
Cholesky factorization with an explicit rank-deficiency threshold, solves
against the factor, and real-valued Hermitian quadratic forms.  Matrices and
factors are plain ``numpy`` arrays of ``complex128``.

The factor comes from LAPACK ``zpotrf`` and solves from ``zpotrs``; the
sample covariance of :mod:`.estimation` is one BLAS ``zherk``.  This module is
the single home of those three kernels.  They are the function objects that
``scipy.linalg.lapack`` and ``scipy.linalg.blas`` re-export, taken from scipy's
compiled wrapper modules ``scipy/linalg/_flapack*.so`` and ``_fblas*.so``,
which are loaded straight from their files.  Importing ``scipy.linalg``
instead would run its package ``__init__``, whose array-API layer imports
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``.  On a 2-vCPU x86-64 host
(Python 3.11, numpy 2.4.6, scipy 1.17.1, warm file cache, median of 15) a
fresh ``python3 -c "import caponplus.cli"`` takes 0.43 s of wall time, as
much CPU time and 58 MB peak RSS that way, and 0.21 s of wall and of CPU
time and 42 MB without it; the two files load in about 4 ms.  Both figures
are with BLAS loaded on one thread, as the package loads it (see its
docstring): loaded on two, each OpenBLAS copy starts a helper thread that
spins, and the same import took 0.26 s of wall time for 0.45 s of CPU time.
Where no such file exists (another scipy layout) the kernels come from the
public ``scipy.linalg.lapack`` and ``scipy.linalg.blas``.

The thread count of numpy's and of scipy's OpenBLAS, the two libraries
these kernels and numpy's products run on, is read and set through their
``scipy_openblas_{get,set}_num_threads`` symbols (:func:`blas_threads`,
:func:`set_blas_threads`), for the package's one-thread policy
(:func:`pin_blas_threads`).  Where a library or its symbols are missing,
those functions do nothing.

LAPACK only stops at a non-positive pivot, so the package's stricter rule (reject
a pivot at or below ``M * eps * max(diag)``) is applied afterwards to the
squared diagonal of LAPACK's factor, which holds the pivots.  Symmetry and
quadratic-form residues are judged relative to the scale of the matrix.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .errors import DimensionMismatch, DomainError, NotPositiveDefinite

__all__ = [
    "hermitian_matrix",
    "cholesky",
    "solve_chol",
    "quadratic_form",
    "BLAS_THREAD_VARIABLES",
    "blas_threads",
    "set_blas_threads",
    "pin_blas_threads",
]

_EPS = np.finfo(np.float64).eps

# Conjugate-symmetry tolerance accepted at construction time, relative to max |A|.
HERMITIAN_RTOL = 1e-12

# Imaginary residue allowed in a quadratic form, relative to max |A| ||v||^2.
_QF_IMAG_RTOL = 1e-10


def _wrapper_file(folders, name: str) -> str | None:
    """The file of scipy's compiled wrapper module ``name`` in ``folders``, if any."""
    paths = [os.path.join(d, name + s) for d in folders for s in EXTENSION_SUFFIXES]
    return next(filter(os.path.isfile, paths), None)


def _scipy_kernels(folders):
    """``zpotrf``, ``zpotrs`` and ``zherk`` from scipy's compiled wrapper
    modules in ``folders``, without running ``scipy.linalg``'s ``__init__``."""
    modules = {}
    for name in ("_flapack", "_fblas"):
        path = _wrapper_file(folders, name)
        if path is None:
            from scipy.linalg.blas import zherk
            from scipy.linalg.lapack import zpotrf, zpotrs

            return zpotrf, zpotrs, zherk
        loader = ExtensionFileLoader(f"scipy.linalg.{name}", path)
        spec = importlib.util.spec_from_loader(loader.name, loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
        modules[name] = module
    return modules["_flapack"].zpotrf, modules["_flapack"].zpotrs, modules["_fblas"].zherk


# Finding the spec imports the top-level ``scipy`` package, but not scipy.linalg.
_SCIPY_LINALG = importlib.util.find_spec("scipy.linalg").submodule_search_locations
zpotrf, zpotrs, zherk = _scipy_kernels(_SCIPY_LINALG)

# A caller who sets one of these picks OpenBLAS's thread count, and the
# package leaves it alone; otherwise it runs BLAS on one thread.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _openblas_threads(path: str | None, suffix: str):
    """``(get, set)`` of the thread count of the ``scipy_openblas`` library
    that the compiled module at ``path`` links, or None where there is none."""
    if path is None:
        return None
    try:
        # Opening a loaded module returns its handle, whose symbol lookup
        # also searches the libraries the module links.
        lib = ctypes.CDLL(path)
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
    except (OSError, AttributeError):
        return None
    put.argtypes, put.restype = (ctypes.c_int,), None
    return get, put


def _openblas_copies() -> list:
    """``(get, set)`` of each OpenBLAS copy found: numpy's, whose symbols end
    in ``64_`` (64-bit integers), then scipy's, which the kernels run on."""
    found = (_openblas_threads(np._core._multiarray_umath.__file__, "64_"),
             _openblas_threads(_wrapper_file(_SCIPY_LINALG, "_fblas"), ""))
    return [copy for copy in found if copy is not None]


_OPENBLAS = _openblas_copies()


def blas_threads() -> tuple[int, ...]:
    """Thread count of each OpenBLAS copy found, numpy's first; empty where
    numpy and scipy run on another BLAS."""
    return tuple(get() for get, _ in _OPENBLAS)


def set_blas_threads(counts: tuple[int, ...]) -> tuple[int, ...]:
    """Set each OpenBLAS copy found to its entry of ``counts``, in the order
    of :func:`blas_threads`; return the counts before.

    In a forked child of a process that ran more than one thread, setting a
    count restarts OpenBLAS's thread pool, whose helper threads then spin for
    about 0.13 s of CPU.
    """
    before = blas_threads()
    for (_, put), n in zip(_OPENBLAS, counts):
        put(n)
    return before


def pin_blas_threads() -> tuple[int, ...]:
    """Set every OpenBLAS copy to one thread, unless the caller set one of
    :data:`BLAS_THREAD_VARIABLES`; return the counts that
    :func:`set_blas_threads` restores (none when nothing was set)."""
    if any(map(os.environ.__contains__, BLAS_THREAD_VARIABLES)):
        return ()
    return set_blas_threads((1,) * len(_OPENBLAS))


def hermitian_matrix(elements) -> np.ndarray:
    """Validate and return an M x M Hermitian matrix with a positive diagonal.

    Conjugate symmetry must hold within ``1e-12 * max|A|``, so that rounding
    in a product such as ``G D G^H`` passes at any scale; the residue is then
    removed exactly by averaging with the conjugate transpose.  A diagonal
    entry at or below zero rules out positive definiteness.
    """
    a = np.asarray(elements, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix contains non-finite entries")
    asym = np.abs(a - a.conj().T).max()
    if asym > HERMITIAN_RTOL * np.abs(a).max():
        raise DomainError(
            f"matrix is not conjugate-symmetric: max |A - A^H| = {asym:.3e}"
        )
    a = 0.5 * (a + a.conj().T)
    if np.any(a.real.diagonal() <= 0.0):
        raise NotPositiveDefinite(
            "matrix has a non-positive diagonal entry",
            pivot_index=int(np.argmin(a.real.diagonal())),
        )
    return a


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular ``L`` with ``L L^H = A`` and real positive diagonal.

    A pivot is rejected when it falls at or below ``M * eps * max(diag)``,
    which flags indefinite matrices and numerically singular ones.  For a
    sample covariance of ``T < M`` snapshots the pivot at index ``T`` is
    rounding residue of about the size of that threshold, so such a matrix
    is rejected at index ``T`` or later, or occasionally not at all.  Only
    the lower triangle of ``a`` is read.

    Raises
    ------
    NotPositiveDefinite
        Reporting the index of the failing pivot.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    m = a.shape[0]
    tol = m * _EPS * a.real.diagonal().max(initial=0.0)
    lower, info = zpotrf(a, lower=1)
    # The pivots are the squared diagonal of the factor.  Squaring is monotone,
    # so the smallest diagonal entry decides when LAPACK succeeded.
    diag = lower.real.diagonal()
    if info == 0 and float(diag.min(initial=np.inf)) ** 2 > tol:
        return lower
    # On failure LAPACK stops at pivot info - 1; the pivots before it are valid.
    factored = info - 1 if info > 0 else m
    small = np.flatnonzero(diag[:factored] ** 2 <= tol)
    j = int(small[0]) if small.size else factored
    raise NotPositiveDefinite(
        f"pivot at index {j} is <= tolerance {tol:.3e}", pivot_index=j
    )


def solve_chol(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A y = b`` given the lower Cholesky factor ``L`` of ``A``."""
    b = np.asarray(b, dtype=np.complex128)
    m = lower.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != m:
        raise DimensionMismatch(f"rhs has shape {b.shape}, factor is {m} x {m}")
    return zpotrs(lower, b, lower=1)[0]


def quadratic_form(a: np.ndarray, v: np.ndarray) -> float:
    """Real value of the Hermitian quadratic form ``v^H A v``.

    The imaginary residue of the raw product must be negligible,
    ``<= 1e-10 * max|A| * ||v||^2``: rounding in ``A v`` scales with the
    largest entries of ``A``, not with the value, which can be far smaller
    along a weak eigenvector.  The residue is asserted and discarded.
    """
    a = np.asarray(a, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if a.ndim != 2 or v.ndim != 1 or a.shape != (v.size, v.size):
        raise DimensionMismatch(
            f"quadratic form shape mismatch: A {a.shape}, v {v.shape}"
        )
    raw = np.vdot(v, a @ v)
    if abs(raw.imag) > _QF_IMAG_RTOL * np.abs(a).max() * np.vdot(v, v).real:
        raise DomainError(
            f"quadratic form has non-negligible imaginary part {raw.imag:.3e} "
            f"(|value| = {abs(raw):.3e}); matrix is not Hermitian enough"
        )
    return float(raw.real)
