"""Deterministic, splittable random streams, and a BLAS pinned to one thread.

Every stochastic operation in the package takes an explicit
``numpy.random.Generator``. Streams are derived from a master seed plus a
tuple of string/int tokens, hashed through SHA-256 into a Philox
counter-based generator, so independent stages (truth construction, each
data draw, each Monte Carlo pass) get non-overlapping streams and any
stage can be re-derived in isolation.

A multithreaded BLAS splits its sums by thread count, and stage-one
descent amplifies those last-digit differences into different iterates;
``one_blas_thread`` takes the thread count out of the results.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib

import numpy as np


def stream_key(*tokens) -> tuple[int, ...]:
    """Map arbitrary tokens to four uint32 words via SHA-256."""
    canon = "\x1f".join(repr(t) for t in tokens).encode()
    digest = hashlib.sha256(canon).digest()
    return tuple(int.from_bytes(digest[4 * i : 4 * i + 4], "little") for i in range(4))


def derive_rng(master_seed: int, *tokens) -> np.random.Generator:
    """Independent Philox stream for (master_seed, *tokens)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=stream_key(*tokens))
    return np.random.Generator(np.random.Philox(seq))


@functools.cache
def _openblas_threads() -> tuple:
    """The loaded OpenBLAS's thread-count (getter, setter); () when none is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return ()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS at one thread, then restore the caller's count.

    Does nothing where no OpenBLAS setter is found (another BLAS, or no
    ``/proc``); pin that library's thread count through its environment
    variable instead. Usable as a decorator.
    """
    blas = _openblas_threads()
    if not blas:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
