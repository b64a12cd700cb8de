"""A fixed reference load that measures how fast the machine is right now.

The benchmark shares its host with other tenants, whose load changes
how fast the same code runs by tens of percent from one minute to the
next. After every epoch the runner times ``burst``, a fixed mix of what
tvadapt spends its time on: interpreted Python, many small NumPy calls,
BLAS matmuls, ``erf``, passes over arrays larger than the cache and a
transformer-like block at corpus-evaluation size. Dividing an epoch's
time by the burst time measured around it cancels most of the host's
drift. The burst does not touch tvadapt, so a change to the program
moves the numerator only.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import erf

# Typical burst time on the 2-vCPU Xeon VM the benchmark was defined on,
# one BLAS thread. Calibrated times are reported at this machine speed: a
# figure is what the measured time would have been had a burst taken
# exactly this long.
NOMINAL_MS = 35.0

_rng = np.random.default_rng(0)
_SMALL = _rng.normal(size=(16, 6, 5, 32))
_W = _rng.normal(size=(32, 32))
_WIDE = _rng.normal(size=(16, 8, 10, 256))
_WIDE_W = _rng.normal(size=(256, 64))
# a plain-NumPy MLP + attention block at corpus-evaluation size
_TOKENS = _rng.normal(size=(128, 6, 5, 32))
_UP = _rng.normal(size=(32, 128)) / np.sqrt(32)
_DOWN = _rng.normal(size=(128, 32)) / np.sqrt(128)

# Every array the burst writes is allocated here, once, and each NumPy
# call writes into one of them, so a burst allocates no array memory:
# the process's peak resident set is the program's, plus this fixed
# amount, whether or not a burst ran at the program's peak.
_x = np.empty_like(_SMALL)
_y = np.empty_like(_SMALL)
_rowsum = np.empty(_SMALL.shape[:-1] + (1,))
_wide_h = np.empty(_WIDE.shape[:-1] + _WIDE_W.shape[1:])
_wide_e = np.empty_like(_WIDE)
_h = np.empty(_TOKENS.shape[:-1] + _UP.shape[1:])
_g = np.empty_like(_h)
_out = np.empty_like(_TOKENS)
_scores = np.empty(_TOKENS.shape[:-1] + _TOKENS.shape[-2:-1])
_rowmax = np.empty(_TOKENS.shape[:-1] + (1,))
_mixed = np.empty_like(_TOKENS)


def _python_work(n):
    table = {}
    total = 0
    for i in range(n):
        table[i % 97] = (i, str(i))
        total += len(table[i % 97][1])
    return total


def _block():
    """GELU MLP then single-head self-attention over ``_TOKENS``, in place."""
    np.matmul(_TOKENS, _UP, out=_h)
    np.multiply(_h, 1.0 / np.sqrt(2.0), out=_g)
    erf(_g, out=_g)
    np.add(_g, 1.0, out=_g)
    np.multiply(_g, _h, out=_g)
    np.multiply(_g, 0.5, out=_g)
    np.matmul(_g, _DOWN, out=_out)
    np.matmul(_out, np.swapaxes(_out, -1, -2), out=_scores)
    np.max(_scores, axis=-1, keepdims=True, out=_rowmax)
    np.subtract(_scores, _rowmax, out=_scores)
    np.exp(_scores, out=_scores)
    np.sum(_scores, axis=-1, keepdims=True, out=_rowmax)
    np.divide(_scores, _rowmax, out=_scores)
    np.matmul(_scores, _out, out=_mixed)
    return float(_mixed[0, 0, 0, 0])


def burst():
    """Run the reference load once; returns its wall time in ms."""
    start = time.perf_counter_ns()
    acc = 0.0
    for _ in range(30):
        np.matmul(_SMALL, _W, out=_x)
        np.multiply(_x, 1.5, out=_y)
        np.add(_y, _x, out=_y)
        np.multiply(_y, _y, out=_y)
        np.negative(_y, out=_y)
        np.exp(_y, out=_y)
        np.sum(_y, axis=-1, keepdims=True, out=_rowsum)
        acc += float(_rowsum[0, 0, 0, 0])
    acc += _python_work(10000)
    np.matmul(_WIDE, _WIDE_W, out=_wide_h)
    np.multiply(_WIDE, 0.7, out=_wide_e)
    erf(_wide_e, out=_wide_e)
    np.add(_wide_e, _WIDE, out=_wide_e)
    acc += float(_wide_h[0, 0, 0, 0] + _wide_e[0, 0, 0, 0])
    acc += _block()
    elapsed = time.perf_counter_ns() - start
    if not np.isfinite(acc):
        raise FloatingPointError("calibration burst produced a non-finite value")
    return elapsed / 1e6
