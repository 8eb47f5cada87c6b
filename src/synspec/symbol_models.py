"""Banded operators on a one-sided sequence space given by Laurent symbols.

The operator is sum_m c_m S^m with S the unilateral shift (negative powers
meaning adjoints).  Its essential spectrum is modeled by the symbol curve
s(z) on the unit circle, and the Fredholm index off the curve equals minus
the winding number of s around the point.  Finite truncations supply the
quasicentral counterexample pair.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, PointOnEssentialSpectrumError,
                     ResourceLimitError, _check_cap, as_index)
from .operator_core import HermitianMatrix, commutator_norm, spectral_norm

MAX_WINDING_SAMPLES = 2 ** 20
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SymbolOperator:
    """Laurent coefficients c_m, |m| <= bandwidth, with sum |c_m| <= 2."""

    coeffs: dict

    def __post_init__(self):
        cleaned = {}
        for m, c in self.coeffs.items():
            m, c = as_index(m, "symbol powers must be integers"), complex(c)
            if c != 0:
                cleaned[m] = c
        if not cleaned:
            raise InvalidInputError("symbol needs at least one nonzero coefficient")
        if not sum(abs(c) for c in cleaned.values()) <= 2 + 1e-12:
            raise InvalidInputError("coefficients must be finite, l1 norm <= 2")
        object.__setattr__(self, "coeffs", dict(sorted(cleaned.items())))

    @property
    def bandwidth(self) -> int:
        return max(abs(m) for m in self.coeffs)

    @property
    def l1_norm(self) -> float:
        return sum(abs(c) for c in self.coeffs.values())

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for m, c in self.coeffs.items():
            # ``c * z ** m`` lets numpy reuse the buffer of a power of 16384
            # or more points as ``z ** m * c``, which rounds differently; a
            # point's value must not depend on how many share the call
            out = out + np.multiply(c, z ** m)
        return out

    @classmethod
    def shift(cls) -> "SymbolOperator":
        return cls({1: 1.0})

    def to_json(self) -> dict:
        return {
            "coeffs": {str(m): [c.real, c.imag] for m, c in self.coeffs.items()}
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SymbolOperator":
        try:
            items = obj["coeffs"].items()
        except (KeyError, TypeError, AttributeError) as exc:
            raise InvalidInputError("malformed symbol JSON: %s" % exc)
        return cls({parse_power(m): _coefficient(ri) for m, ri in items})


def parse_power(key: str) -> int:
    """A power written as text: canonical decimal only, str(int(key)) == key,
    so "1_0", " +1 " and "01" are refused."""
    try:
        if str(int(key)) == key:
            return int(key)
    except (TypeError, ValueError):
        pass
    raise InvalidInputError("symbol power %.40r is not a canonical integer" % (key,))


def _coefficient(pair) -> complex:
    """A coefficient in symbol JSON: [re, im], exactly two JSON numbers."""
    if (isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(type(x) in (int, float) for x in pair)):
        try:
            return complex(*pair)
        except OverflowError:
            pass
    raise InvalidInputError("symbol coefficient %.40r is not [re, im]" % (pair,))


@dataclass(frozen=True)
class TruncationFamily:
    """Truncation size plus the diagonal ramp cutting out the corner."""

    base: SymbolOperator
    N: int
    n0: int
    w: int

    def __post_init__(self):
        for name in ("N", "n0", "w"):
            object.__setattr__(self, name, as_index(
                getattr(self, name), name + " must be an integer >= 1", 1))
        _check_cap(self.N * self.N, what="one dense matrix would hold %s entries")
        if 2 * (self.n0 + self.w) + 2 * self.base.bandwidth >= self.N:
            raise InvalidInputError("ramps and band must fit inside the truncation")


@dataclass(frozen=True)
class WindingReport:
    lam: complex
    winding: int
    index: int
    min_curve_distance: float
    samples: int


@functools.lru_cache(maxsize=4)
def _circle(N: int) -> np.ndarray:
    """exp(2 pi i j/N), j = 0..N-1, read-only, built once for each of the
    last few sizes asked for: a cache hit costs a fraction of a microsecond,
    a build of 256 points several."""
    table = np.exp(2j * math.pi * (np.arange(N) / N))
    table.flags.writeable = False
    return table


def fredholm_index(op: SymbolOperator, lam: complex) -> WindingReport:
    """Winding of the symbol around lam; index = -winding.

    The circle is sampled at max(256, 8*bandwidth) points; an arc is then
    bisected, evaluating the symbol only at its midpoint, until it passes
    the ellipse test.  With v = s - lam and L = sum |m||c_m|, the arc over
    a parameter step h (a fraction of the turn) is at most 2*pi*L*h long,
    so when |v_j| + |v_{j+1}| exceeds that length plus a rounding margin
    the arc lies in the ellipse with foci v_j and v_{j+1} and that string
    length.  The ellipse is convex and misses 0, so the arc's winding
    increment is the principal angle of v_{j+1}/v_j, and the sum of these
    angles over a tiling of certified arcs is the winding exactly.

    ``samples`` counts the points evaluated, the start included; more than
    MAX_WINDING_SAMPLES (2^20) raises ResourceLimitError, checked against
    the start before anything is evaluated and before each bisection,
    rather than guess a winding.  ``min_curve_distance`` is the smallest
    sampled |v|, an upper bound on the distance from lam to the curve; a
    sample within 1e-6 of lam raises PointOnEssentialSpectrumError.
    """
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise InvalidInputError("lambda must be finite")
    den = max(256, 8 * op.bandwidth)
    if den > MAX_WINDING_SAMPLES:
        raise ResourceLimitError("bandwidth %d needs a start of %d samples, "
                                 "above the cap of %d"
                                 % (op.bandwidth, den, MAX_WINDING_SAMPLES))
    reach = 2 * math.pi * sum(abs(m) * abs(c) for m, c in op.coeffs.items())
    # each focus may be off by 8 eps (l1 (bandwidth + 2) + |lam|), about
    # twice the largest error seen against 40-digit values (bandwidth up to
    # 30,000 gave 4.4 eps l1 (bandwidth + 2))
    margin = 16 * _EPS * (op.l1_norm * (op.bandwidth + 2) + abs(lam))
    va = op.eval(_circle(den)) - lam
    aa = np.abs(va)
    k, vb = np.arange(den), np.concatenate((va[1:], va[:1]))
    ab = np.concatenate((aa[1:], aa[:1]))
    mind, samples, turn = float(aa.min()), den, 0.0
    while True:
        if mind <= 1e-6:
            raise PointOnEssentialSpectrumError(
                "lambda is within 1e-6 of the symbol curve"
            )
        bad = aa + ab <= reach / den + margin
        if not bad.any():
            turn += float(np.angle(vb / va).sum())
            break
        good = ~bad
        turn += float(np.angle(vb[good] / va[good]).sum())
        k, va, vb, aa, ab = k[bad], va[bad], vb[bad], aa[bad], ab[bad]
        if samples + k.size > MAX_WINDING_SAMPLES:
            raise ResourceLimitError("%d arcs still fail the ellipse test at "
                                     "%d samples" % (k.size, samples))
        den *= 2
        vm = op.eval(np.exp(2j * math.pi * ((2 * k + 1) / den))) - lam
        am = np.abs(vm)
        mind, samples = min(mind, float(am.min())), samples + k.size
        k = np.concatenate((2 * k, 2 * k + 1))
        va, vb = np.concatenate((va, vm)), np.concatenate((vm, vb))
        aa, ab = np.concatenate((aa, am)), np.concatenate((am, ab))
    winding = int(round(turn / (2 * math.pi)))
    return WindingReport(lam=lam, winding=winding, index=-winding,
                         min_curve_distance=mind, samples=samples)


def _band_matrix(op: SymbolOperator, N: int) -> np.ndarray:
    """N x N compression of the banded operator: entry (i, j) = c_{i-j}."""
    out = np.zeros((N, N), dtype=complex)
    for m, c in op.coeffs.items():
        out += c * np.eye(N, k=-m)
    return out


def _ramp_diagonal(N: int, n0: int, w: int) -> np.ndarray:
    """Approximate-identity diagonal cutting both corners of the truncation.

    Entries are 1 on the first and last n0 indices and drop linearly to 0
    across width w on each side; w = 1 is the sharp cutoff, a step.
    Both corners need cutting: the N x N compression has a defect at each
    end, while the one-sided model has only the one at index 0.
    """
    i = np.arange(N)
    left = np.clip(1.0 - (i - n0 + 1) / w, 0.0, 1.0)
    right = np.clip(1.0 - ((N - 1 - i) - n0 + 1) / w, 0.0, 1.0)
    return np.maximum(left, right)


def quasicentral_family(fam: TruncationFamily):
    """Hermitian parts of (1-e) T (1-e) for the diagonal ramp e.

    Returns (T1, T2, diagnostics) where diagnostics reports the commutator
    norm of the pair and the ramp commutator ||e T - T e||.  The linear
    ramp of slope 1/w makes the ramp commutator decay like 1/w; the sharp
    cutoff w = 1 (a step) keeps an order-1/2 corner defect instead.
    """
    t = _band_matrix(fam.base, fam.N)
    e = _ramp_diagonal(fam.N, fam.n0, fam.w)
    d = 1.0 - e
    tn = (t * d[None, :]) * d[:, None]
    t1 = HermitianMatrix((tn + tn.conj().T) / 2)
    t2 = HermitianMatrix((tn - tn.conj().T) / 2j)
    diagnostics = {
        "commutator_norm": commutator_norm(t1, t2),
        "ramp_commutator": spectral_norm(e[:, None] * t - t * e[None, :]),
    }
    return t1, t2, diagnostics
