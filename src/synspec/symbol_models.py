"""Banded operators on a one-sided sequence space given by Laurent symbols.

The operator is sum_m c_m S^m with S the unilateral shift (negative powers
meaning adjoints).  Its essential spectrum is modeled by the symbol curve
s(z) on the unit circle, and the Fredholm index off the curve equals minus
the winding number of s around the point.  Finite truncations supply the
quasicentral counterexample pair.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, PointOnEssentialSpectrumError,
                     ResourceLimitError, as_index)
from .operator_core import HermitianMatrix, commutator_norm, spectral_norm

MAX_WINDING_SAMPLES = 2 ** 20
# exp(2 pi i j/size), j < size: the finest circle table built so far
_CIRCLE_TABLE = np.ones(1, dtype=complex)
_CIRCLE_TABLE.flags.writeable = False


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
            coeffs = {
                int(m): complex(ri[0], ri[1]) for m, ri in obj["coeffs"].items()
            }
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InvalidInputError("malformed symbol JSON: %s" % exc)
        return cls(coeffs)


@dataclass(frozen=True)
class TruncationFamily:
    """Truncation size plus the diagonal ramp cutting out the corner."""

    base: SymbolOperator
    N: int
    n0: int
    w: int

    def __post_init__(self):
        if self.w < 1 or self.n0 < 1:
            raise InvalidInputError("ramp start and width must be >= 1")
        if 2 * (self.n0 + self.w) + 2 * self.base.bandwidth >= self.N:
            raise InvalidInputError("ramps and band must fit inside the truncation")


@dataclass(frozen=True)
class WindingReport:
    lam: complex
    winding: int
    index: int
    min_curve_distance: float
    samples: int


def symbol_curve(op: SymbolOperator, samples: int) -> np.ndarray:
    """Closed polyline s(e^{2 pi i j/samples}), j = 0..samples-1."""
    if samples < 8 * op.bandwidth:
        raise InvalidInputError("need at least 8*bandwidth samples")
    t = np.arange(samples) / samples
    return op.eval(np.exp(2j * math.pi * t))


def _circle(N: int) -> np.ndarray:
    """exp(2 pi i j/N), j = 0..N-1, as a read-only view of the shared table.

    The table is rebuilt at size N only when N does not divide its size.
    A view equals a direct build bit for bit: j/N and (j*s)/(N*s) are the
    same rational number, so they round to the same float.
    """
    global _CIRCLE_TABLE
    table = _CIRCLE_TABLE  # one read, so a concurrent rebuild cannot split it
    if table.size % N:
        table = np.exp(2j * math.pi * (np.arange(N) / N))
        table.flags.writeable = False
        _CIRCLE_TABLE = table
    return table[::table.size // N]


def fredholm_index(op: SymbolOperator, lam: complex) -> WindingReport:
    """Winding of the symbol around lam; index = -winding.

    Sampling is refined (doubled) until every angular step is below pi/2.
    Each doubling evaluates the symbol only at the new odd samples and
    interleaves them with the ones it has.  The roots of unity are views
    of one shared table of at most MAX_WINDING_SAMPLES complex entries
    (16 MiB).  Raises ResourceLimitError, rather than guess a winding, if
    the steps are still too large when doubling would pass
    MAX_WINDING_SAMPLES (2^20) samples.
    """
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise InvalidInputError("lambda must be finite")
    samples = max(256, 8 * op.bandwidth)
    v = op.eval(_circle(samples)) - lam
    mind = float(np.abs(v).min())
    while True:
        if mind <= 1e-6:
            raise PointOnEssentialSpectrumError(
                "lambda is within 1e-6 of the symbol curve"
            )
        # Re(ratio) > 0 is |angle| < pi/2; np.angle only confirms a pass
        ratio = np.concatenate((v[1:], v[:1])) / v
        if (ratio.real > 0).all():
            steps = np.angle(ratio)
            if np.abs(steps).max() < math.pi / 2:
                break
        if samples * 2 > MAX_WINDING_SAMPLES:
            raise ResourceLimitError("winding steps still exceed pi/2 at %d "
                                     "samples" % samples)
        samples *= 2
        odd = op.eval(_circle(samples)[1::2]) - lam
        mind = min(mind, float(np.abs(odd).min()))
        v = np.column_stack((v, odd)).reshape(-1)
    winding = int(round(float(steps.sum()) / (2 * math.pi)))
    return WindingReport(lam=lam, winding=winding, index=-winding,
                         min_curve_distance=mind, samples=samples)


def band_matrix(op: SymbolOperator, N: int) -> np.ndarray:
    """N x N compression of the banded operator: entry (i, j) = c_{i-j}."""
    out = np.zeros((N, N), dtype=complex)
    for m, c in op.coeffs.items():
        out += c * np.eye(N, k=-m)
    return out


def ramp_diagonal(N: int, n0: int, w: int, sharp: bool = False) -> np.ndarray:
    """Approximate-identity diagonal cutting both corners of the truncation.

    Entries are 1 on the first and last n0 indices and drop linearly to 0
    across width w on each side (a step instead of a ramp when sharp).
    Both corners need cutting: the N x N compression has a defect at each
    end, while the one-sided model has only the one at index 0.
    """
    i = np.arange(N)
    if sharp:
        return ((i < n0) | (i >= N - n0)).astype(float)
    left = np.clip(1.0 - (i - n0 + 1) / w, 0.0, 1.0)
    right = np.clip(1.0 - ((N - 1 - i) - n0 + 1) / w, 0.0, 1.0)
    return np.maximum(left, right)


def quasicentral_family(fam: TruncationFamily, sharp: bool = False):
    """Hermitian parts of (1-e) T (1-e) for the diagonal ramp e.

    Returns (T1, T2, diagnostics) where diagnostics reports the commutator
    norm of the pair and the ramp commutator ||e T - T e||.  The linear
    ramp of slope 1/w makes the ramp commutator decay like 1/w; the sharp
    (step) variant keeps an order-1/2 corner defect instead.
    """
    t = band_matrix(fam.base, fam.N)
    e = ramp_diagonal(fam.N, fam.n0, fam.w, sharp=sharp)
    d = 1.0 - e
    tn = (t * d[None, :]) * d[:, None]
    t1 = HermitianMatrix((tn + tn.conj().T) / 2)
    t2 = HermitianMatrix((tn - tn.conj().T) / 2j)
    diagnostics = {
        "commutator_norm": commutator_norm(t1, t2),
        "ramp_commutator": spectral_norm(e[:, None] * t - t * e[None, :]),
    }
    return t1, t2, diagnostics
