"""Disk geometry, zero/value sequences, and shared domain types.

Everything downstream works with finite sequences of pairwise distinct
points in the open unit disk.  Points are plain complex numbers kept a
safety margin ``ETA_MIN`` away from the circle so that kernel
denominators 1 - conj(z_j) z stay within double-precision comfort.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# global safety margin: |z| <= 1 - ETA_MIN for every disk point
ETA_MIN = 1e-6
# the working-set budget: entries per chunk of every chunked temporary (1 MiB of complex)
CHUNK_ENTRIES = 1 << 16

_GOLDEN_ANGLE = 2.0 * math.pi * (1.0 - 1.0 / ((1.0 + math.sqrt(5.0)) / 2.0))


def pseudohyperbolic_distance(a: complex, b: complex) -> float:
    """|a - b| / |1 - conj(a) b|, the automorphism-invariant disk metric."""
    a, b = complex(a), complex(b)
    return abs(a - b) / abs(1.0 - a.conjugate() * b)


def _is_real(v) -> bool:  # a real number, numpy's included, that is not a bool
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _chunks(count: int, width: int):
    # slices of range(count), each of at most max(1, CHUNK_ENTRIES // width) rows of
    # width entries; rows are independent, so no result depends on where the cuts fall
    step = max(1, CHUNK_ENTRIES // width)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _nearest(pts: np.ndarray, pseudo: bool):
    # (slice, each row's distance to its nearest other point, inf if none) per row
    # chunk: |a - b|, or with pseudo |a - b| / |1 - conj(a) b|
    for block in _chunks(pts.size, pts.size):
        rows = pts[block, None]
        d = np.abs(rows - pts)
        if pseudo:
            d /= np.abs(1.0 - np.conj(rows) * pts)
        np.fill_diagonal(d[:, block.start :], np.inf)
        yield block, d.min(axis=1)


def _to_pairs(values: np.ndarray) -> list:
    return [[w.real, w.imag] for w in values.tolist()]


def _from_pairs(data, key: str) -> np.ndarray:
    # data[key] read back bit for bit (signed zeros too): each [re, im] row viewed as one complex
    pairs = data.get(key) if isinstance(data, dict) else None
    if not (isinstance(pairs, list) and all(isinstance(e, list) and len(e) == 2 for e in pairs)
            and {type(x) for e in pairs for x in e} <= {int, float}):
        raise ValueError(f"expected a JSON object whose {key!r} lists [re, im] pairs of reals")
    return np.array(pairs, dtype=float).reshape(-1, 2).view(complex).reshape(-1)


class _JsonFile:
    """JSON file round trip through the subclass's to_dict / from_dict."""

    @classmethod
    def from_json(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh, parse_int=float))  # ints as floats: none overflows

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)


@dataclass(frozen=True, eq=False)
class ZeroSequence(_JsonFile):
    """Finite ordered sequence of pairwise distinct points in the disk."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).reshape(-1)
        if pts.size < 1:
            raise ValueError("a zero sequence needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if np.max(np.abs(pts)) > 1.0 - ETA_MIN:
            raise ValueError("some point violates the circle margin ETA_MIN")
        ordered = np.sort(pts)  # equal points sit side by side (0.0 == -0.0 too)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("points must be pairwise distinct")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.size)

    def __iter__(self):
        return iter(self.points)

    @property
    def moduli(self) -> np.ndarray:
        return np.abs(self.points)

    def blaschke_sum(self) -> float:
        return float(np.sum(1.0 - self.moduli))

    def min_separation(self) -> float:
        """Smallest pairwise pseudohyperbolic distance (inf for one point)."""
        return float(min(d.min() for _, d in _nearest(self.points, True)))

    def truncate(self, n: int) -> "ZeroSequence":
        """First n points, preserving order (nested truncations)."""
        if not 1 <= n <= len(self):
            raise ValueError(f"cannot truncate length {len(self)} to {n}")
        return ZeroSequence(self.points[:n].copy())

    def to_dict(self) -> dict:
        return {"zeros": _to_pairs(self.points)}

    @classmethod
    def from_dict(cls, data: dict) -> "ZeroSequence":
        return cls(_from_pairs(data, "zeros"))


@dataclass(frozen=True, eq=False)
class ValueSequence(_JsonFile):
    """Complex values aligned index-by-index with a ZeroSequence."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex).reshape(-1)
        if vals.size < 1:
            raise ValueError("a value sequence needs at least one entry")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self):
        return iter(self.values)

    def ell_p_gamma(self, zeros: ZeroSequence, p: float, gamma: float) -> float:
        """The weighted functional sum |w_j|^p (1 - |z_j|)^gamma."""
        _require_paired(zeros, self)
        return float(np.sum(np.abs(self.values) ** p * (1.0 - zeros.moduli) ** gamma))

    def to_dict(self) -> dict:
        return {"values": _to_pairs(self.values)}

    @classmethod
    def from_dict(cls, data: dict) -> "ValueSequence":
        return cls(_from_pairs(data, "values"))


def _require_paired(zeros: ZeroSequence, values: ValueSequence) -> None:
    if len(zeros) != len(values):
        raise ValueError("value/zero sequence lengths differ")


# smoothness kind -> the parameters it takes, each in its open range (floor, inf)
_CLASS_PARAMETERS = {
    "lipschitz": ("alpha",), "bmo": (), "gevrey": ("alpha",), "sobolev": ("p", "s"),
}
_PARAMETER_FLOORS = {"alpha": 0.0, "p": 1.0, "s": 0.0}


@dataclass(frozen=True)
class SmoothnessDescriptor:
    """Tagged smoothness class with its parameters.

    kind        parameters
    ----        ----------
    lipschitz   alpha in (0, inf)
    bmo         none
    gevrey      alpha in (0, inf)
    sobolev     p in (1, inf), s in (0, inf)
    """

    kind: str
    alpha: float | None = None
    p: float | None = None
    s: float | None = None

    def __post_init__(self):
        if self.kind not in _CLASS_PARAMETERS:
            raise ValueError(f"unknown smoothness kind {self.kind!r}")
        for name, floor in _PARAMETER_FLOORS.items():
            v = getattr(self, name)
            if name not in _CLASS_PARAMETERS[self.kind]:
                if v is not None:
                    raise ValueError(f"{self.kind} takes no {name}")
            elif not (_is_real(v) and floor < v < math.inf):
                raise ValueError(f"{self.kind} requires {name} in ({floor:g}, inf)")

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{n: getattr(self, n) for n in _CLASS_PARAMETERS[self.kind]}}


@dataclass
class DiagnosticsReport:
    """Named scalar and series results from a diagnostic computation."""

    name: str
    scalars: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scalars": {k: _jsonify(v) for k, v in self.scalars.items()},
            "series": {k: [_jsonify(v) for v in vs] for k, vs in self.series.items()},
            "notes": list(self.notes),
        }


def _jsonify(v):
    if isinstance(v, complex) or isinstance(v, np.complexfloating):
        return [float(v.real), float(v.imag)]
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    return v


def generate_sequence(kind: str, **params) -> ZeroSequence:
    """Build a ZeroSequence by one of the named recipes.

    kind = "rotated_radial": z_k = (1 - q**k) exp(i k angle_step), k = 1..n,
                             q in (0, 1), angle_step 0 (radial) by default.
    kind = "separated":      greedy sequence with |z_j - z_k| >=
                             c (1 - |z_j|)**s for all j != k, s in (0, 1/2).
                             The n points lie in one band 1 - |z| in
                             (d/2, d], d = 2**-k for the first k = 1, 2, ...
                             that satisfies the condition; ETA_MIN stops k
                             at 18 (19 for n <= 20), where neighbours lie
                             about 2 sin(pi/n) apart, so n up to about
                             pi / arcsin(c d**s / 2) is built (530 for
                             c = 0.5, s = 0.3; 265 for c = 1, s = 0.3; 43 for
                             c = 0.5, s = 0.1) and a larger n is refused.

    n is an integer >= 1.  Both recipes build the points in order of
    increasing modulus.  A missing or unknown parameter is a ValueError
    that names it.  Points given directly are ZeroSequence(points).
    """
    recipes = {  # builder and its parameters' defaults, None where required
        "rotated_radial": (_radial, {"q": None, "n": None, "angle_step": 0.0}),
        "separated": (_separated, {"c": None, "s": None, "n": None}),
    }
    if kind not in recipes:
        raise ValueError(f"unknown sequence kind {kind!r}")
    build, defaults = recipes[kind]
    for name in params:
        if name not in defaults:
            raise ValueError(f"{kind} takes no parameter {name!r}")
    args = {**defaults, **params}
    for name, value in args.items():
        if value is None:
            raise ValueError(f"{kind} requires the parameter {name!r}")
        if name != "n" and not _is_real(value):
            raise ValueError(f"{name} must be a real number, got {value!r}")
    n = args["n"]
    if not (_is_real(n) and isinstance(n, numbers.Integral)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return build(**args)


def _radial(q: float, n: int, angle_step: float) -> ZeroSequence:
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    k = np.arange(1, n + 1)
    radii = 1.0 - q ** k
    if np.any(radii > 1.0 - ETA_MIN):
        raise ValueError("q**n falls below the circle margin ETA_MIN")
    pts = radii * np.exp(1j * angle_step * k)
    return ZeroSequence(pts)


def _separated(c: float, s: float, n: int) -> ZeroSequence:
    if c <= 0:
        raise ValueError("c must be positive")
    if not 0.0 < s < 0.5:
        raise ValueError("s must lie in (0, 1/2)")
    # Points live in one band 1 - |z| in (delta/2, delta], spread over the
    # circle; the required pairwise gap c (1 - |z_j|)**s shrinks with the
    # band depth while the circumference stays put, so a deep enough band
    # always fits n points.  Each candidate layout is checked against the
    # exact ordered-pair condition before being returned.
    j = np.arange(n)
    level = 1
    while True:
        delta = 2.0 ** (-level)
        deltas = delta * (1.0 - j / (2.0 * n))
        if deltas.min() < ETA_MIN:
            raise ValueError(f"cannot satisfy the separation condition for {n} points")
        pts = (1.0 - deltas) * np.exp(1j * (2.0 * math.pi * j / n + _GOLDEN_ANGLE * level))
        gap = c * deltas ** s  # required of each point's nearest neighbour
        if all(np.all(d >= gap[block]) for block, d in _nearest(pts, False)):
            return ZeroSequence(pts)
        level += 1
