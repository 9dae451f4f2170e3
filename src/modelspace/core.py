"""Disk geometry, zero/value sequences, and shared domain types.

Everything downstream works with finite sequences of pairwise distinct
points in the open unit disk.  Points are plain complex numbers kept a
safety margin ``ETA_MIN`` away from the circle so that kernel
denominators 1 - conj(z_j) z stay within double-precision comfort.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# global safety margin: |z| <= 1 - ETA_MIN for every disk point
ETA_MIN = 1e-6

_GOLDEN_ANGLE = 2.0 * math.pi * (1.0 - 1.0 / ((1.0 + math.sqrt(5.0)) / 2.0))


def pseudohyperbolic_distance(a: complex, b: complex) -> float:
    """|a - b| / |1 - conj(a) b|, the automorphism-invariant disk metric."""
    a, b = complex(a), complex(b)
    return abs(a - b) / abs(1.0 - a.conjugate() * b)


class _JsonFile:
    """JSON file round trip through the subclass's to_dict / from_dict."""

    @classmethod
    def from_json(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)


@dataclass(frozen=True, eq=False)
class ZeroSequence(_JsonFile):
    """Finite ordered sequence of pairwise distinct points in the disk."""

    points: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).reshape(-1)
        if pts.size < 1:
            raise ValueError("a zero sequence needs at least one point")
        if np.max(np.abs(pts)) > 1.0 - ETA_MIN:
            raise ValueError("some point violates the circle margin ETA_MIN")
        if np.unique(pts).size != pts.size:
            raise ValueError("points must be pairwise distinct")
        if self.labels is not None and len(self.labels) != pts.size:
            raise ValueError("labels must match the number of points")
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
        """Smallest pairwise pseudohyperbolic distance."""
        pts = self.points
        rho = np.abs(pts[:, None] - pts[None, :]) / np.abs(
            1.0 - np.conj(pts[:, None]) * pts[None, :]
        )
        np.fill_diagonal(rho, np.inf)
        return float(rho.min()) if len(self) > 1 else math.inf

    def truncate(self, n: int) -> "ZeroSequence":
        """First n points, preserving order (nested truncations)."""
        if not 1 <= n <= len(self):
            raise ValueError(f"cannot truncate length {len(self)} to {n}")
        labels = self.labels[:n] if self.labels is not None else None
        return ZeroSequence(self.points[:n].copy(), labels)

    def to_dict(self) -> dict:
        data = {"zeros": [[z.real, z.imag] for z in self.points]}
        if self.labels is not None:
            data["labels"] = list(self.labels)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ZeroSequence":
        pts = np.array([complex(re, im) for re, im in data["zeros"]])
        labels = tuple(data["labels"]) if "labels" in data else None
        return cls(pts, labels)



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

    def truncate(self, n: int) -> "ValueSequence":
        if not 1 <= n <= len(self):
            raise ValueError(f"cannot truncate length {len(self)} to {n}")
        return ValueSequence(self.values[:n].copy())

    def ell_p_gamma(self, zeros: ZeroSequence, p: float, gamma: float) -> float:
        """The weighted functional sum |w_j|^p (1 - |z_j|)^gamma."""
        if len(zeros) != len(self):
            raise ValueError("value/zero sequence lengths differ")
        return float(np.sum(np.abs(self.values) ** p * (1.0 - zeros.moduli) ** gamma))

    def to_dict(self) -> dict:
        return {"values": [[w.real, w.imag] for w in self.values]}

    @classmethod
    def from_dict(cls, data: dict) -> "ValueSequence":
        return cls(np.array([complex(re, im) for re, im in data["values"]]))



_DESCRIPTOR_KINDS = ("lipschitz", "bmo", "gevrey", "sobolev")


@dataclass(frozen=True)
class SmoothnessDescriptor:
    """Tagged smoothness class with its parameters.

    kind        parameters
    ----        ----------
    lipschitz   alpha > 0
    bmo         none
    gevrey      alpha > 0
    sobolev     p in (1, inf), s > 0
    """

    kind: str
    alpha: float | None = None
    p: float | None = None
    s: float | None = None

    def __post_init__(self):
        if self.kind not in _DESCRIPTOR_KINDS:
            raise ValueError(f"unknown smoothness kind {self.kind!r}")
        if self.kind in ("lipschitz", "gevrey"):
            if self.alpha is None or self.alpha <= 0:
                raise ValueError(f"{self.kind} requires alpha > 0")
            if self.p is not None or self.s is not None:
                raise ValueError(f"{self.kind} takes no (p, s) parameters")
        elif self.kind == "bmo":
            if any(v is not None for v in (self.alpha, self.p, self.s)):
                raise ValueError("bmo takes no parameters")
        else:  # sobolev
            if self.alpha is not None:
                raise ValueError("sobolev takes no alpha")
            if self.p is None or not 1.0 < self.p < math.inf:
                raise ValueError("sobolev requires p in (1, inf)")
            if self.s is None or self.s <= 0:
                raise ValueError("sobolev requires s > 0")

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name in ("alpha", "p", "s"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        return out


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


def _sorted_points(pts: np.ndarray) -> np.ndarray:
    # deterministic order: increasing modulus, then argument in [0, 2pi)
    ang = np.mod(np.angle(pts), 2.0 * np.pi)
    order = np.lexsort((ang, np.abs(pts)))
    return pts[order]


def generate_sequence(kind: str, **params) -> ZeroSequence:
    """Build a ZeroSequence by one of the named recipes.

    kind = "rotated_radial": z_k = (1 - q**k) exp(i k angle_step), k = 1..n,
                             q in (0, 1), angle_step 0 (radial) by default.
    kind = "separated":      greedy sequence with |z_j - z_k| >=
                             c (1 - |z_j|)**s for all j != k, s in (0, 1/2).

    Points given directly are ZeroSequence(points).
    """
    if kind not in ("rotated_radial", "separated"):
        raise ValueError(f"unknown sequence kind {kind!r}")
    if params["n"] < 1:
        raise ValueError("n must be >= 1")
    if kind == "rotated_radial":
        return _radial(params["q"], params["n"], params.get("angle_step", 0.0))
    return _separated(params["c"], params["s"], params["n"])


def _radial(q: float, n: int, angle_step: float) -> ZeroSequence:
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    k = np.arange(1, n + 1)
    radii = 1.0 - q ** k
    if np.any(radii > 1.0 - ETA_MIN):
        raise ValueError("q**n falls below the circle margin ETA_MIN")
    pts = radii * np.exp(1j * angle_step * k)
    return ZeroSequence(_sorted_points(pts))


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
        gap = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(gap, np.inf)
        if np.all(gap >= (c * deltas ** s)[:, None]):
            return ZeroSequence(_sorted_points(pts))
        level += 1
