import json
import math

import numpy as np
import pytest

from conftest import transient_peak
from modelspace import (
    SmoothnessDescriptor,
    ValueSequence,
    ZeroSequence,
    generate_sequence,
    pseudohyperbolic_distance,
)
from modelspace.core import ETA_MIN, _GOLDEN_ANGLE


def test_pseudohyperbolic_examples():
    assert pseudohyperbolic_distance(0, 0.6) == pytest.approx(0.6, abs=1e-15)
    assert pseudohyperbolic_distance(0.3 + 0.2j, 0.3 + 0.2j) == 0.0
    assert pseudohyperbolic_distance(0.5, -0.5) == pytest.approx(0.8, abs=1e-15)


def test_pseudohyperbolic_symmetry_and_origin(rng):
    for _ in range(50):
        a = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        b = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        assert pseudohyperbolic_distance(a, b) == pytest.approx(
            pseudohyperbolic_distance(b, a), abs=1e-15
        )
        assert pseudohyperbolic_distance(0, b) == pytest.approx(abs(b), abs=1e-15)


def test_radial_geometric_example():
    zeros = generate_sequence("rotated_radial", q=0.5, n=10)
    expected = np.array([1 - 2.0 ** -k for k in range(1, 11)])
    assert np.allclose(np.sort(zeros.points.real), expected, atol=1e-15)
    assert len(set(zeros.points.tolist())) == 10


def test_rotated_radial():
    zeros = generate_sequence("rotated_radial", q=0.5, n=6, angle_step=0.7)
    assert len(zeros) == 6
    assert np.allclose(np.sort(zeros.moduli), [1 - 2.0 ** -k for k in range(1, 7)])


@pytest.mark.parametrize("c,s,n", [(1.0, 0.4, 8), (0.8, 0.3, 24), (0.3, 0.1, 32)])
def test_separated_satisfies_pairwise_inequality(c, s, n):
    zeros = generate_sequence("separated", c=c, s=s, n=n)
    pts = zeros.points
    assert len(pts) == n
    for j in range(len(pts)):
        for k in range(len(pts)):
            if j != k:
                assert abs(pts[j] - pts[k]) >= c * (1 - abs(pts[j])) ** s


def test_separated_impossible_request():
    with pytest.raises(ValueError):
        generate_sequence("separated", c=50.0, s=0.49, n=64)


@pytest.mark.parametrize("c, s, capacity", [
    (0.5, 0.3, 530), (1.0, 0.3, 265), (0.5, 0.1, 43), (2.0, 0.2, 38), (1.0, 0.05, 12),
])
def test_separated_capacity(c, s, capacity):
    # the docstring's rule: the deepest band d = 2**-18 (2**-19 for n <= 20) fits
    # n up to pi / arcsin(c d**s / 2) points
    depth = 19 if math.pi / math.asin(c * 2.0 ** (-19 * s) / 2) <= 20 else 18
    assert capacity == math.floor(math.pi / math.asin(c * 2.0 ** (-depth * s) / 2))
    assert len(generate_sequence("separated", c=c, s=s, n=capacity)) == capacity
    with pytest.raises(ValueError, match=f"separation condition for {capacity + 1} points"):
        generate_sequence("separated", c=c, s=s, n=capacity + 1)


def test_explicit_single_point():
    zeros = ZeroSequence([0])
    assert len(zeros) == 1
    assert zeros.points[0] == 0


def test_generate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate_sequence("rotated_radial", q=1.5, n=4)
    with pytest.raises(ValueError):
        generate_sequence("rotated_radial", q=0.5, n=40)  # below ETA_MIN
    with pytest.raises(ValueError):
        generate_sequence("separated", c=1.0, s=0.7, n=4)
    with pytest.raises(ValueError):
        ZeroSequence([0.2, 0.2])
    with pytest.raises(ValueError):
        generate_sequence("no_such_kind")


@pytest.mark.parametrize("kind, params, names", [
    ("rotated_radial", {"q": 0.5, "n": 2.5}, "n must be an integer"),
    ("separated", {"c": 1.0, "s": 0.3, "n": 3.7}, "n must be an integer"),
    ("rotated_radial", {"q": 0.5, "n": True}, "n must be an integer"),
    ("rotated_radial", {"q": 0.5, "n": 0}, "n must be an integer >= 1"),
    ("separated", {"c": 1.0, "s": 0.3, "n": -2}, "n must be an integer >= 1"),
    ("rotated_radial", {"q": 0.5, "n": 4, "angle_stp": 0.2}, "takes no parameter 'angle_stp'"),
    ("separated", {"c": 1.0, "s": 0.3, "n": 4, "q": 0.5}, "takes no parameter 'q'"),
    ("rotated_radial", {"n": 4}, "requires the parameter 'q'"),
    ("separated", {"c": 1.0, "n": 4}, "requires the parameter 's'"),
    ("separated", {"c": 0.0, "s": 0.3, "n": 4}, "c must be positive"),
    ("separated", {"c": -1.0, "s": 0.3, "n": 4}, "c must be positive"),
])
def test_generate_names_the_bad_parameter(kind, params, names):
    with pytest.raises(ValueError, match=names):
        generate_sequence(kind, **params)


def test_generate_takes_numpy_integers():
    for kind, params in [("rotated_radial", {"q": 0.5}), ("separated", {"c": 1.0, "s": 0.3})]:
        got = generate_sequence(kind, n=np.int64(6), **params).points
        assert np.array_equal(got, generate_sequence(kind, n=6, **params).points)


@pytest.mark.parametrize("q, n, step", [(0.5, 10, None), (0.7, 12, 0.13), (0.9999, 200, 2.0)])
def test_rotated_radial_keeps_construction_order(q, n, step):
    # the moduli 1 - q**k increase with k, so the points come in the formula's order
    k = np.arange(1, n + 1)
    params = {} if step is None else {"angle_step": step}
    got = generate_sequence("rotated_radial", q=q, n=n, **params).points
    assert np.array_equal(got, (1 - q ** k) * np.exp(1j * (step or 0.0) * k))


@pytest.mark.parametrize("c, s, n", [(1.0, 0.4, 8), (0.3, 0.1, 32), (0.05, 0.25, 128)])
def test_separated_moduli_strictly_increase(c, s, n):
    assert np.all(np.diff(generate_sequence("separated", c=c, s=s, n=n).moduli) > 0)


def test_zero_sequence_invariants():
    with pytest.raises(ValueError):
        ZeroSequence(np.array([]))
    with pytest.raises(ValueError):
        ZeroSequence(np.array([0.3, 0.3]))
    with pytest.raises(ValueError):
        ZeroSequence(np.array([1.0 - 1e-9]))


@pytest.mark.parametrize("points", [
    [0.0, -0.0],
    [complex(0.0, 0.5), complex(-0.0, 0.5)],
    [complex(0.5, 0.0), complex(0.5, -0.0)],
    [0.3j, 0.1, 0.2, -0.4, 0.5 + 0.1j, 0.6, 0.3j],  # equal points far apart
    [0.1 + 0.2j, -0.7, 0.1 + 0.2j, 0.1 - 0.2j],
])
def test_zero_sequence_rejects_duplicates(points):
    # 0.0 == -0.0: a signed zero does not make a point distinct
    with pytest.raises(ValueError, match="pairwise distinct"):
        ZeroSequence(points)


def test_zero_sequence_keeps_near_duplicates_and_order():
    pts = [0.5, 0.5 + 1e-15, 0.5j, 0.5 + 1e-15j, -0.5, np.nextafter(-0.5, 0.0)]
    zeros = ZeroSequence(pts)
    assert zeros.points.tolist() == [complex(p) for p in pts]


@pytest.mark.parametrize("bad", [np.nan, complex(0.1, np.nan), np.inf, -np.inf])
def test_zero_sequence_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="points must be finite"):
        ZeroSequence([bad, 0.5])


def test_validate_sequence_examples():
    zeros = ZeroSequence([0])
    assert zeros.blaschke_sum() == pytest.approx(1.0, abs=1e-15)

    zeros = ZeroSequence([0.5, -0.5])
    assert zeros.blaschke_sum() == pytest.approx(1.0, abs=1e-15)
    assert zeros.min_separation() == pytest.approx(0.8, abs=1e-15)

    for n in (5, 10, 15):
        zeros = generate_sequence("rotated_radial", q=0.5, n=n)
        assert zeros.blaschke_sum() == pytest.approx(
            1 - 2.0 ** -n, abs=1e-12
        )


def test_truncate_is_prefix():
    zeros = generate_sequence("rotated_radial", q=0.5, n=8)
    sub = zeros.truncate(3)
    assert np.array_equal(sub.points, zeros.points[:3])
    with pytest.raises(ValueError):
        zeros.truncate(9)


def test_value_sequence_validation():
    with pytest.raises(ValueError):
        ValueSequence([np.inf])
    with pytest.raises(ValueError, match="at least one entry"):
        ValueSequence([])
    w = ValueSequence([1, 2j])
    assert len(w) == 2


def test_ell_p_gamma():
    zeros = ZeroSequence([0, 0.5])
    w = ValueSequence([2.0, 1.0])
    # |2|^2 * 1 + |1|^2 * 0.5
    assert w.ell_p_gamma(zeros, 2, 1) == pytest.approx(4.5, abs=1e-15)
    with pytest.raises(ValueError):
        ValueSequence([1.0]).ell_p_gamma(zeros, 2, 1)


def test_json_round_trips(tmp_path):
    zeros = generate_sequence("rotated_radial", q=0.6, n=5, angle_step=1.1)
    zpath = tmp_path / "z.json"
    zeros.to_json(zpath)
    back = ZeroSequence.from_json(zpath)
    assert np.allclose(back.points, zeros.points)

    w = ValueSequence([1 + 2j, -0.5])
    wpath = tmp_path / "w.json"
    w.to_json(wpath)
    assert np.allclose(ValueSequence.from_json(wpath).values, w.values)

    with open(zpath, encoding="utf-8") as fh:
        data = json.load(fh)
    assert all(len(pair) == 2 for pair in data["zeros"])


_TINY = np.finfo(float).smallest_subnormal


def _bits(a):
    return a.view(np.uint64).tolist()


def test_json_round_trips_are_bit_exact(tmp_path):
    # signed zeros, subnormals and the float extremes come back bit for bit
    zeros = ZeroSequence([complex(-0.0, 0.5), complex(0.3, -0.0), complex(_TINY, -_TINY),
                          complex(-3 * _TINY, 0.7), complex(0.1, -1.0 / 3.0), -0.0 - 0.0j,
                          0.9999985 * np.exp(2j)])
    zeros.to_json(tmp_path / "z.json")
    assert _bits(ZeroSequence.from_json(tmp_path / "z.json").points) == _bits(zeros.points)

    parts = [0.0, -0.0, _TINY, -_TINY, 3 * _TINY, np.finfo(float).smallest_normal * 0.999,
             1e308, -1e308, np.finfo(float).max, 0.1, -1.0 / 3.0, -0.0]
    values = np.empty(6, dtype=complex)
    values.real, values.imag = parts[::2], parts[1::2]
    ValueSequence(values).to_json(tmp_path / "w.json")
    assert _bits(ValueSequence.from_json(tmp_path / "w.json").values) == _bits(values)


def test_json_integers_read_as_floats(tmp_path):
    assert ValueSequence.from_dict({"values": [[1, 0], [2, -3]]}).values.tolist() == [1, 2 - 3j]
    # an integer too large for a float reads as infinity, which the sequence refuses
    path = tmp_path / "w.json"
    path.write_text('{"values": [[1' + "0" * 400 + ', 0]]}', encoding="utf-8")
    with pytest.raises(ValueError, match="values must be finite"):
        ValueSequence.from_json(path)


@pytest.mark.parametrize("cls, data", [
    (ZeroSequence, [1, 2]),
    (ZeroSequence, {"points": []}),
    (ZeroSequence, {"zeros": None}),
    (ZeroSequence, {"zeros": [1, 2]}),
    (ZeroSequence, {"zeros": [["a", 0]]}),
    (ZeroSequence, {"zeros": [[0.1, 0.2, 0.3]]}),
    (ZeroSequence, {"zeros": [[True, 0.0]]}),
    (ValueSequence, {"values": [[1, 0], 2]}),
    (ValueSequence, {"values": [[1.0, None]]}),
    (ValueSequence, {"zeros": [[1.0, 0.0]]}),
])
def test_malformed_sequence_data_names_its_key(cls, data):
    key = "zeros" if cls is ZeroSequence else "values"
    with pytest.raises(ValueError, match=f"'{key}' lists \\[re, im\\] pairs"):
        cls.from_dict(data)


def test_smoothness_descriptor_validation():
    SmoothnessDescriptor("lipschitz", alpha=1.0)
    SmoothnessDescriptor("bmo")
    SmoothnessDescriptor("gevrey", alpha=0.5)
    SmoothnessDescriptor("sobolev", p=2.0, s=1.0)
    with pytest.raises(ValueError):
        SmoothnessDescriptor("lipschitz")
    with pytest.raises(ValueError):
        SmoothnessDescriptor("bmo", alpha=1.0)
    with pytest.raises(ValueError):
        SmoothnessDescriptor("sobolev", p=1.0, s=1.0)
    with pytest.raises(ValueError):
        SmoothnessDescriptor("sobolev", p=2.0, s=-1.0)
    with pytest.raises(ValueError):
        SmoothnessDescriptor("gevrey", alpha=-2.0)
    with pytest.raises(ValueError):
        SmoothnessDescriptor("weird")


@pytest.mark.parametrize("kind, params, message", [
    ("lipschitz", {"alpha": 1.0, "p": 2.0}, "lipschitz takes no p"),
    ("gevrey", {"alpha": 1.0, "s": 1.0}, "gevrey takes no s"),
    ("bmo", {"s": 1.0}, "bmo takes no s"),
    ("sobolev", {"alpha": 1.0}, "sobolev takes no alpha"),  # alpha is checked before p
    ("lipschitz", {}, r"lipschitz requires alpha in \(0, inf\)"),
    ("sobolev", {"p": 1.0, "s": 1.0}, r"sobolev requires p in \(1, inf\)"),
    ("sobolev", {"p": 2.0}, r"sobolev requires s in \(0, inf\)"),
])
def test_smoothness_descriptor_names_the_parameter(kind, params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SmoothnessDescriptor(kind, **params)


def test_smoothness_descriptor_to_dict_lists_its_parameters():
    assert SmoothnessDescriptor("bmo").to_dict() == {"kind": "bmo"}
    assert SmoothnessDescriptor("gevrey", alpha=0.5).to_dict() == {"kind": "gevrey", "alpha": 0.5}
    d = SmoothnessDescriptor("sobolev", p=2, s=1).to_dict()
    assert list(d.items()) == [("kind", "sobolev"), ("p", 2), ("s", 1)]


@pytest.mark.parametrize("kind, params", [
    ("lipschitz", {"alpha": math.nan}),
    ("lipschitz", {"alpha": math.inf}),
    ("gevrey", {"alpha": math.nan}),
    ("gevrey", {"alpha": math.inf}),
    ("sobolev", {"p": 2.0, "s": math.nan}),
    ("sobolev", {"p": 2.0, "s": math.inf}),
    ("sobolev", {"p": math.nan, "s": 1.0}),
])
def test_smoothness_descriptor_rejects_non_finite_parameters(kind, params):
    with pytest.raises(ValueError, match="requires"):
        SmoothnessDescriptor(kind, **params)


@pytest.mark.parametrize("kind, params, name", [
    ("lipschitz", {"alpha": True}, "alpha"),
    ("gevrey", {"alpha": "1"}, "alpha"),
    ("sobolev", {"p": 2.0, "s": True}, "s"),
    ("sobolev", {"p": 2.0 + 0j, "s": 1.0}, "p"),
])
def test_smoothness_descriptor_refuses_non_real_parameters(kind, params, name):
    # a bool or a non-real value is refused by name, not accepted or left to a TypeError
    with pytest.raises(ValueError, match=f"requires {name} in"):
        SmoothnessDescriptor(kind, **params)


def test_smoothness_descriptor_takes_numpy_reals():
    assert SmoothnessDescriptor("gevrey", alpha=np.float64(0.5)).alpha == 0.5
    assert SmoothnessDescriptor("sobolev", p=np.int64(2), s=np.float32(1.5)).to_dict() == {
        "kind": "sobolev", "p": 2, "s": 1.5}


@pytest.mark.parametrize("kind, params, name", [
    ("rotated_radial", {"q": "0.5", "n": 3}, "q"),
    ("rotated_radial", {"q": 0.5, "n": 3, "angle_step": "0.1"}, "angle_step"),
    ("rotated_radial", {"q": 0.5, "n": 3, "angle_step": True}, "angle_step"),
    ("separated", {"c": "1", "s": 0.3, "n": 4}, "c"),
    ("separated", {"c": True, "s": 0.3, "n": 4}, "c"),
    ("separated", {"c": 1.0, "s": 0.3j, "n": 4}, "s"),
])
def test_generate_refuses_non_real_parameters(kind, params, name):
    with pytest.raises(ValueError, match=f"^{name} must be a real number"):
        generate_sequence(kind, **params)


def test_generate_takes_numpy_reals():
    for kind, params in [("rotated_radial", {"q": 0.5, "angle_step": 0.25}),
                         ("separated", {"c": 1.0, "s": 0.3})]:
        as_numpy = {k: np.float64(v) for k, v in params.items()}
        got = generate_sequence(kind, n=6, **as_numpy).points
        assert np.array_equal(got, generate_sequence(kind, n=6, **params).points)


def _full_matrix_separated(c, s, n):
    # the separated recipe as it was written with the whole n x n gap matrix
    j = np.arange(n)
    level = 1
    while True:
        delta = 2.0 ** (-level)
        deltas = delta * (1.0 - j / (2.0 * n))
        if deltas.min() < ETA_MIN:
            return None
        pts = (1.0 - deltas) * np.exp(1j * (2.0 * math.pi * j / n + _GOLDEN_ANGLE * level))
        gap = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(gap, np.inf)
        if np.all(gap >= (c * deltas ** s)[:, None]):
            return pts
        level += 1


def _full_matrix_min_separation(pts):
    rho = np.abs(pts[:, None] - pts[None, :]) / np.abs(1.0 - np.conj(pts[:, None]) * pts[None, :])
    np.fill_diagonal(rho, np.inf)
    return float(rho.min()) if pts.size > 1 else math.inf


@pytest.mark.parametrize("c", [0.05, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("s", [0.05, 0.3, 0.45])
@pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
def test_blocked_separation_matches_the_full_matrix(c, s, n):
    # the row-blocked nearest distances give the full-matrix layout, refusal and minimum
    want = _full_matrix_separated(c, s, n)
    if want is None:
        with pytest.raises(ValueError, match="cannot satisfy"):
            generate_sequence("separated", c=c, s=s, n=n)
        return
    zeros = generate_sequence("separated", c=c, s=s, n=n)
    assert np.array_equal(zeros.points, want)
    assert zeros.min_separation() == _full_matrix_min_separation(want)


def test_separation_checks_keep_memory_linear():
    # at n = 2000 the full matrices took 122 MiB (recipe) and 153 MiB (minimum)
    made = []
    assert transient_peak(lambda: made.append(generate_sequence(
        "separated", c=0.05, s=0.3, n=2000))) <= 8 << 20
    assert transient_peak(made[0].min_separation) <= 8 << 20
