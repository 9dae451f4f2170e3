import json

import numpy as np
import pytest

from modelspace import (
    SmoothnessDescriptor,
    ValueSequence,
    ZeroSequence,
    generate_sequence,
    pseudohyperbolic_distance,
)


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


def test_zero_sequence_invariants():
    with pytest.raises(ValueError):
        ZeroSequence(np.array([]))
    with pytest.raises(ValueError):
        ZeroSequence(np.array([0.3, 0.3]))
    with pytest.raises(ValueError):
        ZeroSequence(np.array([1.0 - 1e-9]))
    with pytest.raises(ValueError):
        ZeroSequence(np.array([0.1, 0.2]), labels=("only one",))


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
