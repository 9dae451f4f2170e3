import json
import re

import numpy as np
import pytest

from modelspace import (
    BoundaryFunction,
    BoundaryGrid,
    SmoothnessDescriptor,
    ValueSequence,
    ZeroSequence,
    classify_trace,
    conjugate_sequence,
    exp_dichotomy,
    exp_sublevel,
    generate_sequence,
)
from modelspace import experiments
from modelspace.cli import main


@pytest.fixture
def files(tmp_path):
    zeros = ZeroSequence([0, 0.5])
    values = ValueSequence([1.0, 0.0])
    zpath = tmp_path / "zeros.json"
    wpath = tmp_path / "values.json"
    zeros.to_json(zpath)
    values.to_json(wpath)
    return tmp_path, str(zpath), str(wpath), zeros, values


def test_diagnose(files, capsys):
    tmp, zpath, _, zeros, _ = files
    out = tmp / "diag.json"
    assert main(["diagnose", "--zeros", zpath, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert set(data["scalars"]) == {"delta", "frostman_sup", "blaschke_sum", "min_separation"}
    assert data["scalars"]["blaschke_sum"] == pytest.approx(1.5)


def test_diagnose_generated(tmp_path):
    out = tmp_path / "diag.json"
    assert main(["diagnose", "--radial-q", "0.5", "--n", "6", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["scalars"]["blaschke_sum"] == pytest.approx(1 - 2.0 ** -6)


def test_transform(files):
    tmp, zpath, wpath, zeros, values = files
    out = tmp / "wt.json"
    assert main(["transform", "--zeros", zpath, "--values", wpath, "--out", str(out)]) == 0
    got = ValueSequence.from_json(out)
    expect = conjugate_sequence(zeros, values)
    assert np.allclose(got.values, expect.values, atol=1e-12)


def test_interpolate_with_boundary_csv(files):
    tmp, zpath, wpath, zeros, values = files
    out = tmp / "interp.json"
    csv_path = tmp / "boundary.csv"
    assert main([
        "--grid-log2", "8",
        "interpolate", "--zeros", zpath, "--values", wpath,
        "--form", "kernel", "--boundary-csv", str(csv_path), "--out", str(out),
    ]) == 0
    data = json.loads(out.read_text())
    assert data["form"] == "kernel_basis"
    assert len(data["coefficients"]) == 2
    assert data["membership_defect"] < 1e-9
    assert data["within_tolerance"] is True
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == 256


def test_classify_cli(files):
    tmp, zpath, wpath, zeros, values = files
    out = tmp / "verdict.json"
    assert main([
        "classify", "--zeros", zpath, "--values", wpath,
        "--class", "lipschitz", "--alpha", "1.0", "--out", str(out),
    ]) == 0
    data = json.loads(out.read_text())
    expect = classify_trace(zeros, values, SmoothnessDescriptor("lipschitz", alpha=1.0))
    assert data["satisfied"] == expect.verdict
    assert data["class"] == {"kind": "lipschitz", "alpha": 1.0}


def test_classify_cli_all_classes(files, tmp_path):
    _, zpath, wpath, zeros, values = files
    for flags, desc in [
        (["--class", "bmo"], SmoothnessDescriptor("bmo")),
        (["--class", "gevrey", "--alpha", "0.5"], SmoothnessDescriptor("gevrey", alpha=0.5)),
        (["--class", "sobolev", "--p", "2", "--s", "1"], SmoothnessDescriptor("sobolev", p=2, s=1)),
    ]:
        out = tmp_path / "v.json"
        assert main(["classify", "--zeros", zpath, "--values", wpath,
                     *flags, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["satisfied"] == classify_trace(zeros, values, desc).verdict


def test_classify_cli_requires_parameters(files):
    _, zpath, wpath, _, _ = files
    with pytest.raises(SystemExit):
        main(["classify", "--zeros", zpath, "--values", wpath, "--class", "gevrey"])
    with pytest.raises(SystemExit):
        main(["classify", "--zeros", zpath, "--values", wpath, "--class", "sobolev"])


@pytest.mark.parametrize("flags", [
    ["--class", "bmo", "--alpha", "1"],
    ["--class", "sobolev", "--p", "0.5", "--s", "1"],
    ["--class", "lipschitz", "--alpha", "-1"],
])
def test_classify_cli_rejects_malformed_parameters(files, flags):
    _, zpath, wpath, _, _ = files
    with pytest.raises(SystemExit) as info:
        main(["classify", "--zeros", zpath, "--values", wpath, *flags])
    assert info.value.code not in (0, None)


def test_experiment_dichotomy(tmp_path):
    out = tmp_path / "exp.json"
    csv_path = tmp_path / "exp.csv"
    assert main([
        "--grid-log2", "10",
        "experiment", "--name", "dichotomy", "--radial-q", "0.5", "--n", "6",
        "--out", str(out), "--csv", str(csv_path),
    ]) == 0
    data = json.loads(out.read_text())
    assert data["name"] == "dichotomy"
    assert len(data["series"]) == 12  # two series, six truncations
    assert csv_path.read_text().startswith("label,index,value")


def test_experiment_nonduality_and_noninterpolation(tmp_path):
    out = tmp_path / "nd.json"
    assert main([
        "--grid-log2", "10",
        "experiment", "--name", "nonduality", "--radial-q", "0.6", "--n", "6",
        "--out", str(out),
    ]) == 0
    data = json.loads(out.read_text())
    labels = {lab for lab, _, _ in data["series"]}
    assert {"value_preservation_residual", "log_envelope_ratio", "coanalytic_bmo"} <= labels

    out2 = tmp_path / "ni.json"
    assert main([
        "--grid-log2", "10",
        "experiment", "--name", "noninterpolation", "--radial-q", "0.6", "--n", "6",
        "--out", str(out2),
    ]) == 0
    data2 = json.loads(out2.read_text())
    assert data2["verdicts"][0]["class"] == {"kind": "log_growth"}


def test_experiment_sublevel(tmp_path):
    out = tmp_path / "sub.json"
    assert main([
        "--grid-log2", "10",
        "experiment", "--name", "sublevel", "--radial-q", "0.6", "--n", "4",
        "--epsilon", "0.5", "--out", str(out),
    ]) == 0
    data = json.loads(out.read_text())
    labels = {lab for lab, _, _ in data["series"]}
    assert {"sublevel_sup", "boundary_sup", "pairing_bmo"} <= labels


def test_missing_zero_source():
    with pytest.raises(SystemExit):
        main(["diagnose"])


def test_stdout_output(files, capsys):
    _, zpath, wpath, _, _ = files
    assert main(["transform", "--zeros", zpath, "--values", wpath]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "values" in data


def _mean_kernel_oracle(grid, zeros):
    # the M x n matrix form of (1/n) sum_j 1 / (1 - conj(z_j) z) on the grid
    points = zeros.points
    kernels = 1.0 / (1.0 - np.conj(points)[None, :] * grid.nodes[:, None])
    return BoundaryFunction(grid, kernels.sum(axis=1) / len(zeros))


def _sublevel_argv(m, n, out):
    return ["--grid-log2", str(m), "experiment", "--name", "sublevel", "--radial-q", "0.7",
            "--n", str(n), "--angle-step", "0.37", "--out", str(out)]


@pytest.mark.parametrize("m", [10, 12])
@pytest.mark.parametrize("n", [4, 12])
def test_sublevel_kernel_matches_matrix_oracle(tmp_path, monkeypatch, m, n):
    seen = {}

    def capture(zeros, f, **kwargs):
        seen["zeros"], seen["f"] = zeros, f
        return exp_sublevel(zeros, f, **kwargs)

    monkeypatch.setattr(experiments, "exp_sublevel", capture)
    assert main(_sublevel_argv(m, n, tmp_path / "sub.json")) == 0
    oracle = _mean_kernel_oracle(BoundaryGrid(m), seen["zeros"]).samples
    gap = np.max(np.abs(seen["f"].samples - oracle)) / np.max(np.abs(oracle))
    assert gap <= 1e-13


@pytest.mark.parametrize("n", [4, 12])
def test_sublevel_cli_matches_oracle_kernel_pipeline(tmp_path, n):
    out = tmp_path / "sub.json"
    assert main(_sublevel_argv(12, n, out)) == 0
    data = json.loads(out.read_text())
    zeros = generate_sequence("rotated_radial", q=0.7, n=n, angle_step=0.37)
    expect = exp_sublevel(zeros, _mean_kernel_oracle(BoundaryGrid(12), zeros))
    assert data["parameters"]["lattice_points_in_sublevel"] == (
        expect.parameters["lattice_points_in_sublevel"]
    )
    assert [lab for lab, _, _ in data["series"]] == [lab for lab, _, _ in expect.series]
    for (_, _, got), (_, _, want) in zip(data["series"], expect.series):
        assert got == pytest.approx(want, rel=1e-12, abs=0)


_COMMON = {"-h", "--help", "--zeros", "--radial-q", "--n", "--angle-step", "--out"}


@pytest.mark.parametrize("command, extra", [
    ("diagnose", set()),
    ("transform", {"--values"}),
    ("interpolate", {"--values", "--form", "--boundary-csv"}),
    ("classify", {"--values", "--class", "--alpha", "--p", "--s"}),
    ("experiment", {"--name", "--values", "--epsilon", "--density", "--csv"}),
])
def test_subcommand_option_surface(capsys, command, extra):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    found = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
    assert found == _COMMON | extra


@pytest.mark.parametrize("argv", [
    ["diagnose", "--values", "x"],
    ["transform"],
    ["interpolate"],
    ["classify", "--class", "bmo"],
])
def test_values_flag_where_it_belongs(files, argv):
    _, zpath, _, _, _ = files
    with pytest.raises(SystemExit) as info:
        main([argv[0], "--zeros", zpath, *argv[1:]])
    assert info.value.code == 2


def test_experiment_dichotomy_defaults_to_unit_values(tmp_path):
    out = tmp_path / "exp.json"
    assert main(["--grid-log2", "10", "experiment", "--name", "dichotomy",
                 "--radial-q", "0.5", "--n", "6", "--out", str(out)]) == 0
    zeros = generate_sequence("rotated_radial", q=0.5, n=6, angle_step=0.0)
    expect = exp_dichotomy(zeros, ValueSequence(np.ones(6)), m=10)
    assert json.loads(out.read_text())["series"] == [list(row) for row in expect.series]
