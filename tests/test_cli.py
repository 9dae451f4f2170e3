import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modelspace import (
    BoundaryFunction,
    BoundaryGrid,
    InterpolantRepresentation,
    SmoothnessDescriptor,
    ValueSequence,
    ZeroSequence,
    classify_trace,
    conjugate_sequence,
    exp_dichotomy,
    exp_sublevel,
    generate_sequence,
)
from modelspace import blaschke, experiments
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


def test_classify_flags_follow_the_class_table():
    # the --class choices are the descriptor table's kinds, and each parameter
    # a kind takes is a flag of classify, so neither side can grow alone
    from modelspace import core
    from modelspace.cli import _parser

    classify = _parser()[1].choices["classify"]
    options = {a.dest: a for a in classify._actions}
    assert options["klass"].choices == list(core._CLASS_PARAMETERS)
    taken = {name for names in core._CLASS_PARAMETERS.values() for name in names}
    assert taken == set(core._PARAMETER_FLOORS)
    for name in taken:
        assert options[name].option_strings == [f"--{name}"]


@pytest.mark.parametrize("flags", [
    ["--class", "bmo", "--alpha", "1"],
    ["--class", "sobolev", "--p", "0.5", "--s", "1"],
    ["--class", "lipschitz", "--alpha", "-1"],
    ["--class", "lipschitz", "--alpha", "nan"],
    ["--class", "lipschitz", "--alpha", "inf"],
    ["--class", "gevrey", "--alpha", "inf"],
    ["--class", "sobolev", "--p", "2", "--s", "nan"],
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


def test_two_zero_sources_are_a_usage_error(files, capsys):
    # --radial-q used to be ignored silently when --zeros was given too
    _, zpath, _, _, _ = files
    with pytest.raises(SystemExit) as info:
        main(["diagnose", "--zeros", zpath, "--radial-q", "0.5"])
    assert info.value.code == 2
    assert "not allowed with argument --zeros" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--n", "5"), ("--angle-step", "0.3")])
def test_generated_sequence_options_refuse_a_zeros_file(files, capsys, flag, value):
    # --n and --angle-step shape a generated sequence; with --zeros they used
    # to be accepted and ignored
    _, zpath, _, _, _ = files
    with pytest.raises(SystemExit) as info:
        main(["diagnose", "--zeros", zpath, flag, value])
    assert info.value.code == 2
    assert f"argument {flag}: not allowed with argument --zeros" in capsys.readouterr().err


def test_generated_sequence_defaults(tmp_path):
    # without --n and --angle-step a generated sequence has 8 radial zeros
    out = tmp_path / "diag.json"
    assert main(["diagnose", "--radial-q", "0.5", "--out", str(out)]) == 0
    zeros = generate_sequence("rotated_radial", q=0.5, n=8, angle_step=0.0)
    expect = json.loads(json.dumps(blaschke.diagnose(zeros, grid_size=1 << 12).to_dict()))
    assert json.loads(out.read_text()) == expect


@pytest.mark.parametrize("command, key, text", [
    pytest.param("diagnose", "zeros", '{"zeros": [1, 2]}', id="zeros-not-pairs"),
    pytest.param("diagnose", "zeros", '{"points": []}', id="zeros-key-missing"),
    pytest.param("diagnose", "zeros", "[1, 2]", id="zeros-not-an-object"),
    pytest.param("diagnose", "zeros", '{"zeros": [["a", 0]]}', id="zeros-not-reals"),
    pytest.param("transform", "values", '{"values": [[1, 0], 2]}', id="values-not-pairs"),
])
def test_malformed_sequence_file_is_a_usage_error(files, tmp_path, capsys, command, key, text):
    # each of these escaped as a TypeError or KeyError traceback with exit 1
    _, zpath, _, _, _ = files
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    sources = {"zeros": ["--zeros", str(bad)], "values": ["--zeros", zpath, "--values", str(bad)]}
    with pytest.raises(SystemExit) as info:
        main([command, *sources[key]])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: modelspace {command}")
    assert f"'{key}' lists [re, im] pairs" in err and "Traceback" not in err


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


def test_experiment_dichotomy_reads_values(tmp_path):
    # --values is read from its file and passed on as it reads back
    zeros = generate_sequence("rotated_radial", q=0.5, n=6, angle_step=0.0)
    values = ValueSequence(np.linspace(1.0, 2.0, 6) * np.exp(0.7j * np.arange(6)))
    values.to_json(tmp_path / "values.json")
    out = tmp_path / "exp.json"
    assert main(["--grid-log2", "10", "experiment", "--name", "dichotomy", "--radial-q", "0.5",
                 "--n", "6", "--values", str(tmp_path / "values.json"), "--out", str(out)]) == 0
    expect = exp_dichotomy(zeros, values, m=10)
    assert json.loads(out.read_text())["series"] == [list(row) for row in expect.series]


@pytest.mark.parametrize("name, flag, value", [
    ("nonduality", "--values", "VALUES"),
    ("noninterpolation", "--values", "VALUES"),
    ("sublevel", "--values", "missing.json"),
    ("nonduality", "--epsilon", "0.3"),
    ("noninterpolation", "--epsilon", "0.3"),
    ("dichotomy", "--epsilon", "0.3"),
    ("nonduality", "--density", "3"),
    ("noninterpolation", "--density", "3"),
    ("dichotomy", "--density", "3"),
])
def test_experiment_refuses_flags_its_pipeline_does_not_read(files, capsys, name, flag, value):
    # --values is read by dichotomy alone, --epsilon and --density by sublevel
    # alone; elsewhere they exit 2 with the reason, before the pipeline runs or
    # any --values file is opened (missing.json does not exist)
    tmp_path, _, wpath, _, _ = files
    out = tmp_path / "exp.json"
    value = wpath if value == "VALUES" else value
    with pytest.raises(SystemExit) as info:
        main(["--grid-log2", "8", "experiment", "--name", name, "--radial-q", "0.6", "--n", "4",
              flag, value, "--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    owner = "dichotomy" if flag == "--values" else "sublevel"
    assert f"argument {flag}: not allowed with --name {name} (only {owner} reads it)" in err
    assert not out.exists()


def test_experiment_sublevel_defaults_are_the_library_defaults(tmp_path):
    # without --epsilon and --density the CLI passes neither, so exp_sublevel's
    # eps = 0.5 and n_radial = 48 give the output
    out = tmp_path / "sub.json"
    assert main(_sublevel_argv(10, 6, out)) == 0
    data = json.loads(out.read_text())
    zeros = generate_sequence("rotated_radial", q=0.7, n=6, angle_step=0.37)
    kernel = InterpolantRepresentation(zeros, np.full(6, 1.0 / 6), "kernel_basis")
    expect = exp_sublevel(zeros, kernel.sample(BoundaryGrid(10))).to_dict()
    assert data["parameters"] == expect["parameters"]
    assert (data["parameters"]["eps"], data["parameters"]["n_radial"]) == (0.5, 48)
    assert data["series"] == expect["series"]


def _run_python(*args):
    # a fresh interpreter with the checkout's sources first on its path
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _run_cli(*argv):
    # the CLI as its own process, so an uncaught error shows as its exit status
    return _run_python("-m", "modelspace.cli", *argv)


def test_non_finite_zeros_file_exits_nonzero(tmp_path):
    # Python's json reads NaN, so the file parses; ZeroSequence must refuse it
    zpath = tmp_path / "zeros.json"
    zpath.write_text('{"zeros": [[NaN, 0.0], [0.5, 0.0]]}', encoding="utf-8")
    run = _run_cli("diagnose", "--zeros", str(zpath))
    assert run.returncode != 0
    assert "points must be finite" in run.stderr


def test_sublevel_zero_density_exits_nonzero(tmp_path):
    # an empty polar lattice used to report sublevel_sup = 0 with exit status 0
    out = tmp_path / "sub.json"
    run = _run_cli("--grid-log2", "8", "experiment", "--name", "sublevel", "--radial-q", "0.6",
                   "--n", "4", "--density", "0", "--out", str(out))
    assert run.returncode != 0
    assert "n_radial must be at least 1" in run.stderr
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--epsilon", "2"], "eps must lie in (0, 1)"),
    (["--density", "0"], "n_radial must be at least 1"),
])
def test_library_input_error_is_usage_error(flags, message):
    # a ValueError from the library's own checks exits 2 with a usage line,
    # as argparse's errors do, instead of escaping as a traceback
    run = _run_cli("--grid-log2", "8", "experiment", "--name", "sublevel", "--radial-q", "0.6",
                   "--n", "4", *flags)
    assert run.returncode == 2
    assert message in run.stderr
    assert run.stderr.startswith("usage: modelspace experiment")
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("case", ["zeros", "values", "out", "csv", "boundary_csv"])
def test_io_error_is_usage_error(files, tmp_path, capsys, case):
    # an unreadable input or an unwritable output exits 2 with a usage line and
    # the OS message, as argparse's errors do, instead of escaping as a traceback
    _, zpath, wpath, _, _ = files
    bad = str(tmp_path / "missing" / "file")  # its directory does not exist
    command, *flags = {
        "zeros": ["diagnose", "--zeros", bad],
        "values": ["transform", "--zeros", zpath, "--values", bad],
        "out": ["diagnose", "--zeros", zpath, "--out", bad],
        "csv": ["experiment", "--name", "sublevel", "--zeros", zpath, "--csv", bad],
        "boundary_csv": ["interpolate", "--zeros", zpath, "--values", wpath,
                         "--boundary-csv", bad],
    }[case]
    with pytest.raises(SystemExit) as info:
        main(["--grid-log2", "8", command, *flags])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage: modelspace {command}")
    assert "No such file or directory" in captured.err and bad in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


_SCIPY_PROBE = """
import sys
import modelspace, modelspace.cli
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert loaded() == [], loaded()
assert modelspace.cli.main(["--grid-log2", "8", "experiment", "--name", "noninterpolation",
                            "--radial-q", "0.7", "--n", "4", "--out", sys.argv[1]]) == 0
assert loaded() == [], loaded()
assert modelspace.cli.main(["--grid-log2", "8", "diagnose", "--radial-q", "0.5", "--n", "4",
                            "--out", sys.argv[2]]) == 0
assert loaded() == [], loaded()
value = modelspace.kernel_l1_quadrature(0.5)
assert loaded() == [], loaded()
print(repr(value))
"""


def test_import_loads_no_scipy_until_quadrature(tmp_path):
    # a fresh interpreter: the package, a full noninterpolation run (the one
    # pipeline that reports kernel norms), a diagnose run and the kernel norm
    # itself load no scipy module, and the norm is the in-process value
    run = _run_python("-c", _SCIPY_PROBE, str(tmp_path / "e.json"), str(tmp_path / "d.json"))
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) == experiments.kernel_l1_quadrature(0.5)


_MASKED_PROBE = """
import sys
import numpy as np
import modelspace, modelspace.cli
loaded = lambda: sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))
zeros = modelspace.ZeroSequence([0.5, -0.5j, 0.25 + 0.25j])
assert loaded() == [], loaded()
modelspace.ValueSequence(np.arange(1.0, 7.0)).to_json(sys.argv[3])
assert modelspace.cli.main(["--grid-log2", "8", "experiment", "--name", "noninterpolation",
                            "--radial-q", "0.7", "--n", "4", "--out", sys.argv[1]]) == 0
assert loaded() == [], loaded()
assert modelspace.cli.main(["--grid-log2", "8", "classify", "--class", "bmo", "--radial-q", "0.5",
                            "--n", "6", "--values", sys.argv[3], "--out", sys.argv[2]]) == 0
assert loaded() == [], loaded()
"""


def test_run_paths_load_no_numpy_ma(tmp_path):
    # a fresh interpreter: building a zero sequence, a noninterpolation run and
    # a bmo classification load no numpy.ma module (np.unique and np.median
    # import it, at about 8 ms)
    paths = [str(tmp_path / name) for name in ("e.json", "c.json", "w.json")]
    run = _run_python("-c", _MASKED_PROBE, *paths)
    assert run.returncode == 0, run.stderr
    verdict = json.loads(Path(paths[1]).read_text(encoding="utf-8"))
    assert verdict["satisfied"] == "holds"  # the rule reached its median test


def test_parser_built_once_per_process(files, monkeypatch):
    _, zpath, _, _, _ = files
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    counts = []
    for _ in range(3):  # the first call builds the tree unless an earlier test did
        assert main(["--grid-log2", "8", "diagnose", "--zeros", zpath, "--out", os.devnull]) == 0
        counts.append(len(built))
    assert counts[1:] == [counts[0], counts[0]]


def test_pipeline_patched_after_first_call_takes_effect(tmp_path, monkeypatch):
    # the cached parser holds handlers that look their pipeline up at call time
    argv = _sublevel_argv(8, 4, tmp_path / "sub.json")
    assert main(argv) == 0
    seen = []

    def capture(zeros, f, **kwargs):
        seen.append(len(zeros))
        return exp_sublevel(zeros, f, **kwargs)

    monkeypatch.setattr(experiments, "exp_sublevel", capture)
    assert main(argv) == 0
    assert seen == [4]
