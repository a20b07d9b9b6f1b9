import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from greenbox import (ConfigError, build_grid, fields, green, green_column,
                      make_field, mesh, sparse, verify)
from greenbox.cli import dump_field, main, parse_config


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_config_roundtrip(tmp_path):
    cfg_path = write(tmp_path / "run.cfg", """
# a comment
family = scalar_trig
dim = 2
params = 2.0, 1.0, 1.0
R = 1.0
n = 17
rel_tol = 1e-10
""")
    cfg = parse_config(cfg_path)
    assert cfg["family"] == "scalar_trig"
    assert cfg["params"] == "2.0, 1.0, 1.0"
    assert cfg["n"] == "17"


def test_parse_config_rejects_unknown_keys(tmp_path):
    bad = write(tmp_path / "bad.cfg", "turbo = yes\n")
    with pytest.raises(ConfigError):
        parse_config(bad)
    nosep = write(tmp_path / "nosep.cfg", "family scalar_trig\n")
    with pytest.raises(ConfigError):
        parse_config(nosep)


def test_dump_field_contract(tmp_path):
    g = build_grid(2, 1.0, 5)
    col = green_column(make_field("identity", 2), g, g.center_index)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    dump_field(col.values, g, str(p1))
    dump_field(col.values, g, str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2  # byte-identical reruns
    lines = b1.decode().splitlines()
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 1 + g.n_nodes  # 25 data rows
    # lexicographic node order: first node is the (-R, -R) corner
    assert lines[1].startswith("-1,") and ",-1," in lines[1]


def test_dump_field_3d_row_count(tmp_path):
    g = build_grid(3, 1.0, 9)
    col = green_column(make_field("identity", 3), g, g.center_index)
    path = tmp_path / "c.csv"
    dump_field(col.values, g, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,value"
    assert len(lines) == 1 + 729


@pytest.mark.parametrize("dim, n", [(2, 5), (3, 9)])
def test_dump_field_bytes_match_row_loop(tmp_path, dim, n):
    g = build_grid(dim, 1.0, n)
    vals = np.random.default_rng(3).normal(size=g.n_nodes)
    vals[:4] = (-0.0, np.inf, -np.inf, 1e-320)
    # reference: one f-string per cell, row by row
    header = ",".join(f"x{k + 1}" for k in range(dim)) + ",value"
    rows = [",".join(f"{c:.17g}" for c in (*g.node_coords[i], vals[i]))
            for i in range(g.n_nodes)]
    path = tmp_path / "f.csv"
    dump_field(vals, g, str(path))
    assert path.read_bytes() == ("\n".join([header] + rows) + "\n").encode()


def test_cli_solve_and_dump(tmp_path):
    text = "family = scalar_trig\ndim = 2\nR = 1.0\nn = 9\n"
    out = tmp_path / "out"
    assert main(["solve", "--config", write(tmp_path / "g.cfg", text),
                 "--out", str(out)]) == 0
    green_csv = np.loadtxt(out / "green.csv", delimiter=",", skiprows=1)
    grid = build_grid(2, 1.0, 9)
    assert np.array_equal(green_csv[:, :2], grid.node_coords)
    grad = write(tmp_path / "grad.cfg",
                 text + "quantity = gradient_magnitude\n")
    assert main(["solve", "--config", grad, "--out", str(out)]) == 0
    # 17 significant digits read back exactly, so the gradient of the
    # green.csv values dumps to the same bytes
    gmag = np.linalg.norm(mesh.gradient_field(green_csv[:, 2], grid), axis=1)
    dump_field(gmag, grid, str(tmp_path / "ref.csv"))
    assert (out / "gradient_magnitude.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()
    assert main(["solve", "--config", grad]) == 2  # a quantity, no --out
    assert main(["solve", "--seed", "1"]) == 2  # solve draws nothing
    bad = write(tmp_path / "bad.cfg", text + "quantity = flux\n")
    assert main(["solve", "--config", bad, "--out", str(tmp_path)]) == 2


def test_cli_field_info(tmp_path, capsys):
    cfg = write(tmp_path / "f.cfg", "family = diag_aniso\ndim = 3\n")
    assert main(["field-info", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "diag_aniso" in out and "alpha_hat" in out
    # field-info writes nothing and runs no preset
    assert main(["field-info", "--out", str(tmp_path)]) == 2
    assert main(["field-info", "--preset", "adjoint"]) == 2


def test_cli_field_info_seed_from_config_unless_flag(tmp_path, capsys,
                                                     monkeypatch):
    # the precedence verify gives its run keys: --seed, else the config's
    seeds, check = [], fields.verify_periodicity

    def recording(field, seed=0, **kwargs):
        seeds.append(seed)
        return check(field, seed=seed, **kwargs)
    monkeypatch.setattr(fields, "verify_periodicity", recording)
    cfg = write(tmp_path / "f.cfg", "family = scalar_trig\nseed = 5\n")
    assert main(["field-info", "--config", cfg]) == 0
    assert main(["field-info", "--config", cfg, "--seed", "3"]) == 0
    bare = write(tmp_path / "bare.cfg", "family = scalar_trig\n")
    assert main(["field-info", "--config", bare]) == 0
    assert seeds == [5, 3, 0]


def test_cli_verify_pass_and_report(tmp_path):
    out = tmp_path / "rep"
    rc = main(["verify", "--preset", "adjoint", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["overall_pass"] is True
    assert report["artifact"] == "greenbox"
    assert all(c["passed"] for c in report["checks"])
    assert all("anchor" in c for c in report["checks"])


def test_cli_verify_selftest_fails_with_exit_1(tmp_path, monkeypatch):
    def wrong_slope():
        return [verify.Check(name="selftest.wrong_slope", anchor="a violation",
                             passed=False, measured={"slope": 0.16},
                             expected={"slope": 1.0, "tol": 0.05})]
    monkeypatch.setitem(verify.PRESETS, "selftest-fail", wrong_slope)
    out = tmp_path / "rep"
    rc = main(["verify", "--preset", "selftest-fail", "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "report.json").read_text())
    assert report["overall_pass"] is False


@pytest.mark.parametrize("text, preset", [
    ("nonsense = 1\n", "adjoint"),
    ("R =\n", "adjoint"),
    ("n = 17\nn = 33\n", "adjoint"),
    ("params = 2, 1.9, 1\n", "oracle"),  # verify reads no field params
    ("n = 33\n", "lorentz"),             # no parameter of lorentz
    ("holder_exponent = 0.5\n", "adjoint"),
    ("experiments = adjoint\n", "adjoint"),
], ids=["unknown-key", "empty-value", "repeated-key", "params", "unrouted-n",
        "holder_exponent", "experiments"])
def test_cli_malformed_config_exit_2(tmp_path, capsys, text, preset):
    bad = write(tmp_path / "bad.cfg", text)
    out = tmp_path / "nores"
    rc = main(["verify", "--config", bad, "--preset", preset,
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (out / "report.json").exists()


def test_cli_non_finite_override_exit_2(tmp_path, capsys):
    cfg = write(tmp_path / "nan.cfg", "family = scalar_trig\nalpha = nan\n")
    assert main(["field-info", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_non_integer_frequency_exit_2(tmp_path, capsys):
    cfg = write(tmp_path / "solve.cfg",
                "family = scalar_trig\ndim = 2\nn = 9\nparams = 2,1,0.5\n")
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "freq" in err[0]


@pytest.mark.parametrize("R", ["nan", "inf"])
def test_cli_non_finite_half_width_exit_2(tmp_path, capsys, R):
    # R = nan used to exit 0 with a column on a grid of NaN coordinates
    cfg = write(tmp_path / "solve.cfg", f"dim = 2\nR = {R}\nn = 9\n")
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]


def test_cli_out_of_memory_exit_2(tmp_path, capsys, monkeypatch):
    def oversized(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB")
    monkeypatch.setattr(green, "green_column", oversized)
    cfg = write(tmp_path / "solve.cfg", "family = identity\ndim = 2\nn = 9\n")
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_oversized_grid_rejected_before_allocation(tmp_path, capsys,
                                                      monkeypatch):
    def allocating(*args, **kwargs):
        pytest.fail("the oversized grid reached the solver")
    monkeypatch.setattr(green, "green_column", allocating)
    monkeypatch.setattr(fields, "evaluate", allocating)
    # R = 2, period 500: 32 GiB holds the period cell's 502^3 nodes in 14
    # rows (19.8 GiB), not the slab's 500 planes of 1999^2 nodes
    monkeypatch.setattr(sparse, "physical_memory", lambda: 32 * 2**30)
    cfg = write(tmp_path / "solve.cfg", "family = identity\ndim = 3\nn = 2001\n")
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "stencil" in err


def test_cli_zero_iteration_cap_exit_2(tmp_path, capsys):
    cfg = write(tmp_path / "solve.cfg",
                "dim = 2\nn = 17\nR = 1.0\nmax_iter = 0\n")
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "0 iterations" in err[0]


def test_cli_unknown_preset_exit_2():
    assert main(["verify", "--preset", "no-such-thing"]) == 2


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "greenbox.cli", "verify", "--preset", "adjoint",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_runner_parameters_are_the_routed_keys():
    # every settable value of a runner is a config key (family as families);
    # each other expectation is a literal in the runner
    table = {
        "decay3d": {"families", "R", "n", "rel_tol", "radii_count", "eta"},
        "log2d": {"families", "R", "n", "rel_tol", "radii_count", "eta"},
        "monotone": {"families", "rel_tol"},
        "adjoint": {"n", "R", "rel_tol"},
        "lorentz": {"seed"},
        "uniform": {"families", "rel_tol"},
        "lift": {"R", "rel_tol"},
        "oracle": {"families", "rel_tol"},
    }
    got = {name: set(inspect.signature(runner).parameters)
           for name, runner in verify.PRESETS.items()}
    assert list(got.items()) == list(table.items())  # the order of all


@pytest.mark.parametrize("argv", [
    ["verify", "--preset", "adjoint", "--threads", "2"],
    ["decay"], ["lorentz"], ["lift"], ["dump", "--out", "."],
], ids=["--threads", "decay", "lorentz", "lift", "dump"])
def test_cli_removed_paths_exit_2(argv):
    # the verbs are now verify --preset decay3d (log2d) / lorentz / lift and
    # solve --out
    assert main(argv) == 2


def test_cli_config_run_keys_reach_runners(tmp_path, capsys):
    def run(name, cfg_text=None):
        args = ["verify", "--preset", "adjoint", "--out", str(tmp_path / name)]
        if cfg_text:
            args += ["--config", write(tmp_path / f"{name}.cfg", cfg_text)]
        return main(args)

    def dense_scale(name):
        report = json.loads((tmp_path / name / "report.json").read_text())
        dense, = [c for c in report["checks"]
                  if c["name"] == "adjoint.dense.nonsym_skew"]
        return dense["measured"]["scale"]

    # the iterative adjoint check probes x = (4h, 2h), which at n = 9 is a
    # node of the face x1 = 1
    assert run("n9", "n = 9\n") == 2
    assert "lies on the Dirichlet boundary" in capsys.readouterr().err
    assert run("n11", "n = 11\n") == 0
    assert run("n33", "n = 33\n") == 0 and run("default") == 0
    assert dense_scale("n33") != dense_scale("default")


def test_cli_unknown_name_in_preset_list_exit_2(tmp_path):
    out = tmp_path / "rep"
    assert main(["verify", "--preset", "adjoint,no-such-thing",
                 "--out", str(out)]) == 2
    assert not (out / "report.json").exists()
