"""Command-line driver: config validation, exit codes, file formats,
output determinism, and the denoise pipeline."""

import numpy as np
import pytest

from varexp.cli import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
    read_field,
    read_pgm,
    write_field,
    write_pgm,
)
from varexp.grid import CellField, Grid, GridFunction

BASE = """
[run]
seed = 7
[grid]
dim = 2
origin = -2 -2
extent = 4 4
cells = 8 8
[exponent]
kind = constant
value = 2.0
[data]
instance = matched
[solver]
tolerance = 1e-9
"""


def cfg_file(tmp_path, text, name="exp.cfg"):
    f = tmp_path / name
    f.write_text(text)
    return f


def test_unknown_key_names_section_and_field(tmp_path, capsys):
    f = cfg_file(tmp_path, BASE.replace("cells = 8 8", "cells = 8 8\ncellz = 4 4"))
    rc = main(["solve", "--config", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "[grid]" in err and "cellz" in err


def test_unknown_section_rejected(tmp_path, capsys):
    f = cfg_file(tmp_path, BASE + "\n[plotting]\ncolor = red\n")
    rc = main(["solve", "--config", str(f), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "plotting" in capsys.readouterr().err


def test_bad_value_names_field(tmp_path, capsys):
    f = cfg_file(tmp_path, BASE.replace("cells = 8 8", "cells = 1 8"))
    rc = main(["solve", "--config", str(f), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "cells" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.cfg")])
    assert rc == EXIT_CONFIG


def test_usage_errors_exit_with_config_code(tmp_path):
    f = cfg_file(tmp_path, BASE)
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", str(f)])
    assert exc.value.code == EXIT_CONFIG
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # --config is required
    assert exc.value.code == EXIT_CONFIG


def test_load_config_overrides(tmp_path):
    f = cfg_file(tmp_path, BASE)
    cfg = load_config("solve", f, out=str(tmp_path / "x"), seed=99)
    assert cfg.seed == 99
    assert cfg.out.name == "x"
    assert cfg.cells == (8, 8)
    assert len(cfg.config_hash) == 64


def test_solve_outputs_and_determinism(tmp_path):
    f = cfg_file(tmp_path, BASE)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", "--config", str(f), "--out", str(out)]) == EXIT_OK
        assert (out / "report.txt").exists()
        assert (out / "solution.vxf").exists()
        assert (out / "exponent.vxf").exists()
        outs.append((out / "solve.csv").read_bytes())
    assert outs[0] == outs[1]  # identical config + seed -> identical bytes
    assert b"residual" in outs[0]


def test_vxf_round_trip_exact(tmp_path):
    g = Grid(2, (-1.0, 0.5), (2.0, 1.5), (5, 3))
    rng = np.random.default_rng(3)
    u = GridFunction(g, rng.normal(size=(g.num_nodes, 2)) * 1e3)
    path = tmp_path / "u.vxf"
    write_field(path, u)
    back = read_field(path)
    assert isinstance(back, GridFunction)
    assert back.grid == g
    np.testing.assert_array_equal(back.values, u.values)  # %.17g is lossless
    c = CellField(g, rng.normal(size=(g.num_cells, 2)))
    write_field(tmp_path / "c.vxf", c)
    back_c = read_field(tmp_path / "c.vxf")
    assert isinstance(back_c, CellField)
    assert back_c.grid == g
    np.testing.assert_array_equal(back_c.values, c.values)


def test_vxf_rejects_malformed(tmp_path):
    path = tmp_path / "bad.vxf"
    path.write_text("VXF9 2 1 nodes 3 3 0 0 1 1\n")
    with pytest.raises(ConfigError):
        read_field(path)
    path.write_text("VXF1 2 1 nodes 2 2 0 0 1 1\n1.0\n")  # truncated values
    with pytest.raises(ConfigError):
        read_field(path)


def test_pgm_round_trips(tmp_path):
    img = np.arange(30, dtype=np.int64).reshape(5, 6) * 8
    for magic in ("P2", "P5"):
        path = tmp_path / f"im_{magic}.pgm"
        write_pgm(path, img, magic=magic)
        back, maxval, got_magic = read_pgm(path)
        np.testing.assert_array_equal(back, img)
        assert maxval == 255 and got_magic == magic
    # comments and odd whitespace are tolerated
    path = tmp_path / "c.pgm"
    path.write_text("P2 # magic\n# a comment line\n3 2\n255\n0 1 2\n3 4 5\n")
    back, _, _ = read_pgm(path)
    np.testing.assert_array_equal(back, np.arange(6).reshape(2, 3))
    bad = tmp_path / "bad.pgm"
    bad.write_text("P3\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ConfigError):
        read_pgm(bad)


def test_nonconvergence_exit_code(tmp_path, capsys):
    text = BASE.replace("tolerance = 1e-9",
                        "tolerance = 1e-15\nmax_iterations = 1")
    # p != 2 makes a single damped Newton step insufficient
    text = text.replace("value = 2.0", "value = 2.6")
    f = cfg_file(tmp_path, text)
    rc = main(["solve", "--config", str(f), "--out", str(tmp_path / "o")])
    assert rc == EXIT_NO_CONVERGENCE
    assert "converge" in capsys.readouterr().err


def test_verify_records(tmp_path):
    f = cfg_file(tmp_path, BASE)
    out = tmp_path / "v"
    assert main(["verify", "--config", str(f), "--out", str(out)]) == EXIT_OK
    lines = (out / "records.csv").read_text().splitlines()
    assert lines[0] == "name,cube,resolution,lhs,rhs_sum,constant,components,flags"
    names = {ln.split(",")[0] for ln in lines[1:]}
    assert "caccioppoli" in names
    assert any(n.startswith("reverse-holder") for n in names)
    assert any(n.startswith("higher-integrability") for n in names)


def test_gehring_command(tmp_path):
    f = cfg_file(tmp_path, BASE)
    out = tmp_path / "g"
    assert main(["gehring", "--config", str(f), "--out", str(out)]) == EXIT_OK
    lines = (out / "gehring.csv").read_text().splitlines()
    assert lines[0] == "mu,lhs,rhs,constant"
    assert len(lines) > 1
    report = (out / "report.txt").read_text()
    assert "m0" in report and "sigma" in report


def test_goodlambda_command(tmp_path):
    f = cfg_file(tmp_path, BASE)
    out = tmp_path / "gl"
    assert main(["goodlambda", "--config", str(f), "--out", str(out)]) == EXIT_OK
    lines = (out / "goodlambda.csv").read_text().splitlines()
    assert lines[0] == "epsilon,lambda,delta"
    deltas = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert all(0.0 <= d <= 1.0 for d in deltas)


def test_sweep_command(tmp_path):
    f = cfg_file(tmp_path, BASE + "\n[sweep]\nrefinements = 1\n")
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(f), "--out", str(out)]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("axis,setting,name")
    axes = {ln.split(",")[0] for ln in lines[1:]}
    assert {"refinement", "size", "amplitude"} <= axes


def test_denoise_zero_strength_is_identity(tmp_path):
    rng = np.random.default_rng(11)
    img = rng.integers(0, 256, size=(12, 14))
    write_pgm(tmp_path / "in.pgm", img)
    text = ("[run]\nseed = 1\n[denoise]\nimage = in.pgm\nstrength = 0\n"
            "p_min = 1.4\np_max = 2.0\n")
    f = cfg_file(tmp_path, text)
    out = tmp_path / "d"
    assert main(["denoise", "--config", str(f), "--out", str(out)]) == EXIT_OK
    back, _, _ = read_pgm(out / "denoised.pgm")
    np.testing.assert_array_equal(back, img)


def test_denoise_smooths_constant_image(tmp_path):
    img = np.full((10, 10), 128, dtype=np.int64)
    write_pgm(tmp_path / "flat.pgm", img)
    text = ("[run]\nseed = 1\n[denoise]\nimage = flat.pgm\nstrength = 2\n")
    f = cfg_file(tmp_path, text)
    out = tmp_path / "d"
    assert main(["denoise", "--config", str(f), "--out", str(out)]) == EXIT_OK
    back, _, _ = read_pgm(out / "denoised.pgm")
    np.testing.assert_array_equal(back, img)  # constants are fixed points
    metrics = dict(
        ln.split(",") for ln in (out / "denoise.csv").read_text().splitlines()[1:])
    assert float(metrics["mean_abs_change"]) == 0.0
    assert "residual" in metrics


def test_threads_flag_rejected(tmp_path):
    # --threads set the BLAS thread variables only after NumPy had loaded
    # them, so it did nothing and was removed; it is now a usage error.
    f = cfg_file(tmp_path, BASE)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(f), "--out", str(tmp_path / "t"),
              "--threads", "1"])
    assert exc.value.code == EXIT_CONFIG
    assert not (tmp_path / "t").exists()


def test_goodlambda_first_lambda_is_lambda0(tmp_path):
    # with lambda_factors starting at 1 the first lambda of the table is
    # lambda0 itself: the table and the report must read the same constant
    text = BASE.replace("instance = matched", "instance = bump").replace(
        "origin = -2 -2", "origin = -2.1 -1.85")
    f = cfg_file(tmp_path, text + "[estimates]\nlambda_factors = 1 2\n")
    out = tmp_path / "gl"
    assert main(["goodlambda", "--config", str(f), "--out", str(out)]) == EXIT_OK
    first = (out / "goodlambda.csv").read_text().splitlines()[1].split(",")[1]
    report = dict(ln.split(" = ", 1) for ln in (out / "report.txt").read_text().splitlines()
                  if " = " in ln and not ln.startswith("delta"))
    assert float(first) == float(report["lambda0"])


def test_sweep_solves_each_instance_once(tmp_path, monkeypatch):
    import varexp.cli as cli

    solved = []

    def counting(G, p, boundary, grid, opts):
        solved.append((grid, p.values.tobytes()))
        return solve(G, p, boundary, grid, opts)

    solve = cli.solve_pxlaplace
    monkeypatch.setattr(cli, "solve_pxlaplace", counting)
    sweep = "\n[sweep]\nrefinements = 1\nsizes = 1 2\namplitudes = 1 0.5\n"
    out = tmp_path / "s"
    f = cfg_file(tmp_path, BASE + sweep)
    assert main(["sweep", "--config", str(f), "--out", str(out)]) == EXIT_OK
    # constant p: every size and amplitude reuses the base-grid solve
    assert len(solved) == 2
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert {r.split(",")[0] for r in rows} == {"refinement", "size", "amplitude"}
    assert len(rows) == 2 * 2 + 2 * 2 + 2 * 4

    # varying p: amplitude 0.5 is a new instance, and no solve repeats
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (4, 4))
    table = GridFunction(g, 2.0 + 0.3 * np.sin(g.node_coords[:, 0]))
    write_field(tmp_path / "p.vxf", table)
    solved.clear()
    text = BASE.replace("kind = constant", "kind = table\npath = p.vxf")
    f = cfg_file(tmp_path, text + sweep, name="table.cfg")
    assert main(["sweep", "--config", str(f), "--out", str(out)]) == EXIT_OK
    assert len(solved) == len(set(solved)) >= 3
