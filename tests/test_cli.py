"""Command-line driver: config validation, exit codes, file formats,
output determinism, nested iteration for cold solves, and the denoise
pipeline."""

import itertools
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import varexp
from varexp import solver
from varexp.cli import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    ConfigError,
    _fmt,
    _gaussian_filter,
    load_config,
    main,
    read_field,
    read_pgm,
    write_field,
    write_pgm,
)
from varexp.dyadic import default_max_level, maximal_function
from varexp.estimates import energy_density
from varexp.exponent import ExponentField
from varexp.grid import CellField, Grid, GridFunction
from varexp.solver import manufactured_instance, solve_pxlaplace

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
    cfg = load_config("solve", f, out=str(tmp_path / "x"))
    assert cfg.seed == 7
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
    assert outs[0] == outs[1]  # identical config -> identical bytes
    assert b"residual" in outs[0]

    # one report line per gamma stage, none of which reads as a scalar; the
    # stage steps add up to the iterations scalar
    lines = (tmp_path / "a" / "report.txt").read_text().splitlines()
    stages = [ln for ln in lines if ln.startswith("stage gamma ")]
    assert stages and all(" = " not in ln for ln in stages)
    assert stages[-1].endswith("stop tolerance")
    scalars = dict(ln.split(" = ", 1) for ln in lines if " = " in ln)
    steps = sum(int(ln.split(": ", 1)[1].split(" steps")[0]) for ln in stages)
    assert steps == int(float(scalars["iterations"]))
    assert "checks" not in lines  # solve runs no check


_CUBE_16 = """
[grid]
dim = 3
origin = -2 -2 -2
extent = 4 4 4
cells = 16 16 16
[exponent]
kind = constant
value = 1.7
[data]
instance = bump
"""


def test_solve_bytes_under_threaded_blas(tmp_path):
    # the batched factorization calls BLAS on two threads here; two solves
    # of a 16^3 instance (8^3 cold, then 16^3 warm) still write the same
    # solution.vxf and solve.csv, and the same level and stage lines but
    # for their wall and factorization seconds
    f = cfg_file(tmp_path, _CUBE_16)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=str(Path(varexp.__file__).parents[1]))
    outs = []
    for name in ("a", "b"):
        subprocess.run([sys.executable, "-m", "varexp", "solve", "--config", str(f),
                        "--out", str(tmp_path / name)], env=env, check=True)
        lines = (tmp_path / name / "report.txt").read_text().splitlines()
        stages = [re.sub(r"(factor|wall) \S+ s", r"\1 _ s", ln) for ln in lines
                  if ln.startswith(("solve ", "stage gamma "))]
        outs.append(((tmp_path / name / "solution.vxf").read_bytes(),
                     (tmp_path / name / "solve.csv").read_bytes(), stages))
    assert len(outs[0][2]) >= 4 and "warm from 8x8x8" in "\n".join(outs[0][2])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("env, threads", [
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 1),
    ({"OMP_NUM_THREADS": "1"}, 1),
    ({}, None),  # the CPUs the process may use
])
def test_report_records_blas_and_its_threads(tmp_path, env, threads):
    # the bytes of a solve hang on the BLAS build and its thread count, so
    # the versions line of report.txt names both, the count read by
    # OpenBLAS's rule in the child process; the CSV and VXF outputs do not
    env = {**{k: v for k, v in os.environ.items()
              if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
           **env, "PYTHONPATH": str(Path(varexp.__file__).parents[1])}
    out = tmp_path / "o"
    subprocess.run([sys.executable, "-m", "varexp", "solve", "--config",
                    str(cfg_file(tmp_path, BASE)), "--out", str(out)], env=env, check=True)
    lines = (out / "report.txt").read_text().splitlines()
    versions = dict(ln.split(" = ", 1) for ln in lines if " = " in ln)["versions"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    want = threads or len(os.sched_getaffinity(0))
    assert versions.endswith(f"blas {blas['name']} {blas['version']}, threads {want}")
    for f in out.iterdir():
        if f.suffix in (".csv", ".vxf"):
            assert b"blas" not in f.read_bytes() and b"threads" not in f.read_bytes()


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


def test_vxf_read_holds_no_string_per_value(tmp_path):
    # the body is parsed straight into floats: reading a 24^3 x 3 cell field
    # traces at most twice its array's bytes, where a list of one string per
    # value traced 14.7 times them
    g = Grid(3, (-1.0,) * 3, (2.0,) * 3, (24, 24, 24))
    c = CellField(g, np.random.default_rng(4).normal(size=(g.num_cells, 3)))
    path = tmp_path / "g.vxf"
    write_field(path, c)
    tracemalloc.start()
    try:
        back = read_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.values.tobytes() == c.values.tobytes()
    assert peak <= 2 * c.values.nbytes, (peak, c.values.nbytes)


HEAD_4 = "VXF1 1 1 nodes 4 0 3\n"  # four nodal values


@pytest.mark.parametrize("body", [
    "# four values\n1\n2\n3\n4\n", "1\n2\n3\n4 # four values\n", "1 2\n3\n4\n",
    "1\n2 3 4\n", "1\n2\nx\n4\n", "1\n2\n3\n0x4\n", "", "\n \n\n",
], ids=["comment-line", "comment-tail", "ragged-short", "ragged-long", "token", "hex",
        "empty", "blank"])
def test_vxf_body_layout_is_enforced(tmp_path, body):
    # a body's rows hold equally many values, nothing in it is a comment,
    # and an empty body is an input error, not a NumPy warning
    path = tmp_path / "bad.vxf"
    path.write_text(HEAD_4 + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            read_field(path)


@pytest.mark.parametrize("body", [
    "1\n2\n3\n4\n", "\n1\n\n2\n3\n\n\n4", "1 2 3 4\n", "1 2\n3 4\n", "1\t2\r\n3\t4\r\n",
], ids=["one-per-line", "blank-lines", "one-line", "rows", "tabs-crlf"])
def test_vxf_body_rows_read(tmp_path, body):
    path = tmp_path / "ok.vxf"
    path.write_bytes((HEAD_4 + body).encode())
    np.testing.assert_array_equal(read_field(path).values, [[1.0], [2.0], [3.0], [4.0]])


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


def test_write_pgm_checks_before_opening(tmp_path):
    # an image read_pgm would reject raises, and leaves no file behind
    for pixel, kw in ((200, {"magic": "P3"}), (200, {"maxval": 300}), (200, {"maxval": 0}),
                      (200, {"maxval": 100}), (300, {}), (-1, {})):
        path = tmp_path / "bad.pgm"
        with pytest.raises(ValueError):
            write_pgm(path, np.full((3, 3), pixel), **kw)
        assert not path.exists()


FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def fields(draw):
    """A random 1-D to 3-D nodal or cell field with finite values."""
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.integers(2, 4)) for _ in range(dim))
    origin = tuple(draw(st.floats(-1e6, 1e6)) for _ in range(dim))
    extent = tuple(draw(st.floats(1e-6, 1e6)) for _ in range(dim))
    g = Grid(dim, origin, extent, cells)
    nodal = draw(st.booleans())
    count = g.num_nodes if nodal else g.num_cells
    codomain = draw(st.integers(1, 3))
    values = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=count * codomain, max_size=count * codomain)))
    values = values.reshape(count, codomain)
    return GridFunction(g, values) if nodal else CellField(g, values)


@FUZZ
@given(field=fields())
def test_vxf_round_trip_bits(tmp_path_factory, field):
    path = tmp_path_factory.getbasetemp() / "rt.vxf"
    write_field(path, field)
    back = read_field(path)
    assert type(back) is type(field) and back.grid == field.grid
    assert back.values.shape == field.values.shape
    assert back.values.tobytes() == field.values.tobytes()  # -0.0 and subnormals too


def _edits(draw, tokens: list[bytes], separators: list[bytes]) -> bytes:
    """The tokens of a valid file with a few replaced, dropped or added,
    joined by separators drawn from ``separators``."""
    tokens = list(tokens)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, max(len(tokens) - 1, 0)))
        action = draw(st.sampled_from(["replace", "drop", "insert"]))
        if action == "insert" or not tokens:
            tokens.insert(i, draw(GARBAGE))
        elif action == "drop":
            del tokens[i]
        else:
            tokens[i] = draw(GARBAGE)
    return b"".join(tok + draw(st.sampled_from(separators)) for tok in tokens)


def _truncated(draw, text: bytes) -> bytes:
    return text[:draw(st.integers(0, len(text)))] if draw(st.integers(0, 4)) == 0 else text


NUMBERS = (st.integers(-3, 6) | st.integers(-2**70, 2**70)).map(lambda v: str(v).encode())
GARBAGE = (NUMBERS | st.sampled_from([b"nan", b"inf", b"-0", b"1e999", b"1.5", b"VXF1", b"P2",
                                      b"P5", b"nodes", b"cells", b"#", b"\xff\xfe", b""])
           | st.binary(max_size=4))


@st.composite
def malformed_vxf(draw):
    """A valid VXF text with a few header tokens and values edited."""
    dim = draw(st.integers(1, 3))
    counts = [draw(st.integers(2, 4)) for _ in range(dim)]
    kind = draw(st.sampled_from([b"nodes", b"cells"]))
    codomain = draw(st.integers(1, 2))
    size = int(np.prod(counts)) * codomain
    head = ([b"VXF1", str(dim).encode(), str(codomain).encode(), kind]
            + [str(c).encode() for c in counts] + [b"0"] * dim + [b"1"] * dim)
    values = [b"%r" % draw(st.floats(-10, 10)) for _ in range(size)]
    text = (_edits(draw, head, [b" ", b"\t"]).rstrip() + b"\n"
            + _edits(draw, values, [b"\n", b" ", b"\r\n"]))
    return _truncated(draw, text)


@FUZZ
@given(data=malformed_vxf() | st.binary(max_size=64))
def test_vxf_fuzz_raises_only_config_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.vxf"
    path.write_bytes(data)
    try:
        field = read_field(path)
    except ConfigError:
        return
    assert np.all(np.isfinite(field.values))


@st.composite
def pgm_files(draw):
    """A PGM image (P2 or P5) with its header tokens and pixels drawn around
    the valid ranges, so some files are valid and most are not."""
    magic = draw(st.sampled_from([b"P2", b"P5"]))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.integers(1, 255))
    header = [magic, str(cols).encode(), str(rows).encode(), str(maxval).encode()]
    pixels = draw(st.lists(st.integers(0, maxval), min_size=rows * cols, max_size=rows * cols))
    if magic == b"P5":
        return _truncated(draw, _edits(draw, header, [b" ", b"\n"]) + bytes(pixels))
    return _truncated(draw, _edits(draw, header + [str(v).encode() for v in pixels],
                                   [b" ", b"\n", b"\t", b" # note\n"]))


@FUZZ
@given(data=pgm_files() | st.binary(max_size=64))
def test_pgm_fuzz_raises_only_config_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(data)
    try:
        img, maxval, magic = read_pgm(path)
    except ConfigError:
        return
    assert img.ndim == 2 and img.size > 0 and img.dtype == np.uint8
    assert 0 < maxval <= 255 and img.max() <= maxval and magic in ("P2", "P5")


@FUZZ
@given(rows=st.integers(-3, 4), cols=st.integers(-3, 4), maxval=st.integers(-1, 300),
       pixels=st.lists(st.integers(-300, 300), max_size=16))
def test_p2_reads_declared_pixels_or_raises(tmp_path_factory, rows, cols, maxval, pixels):
    """A P2 file is read exactly as declared, or rejected."""
    path = tmp_path_factory.getbasetemp() / "p2.pgm"
    path.write_text(f"P2\n{cols} {rows}\n{maxval}\n" + " ".join(map(str, pixels)) + "\n")
    valid = (rows > 0 and cols > 0 and 0 < maxval <= 255 and len(pixels) == rows * cols
             and all(0 <= v <= maxval for v in pixels))
    if not valid:
        with pytest.raises(ConfigError):
            read_pgm(path)
        return
    img, got_maxval, magic = read_pgm(path)
    assert img.tolist() == np.reshape(pixels, (rows, cols)).tolist()
    assert (got_maxval, magic) == (maxval, "P2")


def test_nonconvergence_exit_code(tmp_path, capsys):
    # one Newton step per gamma stage leaves the p = 1.3 bump with a final
    # residual near 1e-2, far above the tolerance
    text = BASE.replace("tolerance = 1e-9", "tolerance = 1e-9\nmax_iterations = 1")
    text = text.replace("value = 2.0", "value = 1.3").replace("matched", "bump")
    f = cfg_file(tmp_path, text)
    out = tmp_path / "o"
    rc = main(["solve", "--config", str(f), "--out", str(out)])
    assert rc == EXIT_NO_CONVERGENCE
    assert "converge" in capsys.readouterr().err
    # the report is still written, with the stage lines of the level that
    # missed; the solution is not
    lines = (out / "report.txt").read_text().splitlines()
    (head,) = [ln for ln in lines if ln.startswith("solve 8x8")]
    assert head.startswith("solve 8x8, cold: ") and lines[-1].startswith("stage gamma ")
    assert not (out / "solution.vxf").exists()


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


def test_seed_changes_no_output_bytes(tmp_path):
    # nothing in varexp is random: [run] seed only lands in report.txt, so
    # configs that differ in it alone give the same CSV bytes, auto-kappa
    # (2^3 c4(1.7) = 8 * 2.0308) included
    blobs = []
    for name, seed in (("a", 7), ("b", 8), ("c", 7)):
        text = BASE.replace("seed = 7", f"seed = {seed}").replace("value = 2.0", "value = 1.7")
        f = cfg_file(tmp_path, text, name=f"{name}.cfg")
        out = tmp_path / name
        for cmd in ("verify", "goodlambda"):
            assert main([cmd, "--config", str(f), "--out", str(out / cmd)]) == EXIT_OK
        assert f"seed = {seed}\n" in (out / "verify" / "report.txt").read_text()
        blobs.append((out / "verify" / "records.csv").read_bytes()
                     + (out / "goodlambda" / "goodlambda.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    assert b"kappa=16.2467" in blobs[0]


def test_sweep_command(tmp_path):
    f = cfg_file(tmp_path, BASE + "\n[sweep]\nrefinements = 1\n")
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(f), "--out", str(out)]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("axis,setting,name")
    axes = {ln.split(",")[0] for ln in lines[1:]}
    assert {"refinement", "size", "amplitude"} <= axes


@pytest.mark.parametrize("old, new", [
    ("kind = constant\nvalue = 2.0", "kind = file\npath = p.vxf"),
    ("instance = matched", "instance = files\ng = g.vxf\nboundary = b.vxf"),
], ids=["exponent-file", "files-instance"])
def test_sweep_refinements_need_one_grid(tmp_path, capsys, old, new):
    # a field file holds one grid, so sweep cannot refine an instance read
    # from files: it is a config error naming the key, and the same config
    # with refinements = 0 runs
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (8, 8))
    _, G, bnd = manufactured_instance("matched", g)
    write_field(tmp_path / "p.vxf", GridFunction(g, np.full(g.num_nodes, 2.0)))
    write_field(tmp_path / "g.vxf", G)
    write_field(tmp_path / "b.vxf", bnd)
    text = BASE.replace(old, new)
    assert text != BASE
    f = cfg_file(tmp_path, text)
    assert main(["sweep", "--config", str(f), "--out", str(tmp_path / "a")]) == EXIT_CONFIG
    assert "[sweep] refinements" in capsys.readouterr().err
    f = cfg_file(tmp_path, text + "\n[sweep]\nrefinements = 0\n")
    assert main(["sweep", "--config", str(f), "--out", str(tmp_path / "b")]) == EXIT_OK


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


def test_denoise_runs_the_ladder(tmp_path):
    # 33 x 33 pixels are 32 x 32 cells, which halve: the 16 x 16 level starts
    # from the injected image, the fine level from its prolongation, and a
    # zero-strength image still comes back exactly
    img = np.random.default_rng(12).integers(0, 256, size=(33, 33))
    write_pgm(tmp_path / "in.pgm", img)
    f = cfg_file(tmp_path, "[denoise]\nimage = in.pgm\nstrength = 0\n")
    out = tmp_path / "d"
    assert main(["denoise", "--config", str(f), "--out", str(out)]) == EXIT_OK
    np.testing.assert_array_equal(read_pgm(out / "denoised.pgm")[0], img)
    heads = [ln.split(":")[0] for ln in (out / "report.txt").read_text().splitlines()
             if ln.startswith("solve ")]
    assert heads == ["solve 16x16, cold", "solve 32x32, warm from 16x16"]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(3, 64), cols=st.integers(3, 48),
       sigma=st.sampled_from([1.5, 0.5, 1.0, 2.5]), seed=st.integers(0, 2**32 - 1))
@example(rows=3, cols=3, sigma=1.5, seed=0)  # a radius of 6 reflects twice
@example(rows=3, cols=4, sigma=2.5, seed=1)  # a radius of 10 reflects three times
def test_gaussian_filter_matches_scipy_ndimage(rows, cols, sigma, seed):
    # denoise's smoothing is scipy.ndimage.gaussian_filter with its defaults
    # (reflect mode, truncate 4), written in NumPy so no command loads scipy
    from scipy.ndimage import gaussian_filter

    img = np.random.default_rng(seed).random((rows, cols))
    want = gaussian_filter(img, sigma=sigma)
    got = _gaussian_filter(img, sigma)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


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


def _checks(lines):
    """Of each line of a report's checks block: check name -> (rows tested,
    rows, {reason: its rows' labels, (eps, lam) pairs if any})."""
    block = list(itertools.takewhile(lambda ln: ln.startswith("  "),
                                     lines[lines.index("checks") + 1:]))
    assert block and not any(" = " in ln for ln in block)
    checks = {}
    for ln in block:
        name, rest = ln[2:].split(": ", 1)
        count, *reasons = rest.split("; ")
        k, n = map(int, re.fullmatch(r"(\d+) of (\d+) rows tested", count).groups())
        assert (reasons == ["tested"]) == (k == n)
        checks[name] = (k, n, {why: re.findall(r"\(eps (\S+), lam (\S+)\)", labels)
                               for why, _, labels in (r.partition(" in ") for r in reasons)
                               if why != "tested"})
    return checks


def test_goodlambda_flags_vacuous_rows(tmp_path):
    # on a small bump instance M*F stays below kappa lambda0, so no row's
    # {M*F > kappa lam} has a cell: the checks block names every row of
    # goodlambda.csv as vacuous, ahead of the solve lines
    text = BASE.replace("instance = matched", "instance = bump").replace(
        "value = 2.0", "value = 1.7").replace("cells = 8 8", "cells = 16 16")
    f = cfg_file(tmp_path, text)
    for cmd in ("solve", "goodlambda"):
        assert main([cmd, "--config", str(f), "--out", str(tmp_path / cmd)]) == EXIT_OK
    lines = (tmp_path / "goodlambda" / "report.txt").read_text().splitlines()
    scalars = dict(ln.split(" = ", 1) for ln in lines
                   if " = " in ln and not ln.startswith("delta"))
    csv_rows = (tmp_path / "goodlambda" / "goodlambda.csv").read_text().splitlines()[1:]
    want = [tuple(row.split(",")[:2]) for row in csv_rows]
    assert _checks(lines) == {"good-lambda": (0, 12, {"vacuous": want})}
    assert lines[lines.index("checks") + 2].startswith("solve ")
    # the solution that solve wrote, read back: max M*F / lambda0 < kappa
    u = read_field(tmp_path / "solve" / "solution.vxf")
    p = ExponentField(read_field(tmp_path / "solve" / "exponent.vxf"))
    root = u.grid.domain.scaled(0.5)
    mf = maximal_function(energy_density(u, p), root, 1.0, default_max_level(root, u.grid))
    assert mf.values.max() / float(scalars["lambda0"]) < float(scalars["kappa"])


def test_goodlambda_flags_rows_with_an_empty_u(tmp_path, monkeypatch):
    # a row whose {M*F > kappa lam} has cells but whose U has none tested the
    # eps-condition alone: the checks block lists exactly those rows as
    # u-empty, the rows with no such cell as vacuous, counts the rest as
    # tested, and goodlambda.csv does not change.  The measure's counts are
    # set to a mix
    import varexp.cli as cli

    measure, seen = cli.good_lambda_measure, []

    def mixed(*args, **kwargs):
        gl = measure(*args, **kwargs)
        gl.kappa_cells = [i % 3 for i in range(len(gl.rows))]
        gl.u_cells = [i % 2 for i in range(len(gl.rows))]
        seen.append(gl)
        return gl

    f = cfg_file(tmp_path, BASE.replace("instance = matched", "instance = bump"))
    assert main(["goodlambda", "--config", str(f), "--out", str(tmp_path / "plain")]) == EXIT_OK
    monkeypatch.setattr(cli, "good_lambda_measure", mixed)
    assert main(["goodlambda", "--config", str(f), "--out", str(tmp_path / "g")]) == EXIT_OK
    (gl,) = seen
    rows = [((_fmt(e), _fmt(lam)), k, u) for (e, lam, _), k, u
            in zip(gl.rows, gl.kappa_cells, gl.u_cells)]
    want = {"vacuous": [r for r, k, u in rows if k == 0],
            "u-empty": [r for r, k, u in rows if k > 0 and u == 0]}
    assert all(len(w) == 4 for w in want.values())
    lines = (tmp_path / "g" / "report.txt").read_text().splitlines()
    assert _checks(lines) == {"good-lambda": (4, 12, want)}
    csv = (tmp_path / "g" / "goodlambda.csv").read_bytes()
    assert csv == (tmp_path / "plain" / "goodlambda.csv").read_bytes()


@pytest.mark.parametrize("cap, censored", [(None, True), (0.1, False), (0.13, False)])
def test_gehring_flags_a_censored_scan(tmp_path, cap, censored):
    # on a small bump instance the worst constant at mu_max is about 0.12,
    # far below the default cap, so m0 is the top of the scan and only a
    # lower bound: the checks block calls the scan censored, ahead of the
    # solve lines.  Below every constant, the cap leaves m0 = 1 and the
    # scan tested.  At 0.13 the constants up to mu = 1.57 fail (0.153 at
    # mu = 1) and the larger ones pass: m0 ends the leading run of passing
    # mu, so it is 1 and the scan tested, not the top of the scan
    text = BASE.replace("instance = matched", "instance = bump").replace("value = 2.0", "value = 1.7")
    if cap is not None:
        text += f"[estimates]\ncap = {cap}\n"
    out = tmp_path / "g"
    assert main(["gehring", "--config", str(cfg_file(tmp_path, text)), "--out", str(out)]) == EXIT_OK
    lines = (out / "report.txt").read_text().splitlines()
    scalars = dict(ln.split(" = ", 1) for ln in lines if " = " in ln)
    assert lines[lines.index("checks") + 2].startswith("solve ")
    if censored:
        assert _checks(lines) == {"gehring": (0, 1, {"censored": []})}
        assert float(scalars["m0"]) == 2.0
    else:
        assert _checks(lines) == {"gehring": (1, 1, {})}
        assert float(scalars["m0"]) == 1.0


def test_sweep_flags_vacuous_amplitude_rows(tmp_path, monkeypatch):
    # the sweep's amplitude rows are good-lambda measures too: the checks
    # block lists, on each amplitude's line, exactly the (eps, lam) rows
    # whose {M*F > kappa lam} has no cell as vacuous.  The measure's
    # kappa_cells is set to a mix of empty and non-empty rows, so a status
    # on the wrong rows, on every row or on none fails; every record of
    # sweep.csv has its own line, and sweep.csv does not change
    import varexp.cli as cli

    measure, seen = cli.good_lambda_measure, []

    def mixed(*args, **kwargs):
        gl = measure(*args, **kwargs)
        gl.kappa_cells = [3 * ((len(seen) + i) % 2) for i in range(len(gl.rows))]
        seen.append(gl)
        return gl

    sweep = "\n[sweep]\nrefinements = 0\nsizes = 1\namplitudes = 1 0.5\n"
    f = cfg_file(tmp_path, BASE + sweep)
    assert main(["sweep", "--config", str(f), "--out", str(tmp_path / "plain")]) == EXIT_OK
    monkeypatch.setattr(cli, "good_lambda_measure", mixed)
    assert main(["sweep", "--config", str(f), "--out", str(tmp_path / "s")]) == EXIT_OK
    assert len(seen) == 2 and all(len(gl.rows) == 4 for gl in seen)
    checks = _checks((tmp_path / "s" / "report.txt").read_text().splitlines())
    for t, gl in zip(("1", "0.5"), seen):
        k, n, reasons = checks.pop(f"amplitude {t} good-lambda")
        want = [(_fmt(e), _fmt(lam)) for (e, lam, _), c in zip(gl.rows, gl.kappa_cells) if c == 0]
        assert n == 4 and reasons["vacuous"] == want and len(want) == 2
    csv = (tmp_path / "s" / "sweep.csv").read_bytes()
    assert csv == (tmp_path / "plain" / "sweep.csv").read_bytes()
    assert b"vacuous" not in csv
    records = [ln.split(",") for ln in csv.decode().splitlines()[1:]
               if not ln.startswith("amplitude,")]
    assert sorted(checks) == sorted(" ".join(r[:3]) for r in records) and len(records) == 4


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(counts=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12),
       mu=st.lists(st.floats(1.0, 4.0), min_size=1, max_size=6, unique=True),
       at=st.integers(0, 6),
       flags=st.lists(st.sets(st.sampled_from(["level-set-tail-unused",
                                                "level-set-route-mismatch", "tail=0"])),
                      max_size=3))
def test_checks_block_gives_each_row_one_status(counts, mu, at, flags):
    # every good-lambda row, Gehring scan and record gets exactly one status:
    # tested where {M*F > kappa lam} and U both have cells, else the first
    # reason that holds; k counts the tested rows, and no line has " = "
    import varexp.cli as cli
    from varexp.dyadic import GoodLambdaResult
    from varexp.estimates import EstimateRecord, GehringResult

    mu = sorted(mu)
    m0 = ([1.0] + mu)[min(at, len(mu))]  # 1 or a mu of the scan
    gl = GoodLambdaResult(20.0, 1.5, 0.1, [(i + 1.0, 0.1, 0.0) for i in range(len(counts))],
                          [k for k, _ in counts], [u for _, u in counts])
    gr = GehringResult(m0, 1.0, mu, 1e3, 1, [])
    recs = [EstimateRecord("r", 1.0, {"a": 1.0}, 1.0, flags=list(f)) for f in flags]
    block = cli._checks_block([("good-lambda", gl), ("gehring", gr)]
                              + [(f"record {i}", r) for i, r in enumerate(recs)])
    checks = _checks(block)
    labels = [(_fmt(i + 1.0), _fmt(0.1)) for i in range(len(counts))]
    tested = [lab for lab, (k, u) in zip(labels, counts) if k > 0 and u > 0]
    k, n, reasons = checks["good-lambda"]
    listed = [lab for rows in reasons.values() for lab in rows]
    assert (k, n) == (len(tested), len(counts))
    assert sorted(listed + tested) == sorted(labels)  # each row once
    assert reasons.get("vacuous", []) == [lab for lab, (k, _) in zip(labels, counts) if k == 0]
    assert checks["gehring"] == ((0, 1, {"censored": []}) if m0 == mu[-1] else (1, 1, {}))
    for i, f in enumerate(flags):
        why = next((w for w in ("tail-unused", "route-mismatch") if f"level-set-{w}" in f), None)
        assert checks[f"record {i}"] == ((0, 1, {why: []}) if why else (1, 1, {}))
    assert cli._checks_block([]) == []  # no check, no block


def test_sweep_solves_each_instance_once(tmp_path, monkeypatch):
    import varexp.cli as cli

    solved, warm = [], []

    def counting(G, p, boundary, **kwargs):
        solved.append((boundary.grid, p.values.tobytes()))
        warm.append(kwargs.get("coarse") is not None)
        return solve(G, p, boundary, **kwargs)

    solve = cli.solve_pxlaplace
    monkeypatch.setattr(cli, "solve_pxlaplace", counting)
    sweep = "\n[sweep]\nrefinements = 1\nsizes = 1 2\namplitudes = 1 0.5\n"
    out = tmp_path / "s"
    f = cfg_file(tmp_path, BASE + sweep)
    assert main(["sweep", "--config", str(f), "--out", str(out)]) == EXIT_OK
    # constant p: every size and amplitude reuses the base-grid solve
    assert len(solved) == 2
    assert warm == [False, True]  # refinement level 1 starts from level 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert {r.split(",")[0] for r in rows} == {"refinement", "size", "amplitude"}
    assert len(rows) == 2 * 2 + 2 * 2 + 2 * 4

    # varying p: amplitude 0.5 is a new instance, and no solve repeats; the
    # exponent table is read once per grid, the base grid's reused at level 0
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (4, 4))
    table = GridFunction(g, 2.0 + 0.3 * np.sin(g.node_coords[:, 0]))
    write_field(tmp_path / "p.vxf", table)
    solved.clear()
    warm.clear()
    reads = []

    def reading(path):
        reads.append(Path(path).name)
        return read(path)

    read = cli.read_field
    monkeypatch.setattr(cli, "read_field", reading)
    text = BASE.replace("kind = constant", "kind = table\npath = p.vxf")
    f = cfg_file(tmp_path, text + sweep, name="table.cfg")
    assert main(["sweep", "--config", str(f), "--out", str(out)]) == EXIT_OK
    assert reads == ["p.vxf", "p.vxf"]  # the 8^2 base grid and the 16^2 refinement
    assert len(solved) == len(set(solved)) >= 3
    # only the refined grid is warm; the base grid at every amplitude is cold
    assert warm == [grid.cells != (8, 8) for grid, _ in solved]


def test_sweep_measures_each_solve_and_root_once(tmp_path, monkeypatch):
    # at root scale 0.5 the size-2 root of the 8^2 base grid is the
    # refinement 8x8 root: its checks run once and fill both rows, both
    # report blocks and both check lines
    import varexp.cli as cli

    calls = {"caccioppoli": 0, "higher": 0}

    def counted(name, check):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return check(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "caccioppoli_check", counted("caccioppoli", cli.caccioppoli_check))
    monkeypatch.setattr(cli, "higher_integrability_check",
                        counted("higher", cli.higher_integrability_check))
    sweep = "\n[sweep]\nrefinements = 1\nsizes = 1 2\namplitudes = 1\n"
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg_file(tmp_path, BASE + sweep)),
                 "--out", str(out)]) == EXIT_OK
    # roots: 8x8 and 16x16 refinements, size 1; size 2 is the 8x8 one
    assert calls == {"caccioppoli": 3, "higher": 3}
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[2:] for r in rows if r[:2] == ["size", "2"]] \
        == [r[2:] for r in rows if r[:2] == ["refinement", "8x8"]] != []
    report = (out / "report.txt").read_text()
    blocks = re.findall(r"^\[caccioppoli\] cube \(-1 -1\) to \(1 1\) at \(8, 8\)\n.*\n.*\n",
                        report, re.M)
    assert len(blocks) == 2 and blocks[0] == blocks[1]
    for setting in ("refinement 8x8", "size 2"):
        assert f"  {setting} caccioppoli: 1 of 1 rows tested; tested\n" in report


@pytest.mark.parametrize("instance, cells", [("matched", "8 8"), ("linear", "16 16")])
def test_manufactured_solves_start_from_boundary_data(tmp_path, monkeypatch, instance, cells):
    # u* is the boundary data of a cold solve, not its starting interior
    import varexp.cli as cli

    starts = []

    def recording(G, p, boundary, **kwargs):
        starts.append(boundary)
        return solve(G, p, boundary, **kwargs)

    solve = cli.solve_pxlaplace
    monkeypatch.setattr(cli, "solve_pxlaplace", recording)
    text = BASE.replace("cells = 8 8", f"cells = {cells}").replace("matched", instance)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg_file(tmp_path, text)), "--out", str(out)]) == EXIT_OK
    cold = starts[0]
    mask = cold.grid.boundary_node_mask
    u_star = manufactured_instance(instance, cold.grid)[0]
    assert np.all(cold.values[~mask] == 0.0)
    np.testing.assert_array_equal(cold.values[mask], u_star.values[mask])
    assert np.abs(u_star.values[~mask]).max() > 0.1  # the answer was not handed over


def _table_bump_config(tmp_path, refinements: int):
    g = Grid(2, (-2.0, -2.0), (4.0, 4.0), (4, 4))
    table = GridFunction(g, 2.15 + 0.85 * np.sin(0.5 * np.pi * g.node_coords[:, 0]))
    write_field(tmp_path / "p.vxf", table)
    text = (BASE.replace("kind = constant", "kind = table\npath = p.vxf")
            .replace("instance = matched", "instance = bump"))
    return cfg_file(tmp_path, text + f"\n[sweep]\nrefinements = {refinements}\n"
                    "sizes = 1 2\namplitudes = 1 0.5\n", name=f"r{refinements}.cfg")


def test_sweep_refinement_leaves_base_rows_unchanged(tmp_path):
    # the refined levels warm-start from the coarser solution; the base
    # instance behind the size and amplitude rows must stay cold, so its
    # rows do not depend on how many levels are refined
    rows, reports = {}, {}
    for r in (0, 1):
        out = tmp_path / f"s{r}"
        assert main(["sweep", "--config", str(_table_bump_config(tmp_path, r)),
                     "--out", str(out)]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()[1:]
        rows[r] = [ln for ln in lines if not ln.startswith("refinement,")]
        reports[r] = (out / "report.txt").read_text().splitlines()
    assert rows[0] == rows[1] and len(rows[0]) == 2 * 2 + 2 * 4
    heads = [ln for ln in reports[1] if ln.startswith("solve ")]
    assert [h.split(":")[0] for h in heads] == [
        "solve 8x8, cold", "solve 16x16, warm from 8x8", "solve 8x8 at amplitude 0.5, cold"]
    warm = reports[1].index(heads[1])
    assert reports[1][warm + 1].startswith("stage gamma 1e-08: ")
    assert reports[1][warm + 2] == heads[2]  # the warm solve ran one stage
    assert not any(" = " in ln for ln in reports[1] if ln.startswith(("solve ", "stage ")))


def test_sweep_checks_every_amplitude_before_solving(tmp_path, capsys):
    # amplitude 3 stretches the table's p below 1: a config error naming the
    # key, t and p-, raised before the first solve, not after the refinement
    # solves when the amplitude loop reaches it
    f = _table_bump_config(tmp_path, 1)
    f.write_text(f.read_text().replace("amplitudes = 1 0.5", "amplitudes = 1 3"))
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(f), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[sweep] amplitudes: t = 3 gives p- = " in err
    assert not any(ln.startswith("solve ") for ln in (out / "report.txt").read_text().splitlines())


def test_table_must_cover_the_grid(tmp_path, capsys):
    # a table is interpolated, never extrapolated: one on [0, 1]^2 under the
    # [-2, 2]^2 grid is a config error naming the key, where the clamped
    # interpolation would have run the solve; one on a larger domain solves
    text = BASE.replace("kind = constant\nvalue = 2.0", "kind = table\npath = p.vxf")
    for origin, extent, code in (((0.0, 0.0), (1.0, 1.0), EXIT_CONFIG),
                                 ((-3.0, -2.5), (6.0, 5.0), EXIT_OK)):
        g = Grid(2, origin, extent, (4, 4))
        write_field(tmp_path / "p.vxf", GridFunction(g, 2.0 + 0.3 * np.sin(g.node_coords[:, 0])))
        out = tmp_path / f"o{code}"
        assert main(["solve", "--config", str(cfg_file(tmp_path, text)), "--out", str(out)]) == code
    assert "[exponent] path: the table" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "gehring", "goodlambda"])
def test_reports_end_with_stage_lines(tmp_path, command):
    text = BASE.replace("instance = matched", "instance = bump")
    out = tmp_path / command
    assert main([command, "--config", str(cfg_file(tmp_path, text)), "--out", str(out)]) == EXIT_OK
    lines = (out / "report.txt").read_text().splitlines()
    stages = [ln for ln in lines if ln.startswith("stage gamma ")]
    assert lines[-len(stages):] == stages and len(stages) == 5  # p = 2: every gamma
    assert all(" = " not in ln and "factor " in ln and "fill " in ln for ln in stages)
    assert all(" reuses, " in ln and " cg iterations, " in ln for ln in stages)


# ---------------------------------------------------------------------------
# nested iteration: a cold solve of a grid with even cell counts, at least
# 8 per axis after halving, first solves the half grid, and a half grid of
# at least 4096 cells its own half grid in turn


def _bump_config(tmp_path, cells, extra=""):
    text = (BASE.replace("cells = 8 8", f"cells = {cells}").replace("value = 2.0", "value = 1.7")
            .replace("instance = matched", "instance = bump").replace("1e-9", "1e-8"))
    return cfg_file(tmp_path, text + extra, name=f"bump{cells.replace(' ', 'x')}.cfg")


def _report(out):
    """(level heads, stage lines, scalars) of a report.txt."""
    lines = (out / "report.txt").read_text().splitlines()
    heads = [ln for ln in lines if ln.startswith("solve ")]
    stages = [ln for ln in lines if ln.startswith("stage gamma ")]
    return heads, stages, dict(ln.split(" = ", 1) for ln in lines if " = " in ln)


def _steps(line):
    return int(line.split(": ", 1)[1].split(" steps")[0])


def _cold_library_solve(p, G, boundary):
    """One level through the full schedule: the oracle of the ladder."""
    res = solver._solve_level(G, p, boundary, 1e-8, 200, final_only=False)
    assert res.converged and len(res.stages) == 5  # the full schedule
    return res


def _sup_rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


@pytest.mark.parametrize("cells", [(4,), (6, 4), (2, 4, 6)])
@pytest.mark.parametrize("N", [1, 2])
def test_restriction_matches_cell_loop(cells, N):
    rng = np.random.default_rng(sum(cells) + N)
    dim = len(cells)
    fine = Grid(dim, tuple(rng.uniform(-1, 1, dim)), tuple(rng.uniform(1, 3, dim)),
                tuple(2 * c for c in cells))
    G = CellField(fine, rng.normal(size=(fine.num_cells, N, dim)))
    p = ExponentField(GridFunction(fine, rng.uniform(1.2, 3.0, fine.num_nodes)))
    bnd = GridFunction(fine, rng.normal(size=(fine.num_nodes, N)))
    Gc, pc, bc = solver._restrict(G, p, bnd)
    coarse = Gc.grid
    assert pc.grid == bc.grid == coarse
    assert coarse == Grid(dim, fine.origin, fine.extent, cells)
    assert pc.p_infinity == p.p_infinity  # the farthest node is a corner of both grids
    for J in itertools.product(*map(range, cells)):
        children = [np.ravel_multi_index(tuple(2 * j + b for j, b in zip(J, bits)), fine.cells)
                    for bits in itertools.product((0, 1), repeat=dim)]
        want = sum(G.values[c] for c in children) / 2**dim
        np.testing.assert_allclose(Gc.values[np.ravel_multi_index(J, cells)], want,
                                   rtol=1e-14, atol=1e-15)
    for I in itertools.product(*(range(c + 1) for c in cells)):
        i, k = np.ravel_multi_index(I, coarse.nodes_per_axis), np.ravel_multi_index(
            tuple(2 * j for j in I), fine.nodes_per_axis)
        np.testing.assert_allclose(coarse.node_coords[i], fine.node_coords[k], atol=1e-12)
        assert pc.values[i] == p.values[k]
        np.testing.assert_array_equal(bc.values[i], bnd.values[k])


@pytest.mark.parametrize("cells, ladder", [
    ((128, 128), [(32, 32), (64, 64), (128, 128)]),
    ((64, 64), [(32, 32), (64, 64)]),
    ((32, 32), [(16, 16), (32, 32)]),
    ((16, 16), [(8, 8), (16, 16)]),
    ((32, 32, 32), [(8, 8, 8), (16, 16, 16), (32, 32, 32)]),
    ((24, 24, 24), [(12, 12, 12), (24, 24, 24)]),
    ((16, 16, 16), [(8, 8, 8), (16, 16, 16)]),
    ((128, 14), [(128, 14)]),
    ((14, 14), [(14, 14)]),
    ((17, 16), [(17, 16)]),
])
def test_ladder_rule(cells, ladder):
    # the requested grid halves when its cell counts are even and at least
    # 16; a coarser level halves again only from 4096 cells on
    assert solver._ladder(cells) == ladder


@pytest.mark.parametrize("cells", ["17 16", "14 14"])
def test_odd_or_small_grids_stay_cold(tmp_path, cells):
    # an odd cell count, or a half grid below 8 cells per axis: one cold
    # solve through the full schedule, bit for bit the library's
    out = tmp_path / "o"
    assert main(["solve", "--config", str(_bump_config(tmp_path, cells)),
                 "--out", str(out)]) == EXIT_OK
    heads, stages, scalars = _report(out)
    n = cells.replace(" ", "x")
    assert [h.split(":")[0] for h in heads] == [f"solve {n}, cold"] and len(stages) == 5
    grid = Grid(2, (-2.0, -2.0), (4.0, 4.0), tuple(map(int, cells.split())))
    p = ExponentField(GridFunction(grid, np.full(grid.num_nodes, 1.7)))
    _, G, bnd = manufactured_instance("bump", grid)
    res = _cold_library_solve(p, G, bnd)
    write_field(tmp_path / "cold.vxf", res.u)
    assert (out / "solution.vxf").read_bytes() == (tmp_path / "cold.vxf").read_bytes()
    assert int(float(scalars["iterations"])) == res.iterations


def test_nested_bump_solve_matches_cold(tmp_path):
    out = tmp_path / "o"
    assert main(["solve", "--config", str(_bump_config(tmp_path, "32 32")),
                 "--out", str(out)]) == EXIT_OK
    heads, stages, scalars = _report(out)
    assert [h.split(":")[0] for h in heads] == ["solve 16x16, cold",
                                                "solve 32x32, warm from 16x16"]
    assert stages[-1].startswith("stage gamma 1e-08: ") and len(stages) == 6
    assert float(scalars["residual"]) <= 1e-8
    grid = Grid(2, (-2.0, -2.0), (4.0, 4.0), (32, 32))
    p = ExponentField(GridFunction(grid, np.full(grid.num_nodes, 1.7)))
    _, G, bnd = manufactured_instance("bump", grid)
    cold = _cold_library_solve(p, G, bnd)
    assert _sup_rel(read_field(out / "solution.vxf").values, cold.u.values) <= 1e-6
    # the library's cold solve is the command's: the same levels and bytes
    lib = solve_pxlaplace(G, p, bnd, tolerance=1e-8)
    assert [(lv.cells, lv.start) for lv in lib.levels] == [((16, 16), None),
                                                           ((32, 32), (16, 16))]
    assert [_steps(h) for h in heads] == [lv.iterations for lv in lib.levels]
    write_field(tmp_path / "lib.vxf", lib.u)
    assert (out / "solution.vxf").read_bytes() == (tmp_path / "lib.vxf").read_bytes()


def test_three_level_solve_matches_cold(tmp_path):
    # 128^2: 32^2 cold through the full schedule, then 64^2 and 128^2 warm
    out = tmp_path / "o"
    assert main(["solve", "--config", str(_bump_config(tmp_path, "128 128")),
                 "--out", str(out)]) == EXIT_OK
    heads, stages, scalars = _report(out)
    assert [h.split(":")[0] for h in heads] == ["solve 32x32, cold",
                                                "solve 64x64, warm from 32x32",
                                                "solve 128x128, warm from 64x64"]
    assert len(stages) == 5 + 1 + 1 and all(" wall " in h for h in heads)
    assert int(float(scalars["iterations"])) == sum(map(_steps, heads)) == sum(map(_steps, stages))
    assert scalars["residual"] == heads[2].rsplit("residual ", 1)[1]
    assert float(scalars["residual"]) <= 1e-8
    grid = Grid(2, (-2.0, -2.0), (4.0, 4.0), (128, 128))
    p = ExponentField(GridFunction(grid, np.full(grid.num_nodes, 1.7)))
    _, G, bnd = manufactured_instance("bump", grid)
    cold = _cold_library_solve(p, G, bnd)
    assert _sup_rel(read_field(out / "solution.vxf").values, cold.u.values) <= 1e-6


def test_nested_files_solve_matches_cold(tmp_path):
    # matched data on 16^3 given as files, boundary values only (zero
    # interior); the domain is off-centre so the boundary data are not zero
    grid = Grid(3, (-0.7, -0.6, -0.5), (1.5, 1.5, 1.5), (16, 16, 16))
    p = ExponentField(GridFunction(grid, np.full(grid.num_nodes, 1.7)))
    _, G, bnd = manufactured_instance("matched", grid)
    write_field(tmp_path / "g.vxf", G)
    write_field(tmp_path / "b.vxf", bnd)
    text = ("[grid]\ndim = 3\norigin = -0.7 -0.6 -0.5\nextent = 1.5 1.5 1.5\n"
            "cells = 16 16 16\n[exponent]\nvalue = 1.7\n"
            "[data]\ninstance = files\ng = g.vxf\nboundary = b.vxf\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg_file(tmp_path, text)), "--out", str(out)]) == EXIT_OK
    heads, _, scalars = _report(out)
    assert [h.split(":")[0] for h in heads] == ["solve 8x8x8, cold",
                                                "solve 16x16x16, warm from 8x8x8"]
    assert float(scalars["residual"]) <= 1e-8
    cold = _cold_library_solve(p, G, bnd)
    assert _sup_rel(read_field(out / "solution.vxf").values, cold.u.values) <= 1e-6


def test_nested_solve_counts_steps_of_both_levels(tmp_path):
    out = tmp_path / "o"
    assert main(["solve", "--config", str(_bump_config(tmp_path, "16 16")),
                 "--out", str(out)]) == EXIT_OK
    heads, stages, scalars = _report(out)
    assert [h.split(":")[0] for h in heads] == ["solve 8x8, cold", "solve 16x16, warm from 8x8"]
    assert all(_steps(h) > 0 for h in heads)
    iterations = int(float(scalars["iterations"]))
    assert iterations == sum(map(_steps, heads)) == sum(map(_steps, stages))
    # residual and gamma_final are the fine level's
    assert scalars["residual"] == heads[1].rsplit("residual ", 1)[1]
    assert float(scalars["gamma_final"]) == 1e-8


def test_coarse_nonconvergence_names_its_grid(tmp_path, capsys):
    # one Newton step per stage leaves the half grid far from the tolerance;
    # the solve stops there and does not fall back to a cold fine solve
    f = _bump_config(tmp_path, "16 16", "max_iterations = 1\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", str(f), "--out", str(out)]) == EXIT_NO_CONVERGENCE
    assert "solve 8x8: " in capsys.readouterr().err
    heads = [ln for ln in (out / "report.txt").read_text().splitlines() if ln.startswith("solve ")]
    assert [h.split(":")[0] for h in heads] == ["solve 8x8, cold"]
    assert not (out / "solution.vxf").exists()
