"""Command-line driver: config validation, exit codes, file formats,
output determinism, and the denoise pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
