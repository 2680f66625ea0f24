"""Config files: the ExperimentConfig field table, parsing by kind,
per-key and cross-key validation, defaults, and the rendered key listing."""

import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varexp import cli
from varexp.cli import EXIT_CONFIG, ConfigError, ExperimentConfig, load_config, main

# field -> (section, key) for every config key, read from the table itself
KEYS = {f.name: (f.metadata["section"], f.metadata["key"] or f.name)
        for f in dataclasses.fields(ExperimentConfig) if f.metadata}

BASE = """
[grid]
dim = 2
origin = -2 -2
extent = 4 4
cells = 8 8
[data]
instance = matched
"""


def write(tmp_path, text, name="exp.cfg"):
    f = tmp_path / name
    f.write_text(text, encoding="utf-8")
    return f


def with_key(text, section, line):
    """``text`` with ``line`` added under ``[section]`` (appended if absent)."""
    if f"[{section}]\n" in text:
        return text.replace(f"[{section}]\n", f"[{section}]\n{line}\n", 1)
    return text + f"[{section}]\n{line}\n"


# Each of these was accepted at the parent of the table refactor and then
# ended in a traceback (IndexError) or in a wrong result: a nan tolerance made
# every solve "fail to converge"; nan epsilons and kappa gave nan records.
# A constant p <= 1 was accepted and failed later without naming the key.
# Of the out-of-range values below, some ran to a vacuous result (steps = 0,
# refinements = -1, m0 = 0, kappa = 0.5), a negative tolerance ran every
# stage to its cap and exited 2, and the rest failed in a library call whose
# message named no key.  Epsilons <= 0 gave delta = 0 on every row, and the
# [denoise] p_min and strength ranges were checked for denoise alone.
@pytest.mark.parametrize("section, line", [
    ("estimates", "epsilons ="),
    ("estimates", "lambda_count = 0"),
    ("solver", "tolerance = nan"),
    ("estimates", "epsilons = 0.4 nan"),
    ("estimates", "kappa = nan"),
    ("exponent", "value = 0.9"),
    ("exponent", "value = 1"),
    ("solver", "tolerance = -1"),
    ("solver", "tolerance = 0"),
    ("solver", "max_iterations = -1"),
    ("denoise", "iterations = -1"),
    ("estimates", "mu_max = 0.5"),
    ("estimates", "mu_max = 1"),
    ("estimates", "steps = 0"),
    ("estimates", "steps = -2"),
    ("estimates", "m0 = 0"),
    ("sweep", "refinements = -1"),
    ("sweep", "sizes = 1 -1"),
    ("estimates", "m = 1.5"),
    ("estimates", "m = 2"),
    ("estimates", "kappa = 0.5"),
    ("estimates", "kappa = 3.9"),
    ("estimates", "epsilons = -0.4 0"),
    ("estimates", "epsilons = 0.1 0"),
    ("denoise", "p_min = 1"),
    ("denoise", "strength = -1"),
])
def test_invalid_value_names_section_and_key(tmp_path, capsys, section, line):
    key = line.split("=")[0].strip()
    f = write(tmp_path, with_key(BASE, section, line))
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
        load_config("verify", f)
    rc = main(["verify", "--config", str(f), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert f"[{section}] {key}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_default_section_is_unknown(tmp_path):
    # configparser would otherwise copy [DEFAULT] keys into every section,
    # or ignore them when no other section exists
    f = write(tmp_path, "[DEFAULT]\nseed = 5\n")
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        load_config("solve", f)


def test_every_key_parsed(tmp_path):
    """Every key set to a value other than its default lands in its field."""
    absolute = str(tmp_path / "elsewhere" / "b.vxf")
    given_values = {
        "seed": ("5", 5),
        "out": ("res", Path("res")),
        "dim": ("3", 3),
        "origin": ("0 0.5 -1", (0.0, 0.5, -1.0)),
        "extent": ("1 2 3", (1.0, 2.0, 3.0)),
        "cells": ("4 5 6", (4, 5, 6)),
        "exponent_kind": ("table", "table"),
        "exponent_value": ("2.5", 2.5),
        "exponent_path": ("tables/p.vxf", str(tmp_path / "tables" / "p.vxf")),
        "p_infinity": ("2.25", 2.25),
        "instance": ("files", "files"),
        "g_path": ("g.vxf", str(tmp_path / "g.vxf")),
        "boundary_path": (absolute, absolute),
        "tolerance": ("1e-6", 1e-6),
        "max_iterations": ("17", 17),
        "q": ("3", 3.0),
        "kappa": ("20", 20.0),
        "epsilons": ("0.3 0.1", (0.3, 0.1)),
        "lambda_factors": ("1.5 3", (1.5, 3.0)),
        "lambda_count": ("8", 8),
        "m": ("5", 5.0),
        "m0": ("1.25", 1.25),
        "mu_max": ("1.5", 1.5),
        "steps": ("4", 4),
        "cap": ("50", 50.0),
        "root_scale": ("0.25", 0.25),
        "refinements": ("2", 2),
        "sizes": ("0.25", (0.25,)),
        "amplitudes": ("0.75 0", (0.75, 0.0)),
        "image": ("im.pgm", str(tmp_path / "im.pgm")),
        "strength": ("1.5", 1.5),
        "p_min": ("1.5", 1.5),
        "p_max": ("1.9", 1.9),
        "iterations": ("33", 33),
    }
    assert set(given_values) == set(KEYS)  # a new key needs a line here
    text = ""
    for name, (raw, _) in given_values.items():
        text = with_key(text, KEYS[name][0], f"{KEYS[name][1]} = {raw}")
    cfg = load_config("denoise", write(tmp_path, text))
    defaults = ExperimentConfig("denoise", Path("x"), "")
    for name, (_, want) in given_values.items():
        assert getattr(cfg, name) == want, name
        assert getattr(defaults, name) != want, name
    assert cfg.solve_options().max_iterations == 33  # denoise caps by iterations
    assert load_config("solve", write(tmp_path, "")).solve_options().max_iterations == 200


# the defaults of the hand-written parser the field table replaced
PARENT_DEFAULTS = {
    "seed": 0, "out": Path("varexp-out"),
    "exponent_kind": "constant", "exponent_value": 2.0, "exponent_path": None,
    "p_infinity": None, "instance": "matched", "g_path": None, "boundary_path": None,
    "tolerance": 1e-8, "max_iterations": 200,
    "q": 2.0, "kappa": None, "epsilons": (0.4, 0.2, 0.1, 0.05),
    "lambda_factors": (1.0, 2.0, 4.0), "lambda_count": 64, "m": None, "m0": 1.5,
    "mu_max": 2.0, "steps": 8, "cap": 1e3, "root_scale": 0.5,
    "refinements": 1, "sizes": (0.5, 1.0), "amplitudes": (1.0, 0.5),
    "image": None, "strength": 3.0, "p_min": 1.4, "p_max": 2.0, "iterations": 100,
}


@pytest.mark.parametrize("dim, text, cells", [
    (1, "[grid]\ndim = 1\n", (32,)),
    (2, "", (32, 32)),
    (3, "[grid]\ndim = 3\n", (8, 8, 8)),
])
def test_defaults(tmp_path, dim, text, cells):
    cfg = load_config("solve", write(tmp_path, text))
    want = dict(PARENT_DEFAULTS, dim=dim, origin=(-1.0,) * dim, extent=(2.0,) * dim,
                cells=cells)
    assert {name: getattr(cfg, name) for name in KEYS} == want


def test_cross_key_rules(tmp_path):
    for text, match in [
        ("[grid]\ndim = 3\ncells = 4 4\n", r"\[grid\] cells: expected 3 entries"),
        ("[exponent]\nkind = file\n", r"\[exponent\] path: required"),
        ("[data]\ninstance = files\ng = g.vxf\n", r"\[data\] g and boundary"),
    ]:
        with pytest.raises(ConfigError, match=match):
            load_config("solve", write(tmp_path, text))
    with pytest.raises(ConfigError, match=r"\[denoise\] image"):
        load_config("denoise", write(tmp_path, ""))
    with pytest.raises(ConfigError, match=r"\[denoise\] p_max"):
        load_config("denoise", write(tmp_path, "[denoise]\nimage = a.pgm\np_max = 1.2\n"))
    # denoise-only rules do not apply to the other commands
    load_config("solve", write(tmp_path, "[denoise]\np_max = 1.2\n"))


@pytest.mark.parametrize("line, key", [("cells = 8 1", "cells"), ("extent = 4 -4", "extent"),
                                       ("lambda_factors = 1 0.5", "lambda_factors")])
def test_list_rules_check_every_entry(tmp_path, line, key):
    section = KEYS[key][0]
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
        load_config("solve", write(tmp_path, f"[{section}]\n{line}\n"))


def test_key_listing_covers_every_key():
    for section, key in KEYS.values():
        assert f"[{section}] {key} = " in cli.__doc__
    assert "{config keys}" not in cli.__doc__


SECTIONS = sorted({s for s, _ in KEYS.values()})
# a well-formed value for every key: its default written out
VALID = {key: ("auto" if f.metadata["kind"] == "auto" else "x.vxf") if f.default is None
         else " ".join(map(str, f.default)) if isinstance(f.default, tuple) else str(f.default)
         for f in dataclasses.fields(ExperimentConfig) for key in [KEYS.get(f.name)] if key}
TOKENS = ["", "0", "1", "2", "3", "-1", "0.5", "1e-8", "1e400", "nan", "-inf", "auto",
          "1 2", "0.5 1 2", "32 32", "1.5 x", "constant", "table", "file", "files",
          "bump", "power", "p.vxf", "/tmp/p.vxf", "%(x)s", "[", "=", "# c", "1_0"]
MALFORMED = ["garbage", "= 3", "  indented = 1", "[]", "[grid]", "seed = 1"]


@st.composite
def config_texts(draw):
    """Config text over the table's sections and keys plus unknown ones, with
    well-formed, random and malformed values and an occasional bad line."""
    lines = []
    sections = st.sampled_from(SECTIONS + ["DEFAULT", "Run", "plot"])
    for section in draw(st.lists(sections, max_size=5, unique=True)):
        lines.append(f"[{section}]")
        names = sorted(k for s, k in KEYS.values() if s == section) + ["cellz"]
        for key in draw(st.lists(st.sampled_from(names), max_size=5, unique=True)):
            value = draw(st.sampled_from([VALID.get((section, key), "1")] * 3 + TOKENS)
                         | st.text(st.characters(blacklist_categories=("Cs", "Cc")),
                                   max_size=8)
                         | st.integers(-10**6, 10**6).map(str)
                         | st.floats().map(repr))
            lines.append(f"{key} = {value}")
        if draw(st.integers(0, 9)) == 5:
            lines.append(draw(st.sampled_from(MALFORMED)))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=config_texts(), command=st.sampled_from(cli._COMMANDS))
def test_parser_fuzz_raises_only_config_error(tmp_path_factory, text, command):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        cfg = load_config(command, path)
    except ConfigError:
        return
    assert cfg.dim in (1, 2, 3)
    assert len(cfg.origin) == len(cfg.extent) == len(cfg.cells) == cfg.dim
    assert cfg.lambda_count >= 1
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if f.metadata.get("kind") in ("floats", "ints"):
            assert value and all(math.isfinite(v) for v in value), f.name
        elif f.metadata.get("kind") in ("float", "auto") and value is not None:
            assert math.isfinite(value), f.name
