"""Output digests: every command's bytes against a committed table.

One test runs the CLI as ``python -m varexp`` children, at one BLAS
thread, on small configs that reach each command: solve, verify, gehring
and goodlambda on a 2-D constant-p bump, sweep on a 2-D table exponent,
solve and verify on a 3-D 16^3 files instance, and denoise on a small PGM.
Of each run it compares, against ``digests.json``:

- the SHA-256 of every CSV, VXF and PGM the run wrote;
- the ``checks`` block of report.txt;
- each ``solve``/``stage`` line of report.txt, its seconds blanked.

The table names the NumPy and BLAS build it was made with, as report.txt's
``versions`` line gives them; bytes are promised for one build only, so on
another build the test fails and names the command that rewrites the
table.  A change that moves bytes on purpose rewrites it with

    PYTHONPATH=src python tests/test_digests.py

and lists each moved file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from itertools import takewhile
from pathlib import Path

import numpy as np

from varexp.cli import write_field, write_pgm
from varexp.grid import Grid, GridFunction
from varexp.solver import manufactured_instance

TABLE = Path(__file__).with_name("digests.json")
REGENERATE = "PYTHONPATH=src python tests/test_digests.py"
SRC = Path(__file__).resolve().parents[1] / "src"

_BUMP = """\
[run]
seed = 3
[grid]
dim = 2
origin = -2.1 -1.85
extent = 4 4
cells = 32 32
[exponent]
kind = constant
value = 1.7
[data]
instance = bump
[estimates]
kappa = 4
"""

_TABLE_SWEEP = """\
[grid]
dim = 2
origin = -2 -2
extent = 4 4
cells = 16 16
[exponent]
kind = table
path = table.vxf
[data]
instance = bump
[sweep]
refinements = 1
sizes = 1 2
amplitudes = 1 0.5
"""

_FILES_3D = """\
[grid]
dim = 3
origin = -1 -1 -1
extent = 2 2 2
cells = 16 16 16
[exponent]
kind = file
path = p3.vxf
[data]
instance = files
g = g3.vxf
boundary = b3.vxf
"""

_DENOISE = """\
[denoise]
image = in.pgm
strength = 2
"""

# (run name, command, config file)
RUNS = [
    ("bump-solve", "solve", "bump.cfg"),
    ("bump-verify", "verify", "bump.cfg"),
    ("bump-gehring", "gehring", "bump.cfg"),
    ("bump-goodlambda", "goodlambda", "bump.cfg"),
    ("table-sweep", "sweep", "sweep.cfg"),
    ("files3d-solve", "solve", "files3d.cfg"),
    ("files3d-verify", "verify", "files3d.cfg"),
    ("pgm-denoise", "denoise", "denoise.cfg"),
]


def write_inputs(work: Path) -> None:
    """The configs and the VXF and PGM inputs they read."""
    for name, text in (("bump.cfg", _BUMP), ("sweep.cfg", _TABLE_SWEEP),
                       ("files3d.cfg", _FILES_3D), ("denoise.cfg", _DENOISE)):
        (work / name).write_text(text)
    t = Grid(2, (-2.0, -2.0), (4.0, 4.0), (8, 8))
    X = t.node_coords.T
    write_field(work / "table.vxf", GridFunction(t, 1.9 + 0.4 * np.sin(X[0]) * np.cos(0.7 * X[1])))
    g3 = Grid(3, (-1.0,) * 3, (2.0,) * 3, (16, 16, 16))
    X3 = g3.node_coords.T
    _, G, bnd = manufactured_instance("matched", g3)
    write_field(work / "g3.vxf", G)
    write_field(work / "b3.vxf", bnd)
    write_field(work / "p3.vxf", GridFunction(g3, 1.75 + 0.25 * X3[0] * X3[1] * X3[2]))
    rows, cols = 17, 25
    r, c = np.mgrid[0:rows, 0:cols]
    img = np.where(c < cols // 2, 50, 190) + 23 * np.sin(1.7 * r + 2.3 * c)
    write_pgm(work / "in.pgm", np.rint(img).astype(int))


def _run(work: Path, name: str, command: str, config: str) -> Path:
    out = work / name
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "varexp", command, "--config", str(work / config),
                    "--out", str(out)], env=env, check=True, capture_output=True)
    return out


def digest(out: Path) -> tuple[str, dict]:
    """(build, entry) of one run's output directory: the build is the
    versions line past the varexp version."""
    lines = (out / "report.txt").read_text().splitlines()
    versions = next(ln for ln in lines if ln.startswith("versions = "))
    checks = []
    if "checks" in lines:
        at = lines.index("checks")
        checks = [lines[at], *takewhile(lambda ln: ln.startswith("  "), lines[at + 1:])]
    stages = [re.sub(r"(factor|wall) \S+ s", r"\1 _ s", ln) for ln in lines
              if ln.startswith(("solve ", "stage "))]
    files = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())
             if f.suffix in (".csv", ".vxf", ".pgm")}
    return versions.split(", ", 1)[1], {"files": files, "checks": checks, "solve": stages}


def measure(work: Path) -> dict:
    """The digest table of every run, made in ``work``."""
    write_inputs(work)
    with ThreadPoolExecutor(max_workers=4) as pool:
        outs = list(pool.map(lambda run: _run(work, *run), RUNS))
    builds, runs = set(), {}
    for (name, _, _), out in zip(RUNS, outs):
        build, runs[name] = digest(out)
        builds.add(build)
    (build,) = builds
    return {"build": build, "runs": runs}


def test_output_digests(tmp_path):
    want = json.loads(TABLE.read_text())
    got = measure(tmp_path)
    assert got["build"] == want["build"], (
        f"the digest table was made on {want['build']!r}, this build is {got['build']!r}: "
        f"rewrite it with `{REGENERATE}`")
    moved = []
    for name in sorted(want["runs"].keys() | got["runs"].keys()):
        a, b = want["runs"].get(name, {}), got["runs"].get(name, {})
        fa, fb = a.get("files", {}), b.get("files", {})
        moved += [f"{name}/{f}" for f in sorted(fa.keys() | fb.keys()) if fa.get(f) != fb.get(f)]
        moved += [f"{name} {key}" for key in ("checks", "solve") if a.get(key) != b.get(key)]
    assert not moved, (f"outputs moved: {', '.join(moved)}; if on purpose, rewrite the "
                       f"table with `{REGENERATE}` and list each moved file")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        TABLE.write_text(json.dumps(measure(Path(tmp)), indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
