"""varexp benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload chain-2d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run generates the workload's inputs from the seed, measures
interpreter set-up, then runs whole rounds of the workload's operations
until ``--seconds`` have passed, checks the outputs, and prints one JSON
line: ``correct``, ``attempted``, ``failed`` and the metrics named in
BENCHMARK.json (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
Progress and per-operation times go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 9
RUN_LIMIT_S = 150.0  # no operation starts, or runs on, past this point of a run


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def run_process(argv: list[str], cwd: Path, env: dict, deadline: float) -> tuple[float, float, bool]:
    """Run one process to its end; returns (seconds, peak RSS in MB, ok).
    It is killed at ``deadline`` (a perf_counter time)."""
    with open(cwd / "stdout.txt", "ab") as out, open(cwd / "stderr.txt", "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - t0, 0.0), os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode == 0


def measure_setup(work: Path, env: dict) -> float:
    """Median wall time of a fresh interpreter importing varexp and its
    command module, after one untimed import."""
    argv = [sys.executable, "-c", "import varexp, varexp.cli"]
    deadline = time.perf_counter() + 60.0
    run_process(argv, work, env, deadline)
    runs = [run_process(argv, work, env, deadline) for _ in range(SETUP_REPEATS)]
    if not all(ok for _, _, ok in runs):
        raise RuntimeError("importing varexp failed; see stderr.txt in the work directory")
    return statistics.median(t for t, _, _ in runs)


def run_round(session, rd: Path, env: dict, tracer, deadline: float) -> dict:
    """One pass over the session's operations, in order."""
    rd.mkdir(parents=True)
    times, ok, results, spans, peak = {}, set(), {}, {}, 0.0
    for i, op in enumerate(session.ops):
        if op.argv is not None:
            out = rd / op.name
            out.mkdir()
            argv = op.argv + ["--out", str(out)]
            if tracer is None:
                argv = [sys.executable, "-m", "varexp"] + argv
                cmd_env = env
            else:
                argv = [sys.executable, str(HERE / "traced_cli.py")] + argv
                cmd_env = dict(env, PERFBENCH_SPANS=str(rd / f"spans-{i}.json"))
            seconds, rss, good = run_process(argv, out, cmd_env, deadline)
            peak = max(peak, rss)
            if tracer is not None and good:
                spans[op.name] = json.loads((rd / f"spans-{i}.json").read_text())
        else:
            try:
                call = op.prepare(rd)
            except (OSError, ValueError, KeyError) as exc:
                log(f"  {op.name}: cannot prepare: {exc!r}")
                times[op.name] = 0.0
                continue
            t0 = time.perf_counter()
            try:
                results[op.name] = call()
                good = True
            except Exception:  # a library failure is counted, not fatal
                log(traceback.format_exc())
                good = False
            seconds = time.perf_counter() - t0
            if tracer is not None:
                spans[op.name] = tracer.take()
        times[op.name] = seconds
        if good:
            ok.add(op.name)
        log(f"  {op.name:<12s} {seconds:8.3f} s{'' if good else '  FAILED'}")
    return {"dir": rd, "times": times, "ok": ok, "results": results, "spans": spans,
            "peak_mb": peak}


def outputs_differ(a: Path, b: Path) -> list[str]:
    """Deterministic outputs (CSV, VXF) that differ between two rounds."""
    out = []
    for fa in sorted(a.rglob("*")):
        if fa.suffix in (".csv", ".vxf"):
            fb = b / fa.relative_to(a)
            if not fb.is_file() or fa.read_bytes() != fb.read_bytes():
                out.append(str(fa.relative_to(a)))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    t_start = time.perf_counter()

    if not (SRC / "varexp" / "__init__.py").is_file():
        log(f"no varexp sources under {SRC}: run from the root of a source checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if ns.trace else spec["end_to_end"]

    # BLAS/OpenMP pools get at most one thread per available core; this
    # must be in the environment before NumPy loads, here and in children
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [str(SRC)]
    import varexp

    if Path(varexp.__file__).resolve().parent != (SRC / "varexp").resolve():
        log(f"varexp imported from {varexp.__file__}, not from {SRC}")
        return 2
    import oracle
    import tracing
    import workloads

    if ns.workload not in workloads.WORKLOADS:
        log(f"unknown workload {ns.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    work = WORK / f"{ns.workload}-{ns.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = child_env()
    try:
        session = workloads.WORKLOADS[ns.workload](work, ns.seed)
        tracer = tracing.install() if ns.trace else None
        setup_s = 0.0 if ns.trace else measure_setup(work, env)

        deadline = t_start + RUN_LIMIT_S
        rounds = []
        t_measure = time.perf_counter()
        while True:
            log(f"{ns.workload} round {len(rounds)}")
            t0 = time.perf_counter()
            rounds.append(run_round(session, work / f"round{len(rounds)}", env, tracer, deadline))
            if len(rounds) == 1:
                # Peak memory counts the first round only.  A child's
                # ru_maxrss includes the peak of this process at the time it
                # was started, so children of later rounds, started after the
                # library calls, would report that peak as their own.
                peak_mb = max(rounds[0]["peak_mb"],
                              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            took = time.perf_counter() - t0
            now = time.perf_counter()
            if now - t_measure >= ns.seconds or now + took > deadline:
                break

        # checks, after the timed region
        last = rounds[-1]
        failures = session.check(last["dir"], last["ok"], last["results"])
        for r in rounds[:-1]:
            if r["ok"] == last["ok"]:
                failures += [f"output {f} differs between rounds"
                             for f in outputs_differ(r["dir"], last["dir"])]
        if tracer is not None and "solve" in last["ok"]:
            # Newton steps as the traced SolverResult reports them and as
            # solve.csv does must agree
            rows = oracle.read_csv(last["dir"] / "solve" / "solve.csv")
            csv_steps = {r["metric"]: float(r["value"]) for r in rows}["iterations"]
            traced = sum(span[4]["iterations"] for span in last["spans"]["solve"]
                         if span[0] == "solver.solve_pxlaplace")
            if csv_steps != traced:
                failures.append(f"solve.csv iterations {csv_steps} != traced {traced}")
        for msg in failures:
            log(f"CHECK FAILED: {msg}")

        attempted = len(rounds) * len(session.ops)
        failed = sum(len(session.ops) - len(r["ok"]) for r in rounds)
        walls = [sum(r["times"].values()) for r in rounds]
        names = [m["name"] for m in wanted]
        if ns.trace:
            per_round = [tracing.layer_metrics(list(r["spans"].values()), names) for r in rounds]
            values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        else:
            values = {
                "setup_s": setup_s,
                "wall_s": statistics.median(walls),
                "solve_s": statistics.median(r["times"]["solve"] for r in rounds),
                "peak_rss_mb": peak_mb,
            }
        for op in session.ops:
            log(f"median {op.name}: {statistics.median(r['times'][op.name] for r in rounds):.3f} s")
        log(f"median wall_s over {len(rounds)} round(s): {statistics.median(walls):.3f} s")

        if set(names) != set(values):
            raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} do not match "
                               "BENCHMARK.json")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        print(json.dumps({"correct": not failures, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
