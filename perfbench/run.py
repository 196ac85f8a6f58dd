"""Benchmark of the anisolap command-line jobs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one CLI job at a time through ``anisolap.cli.main``, each in a child
interpreter of its own (job.py), in a closed loop with a single client until
S seconds have passed and at least two jobs have run.  Every job's answer is
checked against an oracle computed outside the program (checks.py), and every
job must write the same payload and output files as the first.

``--trace 0`` prints the end-to-end metrics, timed with tracing off.
``--trace 1`` alternates untraced and traced jobs and prints the per-layer
metrics of the traced ones (tracing.py), with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from BENCHMARK.json.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_JOBS = 2       # the determinism check needs two jobs
SETUP_SAMPLES = 5  # fresh-interpreter imports per run, job children included
CHILD_TIMEOUT_S = 150
# Times are reported at a nominal machine speed: each measured time is scaled
# by PROBE_NOMINAL_S over the time of job.py's fixed numpy kernel, timed in the
# same process around it.  A shared machine's speed drifts by tens of percent
# over minutes, which the scaling cancels; 16 ms is the kernel's time on an
# idle core of the machine the bounds were set on.
PROBE_NOMINAL_S = 0.016

RECT = '{"type":"rectangle","hw":1,"hh":2}'

# name -> CLI arguments (``{seed}`` is replaced), check kind, and the layers a
# job must reach.  Why each workload is here: README.md.
WORKLOADS = {
    "eigen-lshape-p1.5": {
        "argv": ["--command", "eigen", "--domain", "lshape", "--p", "1.5", "--level", "5"],
        "kind": "eigen",
        "mesh": ("lshape", 5, 128),
        "oracle": None,
        "reach": ["geometry", "mesh", "solver", "cli"],
    },
    "eigen-disk-p2": {
        "argv": ["--command", "eigen", "--domain", "disk", "--p", "2", "--level", "5",
                 "--n-boundary", "128"],
        "kind": "eigen",
        "mesh": ("disk", 5, 128),
        "oracle": "J01_SQ",
        "reach": ["geometry", "mesh", "solver", "cli"],
    },
    "optimize-rect-p2": {
        "argv": ["--command", "optimize", "--domain", RECT, "--a", "0.25", "--p", "2",
                 "--grid-n", "17", "--level", "5"],
        "kind": "optimize",
        "grid_n": 17,
        "reach": ["geometry", "mesh", "solver", "optimizer", "cli"],
    },
    "verify-p3": {
        "argv": ["--command", "verify", "--p", "3", "--level", "3", "--n-boundary", "32",
                 "--grid-n", "9", "--seed", "{seed}"],
        "kind": "verify",
        "reach": ["geometry", "mesh", "solver", "optimizer", "cli",
                  "solver.directional", "optimizer.verify_rigidity",
                  "optimizer.verify_quantitative", "optimizer.verify_relaxation",
                  "optimizer.verify_disk", "optimizer.verify_rectangle"],
    },
}

OUTPUT_SUFFIXES = {"eigen": "_eigenfunction.csv", "optimize": "_profile.csv", "verify": None}


class Checkout:
    """The source checkout the benchmark runs in, with its child settings."""

    def __init__(self, root: Path):
        self.src = root / "src"
        if not (self.src / "anisolap" / "cli.py").is_file():
            raise SystemExit(f"error: no anisolap sources under {self.src}")
        bench = root / "BENCHMARK.json"
        if not bench.is_file():
            raise SystemExit(f"error: no {bench}")
        self.spec = json.loads(bench.read_text(encoding="utf-8"))
        self.nproc = len(os.sched_getaffinity(0))
        self.threads = min(2, self.nproc)
        env = dict(os.environ)
        # Bytecode is cached in the checkout, as an installed package has it;
        # a warm-up import writes it before anything is timed.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = os.pathsep.join([str(self.src), str(HERE)])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(self.threads)
            os.environ[var] = str(self.threads)  # before this process loads numpy
        self.env = env
        self.work = root / ".perfbench_work" / f"run-{os.getpid()}"

    def child(self, result: Path, traced: bool, cli_args: list[str]) -> dict:
        """Run job.py in a fresh interpreter; its result dict, or an
        ``error`` entry when it did not finish."""
        cmd = [sys.executable, str(HERE / "job.py"), str(result), "1" if traced else "0"]
        try:
            proc = subprocess.run(cmd + cli_args, cwd=self.work, env=self.env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"job exceeded {CHILD_TIMEOUT_S} s"}
        if proc.returncode != 0 or not result.is_file():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"job exited {proc.returncode}: {tail[0]}"}
        out = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        if not Path(out["module"]).resolve().is_relative_to(self.src.resolve()):
            return {"error": f"imported anisolap from {out['module']}, not the checkout"}
        return out


def environment(co: Checkout) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": co.nproc,
        "blas_threads": co.threads,
    }


class Runner:
    """Runs the jobs of one workload and checks each answer."""

    def __init__(self, co: Checkout, name: str, seed: int):
        self.co = co
        self.w = WORKLOADS[name]
        self.argv = [a.replace("{seed}", str(seed)) for a in self.w["argv"]]
        self.jobs: list[dict] = []
        self.reference: tuple | None = None
        self.answer: tuple | None = None  # (answer_err, values, errors)

    def job(self, traced: bool) -> None:
        i = len(self.jobs)
        out_base = self.co.work / f"job{i}"
        job = self.co.child(self.co.work / f"result{i}.json", traced,
                            self.argv + ["--out", str(out_base)])
        job["traced"] = traced
        job["errors"] = [job["error"]] if "error" in job else []
        if not job["errors"]:
            self._collect(job, out_base)
        self.jobs.append(job)

    def _collect(self, job: dict, out_base: Path) -> None:
        kind = self.w["kind"]
        json_path = out_base.with_suffix(".json")
        suffix = OUTPUT_SUFFIXES[kind]
        side = out_base.parent / (out_base.name + suffix) if suffix else None
        try:
            payload = json.loads(json_path.read_text(encoding="utf-8"))["payload"]
            side_text = side.read_text(encoding="utf-8") if side else ""
        except (OSError, ValueError, KeyError) as exc:
            job["errors"].append(f"unreadable output: {exc}")
            return
        finally:
            for path in (json_path, side):
                if path is not None and path.exists():
                    path.unlink()
        if kind != "verify" and job["rc"] != 0:  # verify exits 1 on a FAIL entry
            job["errors"].append(f"exit code {job['rc']}")
        digest = hashlib.sha256(side_text.encode()).hexdigest()
        if self.reference is None:
            self.reference = (payload, digest)
            self.answer = self._check(payload, side_text, job["rc"])
        elif (payload, digest) != self.reference:
            job["errors"].append("payload or output file differs from the first job")
        job["errors"] += self.answer[2]

    def _check(self, payload: dict, side_text: str, rc: int):
        import checks

        kind = self.w["kind"]
        if kind == "eigen":
            from anisolap.geometry import domain_from_json
            from anisolap.mesh import build_mesh

            domain, level, n_boundary = self.w["mesh"]
            mesh = build_mesh(domain_from_json(domain), level, n_boundary)
            oracle = getattr(checks, self.w["oracle"]) if self.w["oracle"] else None
            return checks.check_eigen(payload, side_text, mesh, oracle)
        if kind == "optimize":
            return checks.check_optimize(payload, side_text, self.w["grid_n"])
        return checks.check_verify(payload, rc)

    def loop(self, seconds: float, traced_run: bool) -> None:
        """Closed loop: start the next job when the last one ends."""
        start = time.perf_counter()
        while len(self.jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
            self.job(traced=False)
            if traced_run:
                self.job(traced=True)

    def failed(self) -> list[dict]:
        return [j for j in self.jobs if j["errors"]]


def nominal_setup(job: dict) -> float:
    return job["setup_s"] * PROBE_NOMINAL_S / job["probe_s"][0]


def nominal_wall(job: dict) -> float:
    return job["wall_s"] * PROBE_NOMINAL_S / statistics.mean(job["probe_s"])


def end_to_end(runner: Runner, co: Checkout) -> dict:
    ok = [j for j in runner.jobs if not j["errors"]]
    setup = [nominal_setup(j) for j in runner.jobs if "setup_s" in j]
    while len(setup) < SETUP_SAMPLES:
        extra = co.child(co.work / "import.json", False, [])
        if "error" in extra:
            raise SystemExit(f"error: import-only child failed: {extra['error']}")
        setup.append(nominal_setup(extra))
    timed = [j for j in (ok or runner.jobs) if "wall_s" in j]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(map(nominal_wall, timed)) if timed else CHILD_TIMEOUT_S,
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in timed) if timed else 0.0,
        "ok_frac": len(ok) / len(runner.jobs),
        "answer_err": runner.answer[0] if runner.answer else 1.0,
    }


def per_layer(runner: Runner) -> tuple[dict, list[str]]:
    traced = [j for j in runner.jobs if j["traced"] and "layers" in j]
    plain = [nominal_wall(j) for j in runner.jobs if not j["traced"] and "wall_s" in j]
    if not traced or not plain:
        return {}, ["no traced and untraced job pair finished"]
    metrics = {
        k: statistics.median(j["layers"][k] for j in traced) for k in traced[0]["layers"]
    }
    metrics["trace.overhead_s"] = (
        statistics.median(map(nominal_wall, traced)) - statistics.median(plain)
    )
    calls = traced[0]["calls"]
    missing = [
        layer for layer in runner.w["reach"]
        if not any(n == layer or n.startswith(layer + ".") for n, c in calls.items() if c > 0)
    ]
    return metrics, [f"layer {layer} recorded no calls" for layer in missing]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    co = Checkout(Path.cwd())
    sys.path.insert(0, str(co.src))
    co.work.mkdir(parents=True, exist_ok=True)
    try:
        warm = co.child(co.work / "warm.json", False, [])
        if "error" in warm:
            raise SystemExit(f"error: cannot import anisolap: {warm['error']}")
        print("env:", json.dumps(environment(co)))
        runner = Runner(co, args.workload, args.seed)
        runner.loop(args.seconds, traced_run=bool(args.trace))
        problems = [e for j in runner.failed() for e in j["errors"]]
        if args.trace:
            values, reach = per_layer(runner)
            problems += reach
            wanted = co.spec["per_layer"]
        else:
            values = end_to_end(runner, co)
            wanted = co.spec["end_to_end"]
    finally:
        shutil.rmtree(co.work, ignore_errors=True)

    if runner.answer:
        print("answer:", json.dumps(runner.answer[1]))
    print("jobs:", json.dumps([
        {"traced": j["traced"], "wall_s": round(j["wall_s"], 4),
         "probe_s": [round(p, 5) for p in j["probe_s"]]}
        for j in runner.jobs if "wall_s" in j
    ]))
    for problem in sorted(set(problems)):
        print("problem:", problem)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not problems:
        raise SystemExit(f"error: metrics not computed: {missing}")
    values.update(dict.fromkeys(missing, 0.0))  # nothing measured: the run is incorrect
    result = {
        "correct": not problems,
        "attempted": len(runner.jobs),
        "failed": len(runner.failed()),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
