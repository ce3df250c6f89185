"""grasscode benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload lines|zonal --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the root of a grasscode checkout; the package is imported from
./src.  Every CLI command and benchmark operation runs as a fresh process,
one at a time (a closed loop with one client), with the BLAS thread count
fixed at 1.

--trace 0 runs rounds of the workload's operations until --seconds is
spent (at least one round; by its end the code is set up three times) and
prints the end-to-end metrics: the best sample of each time, the median
set-up time, and the peak memory.  --trace 1 runs one round in one process
with spans (tracing.py) and prints per-layer self times, counts and the
tracing overhead.  --smoke swaps in the acceptance-size codes so that a
run takes seconds.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it are the same numbers for a reader, and the
environment.  See README.md in this directory.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TOL = 1e-8
SETUP_MIN = 3              # setups in the first round
STARTUP_REPEATS = 3
RUN_LIMIT_S = 170          # every process of a run is stopped by then
# One BLAS thread: a two-thread product waits for the slower of two vCPUs,
# and on a shared host that doubled the run-to-run spread (README.md).
BLAS_THREADS = 1

# the 3-distance annihilator whose zonal expansion the exact sweep checks
EXPAND_ROOTS = ["0", "1/3", "1/2"]
# members of the subset on which the bound checks f <= 0 pair by pair:
# 120 members make the 7140 principal_angles calls of the bound of es(3,2,1)
BOUND_MEMBERS = 120
# How often a bound process runs the bound; each run is a sample.  The bound
# is the most Python-bound operation and moves most with the host's speed.
# The traced round runs it once.
BOUND_REPEATS = 2

# The zonal-layer load, the same on every workload: the cold degree-6 sweep
# over nine G(m, n) and Monte Carlo on the degree-<=2 basis of G(3,9).
ZONAL_LOAD = {
    "sweep": {"t": 6, "mn": [[1, 5], [2, 4], [2, 7], [3, 7], [3, 9], [4, 9],
                             [4, 11], [5, 11], [6, 13]]},
    "mc": {"m": 3, "n": 9, "samples": 20000},
}
SMOKE_ZONAL_LOAD = {
    "sweep": {"t": 3, "mn": [[1, 5], [2, 4], [3, 9]]},
    "mc": {"m": 3, "n": 9, "samples": 2000},
}

# Why each workload exists is in README.md.  "expect" holds paper values and
# invariants only, never current outputs of degree > 2 zonals.
WORKLOADS = {
    "lines": dict(ZONAL_LOAD, **{
        "code": {"family": "mub", "p": 19},
        "expect": {"members": 380, "m": 1, "n": 19, "classes": 3,
                   "strength": 2, "roots": ["0", "1/19"], "bound": "380"},
    }),
    "zonal": dict(ZONAL_LOAD, **{
        "code": {"family": "extraspecial", "p": 3, "n": 2, "k": 1},
        "expect": {"members": 120, "m": 3, "n": 9, "classes": 4,
                   "strength": 2, "roots": ["0", "1"], "bound": "120"},
        "orth": {"m": 3, "n": 9, "degree": 3, "samples": 20000},
    }),
}

# the acceptance-size codes: mub p=5, es(3,2,1)
SMOKE = {
    "lines": dict(SMOKE_ZONAL_LOAD, **{
        "code": {"family": "mub", "p": 5},
        "expect": {"members": 30, "m": 1, "n": 5, "classes": 3,
                   "strength": 2, "roots": ["0", "1/5"], "bound": "30"},
    }),
    "zonal": dict(SMOKE_ZONAL_LOAD, **{
        "code": {"family": "extraspecial", "p": 3, "n": 2, "k": 1},
        "expect": {"members": 120, "m": 3, "n": 9, "classes": 4,
                   "strength": 2, "roots": ["0", "1"], "bound": "120"},
        "orth": {"m": 3, "n": 9, "degree": 3, "samples": 2000},
    }),
}

# the operations of a round, in order; "orth" is a check of the zonal layer
# with no metric of its own and runs on `zonal`, in the first round only.
# A round takes 5-9 s, so a run of 60 s measures every operation 7-12
# times, spread over the run.
ROUND_OPS = ("setup", "orth", "check_scheme", "bound", "exact",
             "verify_design", "mc")

# How a run's samples of a metric become its value.  The host of the
# baseline (README.md) runs at its fast speed in short stretches and up to
# about 2x slower in between, so a median of samples follows how much of
# the run was slow.  The best sample is the cost of the work at the fast
# speed.  setup_s is the median of the run's set-ups; peak_rss_mb is one
# sample, the max over processes.
STAT = {"setup_s": statistics.median, "mc_samples_per_s": max,
        "peak_rss_mb": max}

# end-to-end metric -> unit
END_TO_END_UNITS = {
    "setup_s": "s", "check_scheme_s": "s", "verify_design_s": "s",
    "bound_check_s": "s", "zonal_exact_s": "s",
    "mc_samples_per_s": "1/s", "peak_rss_mb": "MB",
}

# span names whose self seconds are per-layer metrics (name + "_s"), and
# counts recorded on spans
PER_LAYER_TIMES = [
    "io.read", "io.write", "constructions.build", "core_linalg.code_check",
    "core_linalg.gram", "analysis.pair_angle_matrix", "analysis.angle_classes",
    "analysis.inner_product_classes", "analysis.design_strength",
    "sympoly.eval_batch", "analysis.check_scheme",
    "analysis.scheme_idempotents", "analysis.is_one_design",
    "analysis.is_two_design", "zonal.basis", "zonal.expand",
    "bounds.relative_code_bound", "core_linalg.principal_angles",
    "zonal.haar_batch", "zonal.mc",
]
PER_LAYER_COUNTS = [
    "io.file_bytes", "constructions.members", "core_linalg.pairs",
    "core_linalg.overlap_bytes", "sympoly.eval_points", "analysis.classes",
    "analysis.relation_flops", "analysis.two_design_bytes",
    "zonal.basis_size", "core_linalg.principal_angles_calls",
]


def code_path(work):
    return os.path.join(work, "code.json")


def cli_argv(name, work):
    "the two CLI commands of a round, as a user types them"
    if name == "check_scheme":
        return ["check-scheme", code_path(work), "--json"]
    return ["verify-design", code_path(work), "--t", "2", "--json"]


def nproc():
    "processors this process may run on, as nproc(1) counts them"
    return len(os.sched_getaffinity(0))


class BenchError(Exception):
    "the benchmark cannot run here (no result is printed)"


def child_env(threads):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(threads):
    "metadata recorded beside every result (not metrics)"
    lines = 0
    pkg = os.path.join(SRC, "grasscode")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fp:
                lines += sum(1 for _ in fp)
    return {"nproc": nproc(), "blas_threads": threads,
            "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "src_grasscode_lines": lines}


class Runner:
    "fresh-process operations, their wall times and their checks"

    def __init__(self, spec, seed, work, env):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.env = env
        self.attempted = 0
        self.failures = []
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def _proc(self, argv):
        """run one process to completion, killing it at the run's deadline:
        (wall seconds, stdout, error text or None)"""
        t0 = time.perf_counter()
        try:
            p = subprocess.run(argv, cwd=ROOT, env=self.env, text=True,
                               capture_output=True,
                               timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None, "timeout"
        wall = time.perf_counter() - t0
        if p.returncode != 0:
            return wall, None, "exit %d: %s" % (p.returncode,
                                                p.stderr.strip()[-300:])
        return wall, p.stdout, None

    def op(self, name):
        """one operation as a fresh process; returns (wall, output dict) and
        counts it as attempted, and as failed when it exits nonzero or its
        output check fails"""
        if name in ("check_scheme", "verify_design"):
            argv = [sys.executable, "-m", "grasscode.cli"] + cli_argv(
                name, self.work)
        else:
            argv = [sys.executable, os.path.join(HERE, "ops.py"), name,
                    "--spec", json.dumps(self.spec), "--seed", str(self.seed),
                    "--work", self.work]
        wall, text, err = self._proc(argv)
        out = None
        if err is None:
            try:
                out = json.loads(text.strip().splitlines()[-1])
            except (ValueError, IndexError):
                err = "unreadable output"
        if name in ("check_scheme", "verify_design") and out is not None:
            out = {"rc": 0, "doc": out}
        self.record(name, out, err)
        return wall, out

    def record(self, name, out, err=None):
        self.attempted += 1
        if err is None and out is not None and "error" in out:
            err = out["error"]
        if err is None:
            err = check(name, out, self.spec["expect"])
        if err is not None:
            self.failures.append("%s: %s" % (name, err))


def check(name, out, expect):
    "None when an operation's output holds the workload's invariants"
    if name == "setup":
        got = (out["members"], out["m"], out["n"])
        want = (expect["members"], expect["m"], expect["n"])
        return None if got == want else "code %r, expected %r" % (got, want)
    if name in ("check_scheme", "verify_design"):
        if out.get("rc") != 0 or out.get("doc") is None:
            return "exit %r" % out.get("rc")
        doc = out["doc"]
        if name == "check_scheme":
            ok = (doc["is_scheme"] is True
                  and doc["classes"] == expect["classes"]
                  and doc["closure_residual"] < TOL)
            return None if ok else "scheme %r, %r classes, residual %r" % (
                doc["is_scheme"], doc["classes"], doc["closure_residual"])
        ok = (doc["strength"] == expect["strength"]
              and doc["members"] == expect["members"])
        return None if ok else "strength %r" % doc["strength"]
    if name == "bound":
        ok = (out["roots_ok"] and out["applicable"]
              and out["value"] is not None
              and Fraction(out["value"]) == Fraction(expect["bound"]))
        return None if ok else "bound %r applicable %r roots %r" % (
            out["value"], out["applicable"], out["roots_ok"])
    if name == "exact":
        ok = out["kernels_ok"] and out["jacobi_ok"] and out["expansions_ok"]
        return None if ok else "kernels %r jacobi %r expansions %r" % (
            out["kernels_ok"], out["jacobi_ok"], out["expansions_ok"])
    if name in ("mc", "orth"):
        return (None if out["worst_sigma"] < 5.0
                else "MC estimate at %.2f stderr" % out["worst_sigma"])
    raise ValueError("unknown operation %r" % name)


# round operation -> its end-to-end metric
OP_METRIC = {"setup": "setup_s", "check_scheme": "check_scheme_s",
             "verify_design": "verify_design_s", "bound": "bound_check_s",
             "exact": "zonal_exact_s", "mc": "mc_samples_per_s"}


def samples_of(name, wall, out):
    "the end-to-end samples an operation gives"
    if name == "bound":
        return out["bound_s"]
    if name == "exact":
        return [out["exact_s"]]
    if name == "mc":
        return [out["samples"] / out["mc_s"]]
    return [wall]


def run_untraced(runner, seconds):
    """end-to-end samples from rounds of every operation until the time is
    spent.  Extra set-ups before the first round bring its set-ups to
    SETUP_MIN.  The first round always runs whole; after it, an operation
    starts only if its last run would still fit in `seconds`, and the run
    ends at the first one that would not."""
    samples = {metric: [] for metric in END_TO_END_UNITS}
    last = {}                       # operation -> wall seconds of its last run
    deadline = time.perf_counter() + seconds

    def measure(name):
        wall, out = runner.op(name)
        last[name] = wall
        if name in OP_METRIC and out is not None and "error" not in out:
            samples[OP_METRIC[name]].extend(samples_of(name, wall, out))

    def run_rounds():
        rounds = 0
        while True:
            for name in ROUND_OPS:
                if name == "orth" and (rounds or "orth" not in runner.spec):
                    continue
                if rounds and time.perf_counter() + last[name] > deadline:
                    return rounds
                measure(name)
            rounds += 1

    for _ in range(SETUP_MIN - ROUND_OPS.count("setup")):
        measure("setup")
    rounds = run_rounds()
    samples["peak_rss_mb"] = [
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0]
    return samples, rounds


def run_traced(runner):
    """per-layer self times and counts from one round in one traced
    process, with the tracing overhead that process estimates"""
    startup = []
    for _ in range(STARTUP_REPEATS):
        wall, text, err = runner._proc([
            sys.executable, "-c",
            "import time; t = time.perf_counter(); import grasscode.cli; "
            "print(time.perf_counter() - t)"])
        if err is not None:
            raise BenchError("import grasscode.cli failed: %s" % err)
        startup.append(float(text))
    argv = [sys.executable, os.path.join(HERE, "ops.py"), "session",
            "--spec", json.dumps(runner.spec), "--seed", str(runner.seed),
            "--work", runner.work, "--trace"]
    wall, text, err = runner._proc(argv)
    if err is not None:
        raise BenchError("traced run failed: %s" % err)
    doc = json.loads(text.strip().splitlines()[-1])
    for name, out in doc["outputs"].items():
        runner.record(name, out)
    summary = doc["summary"]
    values = {"cli.startup_s": (statistics.median(startup), "s")}
    for name in PER_LAYER_TIMES:
        values[name + "_s"] = (summary["self_s"].get(name, 0.0), "s")
    for name in PER_LAYER_COUNTS:
        values[name] = (summary["counts"].get(name, 0), "count")
    values["trace.spans"] = (summary["spans"], "count")
    values["trace.overhead_s"] = (summary["overhead_s"], "s")
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="acceptance-size codes; runs in seconds")
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace,
                     smoke=args.smoke)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def run(workload, seed, seconds, trace, smoke=False, spec=None):
    """Run one workload and return the result object.  `spec` replaces the
    workload's spec (the smoke test uses it to plant a wrong expected
    value).  Smoke runs use a work directory of their own."""
    if not os.path.isfile(os.path.join(SRC, "grasscode", "cli.py")):
        raise BenchError("no grasscode sources under %s; run from the root "
                         "of a checkout" % SRC)
    spec = spec or (SMOKE if smoke else WORKLOADS)[workload]
    threads = BLAS_THREADS
    work = os.path.join(ROOT, ".perfbench_work",
                        workload + ("-smoke" if smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env_info = environment(threads)
    runner = Runner(spec, seed, work, child_env(threads))
    print("workload %s seed %d trace %d: %s"
          % (workload, seed, trace, json.dumps(spec["code"])))
    print("env %s" % json.dumps(env_info, sort_keys=True))
    if trace:
        values = run_traced(runner)
    else:
        samples, rounds = run_untraced(runner, seconds)
        missing = [k for k, v in samples.items() if not v]
        if missing:
            raise BenchError("no successful sample for %s: %s"
                             % (", ".join(missing), "; ".join(runner.failures)))
        print("rounds %d whole; setup_s is the median, peak_rss_mb the max "
              "over %d processes, mc_samples_per_s the best rate, the rest "
              "the best time" % (rounds, runner.attempted))
        values = {}
        for k, xs in samples.items():
            values[k] = (STAT.get(k, min)(xs), END_TO_END_UNITS[k])
            print("%-18s %14.6g %-5s median %-10.4g n=%-2d [%s]"
                  % (k, values[k][0], values[k][1], statistics.median(xs),
                     len(xs), " ".join("%.4g" % x for x in xs)))
    for msg in runner.failures:
        print("FAILED %s" % msg)
    failed = len(runner.failures)
    print("error_rate %.6g (%d failed of %d attempted)"
          % (failed / runner.attempted, failed, runner.attempted))
    if trace:
        for k, (v, unit) in values.items():
            print("%-38s %14.6g %s" % (k, v, unit))
    return {"correct": failed == 0, "attempted": runner.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in values.items()},
            }


if __name__ == "__main__":
    sys.exit(main())
