"""Benchmark operations that run inside a fresh Python process.

Each operation takes a workload spec (a JSON dict made by run.py), does one
user-level job through grasscode's public API, and returns a JSON-ready dict
of outputs that run.py checks.  Run as a script, one operation per process:

    python3 perfbench/ops.py setup   --spec JSON --seed S --work DIR
    python3 perfbench/ops.py orth    --spec JSON --seed S --work DIR
    python3 perfbench/ops.py bound   --spec JSON --seed S --work DIR
    python3 perfbench/ops.py exact   --spec JSON --seed S --work DIR
    python3 perfbench/ops.py mc      --spec JSON --seed S --work DIR
    python3 perfbench/ops.py session --spec JSON --seed S --work DIR [--trace]

`session` runs every timed operation of one round in this one process, the
two CLI commands through grasscode.cli.main; with --trace the calls into
each module are recorded as spans (see tracing.py) and written to DIR.

The BLAS thread count is fixed by run.py through the environment before
this process starts; importing this module starts no work.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import time
from fractions import Fraction
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

# Calls go through module attributes, so that tracing.install() sees them.
from grasscode import (analysis, bounds, cli, constructions,  # noqa: E402
                       core_linalg, dims, partitions, zonal)
from grasscode import io as gcio  # noqa: E402

from run import (BOUND_MEMBERS, BOUND_REPEATS, EXPAND_ROOTS,  # noqa: E402
                 ROUND_OPS, TOL, cli_argv, code_path)


def build_code(code):
    "the named construction a workload uses"
    if code["family"] == "extraspecial":
        return constructions.extraspecial_code(code["p"], code["n"], code["k"])
    if code["family"] == "mub":
        return constructions.mub_code(code["p"])
    return constructions.pauli_code(code["k"])


def seeded_copy(S, seed):
    """The same code under a seeded member permutation and a seeded Haar
    unitary of C^n: every verdict is unitarily invariant, so the checks
    stay valid while the bytes of the input change with the seed."""
    rng = np.random.default_rng(seed)
    n = S.n
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    U = q * (d / np.abs(d))
    order = rng.permutation(len(S))
    labels = None if S.labels is None else [S.labels[i] for i in order]
    members = [core_linalg.Subspace(U @ S[i].basis) for i in order]
    return core_linalg.Code(members, labels=labels, check_duplicates=False)


def op_setup(spec, seed, work):
    "build the workload's code and write it as a grasscode-v1 file"
    S = seeded_copy(build_code(spec["code"]), seed)
    path = code_path(work)
    gcio.write_code(S, path)
    return {"members": len(S), "m": S.m, "n": S.n}


def op_cli(argv):
    "one grasscode command in this process: (exit code, stdout text)"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def op_bound(spec, seed, work, repeats=1):
    """The code-checked relative bound of the code's annihilator: the
    distinct trace inner products of the whole code, then
    relative_code_bound with f <= 0 checked pairwise (principal_angles)
    on a seeded subset of at most BOUND_MEMBERS members.  It runs
    `repeats` times in this process, each time from the file; every run
    is timed and checked."""
    roots = [Fraction(x) for x in spec["expect"]["roots"]]
    rng = np.random.default_rng(seed + 1)
    times, runs = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        S = gcio.read_code(code_path(work), tol=TOL)
        R = analysis.inner_product_classes(S, tol=TOL)
        found = sorted(r[0] for r in R.reps[1:])
        if not runs:
            k = min(len(S), BOUND_MEMBERS)
            pick = sorted(rng.choice(len(S), size=k, replace=False))
        sub = core_linalg.Code([S[int(i)] for i in pick],
                               check_duplicates=False)
        res = bounds.relative_code_bound(
            bounds.make_annihilator(roots, S.m), S.m, S.n, code=sub)
        times.append(time.perf_counter() - t0)
        runs.append((found, None if res.value is None else str(res.value),
                     bool(res.applicable)))
    roots_ok = all(len(found) == len(roots)
                   and all(abs(a - float(b)) < 1e-6
                           for a, b in zip(found, roots))
                   for found, _, _ in runs)
    values = {value for _, value, _ in runs}
    return {"bound_s": times, "roots_ok": roots_ok,
            "value": values.pop() if len(values) == 1 else None,
            "applicable": all(applicable for _, _, applicable in runs)}


def lines_kernel(t, n, y):
    """The degree-t reproducing kernel of G(1, n) at y = |<u, v>|^2, from
    closed forms: sum over k <= t of dim H_k * P_k(2y - 1) / P_k(1), with
    P_k the Jacobi polynomial P_k^(n-2, 0) and dim H_k of the U(n) irrep
    (k, 0, ..., 0, -k).  Independent of grasscode's zonal code."""
    total = Fraction(0)
    for k in range(t + 1):
        p = sum(comb(k + n - 2, k - s) * comb(k, s) * (y - 1) ** s
                * y ** (k - s) for s in range(k + 1))
        dim = Fraction(2 * k + n - 1, n - 1) * comb(k + n - 2, k) ** 2
        total += dim * p / comb(k + n - 2, k)
    return total


def op_exact(spec, seed, work):
    """Cold exact sweep: the degree-t aggregate kernel over each (m, n) and
    the degree-3 zonal expansion round trip of a 3-distance annihilator at
    each (m, n).  Untimed checks: each kernel equals dim H_t(m, n) at
    (1,...,1), and at m = 1 it equals the Jacobi closed form at t + 1
    points."""
    t0 = time.perf_counter()
    sweep = spec["sweep"]
    t = sweep["t"]
    kernels = []
    expansions_ok = True
    roots = [Fraction(x) for x in EXPAND_ROOTS]
    for m, n in sweep["mn"]:
        kernels.append((m, n, zonal.aggregate_zonal(t, m, n,
                                                    experimental=True)))
        f = bounds.make_annihilator(roots, m)
        e = zonal.expand_in_zonal(f, m, n, experimental=True)
        expansions_ok &= e.reconstruct(experimental=True) == f
    exact_s = time.perf_counter() - t0
    kernels_ok = all(K.at_ones() == dims.dim_Hk(t, m, n)
                     for m, n, K in kernels)
    ys = [Fraction(j, t + 1) for j in range(t + 1)]
    jacobi_ok = all(K.evaluate([y]) == lines_kernel(t, n, y)
                    for m, n, K in kernels if m == 1 for y in ys)
    return {"exact_s": exact_s, "kernels_ok": bool(kernels_ok),
            "jacobi_ok": bool(jacobi_ok),
            "expansions_ok": bool(expansions_ok)}


def mc_pairs(pairs, m, n, samples, seed):
    "Monte Carlo inner products of the given zonal pairs, seeded per pair"
    out = []
    for i, (mu, nu) in enumerate(pairs):
        out.append(zonal.mc_zonal_inner(mu, nu, m, n, samples,
                                        seed=seed * 100 + i))
    return out


def op_orth(spec, seed, work):
    """Monte Carlo orthogonality of every distinct pair of zonals of G(m, n)
    of degree <= d that holds a degree-d zonal: a check of the exact
    layer's degree > 2 zonals that does not go through their normalization."""
    m, n, d = spec["orth"]["m"], spec["orth"]["n"], spec["orth"]["degree"]
    mus = list(partitions.partitions_up_to(d, max_len=m))
    pairs = [(mu, nu) for i, mu in enumerate(mus) for nu in mus[i + 1:]
             if max(mu.size, nu.size) == d]
    est = mc_pairs(pairs, m, n, spec["orth"]["samples"], seed + 1)
    return {"pairs": len(pairs),
            "worst_sigma": max(abs(e) / s for e, s in est)}


def op_mc(spec, seed, work):
    """Monte Carlo orthogonality of every distinct pair of the degree-<=2
    zonal basis of G(m, n), a fixed sample count per pair."""
    m, n, samples = spec["mc"]["m"], spec["mc"]["n"], spec["mc"]["samples"]
    mus = list(partitions.partitions_up_to(2, max_len=m))
    pairs = [(mu, nu) for i, mu in enumerate(mus) for nu in mus[i + 1:]]
    t0 = time.perf_counter()
    est = mc_pairs(pairs, m, n, samples, seed)
    elapsed = time.perf_counter() - t0
    return {"mc_s": elapsed, "samples": samples * len(pairs),
            "worst_sigma": max(abs(e) / s for e, s in est)}


OPS = {"setup": op_setup, "orth": op_orth, "bound": op_bound,
       "exact": op_exact, "mc": op_mc}


def session(spec, seed, work, tracer=None):
    """One round of every timed operation in this process, in run.py's
    order (the untimed orth check is left out); returns {op: output}."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    outputs = {}
    for name in ROUND_OPS:
        if name == "orth":
            continue
        with span("bench." + name):
            try:
                if name in ("check_scheme", "verify_design"):
                    rc, text = op_cli(cli_argv(name, work))
                    out = {"rc": rc, "doc": json.loads(text) if rc == 0 else None}
                else:
                    out = OPS[name](spec, seed, work)
            except Exception as exc:  # reported as a failed operation
                out = {"error": "%s: %s" % (type(exc).__name__, exc)}
        outputs[name] = out
    return outputs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("op", choices=sorted(OPS) + ["session"])
    ap.add_argument("--spec", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    spec = json.loads(args.spec)
    if args.op == "bound":
        print(json.dumps(op_bound(spec, args.seed, args.work,
                                  repeats=BOUND_REPEATS)))
        return 0
    if args.op != "session":
        print(json.dumps(OPS[args.op](spec, args.seed, args.work)))
        return 0
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    outputs = session(spec, args.seed, args.work, tracer)
    doc = {"outputs": outputs}
    if tracer:
        path = os.path.join(args.work, "trace.json")
        tracer.write(path)
        doc["summary"] = tracer.summary()
        doc["summary"]["overhead_s"] = (doc["summary"]["spans"]
                                        * tracing.span_cost())
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
