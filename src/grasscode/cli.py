"""Command-line front end: construct codes, compute bounds and tables,
verify designs and schemes, inspect code files.

Exit codes: 0 success, 1 validation/usage error, 2 numerical-health error,
3 size limit.  Rational flags accept "p/q" or decimal strings; decimals are
converted exactly as written.
"""

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .analysis import (angle_classes, check_scheme, design_strength,
                       inner_product_set, is_one_design, is_two_design,
                       scheme_idempotents)
from .bounds import (BoundTable, absolute_code_bound, design_absolute_bound,
                     one_distance_bound, simplex_orthoplex,
                     size_from_simplex_alpha, two_distance_bound)
from .constructions import extraspecial_code, mub_code, pauli_code
from .core_linalg import check_tolerance, gram_matrix, orthonormality_defects
from .dims import dim_H, dim_Hk
from .errors import GrasscodeError, NumericalHealthError, OutOfRange
from .io import code_to_dict, read_code, write_code
from .partitions import partitions_up_to


class _Parser(argparse.ArgumentParser):
    "argparse parser whose usage errors exit 1 (validation), not 2"

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational: %r" % text)


def _tolerance(text):
    "a float that passes check_tolerance"
    try:
        val = float(text)
        check_tolerance(val)
    except (ValueError, OutOfRange):
        raise argparse.ArgumentTypeError("not a finite number > 0: %r" % text)
    return val


def _nonnegative_int(text):
    "an integer >= 0"
    try:
        val = int(text)
    except ValueError:
        val = -1
    if val < 0:
        raise argparse.ArgumentTypeError("not an integer >= 0: %r" % text)
    return val


def _emit(args, text):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _json_result(res):
    "BoundResult -> plain dict"
    return {
        "kind": res.kind,
        "value": None if res.value is None else str(res.value),
        "value_float": None if res.value is None else float(res.value),
        "applicable": res.applicable,
        "conditions": [
            {"text": c.text, "holds": c.holds, "strict": c.strict,
             "boundary": c.boundary,
             "margin": None if c.margin is None else str(c.margin)}
            for c in res.conditions
        ],
    }


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_construct(args):
    if args.family == "pauli":
        if args.k is None:
            raise GrasscodeError("construct pauli needs --k")
        S = pauli_code(args.k)
    elif args.family == "extraspecial":
        if args.p is None or args.n is None or args.k is None:
            raise GrasscodeError("construct extraspecial needs --p --n --k")
        S = extraspecial_code(args.p, args.n, args.k)
    else:
        if args.p is None:
            raise GrasscodeError("construct mub needs --p")
        S = mub_code(args.p)
    if args.output:
        write_code(S, args.output)
        print("wrote %d subspaces in G(%d,%d) to %s"
              % (len(S), S.m, S.n, args.output))
    else:
        print(json.dumps(code_to_dict(S), sort_keys=True))
    return 0


def _cmd_angles(args):
    S = read_code(args.file, tol=args.tol)
    R = angle_classes(S, tol=args.tol)
    ips = inner_product_set(S, tol=args.tol)
    if args.json:
        doc = {
            "members": len(S), "m": S.m, "n": S.n,
            "inner_products": [float(v) for v in ips],
            "classes": [{"representative": list(R.reps[k]),
                         "pairs": R.class_size(k)}
                        for k in range(R.n_classes)],
        }
        _emit(args, json.dumps(doc, sort_keys=True))
        return 0
    lines = ["%d subspaces in G(%d,%d)" % (len(S), S.m, S.n),
             "inner products: {%s}" % ", ".join("%.10g" % v for v in ips)]
    for k in range(R.n_classes):
        lines.append("class %d: y = (%s), %d pairs"
                     % (k, ", ".join("%.10g" % v for v in R.reps[k]),
                        R.class_size(k)))
    _emit(args, "\n".join(lines))
    return 0


def _cmd_gram(args):
    S = read_code(args.file, tol=args.tol)
    g = gram_matrix(S)
    if args.json:
        _emit(args, json.dumps({"gram": [[float(x) for x in row] for row in g]}))
    else:
        _emit(args, np.array2string(g, precision=6, suppress_small=True,
                                    threshold=10000, max_line_width=200))
    return 0


def _cmd_bound(args):
    m, n = args.m, args.n
    if m is None or n is None:
        raise GrasscodeError("bound needs --m and --n")
    if args.kind == "one-distance":
        if args.alpha is None:
            raise GrasscodeError("one-distance bound needs --alpha")
        res = one_distance_bound(args.alpha, m, n)
    elif args.kind == "two-distance":
        if args.alpha is None or args.beta is None:
            raise GrasscodeError("two-distance bound needs --alpha and --beta")
        res = two_distance_bound(args.alpha, args.beta, m, n)
    elif args.kind == "absolute":
        k = 2 if args.k is None else args.k
        hom, hk = absolute_code_bound(k, m, n)
        if args.json:
            _emit(args, json.dumps({"kind": "absolute", "distances": k,
                                    "bound": int(hom), "dim_H_k": int(hk)}))
        else:
            _emit(args, "absolute bound (%d distances): %d\ndim H_%d: %d"
                  % (k, hom, k, hk))
        return 0
    elif args.kind == "simplex":
        if args.alpha is not None:
            N = size_from_simplex_alpha(args.alpha, m, n)
            if args.json:
                _emit(args, json.dumps({"kind": "simplex-size",
                                        "alpha": str(args.alpha),
                                        "N": str(N), "N_float": float(N)}))
            else:
                _emit(args, "simplex threshold %s is met at N = %s"
                      % (args.alpha, N))
            return 0
        if args.k is None:
            raise GrasscodeError("bound simplex needs --alpha or --k (= N)")
        so = simplex_orthoplex(args.k, m, n)
        if args.json:
            _emit(args, json.dumps({"kind": "simplex-orthoplex", "N": args.k,
                                    "simplex_alpha": str(so.simplex_alpha),
                                    "orthoplex_beta": str(so.orthoplex_beta),
                                    "regime": so.regime}))
        else:
            _emit(args, "N=%d in G(%d,%d): simplex alpha >= %s, orthoplex "
                  "beta >= %s (%s regime)"
                  % (args.k, m, n, so.simplex_alpha, so.orthoplex_beta,
                     so.regime))
        return 0
    else:  # design
        if args.t is None:
            raise GrasscodeError("bound design needs --t")
        val = design_absolute_bound(args.t, m, n)
        if args.json:
            _emit(args, json.dumps({"kind": "design", "t": args.t,
                                    "bound": int(val)}))
        else:
            _emit(args, "%d-design lower bound: %d" % (args.t, val))
        return 0
    if args.json:
        _emit(args, json.dumps(_json_result(res), sort_keys=True))
    else:
        _emit(args, str(res))
    return 0


def _cmd_table(args):
    if args.m is None or args.n is None:
        raise GrasscodeError("table needs --m and --n")
    tab = BoundTable(args.m, args.n)
    if args.json:
        rows = [{"kind": r[0], "value": r[1], "conditions": r[2], "note": r[3]}
                for r in tab.rows()]
        _emit(args, json.dumps({"m": args.m, "n": args.n, "rows": rows}))
    elif args.output and args.output.endswith(".csv"):
        _emit(args, tab.csv())
    else:
        _emit(args, tab.text())
    return 0


def _cmd_dims(args):
    if args.n is None or args.n < 1:
        raise GrasscodeError("dims needs --n >= 1")
    n = args.n
    k = 2 if args.k is None else args.k
    # H_mu exists only for 2 len(mu) <= n, and G(m, n) reaches len(mu) <= m
    max_len = n // 2 if args.m is None else min(args.m, n // 2)
    mus = [mu for mu in partitions_up_to(k, max_len=max_len) if mu.size > 0]
    if args.json:
        doc = {"n": n,
               "dim_H": [{"mu": str(mu), "dim": int(dim_H(mu, n))}
                         for mu in mus]}
        if args.m is not None:
            doc["dim_H_k"] = [{"k": j, "dim": int(dim_Hk(j, args.m, n))}
                              for j in range(k + 1)]
        _emit(args, json.dumps(doc, sort_keys=True))
        return 0
    lines = ["irreducible dimensions for n = %d" % n]
    for mu in mus:
        lines.append("  dim H_%s = %d" % (mu, dim_H(mu, n)))
    if args.m is not None:
        for j in range(k + 1):
            lines.append("  dim H_%d(%d,%d) = %d"
                         % (j, args.m, n, dim_Hk(j, args.m, n)))
    _emit(args, "\n".join(lines))
    return 0


def _cmd_verify_design(args):
    S = read_code(args.file, tol=args.tol)
    t = 2 if args.t is None else args.t
    strength = design_strength(S, t_max=t, tol=args.tol)
    res1 = is_one_design(S, tol=args.tol)[1]
    res2 = is_two_design(S, tol=args.tol)[1] if t >= 2 else None
    if args.json:
        doc = {"members": len(S), "m": S.m, "n": S.n, "t_max": t,
               "strength": strength,
               "design": {str(i): bool(strength >= i) for i in range(1, t + 1)},
               "one_design_residual": res1}
        if res2 is not None:
            doc["two_design_residual"] = res2
        _emit(args, json.dumps(doc, sort_keys=True))
        return 0
    lines = ["%d subspaces in G(%d,%d): design strength %d (tested to t=%d)"
             % (len(S), S.m, S.n, strength, t)]
    for i in range(1, t + 1):
        lines.append("%d-design: %s" % (i, "true" if strength >= i else "false"))
    lines.append("mean-projector residual: %.3e" % res1)
    if res2 is not None:
        lines.append("mean P(x)P residual: %.3e" % res2)
    _emit(args, "\n".join(lines))
    return 0


def _cmd_check_scheme(args):
    S = read_code(args.file, tol=args.tol)
    t = 2 if args.t is None else args.t
    R = angle_classes(S, tol=args.tol)
    rep = check_scheme(R)
    if rep.is_scheme:   # the idempotents live in the closed algebra
        rep.idempotents = scheme_idempotents(S, R, t=t, tol=args.tol,
                                             scheme=rep)
    if args.json:
        _emit(args, json.dumps(rep.to_json_dict(), sort_keys=True))
    else:
        _emit(args, rep.to_text())
    return 0


def _cmd_info(args):
    S = read_code(args.file, tol=args.tol)
    ortho = float(orthonormality_defects(S.bases, args.tol).max())
    ips = inner_product_set(S, tol=args.tol) if len(S) > 1 else ()
    if args.json:
        _emit(args, json.dumps({
            "members": len(S), "m": S.m, "n": S.n,
            "orthonormality_residual": ortho,
            "inner_products": [float(v) for v in ips],
            "labels": S.labels is not None,
        }, sort_keys=True))
        return 0
    lines = ["%d subspaces in G(%d,%d)" % (len(S), S.m, S.n),
             "orthonormality residual: %.3e" % ortho,
             "inner products: {%s}" % ", ".join("%.10g" % v for v in ips)]
    if S.labels is not None:
        lines.append("labels: yes")
    _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser():
    # construct always prints a code document, so it takes -o but not --json
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", metavar="PATH",
                        help="write output to a file instead of stdout")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    # only the subcommands that read a code file compare floats to a tolerance
    measured = argparse.ArgumentParser(add_help=False, parents=[common])
    measured.add_argument("--tol", type=_tolerance, default=1e-8,
                          help="numerical tolerance, finite and > 0 "
                          "(default 1e-8)")

    p = _Parser(prog="grasscode",
                description="codes and designs in complex subspaces")
    sub = p.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("construct", parents=[output],
                       help="build a named code family")
    c.add_argument("family", choices=["pauli", "extraspecial", "mub"])
    c.add_argument("--k", type=int, help="pauli: qubit count; "
                   "extraspecial: isotropic dimension")
    c.add_argument("--p", type=int, help="odd prime")
    c.add_argument("--n", type=int, help="extraspecial: field power")
    c.set_defaults(func=_cmd_construct)

    a = sub.add_parser("angles", parents=[measured],
                       help="angle classes of a code file")
    a.add_argument("file")
    a.set_defaults(func=_cmd_angles)

    g = sub.add_parser("gram", parents=[measured],
                       help="trace inner product matrix of a code file")
    g.add_argument("file")
    g.set_defaults(func=_cmd_gram)

    b = sub.add_parser("bound", parents=[common], help="code-size bounds")
    b.add_argument("kind", choices=["one-distance", "two-distance",
                                    "absolute", "simplex", "design"])
    b.add_argument("--n", type=int)
    b.add_argument("--m", type=int)
    b.add_argument("--k", type=_nonnegative_int,
                   help="absolute: distance count; simplex: code size N")
    b.add_argument("--t", type=_nonnegative_int, help="design strength")
    b.add_argument("--alpha", type=_rational)
    b.add_argument("--beta", type=_rational)
    b.set_defaults(func=_cmd_bound)

    t = sub.add_parser("table", parents=[common],
                       help="headline bound table for G(m,n)")
    t.add_argument("--n", type=int)
    t.add_argument("--m", type=int)
    t.set_defaults(func=_cmd_table)

    d = sub.add_parser("dims", parents=[common],
                       help="irreducible and cumulative dimensions")
    d.add_argument("--n", type=int)
    d.add_argument("--m", type=int)
    d.add_argument("--k", type=_nonnegative_int,
                   help="max degree (default 2)")
    d.set_defaults(func=_cmd_dims)

    v = sub.add_parser("verify-design", parents=[measured],
                       help="design strength of a code file")
    v.add_argument("file")
    v.add_argument("--t", type=_nonnegative_int,
                   help="strength to test (default 2)")
    v.set_defaults(func=_cmd_verify_design)

    s = sub.add_parser("check-scheme", parents=[measured],
                       help="association-scheme closure of a code file")
    s.add_argument("file")
    s.add_argument("--t", type=_nonnegative_int,
                   help="idempotents E_mu for |mu| <= t, strength tested to "
                   "2t (default 2)")
    s.set_defaults(func=_cmd_check_scheme)

    i = sub.add_parser("info", parents=[measured],
                       help="summary of a code file")
    i.add_argument("file")
    i.set_defaults(func=_cmd_info)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GrasscodeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:
        print("error: linear algebra failed: %s" % exc, file=sys.stderr)
        return NumericalHealthError.exit_code
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
