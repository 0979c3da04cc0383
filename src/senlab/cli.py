"""Command-line front door: JSON in, deterministic JSON out.

Exit codes: 0 success, 2 schema/usage, 3 domain precondition, 4 precision,
5 convergence.  Reports are serialized with sorted keys and echo the
effective precision/truncation (a null truncation for commands without one),
so identical inputs give identical bytes (the acceptance runner additionally
prints measured runtimes).  Each command takes only the flags it reads:
--prec overrides the working precision of every command but `accept`, and
--trunc the series truncation of the `dps` commands, `gamma invert` and
`gamma kernel`; any other flag is a usage error.

Start-up loads only what a command runs: this module imports `jsonio` and
`errors`, building the parser imports nothing more, and each handler imports
the names it calls from its own group's modules (`senlab accept` alone loads
the criteria).
"""

from __future__ import annotations

import argparse
import json
import operator
import sys

from . import jsonio
from .errors import SenlabError, UsageError


def _load(path_or_inline):
    """Read JSON from a file path, or parse inline when it looks like JSON."""
    if path_or_inline.lstrip().startswith(("{", "[")):
        text = path_or_inline
    else:
        try:
            with open(path_or_inline, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise UsageError(f"cannot read {path_or_inline}: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise UsageError(f"invalid JSON in {path_or_inline}: {err}") from err


def _emit(report):
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _settings(prec, trunc=None):
    return {"prec": prec, "trunc": trunc}


def _field_from_args(args):
    return jsonio.decode_field_spec(_load(args.field), prec_override=args.prec)


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _cmd_field_build(args):
    K = _field_from_args(args)
    exact, v_e = K.different_e.pivot_val()
    return {
        "settings": _settings(K.prec),
        "p": K.p, "residue_degree": K.f, "ramification_index": K.e_ram,
        "degree": K.degree,
        "different_e": jsonio.encode_element(K.different_e),
        "v_e": jsonio.encode_fraction(v_e),
        "pi": jsonio.encode_element(K.pi),
    }


_ARITH_OPS = {"add": operator.add, "sub": operator.sub,
             "mul": operator.mul, "div": operator.truediv}


def _cmd_field_arith(args):
    K = _field_from_args(args)
    x = jsonio.decode_element(_load(args.x), K, "x")
    y = jsonio.decode_element(_load(args.y), K, "y")
    return {"settings": _settings(K.prec),
            "result": jsonio.encode_element(_ARITH_OPS[args.op](x, y))}


def _cmd_field_valuation(args):
    from .field import valuation
    K = _field_from_args(args)
    x = jsonio.decode_element(_load(args.elem), K, "elem")
    exact, v = valuation(x, normalize=args.normalize)
    return {"settings": _settings(K.prec), "exact": exact,
            "value": jsonio.encode_fraction(v)}


def _cmd_field_trace(args):
    from .field import trace_to_Qp
    K = _field_from_args(args)
    x = jsonio.decode_element(_load(args.elem), K, "elem")
    return {"settings": _settings(K.prec),
            "trace": jsonio.encode_scalar(trace_to_Qp(x))}


def _cmd_field_residue(args):
    from .field import residue
    K = _field_from_args(args)
    x = jsonio.decode_element(_load(args.elem), K, "elem")
    return {"settings": _settings(K.prec), "residue": list(residue(x))}


def _cmd_field_substitute(args):
    from .field import FieldEmbedding
    K = _field_from_args(args)
    x = jsonio.decode_element(_load(args.elem), K, "elem")
    y_img = jsonio.decode_element(_load(args.y_image), K, "y_image")
    u_img = jsonio.decode_element(_load(args.u_image), K, "u_image")
    emb = FieldEmbedding(K, K, y_img, u_img)
    return {"settings": _settings(K.prec),
            "result": jsonio.encode_element(emb(x))}


def _series(args, K, flag):
    """The series given by --<flag>; its decode errors name the flag."""
    return jsonio.decode_dpseries(_load(getattr(args, flag)), K, flag,
                                  trunc_override=args.trunc)


def _cmd_dps_solve_theta(args):
    from .dpseries import solve_theta
    K = _field_from_args(args)
    g = _series(args, K, "g")
    return {"settings": _settings(K.prec, g.trunc),
            "result": jsonio.encode_dpseries(solve_theta(g))}


def _cmd_dps_theta(args):
    from .dpseries import sen_theta
    K = _field_from_args(args)
    f = _series(args, K, "f")
    out = sen_theta(f)
    return {"settings": _settings(K.prec, f.trunc), "valid_to": out.valid_to,
            "result": jsonio.encode_dpseries(out)}


def _cmd_dps_mul(args):
    from .dpseries import dp_mul
    K = _field_from_args(args)
    f = _series(args, K, "f")
    g = _series(args, K, "g")
    prod = dp_mul(f, g)
    return {"settings": _settings(K.prec, prod.trunc),
            "result": jsonio.encode_dpseries(prod)}


def _cmd_dps_coaction(args):
    from .dpseries import coaction
    K = _field_from_args(args)
    f = _series(args, K, "f")
    b = jsonio.decode_element(_load(args.b), K, "b")
    return {"settings": _settings(K.prec, f.trunc),
            "result": jsonio.encode_dpseries(coaction(f, b))}


def _cmd_dps_log_t(args):
    from .dpseries import log_t
    K = _field_from_args(args)
    e = jsonio.decode_element(_load(args.e), K, "e") if args.e else None
    return {"settings": _settings(K.prec, args.trunc),
            "result": jsonio.encode_dpseries(log_t(K, args.trunc, e=e))}


def _cmd_dps_gsharp(args):
    from .dpseries import gsharp_transport
    K = _field_from_args(args)
    f = _series(args, K, "f")
    return {"settings": _settings(K.prec, f.trunc),
            "result": jsonio.encode_dpseries(gsharp_transport(f, args.direction))}


def _module_from_args(args):
    from .senmod import SenModule
    K = _field_from_args(args)
    theta = jsonio.decode_theta_matrix(_load(args.theta), K)
    return SenModule(K, theta)


def _cmd_senmod_charpoly(args):
    from .senmod import char_poly
    M = _module_from_args(args)
    return {"settings": _settings(M.field.prec),
            "char_poly": [jsonio.encode_element(c) for c in char_poly(M)]}


def _cmd_senmod_nearly_ht(args):
    from .senmod import nearly_ht_test
    M = _module_from_args(args)
    report = nearly_ht_test(M)
    out = jsonio.encode_classifier_report(report)
    out["slopes"] = out["polygon"]["slopes"]
    out["settings"] = _settings(M.field.prec)
    return out


def _cmd_senmod_weights(args):
    from .senmod import ht_weights
    if (args.nmin is None) != (args.nmax is None):
        raise UsageError("give both --nmin and --nmax, or neither")
    M = _module_from_args(args)
    rng = (args.nmin, args.nmax) if args.nmin is not None else None
    weights = ht_weights(M, rng)
    return {"settings": _settings(M.field.prec),
            "weights": [{"n": n, "multiplicity": m} for n, m in weights]}


def _cmd_senmod_cohomology(args):
    from .senmod import cohomology
    M = _module_from_args(args)
    coh = cohomology(M)
    return {"settings": _settings(M.field.prec),
            "h0": coh.h0_dim, "h1": coh.h1_dim,
            "h0_basis": [[jsonio.encode_element(x) for x in vec]
                         for vec in coh.h0_basis],
            "h1_basis_indices": coh.h1_basis_indices}


def _cmd_senmod_tensor(args):
    from .senmod import SenModule, tensor
    K = _field_from_args(args)
    m1 = SenModule(K, jsonio.decode_theta_matrix(_load(args.theta), K))
    m2 = SenModule(K, jsonio.decode_theta_matrix(_load(args.theta2), K, "theta2"))
    return {"settings": _settings(K.prec),
            "theta": jsonio.encode_matrix(tensor(m1, m2).matrix())}


def _cmd_senmod_dual(args):
    from .senmod import dual
    M = _module_from_args(args)
    return {"settings": _settings(M.field.prec),
            "theta": jsonio.encode_matrix(dual(M).matrix())}


def _cmd_senmod_twist(args):
    from .senmod import bk_twist
    M = _module_from_args(args)
    return {"settings": _settings(M.field.prec),
            "theta": jsonio.encode_matrix(bk_twist(M, args.n).matrix())}


def _cmd_senmod_series(args):
    from .senmod import operator_series
    M = _module_from_args(args)
    b = jsonio.decode_element(_load(args.b), M.field, "b")
    return {"settings": _settings(M.field.prec),
            "matrix": jsonio.encode_matrix(operator_series(M, b))}


def _cmd_senmod_descent(args):
    from .senmod import semilinear_descent_matrix
    M = _module_from_args(args)
    chi = jsonio.decode_scalar(_load(args.chi), "chi", p=M.field.p,
                               prec=M.field.prec)
    return {"settings": _settings(M.field.prec),
            "matrix": jsonio.encode_matrix(semilinear_descent_matrix(M, chi))}


def _level_from_args(args):
    from .gamma import build_level
    from .padic import DEFAULT_PRECISION
    return build_level(args.p, args.m, args.a,
                       DEFAULT_PRECISION if args.prec is None else args.prec)


def _cmd_gamma_delta(args):
    from .gamma import rho_bound
    level = _level_from_args(args)
    report = rho_bound(level, [n for n in range(args.nmin, args.nmax + 1) if n != 0])
    return {
        "settings": _settings(level.prec),
        "delta": jsonio.encode_fraction(report.delta),
        "per_n": {str(n): jsonio.encode_fraction(v)
                  for n, v in report.per_n.items()},
        "norms": {str(n): f"{level.p}^{v}" for n, v in report.per_n.items()},
    }


def _cmd_gamma_invert(args):
    from .gamma import g_minus_one, neumann_invert
    from .padic import PadicScalar
    level = _level_from_args(args)
    e = PadicScalar.from_int(args.e, args.p, level.prec)
    T = g_minus_one(level, e, args.trunc)
    rhs = jsonio.decode_scalar_vector(_load(args.rhs), level.p, level.prec)
    res = neumann_invert(T, rhs)
    return {
        "settings": _settings(level.prec, args.trunc),
        "solution": [jsonio.encode_scalar(x) for x in res["solution"]],
        "residual_valuation": str(res["residual_valuation"]),
        "sup_norm_exponent": jsonio.encode_fraction(res["sup_norm_exponent"]),
    }


def _cmd_gamma_kernel(args):
    from .gamma import g_minus_one
    from .padic import PadicScalar
    level = _level_from_args(args)
    e = PadicScalar.from_int(args.e, args.p, level.prec)
    T = g_minus_one(level, e, args.trunc)
    con = T.contraction_report()
    return {"settings": _settings(level.prec, args.trunc),
            "kernel_dimension": 0,     # block triangular, each diagonal block inverts
            "sup_norm_exponent": jsonio.encode_fraction(con["sup_norm_exponent"]),
            "topologically_nilpotent": con["nilpotent"]}


def _cmd_picard_boundary(args):
    from .picard import boundary
    K = _field_from_args(args)
    x = jsonio.decode_element(_load(args.elem), K, "elem")
    b = boundary(x)
    out = jsonio.encode_boundary(b)
    out["in_kernel"] = b.is_zero()
    out["settings"] = _settings(K.prec)
    return out


def _cmd_picard_kernel(args):
    from .picard import kernel_lattice
    K = _field_from_args(args)
    rep = kernel_lattice(K, args.s)
    return {"settings": _settings(K.prec),
            "basis": [jsonio.encode_element(x) for x in rep.basis],
            "image_order_exponent": rep.image_order_exponent}


def _cmd_picard_functorial(args):
    from .field import FieldEmbedding, scalar_embedding
    from .picard import functoriality_check
    if (args.y_image is None) != (args.u_image is None):
        raise UsageError("give both --y-image and --u-image, or neither")
    K = _field_from_args(args)
    L = jsonio.decode_field_spec(_load(args.ext), "ext",
                                 prec_override=args.prec)
    if args.y_image is not None:
        emb = FieldEmbedding(K, L,
                             jsonio.decode_element(_load(args.y_image), L, "y_image"),
                             jsonio.decode_element(_load(args.u_image), L, "u_image"))
    else:
        emb = scalar_embedding(K, L)
    x = jsonio.decode_element(_load(args.elem), K, "elem")
    rep = functoriality_check(emb, x)
    return {"settings": _settings(K.prec),
            "lhs": jsonio.encode_boundary(rep["lhs"]),
            "rhs": jsonio.encode_boundary(rep["rhs"]),
            "equal": rep["equal"],
            "relative_degree": rep["relative_degree"]}


def _cmd_picard_witness(args):
    from .picard import boundary, witness_of_order
    K = _field_from_args(args)
    w = witness_of_order(K, args.k)
    return {"settings": _settings(K.prec),
            "witness": jsonio.encode_element(w),
            "boundary": jsonio.encode_boundary(boundary(w))}


# criterion indices of each `senlab accept` suite (see senlab.accept.CRITERIA);
# the parser reads the names without importing the criteria
SUITES = {
    "dpseries": (1, 2, 3, 10),
    "senmod": (4, 5, 6),
    "gamma": (7, 8),
    "picard": (9,),
}


def _cmd_accept(args):
    from .accept import CRITERIA, run_criterion
    indices = sorted(CRITERIA) if args.suite == "all" else SUITES[args.suite]
    results = [run_criterion(i) for i in indices]
    failures = [r for r in results if not r["passed"]]
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        line = (f"[{r['index']:2d}] {status}  {r['elapsed_s']:.2f}s "
                f"(budget {r['budget_s']:.1f}s)  {r['name']}")
        print(line, file=sys.stderr)
        if not r["passed"]:
            print(f"      {r['message']}", file=sys.stderr)
    report = {
        "suite": args.suite,
        "criteria": [
            {"index": r["index"], "name": r["name"], "passed": r["passed"],
             "message": r["message"], "details": r["details"],
             "elapsed_s": round(r["elapsed_s"], 3),
             "budget_s": r["budget_s"]}
            for r in results
        ],
        "passed": not failures,
    }
    _emit(report)
    if failures:
        raise SenlabError("first failing criterion: %d (%s)"
                          % (failures[0]["index"], failures[0]["message"]))
    return None


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser(group=None):
    """The `senlab` parser.  Every group is named, but given a `group` only
    that group's commands are built: a process runs one command, and each
    command's parser costs start-up time."""
    prec = argparse.ArgumentParser(add_help=False)
    prec.add_argument("--prec", type=int, default=None,
                      help="override the working precision")

    def trunc(default=None):
        # a fresh parent per command: its children share the parent's action
        # object, so a default set through one child would reach them all
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--trunc", type=int, default=default,
                            help="override the series truncation")
        return parent

    parser = argparse.ArgumentParser(
        prog="senlab",
        description="Exact computations with Sen operators over p-adic fields")
    sub = parser.add_subparsers(dest="group", required=True)

    def leaf(cmds, name, fn, *parents):
        q = cmds.add_parser(name, parents=[prec, *parents])
        q.set_defaults(fn=fn)
        return q

    def field_commands(cmds):
        q = leaf(cmds, "build", _cmd_field_build)
        q.add_argument("--spec", required=True, dest="field")
        q = leaf(cmds, "arith", _cmd_field_arith)
        q.add_argument("--field", required=True); q.add_argument("--x", required=True)
        q.add_argument("--y", required=True)
        q.add_argument("--op", required=True, choices=sorted(_ARITH_OPS))
        q = leaf(cmds, "valuation", _cmd_field_valuation)
        q.add_argument("--field", required=True); q.add_argument("--elem", required=True)
        q.add_argument("--normalize", default="p", choices=["p", "pi"])
        q = leaf(cmds, "trace", _cmd_field_trace)
        q.add_argument("--field", required=True); q.add_argument("--elem", required=True)
        q = leaf(cmds, "residue", _cmd_field_residue)
        q.add_argument("--field", required=True); q.add_argument("--elem", required=True)
        q = leaf(cmds, "substitute", _cmd_field_substitute)
        q.add_argument("--field", required=True); q.add_argument("--elem", required=True)
        q.add_argument("--y-image", required=True, dest="y_image")
        q.add_argument("--u-image", required=True, dest="u_image")

    def dps_commands(cmds):
        q = leaf(cmds, "solve-theta", _cmd_dps_solve_theta, trunc())
        q.add_argument("--field", required=True); q.add_argument("--g", required=True)
        q = leaf(cmds, "theta", _cmd_dps_theta, trunc())
        q.add_argument("--field", required=True); q.add_argument("--f", required=True)
        q = leaf(cmds, "mul", _cmd_dps_mul, trunc())
        q.add_argument("--field", required=True); q.add_argument("--f", required=True)
        q.add_argument("--g", required=True)
        q = leaf(cmds, "coaction", _cmd_dps_coaction, trunc())
        q.add_argument("--field", required=True); q.add_argument("--f", required=True)
        q.add_argument("--b", required=True)
        q = leaf(cmds, "log-t", _cmd_dps_log_t, trunc(32))
        q.add_argument("--field", required=True); q.add_argument("--e", default=None)
        q = leaf(cmds, "gsharp", _cmd_dps_gsharp, trunc())
        q.add_argument("--field", required=True); q.add_argument("--f", required=True)
        q.add_argument("--direction", required=True,
                       choices=["to_gsharp", "from_gsharp"])

    def senmod_commands(cmds):
        for name, fn in [
            ("char-poly", _cmd_senmod_charpoly),
            ("nearly-ht", _cmd_senmod_nearly_ht),
            ("cohomology", _cmd_senmod_cohomology),
            ("dual", _cmd_senmod_dual),
        ]:
            q = leaf(cmds, name, fn)
            q.add_argument("--field", required=True)
            q.add_argument("--theta", required=True)
        q = leaf(cmds, "weights", _cmd_senmod_weights)
        q.add_argument("--field", required=True); q.add_argument("--theta", required=True)
        q.add_argument("--nmin", type=int, default=None)
        q.add_argument("--nmax", type=int, default=None)
        q = leaf(cmds, "tensor", _cmd_senmod_tensor)
        q.add_argument("--field", required=True); q.add_argument("--theta", required=True)
        q.add_argument("--theta2", required=True)
        q = leaf(cmds, "twist", _cmd_senmod_twist)
        q.add_argument("--field", required=True); q.add_argument("--theta", required=True)
        q.add_argument("--n", type=int, required=True)
        q = leaf(cmds, "operator-series", _cmd_senmod_series)
        q.add_argument("--field", required=True); q.add_argument("--theta", required=True)
        q.add_argument("--b", required=True)
        q = leaf(cmds, "descent", _cmd_senmod_descent)
        q.add_argument("--field", required=True); q.add_argument("--theta", required=True)
        q.add_argument("--chi", required=True)

    def gamma_commands(cmds):
        q = leaf(cmds, "delta", _cmd_gamma_delta)
        q.add_argument("--p", type=int, required=True)
        q.add_argument("--m", type=int, required=True)
        q.add_argument("--a", type=int, required=True)
        q.add_argument("--nmin", type=int, required=True)
        q.add_argument("--nmax", type=int, required=True)
        q = leaf(cmds, "invert", _cmd_gamma_invert, trunc(8))
        q.add_argument("--p", type=int, required=True)
        q.add_argument("--m", type=int, required=True)
        q.add_argument("--a", type=int, required=True)
        q.add_argument("--e", type=int, required=True)
        q.add_argument("--rhs", required=True)
        q = leaf(cmds, "kernel", _cmd_gamma_kernel, trunc(8))
        q.add_argument("--p", type=int, required=True)
        q.add_argument("--m", type=int, required=True)
        q.add_argument("--a", type=int, required=True)
        q.add_argument("--e", type=int, required=True)

    def picard_commands(cmds):
        q = leaf(cmds, "boundary", _cmd_picard_boundary)
        q.add_argument("--field", required=True); q.add_argument("--elem", required=True)
        q = leaf(cmds, "kernel", _cmd_picard_kernel)
        q.add_argument("--field", required=True)
        q.add_argument("--s", type=int, default=0)
        q = leaf(cmds, "functorial", _cmd_picard_functorial)
        q.add_argument("--field", required=True); q.add_argument("--ext", required=True)
        q.add_argument("--elem", required=True)
        q.add_argument("--y-image", default=None, dest="y_image")
        q.add_argument("--u-image", default=None, dest="u_image")
        q = leaf(cmds, "witness", _cmd_picard_witness)
        q.add_argument("--field", required=True)
        q.add_argument("--k", type=int, required=True)

    for name, add_commands in [("field", field_commands), ("dps", dps_commands),
                               ("senmod", senmod_commands), ("gamma", gamma_commands),
                               ("picard", picard_commands)]:
        q = sub.add_parser(name)
        if group in (None, name):
            add_commands(q.add_subparsers(dest="cmd", required=True))

    q = sub.add_parser("accept")
    q.add_argument("suite", nargs="?", default="all",
                   choices=["all"] + sorted(SUITES))
    q.set_defaults(fn=_cmd_accept)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        report = args.fn(args)
    except SenlabError as err:
        payload = {
            "error": {
                "kind": type(err).__name__,
                "exit_code": err.exit_code,
                "message": str(err),
                "concept": err.concept,
            }
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return err.exit_code
    if report is not None:
        _emit(report)
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
