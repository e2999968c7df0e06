"""Command-line driver: every verification and computation as a subcommand.

Reports are JSON with a stable schema ("qosc/1"); the exit code is 0 iff
every check in the report passed, 2 on usage errors.  Wall-clock numbers
are only emitted under --timings so that default reports are byte-stable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .algebraops import (
    LEVELS,
    PARTS,
    check_monoidality,
    check_phi_relations,
    check_relations,
    check_truncation_equivariance,
    host_eps,
    level_module,
    phi_words,
)
from .decomp import decompose, find_hw
from .fockmod import ket_str, weight_block
from .fundrep import (
    appendix_C_verdicts,
    build_fundamental,
    check_fundamental_truncation,
    fundamental_truncation_cutoff,
    iso_between_k,
    ladder_failures,
    u_rs_failures,
    v_lk_label,
    verify_appendix_C,
    verify_EF_identities,
    verify_u_rs_highest,
)
from .lattice import EpsilonData, Weight
from .rmatrix import (
    AdmissibilityError,
    check_admissible,
    closed_form_failures,
    compare_truncated_image,
    fuse,
    fused_cyclicity,
    hw_content,
    make_c_pair,
    make_d_pair,
    poles,
    rho_pole_multisets,
    solve_R,
)
from .scalars import Scalar, parse_scalar

SCHEMA = "qosc/1"


class UsageError(Exception):
    """A flag value that cannot be used; reported on stderr with exit 2."""


def _emit(args, command, checks, extra=None):
    ok = all(c.get("pass", False) for c in checks)
    report = {
        "schema": SCHEMA,
        "command": command,
        "pass": ok,
        "checks": checks,
    }
    if extra:
        report.update(extra)
    if args.timings:
        report["wall_clock_s"] = round(time.time() - args._t0, 2)
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if ok else 1


def _epsilon(args):
    try:
        eps = EpsilonData(tuple(int(b) for b in args.epsilon.split(",")))
    except ValueError:
        raise UsageError("--epsilon: expected a comma list of 0/1, got %r" % args.epsilon)
    if eps.n < 4:
        # the relation suite is the one of type D, which needs n >= 4
        raise UsageError("--epsilon: expected at least 4 entries, got %r" % args.epsilon)
    return eps


def _scalar(text, flag):
    """A nonzero spectral parameter."""
    try:
        value = parse_scalar(text)
    except (ValueError, ArithmeticError) as exc:
        raise UsageError("%s: %s" % (flag, exc))
    if value.is_zero():
        raise UsageError("%s: expected a nonzero parameter, got %r" % (flag, text))
    return value


def _pair_of_ints(text, flag):
    try:
        a, b = (int(t) for t in text.split(","))
    except ValueError:
        a = b = -1
    if min(a, b) < 0:
        raise UsageError("%s: expected two integers >= 0 such as 1,2, got %r" % (flag, text))
    return a, b


def _int_at_least(lo):
    """An argparse type: an integer >= lo."""

    def parse(text):
        if not text.lstrip("-").isdigit() or int(text) < lo:
            raise argparse.ArgumentTypeError("expected an integer >= %d, got %r" % (lo, text))
        return int(text)

    return parse


def _sigma(args):
    sigma = tuple(args.sigma.split(","))
    if len(sigma) != 2 or any(s not in ("+", "-") for s in sigma):
        raise UsageError("--sigma: expected two signs such as +,-, got %r" % args.sigma)
    return sigma


def _module(args, eps, x):
    flavor = "c" if args.module == "W" else "d"
    try:
        return level_module(flavor, "bold", eps, args.cutoff, [(x, "W")])
    except (ValueError, ArithmeticError) as exc:
        raise UsageError("--module %s: %s" % (args.module, exc))


def _target(args, eps):
    try:
        return phi_words(args.flavor, args.side, eps, eta=args.eta)
    except ValueError as exc:
        raise UsageError("--flavor %s --epsilon %s: %s" % (args.flavor, args.epsilon, exc))


def _eta(tgt):
    """The report field naming a phi map other than the default eta = 1."""
    return {} if tgt.eta == 1 else {"eta": tgt.eta}


def cmd_verify_relations(args):
    eps = _epsilon(args)
    mod = _module(args, eps, _scalar(args.x, "--x"))
    reps = check_relations(mod)
    checks = [r.to_json() for r in reps]
    return _emit(args, "verify-relations", checks)


def cmd_verify_phi(args):
    eps = _epsilon(args)
    mod = _module(args, eps, _scalar(args.x, "--x"))
    tgt = _target(args, eps)
    reps = check_phi_relations(tgt, mod)
    checks = [r.to_json() for r in reps]
    return _emit(args, "verify-phi", checks, extra={"target": tgt.name, **_eta(tgt)})


def cmd_truncate(args):
    eps = _epsilon(args)
    x = _scalar(args.x, "--x")
    mod = _module(args, eps, x)
    tgt = _target(args, eps)
    if args.cutoff < 2:
        raise UsageError("--cutoff %d: the truncation checks reach degree cutoff - 2 and "
                         "check no ket; they need --cutoff 2 or more" % args.cutoff)
    reps = check_truncation_equivariance(tgt, mod)
    checks = [r.to_json() for r in reps]
    if args.monoidal:
        # _module and _target accepted the host, so the flavor names the module
        factors = [(x, "W"), (_scalar(args.y, "--y"), "W")]
        t_amb, t_tr = (level_module(args.flavor, level, eps, args.cutoff, factors, args.eta)
                       for level in ("bold", args.side))
        reps = check_monoidality(tgt, t_amb, t_tr, maxdeg=max(0, args.cutoff - 3))
        checks.extend(r.to_json() for r in reps)
    return _emit(args, "truncate", checks, extra={"kept": list(tgt.kept), **_eta(tgt)})


def _factors(args, eps):
    """The module named by --factors (level_module) and its number of factors."""
    parts = args.factors.split(",")
    if any(part not in PARTS for part in parts):
        raise UsageError("--factors: expected a comma list of +, - or W, got %r"
                         % args.factors)
    xs = [_scalar(t, "--x") for t in args.x.split(";")]
    factors = [(xs[i % len(xs)], part) for i, part in enumerate(parts)]
    try:
        mod = level_module(args.flavor, args.level, eps, args.cutoff, factors)
    except (ValueError, ArithmeticError) as exc:
        raise UsageError("--flavor %s --epsilon %s: %s" % (args.flavor, args.epsilon, exc))
    return mod, len(factors)


def cmd_decompose(args):
    mod, ell = _factors(args, _epsilon(args))
    res = decompose(mod, args.flavor, ell, args.cutoff)
    rows = [{"lambda": list(lam), "mult": d} for lam, d in res if d]
    checks = [{"id": "decompose", "pass": True, "table": rows}]
    return _emit(args, "decompose", checks)


def _parse_weight(text, eps):
    lam = 0
    delta = [0] * eps.n
    for part in text.replace("-", "+-").split("+"):
        part = part.strip()
        if not part:
            continue
        try:
            if "*" in part:
                c, name = part.split("*", 1)
                c = int(c)
            elif part.startswith("-") and not part[1:].isdigit():
                c, name = -1, part[1:]
            else:
                c, name = 1, part
        except ValueError:
            raise UsageError("--weight: bad coefficient in %r" % part)
        name = name.strip()
        if name in ("L", "Lam", "Lambda"):
            lam += c
        elif name.startswith("d") and name[1:].isdigit() and 1 <= int(name[1:]) <= eps.n:
            delta[int(name[1:]) - 1] += c
        else:
            raise UsageError("--weight: bad term %r; use L or d1..d%d" % (part, eps.n))
    return Weight(lam, tuple(delta))


def cmd_hwv(args):
    eps = _epsilon(args)
    mod, _ = _factors(args, eps)
    wt = _parse_weight(args.weight, eps)
    if not weight_block(mod, wt):
        if wt.lam != mod.lam_level:
            why = "the module has level %d, so the weight needs %d*L" % (
                mod.lam_level, mod.lam_level)
        elif wt.degree() > args.cutoff:
            why = "its degree %d is above --cutoff %d" % (wt.degree(), args.cutoff)
        else:
            why = "no ket of the window has this weight"
        raise UsageError("--weight %r: %s" % (args.weight, why))
    basis = find_hw(mod, wt)
    checks = [
        {
            "id": "hwv",
            "pass": True,
            "weight": wt.to_str(),
            "dimension": len(basis),
            "basis": [{ket_str(l): c.to_str() for l, c in v.terms.items()} for v in basis],
        }
    ]
    return _emit(args, "hwv", checks)


def _rpair_params(args):
    """sigma for --flavor c, (l1, l2) for --flavor d."""
    return _sigma(args) if args.flavor == "c" else _pair_of_ints(args.l, "--l")


def _rpair(args, params):
    if args.flavor == "c":
        pair = make_c_pair(args.m, params, cutoff=args.cutoff, level=args.level)
    elif args.level == "overline":
        raise UsageError("--flavor d --level overline: the type-d pair is built at the "
                         "bold and underline levels only")
    else:
        pair = make_d_pair(args.m, *params, cutoff=args.cutoff, level=args.level)
    if pair.lambda0 not in [comp.key for comp in pair.components]:
        raise UsageError("--cutoff %d: the window leaves out the top component %s"
                         % (args.cutoff, pair.lambda0))
    # e_0 raises the degree by 2; a component without room for it gives no equation
    need = min(comp.weight.degree() for comp in pair.components) + 2
    if len(pair.components) > 1 and args.cutoff < need:
        raise UsageError("--cutoff %d: the window holds no e_0 equation to solve for "
                         "its %d components; it needs --cutoff %d or more"
                         % (args.cutoff, len(pair.components), need))
    return pair


def cmd_rmatrix(args):
    params = _rpair_params(args)
    rho, dec = solve_R(_rpair(args, params))
    # type c has closed forms on the bold level only
    closed_form = args.flavor == "d" or args.level == "bold"
    failures = closed_form_failures(args.flavor, params, rho) if closed_form else ()
    checks = []
    for key in sorted(rho):
        entry = {
            "id": "rho %s" % (key,),
            "component": list(key),
            "rho_num": rho[key].num_str("z"),
            "rho_den": rho[key].den_str("z"),
            "pass": True,
        }
        if closed_form:
            entry["matches_closed_form"] = entry["pass"] = key not in failures
        checks.append(entry)
    bound = 4 * args.cutoff + 8
    pm = rho_pole_multisets(rho, bound)
    extra = {
        "poles": {str(k): v[0] for k, v in pm.items()},
        "declared_poles": poles(args.flavor, params, bound),
    }
    return _emit(args, "rmatrix", checks, extra=extra)


def cmd_fuse(args):
    if args.check_truncation and (args.flavor, args.level) != ("c", "bold"):
        raise UsageError("--check-truncation: the truncations are compared for the bold "
                         "type-c image only, not --flavor %s --level %s"
                         % (args.flavor, args.level))
    cs = [_scalar(t, "--c") for t in args.c.split(",")]
    if len(cs) != 2 or not all(isinstance(c, Scalar) for c in cs):
        raise UsageError("--c: expected two nonzero Q(w) parameters such as q^-6,1, got %r"
                         % args.c)
    params = _rpair_params(args)
    try:
        check_admissible(args.flavor, params, cs)
    except AdmissibilityError as e:
        checks = [{"id": "admissibility", "pass": False, "offending": list(e.offending)}]
        return _emit(args, "fuse", checks)
    zc = cs[0] / cs[1]
    pair = _rpair(args, params)
    image = fuse(pair, *solve_R(pair, needed_weights=None), zc)
    fused = {"id": "fused-image", "pass": image.dim() > 0, "nonzero": image.dim() > 0}
    checks = [fused]
    if args.flavor == "d":
        return _emit(args, "fuse", checks)
    content = hw_content(image, pair)
    fused["hw_content"] = {str(k): len(v) for k, v in content.items() if v}
    if image.dim() and any(content.values()):
        diag = fused_cyclicity(image, content, args.m, params, args.level, zc)
        note = "consistent with irreducibility" if diag["pass"] else "lowering closure mismatch"
        checks.append({"id": "cyclicity", "pass": diag["pass"], "note": note})
    if args.check_truncation:
        for side in ("underline", "overline"):
            pair_l = make_c_pair(args.m, params, cutoff=args.cutoff, level=side)
            cmp = compare_truncated_image(image, pair_l, *solve_R(pair_l, needed_weights=None), zc)
            checks.append({"id": "truncation-%s" % side, "pass": cmp["pass"], **cmp})
    return _emit(args, "fuse", checks)


def cmd_fundamental(args):
    k = args.l if args.k is None else args.k
    if not 0 <= min(k, args.k2) <= max(k, args.k2) <= args.l:
        raise UsageError("--k, --k2: expected integers from 0 to --l %d" % args.l)
    if args.verify in ("truncation", "all"):
        need = fundamental_truncation_cutoff(args.m, args.l)
        if args.cutoff < need:
            raise UsageError("--cutoff %d: the window cannot hold the overline truncation "
                             "of W_%d; it needs --cutoff %d or more"
                             % (args.cutoff, args.l, need))
    mod = level_module("d", "bold", host_eps("d", args.m), args.cutoff,
                       [(_scalar(args.x, "--x"), "W")])
    # e_0 v_{l,k} and its certificate word lie two degrees above v_{l,k}
    need = mod.degree(v_lk_label(args.l, k, mod.n)) + 2
    if args.cutoff < need:
        raise UsageError("--cutoff %d: e_0 v_{%d,%d} has degree %d, above the window; it "
                         "needs --cutoff %d or more" % (args.cutoff, args.l, k, need, need))
    rep = build_fundamental(mod, args.l, k)
    checks = [
        {
            "id": "build",
            "pass": rep.e0_certificate
            and rep.e0_closed
            and rep.f0_closed
            and rep.raising_closed,
            "e0_certificate": rep.e0_certificate,
            "e0_closed": rep.e0_closed,
            "f0_closed": rep.f0_closed,
            "raising_closed": rep.raising_closed,
            "dimension_in_window": rep.span.dim(),
        }
    ]
    if args.verify in ("iso", "all") and k != args.k2:
        iso = iso_between_k(mod, args.l, k, args.k2)
        checks.append(
            {
                "id": "iso k=%d~k=%d" % (k, args.k2),
                "pass": iso["dims_match"] and not iso["residuals"],
                "dims_match": iso["dims_match"],
                "residuals": len(iso["residuals"]),
            }
        )
    if args.verify in ("truncation", "all"):
        res = check_fundamental_truncation(args.m, args.l, cutoff=args.cutoff)
        checks.append(
            {
                "id": "overline-truncation",
                "pass": res["ok"],
                "dim": res["dim"],
                "expected": res["expected"],
            }
        )
    return _emit(args, "fundamental", checks)


def cmd_appendix_check(args):
    l1, l2 = _pair_of_ints(args.l, "--l")
    checks = []
    if args.which in ("B", "all"):
        res = verify_EF_identities(args.m, l1, l2, rmax=args.rmax, smax=args.smax)
        fails = ladder_failures(res)
        checks.append({"id": "ladder-identities", "pass": not fails, "checked": len(res),
                       "failures": fails[:10]})
        hw = verify_u_rs_highest(args.m, l1, l2, rmax=args.rmax, smax=args.smax)
        checks.append({"id": "u_rs-highest-weight", "pass": not u_rs_failures(hw),
                       "checked": len(hw)})
    if args.which in ("C", "all"):
        for r in range(0, args.rmax + 1):
            for s in range(0, min(l1, l2, args.smax) + 1):
                found = appendix_C_verdicts(verify_appendix_C(args.m, l1, l2, r, s))
                checks.append({"id": "coefficients r=%d s=%d" % (r, s),
                               "pass": all(found.values()), **found})
    return _emit(args, "appendix-check", checks)


def cmd_suite(args):
    from .acceptance import run_all

    def progress(line):
        print(line, file=sys.stderr)

    reports = run_all(progress=progress if not args.quiet else None)
    checks = []
    for rep in reports:
        entry = {"id": rep["id"], "pass": rep["pass"]}
        if not rep["pass"]:
            entry["failures"] = rep.get("failures")
        if args.timings:
            entry["seconds"] = rep["seconds"]
        checks.append(entry)
    return _emit(args, "suite", checks)


def build_parser():
    p = argparse.ArgumentParser(
        prog="qosc",
        description="Exact verification suite for q-oscillator modules of "
        "generalized quantum groups of affine type D",
    )
    p.add_argument("--timings", action="store_true", help="include wall-clock times")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--cutoff", type=_int_at_least(0), default=6)
        sp.add_argument("--out", help="write the JSON report to a file")
        sp.add_argument("--epsilon", default="1,0,1,0,1")
        sp.add_argument("--module", choices=["W", "W2"], default="W")
        sp.add_argument("--x", default="1", help="spectral parameter expression")

    sp = sub.add_parser("verify-relations", help="defining relations on a module window")
    common(sp)
    sp.set_defaults(fn=cmd_verify_relations)

    sp = sub.add_parser("verify-phi", help="target-algebra relations through phi")
    common(sp)
    sp.add_argument("--flavor", choices=["c", "d"], required=True)
    sp.add_argument("--side", choices=["underline", "overline"], required=True)
    sp.add_argument("--eta", type=int, default=1, choices=[1, -1])
    sp.set_defaults(fn=cmd_verify_phi)

    sp = sub.add_parser("truncate", help="truncation equivariance and monoidality")
    common(sp)
    sp.add_argument("--flavor", choices=["c", "d"], required=True)
    sp.add_argument("--side", choices=["underline", "overline"], required=True)
    sp.add_argument("--eta", type=int, default=1, choices=[1, -1])
    sp.add_argument("--monoidal", action="store_true")
    sp.add_argument("--y", default="q^2", help="second spectral parameter")
    sp.set_defaults(fn=cmd_truncate)

    def factored(sp):
        sp.add_argument("--cutoff", type=_int_at_least(0), default=8)
        sp.add_argument("--out")
        sp.add_argument("--epsilon", default="1,0,1,0,1")
        sp.add_argument("--flavor", choices=["c", "d"], default="c")
        sp.add_argument("--level", choices=LEVELS, default="bold")
        sp.add_argument("--factors", default="+,+", help="comma list of +, -, or W per factor")
        sp.add_argument("--x", default="q^2;q^-4", help="semicolon list of parameters")

    sp = sub.add_parser("decompose", help="highest-weight multiplicities")
    factored(sp)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("hwv", help="exact highest-weight kernel at a weight")
    factored(sp)
    sp.add_argument("--weight", required=True, help="e.g. '2*L+1*d4+1*d5'")
    sp.set_defaults(fn=cmd_hwv)

    sp = sub.add_parser("rmatrix", help="solve the normalized R matrix")
    sp.add_argument("--cutoff", type=int, default=6)
    sp.add_argument("--out")
    sp.add_argument("--flavor", choices=["c", "d"], required=True)
    sp.add_argument("--sigma", default="+,+", help="two signs, e.g. --sigma=-,-")
    sp.add_argument("--l", default="1,1")
    sp.add_argument("--m", type=_int_at_least(2), default=2)
    sp.add_argument("--level", choices=LEVELS, default="bold")
    sp.set_defaults(fn=cmd_rmatrix)

    sp = sub.add_parser("fuse", help="fused image of a specialized R matrix")
    sp.add_argument("--cutoff", type=int, default=6)
    sp.add_argument("--out")
    sp.add_argument("--flavor", choices=["c", "d"], default="c")
    sp.add_argument("--sigma", default="+,+", help="two signs, e.g. --sigma=-,-")
    sp.add_argument("--l", default="1,1")
    sp.add_argument("--m", type=_int_at_least(2), default=2)
    sp.add_argument("--level", choices=["bold", "underline"], default="bold")
    sp.add_argument("--c", required=True, help="comma list, e.g. q^-6,1")
    sp.add_argument("--check-truncation", action="store_true",
                    help="compare the image with the images fused at the underline and "
                         "overline levels (--flavor c --level bold only)")
    sp.set_defaults(fn=cmd_fuse)

    sp = sub.add_parser("fundamental", help="build and verify W_{l,k}")
    sp.add_argument("--cutoff", type=_int_at_least(0), default=10)
    sp.add_argument("--out")
    sp.add_argument("--m", type=_int_at_least(2), default=2)
    sp.add_argument("--l", type=_int_at_least(0), required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--k2", type=int, default=0)
    sp.add_argument("--x", default="1")
    sp.add_argument("--verify", choices=["build", "iso", "truncation", "all"], default="all")
    sp.set_defaults(fn=cmd_fundamental)

    sp = sub.add_parser("appendix-check", help="ladder and coefficient identities")
    sp.add_argument("--out")
    sp.add_argument("--which", choices=["B", "C", "all"], default="all")
    sp.add_argument("--m", type=_int_at_least(2), default=2)
    sp.add_argument("--l", default="1,1")
    sp.add_argument("--rmax", type=_int_at_least(0), default=1)
    sp.add_argument("--smax", type=_int_at_least(0), default=1)
    sp.set_defaults(fn=cmd_appendix_check)

    sp = sub.add_parser("suite", help="run the full acceptance battery")
    sp.add_argument("--out")
    sp.add_argument("--quiet", action="store_true")
    sp.set_defaults(fn=cmd_suite)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.time()
    try:
        return args.fn(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (ValueError, ArithmeticError) as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}, indent=2))
        return 1


if __name__ == "__main__":
    sys.exit(main())
