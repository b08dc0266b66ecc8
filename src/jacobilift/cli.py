"""Command-line surface: expansions, genus reports, Siegel lifts and the
verification suites.

Exit codes: 0 success, 2 parse/validation failure, 3 identity or
divisibility failure, 4 insufficient precision, 141 standard output closed
by its reader before the output was written (silently; 128 + SIGPIPE, as
a shell reports a tool a closed pipe stopped).  Under --json an error is
one JSON object on standard output, {"error": "input" | "identity" |
"precision", "message": ..., "exit": code}; otherwise it is a line of text
on standard error.
"""

import argparse
import contextlib
import io
import json
import os
import sys
from fractions import Fraction

from .errors import (
    IdentityError,
    InexactDivisionError,
    JacobiLiftError,
    PrecisionError,
    ValidationError,
)
from .genpoly import parse_generator_polynomial
from .genus import (
    CYInvariants,
    chi_y_polynomial,
    divisibility_report,
    elliptic_genus,
    relation_check,
)
from .jacobi import polynomial_form, xi06
from .lifts import (
    _input_qprec,
    arithmetic_lift,
    e_form,
    exp_lift,
    lift_window_for,
    sqeg,
)
from .series import series_to_dict

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_IDENTITY = 3
EXIT_PRECISION = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a tool a closed pipe stopped

# whole q- (and s-) orders computed when --qmax (--smax) is absent
DEFAULT_ORDERS = 3

# error kind -> (exit code, prefix of the text line on standard error)
ERRORS = {
    "input": (EXIT_PARSE, "error: "),
    "identity": (EXIT_IDENTITY, "identity failure: "),
    "precision": (EXIT_PRECISION, "precision error: "),
}

NAMED_FORMS = {
    "phi01": "Phi1",
    "phi02": "Phi2",
    "phi03": "Phi3",
    "phi04": "Phi4",
}


def _resolve_form(text, qprec):
    """A JacobiForm from a named generator or a Phi-polynomial string."""
    name = text.strip()
    if name == "xi06":
        return xi06(qprec)
    expr = NAMED_FORMS.get(name.lower(), name)
    return polynomial_form(parse_generator_polynomial(expr), qprec)


def _monomial_str(num, den, var):
    if num == 0:
        return ""
    e = Fraction(num, den)
    if e == 1:
        return var
    if e.denominator == 1:
        return f"{var}^{e.numerator}"
    return f"{var}^({e.numerator}/{e.denominator})"


def _row_str(row):
    """Render one y-row, highest power first, in the (y^k +- ...) style."""
    parts = []
    for ly in sorted(row, reverse=True):
        c = row[ly]
        mono = _monomial_str(ly, 4, "y")
        if mono:
            if c == 1:
                body = mono
            elif c == -1:
                body = f"-{mono}"
            else:
                body = f"{c}*{mono}"
        else:
            body = str(c)
        if parts and not body.startswith("-"):
            body = "+" + body
        parts.append(body)
    return "(" + "".join(parts) + ")" if parts else "(0)"


def _form_text(form):
    lines = [f"weight {form.weight}  index {form.index}  q-orders {form.qprec_orders()}"]
    rows = {}
    for (nq, ly), c in form.series.terms.items():
        rows.setdefault(nq, {})[ly] = c
    for nq in sorted(rows):
        q = _monomial_str(nq, 24, "q") or "1"
        lines.append(f"{q}: {_row_str(rows[nq])}")
    return "\n".join(lines)


def _form_json(form):
    return {
        "weight2": form.weight2,
        "index2": form.index2,
        "series": series_to_dict(form.series),
    }


def _triple_lines(series, third):
    """One line per term of a three-variable series, the third variable
    named third."""
    for (nq, ly, ms), coeff in series.sorted_terms():
        monos = [
            _monomial_str(nq, 24, "q"),
            _monomial_str(ly, 4, "y"),
            _monomial_str(ms, 24, third),
        ]
        body = " ".join(m for m in monos if m) or "1"
        yield f"{coeff:+d} {body}"


def _siegel_text(ss):
    header = (
        f"weight2 {ss.weight2}  character_order {ss.character_order}"
        f"  index_t {ss.index_t}"
    )
    return "\n".join([header, *_triple_lines(ss.series, "s")])


def _emit(args, text_fn, json_obj):
    out = (
        json.dumps(json_obj, indent=2, sort_keys=True)
        if args.json
        else text_fn()
    )
    if args.out:
        # only the open is an input error: a failed write to standard
        # output (BrokenPipeError is an OSError too) must reach main
        try:
            fh = open(args.out, "w")
        except OSError as exc:
            raise ValidationError(f"cannot write --out {args.out}: {exc.strerror}") from exc
        with fh:
            fh.write(out + "\n")
    else:
        print(out)


def _whole_orders(command, qmax):
    """A printed expansion has at least one whole q-order."""
    if qmax < 1:
        raise ValidationError(f"{command} needs at least one whole q-order, got --qmax {qmax}")


def cmd_expand(args):
    _whole_orders("expand", args.qmax)
    form = _resolve_form(args.form, 24 * (args.qmax + 1)).truncate(24 * args.qmax)
    _emit(args, lambda: _form_text(form), _form_json(form))
    return EXIT_OK


def _invariants_from_args(args):
    if args.chi is not None:
        chi = [int(x) for x in args.chi.split(",")]
        return CYInvariants(args.d, chi)
    if args.euler is not None:
        return CYInvariants.from_euler(args.d, args.euler)
    raise ValidationError("provide --chi or --euler")


def cmd_genus(args):
    _whole_orders("genus", args.qmax)
    inv = _invariants_from_args(args)
    relations = relation_check(inv)
    broken = [k for k, (ok, _) in relations.items() if not ok]
    if broken:
        message = f"failed: {'; '.join(broken)}"
        if args.json:
            return _error(True, "identity", message)
        for k, (ok, res) in relations.items():
            status = "ok  " if ok else "FAIL"
            print(f"{status} {k}  (residual {res})", file=sys.stderr)
        print(message, file=sys.stderr)
        return EXIT_IDENTITY
    genus = elliptic_genus(inv, qprec=24 * (args.qmax + 1))
    # the torsion congruences apply to integral-index forms (even d)
    divis = divisibility_report(genus, d=inv.d) if inv.d % 2 == 0 else {}
    chi_y = chi_y_polynomial(genus, inv.d)
    report = {
        "d": inv.d,
        "chi": list(chi_y.chi),
        "euler": inv.euler,
        "genus": _form_json(genus.truncate(24 * args.qmax)),
        "relations": {k: [ok, str(res)] for k, (ok, res) in relations.items()},
        "divisibility": {k: bool(ok) for k, (ok, _) in divis.items()},
    }
    failed = [k for k, (ok, _) in divis.items() if not ok]

    def text():
        lines = [
            f"d = {inv.d}  chi = {inv.chi}  e = {inv.euler}",
            _form_text(genus.truncate(24 * args.qmax)),
        ]
        for k, (ok, res) in relations.items():
            lines.append(f"{'ok  ' if ok else 'FAIL'} {k}  (residual {res})")
        for k, (ok, _) in divis.items():
            lines.append(f"{'ok  ' if ok else 'FAIL'} {k}")
        return "\n".join(lines)

    _emit(args, text, report)
    if failed:
        print(f"failed: {'; '.join(failed)}", file=sys.stderr)
        return EXIT_IDENTITY
    return EXIT_OK


# the options each lift kind reads, besides --json and --out
LIFT_OPTIONS = {
    "explift": ("form", "qmax", "smax", "ywindow"),
    "sqeg": ("d", "chi", "euler", "qmax", "pmax"),
    "eform": ("d", "chi", "euler", "qmax", "smax", "ywindow"),
    "arith": ("name", "bound"),
}


def _check_lift_options(args):
    """A lift kind refuses an option it does not read, rather than drop a
    window request unnoticed."""
    for dest in ("form", "d", "chi", "euler", "name", "bound", "qmax", "smax", "pmax", "ywindow"):
        if getattr(args, dest) is not None and dest not in LIFT_OPTIONS[args.kind]:
            raise ValidationError(f"lift {args.kind} does not read --{dest}")


def cmd_lift(args):
    qmax = DEFAULT_ORDERS if args.qmax is None else args.qmax
    smax = DEFAULT_ORDERS if args.smax is None else args.smax
    if args.kind == "explift":
        if not args.form:
            raise ValidationError("lift explift needs --form")
        probe = _resolve_form(args.form, 48)
        qprec, sprec, inq = lift_window_for(probe, qmax, smax)
        form = _resolve_form(args.form, inq)
        ss = exp_lift(form, qprec, sprec, ywindow=args.ywindow)
    elif args.kind == "sqeg":
        inv = _invariants_from_args(args)
        pmax = args.pmax if args.pmax is not None else 2
        qprec, pprec = 24 * qmax + 1, 24 * pmax + 1
        chi = elliptic_genus(inv, qprec=_input_qprec(qprec, pprec))
        series = sqeg(chi, qprec, pprec)
        data = series_to_dict(series)
        _emit(args, lambda: "\n".join(_triple_lines(series, "p")), data)
        return EXIT_OK
    elif args.kind == "eform":
        inv = _invariants_from_args(args)
        ywindow = args.ywindow if args.ywindow is not None else 60
        ss = e_form(inv, 24 * qmax + 1, 24 * smax + 1, ywindow=ywindow)
    elif args.kind == "arith":
        if args.name not in ("Delta2", "Delta1"):
            raise ValidationError("lift arith needs --name Delta2 or Delta1")
        bound = DEFAULT_ORDERS if args.bound is None else args.bound
        if bound < 1:
            raise ValidationError(f"lift arith needs a bound of at least 1 order, got {bound}")
        ss = arithmetic_lift(args.name, 24 * bound + 1, 24 * bound + 1)
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown lift kind {args.kind!r}")
    _emit(args, lambda: _siegel_text(ss), ss.to_dict())
    return EXIT_OK


def cmd_verify(args):
    from .verify import run_suite

    report = run_suite(args.suite, qmax=args.qmax_opt)

    def text():
        lines = []

        def render(rep):
            if "suites" in rep:
                for sub in rep["suites"]:
                    render(sub)
            else:
                for c in rep["checks"]:
                    lines.append(f"{'ok  ' if c['ok'] else 'FAIL'} [{rep['suite']}] {c['name']}")
        render(report)
        lines.append(f"suite {report['suite']}: {'ok' if report['ok'] else 'FAIL'}")
        return "\n".join(lines)

    _emit(args, text, report)
    return EXIT_OK if report["ok"] else EXIT_IDENTITY


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jacobilift",
        description="Exact expansions of weak Jacobi forms, Calabi-Yau "
        "elliptic genera and their Siegel paramodular lifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lift=False):
        # lift leaves --qmax/--smax unset when absent, so that a kind can
        # refuse one it does not read; it applies DEFAULT_ORDERS itself
        default = None if lift else DEFAULT_ORDERS
        p.add_argument("--qmax", type=int, default=default,
                       help=f"whole q-orders to compute (default {DEFAULT_ORDERS})")
        if lift:
            p.add_argument("--smax", type=int, default=None,
                           help=f"whole s-orders to compute (default {DEFAULT_ORDERS})")
            p.add_argument("--pmax", type=int, default=None,
                           help="whole p-orders for the symmetric-product genus (default 2)")
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("expand", help="expand a weak Jacobi form")
    p.add_argument("form", help="name (phi01..phi04, xi06) or Phi-polynomial"
                   " such as 'Phi1*Phi3-Phi2^2'; put a polynomial with a leading"
                   " minus after '--': expand -- '-7*Phi4+Phi1*Phi3'")
    common(p)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("genus", help="elliptic genus of Calabi-Yau data")
    p.add_argument("--d", type=int, required=True, help="complex dimension")
    p.add_argument("--chi", default=None, help="comma-separated chi_0..chi_d")
    p.add_argument("--euler", type=int, default=None,
                   help="Euler number (d = 3 or 5)")
    common(p)
    p.set_defaults(fn=cmd_genus)

    p = sub.add_parser("lift", help="Siegel lifts and related series")
    p.add_argument("kind", choices=("explift", "sqeg", "eform", "arith"))
    p.add_argument("--form", default=None, help="lift input (explift); write"
                   " one with a leading minus as --form=-Phi1")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--chi", default=None)
    p.add_argument("--euler", type=int, default=None)
    p.add_argument("--name", default=None, help="Delta2 or Delta1 (arith)")
    p.add_argument("--bound", type=int, default=None,
                   help=f"whole q- and s-orders (arith, default {DEFAULT_ORDERS})")
    p.add_argument("--ywindow", type=int, default=None,
                   help="keep the terms whose y-exponent lies within ywindow/4 of the"
                   " leading monomial's (explift, eform; eform default 60); every"
                   " printed term is exact")
    common(p, lift=True)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("ring", "basis", "hecke", "congruences",
                                     "lifts", "all"))
    p.add_argument("--qmax", type=int, default=None, dest="qmax_opt",
                   help="q-order window of the ring, basis, hecke and congruences"
                   " checks that take one (a check whose name carries a window"
                   " shows it); lifts refuses it")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)
    return parser


def _check_windows(args):
    """Window options count whole orders (--ywindow: quarter units of the
    y-exponent), so a negative one is invalid."""
    for dest in ("qmax", "smax", "pmax", "bound", "ywindow", "qmax_opt"):
        value = getattr(args, dest, None)
        if value is not None and value < 0:
            name = dest.removesuffix("_opt")
            raise ValidationError(f"--{name} must be >= 0, got {value}")


def _error(as_json, kind, message):
    """Report an error of the given kind and return its exit code."""
    code, text = ERRORS[kind]
    if as_json:
        print(json.dumps({"error": kind, "message": message, "exit": code}, sort_keys=True))
    else:
        print(f"{text}{message}", file=sys.stderr)
    return code


def main(argv=None):
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output early (`| head`): stop quietly,
        # and point stdout at /dev/null so the interpreter's final flush
        # does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


def _main(argv):
    argv = sys.argv[1:] if argv is None else list(argv)
    usage = io.StringIO()
    try:
        with contextlib.redirect_stderr(usage):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage text into `usage` and exits 2
        if exc.code != EXIT_PARSE or "--json" not in argv:
            sys.stderr.write(usage.getvalue())
            raise
        message = usage.getvalue().strip().splitlines()[-1]
        return _error(True, "input", message.split("error: ", 1)[-1])
    try:
        if args.command == "lift":
            # an option the kind does not read is refused before its range is checked
            _check_lift_options(args)
        _check_windows(args)
        return args.fn(args)
    except PrecisionError as exc:
        return _error(args.json, "precision", str(exc))
    except (IdentityError, InexactDivisionError) as exc:
        return _error(args.json, "identity", str(exc))
    except (ValidationError, JacobiLiftError, ValueError) as exc:
        return _error(args.json, "input", str(exc))


if __name__ == "__main__":
    sys.exit(main())
