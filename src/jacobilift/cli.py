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
import json
import os
import sys
from math import gcd

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
from .lifts import ADDITIVE_LIFTS, _input_qprec, arithmetic_lift, e_form, exp_lift, lift_window_for, sqeg
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

NAMED_FORMS = {f"phi0{i}": f"Phi{i}" for i in range(1, 5)}


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
    g = gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return var if num == 1 else f"{var}^{num}"
    return f"{var}^({num}/{den})"


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
    return {"weight2": form.weight2, "index2": form.index2, "series": series_to_dict(form.series)}


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
    """Write the output, as JSON under --json, and return EXIT_OK."""
    out = json.dumps(json_obj, indent=2, sort_keys=True) if args.json else text_fn()
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
    return EXIT_OK


def cmd_expand(args):
    form = _resolve_form(args.form, 24 * args.qmax)
    return _emit(args, lambda: _form_text(form), _form_json(form))


def _invariants_from_args(args):
    if args.euler is not None:
        return CYInvariants.from_euler(args.d, args.euler)
    return CYInvariants(args.d, [int(x) for x in args.chi.split(",")])


def cmd_genus(args):
    # A chi vector that is not one of a CY d-fold's (Serre duality, the row
    # shape: CYInvariants raises) is an input error, exit 2.  A well-formed
    # one that fails a relation of relation_check is an identity failure,
    # exit 3, with --json too.
    inv = _invariants_from_args(args)
    relations = relation_check(inv)
    relation_lines = [f"{'ok  ' if ok else 'FAIL'} {k}  (residual {res})"
                      for k, (ok, res) in relations.items()]
    broken = [k for k, (ok, _) in relations.items() if not ok]
    if broken:
        message = f"failed: {'; '.join(broken)}"
        if args.json:
            return _error(True, "identity", message)
        print(*relation_lines, message, sep="\n", file=sys.stderr)
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
            *relation_lines,
        ]
        for k, (ok, _) in divis.items():
            lines.append(f"{'ok  ' if ok else 'FAIL'} {k}")
        return "\n".join(lines)

    _emit(args, text, report)
    if failed:
        print(f"failed: {'; '.join(failed)}", file=sys.stderr)
        return EXIT_IDENTITY
    return EXIT_OK


def cmd_explift(args):
    probe = _resolve_form(args.form, 48)
    qprec, sprec, inq = lift_window_for(probe, args.qmax, args.smax)
    ss = exp_lift(_resolve_form(args.form, inq), qprec, sprec, ywindow=args.ywindow)
    return _emit(args, lambda: _siegel_text(ss), ss.to_dict())


def cmd_sqeg(args):
    inv = _invariants_from_args(args)
    qprec, pprec = 24 * args.qmax + 1, 24 * args.pmax + 1
    chi = elliptic_genus(inv, qprec=_input_qprec(qprec, pprec))
    series = sqeg(chi, qprec, pprec)
    return _emit(args, lambda: "\n".join(_triple_lines(series, "p")), series_to_dict(series))


def cmd_eform(args):
    inv = _invariants_from_args(args)
    ss = e_form(inv, 24 * args.qmax + 1, 24 * args.smax + 1, ywindow=args.ywindow)
    return _emit(args, lambda: _siegel_text(ss), ss.to_dict())


def cmd_arith(args):
    ss = arithmetic_lift(args.name, 24 * args.bound + 1, 24 * args.bound + 1)
    return _emit(args, lambda: _siegel_text(ss), ss.to_dict())


def cmd_verify(args):
    from .verify import run_suite

    report = run_suite(args.suite, qmax=args.qmax)

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


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes no abbreviated option and raises a
    usage error as ValidationError, so that it is reported like any other
    input error."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(message)


def _count(least):
    """An argparse type: a whole number of orders (of quarter units, for
    --ywindow) of at least least."""
    def count(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return count


def _output(p, fn):
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    p.add_argument("--out", default=None, help="write output to a file")
    p.set_defaults(fn=fn)


def _orders(p, *axes, least=0):
    for axis in axes:
        p.add_argument(f"--{axis}max", type=_count(least), default=DEFAULT_ORDERS,
                       help=f"whole {axis}-orders to compute (default {DEFAULT_ORDERS})")


def _invariants(p):
    p.add_argument("--d", type=int, required=True, help="complex dimension")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--chi", help="comma-separated chi_0..chi_d")
    given.add_argument("--euler", type=int, help="Euler number (d = 3 or 5)")


def build_parser():
    parser = _Parser(
        prog="jacobilift",
        description="Exact expansions of weak Jacobi forms, Calabi-Yau "
        "elliptic genera and their Siegel paramodular lifts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand a weak Jacobi form")
    p.add_argument("form", help="name (phi01..phi04, xi06) or Phi-polynomial"
                   " such as 'Phi1*Phi3-Phi2^2'; put a polynomial with a leading"
                   " minus after '--': expand -- '-7*Phi4+Phi1*Phi3'")
    _orders(p, "q", least=1)
    _output(p, cmd_expand)

    p = sub.add_parser("genus", help="elliptic genus of Calabi-Yau data")
    _invariants(p)
    _orders(p, "q", least=1)
    _output(p, cmd_genus)

    kinds = sub.add_parser("lift", help="Siegel lifts and related series").add_subparsers(
        dest="kind", required=True)
    p = kinds.add_parser("explift", help="exponential lift of a weak Jacobi form")
    p.add_argument("--form", required=True, help="lift input; write one with a"
                   " leading minus as --form=-Phi1")
    _orders(p, "q", "s")
    p.add_argument("--ywindow", type=_count(0), help="keep the terms whose y-exponent lies"
                   " within ywindow/4 of the leading monomial's; every printed term is exact")
    _output(p, cmd_explift)

    p = kinds.add_parser("sqeg", help="second-quantized elliptic genus")
    _invariants(p)
    _orders(p, "q")
    p.add_argument("--pmax", type=_count(0), default=2,
                   help="whole p-orders for the symmetric-product genus (default 2)")
    _output(p, cmd_sqeg)

    p = kinds.add_parser("eform", help="the Siegel form E(M) of Calabi-Yau data")
    _invariants(p)
    _orders(p, "q", "s")
    p.add_argument("--ywindow", type=_count(0), default=60,
                   help="the y-window, as for explift (default 60)")
    _output(p, cmd_eform)

    p = kinds.add_parser("arith", help="the additive lifts of eta^d theta: " + ", ".join(ADDITIVE_LIFTS))
    p.add_argument("--name", required=True, choices=tuple(ADDITIVE_LIFTS))
    p.add_argument("--bound", type=_count(1), default=DEFAULT_ORDERS,
                   help=f"whole q- and s-orders (default {DEFAULT_ORDERS})")
    _output(p, cmd_arith)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("ring", "basis", "hecke", "congruences",
                                     "lifts", "all"))
    p.add_argument("--qmax", type=_count(0), default=None,
                   help="q-order window of the ring, basis, hecke and congruences"
                   " checks that take one (a check whose name carries a window"
                   " shows it); lifts refuses it")
    _output(p, cmd_verify)
    return parser


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
    # no parser takes an abbreviation, so this finds a usage error's --json
    as_json = "--json" in argv
    try:
        args = build_parser().parse_args(argv)
        as_json = args.json
        return args.fn(args)
    except PrecisionError as exc:
        return _error(as_json, "precision", str(exc))
    except (IdentityError, InexactDivisionError) as exc:
        return _error(as_json, "identity", str(exc))
    except (JacobiLiftError, ValueError) as exc:
        return _error(as_json, "input", str(exc))


if __name__ == "__main__":
    sys.exit(main())
