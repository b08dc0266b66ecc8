import contextlib
import io
import json

import pytest

from jacobilift.cli import main
from jacobilift.jacobi import JacobiForm
from jacobilift.series import DEN2, DEN3, Series, _Rows

RESULTS = []


def record(line):
    RESULTS.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture
def strips(monkeypatch):
    """The row lists _Rows.__mul__ strips of their trailing zero bits, recorded."""
    seen, stripped = [], _Rows._stripped
    monkeypatch.setattr(_Rows, "_stripped", staticmethod(lambda rows: seen.append(rows) or stripped(rows)))
    return seen


@pytest.fixture(scope="session")
def verify_all():
    """The report of `jacobilift verify all --json`, run once per session."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "all", "--json"])
    report = json.loads(out.getvalue()) if out.getvalue() else {}
    failed = [c["name"] for s in report.get("suites", []) for c in s["checks"] if not c["ok"]]
    assert code == 0, f"verify all --json exited {code}; failed checks: {failed}"
    return report


def named_checks(report, names):
    """The checks of a `verify all` report with the given names, each of
    which must name exactly one check."""
    checks = [c for suite in report["suites"] for c in suite["checks"]]
    found = []
    for name in names:
        hits = [c for c in checks if c["name"] == name]
        assert len(hits) == 1, f"verify has {len(hits)} checks named {name!r}"
        found.append(hits[0])
    return found



def hecke_tminus_scan(form, m):
    """T_-(m) of a weight-0 form by one pass over every input term and each
    a | m, on the (P - 1)//m + 1 q-orders its P input orders determine: an
    oracle independent of the theta-decomposition table."""
    orders_out = (form.qprec_orders() - 1) // m + 1
    divisors = [a for a in range(1, m + 1) if m % a == 0]
    out = {}
    for (nq, ly), c in form.series.terms.items():
        n, l = nq // 24, ly // 4
        for a in divisors:
            na = n * a * a
            if na % m:
                continue
            big_n = na // m
            if big_n >= orders_out or big_n % a:
                continue
            key = (24 * big_n, 4 * l * a)
            out[key] = out.get(key, 0) + (m // a) * c
    return JacobiForm(Series(DEN2, out, 24 * orders_out), 0, form.index2 * m, None)


def lift_to_three(series, ms=0):
    """A (q, y) series embedded into (q, y, s) at the s-exponent ms."""
    terms = {(nq, ly, ms): c for (nq, ly), c in series.terms.items()}
    return Series(DEN3, terms, series.qprec)


def plain_power(b, k):
    """b**k by plain products, for k < 0 of the exact_div inverse; k = 0
    is 1 on b's window.  The reference for the power kernel: it never calls
    Series.__pow__."""
    if k < 0:
        b, k = Series.const(1).exact_div(b), -k
    out = Series.const(1).truncate(b.qprec) if k == 0 else b
    for _ in range(k - 1):
        out = out * b
    return out
