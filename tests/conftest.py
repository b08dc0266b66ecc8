import contextlib
import io
import json

import pytest

from jacobilift.cli import main

RESULTS = []


def record(line):
    RESULTS.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


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

