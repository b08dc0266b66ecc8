"""Command-line interface: subcommands, exit codes, JSON contracts."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import jacobilift
from jacobilift.cli import EXIT_PIPE, main
from jacobilift.series import series_from_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_phi01(capsys):
    code, out, _ = run(capsys, "expand", "phi01", "--qmax", "2")
    assert code == 0
    assert "(y+10+y^-1)" in out
    assert "10*y^2-64*y+108-64*y^-1+10*y^-2" in out


def test_expand_polynomial_relation(capsys):
    code, out, _ = run(capsys, "expand", "Phi1*Phi3-Phi2^2", "--qmax", "1")
    assert code == 0
    assert "(4*y+4+4*y^-1)" in out


def test_expand_xi06_json(capsys):
    code, out, _ = run(capsys, "expand", "xi06", "--qmax", "2", "--json")
    assert code == 0
    data = json.loads(out)
    series = series_from_dict(data["series"])
    assert min(series.terms)[0] == 24  # first key at q^1


@pytest.mark.parametrize("form", ["Phi1", "Phi1*Phi3-Phi2^2", "Phi4^2-7*Phi2*Phi3^2", "xi06"])
def test_expand_builds_exactly_qmax_orders(capsys, monkeypatch, form):
    """expand --qmax N asks for its form at N whole q-orders, and prints
    the form a build one order longer gives, cut to N orders."""
    import jacobilift.cli as cli

    asked = []
    for name in ("polynomial_form", "xi06"):
        build = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, build=build: asked.append(args[-1]) or build(*args))
    for qmax in (1, 2, 3, 6, 10):
        code, out, _ = run(capsys, "expand", "--qmax", str(qmax), "--json", "--", form)
        assert code == 0 and asked == [24 * qmax]
        longer = cli._resolve_form(form, 24 * (qmax + 1)).truncate(24 * qmax)
        assert json.loads(out) == json.loads(json.dumps(cli._form_json(longer)))
        asked.clear()


def test_expand_parse_failure(capsys):
    code, _, err = run(capsys, "expand", "Phi1*Phi9")
    assert code == 2 and "error" in err


def test_expand_inhomogeneous_rejected(capsys):
    code, _, _ = run(capsys, "expand", "Phi1+Phi2")
    assert code == 2


def test_genus_k3(capsys):
    code, out, _ = run(capsys, "genus", "--d", "2", "--chi", "2,-20,2",
                       "--qmax", "1")
    assert code == 0
    assert "(2*y+20+2*y^-1)" in out


def test_genus_d4_rejection(capsys):
    code, _, err = run(capsys, "genus", "--d", "4", "--chi", "1,4,7,4,1")
    assert code == 3
    assert "e(M4) mod 6" in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_genus_invalid_chi_exit_codes(capsys, json_flag):
    """A chi vector that breaks Serre duality is input (exit 2); a
    well-formed one that fails a relation_check relation is an identity
    failure (exit 3), with --json too."""
    code, out, err = run(capsys, "genus", "--d", "3", "--chi", "1,0,0,1", *json_flag)
    assert code == 2 and "Serre duality" in out + err
    code, out, err = run(capsys, "genus", "--d", "4", "--chi", "1,0,0,0,1", *json_flag)
    assert code == 3 and "second_moment" in out + err
    if json_flag:
        assert json.loads(out)["error"] == "identity"


def test_genus_d5_euler(capsys):
    code, out, _ = run(capsys, "genus", "--d", "5", "--euler", "24",
                       "--qmax", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["chi"] == [0, -1, 11, -11, 1, 0]


def test_genus_d5_euler_rejected(capsys):
    code, _, err = run(capsys, "genus", "--d", "5", "--euler", "23")
    assert code == 2 and "24" in err


def test_lift_explift_json_roundtrip(capsys):
    code, out, _ = run(capsys, "lift", "explift", "--form", "2*Phi1",
                       "--qmax", "2", "--smax", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["weight2"] == 10 * 2  # Delta5^2 has weight 10
    series = series_from_dict({k: data[k] for k in ("den", "qprec", "terms")})
    assert series.coeff((24, -4, 24)) == 1


def test_lift_arith_table(capsys):
    code, out, _ = run(capsys, "lift", "arith", "--name", "Delta2",
                       "--bound", "2")
    assert code == 0
    assert "q^(1/4)" in out


def test_lift_sqeg(capsys):
    code, out, _ = run(capsys, "lift", "sqeg", "--d", "2", "--chi", "2,-20,2",
                       "--qmax", "2", "--pmax", "2", "--json")
    assert code == 0
    data = json.loads(out)
    series = series_from_dict(data)
    assert series.coeff((0, 0, 0)) == 1
    assert series.coeff((0, 4, 24)) == 2  # p^1 coefficient is the K3 genus


def test_lift_sqeg_text(capsys):
    code, out, _ = run(capsys, "lift", "sqeg", "--d", "2", "--chi", "2,-20,2",
                       "--qmax", "1", "--pmax", "1")
    assert code == 0
    # p**0 is 1 and p**1 the K3 genus 2*phi01, to q**1
    assert out.splitlines() == [
        "+2 y^-1 p", "+1 1", "+20 p", "+2 y p",
        "+20 q y^-2 p", "-128 q y^-1 p", "+216 q p", "-128 q y p", "+20 q y^2 p",
    ]


LIFT_ARGS = {
    "explift": ["--form", "Phi2", "--qmax", "1", "--smax", "1"],
    "sqeg": ["--d", "2", "--chi", "2,-20,2", "--qmax", "1", "--pmax", "1"],
    "eform": ["--d", "2", "--chi", "2,-20,2", "--qmax", "1", "--smax", "1"],
    "arith": ["--name", "Delta2", "--bound", "1"],
}


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("kind", sorted(LIFT_ARGS))
def test_lift_negative_ywindow_rejected(capsys, kind, as_json):
    """A kind that reads --ywindow refuses a negative one by its range; a
    kind that does not read it refuses it as unrecognized, before any range."""
    argv = ["lift", kind, *LIFT_ARGS[kind], "--ywindow", "-4"] + ["--json"] * as_json
    code, out, err = run(capsys, *argv)
    message = ("argument --ywindow: must be >= 0, got -4" if kind in ("explift", "eform")
               else "unrecognized arguments: --ywindow -4")
    assert code == 2
    if as_json:
        data = json.loads(out)
        assert err == "" and data["error"] == "input" and data["exit"] == 2
        assert message in data["message"]
    else:
        assert out == "" and message in err


# per lift kind, options it does not read; the first is also tried under --json
UNREAD = {
    "explift": ["--pmax=2", "--d=2", "--chi=2,-20,2", "--euler=0", "--name=Delta2", "--bound=1"],
    "sqeg": ["--smax=2", "--form=Phi1", "--name=Delta2", "--bound=1", "--ywindow=4",
             "--ywindow=-4"],
    "eform": ["--pmax=2", "--form=Phi1", "--name=Delta2", "--bound=1"],
    "arith": ["--ywindow=4", "--smax=7", "--qmax=2", "--pmax=2", "--form=Phi1", "--d=2",
              "--chi=2,-20,2", "--euler=0", "--ywindow=-4"],
}


@pytest.mark.parametrize("kind", sorted(UNREAD))
def test_lift_refuses_options_its_kind_does_not_read(capsys, kind):
    """An option the kind would ignore exits 2 and is named, rather than
    a window request being dropped unnoticed."""
    for option in UNREAD[kind]:
        code, out, err = run(capsys, "lift", kind, *LIFT_ARGS[kind], option)
        assert code == 2 and out == ""
        assert f"error: unrecognized arguments: {option}" in err
    code, out, err = run(capsys, "lift", kind, *LIFT_ARGS[kind], UNREAD[kind][0], "--json")
    data = json.loads(out)
    assert code == 2 and err == "" and data["error"] == "input" and data["exit"] == 2
    assert f"unrecognized arguments: {UNREAD[kind][0]}" in data["message"]


def test_lift_arith_refuses_windows_without_bound(capsys):
    """arith reads --name and --bound only: an absent --bound means 3
    orders, and --qmax/--smax are refused with or without --bound."""
    _, want, _ = run(capsys, "lift", "arith", "--name", "Delta2", "--bound", "3", "--json")
    code, out, _ = run(capsys, "lift", "arith", "--name", "Delta2", "--json")
    assert code == 0 and out == want
    for option in ("--qmax", "--smax"):
        code, out, err = run(capsys, "lift", "arith", "--name", "Delta2", option, "3")
        assert code == 2 and out == "" and f"unrecognized arguments: {option} 3" in err


def test_closed_standard_output_exits_quietly():
    """A reader that closes the pipe first (`| head`) stops the command
    with EXIT_PIPE and no traceback."""
    src = str(Path(jacobilift.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "jacobilift.cli", "lift", "explift", "--form", "Phi01",
            "--qmax", "4", "--smax", "4", "--json"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # before the command writes anything
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_PIPE == 141
    assert err == b""


def test_expand_leading_minus_after_double_dash(capsys):
    code, out, _ = run(capsys, "expand", "--qmax", "1", "--", "-7*Phi4+Phi1*Phi3")
    assert code == 0
    assert "(y^2+5*y+15+5*y^-1+y^-2)" in out


def test_lift_explift_leading_minus_form(capsys):
    code, out, _ = run(capsys, "lift", "explift", "--form=-Phi1", "--qmax", "1",
                       "--smax", "1", "--ywindow", "40")
    assert code == 0
    assert out.startswith("weight2 -10")  # 1/Delta5


def test_lift_explift_windowed_terms_are_exact(capsys):
    """Every term of 1/Delta5 under --ywindow 40 equals the run at
    --ywindow 440, whose terms within 40 quarter units of the leading
    y-exponent (y^(-1/2)) are the same set."""
    def lift(ywindow):
        code, out, _ = run(capsys, "lift", "explift", "--form=-Phi1", "--qmax", "2",
                           "--smax", "2", "--ywindow", str(ywindow), "--json")
        assert code == 0
        return series_from_dict(json.loads(out)).terms

    narrow, wide = lift(40), lift(440)
    assert len(narrow) == 117
    assert narrow == {k: c for k, c in wide.items() if abs(k[1] + 2) <= 40}


def test_expand_constant_is_the_index_0_form(capsys):
    code, out, _ = run(capsys, "expand", "--qmax", "2", "--json", "--", "5")
    assert code == 0
    data = json.loads(out)
    assert (data["weight2"], data["index2"]) == (0, 0)
    series = series_from_dict(data["series"])
    assert dict(series.terms) == {(0, 0): 5} and series.qprec == 48


def test_lift_explift_constant_form_rejected(capsys):
    code, out, err = run(capsys, "lift", "explift", "--form", "5", "--qmax", "2",
                         "--smax", "2")
    assert code == 2 and out == "" and "positive index" in err


def test_lift_missing_form(capsys):
    code, _, _ = run(capsys, "lift", "explift")
    assert code == 2


def test_verify_hecke(capsys):
    code, out, _ = run(capsys, "verify", "hecke")
    assert code == 0
    assert "suite hecke: ok" in out


def test_verify_lifts_json(capsys):
    code, out, _ = run(capsys, "verify", "lifts", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["suite"] == "lifts"
    sqeg = [c for c in data["checks"] if c["name"].startswith("SQEG(K3) at y=1")]
    assert sqeg[0]["detail"] == [[0, 0, 1], [24, 0, 24], [48, 0, 324]]


@pytest.mark.parametrize("as_json", [False, True])
def test_verify_lifts_refuses_qmax(capsys, as_json):
    code, out, err = run(capsys, "verify", "lifts", "--qmax", "1", *["--json"] * as_json)
    assert code == 2
    if as_json:
        data = json.loads(out)
        assert err == "" and data["error"] == "input" and data["exit"] == 2
        assert "verify lifts does not read --qmax" in data["message"]
    else:
        assert out == "" and "verify lifts does not read --qmax" in err


def test_verify_all_qmax_resizes_all_but_lifts(monkeypatch):
    """verify all --qmax N runs ring, basis, hecke and congruences at N
    q-orders and lifts at its own windows."""
    from jacobilift.verify import SUITES

    calls = {}
    for name in list(SUITES):
        def suite(*args, name=name):
            calls[name] = args
            return []
        monkeypatch.setitem(SUITES, name, suite)
    code = main(["verify", "all", "--qmax", "7"])
    assert code == 0
    assert calls == {"ring": (7,), "basis": (7,), "hecke": (7,), "congruences": (7,), "lifts": ()}


def test_verify_empty_window_is_precision_error(capsys):
    code, out, err = run(capsys, "verify", "ring", "--qmax", "0")
    assert code == 4
    assert "FAIL" not in out and "window is empty" in err


@pytest.mark.parametrize("suite, qmax", [("basis", "0"), ("hecke", "0"), ("congruences", "1")])
def test_verify_empty_window_in_other_suites(capsys, suite, qmax):
    code, out, err = run(capsys, "verify", suite, "--qmax", qmax)
    assert code == 4
    assert "ok" not in out and "window is empty" in err


def test_expand_negative_qmax_rejected(capsys):
    code, out, err = run(capsys, "expand", "Phi1", "--qmax", "-1")
    assert code == 2 and out == "" and "--qmax" in err


@pytest.mark.parametrize("argv", [
    ["expand", "phi01", "--qmax", "0"],
    ["genus", "--d", "2", "--chi", "2,-20,2", "--qmax", "0"],
])
@pytest.mark.parametrize("as_json", [False, True])
def test_zero_qmax_rejected(capsys, argv, as_json):
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert code == 2
    if as_json:
        data = json.loads(out)
        assert err == "" and data["error"] == "input" and data["exit"] == 2
        assert "argument --qmax: must be >= 1, got 0" in data["message"]
    else:
        assert out == "" and "argument --qmax: must be >= 1, got 0" in err


@pytest.mark.parametrize("poly", ["0", "Phi1-Phi1"])
def test_expand_zero_polynomial_rejected(capsys, poly):
    code, out, err = run(capsys, "expand", "--qmax", "1", "--", poly)
    assert code == 2 and out == "" and "zero polynomial has no index" in err


def test_lift_arith_negative_bound_rejected(capsys):
    code, out, err = run(capsys, "lift", "arith", "--name", "Delta2",
                         "--bound", "-3")
    assert code == 2 and out == "" and "--bound" in err


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "hecke", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["suite"] == "hecke"
    assert all("name" in c and "ok" in c for c in data["checks"])


def test_determinism(capsys):
    _, out1, _ = run(capsys, "expand", "phi02", "--qmax", "3", "--json")
    _, out2, _ = run(capsys, "expand", "phi02", "--qmax", "3", "--json")
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "expand", "phi01", "--qmax", "1", "--json",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["weight2"] == 0


OUT_ARGS = {
    "expand": ["expand", "Phi1", "--qmax", "1"],
    "genus": ["genus", "--d", "2", "--chi", "2,-20,2", "--qmax", "1"],
    "lift": ["lift", "arith", "--name", "Delta2", "--bound", "1"],
    "verify": ["verify", "hecke"],
}


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("command", sorted(OUT_ARGS))
def test_unwritable_out_is_an_input_error(tmp_path, capsys, command, as_json):
    """--out into a directory that does not exist exits 2 and names the
    path, as text or as a JSON error, with no traceback."""
    target = str(tmp_path / "missing" / "out")
    argv = OUT_ARGS[command] + ["--out", target] + ["--json"] * as_json
    code, out, err = run(capsys, *argv)
    assert code == 2
    if as_json:
        data = json.loads(out)
        assert err == "" and data["error"] == "input" and data["exit"] == 2
        assert f"cannot write --out {target}" in data["message"]
    else:
        assert out == "" and err.startswith(f"error: cannot write --out {target}")


@pytest.mark.parametrize("argv, kind, code, says", [
    (["expand", "Phi1*Phi9", "--json"], "input", 2, "Phi9"),
    (["expand", "Phi1", "--json", "--bogus"], "input", 2, "unrecognized arguments: --bogus"),
    (["genus", "--d", "4", "--chi", "1,4,7,4,1", "--json"], "identity", 3, "e(M4) mod 6"),
    (["verify", "ring", "--qmax", "0", "--json"], "precision", 4, "window is empty"),
])
def test_json_errors(capsys, argv, kind, code, says):
    got, out, err = run(capsys, *argv)
    assert got == code and err == ""
    data = json.loads(out)
    assert sorted(data) == ["error", "exit", "message"]
    assert data["error"] == kind and data["exit"] == code and says in data["message"]


def test_identity_error_exits_3(capsys, monkeypatch):
    """A failed identity raised inside a suite (an IdentityError, as a
    coefficient of the theta product not divisible by 2**12) is an identity
    failure, exit 3, not an input error."""
    from jacobilift.errors import IdentityError
    from jacobilift.verify import SUITES

    def suite(*args):
        raise IdentityError("coefficient 3 of the theta product is not divisible by 2**12")

    monkeypatch.setitem(SUITES, "ring", suite)
    got, out, err = run(capsys, "verify", "ring", "--json")
    data = json.loads(out)
    assert got == 3 and err == ""
    assert data["error"] == "identity" and data["exit"] == 3 and "2**12" in data["message"]


def test_usage_error_without_json_is_one_line(capsys):
    code, out, err = run(capsys, "expand", "Phi1", "--bogus")
    assert code == 2 and out == "" and err == "error: unrecognized arguments: --bogus\n"


CY_ARGS = {
    "genus": ["genus", "--d", "3", "--chi", "0,-1,1,0", "--euler", "100"],
    "sqeg": ["lift", "sqeg", "--d", "3", "--chi", "0,-1,1,0", "--euler", "100"],
    "eform": ["lift", "eform", "--d", "3", "--chi", "0,-1,1,0", "--euler", "100"],
}


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("command", sorted(CY_ARGS))
def test_chi_with_euler_rejected(capsys, command, as_json):
    """--chi and --euler are two ways to give one manifold: both together
    exit 2 rather than one of them being ignored."""
    code, out, err = run(capsys, *CY_ARGS[command], *["--json"] * as_json)
    message = "argument --euler: not allowed with argument --chi"
    assert code == 2
    if as_json:
        data = json.loads(out)
        assert err == "" and data["error"] == "input" and data["exit"] == 2
        assert message in data["message"]
    else:
        assert out == "" and err == f"error: {message}\n"


def test_abbreviated_option_refused(capsys):
    """--js is not read as --json: no option takes an abbreviation."""
    code, out, err = run(capsys, "expand", "Phi1", "--qmax", "1", "--js")
    assert code == 2 and out == "" and "unrecognized arguments: --js" in err


# per lift kind, the options it reads besides --json and --out
LIFT_READS = {
    "explift": {"--form", "--qmax", "--smax", "--ywindow"},
    "sqeg": {"--d", "--chi", "--euler", "--qmax", "--pmax"},
    "eform": {"--d", "--chi", "--euler", "--qmax", "--smax", "--ywindow"},
    "arith": {"--name", "--bound"},
}


@pytest.mark.parametrize("kind", sorted(LIFT_READS))
def test_lift_kind_help_lists_only_its_options(capsys, kind):
    with pytest.raises(SystemExit) as exc:
        main(["lift", kind, "--help"])
    out = capsys.readouterr().out
    listed = set(re.findall(r"(?<![\w-])--[a-z]+", out))
    assert exc.value.code == 0
    assert listed == LIFT_READS[kind] | {"--help", "--json", "--out"}


@pytest.mark.parametrize("as_json", [False, True])
def test_deeply_nested_polynomial_rejected(capsys, as_json):
    """An expression nested past the interpreter's recursion limit is an
    input error, not a traceback."""
    poly = "(" * 400 + "Phi1" + ")" * 400
    code, out, err = run(capsys, "expand", "--qmax", "1", *["--json"] * as_json, "--", poly)
    assert code == 2
    if as_json:
        data = json.loads(out)
        assert err == "" and data["error"] == "input" and "nests too deeply" in data["message"]
    else:
        assert out == "" and err == "error: expression nests too deeply\n"
