"""The benchmark's workloads: seeded inputs, the timed operations, and the
checks run on their outputs.

``forms`` and ``lifts`` run inside one fresh interpreter per round (see
child.py); ``cli`` is driven from run.py, one interpreter per command.
The seed changes input values, never the shape or amount of work, so the
timings of different seeds are comparable.
"""

import json
import random
import re

import checks as C

K3 = (2, -20, 2)

# forms: the generator ladder in whole q-orders, and the windows of the
# other Jacobi-layer requests.
LADDER = (10, 20, 40)
GENERATORS = (1, 2, 3, 4, 6, 8, 12)
XI_ORDERS = 40
BASIS_ORDERS = 6
HECKE = (2, 3, 4, 5)
GENUS_ORDERS = 8
DEC_INDICES = (4, 7, 9, 12)
DEC_ORDERS = 6

# lifts: windows (q, s) in whole orders of q and s (or p).  The long-q
# windows need no more input precision than the square ones.
PHI01_LIFTS = ((5, 5), (8, 3))
OTHER_LIFTS = 9
HOM_LIFT = 3
SQEGS = ((5, 5), (8, 3))


def monomials(m):
    """Exponent tuples (e1, e2, e3, e4) of index e1 + 2e2 + 3e3 + 4e4 = m."""
    return [
        (e1, e2, e3, e4)
        for e4 in range(m // 4 + 1)
        for e3 in range(m // 3 + 1)
        for e2 in range(m // 2 + 1)
        for e1 in [m - 2 * e2 - 3 * e3 - 4 * e4]
        if e1 >= 0
    ]


def random_poly(rng, m):
    """Every monomial of index m with a nonzero coefficient in [-9, 9]."""
    return {key: rng.choice([c for c in range(-9, 10) if c]) for key in monomials(m)}


def inputs(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "forms":
        h = rng.randint(1, 60)
        cy3 = (0, -h, h, 0)
        # (label, chi, number of K3 factors, CY3 factor present)
        genera = [(f"K3^{n}", C.chi_y_product(*[K3] * n), n, False) for n in range(1, 6)]
        genera += [(f"K3^{a} x CY3(e={2 * h})", C.chi_y_product(*[K3] * a, cy3), a, True)
                   for a in range(5)]
        decomp = []
        for m in DEC_INDICES:
            layers = [random_poly(rng, m - 6 * k) if m > 6 * k else {(0, 0, 0, 0): rng.choice([-2, -1, 1, 2])}
                      for k in range(m // 6 + 1)]
            decomp.append((m, layers))
        return {"genera": genera, "decomp": decomp}
    if workload == "lifts":
        a = rng.choice([2, -2])
        b = rng.choice([1, -1])
        # both sign patterns of one pair, so every seed raises each lift to
        # the same set of powers
        return {"pairs": [(a, b), (-a, -b)]}
    if workload == "cli":
        chi0 = rng.randint(1, 3)
        chi1 = rng.randint(-12, 12)
        cy4 = (chi0, chi1, 22 * chi0 - 4 * chi1, chi1, chi0)
        polys = [random_poly(rng, m) for m in (4, 6, 8)]
        return {"cy4": cy4, "polys": polys}
    raise ValueError(f"unknown workload {workload!r}")


def poly_text(poly):
    parts = []
    for key, c in sorted(poly.items()):
        factors = [f"Phi{i + 1}^{e}" for i, e in enumerate(key) if e]
        parts.append(f"{c:+d}*" + "*".join(factors) if factors else f"{c:+d}")
    return "".join(parts)


class Session:
    """Runs named operations on a calibrate.Clock, counting attempts and
    failures.  Output checks never run inside the timed region."""

    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return self.clock.timed(fn, *args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


# ---- forms ----------------------------------------------------------------


def forms_run(J, data, s):
    out = {"gens": {}, "basis": {}, "hecke": {}, "genera": {}, "decomp": []}
    for orders in LADDER:
        for m in GENERATORS:
            out["gens"][(m, orders)] = s.op(f"generator({m},{orders})", J.generator, m, 24 * orders)
    out["xi"] = s.op("xi06", J.xi06, 24 * XI_ORDERS)
    for m in range(1, 13):
        for n in range(1, m + 1):
            out["basis"][(m, n)] = s.op(f"basis_psi({m},{n})", J.basis_psi, m, n, 24 * BASIS_ORDERS)
    phi1 = out["gens"][(1, LADDER[-1])]
    for k in HECKE:
        out["hecke"][k] = s.op(f"hecke_tminus({k})", J.hecke_tminus, phi1, k)
    for label, chi, k3s, cy3 in data["genera"]:
        d = len(chi) - 1
        inv = s.op(f"CYInvariants {label}", J.CYInvariants, d, chi)
        genus = s.op(f"elliptic_genus {label}", J.elliptic_genus, inv, qprec=24 * GENUS_ORDERS)
        rel = s.op(f"relation_check {label}", J.relation_check, inv)
        div = s.op(f"divisibility_report {label}", J.divisibility_report, genus, d) if d % 2 == 0 else {}
        out["genera"][(k3s, cy3)] = (label, chi, genus, rel, div)
    for m, layers in data["decomp"]:
        out["decomp"].append(s.op(f"decompose index {m}", _decompose_round_trip, J, layers))
    return out


def _decompose_round_trip(J, layers):
    qprec = 24 * DEC_ORDERS
    gens = tuple(J.generator(i, qprec) for i in (1, 2, 3, 4))
    xi = J.xi06(qprec)
    form = None
    for k, layer in enumerate(layers):
        part = J.GeneratorPolynomial(layer).evaluate(gens)
        for _ in range(k):
            part = part * xi
        form = part if form is None else form + part
    dec = J.decompose(form)
    rebuilt = dec.poly.evaluate(gens)
    return layers, form, dec, rebuilt


def forms_check(data, out):
    fails = []

    def form(name, f):
        if f is None:
            return
        fails.extend(C.weak_form(name, f.series.terms, f.index2, f.series.qprec))

    top = LADDER[-1]
    for (m, orders), g in out["gens"].items():
        if g is None:
            continue
        form(f"phi0{m}@{orders}", g)
        if m in C.PAPER_Q0_ROWS:
            fails += C.q0_row(f"phi0{m}@{orders}", g.series.terms, C.PAPER_Q0_ROWS[m])
        high = out["gens"].get((m, top))
        if high is not None and orders < top:
            fails += C.equal_terms(f"phi0{m}@{orders} vs @{top}", g.series.terms,
                                   high.series.terms, 24 * orders)
    xi = out["xi"]
    if xi is not None:
        form("xi06", xi)
        fails += C.xi06_start("xi06", xi.series.terms)
        fails += C.poly_equal("xi06 polynomial", xi.poly.terms, C.XI06_POLY)
    for (m, n), b in out["basis"].items():
        form(f"psi_{m}^({n})", b)
    for k, h in out["hecke"].items():
        form(f"phi01|T-({k})", h)
    qprec = 24 * GENUS_ORDERS
    k3 = out["genera"].get((1, False), (None,) * 5)[2]
    cy3 = out["genera"].get((0, True), (None,) * 5)[2]
    for (k3s, with_cy3), (label, chi, genus, rel, div) in out["genera"].items():
        if genus is None:
            continue
        form(label, genus)
        fails += C.genus_q0_row(label, genus.series.terms, chi)
        fails += [f"{label}: relation {k} fails" for k, (ok, _) in (rel or {}).items() if not ok]
        fails += [f"{label}: divisibility {k} fails" for k, (ok, _) in (div or {}).items() if not ok]
        if k3s + with_cy3 < 2 or k3 is None or (with_cy3 and cy3 is None):
            continue
        want = cy3.series.terms if with_cy3 else {(0, 0): 1}
        for _ in range(k3s):
            want = C.mul(want, k3.series.terms, qprec)
        fails += C.equal_terms(f"{label} == product of its factors' genera", genus.series.terms,
                               want, qprec)
    for rec in out["decomp"]:
        if rec is None:
            continue
        layers, f, dec, rebuilt = rec
        m = f.index2 // 2
        want = {}
        xi_power = {(0, 0, 0, 0): 1}
        for layer in layers:
            want = C.poly_add(want, C.poly_mul(layer, xi_power))
            xi_power = C.poly_mul(xi_power, C.XI06_POLY)
        form(f"random form index {m}", f)
        fails += C.poly_same_form(f"decompose index {m}", dec.poly.terms, want)
        fails += C.equal_terms(f"rebuilt index {m}", rebuilt.series.terms, f.series.terms, f.series.qprec)
    return fails


# ---- lifts ----------------------------------------------------------------


def lifts_setup(J, data):
    """Input forms, built with the program's own constructors."""
    L = J.lifts
    inp = {}
    probe = J.generator(1, 24)
    windows = [L.lift_window_for(probe, q, s) for q, s in PHI01_LIFTS]
    phi01 = J.generator(1, max(inq for _, _, inq in windows))
    inp["phi01"] = [(phi01, qp, sp) for qp, sp, _ in windows]
    for m in (2, 3, 4):
        qp, sp, inq = L.lift_window_for(J.generator(m, 24), OTHER_LIFTS, OTHER_LIFTS)
        inp[f"phi0{m}"] = (J.generator(m, inq), qp, sp)
    inq = 24 * (HOM_LIFT * HOM_LIFT + 8)
    phi = J.generator(2, inq)
    psi = J.psi2_variant(2, inq, variant="A")
    inp["hom"] = []
    for a, b in data["pairs"]:
        combo = J.JacobiForm(phi.series.scale(a) + psi.series.scale(b), 0, 4)
        qp, sp, _ = L.lift_window_for(combo, HOM_LIFT, HOM_LIFT)
        inp["hom"].append((a, b, phi, psi, combo, qp, sp))
    gq = 24 * (max(q * p for q, p in SQEGS) + 2)
    inp["k3"] = J.elliptic_genus(J.CYInvariants(2, K3), qprec=gq)
    inp["cy4"] = J.elliptic_genus(J.CYInvariants(4, (1, 4, 6, 4, 1)), qprec=gq)
    return inp


def lifts_run(J, inp, s):
    L = J.lifts
    out = {}
    out["phi01"] = [s.op(f"exp_lift(phi01) q,s < {qp},{sp}", L.exp_lift, form, qp, sp)
                    for form, qp, sp in inp["phi01"]]
    for name in ("phi02", "phi03", "phi04"):
        form, qp, sp = inp[name]
        out[name] = s.op(f"exp_lift({name})", L.exp_lift, form, qp, sp)
    out["hom"] = []
    for a, b, phi, psi, combo, qp, sp in inp["hom"]:
        lhs = s.op(f"exp_lift({a} phi + {b} psi)", L.exp_lift, combo, qp, sp, ywindow=80)
        rhs = s.op(f"exp_lift_homomorphic({a}, {b})", L.exp_lift_homomorphic,
                   [(phi, a), (psi, b)], qp, sp, ywindow=80)
        out["hom"].append((combo, lhs, rhs))
    for name in ("k3", "cy4"):
        out[f"sqeg_{name}"] = [s.op(f"sqeg({name}) q,p <= {q},{p}", L.sqeg, inp[name], 24 * q + 1, 24 * p + 1)
                               for q, p in SQEGS]
    return out


def lifts_check(J, inp, out):
    """Checks; the arithmetic lifts they compare with are built here,
    outside the timed region."""
    L = J.lifts
    fails = []
    for d5 in out["phi01"]:
        if d5 is not None:
            fails += C.paramodular_lift("exp_lift(phi01)", d5.series.terms, 1)
    for t in (2, 3, 4):
        if out[f"phi0{t}"] is not None:
            fails += C.paramodular_lift(f"exp_lift(phi0{t})", out[f"phi0{t}"].series.terms, t)
    for name, arith in (("phi02", "Delta2"), ("phi03", "Delta1")):
        lifted = out[name]
        if lifted is None:
            continue
        _, qp, sp = inp[name]
        want = L.arithmetic_lift(arith, qp, sp)
        fails += C.window_equal(f"exp_lift({name}) == {arith}", lifted.series.terms,
                                want.series.terms, qp, sp)
    for combo, lhs, rhs in out["hom"]:
        if lhs is None or rhs is None:
            continue
        nq, ms = C.lift_prefactor(C.rows(combo.series.terms).get(0, {}))
        fails += C.window_equal("exp_lift homomorphism", lhs.series.terms, rhs.series.terms,
                                nq + 24, ms + 24, 12)
    for name, inv_chi in (("k3", K3), ("cy4", (1, 4, 6, 4, 1))):
        euler = sum((-1) ** p * c for p, c in enumerate(inv_chi))
        for z, (q, p) in zip(out[f"sqeg_{name}"], SQEGS):
            if z is None:
                continue
            qprec, pprec = 24 * q + 1, 24 * p + 1
            fails += C.sqeg_y1(f"sqeg({name})", z.terms, euler, qprec, pprec)
            fails += C.equal_terms(f"sqeg({name}) p^1 slice", C.p_slice(z.terms, 24),
                                   inp[name].series.terms, qprec)
    return fails


# ---- cli ------------------------------------------------------------------


def cli_session(seed):
    """The fixed user session: (subcommand, argv, check) triples.  A check
    gets the command's standard output and the outputs of the earlier
    commands of the round, keyed by (subcommand, first argument)."""
    data = inputs("cli", seed)
    k3 = ",".join(map(str, K3))
    cmds = [("verify", ["verify", "all"], lambda out, _: check_verify(out))]
    for poly in data["polys"]:
        # "--" lets a polynomial with a leading minus sign through argparse
        cmds.append(("expand", ["expand", "--qmax", "10", "--json", "--", poly_text(poly)],
                     lambda out, _, poly=poly: check_expand(out, poly)))
    for chi in (data["cy4"], C.chi_y_product(K3, K3, K3, data["cy4"])):
        cmds.append(("genus", ["genus", "--d", str(len(chi) - 1), "--chi", ",".join(map(str, chi)),
                               "--qmax", "6", "--json"], lambda out, _, chi=chi: check_genus(out, chi)))
    cmds += [
        ("lift", ["lift", "explift", "--form", "Phi01", "--qmax", "5", "--smax", "5", "--json"],
         lambda out, _: C.paramodular_lift("lift explift Phi01", terms3(out), 1)),
        ("lift", ["lift", "sqeg", "--d", "2", "--chi", k3, "--qmax", "4", "--pmax", "4", "--json"],
         lambda out, _: check_sqeg(out)),
        ("lift", ["lift", "eform", "--d", "2", "--chi", k3, "--qmax", "2", "--smax", "2", "--json"],
         check_eform),
        ("lift", ["lift", "arith", "--name", "Delta2", "--bound", "6", "--json"],
         lambda out, _: C.paramodular_lift("lift arith Delta2", terms3(out), 2)),
    ]
    return cmds


def terms_of(data, nvars):
    return {tuple(t[:nvars]): int(t[nvars]) for t in data["terms"]}


def terms3(text):
    return terms_of(json.loads(text), 3)


def check_verify(text):
    lines = text.strip().splitlines()
    results = [re.match(r"(ok  |FAIL) \[(\w+)\] ", line) for line in lines[:-1]]
    fails = [f"verify all: unexpected line {line!r}" for line, m in zip(lines, results) if not m]
    fails += [f"verify all: {line}" for line, m in zip(lines, results) if m and m.group(1) == "FAIL"]
    suites = {m.group(2) for m in results if m}
    if not lines or lines[-1] != "suite all: ok":
        fails.append(f"verify all: last line {lines[-1:]} is not 'suite all: ok'")
    if suites != {"ring", "basis", "hecke", "congruences", "lifts"}:
        fails.append(f"verify all: suites {sorted(suites)} reported")
    return fails


def check_expand(text, poly):
    """The q^0 row of a Phi-polynomial is the polynomial evaluated on the
    generators' q^0 rows, and every row is that of a weak form."""
    data = json.loads(text)
    terms = terms_of(data["series"], 2)
    want = {}
    for key, c in poly.items():
        row = {(0, 0): c}
        for m, e in enumerate(key, start=1):
            for _ in range(e):
                row = C.mul(row, {(0, ly): v for ly, v in C.PAPER_Q0_ROWS[m].items()}, 1)
        want = C.poly_add(want, row)
    name = f"expand {poly_text(poly)}"
    return (C.q0_row(name, terms, {ly: v for (_, ly), v in want.items()})
            + C.weak_form(name, terms, data["index2"], data["series"]["qprec"]))


def check_genus(text, chi):
    data = json.loads(text)
    form = data["genus"]
    terms = terms_of(form["series"], 2)
    name = f"genus d={len(chi) - 1}"
    fails = C.genus_q0_row(name, terms, chi)
    fails += C.weak_form(name, terms, form["index2"], form["series"]["qprec"])
    if tuple(data["chi"]) != tuple(chi):
        fails.append(f"{name}: reports chi {data['chi']}")
    fails += [f"{name}: relation {k} fails" for k, (ok, _) in data["relations"].items() if not ok]
    fails += [f"{name}: divisibility {k} fails" for k, ok in data["divisibility"].items() if not ok]
    return fails


def check_sqeg(text):
    data = json.loads(text)
    terms = terms_of(data, 3)
    p1 = C.p_slice(terms, 24)
    name = "lift sqeg K3"
    return (C.sqeg_y1(name, terms, 24, data["qprec"], data["qprec"])
            + C.genus_q0_row(f"{name} p^1 slice", p1, K3)
            + C.weak_form(f"{name} p^1 slice", p1, 2, data["qprec"]))


def check_eform(text, outputs):
    """E(K3) is the lift of minus the K3 genus, -2 phi01, so by the
    exponential homomorphism E(K3) * Delta5^2 = 1 on an interior window."""
    d5 = outputs.get(("lift", "explift"))
    if d5 is None:
        return []
    d5 = terms3(d5)
    return C.window_equal("lift eform K3 * Delta5^2", C.mul3(C.mul3(d5, d5, 48), terms3(text), 24),
                          {(0, 0, 0): 1}, 24, 24, 16)
