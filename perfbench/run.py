"""The jacobilift benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload forms|lifts|cli --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ./src.
Each round runs the workload's whole operation sequence in fresh
interpreters (forms and lifts: one per round; cli: one per command), so
every round starts with cold caches.  A run makes one round, then more
while the next is expected to end within --seconds (judged by the longest
round so far), and the metrics are medians over rounds.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced rounds, at least one of each, and prints
the per-layer metrics: span counts and times from the traced rounds,
per-command CLI times from the untraced ones, and the difference of the
two as trace.overhead_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")
CHILD_LIMIT_S = 120
# extra set-up measurements per round, where set-up is cheap next to a round
SETUP_PROBES = {"forms": 4, "lifts": 0, "cli": 10}

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import workloads as W  # noqa: E402
from layertrace import LAYERS  # noqa: E402


class BenchError(RuntimeError):
    pass


LAUNCHED = "{launched}"


def spawn(args, env=None):
    """Run a process to completion; an argument equal to LAUNCHED is
    replaced by the monotonic time just before the launch.  Returns the
    seconds from launch to exit, exit code, pid, stdout, stderr and the
    peak RSS of that process in MiB.  Output goes through files so that
    wait4 can report the child's own rusage."""
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"stdout-{os.getpid()}")
    err_path = os.path.join(OUT, f"stderr-{os.getpid()}")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        args = [repr(t0) if a == LAUNCHED else a for a in args]
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    os.remove(out_path)
    os.remove(err_path)
    return {"seconds": seconds, "code": proc.returncode, "pid": proc.pid, "stdout": stdout,
            "stderr": stderr, "rss_mib": usage.ru_maxrss / 1024}


def child_args(workload, seed, mode, *argv):
    args = [sys.executable, CHILD, workload, str(seed), mode, LAUNCHED]
    return args + ["--", *argv] if argv else args


def take_spans(workload, pid):
    """The layer summary a traced child dumped at exit.  The dump is kept
    as .bench_out/last-spans-<workload>.json for inspection."""
    path = os.path.join(OUT, f"spans-{workload}-{pid}.json")
    with open(path) as fh:
        summary = json.load(fh)["summary"]
    os.replace(path, os.path.join(OUT, f"last-spans-{workload}.json"))
    return summary


# ---- forms and lifts: one interpreter per round -------------------------------


def python_round(workload, seed, traced):
    setup, kernels = [], []
    for _ in range(SETUP_PROBES[workload]):
        probe = spawn(child_args(workload, seed, "setup"))
        if probe["code"] != 0:
            raise BenchError(f"{workload} set-up exited {probe['code']}: {probe['stderr'].strip()[-2000:]}")
        rec = json.loads(probe["stdout"].strip().splitlines()[-1])
        setup.append(rec["setup_raw_s"])
        kernels += rec["setup_kernel_s"]
    run = spawn(child_args(workload, seed, "1" if traced else "0"))
    if run["code"] != 0 or not run["stdout"].strip():
        raise BenchError(f"{workload} round exited {run['code']}: {run['stderr'].strip()[-2000:]}")
    rec = json.loads(run["stdout"].strip().splitlines()[-1])
    rec.update(setup_raw_s=setup + [rec["setup_raw_s"]], setup_kernel_s=kernels + rec["setup_kernel_s"],
               peak_rss_mib=run["rss_mib"], commands={},
               layers=take_spans(workload, run["pid"]) if traced else {})
    return rec


# ---- cli: one interpreter per command ----------------------------------------


def cli_round(seed, traced):
    """The session's commands, each timed from launch to exit less the
    time its calibration handler took."""
    env = dict(os.environ, PYTHONPATH=SRC)
    rec = {"setup_raw_s": [], "wall_raw_s": 0.0, "setup_kernel_s": [], "kernel_s": [], "peak_rss_mib": 0.0,
           "attempted": 0,
           "failed": 0, "errors": [], "check_failures": [], "layers": {}, "commands": {}}
    for _ in range(SETUP_PROBES["cli"]):
        run = spawn([sys.executable, "-c", "import jacobilift.cli"], env=env)
        if run["code"] != 0:
            raise BenchError(f"importing jacobilift.cli failed: {run['stderr'].strip()[-2000:]}")
        rec["setup_raw_s"].append(run["seconds"])
    outputs = {}
    for sub, argv, check in W.cli_session(seed):
        run = spawn(child_args("cli", seed, "1" if traced else "0", *argv))
        path = os.path.join(OUT, f"kernel-cli-{run['pid']}.json")
        with open(path) as fh:
            kernel = json.load(fh)
        os.remove(path)
        seconds = run["seconds"] - kernel["spent_s"]
        rec["kernel_s"] += kernel["kernel_s"]
        rec["wall_raw_s"] += seconds
        rec["commands"][sub] = rec["commands"].get(sub, 0.0) + seconds
        rec["peak_rss_mib"] = max(rec["peak_rss_mib"], run["rss_mib"])
        rec["attempted"] += 1
        if traced:
            merge_layers(rec["layers"], take_spans("cli", run["pid"]))
        if run["code"] != 0:
            rec["failed"] += 1
            rec["errors"].append(f"{' '.join(argv)} exited {run['code']}: {run['stderr'].strip()[-500:]}")
            continue
        outputs[sub, argv[1]] = run["stdout"]
        try:
            rec["check_failures"] += check(run["stdout"], outputs)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            rec["check_failures"].append(f"{' '.join(argv)}: unreadable output ({exc})")
    return rec


def merge_layers(acc, summary):
    for name, rec in summary.items():
        slot = acc.setdefault(name, {})
        for key, value in rec.items():
            slot[key] = slot.get(key, 0) + value


# ---- metrics ---------------------------------------------------------------


def package_lines():
    pkg = os.path.join(SRC, "jacobilift")
    lines = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines[name[:-3]] = sum(1 for _ in fh)
    return lines


def layer_value(name, traced, untraced):
    """One per-layer metric: the median over traced rounds of a span
    statistic, per-module self time, or a derived figure.  Times are
    calibrated with each round's scale."""
    def med(values):
        return statistics.median(values) if values else 0.0

    if name == "trace.overhead_s":
        return med([r["wall_s"] for r in traced]) - med([r["wall_s"] for r in untraced])
    if name == "calibrate.kernel_s":
        return med([k for r in traced + untraced for k in r["setup_kernel_s"] + r["kernel_s"]])
    if name == "pkg.lines":
        return sum(package_lines().values())
    if name.startswith("pkg.lines."):
        return package_lines().get(name[len("pkg.lines."):], 0)
    if name.startswith("cli.") and name.endswith(".s") and name.count(".") == 2:
        return med([r["commands"].get(name.split(".")[1], 0.0) * r["scale"] for r in untraced])
    span, field = name.rsplit(".", 1)
    if field == "self_s" and span in LAYERS:
        return med([r["scale"] * sum(v.get("self_s", 0.0) for k, v in r["layers"].items()
                                     if k.startswith(span + "."))
                    for r in traced])
    if field == "ns_per_pair":
        vals = [(r["scale"], r["layers"].get(span, {})) for r in traced]
        return med([1e9 * f * v["s"] / v["pairs"] if v.get("pairs") else 0.0 for f, v in vals])
    factor = (lambda r: r["scale"]) if field in ("s", "self_s") else (lambda r: 1)
    return med([r["layers"].get(span, {}).get(field, 0) * factor(r) for r in traced])


def show(values):
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("forms", "lifts", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "jacobilift", "__init__.py")):
        print(f"error: no jacobilift package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    start = time.monotonic()
    rounds = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t0 = time.monotonic()
        if args.workload == "cli":
            rec = cli_round(args.seed, traced)
        else:
            rec = python_round(args.workload, args.seed, traced)
        rec["traced"] = traced
        # calibrated times (see calibrate.py)
        rec["scale"] = calibrate.scale(rec["kernel_s"])
        setup_scale = calibrate.scale(rec["setup_kernel_s"] or rec["kernel_s"])
        rec["setup_s"] = [t * setup_scale for t in rec["setup_raw_s"]]
        rec["wall_s"] = rec["wall_raw_s"] * rec["scale"]
        rec["round_s"] = time.monotonic() - t0
        rounds.append(rec)
        elapsed = time.monotonic() - start
        longest = max(r["round_s"] for r in rounds)
        if len(rounds) >= 1 + args.trace and elapsed + longest > args.seconds:
            break

    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    for kind in ("errors", "check_failures"):
        for p in dict.fromkeys(p for r in rounds for p in r[kind]):
            print(f"{kind}: {p}", file=sys.stderr)
    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer_value(m["name"], traced, untraced), "unit": m["unit"]}
    else:
        values = {
            "setup_s": statistics.median([s for r in rounds for s in r["setup_s"]]),
            "wall_s": statistics.median([r["wall_s"] for r in rounds]),
            "peak_rss_mib": statistics.median([r["peak_rss_mib"] for r in rounds]),
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for i, r in enumerate(rounds):
        print(f"round {i}{' traced' if r['traced'] else ''}: wall_s {r['wall_s']:.3f} "
              f"(raw {r['wall_raw_s']:.3f}), setup_s {show(r['setup_s'])} (raw {show(r['setup_raw_s'])}), "
              f"scale {r['scale']:.3f}, kernel_s {show(r['kernel_s'])} "
              f"(set-up {show(r['setup_kernel_s'])})", file=sys.stderr)
    print(f"{len(rounds)} rounds ({len(traced)} traced) in {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    failed = sum(r["failed"] for r in rounds)
    result = {
        "correct": not any(r["check_failures"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
