"""Run two sets of ten benchmark runs of one commit and compare them
against the bounds in BENCHMARK.json.

    python3 perfbench/stability.py

Each run gets its own seed (set k, run i uses seed 1000 * k + i).  For each
workload and end-to-end metric it prints every set's median and its spread
(the distance between the first and third quartile of the runs, as a share
of the median), and the shift of the second set's median against the
first.  Every spread must stay within the metric's bound, the shift must
stay within it either way, and the share of failed operations must be the
same in both sets.  Exits 1 if any of these fails.  Runs go one after
another; per-run results are appended to .bench_out/stability.jsonl.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETS = 2
RUNS = 10


def one_run(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, run_s=time.monotonic() - t0,
                  rounds=[line for line in proc.stderr.splitlines() if line.startswith("round ")])
    with open(os.path.join(OUT, "stability.jsonl"), "a") as fh:
        fh.write(json.dumps(result) + "\n")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = []
        for k in range(1, SETS + 1):
            runs = [one_run(spec, workload, 1000 * k + i) for i in range(RUNS)]
            sets.append(runs)
            bad = [r["seed"] for r in runs if not r["correct"]]
            if bad:
                ok = False
                print(f"{workload}: set {k}: incorrect output on seeds {bad}")
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets}
        if len(shares) != 1:
            ok = False
        print(f"{workload}: failed share per set {sorted(shares)}; "
              f"run time {max(r['run_s'] for runs in sets for r in runs):.1f} s at most")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(sets, start=1):
                values = [r["metrics"][name]["value"] for r in runs]
                med, sp = statistics.median(values), spread(values)
                medians.append(med)
                held = sp <= bound
                line = f"  {name:14s} set {k}: median {med:.4f} {metric['unit']}, spread {sp:.3f}"
                line += f" (bound {bound}, target < {bound / 3:.3f})"
                if k > 1:
                    shift = (med - medians[0]) / medians[0]
                    shift = shift if metric["better"] == "lower" else -shift
                    held = held and abs(shift) <= bound
                    line += f", worse than set 1 by {shift:+.3f}"
                ok &= held
                print(line + ("" if held else "  <-- exceeds bound"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
