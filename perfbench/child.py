"""One round of a workload in a fresh interpreter.

    python3 perfbench/child.py forms|lifts SEED MODE LAUNCHED
    python3 perfbench/child.py cli SEED MODE LAUNCHED -- ARGV...

MODE is 0 (untraced), 1 (traced: the layer spans are dumped to
.bench_out/ at exit) or setup (stop after set-up and report its time).
LAUNCHED is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so set-up time covers interpreter
start, import and input building.  A calibrate.Sampler runs from the
start; its handler time is left out of every interval reported.

forms and lifts print one JSON line with the round's raw times, kernel
samples, counts and check failures.  cli runs ``jacobilift.cli.main(ARGV)``,
exits with its code and leaves its kernel samples in
.bench_out/kernel-cli-PID.json.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def import_package():
    sys.path.insert(0, SRC)
    import jacobilift

    if not os.path.abspath(jacobilift.__file__).startswith(SRC + os.sep):
        raise ImportError(f"jacobilift imported from {jacobilift.__file__}, not {SRC}")
    return jacobilift


def start_tracer(sampler):
    from layertrace import Tracer

    import jacobilift.cli  # noqa: F401  (wrap the CLI layer too)

    # span times leave out the calibration handler
    tracer = Tracer(now=lambda: time.monotonic() - sampler.spent)
    tracer.install()
    return tracer


def write_json(name, data):
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(data, fh)


def dump(tracer, tag):
    write_json(f"spans-{tag}-{os.getpid()}.json", {"spans": tracer.spans, "summary": tracer.summary()})


def main():
    workload, seed, mode, launched = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
    sys.path.insert(0, HERE)
    import calibrate

    sampler = calibrate.Sampler()
    sampler.start()
    J = import_package()
    tracer = start_tracer(sampler) if mode == "1" else None
    if workload == "cli":
        from jacobilift.cli import main as cli_main

        try:
            return cli_main(sys.argv[6:])
        finally:
            sampler.stop()
            if tracer:
                dump(tracer, "cli")
            write_json(f"kernel-cli-{os.getpid()}.json", {"kernel_s": sampler.kernels(), "spent_s": sampler.spent})
    import workloads as W

    data = W.inputs(workload, seed)
    prepared = W.lifts_setup(J, data) if workload == "lifts" else data
    setup_s = sampler.since(launched, 0.0)
    setup_end = time.monotonic()
    if mode == "setup":
        sampler.stop()
        print(json.dumps({"setup_raw_s": setup_s, "setup_kernel_s": sampler.kernels()}))
        return 0
    clock = calibrate.Clock(sampler)
    session = W.Session(clock)
    if workload == "forms":
        out = W.forms_run(J, prepared, session)
    else:
        out = W.lifts_run(J, prepared, session)
    sampler.stop()
    fails = W.forms_check(data, out) if workload == "forms" else W.lifts_check(J, prepared, out)
    result = {
        "setup_raw_s": setup_s,
        "wall_raw_s": clock.seconds,
        "setup_kernel_s": sampler.kernels(end=setup_end),
        "kernel_s": sampler.kernels(start=setup_end),
        "attempted": session.attempted,
        "failed": session.failed,
        "errors": session.errors,
        "check_failures": fails,
    }
    if tracer:
        dump(tracer, workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
