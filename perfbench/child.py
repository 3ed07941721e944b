"""One workload process: timed set-up, then passes in a closed loop.

``run.py`` starts this from the repository root with ``src`` on PYTHONPATH:

    python3 perfbench/child.py --workload desk --seed 1 --seconds 30 --trace 0 [--setup-only]

It prints ``READY {...}`` as soon as ``blocktrade.cli`` is imported, the
reference config is parsed and the workload inputs are built; the parent
times set-up from process start to that line. A speed probe (``speed.py``)
reads the machine's speed before the imports and again before ``READY``; the
payload gives both readings and their time, which set-up leaves out. Unless
``--setup-only`` is given it then runs passes until the next one would end
past ``--seconds`` (at least one), checks every pass, and prints
``RESULT {...}``.

With ``--trace 1`` untraced and traced passes alternate, so the difference of
their medians is the tracing overhead, and the probes run after them.
"""

import argparse
import json
import sys
import time


def emit(tag, payload):
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import speed

    probe_start = time.perf_counter()
    readings = [speed.probe("python")]
    start = time.perf_counter()
    import blocktrade.cli  # noqa: F401 - every CLI command pays this import

    imported = time.perf_counter()
    from blocktrade.config import parse_config

    import workloads as wl

    parse_start = time.perf_counter()
    cfg = parse_config(wl.CONFIG_PATH)
    parsed = time.perf_counter()
    workload = wl.WORKLOADS[args.workload](cfg, args.seed)
    built = time.perf_counter()
    readings.append(speed.probe("python"))
    emit(
        "READY",
        {
            "import_s": imported - start,
            "parse_ms": (parsed - parse_start) * 1e3,
            "probe_readings_s": readings,
            "probe_total_s": (start - probe_start) + (time.perf_counter() - built),
        },
    )
    if args.setup_only:
        return 0

    import resource

    import numpy
    import scipy

    import measure

    run = measure.run_passes(workload, args.seconds, traced=bool(args.trace))
    result = measure.check(args.workload, workload, run)
    if args.trace:
        result["layers"] = measure.layer_metrics(cfg, run, result["counters"], args.seed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blocktrade": blocktrade.__version__,
    }
    emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
