"""Benchmark entry point: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Workloads are ``desk``, ``surface`` and ``montecarlo`` (see NOTES.md). Each run
starts ``SETUP_SAMPLES`` set-up-only processes and then the workload process,
one after another; each is a fresh interpreter with its BLAS/OpenMP threads
set to the CPU count. Set-up time is measured from starting the process until
it reports that ``blocktrade.cli`` is imported, the reference config is parsed
and the inputs are built, less the time of the speed probes the process runs
before and after that work (``speed.py``). ``setup_s`` is the median over the
set-up-only processes. End-to-end times are scaled to the probes' nominal
speed; the detail line gives them unscaled too.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``, with the names and
units ``BENCHMARK.json`` gives them. The lines before it
record the environment and the details behind the metrics. The exit code is 0
only when every correctness gate passed and every exact counter repeated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import subprocess
import sys
import time

import speed
from stats import MIN_BEYOND, median, nearest_rank

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
COUNTER_DIR = os.path.join(HERE, ".counters")
WORKLOADS = ("desk", "surface", "montecarlo")
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # the whole run, children included
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# sources whose change may legitimately change the exact counters
DIGEST_ROOTS = ("src", "configs", os.path.relpath(HERE))

SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


class RunError(RuntimeError):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def child_env(threads):
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_VARS:
        env[name] = str(threads)
    return env


def _parse_line(line, tag):
    prefix = tag + " "
    return json.loads(line[len(prefix):]) if line.startswith(prefix) else None


def run_child(args, env, deadline, setup_only):
    """Start one workload process; return (set-up seconds, READY payload, RESULT payload)."""
    argv = [
        sys.executable,
        CHILD,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, bufsize=0)
    fd = proc.stdout.fileno()
    buf = b""
    setup_s = ready = result = None
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RunError(f"{args.workload} process exceeded the run time limit")
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 1 << 16)
            now = time.perf_counter()
            if not chunk:
                break
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for raw in lines:
                line = raw.decode()
                if ready is None and (ready := _parse_line(line, "READY")) is not None:
                    setup_s = now - start
                elif (parsed := _parse_line(line, "RESULT")) is not None:
                    result = parsed
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise RunError(f"{args.workload} process exited with code {code}")
    if ready is None or (result is None and not setup_only):
        raise RunError(f"{args.workload} process ended without reporting")
    return setup_s, ready, result


def source_digest():
    h = hashlib.sha256()
    for root in DIGEST_ROOTS:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__")))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def compare_counters(digest, workload, seed, counters):
    """Check this run's exact counters against earlier runs of the same sources and
    seed, then record the union. Returns the keys that differ."""
    os.makedirs(COUNTER_DIR, exist_ok=True)
    path = os.path.join(COUNTER_DIR, f"{digest[:16]}-{workload}-{seed}.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except FileNotFoundError:
        known = {}
    differ = sorted(k for k in counters if k in known and known[k] != counters[k])
    if not differ:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({**known, **counters}, fh, sort_keys=True)
        os.replace(tmp, path)
    return differ


def timings(setup_samples, walls, latencies):
    return {
        "setup_s": median(setup_samples),
        "wall_s": median(walls),
        "op_p50_ms": median(latencies) * 1e3,
        "op_p95_ms": nearest_rank(latencies, 95)[0] * 1e3,
    }


def end_to_end(setup_samples, result):
    return {
        **timings(setup_samples, result["walls"], result["latencies"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_rate": 1.0 - result["failed"] / result["attempted"],
    }


def probed_setup(args, env, deadline):
    """One set-up-only process: (raw seconds, seconds scaled by the process's own
    probe readings, READY payload); the probes' time is left out of both."""
    setup_s, ready, _ = run_child(args, env, deadline, setup_only=True)
    raw = setup_s - ready["probe_total_s"]
    return raw, speed.scale(raw, ready["probe_readings_s"], "python"), ready


def main(argv=None):
    args = parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join("src", "blocktrade", "cli.py")):
        print("run from the repository root: src/blocktrade is missing", file=sys.stderr)
        return 2
    threads = nproc()
    env = child_env(threads)
    try:
        raw_setups, setups, readies = [], [], []
        for _ in range(SETUP_SAMPLES):
            raw, scaled, ready = probed_setup(args, env, deadline)
            raw_setups.append(raw)
            setups.append(scaled)
            readies.append(ready)
        _, _, result = run_child(args, env, deadline, setup_only=False)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    digest = source_digest()
    errors = list(result["errors"])
    differ = compare_counters(digest, args.workload, args.seed, result["counters"])
    if differ:
        errors.append(f"exact counters differ from an earlier run of this seed: {differ}")
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    correct = result["correct"] and not errors

    if args.trace:
        values = dict(result["layers"])
        values["setup.import_s"] = median([r["import_s"] for r in readies])
        values["config.parse_ms"] = median([r["parse_ms"] for r in readies])
    else:
        values = end_to_end(setups, result)
    with open(SPEC) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    env_record = {
        **result["versions"],
        "nproc": threads,
        "cpu": cpu_model(),
        "threads_env": {name: env[name] for name in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": digest,
    }
    p95_beyond = nearest_rank(result["latencies"], 95)[1]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "passes": result["passes"],
        "pass_walls_s": result["walls"],
        "raw_pass_walls_s": result["raw_walls"],
        "unscaled": timings(raw_setups, result["raw_walls"], result["raw_latencies"]),
        "probe_s": {
            "nominal": speed.PROBES[result["probe"]][1],
            "median": median(result["probe_s"]),
        },
        "op_samples": len(result["latencies"]),
        "op_p95_beyond": p95_beyond,
        "op_p95_is_tail_estimate": p95_beyond >= MIN_BEYOND,
        "counters": result["counters"],
        "gate": result["gate"],
        "missing_hooks": result["missing_hooks"],
        "errors": errors,
    }
    print(json.dumps({"env": env_record}))
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
