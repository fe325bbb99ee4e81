"""Benchmark for ambiq: seeded workloads through the public CLI and API.

    python3 perfbench/run.py --workload score-repeat --seed 1 --seconds 25 --trace 0

Run from the repository root. The program is imported from ./src. Load is
one process and one op at a time, with BLAS and OpenMP pinned to one
thread. Every op runs in a child forked from the warmed-up benchmark, as
every CLI call starts from a fresh process. Ops repeat in whole rounds
until --seconds have passed. Between ops the fixed reference kernel
(refkernel.py) runs, and op times are reported in units of its mean time
around each op, which cancels most of the host's speed drift.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds per-layer metrics from spans around each layer's calls
(tracing.py). Results and traces go to perfbench/out/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from refkernel import reference_kernel
from tracing import LAYERS, Tracer, per_layer_metrics
from warmup import run_warm_up
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

REF_REPS = 4  # least reference-kernel runs before each op
REF_SHARE = 0.04  # least share of the previous op's time spent on the kernel
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# Host speed that set-up times are rescaled to: the reference kernel's mean
# time on it. Set-up (mostly loading numpy) tracks the kernel's speed
# closely, while the raw seconds move by a quarter as the host's speed
# drifts. Like the kernel, never change this.
NOMINAL_REF_S = 0.002


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import ambiq from ./src, refusing any other copy."""
    init = os.path.join(SRC, "ambiq", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no program source at {init}; run from the repository root")
    sys.path.insert(0, SRC)
    import ambiq
    import ambiq.cli  # noqa: F401

    if os.path.realpath(ambiq.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported ambiq from {ambiq.__file__}, not {init}")


def run_forked(op, tracer):
    """Run op.run in a forked child; returns (seconds, payload, spans, rss_growth_kb).

    The child times only the op itself and reports through a pipe, with how
    far its peak resident set rose above its resident set at the op's
    start. A child that raises reports the traceback as its payload's error.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            if tracer is not None:
                tracer.reset()
            rss_start = _current_rss_kb()
            start = time.perf_counter()
            payload = op.run()
            elapsed = time.perf_counter() - start
            growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_start
            message = {"seconds": elapsed, "payload": payload, "rss_growth_kb": max(growth, 0),
                       "spans": tracer.export() if tracer is not None else None}
        except BaseException:
            # The child must never return into the parent's loop, so it
            # reports every exception and exits below.
            message = {"error": traceback.format_exc()}
        try:
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(message).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    message = json.loads(data) if data else {"error": f"child ended with status {status} and no report"}
    if "error" in message:
        return None, {"error": message["error"]}, None, None
    return message["seconds"], message["payload"], message["spans"], message["rss_growth_kb"]


def _current_rss_kb() -> int:
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") // 1024


def setup_probe(workload, probe_dir, reference_kernel):
    """Time import plus warm-up in a fresh interpreter.

    Returns (seconds rescaled to the nominal host speed, raw seconds,
    maxrss_kb). The kernel runs just before and just after the probe; its
    mean time there, against NOMINAL_REF_S, gives the host's speed.
    """
    before = sample_reference(reference_kernel, 0.0)
    spec = json.dumps({"cli": workload.warm_up.cli, "cdf": workload.warm_up.cdf})
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, spec, os.path.join(probe_dir, "probe-stdout.txt")],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if result.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{result.stderr}")
    after = sample_reference(reference_kernel, 0.0)
    report = json.loads(result.stdout.strip().splitlines()[-1])
    seconds = report["seconds"]
    return seconds * NOMINAL_REF_S / statistics.fmean(before + after), seconds, report["maxrss_kb"]


def tail(values, keys, has_tail):
    """The highest percentile with at least ten samples beyond it.

    A workload with fewer than 40 ops per run, or whose ops mix inputs of
    very different cost, has no tail worth the name; for it the median over
    rounds of the slowest input stands in. Which rule applies is fixed per
    workload, so the metric does not switch definitions as the op count
    changes from run to run.
    """
    if has_tail and len(values) >= 40:
        return sorted(values)[-11]
    by_key: dict = {}
    for key, value in zip(keys, values):
        by_key.setdefault(key, []).append(value)
    return max(statistics.median(v) for v in by_key.values())


def sample_reference(reference_kernel, budget_s):
    """Run the kernel REF_REPS times, or for budget_s, whichever is longer.

    The first run after a fork pays the parent's copy-on-write faults, so it
    is left out.
    """
    samples = []
    reference_kernel()
    while len(samples) < REF_REPS or math.fsum(samples) < budget_s:
        start = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - start)
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0 or args.seed < 0:
        raise SystemExit("error: --seconds must be positive and --seed nonnegative")
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, WORKLOADS[args.workload](args.seed, workdir), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload, workdir) -> int:
    prepare_start = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - prepare_start
    run_warm_up(workload.warm_up, os.path.join(workdir, "warm-stdout.txt"))
    for _ in range(3):
        reference_kernel()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    gc.collect()
    gc.freeze()

    setup = []
    gaps, timed, rss_kb, op_spans = [], [], [], []
    attempted = failed = work = 0
    unexpected, digests = [], {}
    rounds = 0
    probe_s = 0.0
    loop_start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - loop_start - probe_s

    # Another round starts only if it would end nearer to --seconds than
    # stopping now, so runs end close to --seconds even with long rounds.
    while rounds == 0 or elapsed() * (1.0 + 0.5 / rounds) < args.seconds:
        for op in workload.ops:
            # The kernel runs for at least REF_SHARE of the previous op's
            # time, so long ops get as many samples of the host's speed.
            gaps.append(sample_reference(reference_kernel, REF_SHARE * (timed[-1][0] if timed else 0.0)))
            seconds, payload, spans, growth_kb = run_forked(op, tracer)
            attempted += 1
            if seconds is None:
                problems = [f"op raised:\n{payload['error']}"]
            else:
                timed.append((seconds, len(gaps) - 1, op.key))
                rss_kb.append(growth_kb)
                work += op.work
                if spans is not None:
                    op_spans.append(spans)
                problems = op.check(payload)
                if not problems:
                    with open(op.output, "rb") as handle:
                        digest = hashlib.sha256(handle.read()).hexdigest()
                    if digests.setdefault(op.key, digest) != digest:
                        problems = [f"{op.key}: output differs from an earlier run of the same command and seed"]
            if problems:
                failed += 1
                if not op.expect_fault:
                    unexpected.append((op.key, problems))
            # Set-up probes are spread over the run, so a slow spell of the
            # host cannot catch them all; their time is not op time.
            if not args.trace and len(setup) < SETUP_PROBES and elapsed() >= len(setup) * args.seconds / SETUP_PROBES:
                probe_start = time.perf_counter()
                setup.append(setup_probe(workload, workdir, reference_kernel))
                probe_s += time.perf_counter() - probe_start
        rounds += 1
    loop_s = elapsed()
    gaps.append(sample_reference(reference_kernel, REF_SHARE * (timed[-1][0] if timed else 0.0)))
    while not args.trace and len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload, workdir, reference_kernel))

    for key, problems in unexpected[:5]:
        print(f"FAILED {key}: " + "; ".join(problems[:5]), file=sys.stderr)
    if not timed:
        print("error: no op completed", file=sys.stderr)
        return 1

    # Each op is divided by the kernel's mean time in the gaps just before
    # and after it. The host alternates between fast and slow spells within
    # seconds; an op's time follows the mean speed around it, which the
    # kernel's mean there estimates. The median would pick one of the two
    # speeds, and a run-wide figure would miss the spells.
    ms = [1e3 * seconds for seconds, _, _ in timed]
    ratios = [seconds / statistics.fmean(gaps[g] + gaps[g + 1]) for seconds, g, _ in timed]
    keys = [key for _, _, key in timed]
    all_ref = [s for gap in gaps for s in gap]
    summary = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "rounds": rounds,
        "ops_timed": len(ms), "loop_s": loop_s, "prepare_s": prepare_s, "facts": workload.facts,
        "ref_kernel_mean_ms": 1e3 * statistics.fmean(all_ref), "ref_samples": len(all_ref),
        # Raw wall-clock figures: they move with the host's speed by more
        # than a tenth between runs, so they are reported but not gated.
        "op_p50_ms": statistics.median(ms), "op_tail_ms": tail(ms, keys, workload.has_tail),
        "work_per_s": work / math.fsum(seconds for seconds, _, _ in timed),
        "op_ms_by_key": {k: statistics.median(m for m, key in zip(ms, keys) if key == k) for k in dict.fromkeys(keys)},
    }
    if args.trace:
        metrics = per_layer_metrics(op_spans)
        summary["absent"] = tracer.absent
        _write_trace(workload, args, tracer, op_spans)
    else:
        setup_rss_kb = statistics.median(r for _, _, r in setup)
        metrics = {
            "op_p50_ref": {"value": statistics.median(ratios), "unit": "ref"},
            "op_tail_ref": {"value": tail(ratios, keys, workload.has_tail), "unit": "ref"},
            "peak_rss_mb": {"value": (setup_rss_kb + max(rss_kb)) / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(s for s, _, _ in setup), "unit": "s"},
        }
        summary["setup_rss_mb"] = setup_rss_kb / 1024.0
        summary["setup_raw_s"] = statistics.median(raw for _, raw, _ in setup)
    print(json.dumps(summary), file=sys.stderr)
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{workload.name}-s{args.seed}-t{args.trace}.json"), "w") as handle:
        json.dump({"result": result, "summary": summary}, handle, indent=1)
    print(json.dumps(result))
    return 0


def _write_trace(workload, args, tracer, op_spans):
    path = os.path.join(OUT, f"trace-{workload.name}-s{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"layers": [layer.name for layer in LAYERS], "absent": tracer.absent,
                                 "span_fields": ["layer", "start", "end", "parent", "count"]}) + "\n")
        for op_index, spans in enumerate(op_spans):
            handle.write(json.dumps({"op": op_index, "spans": spans}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
