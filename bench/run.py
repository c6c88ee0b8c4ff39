"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from its src/.
The workload runs whole rounds of the same grid points until the next
round would end after S seconds (at least one round), then checks the
outputs of the last round.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics BENCHMARK.json lists,
the end-to-end ones with --trace 0 and the per-layer ones (from spans,
per round) with --trace 1; a traced run also writes its spans to
bench/out/spans-<workload>-seed<N>.json.  See bench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

sys.dont_write_bytecode = True  # leave the checkout as it was

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def process_age():
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program():
    """Import dimerchain from this checkout's src/ (raises if it is absent)."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import dimerchain
    import dimerchain.experiments.runner  # noqa: F401  (binds dimerchain.experiments)

    if not os.path.abspath(dimerchain.__file__).startswith(src + os.sep):
        raise ImportError(f"dimerchain was imported from {dimerchain.__file__}, "
                          f"not from {src}")
    return dimerchain


def measure(workload, rec, seconds):
    """Whole rounds until the next one would end after `seconds`."""
    rounds = []
    begin = time.perf_counter()
    while True:
        rec.calls = []
        error = None
        t0 = time.perf_counter()
        try:
            result = workload.run_round()
        except Exception as e:  # the round's remaining points count as failed
            result, error = None, f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        rec.collect_workers()
        rounds.append({"wall": wall, "result": result, "calls": rec.calls,
                       "error": error})
        if time.perf_counter() - begin + wall > seconds:
            return rounds


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def listed(kind):
    """Names of the metrics BENCHMARK.json lists under `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return [m["name"] for m in json.load(f)[kind]]


def tally(workload, rounds):
    """Point times, failure messages, and the attempted and failed counts.

    A round that raised keeps the points it finished; the rest failed."""
    points, failures = [], []
    for r in rounds:
        if r["error"] is None:
            points += workload.points(r["result"], r["calls"])
        else:
            points += [(c["seconds"], c["lam"] is not None) for c in r["calls"]]
            failures.append(f"round stopped: {r['error']}")
        failures += workload.failures(r["calls"])
    attempted = workload.ops * len(rounds)
    return points, failures, attempted, attempted - sum(ok for _, ok in points)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, BENCH)
    import hooks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        dc = load_program()
    except ImportError as e:
        print(f"cannot import the program: {e}", file=sys.stderr)
        return 1
    workdir = os.path.join(BENCH, "out", f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](dc, args.seed, workdir)
        parse_s = time.perf_counter() - t0
        setup_s = process_age()

        rec = hooks.Recorder(workdir, trace=bool(args.trace))
        rec.install(dc)
        try:
            rounds = measure(workload, rec, args.seconds)
            peak = peak_rss_mb()
        finally:
            rec.uninstall()
        points, failures, attempted, failed = tally(workload, rounds)

        problems = []
        checked = [r for r in rounds if r["error"] is None]
        if checked:
            try:
                problems = workload.check(checked[-1]["result"], checked[-1]["calls"])
            except Exception as e:  # a crashed check is a failed check
                problems = [f"check crashed: {type(e).__name__}: {e}"]

        e2e = {
            "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
            "setup_s": (setup_s, "s"),
            "point_p50_s": (statistics.median(s for s, _ in points), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
        layers = {}
        if args.trace:
            layers = hooks.layer_metrics(rec.spans, rec.root_pid, len(rounds))
            layers["config.parse.s"] = (parse_s, "s")
            hooks.write_spans(os.path.join(
                BENCH, "out", f"spans-{args.workload}-seed{args.seed}.json"), rec.spans)
        # a traced run prints its (traced) wall time too: the overhead
        for name, (value, unit) in {**e2e, **layers}.items():
            print(f"{name} {value:.6g} {unit}")
        print(f"rounds {len(rounds)}, attempted {attempted}, failed {failed}")
        print("point seconds " + " ".join(f"{s:.3f}" for s, _ in points))
        for f in sorted(set(failures)):
            print(f"failed: {f}")
        for p in problems:
            print(f"check: {p}")
        metrics = layers if args.trace else e2e
        print(json.dumps({
            "correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                        for k in listed("per_layer" if args.trace else "end_to_end")},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
