"""One benchmark sample: one workload computed in a fresh interpreter.

    python3 perfbench/sample.py WORKLOAD SPAWNED_AT [--setup-only]
                                [--trace SPANS_PATH --sample-id ID]

SPAWNED_AT is the parent's time.monotonic() just before it started this
process, so set-up time covers interpreter start and the imports a user
pays on every CLI run.  The package comes from PYTHONPATH.  The last
line of stdout is one JSON object describing the sample.
"""

import importlib
import sys
import time

# name: (modules the workload imports, pinned table it is checked
# against, pool workers)
WORKLOADS = {
    "bgg-sl4": (("bgg",), "DIAMOND_SL4", 0),
    "bgg-sl4-jobs2": (("bgg",), "DIAMOND_SL4", 2),
    "dc-sl4": (("coinvariants",), "DC_SL4", 0),
    "ce-sl4": (("springer", "ce_oracle"), "CE_PROFILES_SL4", 0),
}


def _check_table(expected, compute):
    """(attempted, failed) for a table computed by one call.  Each key
    of either table is one operation; an exception fails them all."""
    try:
        got = compute()
    except Exception:
        import traceback
        traceback.print_exc()
        return len(expected), len(expected)
    keys = set(expected) | set(got)
    bad = sorted(k for k in keys if got.get(k) != expected.get(k))
    for k in bad:
        print("mismatch at %r: got %r, pinned %r" % (k, got.get(k), expected.get(k)),
              file=sys.stderr)
    return len(keys), len(bad)


def _check_ce(expected):
    """Each pinned (k, r) is one operation: build the complete module
    V_k^{-2r} and take its weight-zero Lie algebra cohomology."""
    from springercenter import ce_oracle, springer
    failed = 0
    for (k, r), profile in expected.items():
        try:
            got = ce_oracle.ce_cohomology(springer.build_vk_component(4, k, r).module)
        except Exception:
            import traceback
            traceback.print_exc()
            got = None
        if got != profile:
            print("mismatch at V_%d^{-%d}: got %r, pinned %r" % (k, 2 * r, got, profile),
                  file=sys.stderr)
            failed += 1
    return len(expected), failed


def run_workload(name, expected):
    if name in ("bgg-sl4", "bgg-sl4-jobs2"):
        from springercenter import bgg
        jobs = WORKLOADS[name][2] or 1
        return _check_table(expected, lambda: bgg.hodge_diamond(4, jobs=jobs))
    if name == "dc-sl4":
        from springercenter import coinvariants
        return _check_table(expected, lambda: coinvariants.dc_table(4))
    if name == "ce-sl4":
        return _check_ce(expected)
    raise KeyError(name)


def main():
    name, spawned_at = sys.argv[1], float(sys.argv[2])
    for mod in WORKLOADS[name][0]:
        importlib.import_module("springercenter." + mod)
    setup_s = time.monotonic() - spawned_at

    import argparse
    import json
    import resource

    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("spawned_at", type=float)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="SPANS_PATH")
    ap.add_argument("--sample-id", default="")
    args = ap.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    import pinned
    expected = getattr(pinned, WORKLOADS[name][1])
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(args.sample_id)
        tracer.install()

    start = time.perf_counter()
    attempted, failed = run_workload(name, expected)
    wall_s = time.perf_counter() - start

    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_cpu_s = workers.ru_utime + workers.ru_stime
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": own.ru_utime + own.ru_stime + worker_cpu_s,
        "worker_cpu_s": worker_cpu_s,
        # getrusage gives the largest worker's peak, not the sum over workers
        "peak_rss_mb": (own.ru_maxrss + workers.ru_maxrss) / 1024,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is not None:
        out["counts"] = dict(tracer.counts)
        out["layers"] = tracer.layer_times()
        tracer.write_spans(args.trace)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
