"""Checks of the benchmark itself, separate from its timed runs.

    python3 perfbench/selfcheck.py [WORKLOAD ...]

1. The pinned tables agree with each other (diamond against the
   reindexed DC_4 table, CE profiles against the diamond).
2. The pinned CE profiles equal bgg.multiplicity, the resolution route,
   on the same complete modules.
3. Every count of a traced sample repeats exactly: two traced samples
   with one hash seed and one with another give identical counts.

Prints the counts and exits 1 on any disagreement.
"""

import os
import sys

import pinned
import run


def check_pins():
    errors = pinned.consistency_errors()
    sys.path.insert(0, run.SRC)
    from springercenter import bgg, springer
    for (k, r), profile in pinned.CE_PROFILES_SL4.items():
        got = bgg.multiplicity(springer.build_vk_component(4, k, r).module)
        if got != profile:
            errors.append("bgg.multiplicity(V_%d^{-%d}) = %r, pinned CE profile %r"
                          % (k, 2 * r, got, profile))
    return errors


def check_counts(workload):
    spans_dir = os.path.join(run.STATE, "selfcheck")
    os.makedirs(spans_dir, exist_ok=True)
    runs = []
    for label, hash_seed in (("seed 1, first", 1), ("seed 1, second", 1), ("seed 2", 2)):
        sample_id = "%s/selfcheck/%s" % (workload, label)
        rec = run.run_sample(workload, hash_seed, run.HARD_LIMIT_S,
                             spans_path=os.path.join(spans_dir, workload + ".spans.jsonl"),
                             sample_id=sample_id)
        if rec["failed"]:
            return ["%s: traced sample '%s' failed %d operations" % (workload, label, rec["failed"])]
        runs.append((label, rec["counts"]))
    print(workload)
    if not runs[0][1]:
        print("  (no counts: the work runs in pool workers, whose counts are not collected)")
    for name in sorted(set().union(*(counts for _, counts in runs))):
        print("  %-42s %s" % (name, "  ".join("%10d" % counts.get(name, 0) for _, counts in runs)))
    return ["%s: counts of '%s' differ from '%s'" % (workload, label, runs[0][0])
            for label, counts in runs[1:] if counts != runs[0][1]]


def main():
    workloads = sys.argv[1:] or list(run.WORKLOADS)
    errors = check_pins()
    for workload in workloads:
        errors += check_counts(workload)
    for err in errors:
        print("FAIL:", err, file=sys.stderr)
    print("selfcheck: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
