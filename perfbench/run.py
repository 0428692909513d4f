"""Benchmark: time to a verified exact sl4 table.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is taken from src/
without installing it.  Each sample computes one workload in a fresh
interpreter (sample.py), so it pays every import, lru_cache fill and
ambient-basis enumeration a CLI run pays, and checks its result exactly
against the pinned tables (pinned.py).  Samples run one after another
(a closed loop with one client) until the next one would end after
--seconds, with at least two per run.  Before each sample the run also
starts set-up probes, interpreters that only import the workload's
modules, and host probes (hostprobe.py), interpreters that import no
package code at all.

The host is a shared virtual machine whose speed drifts by a third or
more within minutes, and every time on it drifts together.  So each time
is reported scaled by REF_HOST_S / (median host probe time of the run):
seconds on a host where one host probe takes REF_HOST_S.  The report
prints the measured medians next to the scaled ones.

--trace 0 reports the end-to-end metrics, medians over the samples.
--trace 1 alternates untraced and traced samples and reports the
per-layer metrics: exact work counts first, then timings taken from
spans recorded around the package's public functions (tracer.py).

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when any operation
gave a wrong value or raised, and 2 when the package is missing.
"""

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import pinned  # noqa: E402
from sample import WORKLOADS  # noqa: E402

PROBES_PER_SAMPLE = 3   # set-up probes before each sample
HOST_PROBES_PER_SAMPLE = 4  # host probes before each sample and at the end
REF_HOST_S = 0.04       # host probe time that scaled times refer to
MIN_SAMPLES = 2         # per run, even when the second ends after --seconds
HARD_LIMIT_S = 170      # a run never outlives this, even if a sample hangs

COUNTS = [
    "exactla.row_add.calls",
    "exactla.row_add.useful",
    "exactla.row_add.useful_ratio",
    "exactla.row_reduce.calls",
    "exactla.rank.calls",
    "exactla.rank.nnz",
    "exactla.complex.dim_sum",
    "exactla.complex.nnz",
    "rootdata.weight_ops",
    "bmodule.apply_lowering_polynomial.calls",
    "bmodule.root_lower_matrix.calls",
    "springer.vk_component.calls",
    "springer.module_dim_sum",
    "springer.delta_subspace.vectors",
    "bgg.hodge_entry.calls",
    "ce_oracle.ce_cohomology.calls",
    "coinvariants.dc_entry.calls",
    "coinvariants.slice_cols",
]

# metric -> (span name, field of Tracer.layer_times)
SPAN_TIMES = {
    "exactla.row_add.self_s": ("exactla.row_add", "self_s"),
    "exactla.row_reduce.self_s": ("exactla.row_reduce", "self_s"),
    "exactla.rank.s": ("exactla.rank", "total_s"),
    "exactla.check_complex.s": ("exactla.check_complex", "total_s"),
    "springer.ambient_bases.self_s": ("springer.ambient_bases", "self_s"),
    "springer.delta_subspace.self_s": ("springer.delta_subspace", "self_s"),
    "springer.vk_component.self_s": ("springer.vk_component", "self_s"),
    "bmodule.apply_lowering_polynomial.self_s": ("bmodule.apply_lowering_polynomial", "self_s"),
    "bmodule.root_lower_matrix.self_s": ("bmodule.root_lower_matrix", "self_s"),
    "bgg.bgg_cochain.self_s": ("bgg.bgg_cochain", "self_s"),
    "bgg.hodge_entry.max_s": ("bgg.hodge_entry", "max_s"),
    "ce_oracle.ce_cohomology.self_s": ("ce_oracle.ce_cohomology", "self_s"),
    "coinvariants.dc_entry.self_s": ("coinvariants.dc_entry", "self_s"),
}

TIME_FIELDS = ("setup_s", "wall_s", "cpu_s", "worker_cpu_s")
POOL_TIMES = ["bgg.pool.worker_cpu_s", "bgg.pool.capacity_s", "bgg.pool.utilisation"]
TRACE_TIMES = ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"]


def unit_of(name):
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith(("_frac", "_ratio", "utilisation")):
        return "ratio"
    return "s" if name.endswith(("_s", ".s")) else "count"


class SampleFailed(Exception):
    pass


def run_sample(workload, hash_seed, timeout, setup_only=False, spans_path=None, sample_id=""):
    """Start sample.py in a fresh interpreter with an empty result cache
    and return its JSON record."""
    os.makedirs(os.path.join(STATE, "cache"), exist_ok=True)
    cache = tempfile.mkdtemp(dir=os.path.join(STATE, "cache"))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), SPRINGERCENTER_CACHE=cache,
               PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    extra = ["--setup-only"] if setup_only else []
    if spans_path:
        extra += ["--trace", spans_path, "--sample-id", sample_id]
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), workload, repr(spawned_at)] + extra
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleFailed("sample %s timed out after %.0f s" % (sample_id, timeout))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    sys.stderr.write(err)
    if proc.returncode != 0 or not out.strip():
        raise SampleFailed("sample %s exited with code %d" % (sample_id, proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


def host_probe():
    """Seconds for one start of hostprobe.py."""
    spawned_at = time.monotonic()
    out = subprocess.run([sys.executable, os.path.join(HERE, "hostprobe.py"), repr(spawned_at)],
                         cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def layer_values(rec):
    """Per-layer counts and span timings of one traced sample."""
    counts, layers = rec["counts"], rec["layers"]
    out = {name: counts.get(name, 0) for name in COUNTS}
    calls = out["exactla.row_add.calls"]
    out["exactla.row_add.useful_ratio"] = out["exactla.row_add.useful"] / calls if calls else 0.0
    for name, (span, field) in SPAN_TIMES.items():
        out[name] = layers.get(span, {}).get(field, 0.0)
    return out


def median_of(records, key):
    return statistics.median(rec[key] for rec in records)


class Run:
    """The records of one benchmark run."""

    def __init__(self):
        self.probes = []      # set-up-only starts
        self.host = []        # host probe times, seconds
        self.untraced = []
        self.traced = []
        self.attempted = 0
        self.failed = 0

    @property
    def samples(self):
        return self.untraced + self.traced

    def scale_times(self):
        """Scale every time by REF_HOST_S / median host probe time; the
        measured times stay under "measured"."""
        self.factor = REF_HOST_S / statistics.median(self.host)
        for rec in self.probes + self.samples:
            rec["measured"] = {key: rec[key] for key in TIME_FIELDS if key in rec}
            for key in rec["measured"]:
                rec[key] *= self.factor
            for layer in rec.get("layers", {}).values():
                for key in layer:
                    layer[key] *= self.factor


def measure(workload, seed, seconds, trace):
    """Run samples for about `seconds`, with set-up and host probes
    before each."""
    start = time.monotonic()
    deadline = start + seconds
    hard_deadline = start + HARD_LIMIT_S
    rng = random.Random(seed)
    spans_dir = os.path.join(STATE, "trace", workload)
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
    out = Run()
    ops = len(getattr(pinned, WORKLOADS[workload][1]))
    lifetimes = []
    k = 0
    while True:
        now = time.monotonic()
        if k >= MIN_SAMPLES and now + max(lifetimes) > deadline:
            break
        is_traced = bool(trace and k % 2)
        sample_id = "%s/seed%d/%d" % (workload, seed, k)
        spans = os.path.join(spans_dir, "sample%d.spans.jsonl" % k) if is_traced else None
        out.host += [host_probe() for _ in range(HOST_PROBES_PER_SAMPLE)]
        try:
            if k == 0:
                # the first start byte-compiles the package; it is not measured
                run_sample(workload, rng.randrange(2 ** 32), HARD_LIMIT_S, setup_only=True)
            out.probes += [run_sample(workload, rng.randrange(2 ** 32), HARD_LIMIT_S,
                                      setup_only=True) for _ in range(PROBES_PER_SAMPLE)]
            rec = run_sample(workload, rng.randrange(2 ** 32), hard_deadline - time.monotonic(),
                             spans_path=spans, sample_id=sample_id)
        except SampleFailed as exc:
            print(exc, file=sys.stderr)
            out.attempted += ops
            out.failed += ops
            break
        lifetimes.append(time.monotonic() - now)
        out.attempted += rec["attempted"]
        out.failed += rec["failed"]
        (out.traced if is_traced else out.untraced).append(rec)
        k += 1
    out.host += [host_probe() for _ in range(HOST_PROBES_PER_SAMPLE)]
    out.scale_times()
    return out


def end_to_end(run):
    return {
        "wall_s": median_of(run.untraced, "wall_s"),
        "cpu_s": median_of(run.untraced, "cpu_s"),
        "setup_s": median_of(run.probes + run.samples, "setup_s"),
        "peak_rss_mb": median_of(run.untraced, "peak_rss_mb"),
        "verified_frac": (run.attempted - run.failed) / run.attempted,
    }


def per_layer(workload, run):
    per_sample = [layer_values(rec) for rec in run.traced]
    out = dict(per_sample[0])  # counts repeat exactly; timings become medians
    for name in SPAN_TIMES:
        out[name] = statistics.median(vals[name] for vals in per_sample)
    jobs = WORKLOADS[workload][2]
    if jobs:
        # workers are forked processes: their time comes from
        # getrusage(RUSAGE_CHILDREN) of the untraced samples, not from spans
        out["bgg.pool.worker_cpu_s"] = median_of(run.untraced, "worker_cpu_s")
        out["bgg.pool.capacity_s"] = jobs * median_of(run.untraced, "wall_s")
        out["bgg.pool.utilisation"] = out["bgg.pool.worker_cpu_s"] / out["bgg.pool.capacity_s"]
    out["trace.wall_s"] = median_of(run.traced, "wall_s")
    out["trace.untraced_wall_s"] = median_of(run.untraced, "wall_s")
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def print_report(args, run, metrics):
    print("perfbench %s  seed %d  %d s  trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    print("machine: %d cpus, %s, %s %s, %s" % (os.cpu_count(), platform.machine(),
                                                platform.python_implementation(),
                                                platform.python_version(), platform.system()))
    print("samples: %d untraced, %d traced, %d set-up probes; operations %d attempted,"
          " %d failed, fail_frac %.6g" % (len(run.untraced), len(run.traced), len(run.probes),
                                          run.attempted, run.failed, run.failed / run.attempted))
    print("host probe: median %.6g s over %d starts; times are scaled by %.6g to the"
          " reference %g s" % (statistics.median(run.host), len(run.host), run.factor, REF_HOST_S))
    if not args.trace:
        measured = {"wall_s": run.untraced, "cpu_s": run.untraced,
                    "setup_s": run.probes + run.samples}
        print("end-to-end (medians; measured = before scaling):")
        for name, value in metrics.items():
            line = "  %-14s %12.6g %-5s" % (name, value, unit_of(name))
            if name in measured:
                line += "  measured %.6g" % median_of([rec["measured"] for rec in measured[name]],
                                                      name)
            print(line)
        return
    for title, names in (("counts (exact, repeat across runs and seeds):", COUNTS),
                         ("timings (medians over traced samples):", list(SPAN_TIMES)),
                         ("pool (getrusage of the untraced samples; spans inside pool workers"
                          " are not collected):", POOL_TIMES),
                         ("tracing overhead:", TRACE_TIMES)):
        names = [name for name in names if name in metrics]
        if names:
            print(title)
        for name in names:
            print("  %-42s %14.6g %s" % (name, metrics[name], unit_of(name)))
    if any(rec["counts"] != run.traced[0]["counts"] for rec in run.traced):
        print("WARNING: counts differ between traced samples of this run", file=sys.stderr)
    print("spans: %s" % os.path.relpath(os.path.join(STATE, "trace", args.workload), ROOT))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "springercenter", "__init__.py")):
        print("perfbench: no package at %s; run from a checkout of the repository" % SRC,
              file=sys.stderr)
        return 2

    run = measure(args.workload, args.seed, args.seconds, args.trace)
    complete = bool(run.untraced) and bool(run.traced or not args.trace)
    metrics = {}
    if complete:
        metrics = (per_layer(args.workload, run) if args.trace else end_to_end(run))
        print_report(args, run, metrics)
    correct = complete and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
