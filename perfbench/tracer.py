"""Spans and counts recorded around the package's public functions.

Wrappers are installed from outside the package, as module or class
attributes, so calls made from inside the package pass through them
too.  Spans (name, start, end, parent, sample id) stay in memory until
the sample ends.  A span's self time is its duration minus the time its
child spans cover; spans nest strictly because a sample is one thread.

Pool workers are forked after the wrappers are installed, so they run
wrapped code, but their spans stay in the worker and are not collected.
"""

import functools
import json
import math
import time
from collections import Counter, defaultdict

ROW_ADD = "exactla.row_add"


class Tracer:
    def __init__(self, sample_id):
        self.sample_id = sample_id
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts = Counter()
        self._open = []  # indices of the spans not yet ended

    def span(self, owner, attr, name, count=None):
        """Replace owner.attr by a wrapper recording a span per call.

        count(counts, args, result), when given, adds work counts.
        """
        fn = getattr(owner, attr)
        spans, open_, counts = self.spans, self._open, self.counts
        clock = time.perf_counter_ns
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0, 0, open_[-1] if open_ else -1]
            spans.append(rec)
            open_.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            counts[calls] += 1
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, wrapper)

    def counter(self, owner, attr, count):
        """Replace owner.attr by a wrapper that only calls
        count(counts, args, result), without a span."""
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(counts, args, result)
            return result

        setattr(owner, attr, wrapper)

    def install(self):
        from springercenter import (bgg, bmodule, ce_oracle, coinvariants,
                                    exactla, rootdata, springer)

        self.span(exactla.RowReducer, "add", ROW_ADD, _count_useful)
        self._install_reduce(exactla.RowReducer)
        self.span(exactla, "rank", "exactla.rank", _count_rank_nnz)
        self.span(exactla.CochainComplex, "check_complex", "exactla.check_complex")
        self.counter(exactla.CochainComplex, "cohomology_dims", _count_complex)
        self.counter(rootdata, "add", _count_weight_op)
        self.counter(rootdata, "sub", _count_weight_op)
        self.span(bmodule.BModule, "apply_lowering_polynomial",
                  "bmodule.apply_lowering_polynomial")
        self.span(bmodule.BModule, "root_lower_matrix", "bmodule.root_lower_matrix")
        self.span(springer, "ambient_bases", "springer.ambient_bases")
        self.span(springer, "delta_subspace", "springer.delta_subspace", _count_vectors)
        self.span(springer.VkComponent, "__init__", "springer.vk_component", _count_module_dim)
        self.span(bgg, "bgg_cochain", "bgg.bgg_cochain")
        self.span(bgg, "hodge_entry", "bgg.hodge_entry")
        self.span(ce_oracle, "ce_cohomology", "ce_oracle.ce_cohomology")
        self.span(coinvariants, "dc_entry", "coinvariants.dc_entry", _count_slice_cols)

    def _install_reduce(self, reducer_cls):
        """RowReducer.reduce as a span of its own only when called from
        outside RowReducer.add (projection onto a quotient); the reduce
        inside add is part of add."""
        spans, open_ = self.spans, self._open
        plain = reducer_cls.reduce
        self.span(reducer_cls, "reduce", "exactla.row_reduce")
        traced = reducer_cls.reduce

        @functools.wraps(plain)
        def reduce(self_, vec):
            if open_ and spans[open_[-1]][0] == ROW_ADD:
                return plain(self_, vec)
            return traced(self_, vec)

        reducer_cls.reduce = reduce

    def layer_times(self):
        """name -> {"total_s", "self_s", "max_s"} over all spans."""
        child_ns = defaultdict(int)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            rec = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
            rec["total_s"] += dur / 1e9
            rec["self_s"] += (dur - child_ns[idx]) / 1e9
            rec["max_s"] = max(rec["max_s"], dur / 1e9)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, start, end, parent, self.sample_id]) + "\n")


def _count_useful(counts, args, grew):
    counts[ROW_ADD + ".useful"] += bool(grew)


def _count_rank_nnz(counts, args, result):
    counts["exactla.rank.nnz"] += len(args[0].entries)


def _count_complex(counts, args, result):
    cx = args[0]
    counts["exactla.complex.dim_sum"] += sum(cx.dims)
    counts["exactla.complex.nnz"] += sum(len(mp.entries) for mp in cx.maps)


def _count_weight_op(counts, args, result):
    counts["rootdata.weight_ops"] += 1


def _count_vectors(counts, args, vectors):
    counts["springer.delta_subspace.vectors"] += len(vectors)


def _count_module_dim(counts, args, result):
    counts["springer.module_dim_sum"] += args[0].module.dim


def _count_slice_cols(counts, args, result):
    m, i, j = args
    # dc_entry's columns are the monomials x^a y^b with |a| = i, |b| = j
    counts["coinvariants.slice_cols"] += math.comb(i + m - 1, m - 1) * math.comb(j + m - 1, m - 1)
