"""Command line interface.

Subcommands:
  diamond      full bigraded table for a given m (resolution or Lie
               algebra cohomology method)
  cohomology   multiplicity profile for a bundle expression
  compare-dc   diamond vs. the diagonal coinvariant prediction
  verify       structural self-checks

Bundle expressions use atoms g, b, n, u, trivial and V(k,r), combined
with wedge^k(...), sym^p(...), dual(...), the tensor operator (x) and
the sum operator (+).  Unicode aliases for the operators are accepted.

Results go to stdout: diamond renders json, csv, latex or pretty text,
cohomology json, csv or pretty, compare-dc json or pretty plain lines,
and verify one PASS/FAIL line per suite of checks.SUITES.  Diagnostics go
to stderr.  Exit codes: 0 success/match, 1 computation or usage error
(including parse errors, and diamond, compare-dc or verify at m above
MAX_DIAMOND_M, refused before anything is built), 2 a verification or
comparison mismatch.
"""

import argparse
import functools
import hashlib
import json
import logging
import os
import sys
import tempfile
import time

from . import __version__
from . import bmodule, springer, bgg, ce_oracle, coinvariants, checks

log = logging.getLogger("springercenter")

CACHE_ENV = "SPRINGERCENTER_CACHE"
MAX_DIAMOND_M = 5  # the largest m whose whole diamond fits in memory


class ParseError(Exception):
    pass


# ---------------------------------------------------------------- expressions

_ATOMS = ("g", "b", "n", "u", "trivial")


def _tokenize(text):
    text = text.replace("\u2297", "(x)").replace("\u2295", "(+)")
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("(x)", i):
            tokens.append(("TENSOR", "(x)", i))
            i += 3
            continue
        if text.startswith("(+)", i):
            tokens.append(("SUM", "(+)", i))
            i += 3
            continue
        if ch in "(),^":
            tokens.append(({"(": "LPAR", ")": "RPAR", ",": "COMMA", "^": "HAT"}[ch], ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r at position %d" % (ch, i))
    return tokens


class _Parser:
    """Recursive descent over: sum of tensors of factors; wedge/sym/dual
    bind tighter than (x), which binds tighter than (+)."""

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("EOF", "", len(self.text))

    def take(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError("expected %s at position %d, found %r" % (kind, tok[2], tok[1]))
        self.pos += 1
        return tok

    def parse(self):
        node = self.sum()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError("trailing input at position %d: %r" % (tok[2], tok[1]))
        return node

    def sum(self):
        node = self.product()
        while self.peek()[0] == "SUM":
            self.take("SUM")
            node = ("sum", node, self.product())
        return node

    def product(self):
        node = self.factor()
        while self.peek()[0] == "TENSOR":
            self.take("TENSOR")
            node = ("tensor", node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok[0] == "LPAR":
            self.take("LPAR")
            node = self.sum()
            self.take("RPAR")
            return node
        if tok[0] != "NAME":
            raise ParseError("expected an atom or '(' at position %d" % tok[2])
        name = tok[1]
        self.take("NAME")
        if name in ("wedge", "sym"):
            self.take("HAT")
            k = int(self.take("INT")[1])
            self.take("LPAR")
            inner = self.sum()
            self.take("RPAR")
            return (name, k, inner)
        if name == "dual":
            self.take("LPAR")
            inner = self.sum()
            self.take("RPAR")
            return ("dual", inner)
        if name == "V":
            self.take("LPAR")
            k = int(self.take("INT")[1])
            self.take("COMMA")
            r = int(self.take("INT")[1])
            self.take("RPAR")
            return ("V", k, r)
        if name in _ATOMS:
            return ("atom", name)
        raise ParseError("unknown name %r at position %d" % (name, tok[2]))


def parse_expression(text):
    return _Parser(text).parse()


def render_expression(node):
    kind = node[0]
    if kind == "atom":
        return node[1]
    if kind == "V":
        return "V(%d,%d)" % (node[1], node[2])
    if kind == "dual":
        return "dual(%s)" % render_expression(node[1])
    if kind in ("wedge", "sym"):
        return "%s^%d(%s)" % (kind, node[1], render_expression(node[2]))
    if kind == "tensor":
        return "%s (x) %s" % (_paren(node[1], ("sum",)), _paren(node[2], ("sum", "tensor")))
    if kind == "sum":
        return "%s (+) %s" % (render_expression(node[1]), _paren(node[2], ("sum",)))
    raise ValueError("bad node %r" % (node,))


def _paren(node, weaker):
    s = render_expression(node)
    return "(%s)" % s if node[0] in weaker else s


def build_module(m, node):
    kind = node[0]
    if kind == "atom":
        return {
            "g": bmodule.adjoint_g,
            "b": bmodule.sub_b,
            "n": bmodule.sub_n,
            "u": bmodule.quotient_u,
            "trivial": bmodule.trivial_module,
        }[node[1]](m)
    if kind == "V":
        return springer.build_vk_component(m, node[1], node[2]).module
    if kind == "dual":
        return bmodule.dual(build_module(m, node[1]))
    if kind == "wedge":
        return bmodule.wedge(build_module(m, node[2]), node[1])
    if kind == "sym":
        return bmodule.sym(build_module(m, node[2]), node[1])
    if kind == "tensor":
        return bmodule.tensor(build_module(m, node[1]), build_module(m, node[2]))
    if kind == "sum":
        return bmodule.direct_sum(build_module(m, node[1]), build_module(m, node[2]))
    raise ValueError("bad node %r" % (node,))


# -------------------------------------------------------------------- caching

def _cache_dir():
    override = os.environ.get(CACHE_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "springercenter")


@functools.cache
def _source_digest():
    """sha256 of the package's .py sources.  Read on the first cache
    access, not at import, so runs without the cache never pay it."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            h.update(b"%s\0%d\0" % (name.encode(), len(data)) + data)
    return h.hexdigest()


def _cache_key(payload):
    # keyed on the source too, so edited code never reads older numbers
    blob = json.dumps(dict(payload, source=_source_digest()),
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_get(payload, valid):
    """The cached result for payload, or None when there is none or it
    fails valid(): an entry of the wrong shape is a miss, not a crash."""
    path = os.path.join(_cache_dir(), _cache_key(payload) + ".json")
    try:
        with open(path) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        return None
    return result if valid(result) else None


def cache_put(payload, result):
    """Store result for payload.  A cache directory that cannot be made
    or written to is warned about and skipped: the result is still
    returned to the command that computed it."""
    d = _cache_dir()
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    except OSError as ex:
        log.warning("result not cached: %s", ex)
        return
    path = os.path.join(d, _cache_key(payload) + ".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(result, fh)
        os.replace(tmp, path)
    except OSError as ex:
        log.warning("result not cached: %s", ex)
        try:
            os.unlink(tmp)
        except OSError:
            pass


# ------------------------------------------------------------------ rendering

def _diamond_json(m, diamond):
    entries = [{"i": i, "j": j, "h": h} for (i, j), h in sorted(diamond.items())]
    return {"m": m, "entries": entries, "total": sum(diamond.values()),
            "tool_version": __version__}


def _render_diamond(m, diamond, fmt, out):
    if fmt == "json":
        json.dump(_diamond_json(m, diamond), out, indent=2)
        out.write("\n")
        return
    if fmt == "csv":
        out.write("i,j,h\n")
        for (i, j), h in sorted(diamond.items()):
            out.write("%d,%d,%d\n" % (i, j, h))
        return
    n = m * (m - 1) // 2
    rows = []
    for s in range(0, 2 * n + 1, 2):
        row = [(i, s - i) for i in range(s, -1, -1) if (i, s - i) in diamond]
        rows.append(row)
    if fmt == "latex":
        width = max(len(r) for r in rows)
        out.write("\\begin{tabular}{%s}\n" % ("r" * width))
        for row in rows:
            cells = ["%d" % diamond[k] for k in row]
            out.write(" & ".join(cells + [""] * (width - len(cells))).rstrip() + " \\\\\n")
        out.write("\\end{tabular}\n")
        return
    # pretty
    for s, row in zip(range(0, 2 * n + 1, 2), rows):
        cells = " ".join("%4d" % diamond[k] for k in row)
        out.write("k=%-2d  %s\n" % (s, cells))
    out.write("total %d\n" % sum(diamond.values()))


# ----------------------------------------------------------------- subcommands

def _cached(args, payload, valid, compute):
    """compute(), through the result cache under payload unless
    --no-cache is given; a cached result failing valid() is recomputed."""
    result = None if args.no_cache else cache_get(payload, valid)
    if result is not None:
        log.info("cache hit for m=%d via %s", args.m, payload["method"])
        return result
    result = compute()
    if not args.no_cache:
        cache_put(payload, result)
    return result


def _diamond(args, method):
    """The diamond of args.m on one route, through the result cache."""
    payload = {"cmd": "diamond", "m": args.m, "method": method,
               "version": __version__}
    keys = {"%d,%d" % e for e in bgg.diamond_entries(args.m)}

    # type, not isinstance: JSON true loads as a bool, which is an int
    def valid(res):
        return (isinstance(res, dict) and set(res) == keys
                and all(type(v) is int for v in res.values()))

    def compute():
        log.info("computing diamond for m=%d via %s", args.m, method)
        t0 = time.monotonic()
        diamond = bgg.hodge_diamond(args.m, jobs=args.jobs, method=method)
        log.info("diamond for m=%d done in %.1fs", args.m, time.monotonic() - t0)
        return {"%d,%d" % k: v for k, v in diamond.items()}

    result = _cached(args, payload, valid, compute)
    return {tuple(map(int, k.split(","))): v for k, v in result.items()}


def cmd_diamond(args):
    if args.method == "both":
        a, b = _diamond(args, "bgg"), _diamond(args, "ce")
        bad = [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
        for k in bad:
            log.error("entry %r: resolution %r vs lie-algebra %r",
                      k, a.get(k), b.get(k))
        if bad:
            return 2
        diamond = a
    else:
        diamond = _diamond(args, args.method)
    _render_diamond(args.m, diamond, args.format, sys.stdout)
    return 0


def cmd_cohomology(args):
    try:
        node = parse_expression(args.expr)
    except ParseError as ex:
        log.error("cannot parse expression: %s", ex)
        return 1
    lam = tuple(int(c) for c in args.lam.split(",")) if args.lam else None
    if lam is not None and len(lam) != args.m - 1:
        log.error("lam needs %d coordinates", args.m - 1)
        return 1
    # the resolution is generated for lam = 0 only, so a nonzero lam
    # runs on the Lie algebra cohomology route
    method = "ce" if lam is not None and any(lam) else args.method
    payload = {"cmd": "cohomology", "m": args.m, "expr": render_expression(node),
               "lam": lam, "method": method, "version": __version__}

    # type, not isinstance: JSON true loads as a bool, which is an int
    def valid(res):
        return (isinstance(res, dict) and isinstance(res.get("expr"), str)
                and isinstance(res.get("profile"), list)
                and all(type(v) is int for v in res["profile"]))

    def compute():
        # a temporary module, so that the route can drop it before its ranks
        profile = (ce_oracle.ce_cohomology(build_module(args.m, node), lam) if method == "ce"
                   else bgg.multiplicity(build_module(args.m, node)))
        return {"m": args.m, "expr": render_expression(node),
                "lam": list(lam) if lam else None, "method": method,
                "profile": profile, "tool_version": __version__}

    result = _cached(args, payload, valid, compute)
    if args.format == "json":
        json.dump(result, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif args.format == "csv":
        sys.stdout.write("degree,multiplicity\n")
        for d, v in enumerate(result["profile"]):
            sys.stdout.write("%d,%d\n" % (d, v))
    else:
        sys.stdout.write("%s  ->  %s\n" % (result["expr"], result["profile"]))
    return 0


def cmd_compare_dc(args):
    computed = _diamond(args, "bgg")
    predicted = coinvariants.expected_diamond_from_dc(args.m)
    keys = sorted(set(computed) | set(predicted))
    bad = [k for k in keys if computed.get(k, 0) != predicted.get(k, 0)]
    report = {"m": args.m,
              "entries": [{"i": i, "j": j, "h": computed.get((i, j), 0),
                           "dc": predicted.get((i, j), 0)} for (i, j) in keys],
              "total": sum(computed.values()),
              "match": not bad,
              "tool_version": __version__}
    if args.format == "json":
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for (i, j) in keys:
            mark = "" if computed.get((i, j), 0) == predicted.get((i, j), 0) else "  <- MISMATCH"
            sys.stdout.write("(%d,%d)  sheaf=%d  dc=%d%s\n"
                             % (i, j, computed.get((i, j), 0), predicted.get((i, j), 0), mark))
        sys.stdout.write("match: %s\n" % ("yes" if not bad else "no"))
    if bad:
        log.error("%d entries disagree for m=%d", len(bad), args.m)
        return 2
    return 0


def cmd_verify(args):
    # suites that read the diamond share one computation per run, never
    # read from the cache, so they check what this code computes
    @functools.cache
    def get_diamond():
        return bgg.hodge_diamond(args.m)

    failures = 0
    for name, fn in checks.SUITES:
        if args.suite not in ("all", name):
            continue
        t0 = time.monotonic()
        try:
            fn(args.m, get_diamond)
            ok = True
        except Exception as ex:  # a failed invariant or a crash, not a usage error
            log.error("suite %s failed: %s: %s", name, type(ex).__name__, ex)
            ok = False
        sys.stdout.write("%s: %s (%.2fs)\n"
                         % ("PASS" if ok else "FAIL", name, time.monotonic() - t0))
        failures += not ok
    return 2 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="springercenter",
        description="Exact bigraded cohomology tables for the Springer resolution of sl_m.")
    parser.add_argument("--verbose", "-v", action="store_true", help="chatty stderr logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "csv", "latex", "pretty"), jobs=False, cache=True):
        p.add_argument("--m", type=int, required=True, help="rank parameter of sl_m")
        if formats:
            p.add_argument("--format", default="pretty", choices=formats)
        if cache:
            p.add_argument("--no-cache", action="store_true")
        if jobs:
            p.add_argument("--jobs", type=int, default=1,
                           help="parallel workers for independent entries")

    p = sub.add_parser("diamond", help="full bigraded dimension table")
    common(p, jobs=True)
    p.add_argument("--method", default="bgg", choices=["bgg", "ce", "both"])
    p.set_defaults(fn=cmd_diamond)

    p = sub.add_parser("cohomology", help="multiplicity profile of one bundle")
    common(p, formats=("json", "csv", "pretty"))
    p.add_argument("--expr", required=True, help="bundle expression, e.g. 'wedge^2(n) (x) u'")
    p.add_argument("--lam", default=None,
                   help="dominant weight as comma separated fundamental coordinates")
    p.add_argument("--method", default="bgg", choices=["bgg", "ce"])
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("compare-dc", aliases=["compare_dc"],
                       help="diamond vs diagonal coinvariant prediction")
    common(p, formats=("json", "pretty"), jobs=True)
    p.set_defaults(fn=cmd_compare_dc)

    p = sub.add_parser("verify", help="structural self checks")
    common(p, formats=(), cache=False)
    p.add_argument("--suite", default="all",
                   choices=["all"] + [name for name, _ in checks.SUITES])
    p.set_defaults(fn=cmd_verify)

    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 1 if ex.code not in (0, None) else 0
    # force: each call sets its own level and stream, not the first call's
    logging.basicConfig(stream=sys.stderr,
                        level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(message)s", force=True)
    if getattr(args, "m", None) is not None and args.m < 2:
        log.error("need m >= 2")
        return 1
    if getattr(args, "jobs", 1) < 1:
        log.error("need --jobs >= 1, got %d", args.jobs)
        return 1
    if args.fn in (cmd_diamond, cmd_compare_dc, cmd_verify) and args.m > MAX_DIAMOND_M:
        log.error("%s --m %d refused: the whole diamond is built only for m <= %d, "
                  "as some sl6 entries have terms of over 18 million dims",
                  args.command, args.m, MAX_DIAMOND_M)
        return 1
    try:
        return args.fn(args)
    except (ParseError, ValueError, bgg.EntryFailed) as ex:
        log.error("%s", ex)
        return 1


if __name__ == "__main__":
    sys.exit(main())
