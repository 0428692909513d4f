import json
import logging
import os
import subprocess
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import springercenter
from springercenter import bgg, cli, springer
from springercenter.exactla import CochainComplex
from springercenter.cli import (
    parse_expression, render_expression, build_module, ParseError, main,
)


atoms = st.sampled_from([("atom", a) for a in ("g", "b", "n", "u", "trivial")])


def expr_nodes():
    return st.recursive(
        atoms | st.tuples(st.just("V"), st.integers(1, 3), st.integers(0, 2)),
        lambda sub: st.one_of(
            st.tuples(st.just("dual"), sub),
            st.tuples(st.just("wedge"), st.integers(0, 3), sub),
            st.tuples(st.just("sym"), st.integers(0, 3), sub),
            st.tuples(st.just("tensor"), sub, sub),
            st.tuples(st.just("sum"), sub, sub),
        ),
        max_leaves=6,
    )


@given(expr_nodes())
@settings(max_examples=80, deadline=None)
def test_parser_round_trip(node):
    assert parse_expression(render_expression(node)) == node


def test_parse_basic_forms():
    assert parse_expression("g") == ("atom", "g")
    assert parse_expression("n (x) u") == ("tensor", ("atom", "n"), ("atom", "u"))
    assert parse_expression("wedge^2(n) (x) u") == (
        "tensor", ("wedge", 2, ("atom", "n")), ("atom", "u"))
    assert parse_expression("g (+) n (x) u") == (
        "sum", ("atom", "g"), ("tensor", ("atom", "n"), ("atom", "u")))
    assert parse_expression("V(2,1)") == ("V", 2, 1)
    assert parse_expression("dual( n )") == ("dual", ("atom", "n"))


def test_unicode_operator_aliases():
    assert parse_expression("n ⊗ u") == parse_expression("n (x) u")
    assert parse_expression("g ⊕ n") == parse_expression("g (+) n")


def test_parse_errors_carry_positions():
    for text in ["", "g (x)", "wedge^(n)", "foo", "g))", "V(2)"]:
        with pytest.raises(ParseError):
            parse_expression(text)


def test_build_module_dimensions():
    assert build_module(3, parse_expression("g")).dim == 8
    assert build_module(3, parse_expression("wedge^2(n)")).dim == 3
    assert build_module(3, parse_expression("n (x) u")).dim == 9
    assert build_module(3, parse_expression("g (+) trivial")).dim == 9
    assert build_module(3, parse_expression("V(1,1)")).dim == 3


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_diamond_json_schema(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, out, _ = run(["diamond", "--m", "2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 2
    assert doc["total"] == 3
    assert doc["tool_version"]
    assert {(e["i"], e["j"]): e["h"] for e in doc["entries"]} == {
        (0, 0): 1, (1, 1): 1, (0, 2): 1}


def test_diamond_cache_round_trip(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, first, _ = run(["diamond", "--m", "2", "--format", "json"], capsys)
    assert code == 0
    assert len(os.listdir(tmp_path)) == 1
    code, second, _ = run(["diamond", "--m", "2", "--format", "json"], capsys)
    assert code == 0
    assert first == second


def test_entry_written_by_other_sources_is_not_served(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    real = cli._source_digest()
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    code, _, _ = run(["diamond", "--m", "2", "--format", "json"], capsys)
    assert code == 0
    [name] = os.listdir(tmp_path)
    (tmp_path / name).write_text(json.dumps({"0,0": 5, "1,1": 5, "0,2": 5}))
    code, out, _ = run(["diamond", "--m", "2", "--format", "json"], capsys)
    assert json.loads(out)["total"] == 15  # the other sources read their entry
    monkeypatch.setattr(cli, "_source_digest", lambda: real)
    code, out, _ = run(["diamond", "--m", "2", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["total"] == 3
    assert len(os.listdir(tmp_path)) == 2


@pytest.mark.parametrize("bad", ['[]', '{"0,0": 1}', '{"0,0": "1", "1,1": 1, "0,2": 1}',
                                 '"x"', '{"0,0": true, "1,1": false, "0,2": true}'])
def test_wrong_shaped_diamond_entry_is_recomputed(tmp_path, monkeypatch, capsys, bad):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, first, _ = run(["diamond", "--m", "2"], capsys)
    assert code == 0
    [name] = os.listdir(tmp_path)
    (tmp_path / name).write_text(bad)
    code, again, err = run(["diamond", "--m", "2"], capsys)
    assert (code, again, err) == (0, first, "")
    assert json.loads((tmp_path / name).read_text()) == {"0,0": 1, "1,1": 1, "0,2": 1}


def test_wrong_shaped_cohomology_entry_is_recomputed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    argv = ["cohomology", "--m", "2", "--expr", "g"]
    code, first, _ = run(argv, capsys)
    assert code == 0
    for bad in ['[]', '{"expr": "g"}', '{"expr": "g", "profile": [1, "x"]}',
                '{"expr": "g", "profile": [true, false]}']:
        [name] = os.listdir(tmp_path)
        (tmp_path / name).write_text(bad)
        assert run(argv, capsys) == (0, first, "")


@pytest.mark.parametrize("argv", [["diamond", "--m", "2"],
                                  ["cohomology", "--m", "2", "--expr", "g"]])
def test_unusable_cache_directory_is_skipped_with_a_warning(tmp_path, monkeypatch, capsys,
                                                            argv):
    code, expected, _ = run(argv + ["--no-cache"], capsys)
    assert code == 0
    blocker = tmp_path / "file"
    blocker.write_text("")
    # makedirs raises FileExistsError on the file, NotADirectoryError below it
    for cache in (blocker, blocker / "sub"):
        monkeypatch.setenv(cli.CACHE_ENV, str(cache))
        code, out, err = run(argv, capsys)
        assert (code, out) == (0, expected)
        assert "WARNING result not cached" in err
    assert blocker.read_text() == ""


def test_failed_cache_write_is_warned_about_and_cleaned_up(tmp_path, monkeypatch, capsys):
    def full(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(cli.os, "replace", full)
    code, out, err = run(["diamond", "--m", "2"], capsys)
    assert code == 0 and out.endswith("total 3\n")
    assert "WARNING result not cached: [Errno 28]" in err
    assert not os.listdir(tmp_path)


def test_no_cache_leaves_directory_empty(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, _, _ = run(["diamond", "--m", "2", "--no-cache"], capsys)
    assert code == 0
    assert not os.listdir(tmp_path)


def test_cohomology_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, out, _ = run(["cohomology", "--m", "3", "--expr", "wedge^2(n) (x) u",
                        "--format", "json", "--no-cache"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["profile"] == [0, 3, 0, 0]


def test_cohomology_ce_method_agrees(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    base = ["cohomology", "--m", "3", "--expr", "n (x) u",
            "--format", "json", "--no-cache"]
    _, a, _ = run(base + ["--method", "bgg"], capsys)
    _, b, _ = run(base + ["--method", "ce"], capsys)
    assert json.loads(a)["profile"] == json.loads(b)["profile"]


@pytest.mark.parametrize("method", ["bgg", "ce"])
def test_cohomology_drops_the_module_before_ranking(method, monkeypatch, capsys):
    # a generic module keeps its factors alive through its action, so
    # neither the command nor the route may hold it through the ranks
    modules, alive = [], []
    build, ranks = cli.build_module, CochainComplex.cohomology_dims

    def build_spy(m, node):
        mod = build(m, node)
        modules.append(weakref.ref(mod))
        return mod

    def ranks_spy(cx):
        alive.append(modules[-1]() is not None)
        return ranks(cx)

    monkeypatch.setattr(cli, "build_module", build_spy)
    monkeypatch.setattr(CochainComplex, "cohomology_dims", ranks_spy)
    code, out, _ = run(["cohomology", "--m", "3", "--expr", "wedge^2(n) (x) u",
                        "--method", method, "--format", "json", "--no-cache"], capsys)
    assert code == 0
    assert json.loads(out)["profile"] == [0, 3, 0, 0]
    assert alive == [False]


def test_cohomology_at_nonzero_lam_reports_the_route_it_ran(tmp_path, monkeypatch, capsys):
    # the resolution is generated for lam = 0 only, so --method bgg at a
    # nonzero lam runs the Lie algebra cohomology route and is cached as it
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    base = ["cohomology", "--m", "3", "--expr", "u", "--lam", "1,1", "--format", "json"]
    _, a, _ = run(base + ["--method", "bgg"], capsys)
    _, b, _ = run(base + ["--method", "ce"], capsys)
    assert json.loads(a)["method"] == json.loads(b)["method"] == "ce"
    assert json.loads(a)["profile"] == json.loads(b)["profile"] == [1, 0, 0, 0]
    assert len(os.listdir(tmp_path)) == 1


def test_bad_expression_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, _, _ = run(["cohomology", "--m", "3", "--expr", "bogus"], capsys)
    assert code == 1


def test_bad_weight_length_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, _, _ = run(["cohomology", "--m", "3", "--expr", "g", "--lam", "1"], capsys)
    assert code == 1


def test_diamond_both_methods_agree(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, out, _ = run(["diamond", "--m", "3", "--method", "both",
                        "--format", "json", "--no-cache"], capsys)
    assert code == 0
    assert json.loads(out)["total"] == 16


def test_compare_dc_matches(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, out, _ = run(["compare-dc", "--m", "3", "--format", "json",
                        "--no-cache"], capsys)
    assert code == 0
    assert json.loads(out)["match"] is True


def test_verify_all_suites(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, out, _ = run(["verify", "--m", "3"], capsys)
    assert code == 0
    assert "FAIL" not in out
    for name in ("complex", "duality", "sl2", "oracle", "bwb"):
        assert name in out


def test_verify_single_suite(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, out, _ = run(["verify", "--m", "2", "--suite", "duality"], capsys)
    assert code == 0
    assert out.count("PASS") == 1


def _count_entries(monkeypatch):
    computed = []
    real = bgg.hodge_entry

    def counting(m, i, j, method="bgg"):
        computed.append((m, i, j, method))
        return real(m, i, j, method)

    monkeypatch.setattr(bgg, "hodge_entry", counting)
    return computed


def _count_builds(monkeypatch):
    built = []
    real = springer.build_vk_component

    def counting(m, k, r, window=None):
        built.append((m, k, r, None if window is None else frozenset(window)))
        return real(m, k, r, window=window)

    monkeypatch.setattr(springer, "build_vk_component", counting)
    return built


def test_verify_computes_each_diamond_entry_once(tmp_path, monkeypatch, capsys):
    # the duality and sl2 suites both read the diamond; it is computed
    # once per run, and hodge_diamond computes each direct entry once
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    computed = _count_entries(monkeypatch)
    code, out, _ = run(["verify", "--m", "3"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert sorted(computed) == sorted(
        (3, i, j, "bgg") for (i, j) in bgg.diamond_entries(3) if j <= 3)


def test_verify_builds_each_component_once(tmp_path, monkeypatch, capsys):
    # the complex suite builds every diamond component on the whole
    # window, hodge_diamond each direct entry's component on the three
    # terms around its degree, and the duality suite the component of
    # each mirrored entry (i, j), j > 3, on the same per-degree window
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    built = _count_builds(monkeypatch)
    code, out, _ = run(["verify", "--m", "3"], capsys)
    assert code == 0
    assert "FAIL" not in out
    entries = bgg.diamond_entries(3)
    whole = frozenset(bgg.cochain_window(3))
    near = {i: frozenset(bgg.cochain_window(3, max(i - 1, 0), min(i + 1, 3))) for i in range(4)}
    want = {(3, *bgg.entry_component(3, i, j), whole) for (i, j) in entries}
    want |= {(3, *bgg.entry_component(3, i, j), near[i]) for (i, j) in entries if j <= 3}
    want |= {(3, j, (i + j) // 2, near[i]) for (i, j) in entries if j > 3}
    windows = {whole, *near.values()}
    assert {b for b in built if b[3] in windows} == want
    # the witness suite builds V_2^{-2} on {0, -alpha_1, -alpha_2}, which
    # is also the degree-0 window of entry (0, 2); nothing else repeats
    repeats = {b: n for b, n in Counter(built).items() if n > 1}
    assert repeats == {(3, 2, 1, near[0]): 2}


def test_oracle_suite_builds_each_component_once(monkeypatch, capsys):
    built = _count_builds(monkeypatch)
    code, out, _ = run(["verify", "--m", "3", "--suite", "oracle"], capsys)
    assert code == 0
    assert out.startswith("PASS: oracle")
    # each complete component once, although (i, j) and (i, 6 - j) share one
    want = {(3, min(j, 6 - j), (i + min(j, 6 - j)) // 2, None)
            for (i, j) in bgg.diamond_entries(3)}
    assert sorted(built) == sorted(want)


def test_ce_diamond_builds_each_component_once(monkeypatch, capsys):
    built = _count_builds(monkeypatch)
    code, out, _ = run(["diamond", "--m", "3", "--method", "ce", "--no-cache"], capsys)
    assert code == 0
    assert out.endswith("total 16\n")
    # 10 entries, but (i, j) and (i, 6 - j) share one complete component
    want = {(3, min(j, 6 - j), (i + min(j, 6 - j)) // 2, None)
            for (i, j) in bgg.diamond_entries(3)}
    assert len(want) == 6
    assert sorted(built) == sorted(want)


def test_compare_dc_reads_the_cached_diamond(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, _, _ = run(["diamond", "--m", "3"], capsys)
    assert code == 0
    computed = _count_entries(monkeypatch)
    code, out, _ = run(["compare-dc", "--m", "3"], capsys)
    assert code == 0
    assert out.endswith("match: yes\n")
    assert computed == []
    code, again, _ = run(["compare-dc", "--m", "3", "--no-cache"], capsys)
    assert (code, again) == (0, out)
    assert sorted(computed) == sorted(
        (3, i, j, "bgg") for (i, j) in bgg.diamond_entries(3) if j <= 3)


def test_verify_rejects_no_cache(capsys):
    code, _, _ = run(["verify", "--m", "2", "--no-cache"], capsys)
    assert code == 1


@pytest.mark.parametrize("argv", [["verify", "--m", "2", "--format", "json"],
                                  ["cohomology", "--m", "2", "--expr", "g", "--format", "latex"],
                                  ["compare-dc", "--m", "2", "--format", "csv"],
                                  ["compare-dc", "--m", "2", "--format", "latex"]])
def test_formats_a_command_cannot_render_are_rejected(argv, capsys):
    code, out, _ = run(argv, capsys)
    assert (code, out) == (1, "")


def test_verify_names_a_mirrored_entry_that_disagrees():
    # h^{1,5} and its copy h^{1,7} both one too high: the duality suite
    # recomputes (1, 7) from its own component and names it on stderr
    code = "\n".join([
        "import sys",
        "from springercenter import bgg, cli",
        "real = bgg.hodge_diamond",
        "def raised(m, jobs=1, method='bgg'):",
        "    diamond = real(m, jobs, method)",
        "    diamond[(1, 5)] += 1",
        "    diamond[(1, 7)] += 1",
        "    return diamond",
        "bgg.hodge_diamond = raised",
        "sys.exit(cli.main(['verify', '--m', '4', '--suite', 'duality']))",
    ])
    src = os.path.dirname(os.path.dirname(springercenter.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout.startswith("FAIL: duality")
    assert "entry (1, 7)" in proc.stderr


def test_parallel_ce_diamond_matches_serial(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    argv = ["diamond", "--m", "3", "--method", "ce", "--no-cache"]
    code, serial, _ = run(argv, capsys)
    assert code == 0
    assert run(argv + ["--jobs", "2"], capsys) == (0, serial, "")


@pytest.fixture
def root_logging():
    """The root logger's handlers and level, put back after the test:
    main() replaces them on every call."""
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    yield
    for handler in root.handlers[:]:
        root.removeHandler(handler)
    for handler in handlers:
        root.addHandler(handler)
    root.setLevel(level)


@pytest.mark.parametrize("argv", [["diamond", "--m", "2", "--jobs", "-5"],
                                  ["compare-dc", "--m", "2", "--jobs", "0"]])
def test_jobs_below_one_is_refused(argv, monkeypatch, capsys, root_logging):
    # refused before any diamond is computed, so no pool is started
    called = []
    monkeypatch.setattr(bgg, "hodge_diamond", lambda *a, **k: called.append(a))
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert called == []
    assert "ERROR need --jobs >= 1" in err


def test_each_main_call_sets_its_own_logging(tmp_path, monkeypatch, capsys, root_logging):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    argv = ["diamond", "--m", "2", "--no-cache"]
    code, _, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert not logging.getLogger().isEnabledFor(logging.INFO)
    # a later -v call is chatty, on the stderr of its own call
    code, _, err = run(["-v"] + argv, capsys)
    assert code == 0
    assert logging.getLogger().isEnabledFor(logging.INFO)
    assert "INFO computing diamond for m=2" in err
    code, _, err = run(["diamond", "--m", "1"], capsys)
    assert code == 1
    assert err == "ERROR need m >= 2\n"


def test_bad_usage_exits_1(capsys):
    code, _, _ = run(["diamond"], capsys)  # missing --m
    assert code == 1


@pytest.mark.parametrize("command", ["diamond", "compare-dc", "verify"])
def test_whole_diamond_past_sl5_is_refused_before_building(command, tmp_path, monkeypatch,
                                                           capsys):
    # an sl6 diamond reaches terms of 18.3M dims; it must stop before
    # the resolution is even generated
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    called = []
    monkeypatch.setattr(bgg, "bgg_data", lambda m: called.append(m))
    for m in ("6", "7"):
        assert run([command, "--m", m], capsys)[:2] == (1, "")
    assert called == []
