import ast
import os
import subprocess
import sys

import pytest

import springercenter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _package_modules():
    """(path relative to the package, parsed tree) of every package module."""
    pkg = os.path.dirname(springercenter.__file__)
    out = []
    for root, _, files in os.walk(pkg):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    out.append((os.path.relpath(path, pkg), ast.parse(fh.read(), filename=path)))
    return out


def test_no_bare_asserts_in_the_package():
    # python -O strips asserts, so an invariant check must raise instead
    modules = _package_modules()
    assert {"exactla.py", "cli.py"} <= {rel for rel, _ in modules}
    found = ["%s:%d" % (rel, node.lineno) for rel, tree in modules
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "bare asserts: %s" % ", ".join(found)


def test_no_unused_top_level_imports_in_the_package():
    # a refactor that leaves an import behind still pays for it on every import
    modules = _package_modules()
    assert {"bmodule.py", "springer.py"} <= {rel for rel, _ in modules}
    found = []
    for rel, tree in modules:
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += ["%s:%d %s" % (rel, node.lineno, name) for name in
                          (alias.asname or alias.name.split(".")[0] for alias in node.names)
                          if name not in used]
    assert not found, "unused imports: %s" % ", ".join(found)


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracer.py wraps package functions by name, so renaming or
    # deleting one would otherwise surface only in a traced benchmark run
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "from tracer import Tracer; Tracer('t').install()")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_counts_a_traced_run():
    # the benchmark's workloads pass through these wrappers and counters,
    # so a call shape a counter no longer matches fails here too
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "from tracer import Tracer; tracer = Tracer('t'); tracer.install(); "
            "from springercenter import bgg, ce_oracle, coinvariants, springer; "
            "coinvariants._dc_table.__wrapped__(3); bgg.hodge_diamond(3); "
            "ce_oracle.ce_cohomology(springer.build_vk_component(3, 2, 1).module); "
            "print(sorted(k for k, v in tracer.counts.items() if v))")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in ("coinvariants.dc_entry.calls", "coinvariants.slice_cols",
                 "bgg.hodge_entry.calls", "ce_oracle.ce_cohomology.calls",
                 "bmodule.root_lower_matrix.calls", "springer.vk_component.calls",
                 "springer.module_dim_sum"):
        assert name in proc.stdout, proc.stdout


@pytest.mark.parametrize("demo", sorted(n for n in os.listdir(os.path.join(ROOT, "demos"))
                                        if n.endswith(".py")))
def test_demo_runs(demo, tmp_path):
    # no test imports the demos, so a renamed public name would break them silently
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
