import ast
import os
import subprocess
import sys

import springercenter


def test_no_bare_asserts_in_the_package():
    # python -O strips asserts, so an invariant check must raise instead
    pkg = os.path.dirname(springercenter.__file__)
    parsed, found = [], []
    for root, _, files in os.walk(pkg):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            parsed.append(name)
            found += ["%s:%d" % (os.path.relpath(path, pkg), node.lineno)
                      for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert "exactla.py" in parsed and "cli.py" in parsed
    assert not found, "bare asserts: %s" % ", ".join(found)


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracer.py wraps package functions by name, so renaming or
    # deleting one would otherwise surface only in a traced benchmark run
    root = os.path.dirname(os.path.dirname(os.path.dirname(springercenter.__file__)))
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "from tracer import Tracer; Tracer('t').install()")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
