import ast
import os

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
