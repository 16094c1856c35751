"""Which ``src/`` functions does no bench report enter?

Generates the three bench workloads at seeds 1 and 9001 into a temporary
directory by ``tools/report_digests.py``'s ``reports_of`` (the bench's own
generator, ``bench/workloads.py``), runs every report through
``orbitlab.cli.main`` in this process under
``sys.setprofile``, and prints each function or method defined in
``src/orbitlab`` that no report called, then their count.  Nested
functions count as functions of their own.

    python3 tools/reachability.py

Not part of the test suite: a full run takes a few seconds.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "orbitlab")


def defined_functions() -> dict[tuple[str, int], str]:
    """``(file, first line) -> module:qualname`` of every def in the package;
    the first line is the first decorator's, as a code object counts it."""
    out = {}
    for fn in sorted(os.listdir(PKG)):
        if not fn.endswith(".py"):
            continue
        path = os.path.join(PKG, fn)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(path, first)] = f"{fn[:-3]}:{name}"
                    walk(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return out


def main() -> int:
    sys.path[:0] = [SRC, os.path.join(ROOT, "bench")]
    from report_digests import SEEDS, reports_of
    from workloads import WORKLOADS
    import orbitlab.cli as cli

    entered: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    reports = failed = 0
    with tempfile.TemporaryDirectory(prefix="orbitlab-reach-") as work:
        for workload in WORKLOADS:
            for seed in SEEDS:
                for rep in reports_of(workload, seed, os.path.join(work, f"{workload}-{seed}")):
                    sink = io.StringIO()
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        sys.setprofile(profile)
                        try:
                            rc = cli.main(list(rep["argv"]))
                        finally:
                            sys.setprofile(None)
                    reports += 1
                    failed += rc != 0

    defs = defined_functions()
    unreached = sorted((name, line) for (path, line), name in defs.items()
                       if (path, line) not in entered)
    for name, line in unreached:
        print(f"{name} (line {line})")
    print(f"{len(unreached)} of {len(defs)} functions unreached by {reports} reports"
          f" ({failed} with a nonzero exit)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
