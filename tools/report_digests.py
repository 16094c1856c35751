"""One sha256 per bench report, to compare the reports of two trees.

    python3 tools/report_digests.py SRC WORKDIR

``SRC`` is the ``src`` directory of the tree whose ``orbitlab`` runs the
reports.  ``WORKDIR`` holds the inputs: the three bench workloads at seeds
1 and 9001, generated by the bench's own generator (``bench/workloads.py``
of this checkout) into ``WORKDIR/<workload>-<seed>`` on the first run, with
a ``reports.json`` list of the reports, and read from there on every later
run.  Each report runs in this process through ``orbitlab.cli.main``, after
its output directory is cleared, and one line is printed per report:

    <workload>-<seed> <rid>:<label> <sha256>

The digest covers the exit code, standard output, standard error and every
file the report wrote but ``*.timing.json``.  Reports embed input paths, so
two trees compare only on one shared ``WORKDIR``:

    python3 tools/report_digests.py ../parent/src /tmp/inputs > parent.txt
    python3 tools/report_digests.py src /tmp/inputs > change.txt
    diff parent.txt change.txt

Not part of the test suite: a full run takes a few seconds.
"""

from __future__ import annotations

import os

# one BLAS thread, as the bench pins it, so matrix reports round alike
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 9001)


def reports_of(workload: str, seed: int, root: str) -> list[dict]:
    """The reports of one workload and seed, their inputs generated under
    ``root`` once and listed in ``root/reports.json``."""
    listing = os.path.join(root, "reports.json")
    if not os.path.isfile(listing):
        from workloads import generate
        reports = [{"rid": r.rid, "label": r.label, "argv": list(r.argv), "out_dir": r.out_dir}
                   for r in generate(workload, seed, root)]
        with open(listing, "w") as fh:
            json.dump(reports, fh, indent=1)
    with open(listing) as fh:
        return json.load(fh)


def digest(main, rep: dict) -> str:
    """sha256 of one report's exit code, stdout, stderr and output files."""
    shutil.rmtree(rep["out_dir"], ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(rep["argv"]))
        except SystemExit as exc:
            code = exc.code
    h = hashlib.sha256(f"{code}\0".encode())
    h.update(out.getvalue().encode() + b"\0" + err.getvalue().encode() + b"\0")
    for top, _, files in sorted(os.walk(rep["out_dir"])):
        for name in sorted(files):
            if name.endswith(".timing.json"):
                continue
            path = os.path.join(top, name)
            h.update(os.path.relpath(path, rep["out_dir"]).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/report_digests.py SRC WORKDIR", file=sys.stderr)
        return 2
    src, work = (os.path.abspath(a) for a in argv)
    if not os.path.isfile(os.path.join(src, "orbitlab", "__init__.py")):
        print(f"error: no orbitlab sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, os.path.join(ROOT, "bench")]
    import orbitlab.cli as cli
    from workloads import WORKLOADS
    for workload in WORKLOADS:
        for seed in SEEDS:
            name = f"{workload}-{seed}"
            for rep in reports_of(workload, seed, os.path.join(work, name)):
                print(f"{name} {rep['rid']}:{rep['label']} {digest(cli.main, rep)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
