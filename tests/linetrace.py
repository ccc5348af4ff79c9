"""Line trace of ``src/tmsflow`` under the tier-1 suite, subprocesses included.

Run from the repository root::

    python tests/linetrace.py [extra pytest arguments]

The suite runs once under ``sys.settrace`` with a pinned Hypothesis seed. A
temporary ``sitecustomize`` on ``PYTHONPATH`` traces every Python process the
suite starts that keeps that path. The script prints ``file:line: text`` for
each executable line that no process reached, and exits 1 if one of them is
not in ``ALLOWED``; a failing suite exits with its own code. Standard
library only.
"""
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tmsflow"
# (file, stripped source text) -> why the line may stay unreached
ALLOWED = {}
# Imported at start-up by every traced process: records (file, line) of
# each line event in src/tmsflow and writes them on exit, one file a process.
SITE = """import atexit, json, os, sys, threading
root, hits = os.environ["LINETRACE_SRC"], set()
def local(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return local
def call(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(root) else None
def dump():
    with open(os.path.join(os.environ["LINETRACE_OUT"], "%d.json" % os.getpid()), "w") as f:
        json.dump(sorted(hits), f)
sys.settrace(call)
threading.settrace(call)
atexit.register(dump)
"""


def executable(code):
    """The line numbers of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable(const)
    return lines


def main(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp, "hits")
        out.mkdir()
        pathlib.Path(tmp, "sitecustomize.py").write_text(SITE)
        paths = [tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, LINETRACE_SRC=str(SRC), LINETRACE_OUT=str(out),
                   PYTHONPATH=os.pathsep.join(filter(None, paths)))
        suite = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                "--hypothesis-seed=0", *argv], cwd=ROOT, env=env)
        hits = {tuple(h) for f in out.iterdir() for h in json.loads(f.read_text())}
    if suite.returncode:
        print(f"linetrace: the suite failed (exit {suite.returncode})")
        return suite.returncode
    unreached = failing = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable(compile("\n".join(text), str(path), "exec"))):
            if (str(path), line) not in hits:
                src = text[line - 1].strip()
                unreached += 1
                failing += (path.name, src) not in ALLOWED
                print(f"src/tmsflow/{path.name}:{line}: {src}")
    print(f"linetrace: {unreached} unreached, {failing} outside the allowlist")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
