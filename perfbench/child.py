"""One fresh interpreter of the benchmark.

    child.py import
    child.py cold SUITE MAX_N MAX_R|- TRACE
    child.py session SEED TRACE

Every mode first times ``import coloredsym, coloredsym.cli`` (one set-up
sample) and reports it with the kernel in use.  ``cold`` then makes one ``verify`` call; ``session`` answers
commands on stdin: ``round`` runs the next round of the seeded query stream
and ``exit`` ends the interpreter.  Each reply is one JSON line on stdout;
the program's own output is captured, so it never mixes with the replies.
Timed regions hold the ``cli.main`` call only: checks run outside them.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
import types

t0 = time.perf_counter()
import coloredsym  # noqa: E402
import coloredsym.cli  # noqa: E402

IMPORT_S = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402


def kernel_in_use():
    """[module, "python" | "compiled"] of the ``mul_terms`` kernel that
    ``coloredsym.symfun`` calls, or None if it binds no such name."""
    fn = getattr(sys.modules.get("coloredsym.symfun"), "mul_terms", None)
    if fn is None:
        return None
    return [fn.__module__, "python" if isinstance(fn, types.FunctionType) else "compiled"]


KERNEL = kernel_in_use()


def call(argv):
    """Run ``cli.main(argv)``; returns (seconds, exit code, stdout text).
    An exception escaping ``main`` is the program's fault, so it becomes the
    exit code of this operation instead of ending the interpreter."""
    buf = io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = coloredsym.cli.main(argv)
    except Exception as exc:  # reported as a failed operation
        traceback.print_exc()
        rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t, rc, buf.getvalue()


def reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cold(suite, max_n, max_r, trace):
    tracer = Tracer().install() if trace else None
    argv = ["verify", "--identity", suite, "--max-n", max_n, "--jobs", "1"]
    if max_r != "-":
        argv += ["--max-r", max_r]
    seconds, rc, out = call(argv)
    reply({
        "import_s": IMPORT_S, "kernel": KERNEL, "seconds": seconds, "rc": rc, "stdout": out,
        "rss_kb": rss_kb(),
        "trace": tracer.snapshot() if tracer else None,
        "spans": tracer.spans() if tracer else None,
    })


def session(seed, trace):
    from queries import check, rounds

    tracer = Tracer().install() if trace else None
    stream = rounds(seed)
    reply({"import_s": IMPORT_S, "kernel": KERNEL})
    while sys.stdin.readline().strip() == "round":
        ops = []
        for q in next(stream):
            dt, rc, out = call(q["argv"])
            op = {"kind": q["kind"], "seconds": dt}
            if rc != 0:
                op["error"] = f"{' '.join(q['argv'])}: exit {rc}"
            else:
                try:
                    reason = check(q, json.loads(out))
                except (ValueError, LookupError, TypeError) as exc:
                    reason = f"malformed output: {exc!r}"
                if reason is not None:
                    op["wrong"] = f"{' '.join(q['argv'])}: {reason}"
            ops.append(op)
        reply({"ops": ops})
    reply({
        "rss_kb": rss_kb(),
        "trace": tracer.snapshot() if tracer else None,
        "spans": tracer.spans() if tracer else None,
    })


def main():
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(coloredsym.__file__).startswith(src + os.sep):
        sys.exit(f"coloredsym was imported from {coloredsym.__file__}, not {src}")
    mode = sys.argv[1]
    if mode == "import":
        reply({"import_s": IMPORT_S, "kernel": KERNEL, "rss_kb": rss_kb()})
    elif mode == "cold":
        cold(*sys.argv[2:5], trace=sys.argv[5] == "1")
    elif mode == "session":
        session(int(sys.argv[2]), trace=sys.argv[3] == "1")
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
