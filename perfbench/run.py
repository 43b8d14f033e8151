#!/usr/bin/env python3
"""Benchmark of coloredsym, end to end and layer by layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; coloredsym is imported from its
``src`` directory, never from an installed copy.  Workloads:

* ``sweep-poly`` and ``sweep-comb``: cold ``coloredsym verify`` calls, each in
  a fresh interpreter, one per suite per round, round-robin, so a slow
  stretch of the machine falls on every suite alike.
* ``session``: one long-lived interpreter answers a seeded closed-loop stream
  of point queries from one client (see ``queries.py``).

Every operation's output is checked by ``oracle.py``, which does not import
coloredsym.  With ``--trace 0`` the last line of stdout is the result with
every end-to-end metric; with ``--trace 1`` the same operations run under
``tracer.py`` and the result holds every per-layer metric.  Times are scaled
by the reference job in ``ref.py`` (see ``REF_S``).  Result and span files go
to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, HERE)
import oracle  # noqa: E402
import tracer  # noqa: E402

#: workload -> (suite, max_n, max_r) per cold call.  Ranges are cut from the
#: defaults (3-25 s a call) to about 0.1-0.6 s, so that a run holds a dozen
#: or more cold calls of every suite.
SWEEPS = {
    "sweep-poly": [
        ("colored-ribbon-schur", 4, 3),
        ("colored-ribbon-h", 4, 3),
        ("skew-schur-f", 5, None),
        ("ribbon-schur", 6, None),
        ("ribbon-h", 6, None),
    ],
    "sweep-comb": [
        ("class-tableau", 4, 2),
        ("zigzag-count", 6, 3),
        ("rsk", 4, 2),
        ("reading-word", 6, None),
    ],
}
WORKLOADS = [*SWEEPS, "session"]

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Session rounds in one traced unit.
TRACE_ROUNDS = 10

#: Nominal seconds of the reference job, ``ref.py``.  Every time sample is
#: scaled by REF_S / (the reference time taken just before it), so it reads
#: as if measured on a host where the job takes exactly REF_S.  The shared
#: host switches between speeds about 1.7x apart every few seconds, and
#: drifts by up to 2x over minutes; cold coloredsym calls, imports and the
#: job move together, so the scaled times hold still where raw times do not.
REF_S = 0.1

#: Longest a single child call may take before the run is abandoned.
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a fault of one operation)."""


def child_env(seed: int) -> dict:
    """Environment of every child: no COLOREDSYM_* switches (so no jobs
    override and the default kernel choice, which ``Run.started`` checks),
    no inherited PYTHON* settings, the
    checkout's ``src`` on the path and a hash seed fixed by the run seed."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("COLOREDSYM_", "PYTHON")) or k == "PYTHONHOME"
    }
    env.update(
        PYTHONPATH=SRC,
        PYTHONHASHSEED=str(seed % 2**32),
        PERFBENCH_SRC=SRC,
    )
    return env


def child_cmd(*args, script="child.py") -> list:
    # -S: coloredsym needs no site packages, and skipping them shortens the
    # untimed start of each cold interpreter.
    return [sys.executable, "-S", os.path.join(HERE, script), *map(str, args)]


def run_child(env, *args, script="child.py") -> dict:
    try:
        proc = subprocess.run(
            child_cmd(*args, script=script), env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def percentile(xs, q: int) -> float:
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


class Tally:
    """Operations attempted, failed and wrong, with the first witnesses."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.witnesses: list[str] = []

    def add(self, error: str | None = None, wrong: str | None = None) -> None:
        self.attempted += 1
        if error or wrong:
            self.failed += 1
            self.wrong += bool(wrong)
            if len(self.witnesses) < 10:
                self.witnesses.append(error or wrong)


def cold_call(env, suite, max_n, max_r, trace, tally: Tally) -> dict:
    res = run_child(env, "cold", suite, max_n, "-" if max_r is None else max_r, int(trace))
    if res["rc"] != 0:
        tally.add(error=f"verify {suite}: exit {res['rc']}")
        return res
    try:
        reason = oracle.check_verify(json.loads(res["stdout"]), suite, max_n, max_r)
    except (ValueError, LookupError, TypeError) as exc:
        reason = f"malformed report: {exc!r}"
    tally.add(wrong=reason and f"verify {suite}: {reason}")
    return res


def keep_going(started: float, unit_times: list, seconds: float) -> bool:
    """Start another whole unit only if it should end within the window."""
    if not unit_times:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.mean(unit_times) <= seconds


class Run:
    """Samples of one run: set-up time and peak RSS of every interpreter,
    reference times, operation times by kind, and the kernel in use.  Every
    time sample is stored scaled by the reference sample taken before it."""

    def __init__(self):
        self.setup: list = []
        self.ref: list = []
        self.rss_kb: list = []
        self.by_kind: dict = {}
        self.queries: list = []
        self.kernels: set = set()

    def started(self, res: dict) -> None:
        """Check the kernel a new coloredsym interpreter reports: every
        interpreter of a run must use the same one, and it must be Python
        code, since the build compiles no extension module.  A compiled
        kernel can only be a stray build product in ``src``, and it would
        change the kernel times several-fold with nothing else changed."""
        kernel = res["kernel"] and tuple(res["kernel"])
        if kernel and kernel[1] != "python":
            raise BenchError(f"compiled kernel {kernel[0]} in use; remove it from {SRC}")
        self.kernels.add(kernel)
        if len(self.kernels) > 1:
            raise BenchError(f"interpreters used different kernels: {self.kernels}")

    def kernel(self):
        return next(iter(self.kernels), None)

    def interpreter(self, res: dict, k: float) -> None:
        self.started(res)
        self.setup.append(res["import_s"] * k)
        self.rss_kb.append(res["rss_kb"])

    def operation(self, kind: str, seconds: float, k: float) -> None:
        self.by_kind.setdefault(kind, []).append(seconds * k)
        self.queries.append(seconds * k)

    def calibrate(self, env) -> float:
        """Take one reference sample, in a fresh interpreter of its own, and
        return the factor that scales the samples taken right after it.  The
        host holds one speed for seconds at a time, so a sample taken next
        to an operation most often sees the same speed."""
        self.ref.append(run_child(env, script="ref.py")["ref_s"])
        return REF_S / self.ref[-1]

    def end_to_end(self, latencies: list) -> dict:
        """``by_kind`` holds the seconds of each operation kind (a suite or
        a query kind), ``queries`` the seconds of each query (a session
        query or one cold call); p50 and p99 are taken over ``latencies``."""
        return {
            "setup_s": statistics.median(self.setup),
            "sweep_s": sum(statistics.median(ts) for ts in self.by_kind.values()),
            "query_p50_ms": statistics.median(latencies) * 1e3,
            "query_p99_ms": percentile(latencies, 99) * 1e3,
            "queries_per_s": len(self.queries) / sum(self.queries),
            "peak_rss_mb": max(self.rss_kb) / 1024,
        }

    def detail(self) -> dict:
        return {"ref_s": self.ref, "setup_s": self.setup, "kernel": self.kernel(),
                "samples": self.by_kind}


def sweep(workload, seed, seconds, env, tally):
    suites = SWEEPS[workload]
    start = seed % len(suites)
    order = suites[start:] + suites[:start]
    run = Run()
    run.by_kind = {s: [] for s, _, _ in suites}
    round_times: list = []
    started = time.perf_counter()
    while keep_going(started, round_times, seconds):
        t = time.perf_counter()
        for suite, max_n, max_r in order:
            k = run.calibrate(env)
            res = cold_call(env, suite, max_n, max_r, False, tally)
            run.interpreter(res, k)
            run.operation(suite, res["seconds"], k)
        round_times.append(time.perf_counter() - t)
    sys.stderr.write(
        f"{workload}: {len(round_times)} rounds, reference median "
        f"{statistics.median(run.ref):.3f} s, "
        + ", ".join(f"{s} median {statistics.median(v):.3f} s" for s, v in run.by_kind.items())
        + "\n"
    )
    # A run holds 10-21 rounds, too few for a tail: the slowest round is a
    # burst of the shared host more than a property of the program.  So the
    # percentiles are taken over the suites' median cold calls, and p99 is in
    # effect the slowest suite's median.
    medians = [statistics.median(ts) for ts in run.by_kind.values()]
    return run.end_to_end(medians), run.detail()


class Session:
    """A session interpreter driven one round at a time."""

    def __init__(self, env, seed, trace):
        self.proc = subprocess.Popen(
            child_cmd("session", seed, int(trace)), env=env, cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"session interpreter ended (exit {self.proc.wait()})")
        return json.loads(line)

    def ready(self) -> dict:
        return self._read()

    def round(self) -> dict:
        self.proc.stdin.write("round\n")
        self.proc.stdin.flush()
        return self._read()

    def finish(self) -> dict:
        self.proc.stdin.write("exit\n")
        self.proc.stdin.flush()
        final = self._read()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        return final

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def tally_round(reply: dict, tally: Tally, run: Run, k: float = 1.0) -> float:
    """Count one round's queries, scaled by k; returns their summed raw
    seconds."""
    for op in reply["ops"]:
        tally.add(error=op.get("error"), wrong=op.get("wrong"))
        run.operation(op["kind"], op["seconds"], k)
    return sum(op["seconds"] for op in reply["ops"])


def session(seed, seconds, env, tally):
    run = Run()
    round_times: list = []
    sess = Session(env, seed, False)
    try:
        ready = sess.ready()
        run.started(ready)
        k = run.calibrate(env)
        run.setup.append(ready["import_s"] * k)
        started = time.perf_counter()
        while keep_going(started, round_times, seconds):
            t = time.perf_counter()
            # a fresh reference sample before each round, and a fresh
            # interpreter after it for one more set-up sample
            k = run.calibrate(env)
            tally_round(sess.round(), tally, run, k)
            run.interpreter(run_child(env, "import"), k)
            round_times.append(time.perf_counter() - t)
        run.rss_kb.append(sess.finish()["rss_kb"])
    finally:
        sess.close()
    sys.stderr.write(
        f"session: {len(round_times)} rounds, {len(run.queries)} queries, "
        f"reference median {statistics.median(run.ref):.3f} s\n"
    )
    return run.end_to_end(run.queries), run.detail()


def traced_units(workload, seed, seconds, env, tally, run: Run):
    """Repeat one fixed unit of traced work while the window allows; yields
    (summed raw counters, unit seconds, spans, scale factor) per unit."""
    started = time.perf_counter()
    unit_times: list = []
    while keep_going(started, unit_times, seconds):
        t = time.perf_counter()
        k = run.calibrate(env)
        raw: dict = {}
        spans = []
        unit_s = 0.0
        if workload in SWEEPS:
            for suite, max_n, max_r in SWEEPS[workload]:
                res = cold_call(env, suite, max_n, max_r, True, tally)
                run.started(res)
                unit_s += res["seconds"]
                for key, value in res["trace"].items():
                    raw[key] = raw.get(key, 0) + value
                spans.append({"suite": suite, "spans": res["spans"]})
        else:
            sess = Session(env, seed, True)
            try:
                run.started(sess.ready())
                for _ in range(TRACE_ROUNDS):
                    unit_s += tally_round(sess.round(), tally, Run())
                final = sess.finish()
            finally:
                sess.close()
            raw = final["trace"]
            spans.append({"rounds": TRACE_ROUNDS, "spans": final["spans"]})
        unit_times.append(time.perf_counter() - t)
        yield raw, unit_s, spans, k


def traced(workload, seed, seconds, env, tally):
    run = Run()
    units = [
        (tracer.metrics(raw, unit_s), spans, k)
        for raw, unit_s, spans, k in traced_units(workload, seed, seconds, env, tally, run)
    ]
    first = units[0][0]
    out = {}
    for name, value in first.items():
        if name.endswith("_s"):
            out[name] = statistics.median(m[name] * k for m, _, k in units)
        else:
            values = [m[name] for m, _, _ in units]
            if any(v != value for v in values):
                sys.stderr.write(f"warning: {name} differs between traced units: {values}\n")
            out[name] = value
    sys.stderr.write(f"{workload}: {len(units)} traced units\n")
    return out, {"ref_s": run.ref, "kernel": run.kernel(),
                 "units": [m for m, _, _ in units], "spans": units[0][1]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coloredsym", "__init__.py")):
        sys.stderr.write(f"error: no coloredsym sources under {SRC}\n")
        return 2
    env = child_env(args.seed)
    # The build: byte-compile the sources once, so set-up times an import
    # from cached bytecode, as an installed package would.
    tally = Tally()
    try:
        build = subprocess.run(
            [sys.executable, "-S", "-m", "compileall", "-q", os.path.join(SRC, "coloredsym")],
            env=env, cwd=ROOT, capture_output=True, text=True,
        )
        if build.returncode != 0:
            raise BenchError(f"byte-compiling failed: {build.stdout[-2000:]}")
        if args.trace:
            values, detail = traced(args.workload, args.seed, args.seconds, env, tally)
            units = tracer.METRICS
        elif args.workload in SWEEPS:
            values, detail = sweep(args.workload, args.seed, args.seconds, env, tally)
            units = END_TO_END
        else:
            values, detail = session(args.seed, args.seconds, env, tally)
            units = END_TO_END
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    for witness in tally.witnesses:
        sys.stderr.write(f"failed: {witness}\n")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = detail.pop("spans", None)
    with open(stem + ".json", "w") as f:
        json.dump({"result": result, **detail}, f)
    if spans is not None:
        with open(stem + "-spans.json", "w") as f:
            json.dump(spans, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
