"""Run one workload's queries in this (fresh) process and check each output.

Started by ``run.py``; not meant to be run by hand.  It prints ``ready``
once topolab is imported and the inputs are generated, then (unless
``--setup-only``) runs whole passes over the query list, one query at a
time, until the next pass would end after ``--seconds``.  A query's
latency is its lowest over the passes, in seconds at the reference host
speed (hostspeed.py).  The last stdout line is one JSON object with the
summed and the largest latency, the failures and, with ``--trace 1``, the
per-layer spans per pass.

A query fails on an exception, a nonzero exit, a timeout, an
``oracle agrees`` / ``lemma agrees with oracle`` line that is not ``true``
or missing, or an output whose digest differs from ``references.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import signal
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
QUERY_TIMEOUT_S = 120.0
REFERENCES = os.path.join(HERE, "references.json")
# perm-sweep digests hold for this seed only; its invariants hold for all
REFERENCE_SEED = 0
_SEED_ECHO = re.compile(r'"seed": -?\d+')
_PERM_INVARIANTS = ("group order:", "trivial centralizer in S(X):", "condition (",
                    "full centralizer order:")


class QueryTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so no handler in topolab eats it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def digest(text: str) -> str:
    # JSON reports echo the CLI --seed; the rest of every output is seed-free
    return hashlib.sha256(_SEED_ECHO.sub('"seed": 0', text).encode()).hexdigest()


def perm_invariants(text: str) -> list[str]:
    """The lines of a perm report that do not depend on point labels."""
    out = []
    for line in text.splitlines():
        if line.startswith("condition ("):
            out.append(line[: len("condition (a)")])
        elif line.startswith(_PERM_INVARIANTS):
            out.append(line)
    return out


def file_key(name: str) -> str:
    return f"file {name}"


def import_topolab():
    sys.path.insert(0, SRC)
    import topolab
    import topolab.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(topolab.__file__))) != SRC:
        raise SystemExit(f"topolab was imported from {topolab.__file__}, not from {SRC}")
    return topolab


def run_query(tl, query, seed: int, timeout: float) -> tuple[int, str]:
    """Exit code and stdout of one query, raising QueryTimeout after timeout s."""
    out = io.StringIO()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if query.kind == "cli":
                try:
                    code = tl.cli.main(list(query.args))
                except SystemExit as exc:  # argparse rejects
                    code = exc.code if isinstance(exc.code, int) else 2
            else:
                group = tl.build_group(tl.parse_group_spec(query.args[0]), seed=seed)
                topo, witness = tl.taimanov_topology(group)
                print(f"kernel order {topo.kernel.order}, witness {list(witness.elements)}, "
                      f"centralizer order {witness.centralizer.order}")
                code = 0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue()


def check(workload: str, query, seed: int, code: int, text: str, refs: dict) -> str | None:
    """None if the output is right, else why not."""
    if code != 0:
        return f"exit code {code}"
    for line in text.splitlines():
        if line.startswith(("oracle agrees:", "lemma agrees with oracle:")) and not line.endswith(": true"):
            return line
    argv = query.args
    if argv[0] == "semitop" and "--steps" not in argv and "oracle agrees: true" not in text:
        return "no oracle line"
    if "--oracle" in argv and "--check-lemma" in argv and "lemma agrees with oracle: true" not in text:
        return "no lemma-vs-oracle line"
    ref = refs[workload]
    if workload == "perm-sweep":
        if perm_invariants(text) != ref["invariants"][query.key]:
            return "perm invariants differ from the reference"
        if seed != REFERENCE_SEED:
            return None
        ref = ref["digests"]
    if digest(text) != ref[query.key]:
        return "stdout digest differs from the reference"
    if argv[0] == "lattice":
        dot = argv[argv.index("--dot") + 1]
        try:
            with open(dot, "rb") as fh:
                written = fh.read()
        except OSError as exc:
            return f"DOT file unreadable: {exc}"
        if hashlib.sha256(written).hexdigest() != ref[file_key(dot)]:
            return "DOT file digest differs from the reference"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", type=float, default=160.0,
                        help="seconds after which no query may still run")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.budget

    tl = import_topolab()
    sys.path.insert(0, HERE)
    import tracer as tracing
    from hostspeed import SpeedProbe
    from workloads import queries

    query_list = queries(args.workload, args.seed)
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    clock = time.perf_counter
    spans: list[tuple[str, float, float]] = []  # (key, start, end) of every query run
    span_self: list[dict[str, float]] = []  # traced: each run's self time per function
    passes = 0
    per_query: list[dict] = []
    failures: list[str] = []
    attempted = 0
    probe = SpeedProbe()
    probe.start()
    started = clock()
    while True:
        for query in query_list:
            attempted += 1
            limit = min(QUERY_TIMEOUT_S, deadline - clock())
            if limit <= 0:
                failures.append(f"{query.key}: not started before the run deadline")
                continue
            before = dict(tracer.self_s) if tracer else None
            t0 = clock()
            try:
                code, text = run_query(tl, query, args.seed, limit)
                why = None
            except QueryTimeout:
                code, text, why = -1, "", f"timed out after {limit:.0f} s"
            except Exception as exc:  # any crash of the program is a failed query
                code, text, why = -1, "", f"raised {exc!r}"
            t1 = clock()
            spans.append((query.key, t0, t1))
            if why is None:
                why = check(args.workload, query, args.seed, code, text, refs)
            if why is not None:
                failures.append(f"{query.key}: {why}")
            if tracer:
                tracer.end_query()
                self_times = {k: v - before.get(k, 0.0) for k, v in tracer.self_s.items()
                              if v != before.get(k, 0.0)}
                span_self.append(self_times)
                if passes == 0:
                    per_query.append({"key": query.key, "wall_s": t1 - t0, "self_s": self_times})
            gc.collect()
        passes += 1
        spent = clock() - started
        if spent + spent / passes > args.seconds or clock() >= deadline:
            break
    probe.stop()

    # a query's latency: its lowest over the passes, without the probe's own
    # time, at the reference host speed; traced self times are rescaled alike
    best: dict[str, float] = {}
    raw: dict[str, float] = {}
    scaled_self: dict[str, float] = defaultdict(float)
    for i, (key, t0, t1) in enumerate(spans):
        dt = t1 - t0 - probe.probe_time(t0, t1)
        scaled = dt * probe.scale(t0, t1)
        best[key] = min(scaled, best.get(key, float("inf")))
        raw[key] = min(dt, raw.get(key, float("inf")))
        if tracer:
            for name, self_s in span_self[i].items():
                scaled_self[name] += self_s * scaled / (t1 - t0)

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "passes": passes,
        "wall_s": sum(best.values()),
        "slowest_query_s": max(best.values(), default=0.0),
        "unscaled_wall_s": sum(raw.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["trace"] = {
            "self_s": {k: v / passes for k, v in scaled_self.items()},
            "calls": {k: v / passes for k, v in tracer.calls.items()},
            "counts": {k: v / passes for k, v in tracer.counts.items()},
            "cover_frac": (tracer.top_s - tracer.self_s.get("cli.main", 0.0))
                          / sum(t1 - t0 for _, t0, t1 in spans),
        }
        with open("spans.json", "w", encoding="utf-8") as fh:
            json.dump({"first_pass": per_query, "per_pass": result["trace"]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
