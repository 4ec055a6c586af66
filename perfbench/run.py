"""lsakit benchmark: one closed-loop caller, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It measures the lsakit sources under ``src/``
of that checkout on the pure-Python ``fractions`` backend, and prints one
JSON result as the last line of standard output.  With ``--trace 0`` the
metrics are the end-to-end metrics named in ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics, from a separate traced pass.
A record of the run (with commit, Python version, backend and CPU count) is
written under ``perfbench/out/``; ``perfbench/compare.py`` compares records.

A pass runs every item of the workload once, in seed-shuffled order, each
item only after the previous one returned.  Passes repeat while the next one
is expected to finish within ``--seconds`` (at least one runs), and timings
are medians over passes.  Only the library calls are timed; checking an
answer happens between items, outside the clock.  The end-to-end pass time
``scaled_wall_s`` is rescaled to a nominal machine speed (``speed.py``); the
raw pass times are kept in the record.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5

from spans import LAYERS, Tracer  # noqa: E402
from speed import PlainClock, SpeedProbe, reference_s  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


class SetupError(RuntimeError):
    """The checkout cannot be measured; no result is printed."""


def load_lsakit(src: Path):
    """Import lsakit afresh from ``src``, dropping any earlier import, so that
    each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "lsakit" or m.startswith("lsakit.")]:
        del sys.modules[name]
    lk = importlib.import_module("lsakit")
    if Path(lk.__file__).resolve().parent != (src / "lsakit").resolve():
        raise SetupError(f"lsakit imported from {lk.__file__}, not from {src}")
    return lk


def set_up(workload: str, seed: int, repeats: int):
    """Import lsakit, read documents and draw the seeded inputs, ``repeats``
    times; returns the last workload instance and every set-up time."""
    src = ROOT / "src"
    if not (src / "lsakit" / "__init__.py").is_file():
        raise SetupError(f"no lsakit sources under {src}")
    os.environ["LSAKIT_PURE_RATIONALS"] = "1"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        lk = load_lsakit(src)
        wl = WORKLOADS[workload]()
        wl.setup(lk, ROOT, seed)
        times.append(time.perf_counter() - t0)
    if lk.BACKEND != "fractions":
        raise SetupError(f"backend is {lk.BACKEND}, expected fractions")
    return lk, wl, times


def run_pass(wl, refs: dict, outcomes: list, clock) -> tuple[float, float]:
    """Run every item once; returns the (raw, scaled) time of the library
    calls, as ``clock`` measures them."""
    raw = scaled = 0.0
    for item in wl.items:
        clock.start()
        try:
            result = wl.run(item)
        except Exception as exc:  # an item that raises is a failed item
            outcomes.append(Outcome(errors=[f"{item[0]}: raised {exc!r}"]))
            continue
        finally:
            r, s = clock.stop()
            raw, scaled = raw + r, scaled + s
        try:
            outcomes.append(wl.check(item, result, refs))
        except Exception as exc:  # a malformed answer is a failed item
            outcomes.append(Outcome(errors=[f"{item[0]}: check raised {exc!r}"]))
    return raw, scaled


def repeat_passes(seconds: float, one_pass) -> None:
    """Call ``one_pass`` until the next call is expected to end after
    ``seconds``; it always runs at least once."""
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_pass()
        now = time.perf_counter()
        if (now - begin) + (now - t0) > seconds:
            return


def summary(outcomes: list) -> tuple[int, int, list]:
    errors = [e for o in outcomes for e in o.errors]
    failed = sum(1 for o in outcomes if o.errors)
    return len(outcomes), failed, errors


def end_to_end(wl, refs, seconds, setup_times) -> tuple[dict, list, list]:
    outcomes: list = []
    passes: list = []
    probe = SpeedProbe()
    repeat_passes(seconds, lambda: passes.append(run_pass(wl, refs, outcomes, probe)))
    attempted, failed, _ = summary(outcomes)
    verdicts = sum(o.verdicts for o in outcomes)
    radicals = sum(o.radicals for o in outcomes)
    values = {
        "setup_s": statistics.median(setup_times),
        "scaled_wall_s": statistics.median(scaled for _, scaled in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # A workload that asks no verdict (or computes no radical) has
        # nothing undecided (or inexact): the ratio is 1.
        "decided_ratio": sum(o.decided for o in outcomes) / verdicts if verdicts else 1.0,
        "exact_ratio": sum(o.exact for o in outcomes) / radicals if radicals else 1.0,
        "passed_ratio": 1.0 - failed / attempted,
    }
    return values, outcomes, passes


def counter_hooks() -> dict:
    """Counters measured where the work happens, keyed by span name."""

    def rref(tr, args, result, exc):
        tr.count("linalg.rref.cells", args[0].rows * args[0].cols)

    def contains_vector(tr, args, result, exc):
        tr.count("linalg.contains_vector.hits", bool(result))

    def sparse_rank(tr, args, result, exc):
        tr.count("cohomology.sparse_rank.rows", len(args[0]))
        tr.count("cohomology.sparse_rank.nnz", sum(len(r) for r in args[0]))

    def factor_small(tr, args, result, exc):
        tr.count("polys.factor_small.unsupported",
                 type(exc).__name__ == "UnsupportedDegreeError")

    def is_simple(tr, args, result, exc):
        tr.count("simplicity.is_simple.inconclusive",
                 result is not None and result.verdict.value == "Inconclusive")

    return {
        "linalg.rref": rref,
        "linalg.contains_vector": contains_vector,
        "cohomology.sparse_rank": sparse_rank,
        "polys.factor_small": factor_small,
        "simplicity.is_simple": is_simple,
    }


# Metrics that sum several spans.
SPAN_GROUPS = {"algebra.left_right_matrix": ("algebra.left_matrix", "algebra.right_matrix")}


def layer_values(agg: dict, counts: dict, names: list) -> dict:
    def stat(span, key):
        return sum(agg.get(s, {}).get(key, 0) for s in SPAN_GROUPS.get(span, (span,)))

    values = {}
    for name in names:
        head, _, key = name.rpartition(".")
        if name == "trace.overhead_s":
            continue
        if head in LAYERS and key == "self_s":
            values[name] = sum(v["self_s"] for s, v in agg.items() if s.startswith(head + "."))
        elif key in ("calls", "self_s", "total_s"):
            values[name] = stat(head, key)
        elif key == "hit_ratio":
            calls = stat(head, "calls")
            values[name] = counts.get(head + ".hits", 0) / calls if calls else 0.0
        else:
            values[name] = counts.get(name, 0)
    return values


def per_layer(lk, wl, refs, seconds, names) -> tuple[dict, list, dict, Tracer]:
    """Alternate untraced and traced passes; counts come from each traced
    pass and must repeat exactly, times are medians over traced passes.
    Each pass time is kept with the reference time measured around it, so
    that the tracing overhead compares the two kinds of pass at one machine
    speed."""
    tracer = Tracer()
    clock = PlainClock()
    hooks = counter_hooks()
    outcomes: list = []
    plain, traced, layers, counts_seen = [], [], [], []

    def measured() -> tuple[float, float]:
        before = reference_s()
        raw = run_pass(wl, refs, outcomes, clock)[0]
        return raw, (before + reference_s()) / 2

    def pair():
        plain.append(measured())
        tracer.install(lk, hooks)
        try:
            tracer.reset()
            traced.append(measured())
        finally:
            tracer.uninstall()
        agg = tracer.aggregate()
        counts = dict(tracer.counts)
        counts.update({f"{s}.calls": v["calls"] for s, v in agg.items()})
        counts_seen.append(counts)
        layers.append(layer_values(agg, tracer.counts, names))

    repeat_passes(seconds, pair)
    values = {name: statistics.median(v[name] for v in layers)
              if name.endswith(("_s", "_ratio")) else layers[-1][name]
              for name in layers[0]}
    speed = statistics.median(ref for _, ref in plain + traced)
    values["trace.overhead_s"] = (statistics.median(t * speed / ref for t, ref in traced)
                                  - statistics.median(t * speed / ref for t, ref in plain))
    if any(c != counts_seen[0] for c in counts_seen):
        outcomes.append(Outcome(errors=["trace counts differ between traced passes"]))
    return values, outcomes, counts_seen[-1], tracer


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        refs = json.loads((HERE / "reference.json").read_text())[args.workload]
        lk, wl, setup_times = set_up(args.workload, args.seed,
                                     1 if args.trace else SETUP_REPEATS)
    except (SetupError, OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot set up: {exc!r}", file=sys.stderr)
        return 2

    listed = spec["per_layer" if args.trace else "end_to_end"]
    tracer = counts = passes = None
    if args.trace:
        values, outcomes, counts, tracer = per_layer(
            lk, wl, refs, args.seconds, [m["name"] for m in listed])
    else:
        values, outcomes, passes = end_to_end(wl, refs, args.seconds, setup_times)
    attempted, failed, errors = summary(outcomes)
    for e in errors[:20]:
        print(f"perfbench: {e}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    env = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "backend": lk.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "result": result,
              "setup_s": setup_times, "passes_raw_scaled_s": passes, "counts": counts,
              "errors": errors}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"{args.workload}-spans.json.gz",
                    {"env": env, "workload": args.workload, "seed": args.seed})
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
