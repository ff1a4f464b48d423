"""Benchmark harness for tridnf (stdlib only).

    python3 bench/run.py --workload zoo-sweep [--seed 1] [--seconds 50] [--trace 0]
    python3 bench/run.py --workload all       # every workload, one child process each
    python3 bench/run.py --workload planted-masked --tiny --trace 1

A run is a closed loop: one process, one caller, ops back to back, the
program at its default ``threads=1``.  It makes ``round(seconds /
pass_seconds)`` whole passes over the workload's fixed input list, so the
work depends on the arguments and never on how fast the program is.  Every
distinct input's output is checked once; every later op on that input must
return an equal output.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
passes plain and half with spans around the calls into each tridnf module,
and prints the per-layer metrics (see README.md).  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
NAMES = ("zoo-sweep", "planted-masked", "random-certain")


def import_program():
    """Import tridnf from this checkout's ``src`` and the workloads built on it."""
    package = SRC / "tridnf"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no tridnf source under {SRC}")
    sys.path.insert(0, str(SRC))
    import tridnf
    if Path(tridnf.__file__).resolve().parent != package:
        raise SystemExit(f"bench: imported tridnf from {tridnf.__file__}, not {package}")
    import workloads
    return workloads


class Loop:
    """Ops back to back over whole passes; records times, outputs and failures."""

    def __init__(self, workload) -> None:
        self.w = workload
        self.first: dict[int, tuple[object, object]] = {}
        self.ok_ops = [0] * len(workload.inputs)
        self.log: list[tuple[int, int]] = []  # (input, ns) of every op that succeeded
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer=None) -> list[int]:
        times = []
        for k in range(len(self.w.inputs)):
            self.attempted += 1
            if tracer is not None:
                tracer.op = self.attempted
            start = time.perf_counter_ns()
            try:
                out = self.w.op(k)
            except Exception:  # an op that raises is counted and reported, not fatal
                self.failed += 1
                print(f"op on input {k} raised:", file=sys.stderr)
                traceback.print_exc()
                continue
            finally:
                elapsed = time.perf_counter_ns() - start
                if tracer is not None:
                    tracer.op = None
            key = self.w.key(out)
            if k not in self.first:
                self.first[k] = (out, key)
            elif key != self.first[k][1]:
                self.failed += 1
                print(f"op on input {k} returned a different output than before", file=sys.stderr)
                continue
            self.ok_ops[k] += 1
            times.append(elapsed)
            self.log.append((k, elapsed))
        return times

    def check(self) -> bool:
        """Check each input's first output; ops on a wrong output count as failed."""
        correct = True
        for k, (out, _) in sorted(self.first.items()):
            problems = self.w.check(k, out)
            if problems:
                correct = False
                self.failed += self.ok_ops[k]
                for problem in problems:
                    print(f"check failed: {problem}", file=sys.stderr)
        return correct


def set_up(workloads, name: str, seed: int, tiny: bool, repeats: int):
    """Prepare inputs and warm up ``repeats`` times; return the last workload
    and the median set-up time."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed, tiny)
        workload.prepare()
        workload.warm_up()
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child (Linux: KiB)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def end_to_end(loop: Loop, setup_s: float) -> dict:
    times = [elapsed for _, elapsed in loop.log]
    if not times:
        return {}
    return {
        "ops_per_s": (len(times) / (sum(times) / 1e9), "ops/s"),
        "op_p50_ms": (statistics.median(times) / 1e6, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(loop: Loop, passes: int, name: str) -> tuple[bool, dict]:
    """Passes plain, then as many traced; then the traced checks and counts."""
    import tracing
    from tridnf import datasets, experiments, learner, oracle
    from tridnf.learner import LearnerConfig

    plain = [t for _ in range(passes) for t in loop.one_pass()]
    tracer = tracing.Tracer()
    learn_inputs: list = []

    def learned(args, kwargs, result):
        learn_inputs.append(args[0])

    for module, attr, span, counts in (
        (experiments, "run_experiment", "experiments.run_experiment",
         lambda a, kw, r: {"cells": len(r.runs)}),
        (experiments, "encode_zoo", "datasets.encode_zoo", None),
        (experiments, "make_mask", "masking.make_mask",
         lambda a, kw, r: {"cells_blanked": len(r.cells)}),
        (experiments, "apply_mask", "masking.apply_mask", None),
        (experiments, "learn", "learner.learn", learned),
        (experiments, "evaluate", "experiments.evaluate", None),
        (learner, "learn", "learner.learn", learned),
        (learner, "reduce_uncertainty", "trits.reduce_uncertainty",
         lambda a, kw, r: {"cells_filled": a[0].unknown_count - r.unknown_count}),
        (learner, "delete_repetitions", "trits.delete_repetitions",
         lambda a, kw, r: {"rows_dropped": a[0].p + a[0].q - r.p - r.q}),
        (learner, "check_self_consistency", "trits.check_self_consistency",
         lambda a, kw, r: {"pairs": a[0].p * a[0].q}),
        (datasets, "load_zoo", "datasets.load_zoo", None),
        (oracle, "verify_consistency", "oracle.verify_consistency", None),
    ):
        tracer.wrap(module, attr, span, counts)
    try:
        traced = [t for _ in range(passes) for t in loop.one_pass(tracer)]
        loop.w.prepare()  # untimed, for the span of datasets.load_zoo
        correct = loop.check()
    finally:
        tracer.restore()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}-seed{loop.w.seed}.jsonl")

    # one untimed learn with LearnerConfig(trace=True) per distinct input
    # gives the counts of trace events.  A SELECT line prints an exact
    # relevance whose digits can pass Python's int-to-str limit on the
    # planted-masked inputs (a fault of the trace, see CHANGES.md), so the
    # limit is lifted for these learns only.
    events: dict = {}
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        for data in learn_inputs:
            if data not in events:
                trace = learner.learn(data, LearnerConfig(trace=True)).trace
                events[data] = Counter(line.split(" ", 1)[0] for line in trace)
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)

    total, own_ns, calls, counts = Counter(), Counter(), Counter(), Counter()
    outside, outside_calls = Counter(), Counter()  # spans in set-up and checks
    for (span, start, end, _, op, tally), own in zip(tracer.spans, tracer.self_ns()):
        if op is None:
            outside[span] += end - start
            outside_calls[span] += 1
            continue
        total[span] += end - start
        own_ns[span] += own
        calls[span] += 1
        counts.update(tally or {})
    for data in learn_inputs:
        counts.update(events[data])

    ops = len(traced) or 1
    pairs = counts["pairs"]
    load_calls = outside_calls["datasets.load_zoo"]

    def ms(table, span):
        return table[span] / 1e6 / ops

    metrics = {
        "learner.self_ms": (ms(own_ns, "learner.learn"), "ms"),
        "learner.us_per_pair": (own_ns["learner.learn"] / 1e3 / pairs if pairs else 0.0, "us"),
        "learner.iterations": (calls["trits.check_self_consistency"] / ops, "count"),
        "learner.pairs": (pairs / ops, "count"),
        "learner.literals": (counts["SELECT"] / ops, "count"),
        "learner.erase_sets": (counts["ERASE_SET"] / ops, "count"),
        "learner.erase_groups": (counts["ERASE_GROUP"] / ops, "count"),
        "learner.neg_updates": (counts["NEG_UPDATE"] / ops, "count"),
        "trits.reduce_uncertainty_ms": (ms(total, "trits.reduce_uncertainty"), "ms"),
        "trits.delete_repetitions_ms": (ms(total, "trits.delete_repetitions"), "ms"),
        "trits.check_self_consistency_ms": (ms(total, "trits.check_self_consistency"), "ms"),
        "trits.cells_filled": (counts["cells_filled"] / ops, "count"),
        "trits.rows_dropped": (counts["rows_dropped"] / ops, "count"),
        "masking.make_mask_ms": (ms(total, "masking.make_mask"), "ms"),
        "masking.apply_mask_ms": (ms(total, "masking.apply_mask"), "ms"),
        "masking.cells_blanked": (counts["cells_blanked"] / ops, "count"),
        "experiments.self_ms": (ms(own_ns, "experiments.run_experiment"), "ms"),
        "experiments.evaluate_ms": (ms(total, "experiments.evaluate"), "ms"),
        "experiments.cells": (counts["cells"] / ops, "count"),
        "datasets.encode_zoo_ms": (ms(total, "datasets.encode_zoo"), "ms"),
        "datasets.load_zoo_ms": (outside["datasets.load_zoo"] / 1e6 / load_calls
                                 if load_calls else 0.0, "ms"),
        "oracle.verify_consistency_ms": (outside["oracle.verify_consistency"] / 1e6
                                         / max(1, len(loop.first)), "ms"),
        "trace.overhead_pct": (statistics.fmean(traced) / statistics.fmean(plain) * 100 - 100
                               if plain and traced else 0.0, "%"),
    }
    return correct, metrics


def run_one(args) -> dict:
    workloads = import_program()
    import_s = time.perf_counter() - _START
    workload, prepare_s = set_up(workloads, args.workload, args.seed, args.tiny, SETUP_REPEATS)
    passes = 1 if args.tiny else max(1, round(args.seconds / workload.pass_seconds))
    loop = Loop(workload)
    if args.trace:
        correct, metrics = per_layer(loop, max(1, passes // 2), args.workload)
    else:
        for _ in range(passes):
            loop.one_pass()
        metrics = end_to_end(loop, import_s + prepare_s)
        correct = loop.check()
    print(f"{args.workload} seed {args.seed}: {loop.attempted // len(workload.inputs)} passes"
          f" x {len(workload.inputs)} inputs,"
          f" {loop.attempted} ops attempted, {loop.failed} failed, correct={correct}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:32} {value:14.4f} {unit}")
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(dict(result, ops=loop.log)) + "\n", encoding="utf-8")
    return result


def run_all(args) -> dict:
    """Each workload in its own process, so set-up and peak memory stay apart."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"bench: {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tridnf benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=int, default=50,
                        help="nominal measured time; sets the number of passes (default 50)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and one pass, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
