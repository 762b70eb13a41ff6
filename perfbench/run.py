"""Benchmark of the iwasawa-kernel CLI, end to end and per layer.

    python3 perfbench/run.py --workload control-729 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60      # one row per workload
    python3 perfbench/run.py --record-digests                          # digests of new candidates
    python3 -m pytest perfbench                                        # self-tests

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's operations are drawn from ``--seed`` and written
as presentation files under ``.perfbench_work/``.  The load is a closed
loop with one client: each operation is one ``iwasawa_kernel.cli.main``
call with ``--format structured`` in a fresh Python process (child.py),
one child at a time, so nothing cached survives from one operation to the
next and every per-run cost (multiplication table, chart solves, axiom
checks) is inside the timed call.  Each child caps its own address space
and has a wall-clock timeout; an operation fails if it exits nonzero,
prints a traceback, times out, or its report is wrong (oracle.py).

The workload's operations run in rounds: each once, then again in turn
while the next one is predicted to end within ``--seconds``.  Times are
calibrated to a nominal machine speed (perfbench/speed.py, which the
parent never imports: it would pull numpy into the parent): the machine the
benchmark was defined on swings by up to 1.8x for longer than a run, and
the child measures that swing while its operation runs.  An operation's
time is the median of its calibrated executions in the run.
With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed;
with ``--trace 1`` each operation runs untraced and then traced (spans.py),
and the per-layer metrics come from the traced calls of complete rounds.

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MEMORY_CAP_MB = 2048  # per child; the largest operation peaks near 130 MB
HARD_LIMIT_S = 165.0  # no child may run past this point of a run


@dataclass
class Child:
    """What one child process reported, or why it failed.

    ``setup_s`` and ``call_s`` are calibrated to the nominal speed;
    ``raw_s`` is the call as the clock read it, minus the probes' time.
    """

    setup_s: Optional[float] = None
    call_s: Optional[float] = None
    raw_s: Optional[float] = None
    cpu_s: float = 0.0
    peak_kb: int = 0
    rss_import_kb: int = 0
    report: str = ""
    spans: List[list] = field(default_factory=list)
    counts: Dict[int, Dict[str, float]] = field(default_factory=dict)
    failure: Optional[str] = None


def run_child(root: Path, argv: List[str], trace: bool, timeout: float) -> Child:
    cmd = [sys.executable, str(HERE / "child.py"), str(root / "src"), str(MEMORY_CAP_MB),
           "1" if trace else "0", *argv]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return Child(failure=f"timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or "Traceback" in proc.stderr or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return Child(failure=f"child exit {proc.returncode}: {tail[0]}")
    out = json.loads(lines[-1])
    # The machine's speed during the call stands for its speed during the
    # import just before.  Traced calls carry no probes: their times are
    # only compared with the untraced calls of the same run.
    factor = out.get("call_speed", 1.0)
    child = Child(setup_s=(out["imported"] - started) / factor,
                  rss_import_kb=out["rss_import_kb"], cpu_s=out["cpu_s"],
                  peak_kb=out["peak_kb"], report=out["report"])
    child.raw_s = out["call_s"] - out.get("probe_s", 0.0)
    child.call_s = child.raw_s / factor
    child.spans = out.get("spans", [])
    child.counts = {int(k): v for k, v in out.get("counts", {}).items()}
    if out["rc"] != 0:
        child.failure = f"exit code {out['rc']}"
    return child


class Run:
    """One benchmark run of one workload."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root, self.workload, self.seconds, self.trace = root, workload, seconds, trace
        self.start = time.perf_counter()
        self.ops = workloads.draw(workload, seed, str(root))
        self.paths = workloads.write_inputs(
            self.ops, str(root / ".perfbench_work" / f"{workload}-{seed}"))
        with open(HERE / "digests.json", encoding="utf-8") as fh:
            self.digests = json.load(fh)
        self.attempted = 0
        self.failures: List[str] = []
        self.untraced: Dict[str, List[Child]] = {op.key: [] for op in self.ops}
        self.traced_rounds: List[List[Child]] = []
        self.untraced_rounds: List[List[Child]] = []

    def _timeout(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.start)

    def execute(self, op, trace: bool) -> Child:
        self.attempted += 1
        timeout = self._timeout()
        if timeout < 1.0:
            child = Child(failure="no time left in the run")
        else:
            argv = [op.command, self.paths[op.key], *op.args, "--format", "structured"]
            child = run_child(self.root, argv, trace, timeout)
        if child.failure is None:
            bad = oracle.problems(op, child.report, self.digests)
            if bad:
                child.failure = "; ".join(bad)
        if child.failure is not None:
            self.failures.append(f"{op.key}{' (traced)' if trace else ''}: {child.failure}")
        return child

    def go(self) -> None:
        deadline = self.start + self.seconds
        cost: Dict[str, List[float]] = {op.key: [] for op in self.ops}
        first = True
        while True:
            plain, traced = [], []
            for op in self.ops:
                if not first:
                    # every operation runs once; after that, each runs again
                    # only while it is predicted to end inside the window
                    nxt = statistics.median(cost[op.key])
                    if time.perf_counter() + nxt > deadline or self._timeout() < nxt:
                        return
                t0 = time.perf_counter()
                child = self.execute(op, False)
                self.untraced[op.key].append(child)
                plain.append(child)
                if self.trace:
                    traced.append(self.execute(op, True))
                cost[op.key].append(time.perf_counter() - t0)
            self.untraced_rounds.append(plain)
            if self.trace:
                self.traced_rounds.append(traced)
            first = False

    # -- metrics ---------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        ok = {k: [c for c in cs if c.failure is None] for k, cs in self.untraced.items()}
        good = [c for cs in ok.values() for c in cs]
        if not good:
            return {}
        # Footprints take the median too: now and then the allocator rounds
        # a peak up by a block.
        ran = [cs for cs in ok.values() if cs]
        per_op = [statistics.median(c.call_s for c in cs) for cs in ran]

        def footprint(kb) -> float:
            return max(statistics.median(kb(c) for c in cs) for cs in ran) / 1024

        return {
            "wall_s": sum(per_op),
            "op_p50_s": statistics.median(per_op),
            "op_max_s": max(per_op),
            "setup_s": statistics.median(c.setup_s for c in good),
            "peak_rss_mb": footprint(lambda c: c.peak_kb),
            "work_rss_mb": footprint(lambda c: c.peak_kb - c.rss_import_kb),
        }

    def per_layer(self) -> Dict[str, float]:
        rows = []
        for plain, traced in zip(self.untraced_rounds, self.traced_rounds):
            if any(c.failure is not None for c in plain + traced):
                continue
            merged, counts = [], {}
            for child in traced:
                off = len(merged)
                merged.extend([s[0], s[1], s[2], s[3] + off if s[3] >= 0 else -1]
                              for s in child.spans)
                counts.update({i + off: v for i, v in child.counts.items()})
            row = spans.layer_metrics(merged, counts)
            row["cli.cpu_s"] = sum(c.cpu_s for c in traced)
            row["trace.overhead"] = (sum(c.raw_s for c in traced)
                                     / sum(c.raw_s for c in plain))
            rows.append(row)
        if not rows:
            return {}
        return {k: statistics.median(r[k] for r in rows) for k in rows[0]}

    def samples(self) -> int:
        return sum(len(cs) for cs in self.untraced.values())


def load_definition(root: Path) -> Dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_line(values: Dict[str, float], defs: List[Dict], prefix: str = "") -> Dict:
    """``{name: {"value", "unit"}}`` for every metric in ``defs`` that was measured.

    A metric is missing only when failures left nothing to measure it on;
    the run is then reported incorrect anyway.
    """
    return {prefix + d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in defs if d["name"] in values}


def describe(run: Run, values: Dict[str, float], defs: List[Dict]) -> str:
    cells = []
    for d in defs:
        cell = f"{d['name']}={values.get(d['name'], float('nan')):.4g} {d['unit']}"
        if d["name"] == "op_p50_s":
            cell += f" (over {len(run.ops)} operations, {run.samples()} executions)"
        cells.append(cell)
    fail_ratio = len(run.failures) / run.attempted
    cells += [f"fail_ratio={fail_ratio:.4g} ratio", f"ops={run.attempted} count"]
    return f"{run.workload:<13} " + "  ".join(cells)


def check_checkout(root: Path) -> None:
    for need in ("src/iwasawa_kernel/cli.py", "inputs", "BENCHMARK.json"):
        if not (root / need).exists():
            raise SystemExit(f"{root / need} is missing: run from a source checkout")


def record_digests(root: Path) -> int:
    """Record the digest of every candidate operation that has none yet.

    Existing digests are kept: they are the answers of the commit that
    defined the benchmark.  Digests no candidate uses any more are dropped.
    """
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        old = json.load(fh)
    seen: Dict[str, object] = {}
    for name in workloads.WORKLOADS:
        for cands in workloads.slots(name, str(root)):
            for op in cands:
                seen.setdefault(op.key, op)
    digests = {k: v for k, v in old.items() if k in seen}
    todo = [op for key, op in seen.items() if key not in digests]
    paths = workloads.write_inputs(todo, str(root / ".perfbench_work" / "record"))
    bad = 0
    for op in todo:
        argv = [op.command, paths[op.key], *op.args, "--format", "structured"]
        child = run_child(root, argv, False, HARD_LIMIT_S)
        problems = [child.failure] if child.failure else oracle.known_answer_problems(
            op, json.loads(child.report))
        if problems:
            bad += 1
            print(f"FAIL {op.key}: {'; '.join(problems)}", flush=True)
            continue
        digests[op.key] = oracle.digest(json.loads(child.report))
        print(f"ok   {op.key} ({child.call_s:.2f} s)", flush=True)
    if bad:
        print(f"{bad} operations failed; digests.json not written")
        return 1
    print(f"{len(todo)} recorded, {len(old) + len(todo) - len(digests)} dropped")
    with open(HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="record digests.json entries for candidates that have none")
    args = parser.parse_args(argv)

    root = HERE.parent
    check_checkout(root)
    if args.record_digests:
        return record_digests(root)
    bench = load_definition(root)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    runs, values = [], {}
    for name in names:
        run = Run(root, name, args.seed, seconds, bool(args.trace))
        run.go()
        vals = run.per_layer() if args.trace else run.end_to_end()
        runs.append(run)
        for line in run.failures:
            print(f"FAILED {line}")
        for key, children in run.untraced.items():
            good = [c for c in children if c.failure is None]
            if good:
                cal = statistics.median(c.call_s for c in good)
                raw = statistics.median(c.raw_s for c in good)
                print(f"  {cal:8.3f} s calibrated  {raw:8.3f} s raw  "
                      f"(median of {len(good)})  {key}")
        print(describe(run, vals, defs), flush=True)
        values.update({(f"{name}." if len(names) > 1 else "") + k: v for k, v in vals.items()})

    # Metrics cover the operations that succeeded; any failure, or a metric
    # left unmeasured, makes the run incorrect.
    failed = sum(len(r.failures) for r in runs)
    attempted = sum(r.attempted for r in runs)
    metrics: Dict[str, Dict] = {}
    for name in names:
        prefix = f"{name}." if len(names) > 1 else ""
        sub = {k[len(prefix):]: v for k, v in values.items() if k.startswith(prefix)}
        metrics.update(result_line(sub, defs, prefix))
    correct = failed == 0 and len(metrics) == len(defs) * len(names)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
