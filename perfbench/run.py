"""Pipeline benchmark for tetspine: end-to-end metrics, or per-layer ones traced.

Run from the repository root:

    python3 perfbench/run.py --workload lens-census --seed 0 --seconds 45 --trace 0

It imports the package from `src/`, builds the workload's inputs from the
seed (several times, for the set-up time), then runs passes over the
subjects for `--seconds` seconds in this one process and thread, checking
every result. A shared host slows this process down by a third or more for
seconds at a time, so each subject is timed by its fastest pass: `run_s` is
the sum of those times and the latency quantiles are taken over them. The
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the line before it carries the environment, sample counts and
`fail_ratio`. `--trace 1` spends half the time untraced and half with timing
wrappers on every traced function, and reports per-layer metrics. Work counts
must repeat exactly across passes and between traced and untraced passes, or
the run exits with status 3.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
MIN_PASSES = 3  # every subject gets at least this many timings to take the fastest of
HARD_LIMIT_S = 120.0  # stop adding passes here, whatever else is unmet

clock = time.perf_counter


def _median(values):
    return statistics.median(values) if values else 0.0


@dataclass
class Pass:
    wall: float
    samples: list[float]
    digest: list[tuple]
    problems: list[list[str]]  # per failed subject
    stats: dict = field(default_factory=dict)  # traced: name -> (calls, s, self_s, errors)
    counts: dict = field(default_factory=dict)

    def work(self) -> tuple:
        """What must repeat exactly between traced passes."""
        calls = {name: (st[0], st[3]) for name, st in self.stats.items()}
        return calls, self.counts


def run_pass(wl, subjects, tracer=None, pass_index=0) -> Pass:
    from workloads import Check

    samples, digest, problems = [], [], []
    start = clock()
    state = wl.begin_pass()
    for s in subjects:
        if tracer is not None:
            tracer.subject = f"pass{pass_index}/{s.name}"
        chk = Check(wl.name, s.name)
        t0 = clock()
        try:
            entry = wl.run(s, state, chk)
        except Exception as exc:  # a raising subject counts as failed; the pass goes on
            chk.expect(False, f"raised {exc!r}")
            entry = (s.name, None, None)
        samples.append(clock() - t0)
        digest.append(entry)
        if chk.problems:
            problems.append(chk.problems)
    out = Pass(clock() - start, samples, digest, problems)
    if tracer is not None:
        out.stats = tracer.snapshot()
        out.counts = dict(tracer.counts)
    return out


def measure(wl, subjects, seconds: float, tracer=None, first_index=0) -> list[Pass]:
    passes: list[Pass] = []
    start = clock()
    while True:
        elapsed = clock() - start
        done = len(passes) >= MIN_PASSES and elapsed >= seconds
        if done or (passes and elapsed >= HARD_LIMIT_S):
            return passes
        if tracer is not None:
            tracer.reset()
        passes.append(run_pass(wl, subjects, tracer, first_index + len(passes)))


def _git_commit() -> str | None:
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
    return None


def environment() -> dict:
    try:
        have_compiled = importlib.import_module("tetspine._enum").HAVE_COMPILED
    except (ImportError, AttributeError):
        have_compiled = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tetspine").glob("*.py*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "have_compiled": have_compiled,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
    }


def count_gate(untraced: list[Pass], traced: list[Pass]) -> list[str]:
    problems = []
    reference = untraced[0].digest
    for i, p in enumerate(untraced + traced):
        if p.digest != reference:
            problems.append(f"pass {i} produced other results than pass 0")
    for i, p in enumerate(traced[1:], 1):
        if p.work() != traced[0].work():
            problems.append(f"traced pass {i} counted other work than traced pass 0")
    if traced and "surfaces.census" in traced[0].stats:
        census_total = sum(n for _, _, n in reference if n is not None)
        if traced[0].counts["surfaces.entries"] != census_total:
            problems.append(
                f"traced surfaces.entries {traced[0].counts['surfaces.entries']} != "
                f"{census_total} census entries returned untraced"
            )
    return problems


def best_times(passes: list[Pass]) -> list[float]:
    """Each subject's fastest time over the passes, in subject order."""
    return [min(times) for times in zip(*(p.samples for p in passes))]


def end_to_end(setup_s: float, passes: list[Pass]) -> dict:
    samples = best_times(passes)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "run_s": {"value": sum(samples), "unit": "s"},
        "subject_p50_ms": {"value": statistics.median(samples) * 1e3, "unit": "ms"},
        "subject_p90_ms": {"value": statistics.quantiles(samples, n=10)[8] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def per_layer(untraced: list[Pass], traced: list[Pass], cli_stats: dict) -> dict:
    metrics = {}
    for target in tracing.TARGETS:
        runs = [cli_stats] if target.name == "cli.main" else [p.stats for p in traced]
        rows = [r.get(target.name, (0, 0.0, 0.0, 0)) for r in runs]
        metrics[f"{target.name}.calls"] = {"value": rows[0][0], "unit": "count"}
        metrics[f"{target.name}.s"] = {"value": _median([r[1] for r in rows]), "unit": "s"}
        metrics[f"{target.name}.self_s"] = {"value": _median([r[2] for r in rows]), "unit": "s"}
        if target.name in tracing.ERROR_TARGETS:
            metrics[f"{target.name}.errors"] = {"value": rows[0][3], "unit": "count"}
    counts = traced[0].counts
    for name in tracing.COUNTS:
        metrics[name] = {"value": counts[name], "unit": "count"}
    components = counts["surfaces.components"]
    ratio = counts["surfaces.entries"] / components if components else 0.0
    metrics["surfaces.unique_ratio"] = {"value": ratio, "unit": "1"}
    traced_run = _median([p.wall for p in traced])
    metrics["trace.run_s"] = {"value": traced_run, "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": traced_run / _median([p.wall for p in untraced]) - 1,
        "unit": "1",
    }
    return metrics


def write_spans(tracer, path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for span_id, parent, name, subject, start, end in tracer.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "name": name, "subject": subject, "start": start, "end": end}) + "\n")
        for (parent, name), (calls, total) in tracer.aggregates.items():
            fh.write(json.dumps({"parent": parent, "name": name, "calls": calls, "s": total}) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tetspine" / "__init__.py").is_file():
        print(f"error: no tetspine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = clock()
    import tetspine
    import tetspine.cli  # noqa: F401  (the CLI cross-check drives it)

    import_s = clock() - t0
    if SRC.resolve() not in Path(tetspine.__file__).resolve().parents:
        print(f"error: imported tetspine from {tetspine.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    setup_runs = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            subjects = wl.setup(args.seed)
            setup_runs.append(clock() - t0)
    except workloads.SetupError as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 2
    setup_s = import_s + statistics.median(setup_runs)
    OUT.mkdir(exist_ok=True)

    absent: list[str] = []
    if args.trace:
        untraced = measure(wl, subjects, args.seconds / 2)
        tracer = tracing.Tracer()
        installation = tracing.install(tracer)
        try:
            traced = measure(wl, subjects, args.seconds / 2, tracer=tracer, first_index=len(untraced))
            tracer.reset()
            cli_problems = wl.cli_check(subjects, untraced[0].digest, OUT)
            cli_stats = tracer.snapshot()
        finally:
            installation.uninstall()
        absent = installation.absent
        write_spans(tracer, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        passes = untraced + traced
        metrics = per_layer(untraced, traced, cli_stats)
    else:
        untraced = passes = measure(wl, subjects, args.seconds)
        traced = []
        cli_problems = wl.cli_check(subjects, passes[0].digest, OUT)
        metrics = end_to_end(setup_s, passes)

    gate = count_gate(untraced, traced)
    if gate:
        for line in gate:
            print(f"count gate: {args.workload} seed {args.seed}: {line}", file=sys.stderr)
        return 3

    attempted = sum(len(p.samples) for p in passes)
    failed = sum(len(p.problems) for p in passes)
    shown = {line for p in passes for subject in p.problems for line in subject}
    for line in sorted(shown)[:20] + cli_problems:
        print(f"FAIL {line}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "passes": len(passes),
        "subjects_per_pass": len(subjects),
        "subject_samples": attempted,
        "pass_walls_s": [p.wall for p in passes],
        "setup_runs_s": setup_runs,
        "import_s": import_s,
        "fail_ratio": {"value": failed / attempted, "unit": "1"},
        "cli_check": "ok" if not cli_problems else "fail",
        "absent": absent,
    }
    result = {
        "correct": failed == 0 and not cli_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, **result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
