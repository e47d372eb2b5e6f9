#!/usr/bin/env python3
"""osctab benchmark: times the CLI end to end, or traces it layer by layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of an osctab checkout; the program is imported from
its `src/` directory, so nothing needs installing.

--trace 0 starts one fresh `python -m osctab.cli` process per command,
one at a time, and reports the end-to-end metrics named in
BENCHMARK.json.  --trace 1 drives the same commands in-process through
`osctab.cli.main(argv)`, alternating untraced and traced passes, and
reports the per-layer metrics (see tracing.py).  Both check every output
against reference.json and repeat the workload until --seconds is spent
(at least once), reporting medians.

Shared virtual machines change speed by up to 1.8x for minutes at a
time, which no number of repetitions averages out.  So each command runs
beside calibrator.py on the same CPU, and the gated wall_ref expresses
its wall time in units of the reference task's wall time measured while
it ran (see NOTES.md).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full result, with the environment
block and every sample, is written to .perfbench/ under the checkout;
spans of traced passes go there too.  compare.py compares two results.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# set-up probes run before every repetition, so they sample the same
# stretch of time as the workload rather than one burst at the start
PROBES_PER_REP = 4
# these change what the program computes; the benchmark measures the defaults
UNSET_VARS = ("OSCTAB_PURE", "OSCTAB_MAX_ENUM")
# printed and kept in the result file, but not gated: see NOTES.md
RAW_TIMES = {"cpu_s": "s"}


def load_spec() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from .git (None without one)."""
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


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    from osctab import kernels

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "backend": kernels.BACKEND,
        "osctab_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("OSCTAB_")},
    }


def spawn(args: list[str], env: dict) -> dict:
    """Run one command to exit through launch.py: its times, rusage, status and output."""
    stdout_path, stderr_path = OUT_DIR / "stdout", OUT_DIR / "stderr"
    launcher = subprocess.run(
        [sys.executable, str(BENCH / "launch.py"), str(stdout_path), str(stderr_path), *args],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, check=True)
    run = json.loads(launcher.stdout)
    run["stdout"] = stdout_path.read_bytes()
    run["stderr"] = stderr_path.read_bytes()
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def keep_going(reps: list[float], seconds: float) -> bool:
    """None has run yet, or another repetition as long as the last fits in `seconds`."""
    return not reps or sum(reps) + reps[-1] <= seconds


class Tally:
    """Commands attempted and failed, with the reason for each failure."""

    def __init__(self, check):
        self.check = check
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, command, stdout: bytes, status: int, stderr: bytes = b"") -> None:
        self.attempted += 1
        problem = self.check(command, stdout, status)
        if problem:
            last = stderr.decode(errors="replace").strip().splitlines()[-1:]
            self.failures.append(f"{' '.join(command.argv)}: {problem} {' '.join(last)}".strip())


def calibrated(args: list[str], env: dict) -> tuple[dict, float]:
    """spawn() with calibrator.py running beside it on the same CPU.

    Returns the run and its wall time in units of the median reference
    task that ran wholly while the command ran.
    """
    calibrator = subprocess.Popen([sys.executable, str(BENCH / "calibrator.py")],
                                  stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        calibrator.stdout.readline()  # "ready"
        run = spawn(args, env)
    finally:
        calibrator.terminate()
        tasks = json.loads(calibrator.stdout.read())
        calibrator.stdout.close()
        calibrator.wait()
    inside = [t for t in tasks if run["start"] <= t[0] and t[0] + t[1] <= run["end"]]
    if not inside:
        raise RuntimeError(f"no reference task completed during {' '.join(args)}")
    return run, run["wall_s"] / statistics.median(t[1] for t in inside)


def measure(commands, seconds: float, env: dict, tally: Tally) -> dict:
    """End-to-end samples: fresh processes, one at a time, stdout sent to a file.

    Everything runs pinned to one CPU, so a command and the calibrator
    beside it share that CPU's speed.  Each cycle runs the set-up probes,
    then the command list beside the calibrator.
    """
    from workloads import SEARCH_EXIT

    python = [sys.executable]
    probe = python + ["-c", "import osctab.cli"]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})  # inherited by every child
    try:
        spawn(probe, env)  # untimed: leaves the bytecode cache warm
        samples = {name: [] for name in
                   ("wall_ref", "cpu_s", "setup_s", "peak_rss_mb", "resolved")}
        cycles: list[float] = []
        unresolved = searches = 0
        while keep_going(cycles, seconds):
            started = time.perf_counter()
            samples["setup_s"] += [spawn(probe, env)["wall_s"] for _ in range(PROBES_PER_REP)]
            runs = []
            wall_ref = 0.0
            for command in commands:
                run, units = calibrated(python + ["-m", "osctab.cli", *command.argv], env)
                tally.record(command, run["stdout"], run["status"], run["stderr"])
                runs.append(run)
                wall_ref += units
            cycles.append(time.perf_counter() - started)
            budget_hit = [c.is_search and r["status"] == SEARCH_EXIT["budget-exhausted"]
                          for c, r in zip(commands, runs)]
            searches += sum(c.is_search for c in commands)
            unresolved += sum(budget_hit)
            samples["wall_ref"].append(wall_ref)
            samples["cpu_s"].append(sum(r["cpu_s"] for r in runs))
            samples["peak_rss_mb"].append(max(r["maxrss_kib"] for r in runs) / 1024)
            samples["resolved"].append(1 - sum(budget_hit) / len(commands))
    finally:
        os.sched_setaffinity(0, allowed)
    return {"samples": samples, "unresolved": [unresolved, searches]}


class _Sink(io.StringIO):
    """Stands in for sys.stdout and counts the writes the CLI makes."""

    writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


def run_in_process(argv, main) -> tuple[int, bytes, int]:
    sink = _Sink()
    saved, sys.stdout = sys.stdout, sink
    try:
        status = main(list(argv))
    finally:
        sys.stdout = saved
    return status, sink.getvalue().encode(), sink.writes


def trace(name: str, commands, seconds: float, seed: int, tally: Tally) -> dict:
    """Per-layer samples from traced in-process passes, plus the tracing overhead."""
    from osctab import cli
    from tracing import Tracer, install, layer_metrics, wrap_call

    plain, traced, layers, spans = [], [], [], []
    while keep_going([a + b for a, b in zip(plain, traced)], seconds):
        started = time.perf_counter()
        outputs = [run_in_process(c.argv, cli.main) for c in commands]
        plain.append(time.perf_counter() - started)
        for command, (status, stdout, _) in zip(commands, outputs):
            tally.record(command, stdout, status)

        tracer = Tracer(run=f"{name}-seed{seed}-pass{len(traced)}")
        main = wrap_call(tracer, cli.main, "cli", True)
        restore = install(tracer)
        started = time.perf_counter()
        try:
            outputs = [run_in_process(c.argv, main) for c in commands]
        finally:
            traced.append(time.perf_counter() - started)
            restore()
        metrics = layer_metrics(tracer)
        metrics["cli.bytes_out"] = sum(len(stdout) for _, stdout, _ in outputs)
        metrics["cli.writes"] = sum(writes for _, _, writes in outputs)
        layers.append(metrics)
        spans.append(tracer)
        for command, (status, stdout, _) in zip(commands, outputs):
            tally.record(command, stdout, status)
    samples = {key: [m[key] for m in layers] for key in layers[0]}
    samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(plain)]
    return {"samples": samples, "plain_s": plain, "traced_s": traced, "tracers": spans}


def summarize(samples: dict, units: dict[str, str]) -> dict:
    """Median of each metric's samples, in BENCHMARK.json's order and units."""
    out = {}
    for metric, unit in units.items():
        values = samples[metric]
        q1, median, q3 = quartiles(values)
        out[metric] = {"value": median, "unit": unit, "n": len(values), "q1": q1, "q3": q3}
    return out


def print_table(name: str, summary: dict, extra: list[str]) -> None:
    from tracing import RATIOS, describe_ratio

    values = {metric: s["value"] for metric, s in summary.items()}
    for metric, s in summary.items():
        if metric in RATIOS:
            text = describe_ratio(metric, values)
        else:
            text = f"{s['value']:.6g} {s['unit']}"
            if s["n"] > 1:
                text += f"  (median of {s['n']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
        print(f"{name:15} {metric:46} {text}")
    for line in extra:
        print(f"{name:15} {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "osctab" / "cli.py").is_file():
        print(f"error: no osctab sources under {SRC}; run from an osctab checkout",
              file=sys.stderr)
        return 2
    for var in UNSET_VARS:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import osctab

    if Path(osctab.__file__).resolve().parent != (SRC / "osctab").resolve():
        print(f"error: imported osctab from {osctab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, plan, run_check

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    end_to_end, per_layer = load_spec()
    env_block = environment()
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([child_env["PYTHONPATH"]] if child_env.get("PYTHONPATH") else []))

    print(f"# osctab benchmark: seed {args.seed}, {args.seconds:g} s per workload, "
          f"trace {args.trace}")
    print("# environment " + json.dumps(env_block))
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally(run_check)
    result = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env_block, "workloads": {}}
    for name, commands in plan(names, args.seed):
        failed_before = len(tally.failures)
        attempted_before = tally.attempted
        if args.trace:
            run = trace(name, commands, args.seconds, args.seed, tally)
            summary = summarize(run["samples"], per_layer)
            extra = [f"passes: untraced {['%.3f' % s for s in run['plain_s']]} s, "
                     f"traced {['%.3f' % s for s in run['traced_s']]} s"]
            spans_path = OUT_DIR / f"spans-{name}-seed{args.seed}.jsonl"
            with open(spans_path, "w", encoding="utf-8") as out:
                for tracer in run.pop("tracers"):
                    tracer.write_spans(out)
            extra.append(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            run = measure(commands, args.seconds, child_env, tally)
            summary = summarize(run["samples"], {**end_to_end, **RAW_TIMES})
            unresolved, searches = run["unresolved"]
            extra = [f"unresolved {unresolved}/{searches} search commands"
                     if searches else "unresolved n/a (no search commands)"]
        attempted = tally.attempted - attempted_before
        failed = len(tally.failures) - failed_before
        extra.append(f"ops_failed {failed}/{attempted} commands")
        extra.extend(f"FAILED {line}" for line in tally.failures[failed_before:])
        print_table(name, summary, extra)
        result["workloads"][name] = {
            "commands": [list(c.argv) for c in commands],
            "metrics": summary,
            "samples": run["samples"],
            "attempted": attempted,
            "failures": tally.failures[failed_before:],
        }

    label = args.workload if len(names) == 1 else "all"
    out_path = OUT_DIR / f"result-{label}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"# full result written to {out_path.relative_to(ROOT)}")

    metrics = {}
    for name, data in result["workloads"].items():
        prefix = "" if len(names) == 1 else name + "."
        for metric in (per_layer if args.trace else end_to_end):
            s = data["metrics"][metric]
            metrics[prefix + metric] = {"value": s["value"], "unit": s["unit"]}
    correct = not tally.failures
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
