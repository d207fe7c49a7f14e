"""Benchmark harness for the crystalstat command line.

    python3 bench/run.py --workload ensemble-d1 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 90

Each invocation of the CLI runs in a fresh child process (bench/child.py), one
at a time: a closed loop with one client.  The child's BLAS and OpenMP pools
are capped at two threads.  Workloads, their sizes and the reason for each are
in WORKLOADS below.  BENCHMARK.json at the repository root names the gated
workloads, ensemble-d1 and report-d3, and the gated metrics with their units
and bounds.  ensemble-d2 runs here but is not gated: its run_rel spread over
ten 30-second runs (about 0.11) is more than a third of the 0.25 bound.

--trace 0 measures the end-to-end metrics, each the median over the run's
invocations:

  setup_s         process start to the end of ``import crystalstat.cli``
  run_s           wall time of ``cli.main(argv)``
  throughput      the workload's units of work divided by run_s
  run_rel         run_s divided by the time of a fixed host-speed probe run in
                  the same child just before and just after ``cli.main``
  throughput_rel  units of work divided by run_rel
  peak_rss_mb     maximum resident set of the child, from os.wait4

On a shared host the wall time of identical invocations drifts by 10-20%
over minutes, and a 30-second run cannot average that out; the probe, which
runs no crystalstat code, drifts with it.  BENCHMARK.json therefore gates on
run_rel and throughput_rel, whose run-to-run spread is about half that of
run_s; run_s and throughput are printed with them.

--trace 1 is a separate run for the per-layer metrics.  It alternates
untraced invocations with invocations whose public functions are wrapped in
spans (self time and call counts per function and per module), and makes one
tracemalloc invocation for the per-call memory peaks, because tracemalloc
slows the ensemble workloads about twofold and would distort self times.
The tracing overhead is the traced run_s minus the untraced run_s.

Every invocation writes into a fixed output directory, and every file there
is hashed.  When bench/expected.json holds the exit code and hashes recorded
for the workload and seed, the invocation must match them; otherwise it must
end with one of the workload's completed-run exit codes and produce the same
bytes as the run's first invocation.  A crash, a kill, a wrong exit code or a
changed byte is a failed operation.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--workload all`` the three workloads are interleaved, one invocation
of each per round, so that drift of the host is shared between them; its
metric names are prefixed with the workload name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / "_work"
EXPECTED = BENCH_DIR / "expected.json"
CHILD = BENCH_DIR / "child.py"
SPEC = ROOT / "BENCHMARK.json"

THREAD_ENV = {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2",
              "MKL_NUM_THREADS": "2"}
INVOCATION_TIMEOUT_S = 150.0
MIN_ROUNDS = {0: 3, 1: 2}


@dataclass(frozen=True)
class Workload:
    argv: tuple
    work: int          # units of work per invocation, for throughput
    work_unit: str
    # Exit codes of a completed run, accepted for seeds without recorded
    # values.  The ensemble workloads' 3-sigma gates trip by chance on a few
    # seeds (exit 3, as ensemble-d2 does at seed 8); usage errors, condition
    # failures and crashes are never accepted.
    exit_codes: tuple = (0,)


WORKLOADS = {
    # The README's CLT run: per-sample sampling, transform and FieldState
    # construction dominate; spectral and covariance take under 1%.
    "ensemble-d1": Workload(
        ("clt", "--nn", "d=1", "n=1", "m=1", "--L", "256",
         "--ensemble", "10000", "--t", "50"),
        work=10000 * 256, work_unit="sample-sites", exit_codes=(0, 3)),
    # Few large 2-D fields and a memory-bound working set (peak RSS ~1.3 GB).
    # `gibbs` at this size exits 3 by design; `ensemble` passes its gates on
    # 95 of the seeds 0-99.
    "ensemble-d2": Workload(
        ("ensemble", "--nn", "d=2", "n=1", "m=1", "--L", "64",
         "--white", "T0=0", "T1=1", "--ensemble", "2000", "--t", "10"),
        work=2000 * 64 ** 2, work_unit="sample-sites", exit_codes=(0, 3)),
    # No sampling: dispersion grids with branch continuation (n=2), the
    # critical scan, limit densities and mixing integrals.
    "report-d3": Workload(
        ("report", "--nn", "d=3", "n=2", "m=1,2", "--L", "32"),
        work=32 ** 3 * 2, work_unit="node-branches"),
}


@dataclass
class Invocation:
    workload: str
    mode: str
    exit: int | None = None
    setup_s: float | None = None
    run_s: float | None = None
    probe_s: float | None = None
    rss_mb: float = 0.0
    files: dict = field(default_factory=dict)
    output_bytes: int = 0
    spans: list = field(default_factory=list)
    peaks: list = field(default_factory=list)
    ok: bool = False


class Runner:
    """Starts children for one seed and checks their outputs."""

    def __init__(self, seed: int, expected: dict):
        self.seed = seed
        self.expected = expected
        self.reference = {}      # workload -> files of the first good invocation
        self.counter = 0
        self.env = child_env()

    def invoke(self, name: str, mode: str) -> Invocation:
        wl = WORKLOADS[name]
        wdir = WORK / name
        out = wdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        wdir.mkdir(parents=True, exist_ok=True)
        self.counter += 1
        report = wdir / f"report-{self.counter}.json"
        report.unlink(missing_ok=True)
        argv = [sys.executable, str(CHILD), str(report), mode, str(self.counter), "--",
                *wl.argv, "--seed", str(self.seed),
                "--output", out.relative_to(ROOT).as_posix()]
        inv = Invocation(name, mode)
        with open(wdir / "stdout.txt", "wb") as log:
            t_spawn = time.monotonic()
            inv.exit, usage = run_child(argv, self.env, log)
        inv.rss_mb = usage.ru_maxrss / 1024.0
        if report.exists():
            doc = json.loads(report.read_text())
            report.unlink()
            inv.setup_s = doc["imported"] - t_spawn
            inv.run_s = doc["end"] - doc["start"]
            if doc["probes"]:
                inv.probe_s = statistics.fmean(doc["probes"])
            inv.spans = doc["spans"]
            inv.peaks = doc["peaks"]
        inv.files, inv.output_bytes = hash_tree(out)
        inv.ok = self.check(inv)
        if not inv.ok:
            tail = (wdir / "stdout.txt").read_text(errors="replace")[-2000:]
            print(f"FAILED {name} {mode} invocation {self.counter}: exit {inv.exit}\n{tail}",
                  file=sys.stderr)
        return inv

    def check_kind(self, name: str) -> str:
        return "recorded" if self.recorded(name) else "fallback"

    def recorded(self, name: str):
        return self.expected.get(name, {}).get(str(self.seed))

    def check(self, inv: Invocation) -> bool:
        if inv.run_s is None:
            return False
        want = self.recorded(inv.workload)
        if want is not None:
            return inv.exit == want["exit"] and inv.files == want["files"]
        if inv.exit not in WORKLOADS[inv.workload].exit_codes or not inv.files:
            return False
        ref = self.reference.setdefault(inv.workload, inv.files)
        return inv.files == ref


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, log):
    """Run argv to completion; return (exit code, rusage) of that child alone."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + INVOCATION_TIMEOUT_S
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            time.sleep(0.01)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
        raise


def hash_tree(root: Path):
    files, total = {}, 0
    if root.is_dir():
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            data = path.read_bytes()
            total += len(data)
            files[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return files, total


# ---------------------------------------------------------------- the run

def schedule(names, trace: int, round_index: int):
    """Invocations of one round: a plain one per workload, or a plain/spans pair."""
    plan = []
    for name in names:
        if trace:
            pair = [(name, "plain"), (name, "spans")]
            plan += pair if round_index % 2 == 0 else pair[::-1]
        else:
            plan.append((name, "plain"))
    return plan


def run(names, seed: int, seconds: float, trace: int, expected: dict):
    runner = Runner(seed, expected)
    done = defaultdict(list)
    if trace:
        for name in names:
            done[name].append(runner.invoke(name, "memory"))
    start = time.monotonic()
    round_times = []
    while True:
        t0 = time.monotonic()
        for name, mode in schedule(names, trace, len(round_times)):
            done[name].append(runner.invoke(name, mode))
        round_times.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if (len(round_times) >= MIN_ROUNDS[trace]
                and elapsed + statistics.median(round_times) > seconds):
            break
    return runner, done


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(name: str, invs) -> dict:
    timed = [i for i in invs if i.run_s is not None]
    run_s = median(i.run_s for i in timed)
    run_rel = median(i.run_s / i.probe_s for i in timed if i.probe_s)
    work = WORKLOADS[name].work
    return {
        "setup_s": median(i.setup_s for i in timed),
        "run_s": run_s,
        "throughput": work / run_s if run_s else 0.0,
        "run_rel": run_rel,
        "throughput_rel": work / run_rel if run_rel else 0.0,
        "probe_s": median(i.probe_s for i in timed),
        "peak_rss_mb": median(i.rss_mb for i in timed),
    }


def span_totals(spans):
    """Self time and call count per span name, and self time per layer."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s, calls, layers = defaultdict(float), defaultdict(int), defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        own = end - start - child_time[index]
        self_s[name] += own
        calls[name] += 1
        layers[name.split(".", 1)[0]] += own
    return self_s, calls, layers


def per_layer(invs) -> dict:
    plain = [i for i in invs if i.mode == "plain" and i.run_s is not None]
    traced = [i for i in invs if i.mode == "spans" and i.run_s is not None]
    samples = defaultdict(list)
    for inv in traced:
        self_s, calls, layers = span_totals(inv.spans)
        for name in self_s:
            samples[f"{name}.self_s"].append(self_s[name])
            samples[f"{name}.calls"].append(calls[name])
        for layer, value in layers.items():
            samples[f"{layer}.self_s"].append(value)
    out = {key: median(values) for key, values in samples.items()}
    out["dynamics.FieldState.count"] = out.get("dynamics.FieldState.calls", 0)
    # cli.main is the root span, so its self time is run_s minus every layer span
    out["cli.self_s"] = out.get("cli.main.self_s", 0.0)
    for inv in invs:
        if inv.mode == "memory":
            for name, peak in inv.peaks:
                key = f"{name}.peak_mb"
                out[key] = max(out.get(key, 0.0), peak / 2 ** 20)
    out["cli.output_bytes"] = median(i.output_bytes for i in plain)
    out["trace.run_s"] = median(i.run_s for i in traced)
    out["trace.overhead_s"] = out["trace.run_s"] - median(i.run_s for i in plain)
    return out


def layer_shares(values: dict) -> dict:
    run_s = values.get("trace.run_s") or 0.0
    layers = ("kernel", "spectral", "dynamics", "fields", "covariance", "stats", "cli")
    return {layer: values.get(f"{layer}.self_s", 0.0) / run_s if run_s else 0.0
            for layer in layers}


# ---------------------------------------------------------------- reporting

def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "crystalstat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_env": THREAD_ENV,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "crystalstat" / "cli.py").is_file():
        print(f"error: no crystalstat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    warm = subprocess.run([sys.executable, "-c", "import crystalstat.cli"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=INVOCATION_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"error: cannot import crystalstat.cli\n{warm.stderr}", file=sys.stderr)
        return 2

    runner, done = run(names, args.seed, args.seconds, args.trace, expected)

    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        invs = done[name]
        n_failed = sum(not i.ok for i in invs)
        attempted += len(invs)
        failed += n_failed
        values = per_layer(invs) if args.trace else end_to_end(name, invs)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": values.get(metric, 0), "unit": unit}
        error_rate = n_failed / len(invs)
        line = (f"{name} seed={args.seed} check={runner.check_kind(name)} "
                f"invocations={len(invs)} error_rate={error_rate:.4g} ({n_failed}/{len(invs)})")
        if args.trace:
            shares = layer_shares(values)
            line += " shares " + " ".join(f"{k}={v:.1%}" for k, v in shares.items())
            line += f" tracing_overhead_s={values['trace.overhead_s']:.4f}"
        else:
            unit = WORKLOADS[name].work_unit
            line += (f" setup_s={values['setup_s']:.4f} s run_s={values['run_s']:.4f} s"
                     f" throughput={values['throughput']:.6g} {unit}/s"
                     f" run_rel={values['run_rel']:.4f} probe"
                     f" throughput_rel={values['throughput_rel']:.6g} {unit}/probe"
                     f" probe_s={values['probe_s']:.4f} s"
                     f" peak_rss_mb={values['peak_rss_mb']:.1f} MB")
        print(line)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (WORK / "result.json").write_text(json.dumps(
        {"args": vars(args), "environment": env, "result": result}, indent=2, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
