"""latscreen benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  With
--trace 0 the end-to-end metrics are measured: whole passes over the
workload's calls are timed until S seconds have gone by (at least
MIN_PASSES), each time rescaled to a reference machine speed (speed.py), and
set-up is timed in fresh interpreters.  With --trace 1 one untraced and one traced pass run;
the traced pass gives the per-layer metrics, and both passes must produce
identical output digests.  Every run checks the outputs (frozen digests for
the default seed, invariants for any seed), prints a readable report, writes
a detailed record to .perfbench_out/, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--write-digests` refreezes the default seed's per-call digests of one
workload into perfbench/digests.json from the code as it stands.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MIN_PASSES = 3

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("calls_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


class NoPackage(RuntimeError):
    """The checkout holds no latscreen sources to benchmark."""


def import_package():
    """Import latscreen from ./src of this checkout, never from elsewhere."""
    if not (SRC / "latscreen" / "__init__.py").is_file():
        raise NoPackage(f"no latscreen package under {SRC}")
    sys.path.insert(0, str(SRC))
    import latscreen
    import latscreen.cli  # noqa: F401

    if Path(latscreen.__file__).resolve().parent != (SRC / "latscreen").resolve():
        raise NoPackage(f"latscreen was imported from {latscreen.__file__}, not from {SRC}")
    return latscreen


def environment(ls, seed: int) -> dict:
    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    backend = getattr(ls, "active_backend", None)
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": numba_ok,
        "kernels_layer": "measured" if numba_ok else "absent: numba is not importable",
        "active_backend": backend() if callable(backend) else "numpy (no backend switch)",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }


@dataclass
class Pass:
    """Results of one pass over the calls.  `seconds` holds wall times and
    `scaled` the same times at reference speed (see speed.py)."""

    seconds: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    summaries: list = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)
    stdout_bytes: int = 0

    @property
    def combined(self) -> str:
        return workloads.digest("\n".join(d or "error" for d in self.digests).encode())


def run_pass(ls, calls, tracer=None) -> Pass:
    """Time each call alone, with a run of the calibration loop after each;
    digesting the result happens outside the timer."""
    out = Pass()
    warn_code = getattr(ls, "WARN_2B_ODD", "rank2-type2b-odd-scale")
    clock = time.perf_counter
    recent = collections.deque([speed.calibrate()], maxlen=5)
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = i
        t0 = clock()
        try:
            result = workloads.run_call(ls, call)
        except Exception as e:  # a raising call is a failed call, not a crash
            result = e
        wall = clock() - t0
        recent.append(speed.calibrate())
        out.seconds.append(wall)
        out.scaled.append(speed.scale(wall, statistics.median(recent)))
        if isinstance(result, Exception):
            e = result
            out.digests.append(None)
            out.summaries.append(None)
            out.errors[i] = f"{type(e).__name__}: {e}"
            continue
        out.digests.append(workloads.digest(workloads.canonical_bytes(call, result)))
        out.summaries.append(workloads.summary(call, result, warn_code))
        if call.kind == "cli":
            out.stdout_bytes += len(result[1].encode("utf-8"))
    return out


def frozen_digests(name: str, seed: int) -> list[str] | None:
    if seed != workloads.DEFAULT_SEED or not DIGESTS.is_file():
        return None
    entry = json.loads(DIGESTS.read_text()).get("workloads", {}).get(name)
    return entry["calls"] if entry else None


def failures(calls, p: Pass, expected: list[str] | None) -> dict[int, str]:
    """Failed calls of one pass: raised, digest mismatch against `expected`
    (frozen digest prefixes or another pass's digests), or an invariant
    breach."""
    bad = dict(p.errors)
    if expected is not None:
        if len(expected) != len(calls):
            return {i: "frozen digest list has another length" for i in range(len(calls))}
        for i, d in enumerate(p.digests):
            if d is not None and (expected[i] is None or not d.startswith(expected[i])):
                bad.setdefault(i, "output digest mismatch")
    for i, why in workloads.violations(calls, p.summaries).items():
        bad.setdefault(i, why)
    return bad


def quantile_ms(samples: list[float], q: float) -> float:
    """The q-quantile of the samples in milliseconds, by the Harrell-Davis
    estimator: a Beta((n+1)q, (n+1)(1-q))-weighted mean of the order
    statistics.  It uses every sample near the quantile instead of one or
    two, so it moves less with the noise of single calls."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 64
    t = np.linspace(0.0, 1.0, steps * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.concatenate(([0.0], np.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    weights = np.diff(cdf[::steps]) / cdf[-1]
    return 1000 * float(weights @ x)


def setup_seconds(name: str, probes: int) -> tuple[list[float], list[float]]:
    """Wall and scaled seconds to import numpy and latscreen and make the
    warm-up call, each in a fresh interpreter, one after another."""
    wall, scaled = [], []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        wall.append(probe["wall"])
        scaled.append(speed.scale(probe["wall"], probe["loop"]))
    return wall, scaled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timing_metrics(samples: list[float]) -> dict[str, float]:
    return {
        "calls_per_s": len(samples) / sum(samples),
        "call_p50_ms": quantile_ms(samples, 0.5),
        "call_p90_ms": quantile_ms(samples, 0.9),
    }


def measure(ls, name: str, calls, seconds: float, frozen,
            probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """End-to-end run: whole passes until `seconds` have elapsed, at least
    MIN_PASSES.  A call's latency is the median of its scaled times over the
    passes: rescaling can err either way, so a middle value moves less from
    run to run than the fastest one."""
    setup_wall, setup_scaled = setup_seconds(name, probes)
    passes: list[Pass] = []
    gc.collect()
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        passes.append(run_pass(ls, calls))
    bad = failures(calls, passes[0], frozen)
    failed = len(bad) + sum(len(failures(calls, p, passes[0].digests)) for p in passes[1:])
    attempted = len(calls) * len(passes)
    per_call = [statistics.median(p.scaled[i] for p in passes) for i in range(len(calls))]
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        **timing_metrics(per_call),
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    wall = {
        "setup_s": statistics.median(setup_wall),
        **timing_metrics([s for p in passes for s in p.seconds]),
    }
    detail = {
        "passes": len(passes),
        "samples": len(per_call),
        "wall_clock": wall,
        "setup_samples_wall_s": setup_wall,
        "combined_digest": passes[0].combined,
        "digest_checked_against": "frozen" if frozen is not None else "invariants only",
        "failures": {calls[i].label: why for i, why in sorted(bad.items())},
        "per_call_ms": [1000 * s for s in per_call],
        "slowest_calls_ms": sorted(
            ((round(1000 * s, 3), calls[i].label) for i, s in enumerate(per_call)), reverse=True)[:5],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, detail


def measure_traced(ls, name: str, seed: int, calls, frozen) -> tuple[dict, dict]:
    """One untraced and one traced pass; per-layer metrics from the traced one."""
    gc.collect()
    plain = run_pass(ls, calls)
    gc.collect()
    tracer = spans.Tracer()
    with tracer:
        traced = run_pass(ls, calls, tracer)
    bad = failures(calls, plain, frozen)
    bad_traced = failures(calls, traced, plain.digests)
    metrics = tracer.layer_metrics()
    metrics["cli.stdout_bytes"] = traced.stdout_bytes
    rate = len(calls) / sum(plain.scaled)
    traced_rate = len(calls) / sum(traced.scaled)
    metrics["trace.overhead_ratio"] = traced_rate / rate
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans_{name}_seed{seed}.npz"
    tracer.write(span_file)
    detail = {
        "spans": len(tracer),
        "span_file": str(span_file.relative_to(ROOT)),
        "missing_targets": tracer.missing,
        "untraced_calls_per_s": rate,
        "traced_calls_per_s": traced_rate,
        "combined_digest": plain.combined,
        "traced_combined_digest": traced.combined,
        "digests_identical": plain.digests == traced.digests,
        "digest_checked_against": "frozen" if frozen is not None else "invariants only",
        "failures": {calls[i].label: why for i, why in sorted(bad.items())},
        "traced_failures": {calls[i].label: why for i, why in sorted(bad_traced.items())},
    }
    result = {"attempted": 2 * len(calls), "failed": len(bad) + len(bad_traced), "metrics": metrics}
    return result, detail


def write_digests(ls, name: str) -> None:
    calls = workloads.build(name, workloads.DEFAULT_SEED)
    p = run_pass(ls, calls)
    if p.errors:
        raise SystemExit(f"refusing to freeze digests: {len(p.errors)} calls raised")
    doc = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    doc["seed"] = workloads.DEFAULT_SEED
    doc.setdefault("workloads", {})[name] = {
        "combined": p.combined,
        "calls": [d[:workloads.DIGEST_CHARS] for d in p.digests],
    }
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"froze {len(calls)} digests of {name} (seed {workloads.DEFAULT_SEED})")


def metric_units(trace: bool) -> dict[str, str]:
    if trace:
        return {name: unit for name, unit, _ in spans.metric_spec()}
    return dict(END_TO_END)


def report(name: str, seed: int, trace: bool, result: dict, detail: dict, env: dict) -> None:
    units = metric_units(trace)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"python {env['python']}  numpy {env['numpy']}  backend {env['active_backend']}  "
          f"_kernels {env['kernels_layer']}  nproc {env['nproc']}  cpu {env['cpu_model']}")
    for key in ("passes", "samples", "spans", "combined_digest", "digest_checked_against"):
        if key in detail:
            print(f"  {key}: {detail[key]}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:<48} {value:>16.6g} {units[metric]}")
    for metric, value in detail.get("wall_clock", {}).items():
        print(f"  wall clock {metric:<37} {value:>16.6g} {units[metric]}")
    print(f"  failed {result['failed']} of {result['attempted']} call executions")
    for label, why in list(detail.get("failures", {}).items())[:10]:
        print(f"  FAILED {label}: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        ls = import_package()
    except NoPackage as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.write_digests:
        write_digests(ls, args.workload)
        return 0
    calls = workloads.build(args.workload, args.seed)
    frozen = frozen_digests(args.workload, args.seed)
    workloads.run_call(ls, workloads.WARMUP[args.workload])
    if args.trace:
        result, detail = measure_traced(ls, args.workload, args.seed, calls, frozen)
    else:
        result, detail = measure(ls, args.workload, calls, args.seconds, frozen)
    env = environment(ls, args.seed)
    result = {"correct": result["failed"] == 0, **result}
    report(args.workload, args.seed, bool(args.trace), result, detail, env)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record.write_text(json.dumps(
        {"workload": args.workload, "why": workloads.WHY[args.workload],
         "environment": env, "detail": detail, **result}, indent=1) + "\n")
    units = metric_units(bool(args.trace))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")} | {
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in result["metrics"].items()}
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
