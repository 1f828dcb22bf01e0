"""dualrisk benchmark: converse, direct and queries workloads.

Run from the repository root:

    python3 bench/run.py --workload converse --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 7

One process, one thread, one closed-loop client. The last line of
standard output is a JSON object with keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
the per-layer metrics with --trace 1. bench/README.md defines each one.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import speed
import workloads
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("converse", "direct", "queries")
MIN_OPS = 100  # so that op_p90_ms has ten samples beyond it
WARMUP_OPS = 16
SETUP_RUNS = 9
IMPORTTIME_RUNS = 3
IMPORT = [sys.executable, "-c", "import dualrisk.cli"]


def _env() -> dict[str, str]:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _launch(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, env=_env(), cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing dualrisk.cli.

    Scaled by the median of kernel samples taken between the launches,
    not per launch: the child runs on whichever core is free, and one
    kernel sample tracks a single launch worse than the median of many.
    """
    _launch(IMPORT)  # bytecode cache written, as after any first use
    times, kernels = [], []
    for _ in range(SETUP_RUNS):
        kernels.append(speed.kernel_seconds())
        start = perf_counter()
        _launch(IMPORT)
        times.append(perf_counter() - start)
    return statistics.median(times) * speed.REFERENCE_S / statistics.median(kernels)


def import_shares() -> tuple[float, float]:
    """Median numpy and dualrisk-without-numpy import times from -X importtime,
    scaled like setup_seconds."""
    numpy_s, own_s, kernels = [], [], []
    for _ in range(IMPORTTIME_RUNS):
        kernels.append(speed.kernel_seconds())
        lines = [ln.split("|") for ln in _launch(IMPORT[:1] + ["-X", "importtime"] + IMPORT[1:]).stderr.splitlines()]
        rows = [(int(r[1]), r[2]) for r in lines if len(r) == 3 and r[1].strip().isdigit()]
        top = min(len(f) - len(f.lstrip()) for _, f in rows)
        numpy = sum(c for c, f in rows if f.strip() == "numpy")
        ours = sum(c for c, f in rows if len(f) - len(f.lstrip()) == top and f.strip().split(".")[0] == "dualrisk")
        numpy_s.append(numpy / 1e6)
        own_s.append((ours - numpy) / 1e6)
    scale = speed.REFERENCE_S / statistics.median(kernels)
    return statistics.median(numpy_s) * scale, statistics.median(own_s) * scale


def entry_points(tracer=None) -> SimpleNamespace:
    """The public functions the workloads call, wrapped in spans when tracing."""
    from dualrisk import cli, harness

    fns = {
        "random_mixed_tabulated": harness.random_mixed_tabulated,
        "converse_check": harness.converse_check,
        "random_pair": harness.random_pair,
        "direct_check": harness.direct_check,
        "cli_main": cli.main,
    }
    if tracer is not None:
        fns = {k: tracer.wrap(fn, fn.__module__.rpartition(".")[2] + "." + fn.__name__) for k, fn in fns.items()}
    return SimpleNamespace(**fns)


def timed_loop(wl, seconds: float, min_ops: int, tracer=None):
    """Closed loop over whole rounds until both the time and min_ops are reached.

    Returns normalized per-operation latencies, results and the kernel
    samples taken between operations.
    """
    op = wl.run_op if tracer is None else tracer.wrap(wl.run_op, "bench.op")
    latencies, results = [], []
    track = speed.SpeedTrack()
    track.sample(0, force=True)
    deadline = perf_counter() + seconds
    i = 0
    while True:
        if tracer is not None:
            tracer.op = i
        start = perf_counter()
        try:
            result = op(i)
        except Exception as exc:  # an operation that raises is a failed operation
            result = exc
        done = perf_counter()
        latencies.append(done - start)
        results.append(result)
        i += 1
        if i % wl.round_len == 0 and i >= min_ops and done >= deadline:
            track.sample(i, force=True)
            return [t * f for t, f in zip(latencies, track.factors(i))], results, track
        track.sample(i)


def check_all(wl, results) -> tuple[int, int, list[str]]:
    failed = wrong = 0
    messages = []
    for i, result in enumerate(results):
        failure = wl.check(i, result)
        if failure is not None:
            failed += 1
            wrong += failure.wrong
            if len(messages) < 5:
                messages.append(f"op {i}: {failure.message}")
    return failed, wrong, messages


# ---------------------------------------------------------------------------
# traced run


def _family(w) -> str:
    kind = type(w).__name__
    if kind == "Tabulated":
        return "tabulated"
    if kind in ("TverskyKahneman", "Prelec") or (kind == "Power" and w.k.denominator != 1):
        return "float"
    return "exact"


def _states(lot) -> int:
    return lot.n if hasattr(lot, "n") else len(lot.states)


TAGGERS = {
    "valuation.dt_value": lambda args, result: (_family(args[1]), _states(args[0])),
    "valuation.dual_moment": lambda args, result: ("moment", _states(args[0])),
    "dominance.dual_sd_check": lambda args, result: result.failed_condition,
    "dominance.primal_sd_check": lambda args, result: result.failed_condition,
}
GATES = ("mean", "dual_moment_", "raw_moment_", "endpoint_")


def layer_metrics(tracer, wl, results, prefix: int, scale: float) -> dict[str, float]:
    """Per-layer metrics: self times per operation over the traced loop
    (multiplied by the speed scale), exact counts over its first `prefix`
    operations."""
    names, start, end, parent, op_id = tracer.names, tracer.start, tracer.end, tracer.parent, tracer.op_id
    selfs = tracer.self_times()
    self_by_name: dict[str, float] = {}
    dur_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    windows = 0
    for i, s in enumerate(selfs):
        name = names[tracer.name_id[i]]
        self_by_name[name] = self_by_name.get(name, 0.0) + s
        dur_by_name[name] = dur_by_name.get(name, 0.0) + end[i] - start[i]
        if op_id[i] < prefix:
            calls[name] = calls.get(name, 0) + 1
            p = parent[i]
            if name == "weighting.finite_difference" and p >= 0:
                windows += names[tracer.name_id[p]] == "harness.converse_witness_search"
    for (name, op), n in tracer.counts.items():
        if op < prefix:
            calls[name] = calls.get(name, 0) + n

    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, s in self_by_name.items():
        layer_self[name.partition(".")[0]] += s
    wall = dur_by_name.get("bench.op", 0.0)
    if abs(sum(layer_self.values()) - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError("layer self times do not add up to operation wall time")

    states = {"exact": 0, "tabulated": 0, "float": 0, "moment": 0}
    dt_time = {"exact": 0.0, "tabulated": 0.0, "float": 0.0}
    states_prefix = 0
    gate = routed = 0
    for idx, tag in tracer.tags.items():
        name = names[tracer.name_id[idx]]
        if name.startswith("valuation."):
            family, n = tag
            states[family] += n
            if family in dt_time:
                dt_time[family] += end[idx] - start[idx]
            if op_id[idx] < prefix:
                states_prefix += n
        elif op_id[idx] < prefix:
            routed += 1
            gate += tag is not None and tag.startswith(GATES)

    per_op = scale / len(results)
    out = {f"{layer}.self_s": layer_self[layer] * per_op for layer in LAYERS}
    out.update(
        {
            f"valuation.us_per_state.{f}": (1e6 * scale * dt_time[f] / states[f]) if states[f] else 0.0
            for f in dt_time
        }
    )
    witnesses = calls.get("harness.converse_witness_search", 0)
    out.update(
        {
            "valuation.dt_value.calls": calls.get("valuation.dt_value", 0),
            "valuation.dual_moment.calls": calls.get("valuation.dual_moment", 0),
            "valuation.states_valued": states_prefix,
            "weighting.eval_h.calls": calls.get("weighting.eval_h", 0),
            "weighting.fd_sign.self_s": self_by_name.get("weighting.finite_difference_sign", 0.0) * per_op,
            "weighting.poly_certify.self_s": self_by_name.get("weighting.Polynomial.__post_init__", 0.0) * per_op,
            "harness.windows_per_witness": windows / witnesses if witnesses else 0.0,
            "harness.witness_states_mean": wl.witness_states_mean(results[:prefix]),
            "apportionment.pairs_built": sum(
                calls.get(f"apportionment.{f}", 0) for f in ("make_pair", "make_parsimonious_pair", "rebuild_pair")
            ),
            "apportionment.validate_s": dur_by_name.get("apportionment._validate_pair", 0.0) * per_op,
            "dominance.checks": routed,
            "dominance.gate_decided": gate,
            "dominance.pointwise_decided": routed - gate,
            "dominance.gate_decided_ratio": gate / routed if routed else 0.0,
            "piecewise.evals": calls.get("piecewise.PiecewisePoly.__call__", 0),
            "piecewise.antiderivatives": calls.get("piecewise.PiecewisePoly.antiderivative", 0),
            "polyops.certify.calls": calls.get("polyops.nonneg_on_interval", 0),
            "lottery.cdf.calls": calls.get("lottery.cdf", 0),
            "lottery.parse.calls": calls.get("lottery.parse_lottery_text", 0),
            "applications.sp_solve.calls": calls.get("applications.sp_solve", 0),
            "trace.op_wall_s": wall * per_op,
            "trace.unaccounted_s": layer_self["bench"] * per_op,
        }
    )
    return out


# ---------------------------------------------------------------------------
# one workload in this process


def run_workload(name: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    metrics: dict[str, float] = {}
    if trace:
        metrics["setup.import_numpy_s"], metrics["setup.import_dualrisk_s"] = import_shares()
    else:
        metrics["setup_s"] = setup_seconds()
    work = workloads.work_dir(ROOT)
    try:
        wl = workloads.make(name, seed, entry_points(), work)
        for i in range(WARMUP_OPS):  # lazy imports and first-call costs
            try:
                wl.run_op(i)
            except Exception:  # counted when the same operation runs in the timed loop
                pass
        wl.reset()
        latencies, results, track = timed_loop(wl, seconds / 2 if trace else seconds, 0 if trace else MIN_OPS)
        phases = [(wl, results)]
        if trace:
            tracer = Tracer()
            traced_wl = workloads.make(name, seed, entry_points(tracer), work / "traced")
            prefix = -(-MIN_OPS // traced_wl.round_len) * traced_wl.round_len
            tracer.install(TAGGERS)
            try:
                traced_latencies, traced_results, track = timed_loop(traced_wl, seconds / 2, prefix, tracer)
            finally:
                tracer.uninstall()
            phases.append((traced_wl, traced_results))
            scale = speed.REFERENCE_S / track.median_kernel()
            metrics.update(layer_metrics(tracer, traced_wl, traced_results, prefix, scale))
            metrics["trace.overhead_ratio"] = (
                len(traced_results) / sum(traced_latencies) / (len(results) / sum(latencies))
            )
            tracer.write(ROOT / ".bench_out" / f"spans-{name}-seed{seed}.tsv.gz")
        attempted = failed = wrong = 0
        messages: list[str] = []
        for phase_wl, phase_results in phases:
            f, w, msgs = check_all(phase_wl, phase_results)
            attempted += len(phase_results)
            failed, wrong, messages = failed + f, wrong + w, messages + msgs
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        n = len(latencies)
        metrics.update(
            {
                "ops_per_s": n / sum(latencies),
                "op_p50_ms": 1e3 * statistics.median(latencies),
                "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
                "op_success_ratio": (n - failed) / n,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        )
    print(f"{name}: speed kernel median {1e3 * track.median_kernel():.3f} ms "
          f"(reference {1e3 * speed.REFERENCE_S:g} ms); times below are normalized to the reference")
    missing = set(declared) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {sorted(missing)}")
    for line in messages:
        print(f"{name}: {line}", file=sys.stderr)
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared},
    }


def report(name: str, seed: int, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name} (seed {seed}): {attempted} operations, {failed} failed, "
          f"op_fail_ratio {failed / attempted:.6g}, correct {str(result['correct']).lower()}")
    for key, m in result["metrics"].items():
        print(f"  {key:<34} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dualrisk" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: no dualrisk source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    if args.workload == "all":
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            child = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(child.stderr)
            if child.returncode != 0:
                print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
                return 1
            print("\n".join(child.stdout.splitlines()[:-1]))
            result = json.loads(child.stdout.splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        print(json.dumps(combined))
        return 0

    sys.path.insert(0, str(ROOT / "src"))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), declared)
    report(args.workload, args.seed, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
