#!/usr/bin/env python3
"""coupledrom benchmark: offline build to certified query, timed end to end
and per layer.  README.md in this directory describes the phases, workloads,
metrics and statistics.

    python3 perfbench/run.py --workload heat-unsteady --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` there.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Every run also
writes a record (machine, seed, phase times, outcomes) under
``.bench_out/runs``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

clock = time.perf_counter

#: online queries per block; the stream is time-bounded in whole blocks
ONLINE_BLOCK = 100
#: the untraced online stream runs at least this many blocks, so that the
#: recorded p99 over all queries has at least ten samples beyond it
MIN_ONLINE_BLOCKS = 10
#: the phases after the first setup and offline build run interleaved in
#: this many rounds; online_p50_us is the mean of the rounds' medians
ROUNDS = 20
#: certified query points come from one stream fixed by this seed, not by
#: --seed, so that max_rel_error compares exactly across runs and commits;
#: every pass draws fresh points from it
CERTIFY_SEED = 20_240_601
#: certified bounds are compared with the library's own relative slack
BOUND_SLACK = 1e-12

END_TO_END = {
    "setup_s": "s",
    "offline_s": "s",
    "online_qps": "1/s",
    "online_p50_us": "us",
    "certify_qps": "1/s",
    "max_rel_error": "ratio",
    "peak_rss_mb": "MB",
}


class Ledger:
    """Operations attempted, failed (raised or invalid output) and incorrect
    (returned an output that failed its check)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.errors: Counter = Counter()
        self.first_errors: dict[str, str] = {}

    def ok(self) -> None:
        self.attempted += 1

    def raised(self, where: str, exc: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        key = f"{where}:{type(exc).__name__}"
        self.errors[key] += 1
        self.first_errors.setdefault(key, "".join(traceback.format_exception_only(exc)).strip())

    def wrong(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.incorrect += 1
        self.errors[f"invalid:{what}"] += 1


def import_library():
    src = ROOT / "src"
    if not (src / "coupledrom" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {src}/coupledrom")
    sys.path.insert(0, str(src))
    import coupledrom  # noqa: F401


def _draw(rng, space):
    import numpy as np

    return np.array([rng.uniform(lo, hi) for lo, hi in space.ranges], dtype=float)


def _finite_with_shape(result, slave_shape) -> bool:
    import numpy as np

    fields = (result.master_reduced, result.slave_reduced, result.trace, result.slave_solution)
    return (
        result.slave_solution is not None
        and result.slave_solution.shape == slave_shape
        and all(f is not None and bool(np.all(np.isfinite(f))) for f in fields)
    )


def _same_result(a, b) -> bool:
    import numpy as np

    return all(
        np.array_equal(x, y)
        for x, y in (
            (a.master_reduced, b.master_reduced),
            (a.slave_reduced, b.slave_reduced),
            (a.trace, b.trace),
            (a.slave_solution, b.slave_solution),
        )
    )


def run_workload(workload, seed: int, seconds: float, work_dir: Path, tracer=None) -> dict:
    """Run the phases of one workload; returns metrics, outcomes and phase times.

    The first setup and the first offline build come first.  The remaining
    setup and offline repetitions, the online stream and the certify passes
    then run interleaved in ROUNDS rounds, so that the repetitions of each
    phase are spread over the whole run rather than bunched together in one
    stretch of a machine whose speed drifts.
    """
    import numpy as np
    from coupledrom import experiments, pipeline, storage

    def next_op():
        if tracer is not None:
            tracer.op_id += 1

    ledger = Ledger()
    config = experiments.config_from_dict(workload.config_dict())
    config = dataclasses.replace(config, output_dir=str(work_dir / "bundles"))
    spec = config.problem
    m_space, s_space = spec.master.parameters, spec.slave.parameters
    busy = Counter()  # phase -> seconds

    # 1. setup: a failure here leaves nothing to measure, so it ends the run
    setup_times = []

    def setup_rep():
        next_op()
        t0 = clock()
        fom = pipeline.build_fom(spec)
        setup_times.append(clock() - t0)
        busy["setup"] += setup_times[-1]
        ledger.ok()
        return fom

    fom = setup_rep()

    # 2. offline; the tightest triple is the serving bundle
    tight = tuple(min(t[i] for t in config.grid()) for i in range(3))
    offline_times = []

    def offline_rep():
        next_op()
        t0 = clock()
        _, results = experiments.run_offline(config)
        serving_dir, serving_art = next((d, a) for triple, d, _, a in results if triple == tight)
        loaded = storage.load_bundle(serving_dir)
        offline_times.append(clock() - t0)
        busy["offline"] += offline_times[-1]
        ledger.ok()
        return serving_art, loaded

    serving_art, loaded = offline_rep()

    rng = np.random.default_rng(seed)
    if spec.is_unsteady:
        slave_shape = (spec.time.n_steps + 1, fom.slave.n_dofs)
    else:
        slave_shape = (fom.slave.n_dofs,)

    # bundle round trip: the loaded bundle answers bit for bit like memory
    next_op()
    mu1, mu2 = _draw(rng, m_space), _draw(rng, s_space)
    try:
        same = _same_result(
            pipeline.online_solve(serving_art, mu1, mu2), pipeline.online_solve(loaded, mu1, mu2)
        )
    except Exception as exc:
        ledger.raised("round_trip", exc)
    else:
        ledger.ok() if same else ledger.wrong("bundle_round_trip")

    # 3. online stream, in blocks of ONLINE_BLOCK queries
    blocks = []
    round_p50 = []

    def online_block():
        latencies = np.empty(ONLINE_BLOCK)
        for i in range(ONLINE_BLOCK):
            mu1, mu2 = _draw(rng, m_space), _draw(rng, s_space)
            next_op()
            t0 = clock()
            try:
                result = pipeline.online_solve(loaded, mu1, mu2)
            except Exception as exc:
                latencies[i] = clock() - t0
                ledger.raised("online", exc)
                continue
            latencies[i] = clock() - t0
            ledger.ok() if _finite_with_shape(result, slave_shape) else ledger.wrong("online_output")
        busy["online"] += float(latencies.sum())
        blocks.append(latencies)

    # 4. certify, at points from the fixed CERTIFY_SEED stream; each pass
    # draws new points and starts with an empty cache
    cert_rng = np.random.default_rng(CERTIFY_SEED)
    rel_errors, effectivities, valid = [], [], 0
    certify_times = []  # one entry per pass

    def certify_pass():
        nonlocal valid
        cache = experiments.SigmaCache()
        points = [(_draw(cert_rng, m_space), _draw(cert_rng, s_space))
                  for _ in range(workload.certify_queries)]
        t_pass = 0.0
        for mu1, mu2 in points:
            next_op()
            t0 = clock()
            try:
                fres = pipeline.fom_coupled_solve(fom, mu1, mu2)
                online = pipeline.online_solve(loaded, mu1, mu2)
                rel_errors.append(experiments.relative_error(fres.slave, online.slave_solution))
                if spec.is_unsteady:
                    reports = experiments.unsteady_query_bounds(
                        fom, loaded, mu1, mu2, online, fres, cache
                    )
                else:
                    reports = [experiments.steady_query_bound(
                        fom, loaded, mu1, mu2, online, fres, cache
                    )]
            except Exception as exc:
                t_pass += clock() - t0
                ledger.raised("certify", exc)
                continue
            t_pass += clock() - t0
            bounds = np.array([r.total for r in reports])
            errors = np.array([r.actual_error for r in reports])
            if np.all(np.isfinite(bounds)) and np.all(bounds >= errors * (1 - BOUND_SLACK)):
                valid += 1
                ledger.ok()
            else:
                ledger.wrong("certified_bound")
            nonzero = errors > 0
            if np.any(nonzero):
                effectivities.append(float(np.median(bounds[nonzero] / errors[nonzero])))
        certify_times.append(t_pass)
        busy["certify"] += t_pass

    def due(reps, r):
        return math.ceil(reps * (r + 1) / ROUNDS)

    for r in range(ROUNDS):
        while len(setup_times) < due(workload.setup_reps, r):
            setup_rep()
        while len(offline_times) < due(workload.offline_reps, r):
            offline_rep()
        first_block = len(blocks)
        if tracer is not None:
            while len(blocks) < due(workload.traced_online_blocks, r):
                online_block()
        else:
            min_blocks = MIN_ONLINE_BLOCKS if r == ROUNDS - 1 else 0
            while busy["online"] < seconds * (r + 1) / ROUNDS or len(blocks) < min_blocks:
                online_block()
        if len(blocks) > first_block:
            round_p50.append(float(np.median(np.concatenate(blocks[first_block:]))))
        while len(certify_times) < due(workload.certify_reps, r):
            certify_pass()

    # 5. sweep: timed by the traced run only (experiments.sweep_s), which
    # leaves the untraced run's time to the phases behind the end-to-end metrics
    if workload.sweep and tracer is not None:
        next_op()
        t0 = clock()
        try:
            rows = experiments.run_sweep(config)
        except Exception as exc:
            ledger.raised("sweep", exc)
        else:
            sound = len(rows) == len(config.grid()) and all(
                r["bound_valid_fraction"] == 1.0 and math.isfinite(r["mean_error"]) for r in rows
            )
            ledger.ok() if sound else ledger.wrong("sweep_rows")
        busy["sweep"] = clock() - t0

    latencies = np.concatenate(blocks)
    n_certified = workload.certify_reps * workload.certify_queries
    metrics = {
        "setup_s": statistics.median(setup_times),
        # a median: single repetitions stall, on the host or on writing the
        # bundles, at up to twice the time of the others
        "offline_s": statistics.median(offline_times),
        # closed loop with one client: queries over the time spent in them
        "online_qps": len(latencies) / float(latencies.sum()),
        # each round's median, averaged over the rounds: a machine whose speed
        # drifts moves it in proportion to the time spent slow, as it moves a
        # mean, rather than by a jump once that time passes one half
        "online_p50_us": float(np.mean(round_p50)) * 1e6,
        "certify_qps": n_certified / sum(certify_times),
        "max_rel_error": max(rel_errors) if rel_errors else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    outcomes = {
        "bound_valid_fraction": valid / n_certified,
        "median_effectivity": statistics.median(effectivities) if effectivities else 0.0,
        "fail_fraction": ledger.failed / ledger.attempted,
        "sweep_s": busy["sweep"],
        "online_samples": len(latencies),
        # host stalls of several ms, in bursts, set the tail; it is recorded
        # but no end-to-end metric (README, "Statistics on a shared machine")
        "online_p90_us": float(np.percentile(latencies, 90)) * 1e6,
        "online_p99_us": float(np.percentile(latencies, 99)) * 1e6,
        "certify_samples": n_certified,
        "setup_samples": len(setup_times),
        "offline_samples": len(offline_times),
        "setup_times_s": setup_times,
        "offline_times_s": offline_times,
        "certify_times_s": certify_times,
    }
    return {"metrics": metrics, "outcomes": outcomes, "phases_s": dict(busy), "ledger": ledger}


def per_layer_metrics(tracer, run: dict, untraced: dict) -> dict:
    from tracing import layer_metrics

    out = layer_metrics(tracer)
    outcomes = run["outcomes"]
    out["experiments.bound_valid_fraction"] = outcomes["bound_valid_fraction"]
    out["experiments.median_effectivity"] = outcomes["median_effectivity"]
    out["bench.fail_fraction"] = outcomes["fail_fraction"]
    for name, value in run["metrics"].items():
        out[f"overhead.{name}"] = value - untraced[name]["value"]
    return out


def _units(name: str) -> str:
    if name.startswith("overhead."):
        return END_TO_END[name.split(".", 1)[1]]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_fraction", "_effectivity")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def _untraced_child(args) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: untraced run failed with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = clock()

    import_library()
    from machine import machine_record

    workload = WORKLOADS[args.workload]
    untraced = _untraced_child(args) if args.trace else None

    tracer = inst = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        inst = tracing.install(tracer)
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        run = run_workload(workload, args.seed, args.seconds, work_dir, tracer)
    finally:
        if inst is not None:
            inst.undo()
        shutil.rmtree(work_dir, ignore_errors=True)

    ledger = run["ledger"]
    if args.trace:
        values = per_layer_metrics(tracer, run, untraced)
        metrics = {k: {"value": v, "unit": _units(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in run["metrics"].items()}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": clock() - t_start,
        "machine": machine_record(ROOT),
        "phases_s": run["phases_s"],
        "end_to_end": run["metrics"],
        "outcomes": run["outcomes"],
        "errors": dict(ledger.errors),
        "first_errors": ledger.first_errors,
        "metrics": metrics,
    }
    (OUT / "runs").mkdir(exist_ok=True)
    (OUT / "runs" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / "spans").mkdir(exist_ok=True)
        tracer.write_spans(OUT / "spans" / f"{stem}.jsonl")

    summary = " ".join(f"{k}={v:.6g}" for k, v in {**run["metrics"], **run["outcomes"]}.items()
                       if not isinstance(v, list))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {summary} "
          f"errors={dict(ledger.errors)} wall={record['wall_s']:.1f}s", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.incorrect == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
