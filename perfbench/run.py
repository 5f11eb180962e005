"""Benchmark runner for entmono.

    python3 perfbench/run.py --workload solver-grid --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                      # every workload in turn

One run measures set-up in fresh processes, then runs as many whole passes
over the workload's operation list as fit in ``--seconds``, checks every
output of the first pass independently and every later pass for identical
outputs, and prints one JSON object as its last line.  With ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are printed
instead of the end-to-end ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# one BLAS thread: on 2 CPUs a second thread made identical work vary by +-25%
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("solver-grid", "verdicts", "invariants")
SETUP_SAMPLES = 11
END_TO_END = [
    ("setup_s", "s"), ("pass_s", "s"), ("largest_op_s", "s"),
    ("cpu_s", "s"), ("peak_rss_mb", "MB"),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads; inherited by every child process
        os.environ[var] = THREADS

    if not (SRC / "entmono" / "__init__.py").is_file():
        print(f"error: no entmono sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def setup_times(workload: str) -> list[float]:
    """Wall time of fresh processes that import entmono and warm every op kind."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload], check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import checks  # these load numpy, so only after the thread settings
    import workloads

    setup = statistics.median(setup_times(args.workload))

    build, warm = workloads.WORKLOADS[args.workload]
    outdir = OUT / f"{args.workload}-seed{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    warm()
    work = build(args.seed, outdir)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()

    # whole passes only: another one starts if it should end inside the window
    passes, layer_passes, untraced_walls = [], [], []
    t_start = time.perf_counter()
    while not passes or (
            time.perf_counter() - t_start + passes[-1]["wall"] <= args.seconds) or (
            tracer is not None and not layer_passes):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            mark = tracer.mark()
            tracer.install()
        try:
            result = run_pass(work.ops)
        finally:
            if traced:
                tracer.uninstall()
        passes.append(result)
        if traced:
            metrics = tracer.layer_metrics(mark)
            metrics["trace.pass_s"] = result["wall"]
            layer_passes.append(metrics)
        else:
            untraced_walls.append(result["wall"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    first = {op.name: out for op, out in zip(work.ops, passes[0]["outputs"])}
    for i, (op, out) in enumerate(zip(work.ops, passes[0]["outputs"])):
        if out is FAILED:
            continue
        try:
            op.check(out, first)
        except checks.CheckFailed as exc:
            correct = False
            print(f"check failed: {op.name}: {exc}", file=sys.stderr)
        except Exception:
            correct = False
            print(f"check raised: {op.name}", file=sys.stderr)
            traceback.print_exc()
        for later in passes[1:]:
            other = later["outputs"][i]
            if other is not FAILED and fingerprint(other) != fingerprint(out):
                correct = False
                print(f"output changed between passes: {op.name}", file=sys.stderr)
                break

    attempted = len(passes) * len(work.ops)
    failed = sum(p["failed"] for p in passes)
    if tracer is not None:
        import spans
        layer = spans.median_metrics(layer_passes)
        layer["trace.overhead_s"] = layer.pop("trace.pass_s") - statistics.median(untraced_walls)
        tracer.save(outdir / "spans.npz")
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
    else:
        values = {
            "setup_s": setup,
            "pass_s": statistics.median(p["wall"] for p in passes),
            "largest_op_s": statistics.median(p["op_s"][work.largest] for p in passes),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"ops per pass {len(work.ops)}  BLAS threads {THREADS}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  attempted {attempted}  failed {failed}  correct {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


FAILED = object()  # stands in for the output of an operation that raised


def run_pass(ops) -> dict:
    outputs, op_s, failed = [], {}, 0
    c0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        s = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # a failing operation is counted, not fatal
            out = FAILED
            failed += 1
            print(f"operation failed: {op.name}", file=sys.stderr)
            traceback.print_exc()
        op_s[op.name] = time.perf_counter() - s
        outputs.append(out)
    wall = time.perf_counter() - t0
    return {"wall": wall, "cpu": time.process_time() - c0, "op_s": op_s,
            "outputs": outputs, "failed": failed}


def fingerprint(out) -> str:
    """Canonical text of an output, for comparing passes."""
    if hasattr(out, "certificate"):
        frames = [f.tobytes().hex() for f in out.certificate.frames]
        return json.dumps([out.to_dict(), repr(out.value), frames])
    if hasattr(out, "to_dict"):
        return json.dumps(out.to_dict(), sort_keys=True)
    if hasattr(out, "value"):
        return repr(out.value)
    return json.dumps(out, sort_keys=True, default=repr)


if __name__ == "__main__":
    sys.exit(main())
