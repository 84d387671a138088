#!/usr/bin/env python3
"""scnet benchmark: builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
The binary runs with every SCNET_* variable removed from its environment, so
none of them can change what is measured; the variables that were present are
recorded in the report. The report (configuration, checks, end-to-end metrics
and, with --trace 1, the per-layer table) goes first; the last stdout line is
one JSON object with keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exits non-zero without a result line when the build or the run fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["sort_mixed", "count_mixed", "service_next", "service_increment"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"scnet sources not found under {ROOT / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "scnet_perfbench",
                  "-j", jobs])
    # Compiler temporary files stay inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(step))
    binary = out / "scnet_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_binary(binary, workload, seed, seconds, trace, out):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCNET_")}
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=3 * seconds + 60)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in time")
    if proc.returncode != 0:
        print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
        sys.exit(proc.returncode if proc.returncode > 0 else 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result")
    return json.loads(lines[-1])


def fmt(value):
    return f"{value:.6g}"


def report(result, spec, layers, trace):
    workload = result["config"]["workload"]
    print(f"== {workload} (seed {result['config']['seed']}, "
          f"{'traced' if trace else 'untraced'}) ==")
    print("config: " + json.dumps(result["config"], sort_keys=True))
    print("checks: " + ", ".join(f"{k}={'ok' if v else 'FAILED'}"
                                  for k, v in sorted(result["checks"].items())))
    attempted, failed = result["attempted"], result["failed"]
    print(f"operations: attempted {attempted}, failed {failed}, "
          f"failed_ratio {failed / max(attempted, 1):.6g}")
    for key, value in sorted(result["notes"].items()):
        if not key.startswith("self_s."):
            print(f"note: {key} = {value}")
    if "paper_claim.network_over_atomic" in result["notes"]:
        ratio = float(result["notes"]["paper_claim.network_over_atomic"])
        verdict = "holds" if ratio > 1 else "does not hold"
        print(f"paper claim (counting network beats a central counter at "
              f"{result['notes']['paper_claim.threads']} threads): "
              f"CountingService/AtomicCounter = {ratio:.4g}, {verdict} on this host")
    print(f"{'end-to-end metric':<34}{'value':>16}  unit")
    for m in spec["end_to_end"]:
        got = result["end_to_end"][m["name"]]
        print(f"{m['name']:<34}{fmt(got['value']):>16}  {got['unit']}")
    if trace:
        print(f"{'per-layer metric':<34}{'value':>16}  {'unit':<8} should move")
        for m in spec["per_layer"]:
            info = layers[m["name"]]
            got = result["per_layer"].get(m["name"])
            if workload not in info["workloads"]:
                value = "n/a"
            else:
                value = fmt(got["value"]) if got else "MISSING"
            print(f"{m['name']:<34}{value:>16}  {m['unit']:<8} {info['moves']}")
        selfs = {k[len("self_s."):]: float(v) for k, v in result["notes"].items()
                 if k.startswith("self_s.")}
        if selfs:
            print("span self time (s): " + ", ".join(
                f"{k}={v:.4g}" for k, v in sorted(selfs.items())))


def metrics_for(result, spec, layers, trace):
    """The BENCHMARK.json metric set, checked for presence and finiteness."""
    workload = result["config"]["workload"]
    metrics = {}
    ok = True
    group = "per_layer" if trace else "end_to_end"
    for m in spec[group]:
        got = result[group].get(m["name"])
        if got is None:
            unused_layer = trace and workload not in layers[m["name"]]["workloads"]
            if not unused_layer:
                print(f"perfbench: missing metric {m['name']}", file=sys.stderr)
                ok = False
            got = {"value": 0.0}
        value = float(got["value"])
        if not math.isfinite(value):
            print(f"perfbench: metric {m['name']} is not finite", file=sys.stderr)
            ok = False
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    layers = json.loads((HERE / "layers.json").read_text())["per_layer"]

    out = build_dir()
    started = time.monotonic()
    binary = build(out)
    print(f"build: {binary} ready in {time.monotonic() - started:.1f} s")
    scrubbed = sorted(k for k in os.environ if k.startswith("SCNET_"))
    print("SCNET_* variables removed from the binary's environment: "
          + (", ".join(f"{k}={os.environ[k]}" for k in scrubbed) or "none"))

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        result = run_binary(binary, workload, args.seed, args.seconds,
                            args.trace == 1, out)
        report(result, spec, layers, args.trace == 1)
        got, ok = metrics_for(result, spec, layers, args.trace == 1)
        correct = correct and ok and bool(result["correct"])
        attempted += int(result["attempted"])
        failed += int(result["failed"])
        if len(workloads) == 1:
            metrics = got
        else:
            metrics.update({f"{workload}.{k}": v for k, v in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
