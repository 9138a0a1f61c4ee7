"""qtlink benchmark: one workload, one seed, a closed loop of qtlink commands.

Run from the repository root:

    python3 bench/run.py --workload figures --seed 1 --seconds 35 --trace 0

One client runs the workload's commands one at a time, each in a fresh
interpreter (``python -m qtlink.cli``), and starts the next command only
after the previous one exits.  A pass is the whole command list; passes
repeat until ``--seconds`` have elapsed.  Every output is checked against
the independent reference in reference.py before the next pass.

``--trace 0`` prints the end-to-end metrics; wall_s and setup_s are in
calibrated seconds (see CALIBRATE), which cancels host-speed drift.
``--trace 1`` alternates
untraced passes with passes run under tracer.py and prints the per-layer
metrics, including the tracing overhead.  The last line of stdout is one
JSON object; the full record (argv list, per-pass data, self-test,
provenance) goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy

from check import check_op, selftest
from workloads import WORKLOADS, plan as make_plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = ".bench_out"
PY = sys.executable

BLAS_THREADS = 1         # thread cap for numpy's BLAS in every child; never above nproc
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COMMAND_TIMEOUT_S = 60
MIN_PASSES = 3           # untraced passes per run, and traced passes with --trace 1
SETUP_PROBES = 9         # at least this many import probes per run
PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import qtlink.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)
# A fixed job that does not touch qtlink: interpreter start, numpy import,
# scalar float math and small matrix products, the mix a qtlink command runs.
# The speed of a shared host drifts by up to 40% over minutes, and a whole
# run can sit in a slow or a fast stretch.  So each pass is divided by the
# mean of the calibrations just before and after it, each probe by the one
# just before it, and CAL_REF_S turns the ratio back into seconds at the
# speed where one calibration takes CAL_REF_S.  Raw times stay in the record.
CALIBRATE = (
    "import math\n"
    "import numpy as np\n"
    "s = 0.0\n"
    "for i in range(80000):\n"
    "    s += math.sqrt(0.5 * i + 1.0) * math.cosh(1e-3 * (i % 7))\n"
    "m = np.eye(4)\n"
    "for i in range(6000):\n"
    "    m = 0.5 * (m @ m.T) / np.abs(m).max() + np.eye(4)\n"
    "print(s, float(m.sum()))\n"
)
CAL_REF_S = 0.3

# Counts that must repeat exactly from pass to pass.
COUNTS = ("sensing.calls", "gaussian.ops", "sweep.points", "verify.points",
          "verify.failed_points", "emit.bytes", "emit.contour_cells", "emit.contour_hits")


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def spawn(argv, out_path, err_path, env):
    """Run argv with stdout and stderr sent to files; return (exit code, max RSS in KiB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except _Timeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


def _read(path):
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read()


class Runner:
    """Runs one plan's passes and keeps every measurement in memory."""

    def __init__(self, plan, work, env):
        self.plan, self.work, self.env = plan, work, env

    def command(self, argv, tag):
        out, err = (os.path.join(self.work, f"{tag}.{ext}") for ext in ("out", "err"))
        rc, rss = spawn(argv, out, err, self.env)
        return rc, rss, out, err

    def run_pass(self, traced=False):
        """One pass: the commands back to back, timed, then every output checked."""
        done = []
        start = time.perf_counter()
        for k, op in enumerate(self.plan.ops):
            if traced:
                trace_path = os.path.join(self.work, f"op{k}.trace.json")
                argv = [PY, os.path.join(HERE, "tracer.py"), trace_path, *op.args]
            else:
                trace_path, argv = None, [PY, "-m", "qtlink.cli", *op.args]
            done.append((op, trace_path, *self.command(argv, f"op{k}")))
        wall = time.perf_counter() - start
        failures, traces = [], []
        for op, trace_path, rc, _, out, err in done:
            errors = check_op(op, rc, _read(out), _read(err))
            if errors:
                failures.append({"op": op.name, "errors": errors})
            if traced and rc == 0:
                with open(trace_path, encoding="utf-8") as handle:
                    traces.append(json.load(handle))
        return {
            "traced": traced,
            "wall_s": wall,
            "peak_rss_kb": max(rss for _, _, _, rss, _, _ in done),
            "attempted": len(done),
            "failures": failures,
            "layers": pass_layers(traces) if traced else None,
        }

    def probe(self):
        """Wall time of a fresh interpreter importing qtlink.cli, with its import split."""
        start = time.perf_counter()
        rc, _, out, err = self.command([PY, "-c", PROBE], "probe")
        wall = time.perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"import probe failed: {_read(err).strip()}")
        numpy_s, qtlink_s = (float(v) for v in _read(out).split())
        return {"wall_s": wall, "numpy_s": numpy_s, "qtlink_s": qtlink_s}

    def calibrate(self):
        """Wall time of one run of the fixed calibration job."""
        start = time.perf_counter()
        rc, _, _, err = self.command([PY, "-c", CALIBRATE], "calibrate")
        if rc != 0:
            raise RuntimeError(f"calibration failed: {_read(err).strip()}")
        return time.perf_counter() - start

    def qtlink(self, args):
        """(rc, stdout, stderr) of one untraced command; used by the checker self-test."""
        rc, _, out, err = self.command([PY, "-m", "qtlink.cli", *args], "selftest")
        return rc, _read(out), _read(err)


def _span_metrics(trace):
    """Inclusive time of each layer's outermost spans and self time of each function."""
    spans = trace["spans"]
    dur = [end - start for _, _, start, end in spans]
    own = list(dur)
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            own[parent] -= dur[i]
    layer_time, self_time = {}, {}
    for i, (name, parent, _, _) in enumerate(spans):
        layer = name.split(".")[0]
        if parent < 0 or spans[parent][0].split(".")[0] != layer:
            layer_time[layer] = layer_time.get(layer, 0.0) + dur[i]
        self_time[name] = self_time.get(name, 0.0) + own[i]
    return layer_time, self_time


def pass_layers(traces):
    """Per-layer totals of one traced pass, summed over its commands."""
    m = {name: 0.0 for name in ("import_s", "cli.main_s", "cli.self_s", "sweep.eval_s",
                                "verify.run_verify_s", "temporal.s", "emit.render_csv_s",
                                "emit.render_json_s", "emit.render_svg_s", "emit.contour_s",
                                "emit.write_s")}
    m.update({name: 0 for name in COUNTS})
    samples = {"sensing": [], "gaussian": []}
    for t in traces:
        layer_time, self_time = _span_metrics(t)
        m["import_s"] += t["import_numpy_s"] + t["import_qtlink_s"]
        m["cli.main_s"] += layer_time.get("cli", 0.0)
        m["cli.self_s"] += self_time.get("cli.main", 0.0)
        m["sweep.eval_s"] += layer_time.get("sweep", 0.0)
        m["verify.run_verify_s"] += layer_time.get("verify", 0.0)
        m["temporal.s"] += layer_time.get("temporal", 0.0)
        for fn in ("render_csv", "render_json", "render_svg"):
            m[f"emit.{fn}_s"] += self_time.get(f"emit.{fn}", 0.0)
        m["emit.contour_s"] += self_time.get("emit.contour_segments", 0.0)
        m["emit.write_s"] += self_time.get("emit.write_result", 0.0)
        m["sensing.calls"] += t["counts"]["sensing"]
        m["gaussian.ops"] += t["counts"]["gaussian"]
        m["sweep.points"] += t["sweep_points"]
        m["verify.points"] += t["verify_points"]
        m["verify.failed_points"] += t["verify_failed_points"]
        m["emit.bytes"] += t["emit_bytes"]
        m["emit.contour_cells"] += t["contour_cells"]
        m["emit.contour_hits"] += t["contour_hits"]
        for layer in samples:
            samples[layer] += t["samples"][layer]
    m["samples"] = samples
    return m


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(passes, probes):
    """The per-layer metrics of a traced run: medians over its traced passes."""
    traced = [p["layers"] for p in passes if p["traced"] and p["layers"]]
    med = {k: _median([t[k] for t in traced]) for k in traced[0] if k != "samples"}
    counts = {k: traced[0][k] for k in COUNTS}
    emit_s = sum(med[k] for k in ("emit.render_csv_s", "emit.render_json_s", "emit.render_svg_s",
                                  "emit.contour_s", "emit.write_s"))
    total = med["import_s"] + med["cli.main_s"]
    samples = {layer: [s for t in traced for s in t["samples"][layer]]
               for layer in ("sensing", "gaussian")}
    trace_wall = _median([p["wall_s"] for p in passes if p["traced"]])
    # passes alternate untraced, traced: compare neighbours, which ran under
    # nearly the same host speed
    pairs = zip(passes[0::2], passes[1::2])
    overhead = _median([t["wall_s"] - u["wall_s"] for u, t in pairs])
    values = {
        "import.python_s": _median([p["wall_s"] - p["numpy_s"] - p["qtlink_s"] for p in probes]),
        "import.numpy_s": _median([p["numpy_s"] for p in probes]),
        "import.qtlink_s": _median([p["qtlink_s"] for p in probes]),
        "cli.main_s": med["cli.main_s"],
        "cli.self_s": med["cli.self_s"],
        "sensing.calls": counts["sensing.calls"],
        "sensing.call_us": _median(samples["sensing"]) * 1e6,
        "sweep.eval_s": med["sweep.eval_s"],
        "sweep.points": counts["sweep.points"],
        "sweep.ns_per_point": _ratio(med["sweep.eval_s"], counts["sweep.points"]) * 1e9,
        "verify.run_verify_s": med["verify.run_verify_s"],
        "verify.points": counts["verify.points"],
        "verify.us_per_point": _ratio(med["verify.run_verify_s"], counts["verify.points"]) * 1e6,
        "verify.failed_points": counts["verify.failed_points"],
        "gaussian.ops": counts["gaussian.ops"],
        "gaussian.op_us": _median(samples["gaussian"]) * 1e6,
        "emit.render_csv_s": med["emit.render_csv_s"],
        "emit.render_json_s": med["emit.render_json_s"],
        "emit.render_svg_s": med["emit.render_svg_s"],
        "emit.contour_s": med["emit.contour_s"],
        "emit.write_s": med["emit.write_s"],
        "emit.bytes": counts["emit.bytes"],
        "emit.contour_cells": counts["emit.contour_cells"],
        "emit.contour_hit_ratio": _ratio(counts["emit.contour_hits"], counts["emit.contour_cells"]),
        "temporal.s": med["temporal.s"],
        "share.import": _ratio(med["import_s"], total),
        "share.cli": _ratio(med["cli.self_s"], total),
        "share.sweep": _ratio(med["sweep.eval_s"], total),
        "share.verify": _ratio(med["verify.run_verify_s"], total),
        "share.emit": _ratio(emit_s, total),
        "share.temporal": _ratio(med["temporal.s"], total),
        "trace.wall_s": trace_wall,
        "trace.overhead_s": overhead,
    }
    repeat = all(all(t[k] == counts[k] for k in COUNTS) for t in traced)
    return values, repeat


def provenance(seed):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    digest, lines = hashlib.sha256(), 0
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    data = handle.read()
                digest.update(name.encode() + b"\0" + data)
                lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
    }


def metric_units():
    """Metric names and units by kind, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qtlink", "cli.py")):
        print(f"error: no qtlink sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    declared = metric_units()["per_layer" if args.trace else "end_to_end"]
    signal.signal(signal.SIGALRM, _on_alarm)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    plan = make_plan(args.workload, args.seed, work)
    for path, text in plan.files.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    runner = Runner(plan, work, child_env())

    # Set-up, not measured: the checker self-test, which also fills the
    # bytecode caches of a fresh checkout.
    setup_start = time.perf_counter()
    report = selftest(runner.qtlink, work)
    setup_total = time.perf_counter() - setup_start

    # A round is a pass, a calibration and an import probe; the probes are
    # spread over the window rather than bunched before it.
    passes, probes, rounds = [], [], []
    cals = [runner.calibrate()]
    deadline = time.perf_counter() + args.seconds
    while True:
        start = time.perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(runner.run_pass(traced))
        cals.append(runner.calibrate())
        passes[-1]["cal_s"] = 0.5 * (cals[-2] + cals[-1])
        probes.append(dict(runner.probe(), cal_s=cals[-1]))
        rounds.append(time.perf_counter() - start)
        n_traced = sum(p["traced"] for p in passes)
        enough = len(passes) - n_traced >= MIN_PASSES and (not args.trace or n_traced >= MIN_PASSES)
        # end the window nearest the deadline: skip a round that would overrun it by more than half
        if enough and time.perf_counter() + 0.5 * statistics.median(rounds) >= deadline:
            break
    while len(probes) < SETUP_PROBES:
        cals.append(runner.calibrate())
        probes.append(dict(runner.probe(), cal_s=cals[-1]))

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    selftest_ok = all(case["ok"] for case in report.values())
    correct = failed == 0 and selftest_ok
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": plan.argv_list(),
        "files": plan.files,
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:20],
        "selftest": report,
        "setup_total_s": setup_total,
        "probes": probes,
        "calibrations": cals,
        "cal_ref_s": CAL_REF_S,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
        "provenance": provenance(args.seed),
    }
    if args.trace:
        values, repeat = layer_metrics(passes, probes)
        record["counts_repeat"] = repeat
    else:
        record["raw_wall_s"] = _median([p["wall_s"] for p in plain])
        record["raw_setup_s"] = _median([p["wall_s"] for p in probes])
        values = {
            "wall_s": CAL_REF_S * _median([p["wall_s"] / p["cal_s"] for p in plain]),
            "setup_s": CAL_REF_S * _median([p["wall_s"] / p["cal_s"] for p in probes]),
            "peak_rss_mb": max(p["peak_rss_kb"] for p in plain) / 1024.0,
            "success_rate": (attempted - failed) / attempted,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    record["metrics"] = metrics
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for failure in record["failures"]:
        print(f"failed {failure['op']}: {'; '.join(failure['errors'])}", file=sys.stderr)
    if not selftest_ok:
        print(f"checker self-test failed: {json.dumps(report)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
