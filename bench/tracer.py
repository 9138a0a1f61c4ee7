"""Run one qtlink command in-process with spans around each layer's public functions.

Usage, from the repository root with ``src`` on PYTHONPATH:

    python3 bench/tracer.py TRACE.json ARGS...

is ``qtlink ARGS...`` plus a trace written to TRACE.json when the command
ends.  Spans (name, parent, start, end) are kept in memory around calls into
the sweep, verify, emit and temporal modules and around ``cli.main``.
Per-point functions of ``sensing`` and ``gaussian`` get no span; their
outermost calls are counted and every SAMPLE-th one is timed, so tracing
does not swamp the sweep and verify spans that contain them.  Wrappers are
installed by rebinding names in the package's modules; no source changes.
"""

import json
import os
import sys
import time

_T0 = time.perf_counter()
import numpy as np  # noqa: E402

_T1 = time.perf_counter()
import qtlink  # noqa: E402
import qtlink.cli  # noqa: E402

_T2 = time.perf_counter()

SAMPLE = 16

SPANNED = {
    "sweep": ("run_sweep", "run_grid", "run_compare_smsv", "preset_fig2", "preset_fig3", "preset_fig4"),
    "verify": ("run_verify",),
    "emit": ("write_result", "render_csv", "render_json", "render_svg", "contour_segments"),
    "temporal": ("mode_functions", "shift_expansion_check"),
}
COUNTED = {
    "sensing": ("delta_u_tmsv_ideal", "delta_u_tmsv_real", "delta_u_sql", "delta_u_smsv_real",
                "quantum_advantage"),
    "gaussian": ("squeeze_single", "beam_splitter", "pure_loss", "homodyne_variance"),
}


class Trace:
    """Spans, counters and per-call attributes of one command, kept in memory."""

    def __init__(self):
        self.spans = []    # [name, parent index or -1, start, end]
        self.stack = []
        self.attrs = {"sweep_points": 0, "verify_points": 0, "verify_failed_points": 0,
                      "emit_bytes": 0}
        self.contours = []  # (z, level) pairs, classified after the command ends
        self.counts = {layer: 0 for layer in COUNTED}
        self.samples = {layer: [] for layer in COUNTED}
        self.depth = {layer: [0] for layer in COUNTED}  # shared by the layer's wrappers

    def spanned(self, name, fn, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()
            if after is not None:
                after(spans[idx][1], args, kwargs, result)
            return result

        return wrapper

    def counted(self, layer, fn):
        """Count outermost calls into ``layer``; time every SAMPLE-th one."""
        counts, samples, depth = self.counts, self.samples[layer], self.depth[layer]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            counts[layer] += 1
            depth[0] = 1
            try:
                if counts[layer] % SAMPLE:
                    return fn(*args, **kwargs)
                start = clock()
                result = fn(*args, **kwargs)
                samples.append(clock() - start)
                return result
            finally:
                depth[0] = 0

        return wrapper

    # Attributes read off results; ``parent`` is the index of the enclosing span.
    def _sweep_result(self, parent, args, kwargs, result):
        # presets return the result of the run_* call inside them: count it once
        if parent < 0 or not self.spans[parent][0].startswith("sweep."):
            self.attrs["sweep_points"] += len(result.rows)

    def _verify_report(self, parent, args, kwargs, result):
        rows = result.two_mode_rows + result.single_mode_rows
        self.attrs["verify_points"] += len(rows)
        self.attrs["verify_failed_points"] += sum(not row["ok"] for row in rows)

    def _written(self, parent, args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[2]
        self.attrs["emit_bytes"] += os.path.getsize(path)

    def _contour(self, parent, args, kwargs, result):
        self.contours.append((np.array(args[2], dtype=float), float(args[3])))

    def contour_stats(self):
        """Cells scanned, and cells whose corners straddle the level (they yield a segment)."""
        cells = hits = 0
        for z, level in self.contours:
            span = float(z.max() - z.min()) or 1.0
            above = np.where(z == level, level + 1e-12 * span, z) > level
            corners = above[:-1, :-1].astype(int) + above[1:, :-1] + above[1:, 1:] + above[:-1, 1:]
            cells += corners.size
            hits += int(((corners > 0) & (corners < 4)).sum())
        return cells, hits


def install(trace: Trace) -> None:
    """Rebind every public layer function in every qtlink module to its wrapper."""
    after = dict.fromkeys(SPANNED["sweep"], trace._sweep_result)
    after.update(run_verify=trace._verify_report, write_result=trace._written,
                 contour_segments=trace._contour)
    modules = [m for n, m in sys.modules.items() if n == "qtlink" or n.startswith("qtlink.")]
    wrapped = {}
    for layer, names in SPANNED.items():
        mod = sys.modules[f"qtlink.{layer}"]
        for name in names:
            original = getattr(mod, name)
            wrapped[id(original)] = trace.spanned(f"{layer}.{name}", original, after.get(name))
    for layer, names in COUNTED.items():
        mod = sys.modules[f"qtlink.{layer}"]
        for name in names:
            original = getattr(mod, name)
            wrapped[id(original)] = trace.counted(layer, original)
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, name, wrapped[id(value)])


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    trace = Trace()
    install(trace)
    main_fn = trace.spanned("cli.main", qtlink.cli.main)
    rc = 1
    try:
        rc = main_fn(argv)
    finally:
        sys.stdout.flush()
        cells, hits = trace.contour_stats()
        record = {
            "argv": argv,
            "rc": rc,
            "import_numpy_s": _T1 - _T0,
            "import_qtlink_s": _T2 - _T1,
            "spans": trace.spans,
            "counts": trace.counts,
            "samples": trace.samples,
            "contour_cells": cells,
            "contour_hits": hits,
            **trace.attrs,
        }
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
