"""shadowgeom benchmark: fixed CLI workloads, closed loop, one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload grid|loops|suite --seed N \
        --seconds S --trace 0|1

Each pass runs the workload's command list once; every command runs in
its own fresh interpreter (perfbench/worker.py), one process at a time,
as a CLI user pays for it, so no module-level cache carries over between
commands.  Passes repeat until the next one would overrun --seconds
(with a floor on the pass count).  Every output is checked against
closed-form oracles; a wrong exit code, an escaped traceback or a failed
oracle counts the command as failed.

--trace 0 prints the end-to-end metrics: pass_s (median over passes of
the summed `cli.run(argv)` seconds; interpreter start and imports are
excluded), setup_s (median seconds from spawning a command process until
`import shadowgeom.cli` returns) and peak_rss_mb (largest ru_maxrss of
any command process).  fail_ratio goes on its own line and into the
result's attempted/failed counts.

pass_s and setup_s are reported at reference host speed: each command's
seconds are multiplied by CAL_REF_S over the time of a fixed calibration
kernel (worker.calibrate, no shadowgeom code) run in the same process on
the same vCPU right before and after the command.  On a shared VM the
host speed swings by tens of percent from minute to minute; the scaled
times stay within a few percent.  The unscaled times are printed as
pass_s.raw and setup_s.raw.

--trace 1 runs rounds of one untraced and one traced pass, interleaved
command by command.  Traced passes wrap each layer's public functions
from outside (perfbench/tracer.py) and report calls, rows, self seconds
(scaled like pass_s) and raised exceptions per layer; the last traced
pass's spans are written to .perfbench_out/spans/.  trace.overhead_s is
the seconds per traced pass that the wrappers spend outside the functions
they wrap, measured by the wrappers themselves (a lower bound: the call
into a wrapper is not counted).  The traced minus the untraced pass
seconds, the median of paired differences over rounds, is printed too,
but on a noisy host it cannot resolve an overhead this small.

The transport and parallel-field commands get `--seed` mod FROZEN_SEEDS,
so every output has a digest in perfbench/frozen_outputs.json and
cli.outputs_changed always compares every command.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
FROZEN = os.path.join(HERE, "frozen_outputs.json")
OUT_DIR = ".perfbench_out"

SEEDED = ("transport", "parallel-field")
# seeded commands run with --seed mod FROZEN_SEEDS; freeze_outputs.py
# records their digests for exactly these CLI seeds
FROZEN_SEEDS = 100

# Why grid and loops: see BENCHMARK.json.  suite runs verify-all, the
# command users run, with every layer in the corpus's own proportions; it
# is kept runnable but is not in BENCHMARK.json, because one 6-7 s command
# per pass leaves only 5-7 samples in a run and its scaled pass_s spread
# (IQR / median over ten runs) reached 9.2%, above a third of the pass_s
# bound, where grid and loops stayed below it.  Seeded commands get
# --seed (mod FROZEN_SEEDS).
WORKLOADS = {
    "grid": (
        ("verify", "product-shadow", "product_spheres"),
        ("shadow", "torus_e3", "--grid", "256"),
        ("shadow", "sphere_e3", "--grid", "256", "--format", "json"),
    ),
    "loops": (
        ("parallel-field", "latitude_p3"),
        ("parallel-field", "equator_in_s2"),
        ("verify", "geodesic-alignment", "cone_axis"),
        ("helix", "cone_axis"),
        ("transport", "latitude_p3"),
    ),
    "suite": (
        ("verify-all",),
    ),
}

# Typical calibration-kernel seconds (worker.calibrate) on the reference
# host, a 2-vCPU Xeon VM with Python 3.11 and numpy 2.4.
CAL_REF_S = 0.03

BLAS_THREADS = 1  # never above nproc; one thread also keeps results bit-stable
MIN_PASSES = 3          # untraced passes in a --trace 0 run
MIN_TRACE_PASSES = 2    # of each kind in a --trace 1 run
MIN_SETUP_SAMPLES = 24  # import-only spawns top set-up samples up to this
COMMAND_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 170.0  # every run must exit within 180 s


# -- oracles -----------------------------------------------------------------


def check_torus(stdout):
    """Torus shadow at grid 256: the two equator circles, all smooth."""
    lines = stdout.splitlines()
    header = lines[0].split(",")
    if header != ["u_1", "u_2", "x_1", "x_2", "x_3", "|F|", "sigma_min", "smooth"]:
        return f"unexpected CSV header {header}"
    radii = set()
    for line in lines[1:]:
        cells = line.split(",")
        x1, x2, x3 = (float(c) for c in cells[2:5])
        if not abs(x3) < 1e-9:
            return f"row off the x3=0 plane: {line}"
        r = math.hypot(x1, x2)
        near = [c for c in (1.0, 3.0) if abs(r - c) <= 1e-8]
        if not near:
            return f"radius {r!r} is neither 1 nor 3: {line}"
        radii.add(near[0])
        if cells[7] != "smooth":
            return f"row not smooth: {line}"
    if radii != {1.0, 3.0}:
        return f"radii found {sorted(radii)}, expected both 1 and 3"
    return None


def check_sphere(stdout):
    shadow = json.loads(stdout)["results"]["shadow"]
    if shadow["n_components"] != 1 or shadow["degenerate"] or not shadow["points"]:
        return f"expected one non-degenerate component, got {shadow}"
    cert = shadow["certificate"]
    if not cert["ok"] or cert["n_certified"] != cert["n_points"]:
        return f"certificate not ok: {cert}"
    return None


def check_transport_cap(stdout):
    """Holonomy around the pi/3 latitude: rotation 2 pi (1 - cos pi/3) = pi."""
    loops = {lp["label"]: lp for lp in json.loads(stdout)["results"]["loops"]}
    rot = loops["wrap-ax0"]["rotation"]
    if not abs(rot - 2 * math.pi * (1 - math.cos(math.pi / 3))) <= 1e-6:
        return f"wrap-ax0 rotation {rot!r} is not pi"
    return None


def check_obstructed(stdout):
    dev = json.loads(stdout)["results"]["obstruction"]["max_deviation"]
    if not abs(dev - 2.0) <= 1e-6:
        return f"max_deviation {dev!r} is not 2"
    return None


def check_flat(stdout):
    obstruction = json.loads(stdout)["results"]["obstruction"]
    if not obstruction["ok"] or not obstruction["max_deviation"] < 1e-6:
        return f"expected no obstruction, got {obstruction['max_deviation']!r}"
    return None


def check_confirmed(stdout):
    verdict = json.loads(stdout)["results"]["report"]["verdict"]
    return None if verdict == "confirmed" else f"verdict {verdict!r}"


def check_helix(stdout):
    verdict = json.loads(stdout)["results"]["classification"]["verdict"]
    return None if verdict == "confirmed" else f"classification verdict {verdict!r}"


def check_suite(stdout):
    results = json.loads(stdout)["results"]
    if results["n_checks"] != 21 or results["n_match"] != 21:
        return f"n_match {results['n_match']} of {results['n_checks']}, expected 21"
    return None


# command key -> (expected exit code, oracle)
CHECKS = {
    "verify product-shadow product_spheres": (0, check_confirmed),
    "shadow torus_e3 --grid 256": (0, check_torus),
    "shadow sphere_e3 --grid 256 --format json": (0, check_sphere),
    "parallel-field latitude_p3": (2, check_obstructed),
    "parallel-field equator_in_s2": (0, check_flat),
    "verify geodesic-alignment cone_axis": (0, check_confirmed),
    "helix cone_axis": (0, check_helix),
    "transport latitude_p3": (0, check_transport_cap),
    "verify-all": (0, check_suite),
}


def command_key(cmd) -> str:
    return " ".join(cmd)


def argv_for(cmd, seed: int):
    """CLI argv of a workload command for benchmark seed `seed`."""
    cli_seed = seed % FROZEN_SEEDS
    return list(cmd) + (["--seed", str(cli_seed)] if cmd[0] in SEEDED else [])


def check_output(key: str, result: dict):
    """None when the command's run is correct, else the reason it is not."""
    if result.get("error"):
        return "traceback escaped the CLI:\n" + result["error"]
    expected_rc, oracle = CHECKS[key]
    if result["rc"] != expected_rc:
        return f"exit code {result['rc']}, expected {expected_rc}: {result['stderr']}"
    try:
        return oracle(result["stdout"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def output_digest(stdout: str) -> str:
    """sha256 of the output with the top-level `timings` object removed."""
    try:
        obj = json.loads(stdout)
    except ValueError:
        text = stdout
    else:
        if isinstance(obj, dict):
            obj.pop("timings", None)
        text = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def frozen_digest(frozen: dict, key: str, seed: int):
    """Digest recorded for this command and benchmark seed, or None."""
    if key in frozen["fixed"]:
        return frozen["fixed"][key]
    return frozen["seeded"].get(key, {}).get(str(seed % FROZEN_SEEDS))


# -- processes ---------------------------------------------------------------


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    threads = str(BLAS_THREADS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


class WorkerError(RuntimeError):
    pass


def spawn(argv, env, trace=False, spans=None, timeout=COMMAND_TIMEOUT_S) -> dict:
    """Run one worker to completion; adds `setup_s` to its report."""
    spec = json.dumps({"argv": list(argv), "trace": trace, "spans": spans})
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER, spec], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"command timed out after {timeout:.0f} s", "rc": None}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["imported_at"] - t_spawn
    return report


# -- the run -----------------------------------------------------------------


class Run:
    """Accumulates one benchmark run's passes, checks and samples."""

    def __init__(self, root, workload, seed, frozen):
        self.root = root
        self.cmds = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.frozen = frozen
        self.env = worker_env(root)
        self.started = time.monotonic()
        self.pass_s = []                        # untraced passes, scaled seconds
        self.pass_raw = []                      # the same passes, unscaled
        self.traced_s = []                      # traced passes, scaled seconds
        self.layers = []                        # per traced pass: summed summaries
        self.setup = []                         # set-up samples, scaled seconds
        self.setup_raw = []                     # the same samples, unscaled
        self.cal = []                           # calibration-kernel seconds
        self.rss_kb = []
        self.attempted = 0
        self.failures = []
        self.digests = {}                       # (key, traced) -> set of digests
        self.versions = set()

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def _spawn(self, argv, **kw):
        timeout = min(COMMAND_TIMEOUT_S, max(1.0, self.remaining()))
        report = spawn(argv, self.env, timeout=timeout, **kw)
        if "module" in report:
            expected = os.path.join(self.root, "src", "shadowgeom", "cli.py")
            if os.path.realpath(report["module"]) != os.path.realpath(expected):
                raise WorkerError(f"imported {report['module']}, not {expected}")
            self.versions.add((report["python"], report["numpy"]))
        return report

    def _add_setup(self, report):
        self.setup_raw.append(report["setup_s"])
        self.setup.append(report["setup_s"] * CAL_REF_S / report["cal_before"])
        self.cal.append(report["cal_before"])

    def setup_sample(self):
        report = self._spawn([])
        if report.get("error"):
            raise WorkerError(report["error"])
        self._add_setup(report)

    def one_round(self, kinds=(False,)):
        """One pass of each kind (False: untraced, True: traced), run
        command by command so that paired passes see the same host speed."""
        total = {traced: 0.0 for traced in kinds}
        total_raw = dict(total)
        layers: dict = {}
        for i, cmd in enumerate(self.cmds):
            key = command_key(cmd)
            for traced in kinds:
                spans = None
                if traced:
                    spans = os.path.join(OUT_DIR, "spans", f"{self.workload}-{i}.jsonl")
                report = self._spawn(argv_for(cmd, self.seed), trace=traced, spans=spans)
                self.attempted += 1
                reason = check_output(key, report)
                if reason is not None:
                    self.failures.append(f"{key}: {reason}")
                    continue
                scale = CAL_REF_S / (0.5 * (report["cal_before"] + report["cal_after"]))
                total[traced] += report["run_s"] * scale
                total_raw[traced] += report["run_s"]
                self._add_setup(report)
                self.rss_kb.append(report["maxrss_kb"])
                self.digests.setdefault((key, traced), set()).add(
                    output_digest(report["stdout"]))
                for name, agg in report.get("layers", {}).items():
                    into = layers.setdefault(name, {})
                    for field, value in agg.items():
                        if field == "self_s":
                            value *= scale
                        into[field] = into.get(field, 0) + value
        for traced in kinds:
            if traced:
                self.traced_s.append(total[traced])
                self.layers.append(layers)
            else:
                self.pass_s.append(total[traced])
                self.pass_raw.append(total_raw[traced])

    def outputs_changed(self) -> int:
        """Commands whose output differs from the frozen table; a command
        without a recorded digest counts as changed."""
        changed = 0
        for cmd in self.cmds:
            key = command_key(cmd)
            want = frozen_digest(self.frozen, key, self.seed)
            got = self.digests.get((key, False), set()) | self.digests.get((key, True), set())
            changed += want is None or got != {want}
        return changed

    def trace_mismatches(self):
        """Commands whose output differs between wrappers on and off."""
        return [key for (key, traced), got in self.digests.items()
                if traced and got != self.digests.get((key, False))]


def run_passes(run: Run, seconds: float, trace: bool):
    """Repeat rounds (a pass, or an untraced plus a traced pass) while the
    next round, as long as the last one, still ends within `seconds`."""
    kinds = (False, True) if trace else (False,)
    floor = MIN_TRACE_PASSES if trace else MIN_PASSES
    t0 = time.monotonic()
    while True:
        t = time.monotonic()
        run.one_round(kinds)
        now = time.monotonic()
        last = now - t
        if len(run.pass_s) >= floor and now - t0 + last > seconds:
            break
        if run.remaining() < 2 * last + 10:
            break


# -- metrics -----------------------------------------------------------------


# span -> the fields reported for it as "<span>.<field>"; every span has
# self_s, so per traced pass the named self times add up to the pass
SPAN_FIELDS = (
    ("expr.jets_o2", ("calls", "rows", "self_s")),
    ("expr.jets_o1", ("calls", "rows", "self_s")),
    ("expr.values", ("calls", "rows", "self_s")),
    ("geometry.frames_at", ("calls", "rows", "self_s")),
    ("geometry.ambient_tangent_basis", ("calls", "self_s")),
    ("curvature.christoffels", ("calls", "rows", "self_s")),
    ("shadow.shadow_system", ("calls", "rows", "self_s")),
    ("shadow.smoothness_certificate", ("calls", "self_s")),
    ("shadow.extract_1d", ("self_s",)),
    ("shadow.extract_marching", ("self_s",)),
    ("shadow.extract_newton", ("self_s",)),
    ("transport.holonomy_loop", ("calls", "self_s")),
    ("transport.field_values", ("calls", "rows", "self_s")),
    ("transport.geodesic_traces", ("calls", "curve_steps", "self_s", "failed_calls")),
    ("transport.construct_parallel_field", ("self_s",)),
    ("helix.classify_hypersurface_helix", ("self_s",)),
    ("helix.geodesic_alignment_check", ("self_s",)),
    ("helix.helix_constancy_report", ("self_s",)),
    ("helix.nested_checks", ("self_s",)),
    ("scene.load_scene", ("calls", "self_s")),
    ("reporting.canonical_json", ("calls", "bytes", "self_s")),
    ("cli.run", ("self_s",)),
)
UNITS = {"calls": "count", "rows": "rows", "self_s": "s", "bytes": "bytes",
         "curve_steps": "steps", "failed_calls": "count"}
SUMMARY_FIELD = {"failed_calls": "raised"}  # tracer summary name, if different

# (metric, unit, better), in the order BENCHMARK.json lists them
PER_LAYER = tuple((f"{span}.{field}", UNITS[field], "lower")
                  for span, fields in SPAN_FIELDS for field in fields) + (
    ("expr.rows_per_call", "rows/call", "higher"),
    ("shadow.newton.seeds", "count", "lower"),
    ("shadow.newton.yield", "ratio", "higher"),
    ("cli.outputs_changed", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(layers: dict) -> dict:
    """Named metrics of one traced pass from its summed span summary."""
    out = {}
    for span, fields in SPAN_FIELDS:
        agg = layers.get(span, {})
        for field in fields:
            out[f"{span}.{field}"] = agg.get(SUMMARY_FIELD.get(field, field), 0)
    expr = [layers.get(f"expr.{s}", {}) for s in ("jets_o2", "jets_o1", "values")]
    out["expr.rows_per_call"] = (sum(e.get("rows", 0) for e in expr)
                                 / max(1, sum(e.get("calls", 0) for e in expr)))
    newton = layers.get("shadow.extract_newton", {})
    out["shadow.newton.seeds"] = newton.get("seeds", 0)
    out["shadow.newton.yield"] = newton.get("kept", 0) / max(1, newton.get("seeds", 0))
    out["trace.overhead_s"] = layers.get("trace.wrappers", {}).get("self_s", 0.0)
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run: Run):
    def line(name, values, what):
        return (f"{name} {statistics.median(values):.6f} s (median of "
                f"{len(values)} {what}: {' '.join(f'{t:.3f}' for t in values)})")

    lines = [
        line("pass_s", run.pass_s, "passes"),
        line("pass_s.raw", run.pass_raw, "passes"),
        line("setup_s", run.setup, "spawns"),
        line("setup_s.raw", run.setup_raw, "spawns"),
        f"calibration kernel median {statistics.median(run.cal):.6f} s over "
        f"{len(run.cal)} samples; times above without .raw are scaled by "
        f"{CAL_REF_S} s / the calibration next to them",
        f"peak_rss_mb {max(run.rss_kb) / 1024:.1f} MiB "
        f"(max of {len(run.rss_kb)} command processes)",
    ]
    metrics = {
        "pass_s": metric(statistics.median(run.pass_s), "s"),
        "setup_s": metric(statistics.median(run.setup), "s"),
        "peak_rss_mb": metric(max(run.rss_kb) / 1024, "MiB"),
    }
    return lines, metrics


def per_layer(run: Run):
    per_pass = [layer_metrics(layers) for layers in run.layers]
    values = {name: statistics.median_low(p[name] for p in per_pass)
              for name in per_pass[0]}
    values["cli.outputs_changed"] = run.outputs_changed()
    paired = [t - u for u, t in zip(run.pass_s, run.traced_s)]
    metrics = {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    covered = statistics.median_low(
        sum(layers.get(span, {}).get("self_s", 0.0) for span, _ in SPAN_FIELDS) / total
        for layers, total in zip(run.layers, run.traced_s))
    lines.append(f"traced minus untraced pass_s {statistics.median(paired):+.6f} s "
                 f"(median of {len(paired)} paired differences, same round: "
                 f"{' '.join(f'{d:+.3f}' for d in paired)})")
    lines.append(f"traced pass_s {statistics.median(run.traced_s):.6f} s "
                 f"(median of {len(run.traced_s)} traced passes); "
                 f"named self times cover {covered:.4f} of a traced pass")
    return lines, metrics, covered


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "shadowgeom", "cli.py")):
        print("error: run from the root of a shadowgeom checkout "
              "(src/shadowgeom/cli.py not found)", file=sys.stderr)
        return 2
    with open(FROZEN, encoding="utf-8") as fh:
        frozen = json.load(fh)
    os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)

    run = Run(root, args.workload, args.seed, frozen)
    trace = bool(args.trace)
    try:
        run._spawn([])  # warm-up: bytecode and file caches; not counted
        run_passes(run, args.seconds, trace)
        while not trace and len(run.setup) < MIN_SETUP_SAMPLES:
            run.setup_sample()
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = len(run.failures)
    for reason in run.failures:
        print(f"FAILED {reason}", file=sys.stderr)
    pythons = ",".join(sorted({p for p, _ in run.versions}))
    numpys = ",".join(sorted({n for _, n in run.versions}))
    print(f"env python={pythons} numpy={numpys} nproc={os.cpu_count()} "
          f"blas_threads={BLAS_THREADS} worker_cpus=1 processes_at_once=1 "
          f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"fail_ratio {failed / run.attempted:.6g} ratio "
          f"({failed} failed / {run.attempted} attempted)")
    print(f"cli.outputs_changed {run.outputs_changed()} of {len(run.cmds)} commands "
          f"(CLI seed {args.seed % FROZEN_SEEDS})")

    correct = failed == 0
    if not run.rss_kb or (trace and not run.layers):
        correct, metrics = False, {}
    elif trace:
        lines, metrics, covered = per_layer(run)
        mismatched = run.trace_mismatches()
        if mismatched:
            correct = False
            print(f"FAILED outputs differ with wrappers on: {mismatched}",
                  file=sys.stderr)
        if abs(covered - 1.0) > 0.01:
            correct = False
            print(f"FAILED named self times cover {covered:.4f} of the traced pass",
                  file=sys.stderr)
        print("\n".join(lines))
    else:
        lines, metrics = end_to_end(run)
        print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
