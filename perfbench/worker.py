"""Run one shadowgeom CLI command in this fresh interpreter and report it.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON holds {"argv": [...], "trace": bool, "spans": path or null}.
An empty argv only imports the CLI (a set-up sample).  The last line
printed is one JSON object: the monotonic time at which
`import shadowgeom.cli` returned, the calibration-kernel seconds right
after that import and right after `cli.run(argv)`, the seconds
`cli.run(argv)` took, its exit code and captured stdout/stderr, any
escaped traceback, the peak RSS of this process, and, when traced, the
per-layer span summary.  The parent spawns one worker at a time and
computes set-up time from its own spawn timestamp (CLOCK_MONOTONIC is
system-wide on Linux).
"""

import io
import json
import os
import resource
import sys
import time
import traceback


def calibrate() -> float:
    """Seconds for a fixed kernel that uses no shadowgeom code: small-batch
    numpy calls, plain Python arithmetic and batched QR, the kinds of work
    the workloads mix.  Timed in the same process and on the same vCPU as
    the command, just before and just after it, so that the parent can
    scale the command's seconds to a reference host speed."""
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.random((9, 3, 2))
    batch = rng.random((2000, 3, 2))
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(300):
        s = np.linalg.svd(small, compute_uv=False)
        acc += float(np.einsum("bij,bij->", small, small)) + float(s[0, 0])
    x = 0
    for i in range(60000):
        x += (i * i) % 7
    for _ in range(10):
        np.linalg.qr(batch)
    return time.perf_counter() - t0


def main() -> int:
    spec = json.loads(sys.argv[1])
    # stay on one vCPU, so the calibration measures the CPU the command ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import shadowgeom.cli as cli
    imported_at = time.monotonic()

    import numpy as np

    report = {"imported_at": imported_at, "module": cli.__file__,
              "python": sys.version.split()[0], "numpy": np.__version__,
              "cal_before": calibrate()}
    argv = spec["argv"]
    if argv:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        real_out, real_err = sys.stdout, sys.stderr
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        error = None
        rc = None
        t0 = time.perf_counter()
        try:
            rc = cli.run(argv)
        except BaseException:  # noqa: BLE001  a traceback escaping the CLI is a failure
            error = traceback.format_exc()
        run_s = time.perf_counter() - t0
        sys.stdout, sys.stderr = real_out, real_err
        report.update(run_s=run_s, cal_after=calibrate(), rc=rc, stdout=out.getvalue(),
                      stderr=err.getvalue(), error=error)
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracer.summary()
            if spec.get("spans"):
                with open(spec["spans"], "w", encoding="utf-8") as fh:
                    tracer.write_spans(fh)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
