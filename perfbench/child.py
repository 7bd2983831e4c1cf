"""One measured `delam2d run` in a process of its own.

    python3 perfbench/child.py --config CFG --out DIR --result JSON \
        --t-spawn T --run-id ID [--trace]

Started by run.py with src/ on PYTHONPATH.  T is the parent's
time.monotonic() taken just before it started this process, so set-up
and run times count interpreter start and `import delam2d`.  Writes a
JSON record of run id, times, per-step timestamps, peak RSS, bytes
written and (with --trace) the spans, and exits with the code of
`delam2d run`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Probe, clock  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args()

    from delam2d import assembly, cli, energetics, harness, qp, stepper

    probe = Probe(args.trace)
    probe.install(
        {"assembly": assembly, "cli": cli, "energetics": energetics,
         "harness": harness, "qp": qp, "stepper": stepper}
    )
    cli_main = probe.span("cli.main", cli.main) if args.trace else cli.main
    code = cli_main(["run", "--config", args.config, "--out", args.out])
    done = clock()

    out = Path(args.out)
    record = {
        "run_id": args.run_id,
        "run_s": done - args.t_spawn,
        "setup_s": None if probe.setup_done is None else probe.setup_done - args.t_spawn,
        "step_stamps": probe.step_stamps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        "spans": probe.spans,
    }
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
