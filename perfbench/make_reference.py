"""Write the seed-0 reference curves the output checks compare against.

    python3 perfbench/make_reference.py

Run from the root of a checkout of the simulator the references should
come from.  Runs every workload once at seed 0 and stores its
energies.csv and forces.csv, gzipped, in perfbench/reference/.
"""

from __future__ import annotations

import gzip
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    root = Path.cwd()
    work = root / run.WORK_DIR / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            config = work / f"{name}.json"
            workloads.write(name, 0, root / "benchmark.json", config)
            code, _, out = run.run_child(root, work, config, name, False, timeout=600.0)
            if code != 0:
                print(f"{name}: delam2d run exited with {code}", file=sys.stderr)
                return 1
            for csv in checks.REFERENCE_FILES:
                target = checks.REFERENCE_DIR / f"{name}_{csv}.csv.gz"
                with open(out / f"{csv}.csv", "rb") as src, gzip.GzipFile(
                    target, "wb", mtime=0
                ) as dst:
                    shutil.copyfileobj(src, dst)
                print(f"wrote {target.relative_to(root)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
