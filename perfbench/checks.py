"""Output checks applied to every benchmarked run, traced or not.

A run passes when `delam2d run` exited with 0, the work-minus-energy
gap in energies.csv is nonnegative and nondecreasing within the ledger
tolerance, the debond outcome is the one the workload expects, and, at
seed 0, energies.csv and forces.csv match the reference taken from the
unoptimised simulator within the column-scaled deviation of the
repository's baseline test (1e-9).
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_FILES = ("energies", "forces")
REFERENCE_TOL = 1e-9
LEDGER_TOL = 1e-8  # of the running energy scale, as in the simulator's own ledger checks


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """Column names and numeric rows of a result CSV (comment lines skipped)."""
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if not ln.startswith("#")]
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:] if ln]
    return lines[0].split(","), rows


def _gap_problems(columns: list[str], rows: list[list[float]]) -> list[str]:
    col = {name: i for i, name in enumerate(columns)}
    tol, gap = [], []
    for r in rows:
        stored = r[col["bulk_elastic"]] + r[col["interface_elastic"]]
        dissipated = r[col["viscous_dissipated"]] + r[col["interface_dissipated"]]
        scale = max(abs(stored), dissipated, abs(r[col["external_work"]]), 1e-30)
        tol.append(LEDGER_TOL * scale)
        gap.append(r[col["gap"]])
    problems = []
    worst = min((g + t for g, t in zip(gap, tol)), default=0.0)
    if worst < 0.0:
        problems.append(f"energy gap negative beyond tolerance (by {-worst:.3e})")
    drops = [gap[k] - gap[k - 1] + tol[k] for k in range(1, len(gap))]
    if drops and min(drops) < 0.0:
        problems.append(f"energy gap decreases beyond tolerance (by {-min(drops):.3e})")
    return problems


def reference_deviation(out: Path, workload: str, name: str) -> float:
    """Worst column-scaled deviation of out/<name>.csv from the reference."""
    cols, rows = read_csv(out / f"{name}.csv")
    ref_cols, ref_rows = read_csv(REFERENCE_DIR / f"{workload}_{name}.csv.gz")
    if cols != ref_cols or len(rows) != len(ref_rows):
        return float("inf")
    worst = 0.0
    for j in range(len(cols)):
        scale = max(1e-12, max(abs(r[j]) for r in ref_rows))
        dev = max(abs(a[j] - b[j]) for a, b in zip(rows, ref_rows)) / scale
        worst = max(worst, dev)
    return worst


def check_run(out: Path, exit_code: int, workload, seed: int) -> list[str]:
    """Problems found in one run's result directory; empty when it passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        problems = _gap_problems(*read_csv(out / "energies.csv"))
        meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
        _, mixity = read_csv(out / "mixity.csv")
        released = sum(int(r[2]) for r in mixity)
        if workload.full_debond and (meta["t_full_debond"] is None or released != len(mixity)):
            problems.append(f"expected full release, {released}/{len(mixity)} segments released")
        if not workload.full_debond and released:
            problems.append(f"expected no release, {released} segments released")
        if seed == 0:
            for name in REFERENCE_FILES:
                dev = reference_deviation(out, workload.name, name)
                if not dev <= REFERENCE_TOL:
                    problems.append(f"{name}.csv deviates from reference by {dev:.3e}")
    except (OSError, ValueError, KeyError, IndexError) as err:
        problems.append(f"unreadable output: {err!r}")
    return problems
