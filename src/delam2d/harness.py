"""Configured simulation runs and their on-disk outputs.

run_single executes one configuration and writes a self-describing
result directory: energies.csv and forces.csv on the time grid,
mixity.csv per interface segment, displacement snapshots, and a
meta.json echoing the canonical configuration.  Every CSV carries a
``# config_hash=`` header line; a directory holding output from a
different configuration is refused rather than silently mixed.

run_convergence repeats the run over a ladder of interface resolutions
at fixed time-step-to-cell-size ratio and returns the report it writes:
pairwise distances between the energy curves plus a table of trajectory
norms.
run_chi_sweep repeats the run over a list of viscosity scales; each
member is the configuration with that scale as its material chi, so it
keeps the sweep's canonical form and hash.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import scipy

from .config import ConfigError, SimulationConfig, config_hash, parse_config
from .constitutive import AdhesiveLaw, IsotropicElasticity, ViscosityLaw
from .energetics import (
    EnergyLedger,
    build_ledger,
    mixity_histogram,
    trajectory_norms,
)
from .mesh import Mesh2D, _bottom_cell_counts, build_benchmark_mesh, build_two_body_mesh
from .qp import QpNonconvergenceError
from .snapshot_writer import LENGTH, SNAPSHOT
from .stepper import (
    InvariantViolation,
    Operators,
    State,
    Trajectory,
    build_operators,
    init_state,
    planned_steps,
    run,
)

__all__ = [
    "HarnessError",
    "RunResult",
    "build_mesh",
    "build_simulation",
    "run_single",
    "run_convergence",
    "run_chi_sweep",
    "SNAPSHOT_FRACTIONS",
    "CURVE_SET",
]

# Default snapshot instants as fractions of the final time, clustered
# toward the end where the debonding front moves fastest.
SNAPSHOT_FRACTIONS = (0.4, 0.6, 0.75, 0.85, 0.92, 0.96, 0.98, 1.0)

# The helper process that formats and writes snapshots (see the script).
_WRITER = Path(__file__).with_name("snapshot_writer.py")

# Its input pipe's size (1 MiB, Linux's default limit for an unprivileged
# process): at nice 19 the writer may be left waiting on the simulator's
# CPU until the simulator blocks, so the pipe holds several snapshots (18
# at level 162) and a hand-off does not wait for the writer.
_PIPE_BYTES = 1 << 20
try:
    from fcntl import F_SETPIPE_SZ, fcntl
except ImportError:  # not Linux (or no fcntl): the pipe keeps its default size
    F_SETPIPE_SZ = None

# Ledger series compared across refinement levels.
CURVE_SET = (
    "bulk_elastic",
    "interface_elastic",
    "viscous_dissipated",
    "interface_dissipated",
    "external_work",
)


class HarnessError(RuntimeError):
    """Run-level failure: unusable output directory or bad run request."""


@dataclass(frozen=True)
class RunResult:
    config: SimulationConfig
    ops: Operators
    trajectory: Trajectory
    ledger: EnergyLedger
    norms: dict[str, float]
    out_dir: Path
    # (prev, state) of the step at the planned grid's midpoint, when the run
    # reached it, and of the last step: the CLI's momentum check reads them
    momentum_pairs: tuple[tuple[State, State], ...]


def build_mesh(config: SimulationConfig) -> Mesh2D:
    geo = config.geometry
    builder = build_benchmark_mesh if geo.foundation == "rigid" else build_two_body_mesh
    return builder(geo.L, geo.H, geo.n_interface, geo.glued_fraction, geo.glued_from)


def build_simulation(config: SimulationConfig) -> tuple[Mesh2D, Operators]:
    """Mesh and assembled operators for one configuration."""
    mesh = build_mesh(config)
    ops = build_operators(
        mesh,
        IsotropicElasticity(E=config.material.E, nu=config.material.nu),
        ViscosityLaw(chi=config.material.chi),
        AdhesiveLaw(
            kappa_n=config.adhesive.kappa_n,
            kappa_t=config.adhesive.kappa_t,
            mode1_toughness=config.adhesive.a_I,
            mode_sensitivity=config.adhesive.mode_sensitivity,
            mixity_regularization=config.adhesive.eps_reg,
        ),
        config.loading.speed * np.array(config.loading.unit_direction()),
    )
    return mesh, ops


def _output_dir(path) -> Path:
    """path as a Path, made with its parents; HarnessError when it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise HarnessError(f"{out}: cannot make the output directory ({err.strerror})") from err
    return out


def _check_provenance(out: Path, digest: str) -> None:
    """Refuse to write into a directory produced by a different config."""
    meta = out / "meta.json"
    if meta.exists():
        try:
            doc = json.loads(meta.read_text(encoding="utf-8"))
            if not isinstance(doc, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as err:  # UnicodeDecodeError, JSONDecodeError too
            raise HarnessError(f"{meta}: unreadable metadata ({err})") from err
        previous = doc.get("config_hash")
        if previous != digest:
            raise HarnessError(
                f"{out}: holds output for config {previous}, refusing to mix "
                f"with {digest}; use a fresh directory"
            )
        return
    for path in sorted(out.glob("*.csv")) + sorted(out.glob("snapshots/*.csv")):
        if not path.is_file():
            continue
        try:
            with open(path, encoding="utf-8") as f:
                first = f.readline().strip()
        except (OSError, UnicodeDecodeError) as err:
            raise HarnessError(f"{path}: cannot read ({err})") from err
        if first.startswith("# config_hash=") and first.split("=", 1)[1] != digest:
            raise HarnessError(
                f"{path}: written by a different configuration, refusing to mix"
            )


def _format_rows(columns: dict) -> list[str]:
    """One comma-joined line per entry: floats with repr, all else with str."""
    cells = []
    for values in columns.values():
        v = np.asarray(values)
        if v.dtype == bool:
            v = v.astype(int)
        cells.append(map(repr if v.dtype.kind == "f" else str, v.tolist()))
    return [",".join(row) for row in zip(*cells)]


def _write_table(out, columns: dict) -> None:
    """Named columns, one row per entry: floats with repr, all else with str."""
    out.write(",".join(columns) + "\n")
    out.writelines(row + "\n" for row in _format_rows(columns))


@contextlib.contextmanager
def _writing(path: Path):
    """path opened for writing text; HarnessError naming it when that fails."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            yield f
    except OSError as err:
        raise HarnessError(f"{path}: cannot write ({err.strerror or err})") from err


def _write_json(path: Path, obj) -> None:
    """obj as indented JSON with sorted keys and a trailing newline."""
    with _writing(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_csv(path: Path, digest: str, columns: dict) -> None:
    with _writing(path) as out:
        out.write(f"# config_hash={digest}\n")
        _write_table(out, columns)


class _SnapshotWriter:
    """Hands one run's snapshots to a helper process, snapshot_writer.py,
    which formats them (the node table id, x, y, ux, uy and the interface
    table id, x_mid, z, as _write_table gives them) and writes them at low
    priority, off the stepping path.  The columns fixed by the mesh are
    formatted once, here, and go over with the first snapshot; each
    snapshot then sends only its path, t, u and z."""

    def __init__(self, digest: str, ops: Operators):
        nodes = ops.mesh.nodes
        mesh = {
            "digest": digest,
            "nodes": _format_rows({"id": np.arange(len(nodes)), "x": nodes[:, 0], "y": nodes[:, 1]}),
            "segments": _format_rows({"id": np.arange(len(ops.seg_x_mid)), "x_mid": ops.seg_x_mid}),
        }
        blob = json.dumps(mesh).encode("utf-8")
        self._pending = LENGTH.pack(len(blob)) + blob  # sent with the first snapshot
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-I", "-S", str(_WRITER)],
                stdin=subprocess.PIPE,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
        except OSError as err:
            raise HarnessError(f"cannot start the snapshot writer ({err.strerror})") from err
        if F_SETPIPE_SZ is not None:
            with contextlib.suppress(OSError):  # above the system's limit: the default size
                fcntl(self._proc.stdin.fileno(), F_SETPIPE_SZ, _PIPE_BYTES)

    def write(self, path: Path, state) -> None:
        name = os.fsencode(path)
        frame = [self._pending, SNAPSHOT.pack(state.t, len(name)), name]
        frame += [np.asarray(v, dtype=np.float64).tobytes() for v in (state.u, state.z)]
        self._pending = b""
        try:
            self._proc.stdin.write(b"".join(frame))
            self._proc.stdin.flush()
        except BrokenPipeError:
            pass  # the writer has exited; close() reports why

    def close(self) -> str | None:
        """Close the input and wait for the writer; its failure, or None."""
        _, err = self._proc.communicate()
        if self._proc.returncode == 0:
            return None
        lines = err.decode("utf-8", "replace").strip().splitlines()
        return lines[-1] if lines else f"the snapshot writer exited with status {self._proc.returncode}"


def _snapshot_steps(config: SimulationConfig) -> set[int]:
    """Step indices nearest the snapshot instants, before clamping to the run's end."""
    instants = config.outputs.snapshot_times
    if instants is None:
        instants = tuple(f * config.time.T for f in SNAPSHOT_FRACTIONS)
    return {max(0, round(t / config.time.tau)) for t in instants}


def run_single(config: SimulationConfig, out_dir) -> RunResult:
    """Run one configuration and write its result directory.

    Snapshots are handed to the snapshot writer as their instants pass,
    so a long run can be inspected mid-flight; the remaining files land
    at the end, along with one snapshot of the last state for instants
    the run never reached.  The writer has written every snapshot when
    this returns or raises.  When the stepper aborts, the outputs for the
    completed steps are still written before the error propagates; a
    snapshot that could not be written raises HarnessError once every
    other output is written, unless the stepper's error is already on
    its way.  The norms are summed as the states pass, and no state is
    kept but the trajectory's first and last and the momentum_pairs.
    """
    _, ops = build_simulation(config)
    digest = config_hash(config)
    tau = config.time.tau
    started = time.perf_counter()

    out = _output_dir(out_dir)
    _check_provenance(out, digest)
    snap_dir = _output_dir(out / "snapshots")
    planned = _snapshot_steps(config)
    written: set[int] = set()
    norms = trajectory_norms(ops, init_state(ops))  # run starts from init_state(ops)
    mid = max(1, planned_steps(tau, config.time.T) // 2)
    pairs: dict[int, tuple[State, State]] = {}  # step -> (prev, state), for momentum_pairs
    snapshots = _SnapshotWriter(digest, ops)

    def on_step(state, report):
        k = round(state.t / tau)
        if k in planned:
            snapshots.write(snap_dir / f"snapshot_{k:05d}.csv", state)
            written.add(k)
        if k - 1 != mid:
            pairs.pop(k - 1, None)
        pairs[k] = (norms.prev, state)
        norms.add(state)

    def emit(traj) -> RunResult:
        ledger = build_ledger(ops, traj)
        if traj.last.t > norms.prev.t:  # a failed step check keeps its state
            norms.add(traj.last)
        last = traj.n_steps
        for k in sorted({min(last, k) for k in planned} - written):  # only 0 and last remain
            state = traj.last if k == last else traj.first
            snapshots.write(snap_dir / f"snapshot_{k:05d}.csv", state)
        runtime = time.perf_counter() - started
        values = norms.values()
        _write_run_outputs(config, ops, traj, ledger, values, out, digest, runtime)
        return RunResult(
            config=config,
            ops=ops,
            trajectory=traj,
            ledger=ledger,
            norms=values,
            out_dir=out,
            momentum_pairs=tuple(pairs[k] for k in sorted(pairs)),
        )

    try:
        try:
            traj = run(
                ops,
                tau=tau,
                t_end=config.time.T,
                stop_after_full_debond=config.time.stop_after_full_debond,
                on_step=on_step,
            )
        except (QpNonconvergenceError, InvariantViolation) as err:
            try:
                emit(err.trajectory)
            except Exception:
                pass  # partial outputs are best-effort; the solver error wins
            raise
        result = emit(traj)
    finally:
        failure = snapshots.close()  # an error on its way wins over this one
    if failure is not None:
        raise HarnessError(failure)
    return result


def _write_run_outputs(
    config: SimulationConfig,
    ops: Operators,
    traj: Trajectory,
    ledger: EnergyLedger,
    norms: dict[str, float],
    out: Path,
    digest: str,
    runtime: float,
) -> None:
    _write_csv(
        out / "energies.csv",
        digest,
        {
            "t": ledger.t,
            **{name: getattr(ledger, name) for name in CURVE_SET[:-1]},
            "total": ledger.total_energy(),
            "external_work": ledger.external_work,
            "gap": ledger.gap,
        },
    )

    reports = traj.reports
    _write_csv(
        out / "forces.csv",
        digest,
        {
            "t": [rep.t for rep in reports],
            "reaction_x": [rep.reaction[0] for rep in reports],
            "reaction_y": [rep.reaction[1] for rep in reports],
            "bonded_length": [rep.bonded_length for rep in reports],
            "min_gap": [rep.min_gap for rep in reports],
        },
    )

    mix = mixity_histogram(ops, traj)
    _write_csv(
        out / "mixity.csv",
        digest,
        {f.name: getattr(mix, f.name) for f in fields(mix)},
    )

    from . import __version__

    final = traj.last
    meta = {
        "package": "delam2d",
        "versions": {
            "delam2d": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "config_hash": digest,
        "config": config.canonical,
        "defaults_applied": list(config.defaults_applied),
        "chi_effective": config.material.chi,
        "runtime_s": round(runtime, 3),
        "n_steps": traj.n_steps,
        "t_end": float(traj.times[-1]),
        "t_full_debond": traj.t_full_debond,
        "bonded_length_final": float(final.z @ ops.mesh.seg_length),
        "external_work_final": float(ledger.external_work[-1]),
        "energy_gap_final": float(ledger.gap[-1]),
        "norms": {k: float(v) for k, v in norms.items()},
    }
    _write_json(out / "meta.json", meta)


def _level_config(config: SimulationConfig, n_interface: int) -> SimulationConfig:
    """Configuration for one refinement level.

    The time step scales with the cell size so the ratio tau/h stays
    fixed across the ladder; n_interface is the only other change.
    """
    geo = config.geometry
    nx_ref, _ = _bottom_cell_counts(geo.n_interface, geo.glued_fraction)
    nx_new, _ = _bottom_cell_counts(n_interface, geo.glued_fraction)
    doc = json.loads(json.dumps(config.canonical))
    doc["geometry"]["n_interface"] = n_interface
    doc["material"]["chi"] = config.material.chi
    doc["time"]["tau"] = config.time.tau * (nx_ref / nx_new)
    return parse_config(doc)


def _level_payload(result: RunResult) -> dict:
    ledger = result.ledger
    geo = result.config.geometry
    nx, _ = _bottom_cell_counts(geo.n_interface, geo.glued_fraction)
    return {
        "n_interface": geo.n_interface,
        "n_total": nx,
        "h": result.ops.mesh.h,
        "tau": result.config.time.tau,
        "n_steps": result.trajectory.n_steps,
        "t_full_debond": result.trajectory.t_full_debond,
        "t": ledger.t.tolist(),
        "curves": {name: getattr(ledger, name).tolist() for name in CURVE_SET},
        "norms": {k: float(v) for k, v in result.norms.items()},
    }


def _convergence_worker(job: tuple[SimulationConfig, str]) -> dict:
    config, out_dir = job
    return _level_payload(run_single(config, out_dir))


def _curve_distance(t_eval, t_a, f_a, t_b, f_b) -> float:
    """Discrete L2 distance of two time curves on an evaluation grid."""
    t_eval = np.asarray(t_eval, dtype=float)
    fa = np.interp(t_eval, np.asarray(t_a), np.asarray(f_a))
    fb = np.interp(t_eval, np.asarray(t_b), np.asarray(f_b))
    diff = fa - fb
    if len(t_eval) < 2:
        return float(np.abs(diff).max(initial=0.0))
    w = np.empty_like(t_eval)
    w[1:-1] = 0.5 * (t_eval[2:] - t_eval[:-2])
    w[0] = 0.5 * (t_eval[1] - t_eval[0])
    w[-1] = 0.5 * (t_eval[-1] - t_eval[-2])
    return float(np.sqrt((w * diff**2).sum()))


def run_convergence(
    config: SimulationConfig,
    out_dir,
    levels: tuple[int, ...] = (27, 54, 81),
    threads: int = 1,
) -> dict:
    """Refinement study over interface resolutions at fixed tau/h.

    Each level runs in its own subdirectory level_NNN.  Consecutive
    levels are compared by the discrete L2 distance of each energy
    curve evaluated on the coarsest level's time grid, and the
    trajectory norms are tabulated so boundedness under refinement can
    be checked.  Returns the report written as report.json.
    """
    if len(levels) < 2:
        raise HarnessError("a convergence study needs at least two levels")
    if any(a >= b for a, b in zip(levels[:-1], levels[1:])):
        raise HarnessError(f"levels must increase strictly, got {levels}")
    out = _output_dir(out_dir)

    jobs = [(_level_config(config, n), str(out / f"level_{n:03d}")) for n in levels]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            payloads = list(pool.map(_convergence_worker, jobs))
    else:
        payloads = [_convergence_worker(job) for job in jobs]

    coarse = payloads[0]
    distances: dict[str, list[float]] = {name: [] for name in CURVE_SET}
    aggregate: list[float] = []
    for a, b in zip(payloads[:-1], payloads[1:]):
        total = 0.0
        for name in CURVE_SET:
            d = _curve_distance(
                coarse["t"], a["t"], a["curves"][name], b["t"], b["curves"][name]
            )
            distances[name].append(d)
            total += d * d
        aggregate.append(float(np.sqrt(total)))

    norm_ratios = {}
    for key in coarse["norms"]:
        vals = np.array([p["norms"][key] for p in payloads])
        lo = float(vals.min())
        norm_ratios[key] = float(vals.max() / lo) if lo > 0 else float("inf")

    digest = config_hash(config)
    pair_names = [f"{a:03d}_{b:03d}" for a, b in zip(levels[:-1], levels[1:])]
    curves = {**distances, "aggregate": aggregate}
    _write_csv(
        out / "convergence.csv",
        digest,
        {
            "curve": np.repeat(list(curves), len(pair_names)),
            "pair": pair_names * len(curves),
            "distance_l2": np.concatenate(list(curves.values())),
        },
    )

    report = {
        "config_hash": digest,
        "levels": [
            {k: p[k] for k in ("n_interface", "n_total", "h", "tau", "n_steps", "t_full_debond")}
            for p in payloads
        ],
        "distances": distances,
        "aggregate": aggregate,
        "distances_decrease": all(x > y for x, y in zip(aggregate[:-1], aggregate[1:])),
        "norms": {str(p["n_interface"]): p["norms"] for p in payloads},
        "norm_ratios": norm_ratios,
        "norm_ratio_max": max(norm_ratios.values()),
    }
    _write_json(out / "report.json", report)
    return report


def run_chi_sweep(config: SimulationConfig, out_dir) -> list[RunResult]:
    """Run the configuration once per viscosity scale in its chi list.

    Each member's RunResult holds its trajectory's reports and its first
    and last states, not every state: a sweep holds a fixed number of
    displacement vectors per member, whatever the step count.
    """
    chis = config.chi_sweep if config.chi_sweep is not None else (config.material.chi,)
    names = [f"chi_{chi:g}" for chi in chis]
    if len(set(names)) < len(names):
        raise HarnessError(
            f"chi values {list(chis)} share member directories {names}; "
            "give values that differ in 6 significant digits"
        )
    out = Path(out_dir)
    results = []
    summary = []
    for chi, name in zip(chis, names):
        sub = out / name
        member = replace(config, material=replace(config.material, chi=chi))
        result = run_single(member, sub)
        results.append(result)
        summary.append(
            {
                "chi": chi,
                "directory": sub.name,
                "t_full_debond": result.trajectory.t_full_debond,
                "external_work_final": float(result.ledger.external_work[-1]),
                "viscous_dissipated_final": float(result.ledger.viscous_dissipated[-1]),
            }
        )
    if len(chis) > 1:
        _write_json(out / "sweep.json", {"config_hash": config_hash(config), "runs": summary})
    return results
