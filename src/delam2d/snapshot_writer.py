"""Writes one run's snapshots, handed over on standard input.

    python -I -S snapshot_writer.py

`harness.run_single` starts this script once per run and feeds it; it
uses only the standard library and reads no option.  Its input is

- once: a 64-bit length and that many bytes of UTF-8 JSON, the object
  {"digest", "nodes", "segments"}: the config hash and the formatted
  mesh rows of the two snapshot tables ("id,x,y" per node and
  "id,x_mid" per interface segment);
- per snapshot: a SNAPSHOT header (t as a double and the path's length),
  the path, then the native float64 bytes of u (two per node) and of z
  (one per segment).

Each snapshot is written as `harness._write_table` formats its tables,
floats with repr.  A snapshot whose bytes stop short, because the run
died while handing it over, is not written.  A failed write does not
stop the input from being read; at the end the first failure (and how
many followed it) goes to standard error as one line, and the exit
status is 1.
"""

import json
import os
import signal
import struct
import sys

SNAPSHOT = struct.Struct("=dQ")  # t, byte length of the path
LENGTH = struct.Struct("=Q")


def _write(path, head, t, node_rows, u, seg_rows, z) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(f"{head}# t={t!r}\nnodes\nid,x,y,ux,uy\n")
        out.writelines(f"{a},{x!r},{y!r}\n" for a, x, y in zip(node_rows, u[0::2], u[1::2]))
        out.write("interface\nid,x_mid,z\n")
        out.writelines(f"{a},{b!r}\n" for a, b in zip(seg_rows, z))


def main() -> int:
    if hasattr(os, "nice"):
        os.nice(19)  # run on an idle CPU rather than preempt the simulator
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the run closes the input on Ctrl-C
    stream = sys.stdin.buffer
    size = stream.read(LENGTH.size)
    if len(size) < LENGTH.size:
        return 0
    mesh = json.loads(stream.read(LENGTH.unpack(size)[0]))
    head = f"# config_hash={mesh['digest']}\n"
    node_rows, seg_rows = mesh["nodes"], mesh["segments"]
    n_u = 2 * len(node_rows)
    n_floats = n_u + len(seg_rows)
    failures = []
    while True:
        header = stream.read(SNAPSHOT.size)
        if len(header) < SNAPSHOT.size:
            break
        t, path_len = SNAPSHOT.unpack(header)
        body = stream.read(path_len + 8 * n_floats)
        if len(body) < path_len + 8 * n_floats:
            break
        path = os.fsdecode(body[:path_len])
        floats = memoryview(body)[path_len:].cast("d").tolist()
        try:
            _write(path, head, t, node_rows, floats[:n_u], seg_rows, floats[n_u:])
        except OSError as err:
            failures.append(f"{path}: cannot write the snapshot ({err.strerror})")
    if failures:
        more = f" (and {len(failures) - 1} more snapshots)" if len(failures) > 1 else ""
        print(failures[0] + more, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
