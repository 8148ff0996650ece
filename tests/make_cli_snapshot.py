"""Write ``tests/cli_snapshot.json``: the exit code, stdout and stderr of a
fixed list of ``fracchern`` command lines, run in process.

Run from the repository root, against the code whose output is to be
pinned:

    PYTHONPATH=src python tests/make_cli_snapshot.py

``tests/test_cli_snapshot.py`` reruns every entry and compares it byte for
byte.  The snapshot states what the CLI prints; regenerate it only for a
change that means to alter a printed line, and list every such line in the
change's notes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

from fracchern import cli

SNAPSHOT = Path(__file__).resolve().parent / "cli_snapshot.json"
# the CLI wraps --help and usage text at a fixed 78 columns, whatever COLUMNS
# says; the setting is kept so that every entry runs under the same environment
COLUMNS = "80"
SUBCOMMANDS = (
    "frac-chern", "change-triv", "universal", "transgress",
    "obstruction", "count", "gch", "verify",
)
_TIMING = re.compile(r"\d+\.\d\ds\)$", re.MULTILINE)


def mask_timings(text: str) -> str:
    """``verify`` ends each line with its wall time; keep the rest."""
    return _TIMING.sub("…s)", text)


def run(argv) -> dict:
    """One in-process ``cli.main`` call, as a snapshot entry."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {
        "argv": list(argv),
        "exit": 0 if code is None else code,
        "stdout": mask_timings(out.getvalue()),
        "stderr": err.getvalue(),
    }


def argvs() -> list:
    """The benchmark's CLI catalogue, every ``--help``, the descent and
    normalization paths of ``gch``, its q-order edges, ``frac-chern`` in
    the root basis and ``verify``."""
    sys.path.insert(0, str(SNAPSHOT.parents[1]))
    from perfbench.workloads import cli_catalogue, divisors

    out = [list(argv) for argv in cli_catalogue()]
    out.append(["--help"])
    out.extend([name, "--help"] for name in SUBCOMMANDS)
    for n in range(1, 5):
        for l in divisors(n):
            for kind in ("theta2", "theta3"):
                base = ["gch", "--kind", kind, "--n", str(n), "--l", str(l),
                        "--q-order", "3", "--method", "both"]
                out.extend([base, base + ["--normalize"], base + ["--normalize", "--descend"]])
    for q in ("0", "1", "-1"):
        out.append(["gch", "--kind", "theta3", "--n", "2", "--l", "2", "--q-order", q])
    for n in range(1, 5):
        for l in divisors(n):
            for k in range(n + 1):
                out.append(["frac-chern", "--n", str(n), "--l", str(l), "--k", str(k),
                            "--basis", "roots"])
    out.append(["verify"])
    return out


def main() -> int:
    os.environ["COLUMNS"] = COLUMNS
    os.environ.pop("FRACCHERN_DEGREE_CAP", None)
    entries = [run(argv) for argv in argvs()]
    SNAPSHOT.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {SNAPSHOT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
