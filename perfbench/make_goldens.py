#!/usr/bin/env python3
"""Regenerate goldens.json from the program as it stands.

The goldens pin the outputs the benchmark checks: a digest of every
descended witten_series character, and the exit code and stdout of every
cli_requests catalogue entry.  Regenerate them only at a commit whose
output is known to be right; a change that claims no output change must
pass against the goldens it inherited.

Usage, from the repository root: python3 perfbench/make_goldens.py
"""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for name in [k for k in os.environ if k.startswith("FRACCHERN_")]:
    del os.environ[name]
sys.path.insert(0, str(ROOT / "src"))
os.chdir(ROOT)

import workloads  # noqa: E402  (needs the cleared environment and src path)


def main() -> None:
    witten = workloads.WittenSeries()
    witten.build_models()
    goldens = {"witten_series": {}, "cli_requests": []}
    for op in witten.catalogue:
        goldens["witten_series"][witten.golden_key(op)] = workloads.digest(witten.output(op))
    for argv in workloads.cli_catalogue():
        code, out, _ = workloads.call_cli(argv)
        goldens["cli_requests"].append({"argv": list(argv), "exit": code, "stdout": out})
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")
    codes = [entry["exit"] for entry in goldens["cli_requests"]]
    print(
        f"{len(goldens['witten_series'])} witten digests, {len(codes)} cli entries "
        f"(exit 0: {codes.count(0)}, 1: {codes.count(1)}, 2: {codes.count(2)})"
    )


if __name__ == "__main__":
    main()
