"""The CLI prints exactly what ``cli_snapshot.json`` records: exit code,
stdout and stderr of every entry, byte for byte (``verify``'s timings
masked).  See ``make_cli_snapshot.py`` for how the snapshot is made."""

import json
from pathlib import Path

import pytest
from make_cli_snapshot import COLUMNS, SNAPSHOT, run

ROOT = Path(__file__).resolve().parents[1]


def test_cli_output_matches_snapshot(monkeypatch):
    # the benchmark's catalogue names its fixtures relative to the repo root
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    monkeypatch.delenv("FRACCHERN_DEGREE_CAP", raising=False)
    entries = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    changed = []
    for entry in entries:
        got = run(entry["argv"])
        if got != entry:
            fields = [f for f in ("exit", "stdout", "stderr") if got[f] != entry[f]]
            changed.append(f"{' '.join(entry['argv'])}: {', '.join(fields)}")
    assert not changed, f"{len(changed)} of {len(entries)} entries differ:\n" + "\n".join(changed)


@pytest.mark.parametrize("columns", ["40", "200"])
def test_help_and_usage_ignore_the_terminal_width(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    entries = {tuple(e["argv"]): e for e in json.loads(SNAPSHOT.read_text(encoding="utf-8"))}
    for argv in (["--help"], ["gch", "--help"], ["frac-chern", "--n", "4", "--k", "1"]):
        assert run(argv) == entries[tuple(argv)]
