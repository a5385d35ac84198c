"""Compare two benchmark records, refusing incomparable ones.

Usage, from the repository root::

    python3 perfbench/compare.py BASE.json NEW.json

Each record is a file ``perfbench/run.py`` wrote under
``.perfbench_out/``. Two records are comparable only when their
settings match exactly: workload and its configuration, seed, run
length, trace mode, Python version, batch prefilter flavor and CPU
count. Otherwise the script names the differences and exits 2 without
comparing anything. When they match it prints each metric's ratio
(new / base) and, for the end-to-end metrics of ``BENCHMARK.json``,
whether the change stays within the metric's bound; it exits 1 if one
does not.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def settings_differences(base: dict, new: dict) -> List[str]:
    """Human-readable list of settings that differ; empty if comparable."""
    a, b = base.get("settings", {}), new.get("settings", {})
    return [
        f"{key}: {a.get(key)!r} != {b.get(key)!r}"
        for key in sorted(set(a) | set(b))
        if a.get(key) != b.get(key)
    ]


def verdicts(base: dict, new: dict, bounds: Dict[str, dict]) -> List[dict]:
    rows = []
    for name, old in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        value = new["metrics"][name]
        row = {"metric": name, "base": old, "new": value,
               "ratio": value / old if old else None, "within": None}
        spec = bounds.get(name)
        if spec is not None and old:
            worse = (value - old) / old if spec["better"] == "lower" else (old - value) / old
            row["within"] = worse <= spec["bound"]
        rows.append(row)
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    differences = settings_differences(base, new)
    if differences:
        print("refusing to compare records with different settings:", file=sys.stderr)
        for line in differences:
            print(f"  {line}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    failed = False
    for row in verdicts(base, new, bounds):
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}x"
        verdict = {None: "", True: "ok", False: "WORSE THAN BOUND"}[row["within"]]
        failed |= row["within"] is False
        print(f"{row['metric']:28s} {row['base']:14.6f} -> {row['new']:14.6f}  {ratio:>9s}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
