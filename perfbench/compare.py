"""``run.py compare OLD.json NEW.json``: two result files, one verdict per
(workload, end-to-end metric), using the bounds in ``BENCHMARK.json``."""

from __future__ import annotations

import json
import os

from perfbench.spec import PER_LAYER

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """Results keyed by (workload, traced)."""
    with open(path) as handle:
        return {(r["workload"], r["trace"]): r
                for r in json.load(handle)["results"]}


def relative_spread(metric: dict) -> float:
    """Distance between the slice quartiles as a share of the median."""
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return abs(metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    if max(relative_spread(base), relative_spread(new)) > bound:
        return "unresolved"
    change = (new["value"] - base["value"]) / base["value"]
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "same"


def exact_verdict(base: float, new: float, better: str) -> str:
    if new == base:
        return "same"
    return "better" if (new < base) == (better == "lower") else "worse"


def compare(old_path: str, new_path: str) -> int:
    """Print the table; returns 1 when any row reads ``worse``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    per_layer = {m["name"]: m for m in benchmark["per_layer"]}
    # exact counts are marked in the code registry, not in BENCHMARK.json
    exact = {m.name for m in PER_LAYER if m.exact}

    old, new = load(old_path), load(new_path)
    rows = []
    for key in sorted(set(old) & set(new)):
        workload, traced = key
        a, b = old[key], new[key]
        rows.append((workload, "failed", a["failed"], b["failed"], "", "0",
                     "worse" if b["failed"] > a["failed"] else "same"))
        for name, base in a["metrics"].items():
            fresh = b["metrics"].get(name)
            if fresh is None:
                continue
            if name in end_to_end:
                spec = end_to_end[name]
                result = verdict(base, fresh, spec["better"], spec["bound"])
                bound = f"{spec['bound']:g}"
            elif traced and name in exact and (base["value"]
                                               or fresh["value"]):
                result = exact_verdict(base["value"], fresh["value"],
                                       per_layer[name]["better"])
                bound = "exact"
            else:
                continue
            ratio = (f"{fresh['value'] / base['value']:.3f}x of old"
                     if base["value"] else "")
            rows.append((workload, name, f"{base['value']:.6g}",
                         f"{fresh['value']:.6g}", ratio, bound, result))
    header = ("workload", "metric", "old", "new", "ratio", "bound", "verdict")
    widths = [max(len(str(row[i])) for row in (header, *rows))
              for i in range(len(header))]
    for row in (header, *rows):
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return int(any(row[-1] == "worse" for row in rows))
