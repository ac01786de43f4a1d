#!/usr/bin/env python3
"""Compares two result sets of bench/e2e/run.py against BENCHMARK.json.

    python3 bench/e2e/compare.py BASE CAND     # each a directory or a file
    python3 bench/e2e/compare.py --per-layer BASE CAND
    python3 bench/e2e/compare.py --self-test

The two sets should come from `run.py --pair-with`, which runs the two
sides of each seed back to back. Runs are paired by seed, and every verdict
rests on the per-pair change: cand / base, oriented so that a positive
change is worse. Drift of the host's speed that lasts longer than a pair
moves both runs of the pair alike and cancels in the ratio. For every
workload and metric the script prints each side's median and quartiles,
the median and quartiles of the paired change, the fraction of pairs the
candidate wins, and a verdict against the metric's bound:

  pass        the median paired change is not worse than the bound ("gain"
              when the candidate also wins >= 9/10 of the pairs and the
              medians differ by more than the base's quartile spread);
  regress     the median paired change is worse than the bound, or the
              candidate failed any answer (failed_frac > 0 is a regression
              at any size);
  unresolved  the paired changes' quartile spread exceeds the bound, or
              fewer than MIN_PAIRS seeds are paired, so the data cannot
              tell; unless every pair is better (pass) or every pair is
              worse by more than the bound (regress);
  info        no bound applies (per-layer metrics).

A set is refused (exit 2) when it mixes runs that do not belong together:
another scale than 1 (smoke runs), another run length than run_seconds,
more than one git revision, or one seed twice for a workload. Exits 1 when
anything regresses. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 5


class InvalidSet(Exception):
    """A result set mixes runs that cannot be compared."""


def load_records(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files
            if not f.name.endswith(".trace.json")]


def check_set(records, bench, label):
    """Raises InvalidSet unless every record is a full-size run of
    run_seconds from one revision, each (workload, trace, seed) once."""
    seen, revisions = set(), set()
    for r in records:
        where = f"{label}: {r['workload']} seed {r['seed']}"
        prov = r.get("provenance", {})
        if prov.get("scale") != 1.0:
            raise InvalidSet(f"{where} has scale {prov.get('scale')}, not 1")
        if prov.get("seconds") != bench["run_seconds"]:
            raise InvalidSet(f"{where} ran {prov.get('seconds')} s, not "
                             f"run_seconds {bench['run_seconds']}")
        key = (r["workload"], r["trace"], r["seed"])
        if key in seen:
            raise InvalidSet(f"{where} appears twice")
        seen.add(key)
        revisions.add(prov.get("git_revision"))
    if len(revisions) > 1:
        raise InvalidSet(f"{label} mixes revisions {sorted(revisions)}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a > b if direction == "higher" else a < b


def worsening(b, c, direction):
    """Change from b to c as a share of b, positive when c is worse."""
    ratio = c / b if direction == "lower" else b / c
    return ratio - 1.0


def compare_metric(base, cand, spec):
    """base/cand: {seed: value}. Returns a row dict with the verdict."""
    direction, bound = spec["better"], spec.get("bound")
    b_vals, c_vals = list(base.values()), list(cand.values())
    b_q, c_q = quartiles(b_vals), quartiles(c_vals)
    seeds = sorted(set(base) & set(cand))
    worse = [worsening(base[s], cand[s], direction) for s in seeds]
    w_q = quartiles(worse) if worse else (0.0, 0.0, 0.0)
    win_frac = (sum(better(cand[s], base[s], direction) for s in seeds)
                / len(seeds) if seeds else 0.0)
    row = {"base": b_q, "cand": c_q, "change": w_q, "win_frac": win_frac,
           "pairs": len(seeds)}
    if bound is None:
        row["verdict"] = "info"
    elif worse and all(w > bound for w in worse):
        row["verdict"] = "regress"
    elif worse and all(w < 0.0 for w in worse):
        row["verdict"] = "pass (gain)"
    elif len(seeds) < MIN_PAIRS or w_q[2] - w_q[0] > bound:
        row["verdict"] = "unresolved"
    elif w_q[1] > bound:
        row["verdict"] = "regress"
    else:
        gain = (win_frac >= 0.9 and w_q[1] < 0.0
                and abs(c_q[1] - b_q[1]) > b_q[2] - b_q[0])
        row["verdict"] = "pass (gain)" if gain else "pass"
    return row


def compare(base_records, cand_records, bench, per_layer=False):
    """Returns (rows, regressed). rows: (workload, metric, unit, row)."""
    check_set(base_records, bench, "base")
    check_set(cand_records, bench, "cand")
    specs = list(bench["end_to_end"])
    if per_layer:
        specs += bench["per_layer"]
    trace_flags = (0, 1) if per_layer else (0,)
    rows, regressed = [], False
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in trace_flags:
            side = {}
            for label, records in (("base", base_records),
                                   ("cand", cand_records)):
                side[label] = [r for r in records if r["workload"] == workload
                               and r["trace"] == trace]
            if not side["base"] or not side["cand"]:
                continue
            frac = {}
            for label in ("base", "cand"):
                attempted = sum(r["attempted"] for r in side[label])
                failed = sum(r["failed"] for r in side[label])
                frac[label] = failed / attempted if attempted else 1.0
            cand_ok = frac["cand"] == 0 and all(r["correct"]
                                                for r in side["cand"])
            regressed |= not cand_ok
            rows.append((workload, "failed_frac", "fraction",
                         {"verdict": "pass" if cand_ok else "regress",
                          "base_frac": frac["base"],
                          "cand_frac": frac["cand"]}))
            for spec in specs:
                name = spec["name"]
                base = {r["seed"]: r["metrics"][name]["value"]
                        for r in side["base"] if name in r["metrics"]}
                cand = {r["seed"]: r["metrics"][name]["value"]
                        for r in side["cand"] if name in r["metrics"]}
                if not base or not cand:
                    continue
                row = compare_metric(base, cand, spec)
                regressed |= row["verdict"] == "regress"
                rows.append((workload, name, spec["unit"], row))
    return rows, regressed


def print_rows(rows):
    header = (f"{'workload':16s} {'metric':24s} {'unit':6s} "
              f"{'base median [q1, q3]':>30s} {'cand median [q1, q3]':>30s} "
              f"{'paired change [q1, q3]':>26s} {'pairs':>5s} {'wins':>5s}"
              f"  verdict")
    print(header)
    print("-" * len(header))
    for workload, name, unit, row in rows:
        if name == "failed_frac":
            print(f"{workload:16s} {name:24s} {unit[:6]:6s} "
                  f"{row['base_frac']:>30.4g} {row['cand_frac']:>30.4g} "
                  f"{'':>26s} {'':>5s} {'':>5s}  {row['verdict']}")
            continue
        fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
        pct = lambda q: (f"{100 * q[1]:+.1f}% [{100 * q[0]:+.1f}, "
                         f"{100 * q[2]:+.1f}]")
        print(f"{workload:16s} {name:24s} {unit[:6]:6s} "
              f"{fmt(row['base']):>30s} {fmt(row['cand']):>30s} "
              f"{pct(row['change']):>26s} {row['pairs']:>5d} "
              f"{row['win_frac']:>5.2f}  {row['verdict']}")


# ------------------------------------------------------------- self-test


def synthetic_set(bench, slowdown=1.0, failed=0, seed=0, drift=None,
                  **provenance):
    """Ten seeded runs per workload with independent noise a tenth of each
    metric's bound. `slowdown` worsens every metric by that factor in its
    own direction; `drift` maps a seed to a factor every timing of that
    seed's runs shares (the host's speed during the pair)."""
    rng = random.Random(seed)
    prov = dict({"scale": 1.0, "seconds": bench["run_seconds"],
                 "git_revision": "synthetic"}, **provenance)
    records = []
    for w in bench["workloads"]:
        for s in range(1, 11):
            metrics = {}
            for m in bench["end_to_end"]:
                noise = 0.1 * m["bound"] * rng.uniform(-1.0, 1.0)
                factor = slowdown * (drift(s) if drift else 1.0)
                if m["better"] == "higher":
                    factor = 1.0 / factor
                metrics[m["name"]] = {"value": 100.0 * (1.0 + noise) * factor,
                                      "unit": m["unit"]}
            records.append({"workload": w["name"], "seed": s, "trace": 0,
                            "correct": failed == 0, "attempted": 100,
                            "failed": failed,
                            "metrics": metrics, "provenance": prov})
    return records


def self_test(bench):
    base = synthetic_set(bench, seed=1)
    # A host whose speed differs by up to 1.3x between seeds: wider than
    # every bound, but shared by both runs of a pair.
    drift = lambda s: 0.85 + 0.05 * (s % 7)
    # (label, base, candidate, which rows must regress: None = none may)
    checks = [
        ("self-comparison passes", base, base, None),
        ("an independent set of the same system passes", base,
         synthetic_set(bench, seed=2), None),
        ("common-mode drift between seeds cancels in the pairs",
         synthetic_set(bench, seed=3, drift=drift),
         synthetic_set(bench, seed=4, drift=drift), None),
        ("a 2x slowdown regresses every metric", base,
         synthetic_set(bench, 2.0, seed=5),
         lambda name: name != "failed_frac"),
        ("failed_frac > 0 regresses", base,
         synthetic_set(bench, failed=1, seed=6),
         lambda name: name == "failed_frac"),
    ]
    ok = True
    for label, b, cand, must_regress in checks:
        rows, regressed = compare(b, cand, bench)
        if must_regress is None:
            good = not regressed and all(
                r[3]["verdict"].startswith("pass") for r in rows)
        else:
            targets = [r for r in rows if must_regress(r[1])]
            good = regressed and targets and all(
                r[3]["verdict"] == "regress" for r in targets)
        print(f"self-test: {label}: {'ok' if good else 'FAILED'}")
        ok &= bool(good)

    # A directory holding runs that do not belong together is refused.
    smoke = synthetic_set(bench, seed=7, scale=0.02)[:1]
    short = synthetic_set(bench, seed=8, seconds=1.0)[:1]
    other = synthetic_set(bench, seed=9, git_revision="other")[:1]
    duplicate = [dict(base[0], metrics=base[1]["metrics"])]
    for label, mixed in (("a smoke run", smoke), ("another run length", short),
                         ("another revision", other),
                         ("a duplicate seed", duplicate)):
        try:
            compare(base + mixed, base, bench)
            refused = False
        except InvalidSet:
            refused = True
        print(f"self-test: a set with {label} is refused: "
              f"{'ok' if refused else 'FAILED'}")
        ok &= refused
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", nargs="?")
    parser.add_argument("cand", nargs="?")
    parser.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--per-layer", action="store_true",
                        help="also list the traced runs' per-layer metrics")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    bench = json.loads(Path(args.bench).read_text())
    if args.self_test:
        return self_test(bench)
    if not args.base or not args.cand:
        parser.error("BASE and CAND are required")
    try:
        rows, regressed = compare(load_records(args.base),
                                  load_records(args.cand), bench,
                                  args.per_layer)
    except InvalidSet as e:
        print(f"compare.py: refusing to compare: {e}", file=sys.stderr)
        return 2
    if not rows:
        print("compare.py: no workload has results on both sides",
              file=sys.stderr)
        return 1
    print_rows(rows)
    print(f"\n{'REGRESSION' if regressed else 'no regression'} "
          f"against the bounds in {args.bench}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
