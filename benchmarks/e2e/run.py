"""End-to-end testbed benchmark: four workloads through proxy, kernel,
wire decoders, monitor and SOC, with a traced per-layer self-time table.

Run from the repository root (no install step; ``src/`` is put on the
path here):

    python3 benchmarks/e2e/run.py --seed 1            # all workloads, 5 interleaved rounds
    python3 benchmarks/e2e/run.py --seed 1 --trace    # plus traced rounds: per-layer table
    python3 benchmarks/e2e/run.py --workload bulk-output --seed 3 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --compare A.json B.json

Each (round, workload) pair runs in a fresh subprocess while this process
waits, so ``peak_rss_mb`` is per workload, and rounds go round-robin over
the workloads (round r of every workload before round r+1).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.  The exit
code is non-zero when a check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

WORKLOAD_NAMES = ("benign-sessions", "hostile-campaigns", "trace-replay", "bulk-output")
#: Layers in report order (see layers.LAYERS).
LAYER_NAMES = ("simnet", "hub", "server", "client", "kernel", "audit", "messaging",
               "wire", "monitor", "signatures", "soc", "topology", "attacks")
#: Reported on every run but not bounded: the latency tail swings
#: between seeds by more than its bound would allow, the host's speed is
#: not the program's, and the outcomes vary with the seed (some are 0 on
#: most workloads) while repeating exactly for one seed.
DIAGNOSTICS = {
    "latency_tail_ms": ("ref_ms", "lower"),
    "host_speed": ("ratio", "higher"),
    "detection_rate": ("ratio", "higher"),
    "containment_lead_s": ("sim_s", "lower"),
    "false_alerts_per_session": ("count", "lower"),
    "failed_op_ratio": ("ratio", "lower"),
}
EXACT = ("detection_rate", "containment_lead_s", "false_alerts_per_session", "failed_op_ratio")
#: A round measures two to three seconds at the base counts; one that
#: takes this long (scaled with ``--seconds``) is hung.
ROUND_TIMEOUT_S = 60
#: ``--seconds`` at which workloads run their base operation counts.
BASE_SECONDS = 10.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of already sorted values."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for q in (99, 95, 90):
        if n * (100 - q) / 100.0 >= 10:
            return q
    return 50


# -- one round in a subprocess ----------------------------------------------------
def run_child(workload: str, seed: int, seconds: float, trace: bool, round_index: int) -> Dict:
    """Run one round in a fresh interpreter and return its result.  Raises
    RuntimeError when the round exits non-zero or prints no result,
    ValueError when the result is not JSON, and TimeoutExpired (after
    killing the round) when it hangs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--round", str(round_index),
           "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", "1" if trace else "0"]
    # A fixed hash seed keeps dict and set layouts, and with them speed,
    # the same in every round process.
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = ROUND_TIMEOUT_S * max(1.0, seconds / BASE_SECONDS)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                          cwd=ROOT, env=env)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"round {round_index} of {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def child_main(args) -> int:
    from workloads import run_round

    spans = None
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"{args.workload[0]}-round{args.round}.jsonl")
    result = run_round(args.workload[0], args.seed, args.seconds / BASE_SECONDS,
                       bool(args.trace), spans)
    print(json.dumps(result))
    return 0


# -- aggregation --------------------------------------------------------------------
def _metric(value: float, unit: str, rounds: List[float], samples: int) -> Dict:
    return {"value": value, "unit": unit, "samples": samples, "rounds": rounds}


def summarize(rounds: List[Dict]) -> Dict[str, Dict]:
    """End-to-end metrics and diagnostics of one workload from its
    untraced rounds: medians over rounds, latency percentiles over the
    pooled operation latencies.  Timings are in reference time (``ref_s``,
    ``ref_ms``): wall time rescaled to the reference host's speed, see
    ``workloads.calibration_s``.  ``setup_s`` is measured the same way;
    its unit keeps the plain name ``s``."""
    n = len(rounds)

    def over_rounds(values: List[float], unit: str, samples: int = n) -> Dict:
        return _metric(_median(values), unit, values, samples)

    pooled = sorted(x for r in rounds for x in r["latencies_ms"])
    per_round = [sorted(r["latencies_ms"]) for r in rounds]
    q = tail_percentile(len(pooled))
    metrics = {
        "setup_s": over_rounds([r["setup_s"] for r in rounds], "s"),
        "ops_per_s": over_rounds([r["ops"] / r["scaled_op_s"] for r in rounds], "1/ref_s",
                                 sum(r["ops"] for r in rounds)),
        "latency_p50_ms": _metric(_percentile(pooled, 50), "ref_ms",
                                  [_percentile(s, 50) for s in per_round], len(pooled)),
        "tap_mb_per_s": over_rounds([r["tap_bytes"] / 1e6 / r["scaled_op_s"]
                                     for r in rounds], "MB/ref_s"),
        "peak_rss_mb": over_rounds([r["peak_rss_mb"] for r in rounds], "MB"),
        "latency_tail_ms": _metric(_percentile(pooled, q), "ref_ms",
                                   [_percentile(s, q) for s in per_round], len(pooled)),
    }
    metrics["latency_tail_ms"]["percentile"] = q
    metrics["host_speed"] = over_rounds([r["host_speed"] for r in rounds], "ratio")
    # Outcomes repeat exactly across rounds (checked), so round 0 speaks for all.
    first = rounds[0]
    outcomes = {
        "detection_rate": (_ratio(first["detected"], first["campaigns"]), first["campaigns"]),
        "containment_lead_s": (_median(first["leads"]), len(first["leads"])),
        "false_alerts_per_session": (_ratio(first["false_alerts"], first["benign_sessions"]),
                                     first["benign_sessions"]),
        "failed_op_ratio": (_ratio(sum(r["failed"] for r in rounds),
                                   sum(r["ops"] for r in rounds)), sum(r["ops"] for r in rounds)),
    }
    for name, (value, samples) in outcomes.items():
        metrics[name] = _metric(value, DIAGNOSTICS[name][0], [value] * n, samples)
    return metrics


def layer_metrics(r: Dict) -> Dict[str, tuple]:
    """Per-layer metrics of one traced round: name -> (value, unit)."""
    lay, counters, wall = r["layers"], r["counters"].get, r["op_s"]
    counts = lay["counts"].get
    out: Dict[str, tuple] = {}
    for layer in LAYER_NAMES:
        self_s = lay["self_s"][layer]
        out[f"{layer}.calls"] = (lay["calls"][layer], "count")
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.share"] = (self_s / wall, "ratio")
    unattributed = wall - sum(lay["self_s"].values())
    out["unattributed.self_s"] = (unattributed, "s")
    out["unattributed.share"] = (unattributed / wall, "ratio")
    out.update({
        "simnet.events": (counts("simnet.events", 0), "count"),
        "simnet.segments": (counts("simnet.segments_calls", 0), "count"),
        "simnet.heap_max": (lay["heap_max"], "count"),
        "kernel.ops": (counts("kernel.ops", 0), "count"),
        "kernel.error_cells": (counts("kernel.error_cells", 0), "count"),
        "audit.denied": (counters("audit.denied", 0), "count"),
        "server.protocol_errors": (counts("server.protocol_errors", 0), "count"),
        "wire.probe_miss_ratio": (_ratio(counts("wire.probe_misses", 0),
                                         counts("wire.probe_calls", 0)), "ratio"),
        "monitor.mb_per_self_s": (_ratio(counters("monitor.bytes", 0) / 1e6,
                                         lay["self_s"]["monitor"]), "MB/s"),
        "monitor.dedupe_hit_ratio": (_ratio(counters("monitor.dedupe_hits", 0),
                                            counters("monitor.jupyter_msgs", 0)), "ratio"),
        "monitor.segments": (counters("monitor.segments", 0), "count"),
        "monitor.dropped": (counters("monitor.dropped", 0), "count"),
        "monitor.parse_errors": (counters("monitor.parse_errors", 0), "count"),
        "monitor.weird": (counters("monitor.weird", 0), "count"),
        "monitor.notices": (counters("monitor.notices", 0), "count"),
        "soc.useful_poll_ratio": (_ratio(counts("soc.useful_polls", 0),
                                         lay["calls"]["soc"]), "ratio"),
        "soc.actions_executed": (counters("soc.actions_executed", 0), "count"),
        "soc.actions_failed": (counters("soc.actions_failed", 0), "count"),
        "hub.routed": (counters("hub.routed", 0), "count"),
        "hub.denied": (counters("hub.denied", 0), "count"),
        "hub.upstream_errors": (counters("hub.upstream_errors", 0), "count"),
        "hub.buffer_overflows": (counters("hub.buffer_overflows", 0), "count"),
        "topology.setup_self_s": (lay["topology_setup_s"], "s"),
    })
    return out


def per_layer(traced: List[Dict], summary: Dict[str, Dict]) -> Dict[str, Dict]:
    """Medians over the traced rounds of each per-layer metric, the
    tracing overhead, and the untraced run's diagnostics."""
    per_round = [layer_metrics(r) for r in traced]
    metrics = {}
    for name, (_, unit) in per_round[0].items():
        values = [m[name][0] for m in per_round]
        metrics[name] = _metric(_median(values), unit, values, len(values))
    traced_rate = _median([r["ops"] / r["scaled_op_s"] for r in traced])
    overhead = traced_rate / summary["ops_per_s"]["value"] - 1.0
    metrics["trace.overhead"] = _metric(overhead, "ratio", [overhead], len(traced))
    for name in DIAGNOSTICS:
        metrics[name] = summary[name]
    return metrics


def checks_for(rounds: List[Dict], traced: List[Dict], broken: List[str]) -> List[Dict]:
    everything = rounds + traced
    checks = [c for r in everything for c in r["checks"] if not c["ok"]]
    checks.append({"name": "every round completed", "ok": not broken,
                   "detail": "; ".join(broken[:3])})
    same = all(r["signature"] == everything[0]["signature"] for r in everything)
    checks.append({"name": "outcomes identical across rounds"
                   + (" and with tracing" if traced else ""), "ok": same, "detail": ""})
    failed = sum(r["failed"] for r in everything)
    checks.append({"name": "no operation failed", "ok": failed == 0, "detail": str(failed)})
    for r in traced:
        over = sum(r["layers"]["self_s"].values()) - r["op_s"]
        checks.append({"name": "layer self times add up to at most wall time (+1%)",
                       "ok": over <= 0.01 * r["op_s"], "detail": f"{over:+.4f} s"})
    return checks


def load_spec() -> Optional[Dict]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


# -- reporting ------------------------------------------------------------------------
def _fmt(value: float) -> str:
    if float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.4g}"


def print_tables(result: Dict[str, Dict], bounds: Dict[str, Dict]) -> None:
    for name, entry in result.items():
        print(f"\n== {name}: {entry['ops']} operations in {entry['rounds']} rounds ==")
        print(f"{'metric':<26} {'value':>10} {'unit':<6} {'samples':>8}  note")
        for metric, m in entry["summary"].items():
            if metric in bounds:
                note = f"{bounds[metric]['better']} is better, bound {bounds[metric]['bound']:.0%}"
            elif metric in EXACT:
                note = "diagnostic, exact per seed"
            elif "percentile" in m:
                note = f"diagnostic, p{m['percentile']}"
            else:
                note = "diagnostic"
            print(f"{metric:<26} {_fmt(m['value']):>10} {m['unit']:<6} {m['samples']:>8}  {note}")
        layers = entry.get("layers")
        if layers:
            print(f"\n{'layer':<13} {'calls':>9} {'self_s':>9} {'share':>7}")
            for layer in LAYER_NAMES + ("unattributed",):
                calls = layers.get(f"{layer}.calls", {}).get("value")
                print(f"{layer:<13} {'' if calls is None else _fmt(calls):>9} "
                      f"{layers[f'{layer}.self_s']['value']:>9.4f} "
                      f"{layers[f'{layer}.share']['value']:>7.1%}")
            print()
            for metric, m in layers.items():
                if "." in metric and metric.split(".")[1] not in ("calls", "self_s", "share"):
                    print(f"{metric:<26} {_fmt(m['value']):>10} {m['unit']}")
        for c in entry["checks"]:
            print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']} {c['detail']}".rstrip())


def git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                             text=True, timeout=10, cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def append_history(result: Dict[str, Dict], args) -> None:
    record = {
        "git": git_describe(), "host": platform.node(), "seed": args.seed,
        "date": time.strftime("%Y-%m-%dT%H:%M:%S"), "seconds": args.seconds,
        "rounds": args.rounds, "trace": bool(args.trace),
        "workloads": {w: {m: {"value": v["value"], "rounds": v["rounds"]}
                          for m, v in entry["summary"].items()}
                      for w, entry in result.items()},
    }
    with open(os.path.join(HERE, "history.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


# -- A/B comparison --------------------------------------------------------------------
def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return _ratio(q[2] - q[0], abs(statistics.median(values)))


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    """better, worse, within-bound or unresolved for one (metric, workload).

    The spread is that of A's rounds.  Where it exceeds the bound, only a
    B whose every round beats every round of A counts as better, and
    anything else is unresolved.  Otherwise B is worse when its median is
    worse by more than the bound, and better when it is better by more
    than the spread and wins nine tenths of the paired rounds."""
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    if ma == mb:
        return "within-bound"
    change = sign * (mb - ma) / abs(ma) if ma else sign * (mb - ma)
    noise = spread(a)
    if noise > bound:
        all_better = min(sign * x for x in b) > max(sign * x for x in a)
        return "better" if all_better else "unresolved"
    if change < -bound:
        return "worse"
    wins = sum(1 for x, y in zip(a, b) if sign * y > sign * x)
    if change > noise and wins >= 0.9 * min(len(a), len(b)):
        return "better"
    return "within-bound"


def compare_main(path_a: str, path_b: str, spec: Dict) -> int:
    with open(path_a) as fh:
        a = json.load(fh)["workloads"]
    with open(path_b) as fh:
        b = json.load(fh)["workloads"]
    rules = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    rules += [(name, DIAGNOSTICS[name][1], 0.0) for name in EXACT]
    worse = 0
    print(f"{'workload':<18} {'metric':<25} {'A':>10} {'B':>10} {'change':>8} "
          f"{'A spread':>9}  verdict")
    for w in [w for w in a if w in b]:
        for name, better, bound in rules:
            ma, mb = a[w]["summary"][name], b[w]["summary"][name]
            v = verdict(ma["rounds"], mb["rounds"], better, bound)
            worse += v == "worse"
            change = _ratio(mb["value"] - ma["value"], abs(ma["value"]))
            print(f"{w:<18} {name:<25} {_fmt(ma['value']):>10} {_fmt(mb['value']):>10} "
                  f"{change:>+8.1%} {spread(ma['rounds']):>9.1%}  {v}")
    return 1 if worse else 0


# -- entry point ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]] = None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                   help="run only this workload (repeatable; default: all four)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=BASE_SECONDS,
                   help="scales every operation count; at 10 a round measures two to "
                        "three seconds on a 2-core host")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="also run traced rounds and report per-layer metrics")
    p.add_argument("--out", help="write the full result, with per-round values, as JSON")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two --out results metric by metric")
    p.add_argument("--round", type=int, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if spec is None or not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"BENCHMARK.json and src/repro must be in {ROOT}", file=sys.stderr)
        return 2
    if args.compare:
        return compare_main(*args.compare, spec)
    if args.round is not None:
        return child_main(args)
    workloads = args.workload or list(WORKLOAD_NAMES)
    untraced: Dict[str, List[Dict]] = {w: [] for w in workloads}
    traced: Dict[str, List[Dict]] = {w: [] for w in workloads}
    # A round that crashes, hangs or prints garbage fails the run, which
    # still reports what the other rounds measured.
    broken: Dict[str, List[str]] = {w: [] for w in workloads}
    for r in range(args.rounds):
        for w in workloads:
            for trace in (False, True) if args.trace else (False,):
                try:
                    (traced if trace else untraced)[w].append(
                        run_child(w, args.seed, args.seconds, trace, r))
                except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
                    print(f"{w}: {exc}", file=sys.stderr)
                    broken[w].append(f"round {r}{' traced' if trace else ''}: {exc}")

    result: Dict[str, Dict] = {}
    for w in workloads:
        summary = summarize(untraced[w]) if untraced[w] else {}
        done = untraced[w] + traced[w]
        entry = {"summary": summary, "rounds": args.rounds,
                 "ops": sum(r["ops"] for r in untraced[w]),
                 "attempted": sum(r["ops"] for r in done) + len(broken[w]),
                 "failed": sum(r["failed"] for r in done) + len(broken[w]),
                 "checks": checks_for(untraced[w], traced[w], broken[w])}
        if args.trace and traced[w] and summary:
            entry["layers"] = per_layer(traced[w], summary)
        result[w] = entry

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    reported = {w: e.get("layers") or e["summary"] for w, e in result.items()}
    missing = [f"{w}:{m['name']}" for w, metrics in reported.items() for m in wanted
               if metrics.get(m["name"], {}).get("unit") != m["unit"]]
    for entry in result.values():
        entry["checks"].append({"name": "every named metric present with its unit",
                                "ok": not missing, "detail": ", ".join(missing[:5])})
    print_tables(result, {m["name"]: m for m in spec["end_to_end"]})

    correct = all(c["ok"] for entry in result.values() for c in entry["checks"])
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "git": git_describe(),
                       "host": platform.node(), "correct": correct, "workloads": result},
                      fh, indent=1)
    if correct and args.workload is None and args.rounds >= 5:
        append_history(result, args)

    def flat(metrics: Dict[str, Dict], prefix: str = "") -> Dict[str, Dict]:
        return {prefix + m["name"]: {"value": metrics[m["name"]]["value"],
                                     "unit": metrics[m["name"]]["unit"]}
                for m in wanted if m["name"] in metrics}

    if len(reported) == 1:
        metrics = flat(next(iter(reported.values())))
    else:
        metrics = {k: v for w, m in reported.items() for k, v in flat(m, f"{w}.").items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(e["attempted"] for e in result.values()),
        "failed": sum(e["failed"] for e in result.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
