#!/usr/bin/env python3
"""The benchmark's own test: run every workload untraced and traced on the
default seed, then check the results and the traced run's spans.

    python3 perfbench/test_perfbench.py [workload ...]

Run from the root of a checkout; it builds through run.py like any run.
Checks, per workload:
  * both runs exit 0 and print a correct result whose metric names and
    units are exactly BENCHMARK.json's end-to-end (untraced) or per-layer
    (traced) set;
  * the traced run's spans nest: children never sum past their parent's
    wall time, and no span ends before it starts;
  * top-level spans cover at least 90% of the measured window;
  * every traced operation holds the layer spans its workload promises;
  * the untraced and traced runs print the same outputs: virtual makespans,
    inferred knowledge, sweep fingerprints.
Exits 1 on the first failed workload.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Layer spans every traced operation of a workload must contain.
LAYER_SPANS = {
    "fabric_commit": {"commit.tango", "commit.dionysus", "txn.begin", "txn.commit",
                      "sched.order", "fabric.build", "knowledge.adopt",
                      "workload.gen", "setup", "check", "host.gauge"},
    "fleet_learn": {"learn.switch", "infer.size", "infer.policy", "infer.latency",
                    "infer.width", "probe.clear", "setup", "check", "host.gauge"},
    "fault_soak": {"soak.chaos", "soak.ha", "soak.service", "setup", "check",
                   "host.gauge"},
}
SLACK_S = 1e-6


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" % (
            workload, trace, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def outputs(lines):
    """The run's virtual-time and behavioural outputs (not wall times)."""
    keep = ("perfbench: fabric_commit ", "perfbench: learned ",
            "perfbench: sweep fingerprints ")
    return [line for line in lines if line.startswith(keep)]


def check_spans(workload, path):
    with open(path) as f:
        trace = json.load(f)
    spans = trace["spans"]
    assert spans, "no spans recorded"
    child = [0.0] * len(spans)
    top = 0.0
    ops = {}
    for s in spans:
        dur = s["end_s"] - s["start_s"]
        assert dur >= 0, "span %s ends before it starts" % s["name"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["op"] == s["op"], "span %s crosses operations" % s["name"]
            assert parent["start_s"] <= s["start_s"] and s["end_s"] <= parent["end_s"], \
                "span %s lies outside its parent" % s["name"]
            child[s["parent"]] += dur
        else:
            top += dur
        ops.setdefault(s["op"], set()).add(s["name"])
    for s, c in zip(spans, child):
        assert c <= s["end_s"] - s["start_s"] + SLACK_S, \
            "children of %s sum past its wall time" % s["name"]
    coverage = top / trace["window_s"]
    assert coverage >= 0.9, "spans cover only %.3f of the window" % coverage
    traced = [names for names in ops.values() if len(names) > 1]
    assert traced, "no traced operation"
    for names in traced:
        missing = LAYER_SPANS[workload] - names
        assert not missing, "traced operation lacks spans %s" % sorted(missing)
    return coverage


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        results = {}
        for trace in (0, 1):
            lines, result = run(workload, trace)
            assert result["correct"] is True, "%s: result not correct" % workload
            assert result["attempted"] >= 1, "%s: nothing attempted" % workload
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared[trace], "%s trace=%d: metrics %s != declared %s" % (
                workload, trace, sorted(got), sorted(declared[trace]))
            results[trace] = lines
        assert outputs(results[0]) == outputs(results[1]), \
            "%s: traced and untraced outputs differ" % workload
        coverage = check_spans(
            workload, os.path.join(ROOT, ".bench_build", "spans-%s-1.json" % workload))
        print("ok  %s (span coverage %.4f)" % (workload, coverage), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as err:
        print("FAIL  %s" % err, file=sys.stderr)
        sys.exit(1)
