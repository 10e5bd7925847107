"""A root-level BENCH_<pr>.json holds one change's alternating benchmark
pairs against its parent commit: the two commits, the window each run took,
the host, and per workload its seeds and every run, in the order run, with
its side, seed, op_s, peak_rss_mb and err_digits. `read_point` is the
format's one reader; these tests hold every committed point to it."""

import copy
import glob
import json
import math
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POINTS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
RUN_KEYS = {"seed", "side", "op_s", "peak_rss_mb", "err_digits"}


def _finite(value, name):
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError("%s must be a finite number, not %r" % (name, value))
    return value


def _keys(mapping, expected, name):
    if not isinstance(mapping, dict) or set(mapping) != expected:
        raise ValueError("%s must hold exactly the keys %s"
                         % (name, ", ".join(sorted(expected))))


def check_point(point):
    """Raise ValueError unless `point` has the shape of a point file."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = {w["name"] for w in json.load(fh)["workloads"]}
    _keys(point, {"parent", "change", "host", "seconds", "workloads"}, "a point")
    for side in ("parent", "change"):
        if not re.fullmatch("[0-9a-f]{40}", str(point[side])):
            raise ValueError("%s must be a full commit hash" % side)
    if point["parent"] == point["change"]:
        raise ValueError("parent and change are one commit")
    if not isinstance(point["host"], str) or not point["host"]:
        raise ValueError("host must name the machine")
    if not _finite(point["seconds"], "seconds") > 0:
        raise ValueError("seconds must be positive")
    names = [entry.get("workload") for entry in point["workloads"]]
    if not names or len(set(names)) != len(names) or set(names) - workloads:
        raise ValueError("workloads must name distinct BENCHMARK.json "
                         "workloads, not %r" % names)
    for entry in point["workloads"]:
        _keys(entry, {"workload", "seeds", "runs"}, entry["workload"])
        seeds = entry["seeds"]
        if (not seeds or len(set(seeds)) != len(seeds)
                or any(type(seed) is not int for seed in seeds)):
            raise ValueError("%s: seeds must be distinct integers"
                             % entry["workload"])
        for run in entry["runs"]:
            _keys(run, RUN_KEYS, "a run")
            for metric in ("op_s", "peak_rss_mb", "err_digits"):
                _finite(run[metric], metric)
            if run["op_s"] <= 0 or run["peak_rss_mb"] <= 0:
                raise ValueError("op_s and peak_rss_mb must be positive")
        pairs = sorted((run["seed"], run["side"]) for run in entry["runs"])
        if pairs != sorted((seed, side) for seed in seeds
                           for side in ("parent", "change")):
            raise ValueError("%s: each seed needs one parent and one change run"
                             % entry["workload"])


def read_point(path):
    """The point file at `path`, refused with a ValueError unless it has the
    shape of a point file."""
    with open(path, encoding="utf-8") as fh:
        point = json.load(fh)
    check_point(point)
    return point


def test_a_point_is_committed():
    assert POINTS


@pytest.mark.parametrize("path", POINTS, ids=os.path.basename)
def test_point_has_its_shape(path):
    read_point(path)


VALID = {"parent": "a" * 40, "change": "b" * 40, "host": "2 vCPU",
         "seconds": 25,
         "workloads": [{"workload": "cv", "seeds": [1], "runs": [
             {"seed": 1, "side": "parent", "op_s": 0.4, "peak_rss_mb": 149.0,
              "err_digits": 15},
             {"seed": 1, "side": "change", "op_s": 0.4, "peak_rss_mb": 149.0,
              "err_digits": 15}]}]}


def _set(path, value):
    def mutate(point):
        *parents, last = path
        for key in parents:
            point = point[key]
        point[last] = value
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_set(("change",), "a" * 40), "one commit"),
    (_set(("parent",), "1251ca1"), "full commit hash"),
    (_set(("workloads", 0, "workload"), "cv-large"), "BENCHMARK.json"),
    (_set(("workloads", 0, "runs", 1, "side"), "parent"), "one parent"),
    (_set(("workloads", 0, "runs", 0, "op_s"), True), "op_s must be"),
    (_set(("workloads", 0, "runs", 0, "err_digits"), None), "err_digits"),
    (lambda point: point["workloads"][0]["runs"][0].pop("seed"), "exactly")],
    ids=["same-commit", "short-hash", "unknown-workload", "missing-side",
         "bool-metric", "null-metric", "missing-key"])
def test_reader_refuses_a_malformed_point(mutate, message):
    check_point(copy.deepcopy(VALID))
    point = copy.deepcopy(VALID)
    mutate(point)
    with pytest.raises(ValueError, match=message):
        check_point(point)
