import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_LOWER = {"unit": "s", "better": "lower", "bound": 0.2}


def test_quartiles_follow_numpy_percentile():
    values = [0.013, 0.0141, 0.0129, 0.0152, 0.0137, 0.0133, 0.0139]
    q = bench_pairs._quartiles(values)
    assert [q["q1"], q["median"], q["q3"]] == list(np.percentile(values, [25, 50, 75]))


def test_summarize_gain_and_claim():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    change = [0.8, 0.82, 0.79, 1.05, 0.81, 0.8, 0.83, 0.78, 0.8, 0.81]
    entry = bench_pairs.summarize(_LOWER, parent, change)
    assert entry["pairs"] == 10 and entry["pairs_won_by_change"] == 9
    assert entry["within_bound"] and entry["resolved"] and entry["rel_change"] < -0.15
    assert bench_pairs.claim_met(entry)
    # Eight pairs of ten fall short of a claim, whatever the medians.
    change[0] = 1.1
    assert not bench_pairs.claim_met(bench_pairs.summarize(_LOWER, parent, change))


def test_summarize_bound_and_spread():
    parent = [1.0, 1.1, 0.9, 1.05, 0.95]
    # Inside the parent's quartiles: within the bound but not resolved.
    entry = bench_pairs.summarize(_LOWER, parent, [1.02, 0.98, 1.01, 1.03, 0.99])
    assert entry["within_bound"] and not entry["resolved"]
    # 30% slower than the parent is beyond a bound of 0.2.
    entry = bench_pairs.summarize(_LOWER, parent, [1.3 * v for v in parent])
    assert not entry["within_bound"] and entry["pairs_won_by_change"] == 0
    # A higher-is-better ratio: ties count for neither side.
    ok = {"unit": "ratio", "better": "higher", "bound": 0.002}
    entry = bench_pairs.summarize(ok, [1.0] * 4, [1.0, 1.0, 0.99, 1.0])
    assert entry["pairs_won_by_change"] == 0 and entry["within_bound"]


def test_seed_ranges():
    assert bench_pairs._seeds("rhovar=2611-2613") == ("rhovar", [2611, 2612, 2613])
    assert bench_pairs._seeds("paths=7") == ("paths", [7])
