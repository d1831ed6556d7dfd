"""The benchmark's output checks accept correct outputs and reject corrupted ones.

Run from the repository root::

    python3 -m pytest -q bench/test_checks.py
"""

import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import pytest  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from backwater.data import ParameterRanges, generate  # noqa: E402
from backwater.solver import MIXED, GridSpec, WaterProfile  # noqa: E402

#: A corner of the wide box small enough for a test: mild and steep slopes,
#: so both subcritical and mixed (jump) profiles occur.
BOX = {
    "s": (5e-4, 2e-2, 3),
    "b": (5.0, 50.0, 2),
    "n": (0.01, 0.05, 2),
    "zd": (1.0, 5.0, 2),
    "Q": (100.0, 300.0, 1),
}


@pytest.fixture(scope="module")
def corpus():
    return generate(ParameterRanges.from_dict(BOX), GridSpec(dx=10.0, length=600.0), seed=0)


def counts(ds):
    return {
        "retained": len(ds.profiles),
        "rejected": len(ds.manifest["rejected"]),
        "mixed": sum(p.regime == MIXED for p in ds.profiles),
    }


def nudged(ds, profile_index, station, delta=1e-6):
    profiles = list(ds.profiles)
    p = profiles[profile_index]
    depths = p.depths.copy()
    depths[station] += delta
    profiles[profile_index] = WaterProfile(p.scenario, p.grid, depths, p.regime, p.jump_index)
    return replace(ds, profiles=profiles)


def test_correct_corpus_passes(corpus):
    assert 0 < counts(corpus)["mixed"] < len(corpus.profiles)
    result = checks.check_corpus(corpus, counts(corpus))
    assert len(result) == len(corpus.profiles) + 1 and all(result.values())


def _station(corpus, where):
    sub = next(i for i, p in enumerate(corpus.profiles) if p.regime != MIXED)
    mixed = next(i for i, p in enumerate(corpus.profiles) if p.regime == MIXED and p.jump_index >= 3)
    jump = corpus.profiles[mixed].jump_index
    return {
        "dam": (sub, 0),
        "interior": (sub, 17),
        "upstream_end": (sub, -1),
        "below_jump": (mixed, jump - 1),
        "past_jump": (mixed, jump + 2),
    }[where]


@pytest.mark.parametrize("where", ["dam", "interior", "upstream_end", "below_jump", "past_jump"])
@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_one_depth_nudged_by_a_micrometre_fails(corpus, where, delta):
    k, station = _station(corpus, where)
    result = checks.check_corpus(nudged(corpus, k, station, delta), counts(corpus))
    assert [name for name, ok in result.items() if not ok] == [f"profile.{k}"]


def test_wrong_counts_fail(corpus):
    expected = dict(counts(corpus), rejected=counts(corpus)["rejected"] + 1)
    assert checks.check_corpus(corpus, expected)["counts"] is False


def test_replay_mismatch_is_counted():
    def record(test_nmae):
        return SimpleNamespace(records=[1.0], history=[{"val_loss": 0.5}], summaries={"test": test_nmae})

    assert workloads.replay_mismatches(record(0.1), record(0.1)) == 0
    assert workloads.replay_mismatches(record(0.1), record(0.1 + 1e-16)) == 1


def test_tail_leaves_ten_samples_beyond():
    value, percentile, samples = spans.tail([float(i) for i in range(100)])
    assert (value, percentile, samples) == (89.0, 90.0, 100)
    assert spans.tail([3.0, 1.0]) == (3.0, 100.0, 2)
