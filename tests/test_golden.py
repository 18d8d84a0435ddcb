"""Golden reports: a fixed tiny workload whose every report is pinned.

A refactor of the restoration or evaluation code has to leave these
numbers alone. EERs, counts and recovered parameters must match
exactly; thresholds, distances and bias statistics to a relative 1e-9.
If a numeric change is intended, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

which first prints every value that moved beyond those tolerances, and
record the reason alongside the change.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from voxrestore import (CorpusConfig, Embedding, default_grid, embed,
                        gen_trials, mfcc, restore_pair, restore_with,
                        run_matrix, synth_corpus)

GOLDEN = Path(__file__).with_name("golden_reports.json")

# policy -> (trial seed, restoration methods)
WORKLOADS = {
    "pitch-time": (1, ["none", "pitch-freq", "pitch-time", "f0ratio"]),
    "vtln-all": (2, ["none", "vtln-power", "vtln-quadratic",
                     "vtln-piecewise", "grid:vtln-bilinear"]),
    "none": (3, ["none", "pitch-freq", "f0ratio"]),
    "pitch-freq": (4, ["none", "pitch-freq", "f0ratio"]),
}
N_TRIALS = 40

# compared to a relative 1e-9; every other value must match exactly
CLOSE_KEYS = {"threshold", "d_hat", "mean_error", "std_error"}


def _external_table(audio, trials):
    """A stand-in for a foreign embedder: builtin embeddings shifted by
    one, for every utterance and every pitch-freq candidate."""
    def shifted(feats):
        return Embedding(embed(feats).vector + 1.0)

    table = {}
    for t in trials:
        for utt in (t.enroll_id, t.test_id):
            if utt not in table:
                table[utt] = shifted(mfcc(audio[utt]))
        for spec in default_grid("pitch-freq"):
            token = f"{t.test_id}#{spec.spec_string()}"
            if token not in table:
                table[token] = shifted(
                    restore_with(audio[t.test_id], spec.param, spec.family))
    return table


def compute_reports() -> dict:
    corpus = synth_corpus(CorpusConfig(n_speakers=4, utts_per_speaker=3,
                                       duration_s=1.0))
    out = {}
    for policy, (seed, methods) in WORKLOADS.items():
        trials, extra = gen_trials(corpus, N_TRIALS, policy, seed=seed)
        audio = {**corpus.utterances, **extra}
        out[f"matrix/{policy}"] = run_matrix(audio, trials,
                                             methods).to_dict()
        if policy == "pitch-freq":
            out["matrix/pitch-freq/external"] = run_matrix(
                audio, trials, methods,
                external=_external_table(audio, trials)).to_dict()
        if policy == "pitch-time":
            t = next(t for t in trials if t.label)
            enrolled, disguised = audio[t.enroll_id], audio[t.test_id]
            grid = default_grid("pitch-time")
            out["grid_search_restore"] = restore_pair(
                enrolled, disguised, "grid", grid).to_dict()
            out["f0_ratio_restore"] = restore_pair(
                enrolled, disguised, "f0ratio", grid).to_dict()
    return out


def assert_matches(got, want, path: str, key: str = "") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for k in want:
            assert_matches(got[k], want[k], f"{path}.{k}", k)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        if key == "per_candidate":       # [alpha, distance] pairs
            for i, ((ga, gd), (wa, wd)) in enumerate(zip(got, want)):
                assert ga == wa, f"{path}[{i}] alpha {ga} != {wa}"
                assert_matches(gd, wd, f"{path}[{i}]", "d_hat")
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                assert_matches(g, w, f"{path}[{i}]", key)
    elif key in CLOSE_KEYS:
        assert math.isclose(got, want, rel_tol=1e-9), \
            f"{path}: {got!r} != {want!r} (rel 1e-9)"
    else:
        assert type(got) is type(want) and got == want, \
            f"{path}: {got!r} != {want!r}"


def moved_paths(got, want, path: str, key: str = "") -> list:
    """The `assert_matches` message of every value in `want` that `got`
    moves beyond its tolerance; a node of another shape is one value."""
    if (isinstance(want, dict) and isinstance(got, dict)
            and sorted(got) == sorted(want)):
        return [m for k in want for m in moved_paths(
            got[k], want[k], f"{path}.{k}" if path else k, k)]
    if (isinstance(want, list) and isinstance(got, list)
            and len(got) == len(want) and key != "per_candidate"):
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in moved_paths(g, w, f"{path}[{i}]", key)]
    try:
        assert_matches(got, want, path, key)
    except AssertionError as err:
        return [str(err)]
    return []


@pytest.fixture(scope="module")
def reports():
    return compute_reports()


@pytest.mark.parametrize("name", [
    "matrix/pitch-time", "matrix/vtln-all", "matrix/none",
    "matrix/pitch-freq", "matrix/pitch-freq/external",
    "grid_search_restore", "f0_ratio_restore"])
def test_golden_report(reports, name):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(reports) == sorted(want)
    assert_matches(reports[name], want[name], name)


def test_comparison_catches_drift():
    want = {"eer": 12.5, "threshold": 0.25, "n_same": 3,
            "per_candidate": [[0.0, 0.5]]}
    assert_matches(dict(want, threshold=0.25 * (1 + 1e-12)), want, "ok")
    for bad in (dict(want, eer=12.5 + 1e-12),
                dict(want, threshold=0.25 * (1 + 1e-8)),
                dict(want, n_same=3.0),
                dict(want, per_candidate=[[1e-12, 0.5]]),
                dict(want, per_candidate=[[0.0, 0.5 * (1 + 1e-8)]])):
        with pytest.raises(AssertionError):
            assert_matches(bad, want, "bad")


def test_diff_lists_every_moved_value():
    want = {"rows": [{"eer": 1.0, "threshold": 0.5},
                     {"eer": 2.0, "threshold": 0.5}],
            "per_candidate": [[0.0, 0.5], [1.0, 0.5]], "n": 3}
    got = {"rows": [{"eer": 1.5, "threshold": 0.5 * (1 + 1e-12)},
                    {"eer": 2.0, "threshold": 0.6}],
           "per_candidate": [[0.0, 0.5], [1.0, 0.4]], "n": 3}
    assert [m.split(":")[0] for m in moved_paths(got, want, "")] == [
        "rows[0].eer", "rows[1].threshold", "per_candidate[1]"]
    assert moved_paths(want, want, "") == []


if __name__ == "__main__":
    new = compute_reports()
    if GOLDEN.exists():
        for message in moved_paths(
                new, json.loads(GOLDEN.read_text(encoding="utf-8")), ""):
            print(f"moved: {message}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(new, indent=1,
                                 sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
