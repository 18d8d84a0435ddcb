import hashlib
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SMALL_CORPUS, SR, bl_sawtooth, white_noise
from voxrestore import (AudioBuffer, Corpus, CorpusConfig, Trial, alpha_bias,
                        compute_eer, default_grid, distance, embed,
                        gen_trials, mfcc, restore_pair, run_matrix,
                        synth_corpus)
from voxrestore.disguise import DisguiseFamily
from voxrestore.evaluate import _disguise_label
from voxrestore.restore import _RestorationContext, _candidate_token


# ---------------------------------------------------------------------------
# corpus synthesis


def test_corpus_shape_and_ids(corpus_small):
    cfg = SMALL_CORPUS
    assert len(corpus_small.utterances) == cfg.n_speakers * cfg.utts_per_speaker
    assert set(corpus_small.utterances) == set(corpus_small.speaker_of)
    assert "spk00_u00" in corpus_small.utterances
    by = corpus_small.by_speaker()
    assert len(by) == cfg.n_speakers
    assert all(len(v) == cfg.utts_per_speaker for v in by.values())
    for buf in corpus_small.utterances.values():
        assert buf.sample_rate == cfg.sample_rate
        assert buf.samples.size == round(cfg.duration_s * cfg.sample_rate)
        assert np.all(np.isfinite(buf.samples))
        assert np.max(np.abs(buf.samples)) == pytest.approx(0.3)


def test_corpus_is_deterministic(corpus_small):
    again = synth_corpus(SMALL_CORPUS)
    for utt, buf in corpus_small.utterances.items():
        assert np.array_equal(buf.samples, again.utterances[utt].samples)


def test_corpus_growth_keeps_existing_utterances(corpus_small):
    # hierarchical seeding: adding speakers or utterances never changes
    # the ones already generated
    cfg = SMALL_CORPUS
    bigger = synth_corpus(CorpusConfig(
        n_speakers=cfg.n_speakers + 1, utts_per_speaker=cfg.utts_per_speaker + 1,
        seed=cfg.seed, duration_s=cfg.duration_s))
    for utt, buf in corpus_small.utterances.items():
        assert np.array_equal(buf.samples, bigger.utterances[utt].samples)


def test_corpus_speakers_differ(corpus_small):
    a = corpus_small.utterances["spk00_u00"].samples
    b = corpus_small.utterances["spk01_u00"].samples
    assert not np.array_equal(a, b)


def test_corpus_config_validation():
    with pytest.raises(ValueError):
        CorpusConfig(n_speakers=1)
    with pytest.raises(ValueError):
        CorpusConfig(utts_per_speaker=1)
    with pytest.raises(ValueError):
        CorpusConfig(sample_rate=4000)
    with pytest.raises(ValueError):
        CorpusConfig(duration_s=0.3)


# ---------------------------------------------------------------------------
# trial generation


def test_gen_trials_balance_and_labels(corpus_small):
    trials, extra = gen_trials(corpus_small, 50, seed=4)
    assert len(trials) == 50
    assert sum(t.label for t in trials) == 25
    assert extra == {}
    spk = corpus_small.speaker_of
    for t in trials:
        assert t.disguise_meta is None
        assert t.test_id in corpus_small.utterances
        if t.label:
            assert spk[t.enroll_id] == spk[t.test_id]
            assert t.enroll_id != t.test_id
        else:
            assert spk[t.enroll_id] != spk[t.test_id]


def test_gen_trials_deterministic(corpus_small):
    a, _ = gen_trials(corpus_small, 30, policy="vtln-power", seed=9)
    b, _ = gen_trials(corpus_small, 30, policy="vtln-power", seed=9)
    assert a == b
    c, _ = gen_trials(corpus_small, 30, policy="vtln-power", seed=10)
    assert a != c


def test_gen_trials_single_family_policy(corpus_small):
    trials, extra = gen_trials(corpus_small, 20, policy="pitch-freq", seed=2)
    grid = set(default_grid("pitch-freq").values)
    for t in trials:
        meta = t.disguise_meta
        assert meta.family is DisguiseFamily.PITCH_FREQ
        assert meta.param in grid
        probe = t.test_id.split("~")[0]
        assert t.test_id == f"{probe}~{meta.spec_string()}"
        assert t.test_id in extra
    lengths = {buf.samples.size for buf in extra.values()}
    assert lengths == {corpus_small.utterances["spk00_u00"].samples.size}


def test_gen_trials_vtln_all_covers_every_family(corpus_small):
    trials, extra = gen_trials(corpus_small, 200, policy="vtln-all", seed=0)
    counts = {}
    for t in trials:
        counts[t.disguise_meta.family.value] = (
            counts.get(t.disguise_meta.family.value, 0) + 1)
    assert set(counts) == {"vtln-bilinear", "vtln-quadratic",
                           "vtln-power", "vtln-piecewise"}
    assert all(n >= 35 for n in counts.values())
    # disguised audio is shared between trials that drew the same transform
    assert len(extra) <= len(trials)
    assert len(extra) == len({t.test_id for t in trials})


def test_gen_trials_validation(corpus_small):
    with pytest.raises(ValueError, match="unknown disguise policy"):
        gen_trials(corpus_small, 10, policy="loudness")
    with pytest.raises(ValueError):
        gen_trials(corpus_small, 1)
    solo = Corpus(
        {"a_u0": corpus_small.utterances["spk00_u00"],
         "b_u0": corpus_small.utterances["spk01_u00"]},
        {"a_u0": "a", "b_u0": "b"})
    with pytest.raises(ValueError, match="two utterances per speaker"):
        gen_trials(solo, 10)


# ---------------------------------------------------------------------------
# EER


def test_eer_separable_scores():
    rep = compute_eer([0.1, 0.2], [0.8, 0.9])
    assert rep.eer_percent == 0.0
    assert rep.threshold == 0.2
    assert (rep.n_same, rep.n_diff) == (2, 2)


def test_eer_identical_distributions():
    rep = compute_eer([0.3, 0.5], [0.3, 0.5])
    assert rep.eer_percent == 50.0
    assert rep.threshold == 0.3


def test_eer_interleaved_example():
    rep = compute_eer([0.1, 0.2, 0.3], [0.25, 0.4, 0.5])
    assert rep.eer_percent == pytest.approx(100.0 / 3.0, abs=1e-9)
    assert rep.threshold == 0.25


def test_eer_validation():
    with pytest.raises(ValueError):
        compute_eer([], [0.5])
    with pytest.raises(ValueError):
        compute_eer([0.5], [])
    with pytest.raises(ValueError):
        compute_eer([0.5, np.nan], [0.5])
    with pytest.raises(ValueError):
        compute_eer([0.5], [np.inf])


def eer_oracle(same, diff):
    """Exhaustive threshold sweep, written independently of compute_eer."""
    same = np.asarray(same, dtype=np.float64)
    diff = np.asarray(diff, dtype=np.float64)
    best = None
    for thr in np.unique(np.concatenate([same, diff])):
        frr = np.mean(same > thr)
        far = np.mean(diff <= thr)
        key = (abs(far - frr), 0.5 * (far + frr), thr)
        if best is None or key < best:
            best = key
    return 100.0 * best[1], best[2]


scores = st.lists(st.floats(-1e12, 1e12, allow_nan=False, width=64),
                  min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(scores, scores)
def test_eer_matches_exhaustive_oracle(same, diff):
    want_eer, want_thr = eer_oracle(same, diff)
    rep = compute_eer(same, diff)
    assert rep.eer_percent == want_eer
    assert rep.threshold == want_thr


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-10_000, 10_000), min_size=1, max_size=30),
       st.lists(st.integers(-10_000, 10_000), min_size=1, max_size=30))
def test_eer_invariant_under_monotone_rescaling(same, diff):
    same = [v / 1000.0 for v in same]
    diff = [v / 1000.0 for v in diff]
    base = compute_eer(same, diff)
    moved = compute_eer([2.0 * v + 1.0 for v in same],
                        [2.0 * v + 1.0 for v in diff])
    assert moved.eer_percent == base.eer_percent
    assert moved.threshold == 2.0 * base.threshold + 1.0


# ---------------------------------------------------------------------------
# bias statistics


def test_alpha_bias_single_bucket():
    stats = alpha_bias([(2.0, 3.0), (2.0, 1.0)])
    assert stats.mean_error == 0.0
    assert stats.std_error == 1.0
    assert stats.count == 2
    assert stats.buckets == [(2.0, 0.0, 1.0, 2)]


def test_alpha_bias_partitions_by_true_value():
    pairs = [(1.0, 1.5), (1.0, 0.5), (-3.0, -3.0), (4.0, 6.0)]
    stats = alpha_bias(pairs)
    assert [b[0] for b in stats.buckets] == [-3.0, 1.0, 4.0]
    assert sum(b[3] for b in stats.buckets) == 4
    by_alpha = {b[0]: b for b in stats.buckets}
    assert by_alpha[-3.0][1] == 0.0
    assert by_alpha[4.0][1] == 2.0
    blob = stats.to_dict()
    assert len(blob["buckets"]) == 3
    assert blob["count"] == 4


def test_alpha_bias_rejects_empty():
    with pytest.raises(ValueError):
        alpha_bias([])


# ---------------------------------------------------------------------------
# evaluation matrix


@pytest.fixture(scope="module")
def plain_trials(corpus_small):
    trials, _ = gen_trials(corpus_small, 12, seed=2)
    return trials


def test_matrix_none_row_matches_direct_scoring(corpus_small, plain_trials):
    report = run_matrix(corpus_small.utterances, plain_trials, ["none"])
    emb = {u: embed(mfcc(corpus_small.utterances[u]))
           for u in {t.enroll_id for t in plain_trials}
           | {t.test_id for t in plain_trials}}
    same = [distance(emb[t.enroll_id], emb[t.test_id])
            for t in plain_trials if t.label]
    diff = [distance(emb[t.enroll_id], emb[t.test_id])
            for t in plain_trials if not t.label]
    want = compute_eer(same, diff)
    row = report.row("none")
    assert row.eer.eer_percent == want.eer_percent
    assert row.eer.threshold == want.threshold
    assert row.bias is None
    assert row.per_alpha == []
    assert report.disguise_label == "none"
    assert report.n_trials == 12


def test_matrix_restoration_is_blind_to_metadata(corpus_small):
    trials, extra = gen_trials(corpus_small, 10, policy="vtln-quadratic",
                               seed=6)
    audio = dict(corpus_small.utterances)
    audio.update(extra)
    stripped = [Trial(t.enroll_id, t.test_id, t.label, None) for t in trials]
    with_meta = run_matrix(audio, trials, ["vtln-quadratic"])
    without = run_matrix(audio, stripped, ["vtln-quadratic"])
    row_a = with_meta.row("vtln-quadratic")
    row_b = without.row("vtln-quadratic")
    assert row_a.eer.eer_percent == row_b.eer.eer_percent
    assert row_a.eer.threshold == row_b.eer.threshold
    # only the report organization reacts to metadata
    assert row_a.bias is not None and row_b.bias is None
    assert row_b.per_alpha == []
    assert without.disguise_label == "none"
    assert with_meta.disguise_label == "vtln-quadratic"


def test_matrix_worker_count_does_not_change_output(corpus_small):
    trials, extra = gen_trials(corpus_small, 8, policy="vtln-quadratic",
                               seed=7)
    audio = dict(corpus_small.utterances)
    audio.update(extra)
    methods = ["none", "vtln-quadratic"]
    serial = run_matrix(audio, trials, methods, jobs=1)
    threaded = run_matrix(audio, trials, methods, jobs=4)
    assert serial.to_dict() == threaded.to_dict()


def test_matrix_report_schema(corpus_small):
    trials, extra = gen_trials(corpus_small, 8, policy="vtln-power", seed=8)
    audio = dict(corpus_small.utterances)
    audio.update(extra)
    blob = run_matrix(audio, trials, ["none", "vtln-power"]).to_dict()
    assert set(blob) == {"matrix", "bias", "per_alpha", "n_trials",
                         "trial_summary"}
    assert [r["restoration"] for r in blob["matrix"]] == ["none",
                                                          "vtln-power"]
    for r in blob["matrix"]:
        assert set(r) == {"disguise", "restoration", "eer", "threshold",
                          "n_same", "n_diff"}
        assert r["disguise"] == "vtln-power"
    assert [b["restoration"] for b in blob["bias"]] == ["vtln-power"]
    # every row gets a per-parameter breakdown, the unrestored one included
    assert {e["restoration"] for e in blob["per_alpha"]} <= {"none",
                                                             "vtln-power"}
    for entry in blob["per_alpha"]:
        assert entry["family"] == "vtln-power"
    assert blob["trial_summary"] == {"vtln-power": 8}


def test_matrix_per_alpha_skips_single_class_groups():
    corpus = synth_corpus(CorpusConfig(n_speakers=2, utts_per_speaker=2,
                                       duration_s=1.0))
    trials, extra = gen_trials(corpus, 8, policy="vtln-power", seed=1)
    audio = dict(corpus.utterances)
    audio.update(extra)
    report = run_matrix(audio, trials, ["none"])
    keys = {}
    for t in trials:
        k = (t.disguise_meta.family.value, t.disguise_meta.param)
        keys.setdefault(k, set()).add(t.label)
    mixed = {k for k, labels in keys.items() if len(labels) == 2}
    got = {(e["family"], e["param"]) for e in report.row("none").per_alpha}
    assert got == mixed


def test_matrix_f0ratio_falls_back_on_unvoiced_enrollment(caplog):
    audio = {"noise": white_noise(1.0, seed=3),
             "a2": bl_sawtooth(132.0, 1.0),
             "b2": bl_sawtooth(210.0, 1.0)}
    trials = [Trial("noise", "a2", True), Trial("noise", "b2", False)]
    caplog.set_level(logging.INFO, logger="voxrestore")
    ratio = run_matrix(audio, trials, ["f0ratio"]).row("f0ratio")
    assert ("f0ratio: 2 of 2 trials fell back to the no-op parameter"
            in caplog.text)
    plain = run_matrix(audio, trials, ["none"]).row("none")
    # no usable pitch on the enrollment side, so the method must degrade
    # to scoring the test audio unmodified rather than erroring out
    assert ratio.eer.eer_percent == plain.eer.eer_percent
    assert ratio.eer.threshold == plain.eer.threshold


def test_matrix_external_scorer_matches_builtin(corpus_small):
    trials, extra = gen_trials(corpus_small, 6, policy="pitch-freq", seed=11)
    audio = dict(corpus_small.utterances)
    audio.update(extra)
    table = {}
    for t in trials:
        if t.enroll_id not in table:
            table[t.enroll_id] = embed(mfcc(audio[t.enroll_id]))
        if t.test_id not in table:
            ctx = _RestorationContext(audio[t.test_id])
            table[t.test_id] = embed(
                ctx.features(0.0, DisguiseFamily.PITCH_FREQ))
            for a in default_grid("pitch-freq").values:
                token = _candidate_token(t.test_id,
                                         DisguiseFamily.PITCH_FREQ, a)
                table[token] = embed(
                    ctx.features(a, DisguiseFamily.PITCH_FREQ))
    methods = ["none", "pitch-freq"]
    builtin = run_matrix(audio, trials, methods)
    external = run_matrix(audio, trials, methods, external=table)
    for name in methods:
        assert (external.row(name).eer.eer_percent
                == builtin.row(name).eer.eer_percent)


def test_matrix_computes_each_candidate_once(corpus_small, monkeypatch):
    trials, _ = gen_trials(corpus_small, 24, seed=5)
    tests = {t.test_id for t in trials}
    assert len(tests) < len(trials)          # test utterances repeat
    calls = []
    features = _RestorationContext.features

    def counted(self, alpha, family):
        utterance = hashlib.sha256(self.active.tobytes()).hexdigest()
        calls.append((utterance, family, alpha))
        return features(self, alpha, family)

    monkeypatch.setattr(_RestorationContext, "features", counted)
    run_matrix(corpus_small.utterances, trials, ["pitch-freq", "f0ratio"])
    # f0ratio picks pitch-freq grid values, so the grid covers its
    # candidates, and an utterance both enrolled and tested shares the
    # no-op inversion between its plain row and its grid
    assert len(calls) == len(set(calls))


def test_matrix_agrees_with_single_pair_restoration(corpus_small):
    trials, extra = gen_trials(corpus_small, 8, policy="pitch-time", seed=4)
    audio = dict(corpus_small.utterances, **extra)
    report = run_matrix(audio, trials, ["pitch-time", "f0ratio"])
    for name, kind, family in (("pitch-time", "grid", "pitch-time"),
                               ("f0ratio", "f0ratio", "pitch-freq")):
        results = [restore_pair(audio[t.enroll_id], audio[t.test_id], kind,
                                default_grid(family)) for t in trials]
        d_hat = np.array([r.d_hat for r in results])
        labels = np.array([t.label for t in trials])
        row = report.row(name)
        assert row.eer == compute_eer(d_hat[labels], d_hat[~labels])
        bias = alpha_bias([(t.disguise_meta.param, r.alpha_hat)
                           for t, r in zip(trials, results) if t.label])
        assert row.bias == bias


def test_matrix_rejects_mixed_sample_rates(corpus_small):
    audio = dict(corpus_small.utterances)
    audio["narrow"] = AudioBuffer(audio["spk01_u01"].samples[::2], 8000)
    trials = [Trial("spk01_u00", "narrow", True),
              Trial("spk00_u00", "narrow", False)]
    with pytest.raises(ValueError, match="8000 Hz and 16000 Hz"):
        run_matrix(audio, trials, ["none"])
    with pytest.raises(ValueError, match="8000 Hz and 16000 Hz"):
        run_matrix(audio, trials, ["pitch-freq"])


def test_matrix_validation(corpus_small, plain_trials):
    audio = corpus_small.utterances
    with pytest.raises(ValueError, match="no trials"):
        run_matrix(audio, [], ["none"])
    with pytest.raises(ValueError, match="label"):
        run_matrix(audio, [Trial("spk00_u00", "spk00_u01", None)], ["none"])
    with pytest.raises(ValueError, match="no restoration methods"):
        run_matrix(audio, plain_trials, [])
    with pytest.raises(ValueError, match="unknown disguise family"):
        run_matrix(audio, plain_trials, ["telepathy"])
    with pytest.raises(KeyError, match="no audio for utterance"):
        run_matrix({}, plain_trials, ["none"])
    with pytest.raises(KeyError, match="no matrix row"):
        run_matrix(audio, plain_trials, ["none"]).row("pitch-freq")


def test_disguise_label_classification():
    assert _disguise_label({"none": 10}) == "none"
    assert _disguise_label({}) == "none"
    assert _disguise_label({"vtln-power": 5, "none": 2}) == "vtln-power"
    assert _disguise_label({"vtln-power": 5, "vtln-bilinear": 3,
                            "vtln-quadratic": 1, "vtln-piecewise": 2}) \
        == "vtln-all"
    assert _disguise_label({"vtln-power": 5, "pitch-freq": 3}) == "mixed"
