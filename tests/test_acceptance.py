"""Acceptance suite: end-to-end guarantees over the whole toolkit, one
test per numbered guarantee so `pytest -v` prints one verdict line for
each. The heavy shared artifacts (the default toy corpus, a 200-trial
parameter-recovery run and two 400-trial evaluation matrices) are built
once per module and reused."""

import time

import numpy as np
import pytest

from voxrestore import (AudioBuffer, DisguiseFamily, DisguiseSpec,
                        alpha_bias, build_warp, compute_eer, default_grid,
                        disguise, estimate_f0, f0_ratio_alpha, gen_trials,
                        mean_f0, resample, restore_pair, run_matrix,
                        scale_to_semitone, semitone_to_scale, synth_corpus)
from voxrestore.cli import main as cli_main
from voxrestore.disguise import VTLN_FAMILIES

SR = 16000


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus()


@pytest.fixture(scope="module")
def recovery_run(corpus):
    """200 same-speaker trials: disguise one utterance by resampling at
    a random nonzero integer semitone offset in [-8, 8], then estimate
    the offset blind with the default grid search."""
    by = corpus.by_speaker()
    speakers = sorted(by)
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    pairs = []
    for _ in range(200):
        spk = speakers[rng.integers(len(speakers))]
        utts = by[spk]
        i, j = rng.choice(len(utts), size=2, replace=False)
        alpha = int(rng.choice([a for a in range(-8, 9) if a]))
        y = disguise(corpus.utterances[utts[j]],
                     DisguiseSpec("pitch-time", alpha))
        r = restore_pair(corpus.utterances[utts[i]], y, "grid")
        pairs.append((float(alpha), r.alpha_hat))
    return pairs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pitch_matrix(corpus):
    trials, extra = gen_trials(corpus, 400, policy="pitch-time", seed=1)
    audio = dict(corpus.utterances)
    audio.update(extra)
    return run_matrix(audio, trials,
                      ["none", "pitch-freq", "vtln-power", "f0ratio"],
                      jobs=4)


@pytest.fixture(scope="module")
def vtln_matrix(corpus):
    trials, extra = gen_trials(corpus, 400, policy="vtln-all", seed=5)
    audio = dict(corpus.utterances)
    audio.update(extra)
    return run_matrix(audio, trials, ["vtln-power", "pitch-freq"], jobs=4)


def eers(report):
    return {r.restoration: r.eer.eer_percent for r in report.rows}


def test_criterion_01_warp_function_suite():
    t0 = time.perf_counter()
    x = np.linspace(0.0, np.pi, 1024)
    checked = 0
    for family in DisguiseFamily:
        if family is DisguiseFamily.PITCH_TIME:
            continue
        for alpha in default_grid(family).values:
            w = build_warp(DisguiseSpec(family, alpha))
            y = w(x)
            assert y[0] == 0.0
            assert np.all(np.diff(y) > 0.0)
            if family in VTLN_FAMILIES:
                assert abs(y[-1] - np.pi) <= 1e-12
            else:
                # the pitch family scales the whole axis instead of
                # pinning the top edge
                scale = semitone_to_scale(alpha)
                assert y[-1] == pytest.approx(scale * np.pi, abs=1e-12)
            assert np.max(np.abs(w.inverse(y) - x)) <= 1e-6 * np.pi
            z = np.linspace(0.0, y[-1], 1024)
            assert np.max(np.abs(w(w.inverse(z)) - z)) <= 1e-6 * np.pi
            checked += 1
    assert checked == 23 + 31 + 21 + 21 + 21
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_semitone_algebra_round_trip():
    rng = np.random.default_rng(12345)
    for alpha in rng.uniform(-24.0, 24.0, size=1000):
        back = scale_to_semitone(semitone_to_scale(float(alpha)))
        assert abs(back - alpha) <= 1e-9


def test_criterion_03_resampling_pitch_law():
    for freq in (120.0, 200.0, 300.0):
        x = AudioBuffer(0.3 * np.sin(2 * np.pi * freq * np.arange(SR) / SR),
                        SR)
        base = mean_f0(estimate_f0(x))
        for alpha in range(-6, 7):
            y = resample(x, semitone_to_scale(float(alpha)))
            measured = mean_f0(estimate_f0(y))
            want_ratio = 2.0 ** (alpha / 12.0)
            assert measured / base == pytest.approx(want_ratio, rel=0.02)
            assert abs(f0_ratio_alpha(base, measured) - alpha) <= 0.5


def test_criterion_04_eer_matches_exhaustive_sweep():
    rep = compute_eer([0.1, 0.2], [0.8, 0.9])
    assert (rep.eer_percent, rep.threshold) == (0.0, 0.2)
    rep = compute_eer([0.3, 0.5], [0.3, 0.5])
    assert (rep.eer_percent, rep.threshold) == (50.0, 0.3)
    rep = compute_eer([0.1, 0.2, 0.3], [0.25, 0.4, 0.5])
    assert rep.eer_percent == pytest.approx(100.0 / 3.0, abs=1e-9)
    assert rep.threshold == 0.25

    rng = np.random.default_rng(424242)
    for _ in range(1000):
        n_same = int(rng.integers(2, 501))
        n_diff = int(rng.integers(2, 501))
        same = rng.uniform(0.0, 1.0, n_same)
        diff = rng.uniform(0.0, 1.0, n_diff)
        if rng.random() < 0.5:      # discrete scores force ties
            same = np.round(same, 2)
            diff = np.round(diff, 2)
        got = compute_eer(same, diff)
        thr = np.unique(np.concatenate([same, diff]))
        far = (diff[None, :] <= thr[:, None]).mean(axis=1)
        frr = (same[None, :] > thr[:, None]).mean(axis=1)
        best = min(zip(np.abs(far - frr), 0.5 * (far + frr), thr))
        assert got.eer_percent == 100.0 * best[1]
        assert got.threshold == best[2]


def test_criterion_05_grid_search_recovery_rate(recovery_run):
    pairs, elapsed = recovery_run
    errors = np.array([est - true for true, est in pairs])
    within_one = float(np.mean(np.abs(errors) <= 1.0))
    print(f"recovered within +-1 semitone: {100 * within_one:.1f}% "
          f"of 200 trials in {elapsed:.0f}s")
    assert within_one >= 0.90
    assert elapsed < 600.0


def test_criterion_06_restoration_lowers_eer_by_10_points(pitch_matrix):
    e = eers(pitch_matrix)
    print(f"EER none {e['none']:.2f}% vs grid-restored "
          f"{e['pitch-freq']:.2f}%")
    assert e["none"] - e["pitch-freq"] >= 10.0


def test_criterion_07_matched_restoration_beats_mismatched(pitch_matrix,
                                                           vtln_matrix):
    ep = eers(pitch_matrix)
    ev = eers(vtln_matrix)
    assert ep["pitch-freq"] <= ep["vtln-power"]
    assert ev["vtln-power"] <= ev["pitch-freq"]
    for fams in (vtln_matrix.trial_summary,):
        assert all(fams.get(f.value, 0) >= 60 for f in VTLN_FAMILIES)
    for tag, margin in (("pitch", ep["vtln-power"] - ep["pitch-freq"]),
                        ("vtln", ev["pitch-freq"] - ev["vtln-power"])):
        print(f"matched-vs-mismatched margin on {tag} trials: "
              f"{margin:+.1f} points")
        if margin < 2.0:
            print(f"FLAG: margin on {tag} trials below 2 points, "
                  f"inspect this run")


def test_criterion_08_recovery_bias_bounded_per_bucket(recovery_run):
    pairs, _ = recovery_run
    stats = alpha_bias(pairs)
    assert {a for a, _, _, _ in stats.buckets} \
        <= {float(a) for a in range(-8, 9) if a}
    for alpha, mean, std, n in stats.buckets:
        assert abs(mean) <= 1.0, f"alpha {alpha:+g}: mean error {mean:+.2f}"
        assert std <= 2.0, f"alpha {alpha:+g}: error std {std:.2f}"
    true = np.array([t for t, _ in pairs])
    errors = np.array([est - t for t, est in pairs])
    raised = float(np.abs(errors[true > 0]).mean())
    lowered = float(np.abs(errors[true < 0]).mean())
    print(f"diagnostic: mean |error| {raised:.3f} for raised pitch vs "
          f"{lowered:.3f} for lowered")


def test_criterion_09_pipeline_is_deterministic(tmp_path):
    corpus_dir = tmp_path / "corpus"
    trials_dir = tmp_path / "trials"
    assert cli_main(["corpus", "--out", str(corpus_dir), "--speakers", "5",
                     "--utts", "2", "--duration", "1.2"]) == 0
    assert cli_main(["trials", "--corpus", str(corpus_dir), "--out",
                     str(trials_dir), "--n", "24", "--disguise",
                     "pitch-time", "--seed", "7"]) == 0
    artifacts = []
    for tag, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"report_{tag}.json"
        assert cli_main(["eval", "--trials", str(trials_dir / "trials.txt"),
                         "--out", str(out), "--restore", "none",
                         "--restore", "pitch-freq", "--restore", "f0ratio",
                         "--jobs", jobs]) == 0
        artifacts.append({
            p.name.replace(f"report_{tag}", "report"): p.read_bytes()
            for p in tmp_path.glob(f"report_{tag}*")})
    assert len(artifacts[0]) >= 2        # JSON plus at least the EER csv
    assert artifacts[0] == artifacts[1] == artifacts[2]


def test_criterion_10_f0_ratio_trails_grid_search(pitch_matrix):
    e = eers(pitch_matrix)
    print(f"EER grid {e['pitch-freq']:.2f}% <= f0-ratio "
          f"{e['f0ratio']:.2f}% <= none {e['none']:.2f}%")
    assert e["f0ratio"] >= e["pitch-freq"]
    assert e["f0ratio"] <= e["none"]
    assert e["pitch-freq"] <= e["none"]


def test_clean_corpus_baseline_eer(corpus):
    trials, _ = gen_trials(corpus, 400, policy="none", seed=3)
    report = run_matrix(dict(corpus.utterances), trials, ["none"], jobs=4)
    eer = report.rows[0].eer.eer_percent
    print(f"clean-trial baseline EER {eer:.2f}%")
    assert eer <= 5.0
