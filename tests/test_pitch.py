import numpy as np
import pytest

from helpers import bl_sawtooth, tone, white_noise
from voxrestore import (AudioBuffer, CorpusConfig, DisguiseSpec,
                        UnvoicedUtteranceError, disguise, estimate_f0,
                        f0_ratio_alpha, mean_f0, resample, semitone_to_scale,
                        synth_corpus)
from voxrestore.pitch import F0_MAX, F0_MIN, F0Track

SR = 16000


# ---------------------------------------------------------------------------
# track container


def test_f0_track_invariants():
    track = F0Track(np.array([200.0, 0.0]))
    assert track.voiced.tolist() == [True, False]
    with pytest.raises(ValueError):
        # voiced value outside the search band
        F0Track(np.array([700.0]))
    with pytest.raises(ValueError):
        F0Track(np.array([-150.0]))
    with pytest.raises(ValueError):
        F0Track(np.array([[200.0, 200.0]]))


# ---------------------------------------------------------------------------
# tracking


def test_pure_tone_tracks_within_two_percent():
    track = estimate_f0(tone(200.0, 1.0))
    assert track.voiced.mean() >= 0.9
    voiced_hz = track.f0_hz[track.voiced]
    assert np.all(np.abs(voiced_hz - 200.0) <= 0.02 * 200.0)


@pytest.mark.parametrize("make", [tone, bl_sawtooth])
def test_fundamentals_near_f0_max_are_read_as_they_are_or_unvoiced(make):
    # the peak search needs a lag grid point below a peak, so the grid
    # starts a lag below sr / F0_MAX: up to F0_MAX a fundamental reads
    # as it is, and just above it the frame is unvoiced, not octave-low
    for hz in (496.0, 497.0, 498.5, 500.0):
        track = estimate_f0(make(hz))
        assert track.voiced.all(), hz
        assert np.all(np.abs(track.f0_hz - hz) <= 0.002 * hz), hz
    for hz in (505.0, 515.0, 524.0):
        assert not estimate_f0(make(hz)).voiced.any(), hz


def test_white_noise_is_mostly_unvoiced():
    track = estimate_f0(white_noise(1.0, seed=4))
    assert (~track.voiced).mean() >= 0.9


def test_sawtooth_tracks_without_octave_errors():
    track = estimate_f0(bl_sawtooth(120.0, 1.0))
    voiced_hz = track.f0_hz[track.voiced]
    assert voiced_hz.size >= 0.9 * track.n_frames
    within = np.abs(voiced_hz - 120.0) <= 0.02 * 120.0
    assert within.mean() >= 0.95


def test_estimate_f0_rejects_short_audio():
    with pytest.raises(ValueError):
        estimate_f0(AudioBuffer(np.zeros(200), SR))


def test_silence_yields_no_voiced_frames():
    track = estimate_f0(AudioBuffer(np.zeros(SR), SR))
    assert not track.voiced.any()
    with pytest.raises(UnvoicedUtteranceError):
        mean_f0(track)


# the amplitude 0.4 scaled down to 1e-6 ... 1e-300 too: the skip floor
# follows the signal's peak, not an absolute power, and the samples are
# scaled to a unit peak before the NCCF's 1e-300 guard can outweigh
# their energies
@pytest.mark.parametrize("gain", [0.01, 0.5, 8.0, 2.5e-6, 2.5e-9, 2.5e-12,
                                  2.5e-80, 2.5e-200, 2.5e-300])
def test_tracking_is_gain_invariant(gain):
    x = bl_sawtooth(150.0, 0.8)
    a = estimate_f0(x)
    b = estimate_f0(AudioBuffer(x.samples * gain, SR))
    assert np.array_equal(a.voiced, b.voiced)
    assert np.max(np.abs(a.f0_hz - b.f0_hz)) <= 1e-6


def test_a_constant_offset_is_not_voiced():
    # removing a large DC leaves rounding noise, which the floor skips
    track = estimate_f0(AudioBuffer(np.full(SR, 0.1), SR))
    assert not track.voiced.any()


# ---------------------------------------------------------------------------
# against the synthesizer's F0


def test_tracks_the_synthesizers_f0_on_the_corpus_and_its_disguises():
    # the synthesizer's first draws are each speaker's base F0, from
    # default_rng([seed, i]), and each utterance's offset, from
    # default_rng([seed, i, j]); its vibrato (at most 2 %) is ignored,
    # and pitch-time by a semitones scales F0 by 2^(a/12). At corpus
    # seeds 0-4 and 6-9 this tracker left 3.0-9.1 % of voiced frames
    # more than a semitone off, and a median error of the utterance
    # mean of 0.008-0.22 semitones; tracking at 16 kHz left 8.1-18.5 %
    # and 0.42-1.59, mostly an octave low
    seed = 5
    config = CorpusConfig(seed=seed)
    corpus = synth_corpus(config)
    frame_errors, mean_errors = [], []
    for i in range(config.n_speakers):
        base_f0 = np.random.default_rng([seed, i]).uniform(90.0, 250.0)
        for j in range(config.utts_per_speaker):
            offset = 2.0 ** np.random.default_rng([seed, i, j]).uniform(
                -0.2, 0.2)
            clean = corpus.utterances[f"spk{i:02d}_u{j:02d}"]
            for alpha in (0, -8, -4, 4, 8):
                true_f0 = base_f0 * offset * 2.0 ** (alpha / 12.0)
                if not F0_MIN <= true_f0 <= F0_MAX:
                    continue
                track = estimate_f0(clean if alpha == 0 else disguise(
                    clean, DisguiseSpec("pitch-time", alpha)))
                voiced_hz = track.f0_hz[track.voiced]
                frame_errors.append(12.0 * np.log2(voiced_hz / true_f0))
                mean_errors.append(abs(f0_ratio_alpha(true_f0,
                                                      mean_f0(track))))
    assert len(mean_errors) >= 190
    assert np.mean(np.abs(np.concatenate(frame_errors)) > 1.0) <= 0.10
    assert np.median(mean_errors) <= 0.25


# ---------------------------------------------------------------------------
# mean and ratio


def test_mean_f0_averages_voiced_frames_only():
    track = F0Track(np.array([200.0, 200.0, 200.0]))
    assert mean_f0(track) == 200.0
    track = F0Track(np.array([100.0, 0.0, 300.0]))
    assert mean_f0(track) == 200.0


def test_mean_f0_requires_voiced_frames():
    track = F0Track(np.zeros(3))
    with pytest.raises(UnvoicedUtteranceError, match="unvoiced utterance"):
        mean_f0(track)


def test_mean_f0_within_voiced_range():
    track = estimate_f0(bl_sawtooth(130.0, 0.8))
    m = mean_f0(track)
    voiced_hz = track.f0_hz[track.voiced]
    assert voiced_hz.min() <= m <= voiced_hz.max()


def test_f0_ratio_alpha_landmarks():
    assert f0_ratio_alpha(200.0, 400.0) == pytest.approx(12.0)
    assert f0_ratio_alpha(200.0, 200.0) == 0.0
    assert f0_ratio_alpha(200.0, 200.0 * 2 ** (5.0 / 12.0)) == pytest.approx(
        5.0, abs=1e-9)


def test_f0_ratio_alpha_rejects_nonpositive():
    for fx, fy in ((0.0, 100.0), (100.0, 0.0), (-5.0, 100.0),
                   (np.nan, 100.0)):
        with pytest.raises(ValueError):
            f0_ratio_alpha(fx, fy)


@pytest.mark.parametrize("alpha", [-6, -3, 3, 6])
def test_resampling_recovers_semitone_offset(alpha):
    x = bl_sawtooth(150.0, 1.0)
    y = resample(x, semitone_to_scale(alpha))
    est = f0_ratio_alpha(mean_f0(estimate_f0(x)), mean_f0(estimate_f0(y)))
    assert est == pytest.approx(alpha, abs=0.5)
