import numpy as np
import pytest

from helpers import bl_sawtooth, tone, white_noise
from voxrestore import (AudioBuffer, UnvoicedUtteranceError, estimate_f0,
                        f0_ratio_alpha, mean_f0, resample, semitone_to_scale)
from voxrestore.pitch import F0Track

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
