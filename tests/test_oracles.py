"""The table-driven resampler and the frame-batched F0 tracker against
their direct forms in `oracles.py`."""

import importlib
import warnings

import numpy as np
import pytest

import oracles
from helpers import SR, speechy, tone, white_noise
from voxrestore import (AudioBuffer, DisguiseSpec, default_grid, disguise,
                        estimate_f0, resample, semitone_to_scale)

audio = importlib.import_module("voxrestore.audio")

PITCH_TIME_RATIOS = [semitone_to_scale(a)
                     for a in default_grid("pitch-time").values]


def _first_utterance(corpus):
    return next(iter(corpus.utterances.values()))


def _gapped(buf: AudioBuffer) -> AudioBuffer:
    """`buf` with its middle third zeroed, so frames there are skipped
    between voiced ones."""
    x = buf.samples.copy()
    x[x.size // 3:2 * x.size // 3] = 0.0
    return AudioBuffer(x, buf.sample_rate)


# ---------------------------------------------------------------------------
# resampler


@pytest.mark.parametrize("ratio", PITCH_TIME_RATIOS + [0.1, 10.0],
                         ids=lambda r: f"{r:.4f}")
def test_resample_matches_direct_kernel(corpus_small, ratio):
    for buf in (white_noise(0.5, seed=7), tone(200.0, 0.5),
                _first_utterance(corpus_small)):
        got = resample(buf, ratio).samples
        want = oracles.resample(buf, ratio).samples
        assert got.size == want.size
        assert np.max(np.abs(got - want)) <= 1e-6


@pytest.mark.parametrize("ratio", [0.1, 0.5, 2.0, 10.0])
def test_resample_shorter_than_kernel_matches_direct_kernel(ratio):
    buf = white_noise(20 / SR, seed=8)
    got = resample(buf, ratio).samples
    want = oracles.resample(buf, ratio).samples
    assert got.size == want.size
    assert np.max(np.abs(got - want)) <= 1e-6


def test_kernel_table_is_built_once_per_cutoff_and_read_only(monkeypatch):
    built = []
    kernel = audio._kaiser_sinc

    def counted_kernel(t, fc, half):
        built.append(fc)
        return kernel(t, fc, half)

    monkeypatch.setattr(audio, "_kaiser_sinc", counted_kernel)
    audio._kernel_table.cache_clear()
    x = white_noise(0.1, seed=9)
    for ratio in (1.5, 0.5, 1.5, 0.8, 0.5):
        resample(x, ratio)
    # every upward stretch (ratio < 1) keeps the full band: one table
    assert built == [1.0 / 1.5, 1.0]
    table = audio._kernel_table(1.0)
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    # row 0 and the last row are the kernel at offsets 0 and 1 exactly
    half = table.shape[1] // 2
    offsets = np.arange(-half + 1, half + 1, dtype=np.float64)
    assert np.array_equal(table[0], kernel(offsets, 1.0, half))
    assert np.array_equal(table[-1], kernel(offsets - 1.0, 1.0, half))


# ---------------------------------------------------------------------------
# F0 tracker


def _assert_same_track(buf: AudioBuffer):
    got = estimate_f0(buf)
    want = oracles.estimate_f0(buf)
    assert np.array_equal(got.voiced, want.voiced)
    np.testing.assert_allclose(got.f0_hz, want.f0_hz, rtol=1e-9, atol=0.0)


def test_tracker_matches_oracle_on_corpus_and_disguises(corpus_small):
    for buf in corpus_small.utterances.values():
        _assert_same_track(buf)
    for alpha in (-11.0, -5.0, 5.0, 11.0):
        _assert_same_track(disguise(_first_utterance(corpus_small),
                                    DisguiseSpec("pitch-time", alpha)))


@pytest.mark.parametrize("make", [
    lambda: tone(200.0),                        # the LPC fallback path
    lambda: white_noise(1.0, seed=4),
    lambda: AudioBuffer(np.zeros(SR), SR),
    lambda: _gapped(speechy(1.0)),
    lambda: speechy(3.0),                       # more than one block
    lambda: speechy(1.0, sr=8000),
    lambda: _gapped(speechy(1.0, sr=8000)),
], ids=["tone", "noise", "silence", "gapped", "long", "8k", "8k-gapped"])
def test_tracker_matches_oracle(make):
    _assert_same_track(make())


def test_tracker_raises_no_numerical_warnings(corpus_small):
    inputs = [AudioBuffer(np.zeros(SR), SR),
              _gapped(_first_utterance(corpus_small)),
              tone(200.0, amp=1e-8)]
    for buf in inputs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_same_track(buf)
    # below the oracle's absolute floor of 1e-18 the tracker analyzes
    # the frames, so no oracle track to compare with
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate_f0(tone(200.0, amp=1e-12))
