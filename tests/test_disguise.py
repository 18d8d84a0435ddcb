import copy
import dataclasses
import importlib
import itertools
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter

from helpers import dominant_freq, rel_rms, tone, white_noise
from voxrestore import (AudioBuffer, DisguiseFamily,
                        DisguiseSpec, IDENTITY_PARAMS,
                        VTLN_FAMILIES, apply_spectral_warp,
                        build_warp, default_grid, disguise, estimate_f0,
                        mean_f0, parse_family, scale_to_semitone,
                        semitone_to_scale, stft)
from voxrestore.audio import HOP_MS, WINDOW_MS, frame_geometry
from voxrestore.disguise import (PARAM_RANGES, WarpFunction, warp_bins,
                                 warp_indices)

SR = 16000
PI = np.pi


# ---------------------------------------------------------------------------
# semitone algebra


def test_semitone_to_scale_landmarks():
    assert semitone_to_scale(12.0) == pytest.approx(2.0)
    assert semitone_to_scale(0.0) == 1.0
    assert semitone_to_scale(-12.0) == pytest.approx(0.5)


def test_scale_to_semitone_landmarks():
    assert scale_to_semitone(2.0) == pytest.approx(12.0)
    assert scale_to_semitone(1.0) == 0.0
    assert scale_to_semitone(2.0 ** (4.0 / 12.0)) == pytest.approx(4.0,
                                                                   abs=1e-9)


@given(alpha=st.floats(min_value=-24.0, max_value=24.0,
                       allow_nan=False, allow_infinity=False))
def test_semitone_round_trip(alpha):
    assert scale_to_semitone(semitone_to_scale(alpha)) == pytest.approx(
        alpha, abs=1e-9)


def test_semitone_algebra_rejects_bad_input():
    with pytest.raises(ValueError):
        semitone_to_scale(np.inf)
    with pytest.raises(ValueError):
        scale_to_semitone(0.0)
    with pytest.raises(ValueError):
        scale_to_semitone(-2.0)


# ---------------------------------------------------------------------------
# specs


def test_parse_family():
    assert parse_family("vtln-power") is DisguiseFamily.VTLN_POWER
    assert parse_family(DisguiseFamily.PITCH_TIME) is DisguiseFamily.PITCH_TIME
    with pytest.raises(ValueError):
        parse_family("psola")


@pytest.mark.parametrize("family,param", [
    ("vtln-power", 0.6),
    ("vtln-power", -0.51),
    ("vtln-bilinear", 0.31),
    ("vtln-quadratic", 2.1),
    ("vtln-piecewise", 0.4),
    ("vtln-piecewise", 1.6),
    ("pitch-freq", 12.5),
    ("pitch-time", -13.0),
])
def test_spec_rejects_out_of_range(family, param):
    with pytest.raises(ValueError):
        DisguiseSpec(family, param)


def test_spec_identity_values():
    assert DisguiseSpec("pitch-freq", 0.0).is_identity
    assert DisguiseSpec("vtln-piecewise", 1.0).is_identity
    assert not DisguiseSpec("vtln-piecewise", 0.9).is_identity
    for family, ident in IDENTITY_PARAMS.items():
        assert DisguiseSpec(family, ident).is_identity


def test_spec_string_round_trip():
    for text in ("pitch-freq:4", "vtln-power:-0.25", "vtln-piecewise:1.2",
                 "pitch-time:-11"):
        spec = DisguiseSpec.from_string(text)
        assert spec.spec_string() == text
    with pytest.raises(ValueError):
        DisguiseSpec.from_string("pitch-freq")
    with pytest.raises(ValueError):
        DisguiseSpec.from_string("pitch-freq:very")


def test_spec_hash_survives_a_pickle_and_a_string_family():
    spec = DisguiseSpec(DisguiseFamily.VTLN_POWER, 0.2)
    named = DisguiseSpec("vtln-power", 0.2)
    assert named == spec and hash(named) == hash(spec)
    assert hash(spec) == hash((DisguiseFamily.VTLN_POWER, 0.2))
    index = {spec: 1, DisguiseSpec("vtln-power", 0.25): 2}
    for copied in (pickle.loads(pickle.dumps(spec)), copy.copy(spec),
                   copy.deepcopy(spec)):
        assert copied == spec and hash(copied) == hash(spec)
        assert index[copied] == 1
        assert copied.spec_string() == "vtln-power:0.2"
    assert repr(spec) == ("DisguiseSpec(family=<DisguiseFamily.VTLN_POWER: "
                          "'vtln-power'>, param=0.2)")
    assert [f.name for f in dataclasses.fields(spec)] == ["family", "param"]
    # a fresh interpreter salts string hashes anew; the unpickled spec
    # must hash as one built there
    code = ("import pickle, sys; from voxrestore import DisguiseSpec; "
            "s = pickle.loads(sys.stdin.buffer.read()); "
            "print(hash(s) == hash(DisguiseSpec('vtln-power', 0.2)))")
    package_root = os.path.dirname(os.path.dirname(
        importlib.import_module("voxrestore").__file__))
    out = subprocess.run([sys.executable, "-c", code],
                         input=pickle.dumps(spec), capture_output=True,
                         check=True, env={**os.environ,
                                          "PYTHONPATH": package_root,
                                          "PYTHONHASHSEED": "random"})
    assert out.stdout.strip() == b"True"


# ---------------------------------------------------------------------------
# warp tables


def test_quadratic_warp_value():
    w = build_warp(DisguiseSpec("vtln-quadratic", 1.0))
    # at pi/2: u = 1/2, so the shift is 1 * (1/2 - 1/4) = 1/4
    assert float(w(PI / 2)) == pytest.approx(PI / 2 + 0.25, abs=1e-12)


def test_power_warp_value():
    w = build_warp(DisguiseSpec("vtln-power", 0.5))
    # pi * (1/4) ** 1.5 = 0.125 * pi
    assert float(w(PI / 4)) == pytest.approx(0.125 * PI, abs=1e-12)


def test_piecewise_warp_values():
    w = build_warp(DisguiseSpec("vtln-piecewise", 1.2))
    # breakpoint 7*pi/(8*1.2) = 0.729*pi sits above pi/2
    assert float(w(PI / 2)) == pytest.approx(0.6 * PI, abs=1e-12)
    w = build_warp(DisguiseSpec("vtln-piecewise", 0.8))
    # breakpoint at 7*pi/8; below it the map is plain scaling
    assert float(w(7 * PI / 8)) == pytest.approx(0.7 * PI, abs=1e-12)
    # above it, the line from (7pi/8, 0.7pi) to (pi, pi) has slope 2.4
    assert float(w(15 * PI / 16)) == pytest.approx(0.85 * PI, abs=1e-12)


def test_bilinear_warp_matches_closed_form():
    # angle((z - a) / (1 - a z)) on the unit circle reduces to
    # 2*atan2(sin w, cos w - a) - w for real a
    for a in (-0.3, -0.1, 0.2, 0.3):
        w = build_warp(DisguiseSpec("vtln-bilinear", a))
        for omega in np.linspace(0.1, 3.0, 7):
            expected = 2.0 * np.arctan2(np.sin(omega),
                                        np.cos(omega) - a) - omega
            assert float(w(omega)) == pytest.approx(expected, abs=1e-6)


def test_vtln_warps_pin_endpoints_and_increase():
    for family in VTLN_FAMILIES:
        lo, hi = PARAM_RANGES[family]
        for param in np.linspace(lo, hi, 5):
            w = build_warp(DisguiseSpec(family, float(param)))
            assert float(w(0.0)) == 0.0
            assert float(w(PI)) == PI
            grid = np.linspace(0.0, PI, 1024)
            assert np.all(np.diff(w(grid)) > 0)


def test_pitch_warp_is_linear_and_unpinned():
    w = build_warp(DisguiseSpec("pitch-freq", 4.0))
    s = semitone_to_scale(4.0)
    omega = np.linspace(0.0, PI, 100)
    assert np.allclose(w(omega), s * omega, rtol=0, atol=1e-12)
    # the top end scales with s instead of sticking at pi
    assert float(w(PI)) == pytest.approx(s * PI)


def test_identity_warp_is_exact():
    for family in DisguiseFamily:
        w = build_warp(DisguiseSpec(family, IDENTITY_PARAMS[family]))
        assert np.array_equal(w.knots, w.values)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_warp_inverse_composition(data):
    family = data.draw(st.sampled_from(list(DisguiseFamily)))
    lo, hi = PARAM_RANGES[family]
    param = data.draw(st.floats(min_value=lo, max_value=hi,
                                allow_nan=False))
    w = build_warp(DisguiseSpec(family, param))
    x = np.linspace(0.0, PI, 257)
    assert np.max(np.abs(w.inverse(w(x)) - x)) <= 1e-9 * PI
    # the other direction, restricted to the warp's actual output range
    y = np.linspace(float(w.values[0]), float(w.values[-1]), 257)
    assert np.max(np.abs(w(w.inverse(y)) - y)) <= 1e-9 * PI


def test_bilinear_negated_param_composes_to_identity():
    w = build_warp(DisguiseSpec("vtln-bilinear", 0.2))
    w_inv = build_warp(DisguiseSpec("vtln-bilinear", -0.2))
    x = np.linspace(0.0, PI, 513)
    assert np.max(np.abs(w_inv(w(x)) - x)) <= 1e-6 * PI


def test_warp_function_validation():
    good = np.linspace(0.0, PI, 2048)
    with pytest.raises(ValueError):
        WarpFunction(good, good[::-1].copy())         # decreasing values


def test_pitch_time_warp_table_equals_pitch_freqs():
    # resampling scales the spectrum as pitch-freq does, so both
    # families read one map in each direction
    for alpha, direction in itertools.product([-12.0, -3.5, 0.0, 5.0, 12.0],
                                              ("forward", "inverse")):
        time_lo, time_frac = warp_indices(
            DisguiseSpec("pitch-time", alpha), 257, direction)
        freq_lo, freq_frac = warp_indices(
            DisguiseSpec("pitch-freq", alpha), 257, direction)
        assert np.array_equal(time_lo, freq_lo)
        assert np.array_equal(time_frac, freq_frac)


# ---------------------------------------------------------------------------
# spectral application


def _flat_spec(mags: np.ndarray) -> np.ndarray:
    return mags.astype(complex)   # zero phase


def test_identity_warp_copies_bit_for_bit():
    spec = stft(tone(500.0, 0.5))
    noop = DisguiseSpec("vtln-power", 0.0)
    mags = np.abs(spec)
    out = warp_bins(mags, noop, "forward")
    assert np.array_equal(out, mags)
    out[0, 0] = 123.0   # outputs are copies, not views
    assert mags[0, 0] != 123.0
    # magnitudes and phases are each copied exactly
    assert np.array_equal(apply_spectral_warp(spec, noop, "forward"),
                          mags * np.exp(1j * np.angle(spec)))


@pytest.mark.parametrize("k", [30, 100])
def test_octave_up_moves_single_bin(k):
    mags = np.zeros((3, 257))
    mags[:, k] = 1.0
    w = DisguiseSpec("pitch-freq", 12.0)   # s = 2
    out = apply_spectral_warp(_flat_spec(mags), w, "forward")
    assert np.all(np.argmax(np.abs(out), axis=1) == 2 * k)


def test_octave_down_replicates_top_band():
    mags = np.zeros((2, 257))
    mags[:, 256] = 1.0
    w = DisguiseSpec("pitch-freq", -12.0)   # s = 1/2
    out = apply_spectral_warp(_flat_spec(mags), w, "forward")
    # above the fold the source position clamps to the last bin
    assert np.allclose(np.abs(out[:, 129:]), 1.0)
    assert np.allclose(np.abs(out[:, :127]), 0.0)


@pytest.mark.parametrize("family,param", [
    ("vtln-bilinear", 0.2),
    ("vtln-quadratic", 1.0),
    ("vtln-power", 0.3),
])
def test_forward_inverse_round_trip_on_smooth_spectrum(family, param):
    i = np.arange(257, dtype=np.float64)
    row = (1.0 + np.exp(-((i - 60.0) ** 2) / (2 * 18.0 ** 2))
           + 0.7 * np.exp(-((i - 150.0) ** 2) / (2 * 25.0 ** 2)))
    mags = np.tile(row, (4, 1))
    w = DisguiseSpec(family, param)
    fwd = apply_spectral_warp(_flat_spec(mags), w, "forward")
    back = apply_spectral_warp(fwd, w, "inverse")
    err = np.linalg.norm(np.abs(back) - mags) / np.linalg.norm(mags)
    assert err <= 1e-3


def test_apply_spectral_warp_direction_validation():
    spec = _flat_spec(np.ones((2, 257)))
    for w in (DisguiseSpec("vtln-power", 0.2), DisguiseSpec("vtln-power", 0)):
        with pytest.raises(ValueError):
            apply_spectral_warp(spec, w, "backward")


def test_apply_spectral_warp_needs_a_2d_spectrum():
    w = DisguiseSpec("vtln-power", 0.2)
    for shape in ((257,), (2, 3, 257), (2, 1)):
        with pytest.raises(ValueError, match="need a \\(frames, bins\\)"):
            apply_spectral_warp(np.ones(shape, dtype=complex), w, "forward")


# ---------------------------------------------------------------------------
# end-to-end disguise


def test_disguise_identity_reproduces_input():
    x = tone(330.0, 1.0)
    y = disguise(x, DisguiseSpec("pitch-freq", 0.0))
    half = frame_geometry(SR, WINDOW_MS, HOP_MS)[0] // 2
    assert rel_rms(x.samples, y.samples, trim=half) <= 1e-3


def test_pitch_time_octave_up():
    x = tone(200.0, 1.0)
    y = disguise(x, DisguiseSpec("pitch-time", 12.0))
    assert mean_f0(estimate_f0(y)) == pytest.approx(400.0, rel=0.02)
    hop = frame_geometry(SR, WINDOW_MS, HOP_MS)[1]
    assert abs(len(y) - len(x) // 2) <= hop


def test_pitch_time_group_law():
    x = tone(180.0, 1.0)
    y = disguise(disguise(x, DisguiseSpec("pitch-time", 4.0)),
                 DisguiseSpec("pitch-time", 3.0))
    ratio = dominant_freq(y) / dominant_freq(x)
    assert ratio == pytest.approx(2.0 ** (7.0 / 12.0), rel=0.02)


def test_pitch_time_disguise_then_inverse_restores_pitch():
    x = tone(220.0, 1.0)
    y = disguise(x, DisguiseSpec("pitch-time", 4.0))
    z = disguise(y, DisguiseSpec("pitch-time", -4.0))
    assert abs(len(z) - len(x)) <= 2
    assert dominant_freq(z) == pytest.approx(220.0, rel=0.02)


def test_quadratic_warp_relocates_formant():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(SR)
    r = np.exp(-np.pi * 100.0 / SR)          # resonance at a quarter of
    th = 2.0 * np.pi * 4000.0 / SR           # the sampling rate
    x = lfilter([1.0], [1.0, -2.0 * r * np.cos(th), r * r], x)
    vowel = AudioBuffer(0.5 * x / np.max(np.abs(x)), SR)
    spec = DisguiseSpec("vtln-quadratic", 2.0)
    src_hz = dominant_freq(vowel, 3000.0, 5000.0)
    expected_hz = float(build_warp(spec)(src_hz / (SR / 2) * PI)) / PI * (SR / 2)
    out = disguise(vowel, spec)
    assert dominant_freq(out, 4200.0, 7000.0) == pytest.approx(expected_hz,
                                                               abs=60.0)


def test_disguise_builds_each_warp_once(monkeypatch):
    module = importlib.import_module("voxrestore.disguise")
    built = []

    def counted_build_warp(spec):
        built.append(spec)
        return build_warp(spec)

    monkeypatch.setattr(module, "build_warp", counted_build_warp)
    module.warp_indices.cache_clear()
    spec = DisguiseSpec("vtln-bilinear", 0.1)
    first = disguise(tone(300.0, 0.3), spec)
    assert np.array_equal(disguise(tone(300.0, 0.3), spec).samples,
                          first.samples)
    assert built == [spec]


def test_disguise_caps_output_peak():
    x = AudioBuffer(np.clip(tone(150.0, 0.5, amp=1.0).samples * 4.0, -1, 1),
                    SR)
    y = disguise(x, DisguiseSpec("pitch-time", 2.0))
    assert np.max(np.abs(y.samples)) <= 0.999 + 1e-12


def test_disguise_grid_params_all_runnable():
    x = white_noise(0.3, seed=5)
    for family in ("pitch-freq", "vtln-piecewise"):
        grid = default_grid(family)
        for spec in (grid[0], grid[-1]):
            out = disguise(x, spec)
            assert np.all(np.isfinite(out.samples))
