"""Each output check passes on a consistent report and fails on a
corrupted one."""

import copy
import io
import wave

import numpy as np
import pytest

import checks
from voxrestore import compute_eer


@pytest.fixture
def scored():
    rng = np.random.default_rng(7)
    labels = np.array([True] * 40 + [False] * 40)
    rng.shuffle(labels)
    dist = np.where(labels, rng.uniform(0.0, 0.6, 80),
                    rng.uniform(0.3, 1.0, 80))
    eer = compute_eer(dist[labels], dist[~labels])
    row = {"restoration": "none", "eer": eer.eer_percent,
           "threshold": eer.threshold, "n_same": eer.n_same,
           "n_diff": eer.n_diff}
    return labels, dist, row


def test_reference_eer_agrees_with_program(scored):
    labels, dist, row = scored
    assert checks.reference_eer(labels, dist) == (row["eer"],
                                                  row["threshold"])


def test_none_row_passes_when_consistent(scored):
    labels, dist, row = scored
    assert checks.check_none_row(row, labels, dist) == []


def test_none_row_fails_on_flipped_labels(scored):
    labels, dist, row = scored
    assert checks.check_none_row(row, ~labels, dist)
    one = labels.copy()
    one[int(np.argmin(dist))] ^= True
    assert checks.check_none_row(row, one, dist)


def test_none_row_fails_on_perturbed_eer(scored):
    labels, dist, row = scored
    for delta in (1e-6, -1e-6, 2.5):
        bad = dict(row, eer=row["eer"] + delta)
        assert checks.check_none_row(bad, labels, dist)


def test_cosine_distances_match_direct_formula():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
    for i in range(5):
        want = 1.0 - a[i] @ b[i] / np.linalg.norm(a[i]) / np.linalg.norm(b[i])
        assert checks.cosine_distances(a, b)[i] == pytest.approx(want,
                                                                 abs=1e-12)


def test_labels_fail_when_flipped():
    speaker_of = {"spk00_u00": "spk00", "spk00_u01": "spk00",
                  "spk01_u00": "spk01"}
    good = [("spk00_u00", "spk00_u01", True),
            ("spk00_u00", "spk01_u00", False)]
    assert checks.check_labels(good, speaker_of) == []
    flipped = [(e, t, not lab) for e, t, lab in good]
    assert len(checks.check_labels(flipped, speaker_of)) == 2


def _bias(method, buckets):
    errs = [b["mean_error"] for b in buckets for _ in range(b["count"])]
    return {"restoration": method, "mean_error": float(np.mean(errs)),
            "std_error": float(np.std(errs)), "count": len(errs),
            "buckets": buckets}


def _bucket(alpha, mean, count=2):
    return {"alpha": alpha, "mean_error": mean, "std_error": 0.0,
            "count": count}


@pytest.fixture
def pitch_report():
    grid = [_bucket(a, 0.0) for a in (-9.0, -3.0, 0.0, 2.0, 8.0)]
    f0 = [_bucket(a, 1.5) for a in (-9.0, -3.0, 0.0, 2.0, 8.0)]
    return {"matrix": [{"restoration": "none", "eer": 40.0},
                       {"restoration": "pitch-freq", "eer": 10.0},
                       {"restoration": "f0ratio", "eer": 15.0}],
            "bias": [_bias("pitch-freq", grid), _bias("f0ratio", f0)],
            "trial_summary": {"pitch-time": 80}}


def _set_eer(report, method, value):
    for m in report["matrix"]:
        if m["restoration"] == method:
            m["eer"] = value


def test_pitch_time_checks(pitch_report):
    assert checks.check_pitch_time(pitch_report) == []
    bad = copy.deepcopy(pitch_report)
    _set_eer(bad, "pitch-freq", 35.0)          # grid gains only 5 points
    assert checks.check_pitch_time(bad)
    bad = copy.deepcopy(pitch_report)
    _set_eer(bad, "f0ratio", 41.0)              # f0ratio worse than none
    assert checks.check_pitch_time(bad)
    bad = copy.deepcopy(pitch_report)
    bad["bias"][0] = _bias("pitch-freq", [_bucket(8.0, -2.5)])
    assert checks.check_pitch_time(bad)          # band bias over a semitone
    bad = copy.deepcopy(pitch_report)
    bad["bias"][1] = _bias("f0ratio", [_bucket(8.0, 0.0)])
    bad["bias"][0] = _bias("pitch-freq", [_bucket(8.0, 0.5)])
    assert checks.check_pitch_time(bad)          # grid recovers worse


def test_band_bias_pools_buckets():
    bands = checks.band_bias([_bucket(6.0, -2.0, 1), _bucket(11.0, 0.0, 3),
                              _bucket(-4.0, 0.5, 2)])
    assert bands == [((-11.0, -1.0), 0.5, 2), ((1.0, 11.0), -0.5, 4)]


@pytest.fixture
def vtln_report():
    return {"matrix": [{"restoration": "none", "eer": 40.0},
                       {"restoration": "vtln-power", "eer": 18.0},
                       {"restoration": "pitch-freq", "eer": 17.0}],
            "bias": [_bias("vtln-power", [_bucket(0.2, 0.0),
                                          _bucket(-0.3, 0.05)])],
            "trial_summary": {"vtln-bilinear": 40, "vtln-quadratic": 40,
                              "vtln-power": 40, "vtln-piecewise": 40}}


def test_vtln_checks(vtln_report):
    assert checks.check_vtln(vtln_report) == []
    bad = copy.deepcopy(vtln_report)
    del bad["trial_summary"]["vtln-piecewise"]
    assert checks.check_vtln(bad)
    bad = copy.deepcopy(vtln_report)
    _set_eer(bad, "vtln-power", 40.0)
    assert checks.check_vtln(bad)
    bad = copy.deepcopy(vtln_report)
    bad["bias"][0]["buckets"][0]["mean_error"] = 0.1
    assert checks.check_vtln(bad)


def test_roundtrip_grid_checks():
    report = {"matrix": [{"restoration": "none", "eer": 40.0},
                         {"restoration": "pitch-freq", "eer": 30.0}]}
    assert checks.check_roundtrip_grid(report) == []
    bad = copy.deepcopy(report)
    _set_eer(bad, "pitch-freq", 40.0)
    assert checks.check_roundtrip_grid(bad)


def _recovery(pairs):
    """The bias entry the program reports for these (true, estimated)
    pairs."""
    from voxrestore import alpha_bias
    return {"restoration": "pitch-freq", **alpha_bias(pairs).to_dict()}


@pytest.fixture
def recovered():
    # 50 estimates, 5 of them off by more than a semitone (one by 6)
    rng = np.random.default_rng(5)
    true = rng.integers(-11, 12, 50).astype(float)
    errors = rng.choice([-1.0, 0.0, 0.0, 1.0], 50)
    errors[:5] = (2.0, -2.0, 3.0, 2.0, -6.0)
    return list(zip(true, true + errors))


def test_recovery_passes_within_criterion_05(recovered):
    errors = np.array([e - t for t, e in recovered])
    assert np.sqrt(np.mean(errors ** 2)) > 1.0       # no RMS bound applies
    assert checks.check_recovery(_recovery(recovered), recovered) == []


def test_recovery_fails_on_too_many_misses(recovered):
    worse = list(recovered)
    worse[10] = (worse[10][0], worse[10][0] + 3.0)     # a sixth miss of 50
    assert checks.check_recovery(_recovery(worse), worse)


def test_recovery_fails_when_report_disagrees(recovered):
    bias = _recovery(recovered)
    assert checks.check_recovery(None, recovered)
    bad = copy.deepcopy(bias)
    bad["buckets"][2]["mean_error"] += 1e-6
    assert checks.check_recovery(bad, recovered)
    bad = copy.deepcopy(bias)
    bad["std_error"] += 1e-6
    assert checks.check_recovery(bad, recovered)
    # one estimate dropped from the report, or one changed
    assert checks.check_recovery(_recovery(recovered[1:]), recovered)
    changed = list(recovered)
    changed[7] = (changed[7][0], changed[7][1] + 1.0)
    assert checks.check_recovery(_recovery(changed), recovered)


def test_identical_fails_on_one_byte():
    files = {"report.json": b'{"eer": 12.5}\n', "report.csv": b"a,b\n1,2\n"}
    assert checks.check_identical(files, dict(files)) == []
    for name in files:
        data = bytearray(files[name])
        data[3] ^= 0x01
        assert checks.check_identical(files, {**files, name: bytes(data)})
    assert checks.check_identical(files, {"report.json": files["report.json"]})


def test_same_row_fails_on_perturbed_field():
    a = {"matrix": [{"restoration": "none", "eer": 12.5, "threshold": 0.3,
                     "n_same": 10, "n_diff": 10}]}
    assert checks.check_same_row(a, copy.deepcopy(a), "none") == []
    b = copy.deepcopy(a)
    b["matrix"][0]["threshold"] = 0.30000000000000004
    assert checks.check_same_row(a, b, "none")


def _wav(n, sr):
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sr)
        w.writeframes(b"\0\0" * n)
    return buf.getvalue()


def test_wav_check():
    assert checks.check_wav(_wav(160, 16000), 160, 16000) == []
    assert checks.check_wav(_wav(159, 16000), 160, 16000)
    assert checks.check_wav(_wav(160, 8000), 160, 16000)
    assert checks.check_wav(_wav(160, 16000)[:20], 160, 16000)


def test_sidecar_fails_on_dropped_or_altered_row():
    rng = np.random.default_rng(3)
    table = {f"u{i}": rng.normal(size=6) for i in range(4)}
    lines = [f"{k} " + " ".join(format(v, ".17g") for v in vec)
             for k, vec in sorted(table.items())]
    text = "\n".join(lines) + "\n"
    assert checks.check_sidecar(text, table) == []
    assert checks.check_sidecar("\n".join(lines[1:]) + "\n", table)
    altered = lines[:]
    altered[2] = altered[2].rsplit(" ", 1)[0] + " 0.5"
    assert checks.check_sidecar("\n".join(altered) + "\n", table)
    assert checks.check_sidecar(text + lines[0] + "\n", table)
