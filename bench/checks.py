"""Output checks of the benchmark.

Each check takes plain data (report dicts, labels, distances, file
bytes) and returns a list of problems; an empty list means the check
passed. None compares against a stored copy of earlier output: each
either recomputes a result apart from the program or tests a property
the method must have.
"""

import io
import wave
from typing import (Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

# Grid restoration must win back at least this many EER points.
MIN_GRID_GAIN = 10.0
# Mean alpha error allowed in each band of true alpha, in semitones.
MAX_BAND_BIAS = 1.0
# Bands of true alpha (inclusive, semitones) over which the grid's
# recovery error is averaged: lowered, untouched and raised pitch. One
# integer value holds one to three same-speaker trials at this workload
# size, and criterion 05 of the acceptance suite allows one estimate in
# ten to miss by more than a semitone, so a per-value mean would fail
# by design.
ALPHA_BANDS = ((-11.0, -1.0), (0.0, 0.0), (1.0, 11.0))
# Share of grid estimates that must land within one semitone of the
# true alpha, as acceptance criterion 05 requires. It allows the rest to
# miss by any amount, so no bound on the RMS error follows from it.
MIN_WITHIN_ONE = 0.90
EER_TOL = 1e-9
# Alpha error statistics recomputed from the same estimates agree to this.
STAT_TOL = 1e-9
# Sidecar values are written with 17 significant digits, which round-trips.
SIDECAR_RTOL = 1e-12
VTLN_POWER_STEP = 0.05


def cosine_distances(enroll: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Row-wise 1 - cos(enroll[i], test[i])."""
    enroll = np.asarray(enroll, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    dots = np.einsum("ij,ij->i", enroll, test)
    norms = np.linalg.norm(enroll, axis=1) * np.linalg.norm(test, axis=1)
    return 1.0 - np.clip(dots / norms, -1.0, 1.0)


def reference_eer(labels: Sequence[bool], scores: Sequence[float]
                  ) -> Tuple[float, float]:
    """EER in percent and its threshold by an exhaustive sweep over every
    observed score: accept iff score <= threshold, pick the smallest
    |FAR - FRR|, then the smallest mean error, then the smallest
    threshold."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    same, diff = scores[labels], scores[~labels]
    if same.size == 0 or diff.size == 0:
        raise ValueError("need scores of both classes")
    thr = np.unique(scores)
    far = (diff[None, :] <= thr[:, None]).mean(axis=1)
    frr = (same[None, :] > thr[:, None]).mean(axis=1)
    gap, mean_err, best_thr = min(zip(np.abs(far - frr), 0.5 * (far + frr),
                                      thr))
    return 100.0 * float(mean_err), float(best_thr)


def check_labels(pairs: Iterable[Tuple[str, str, bool]],
                 speaker_of: Mapping[str, str]) -> List[str]:
    """Each (enroll utterance, test utterance, label) is labelled
    same-speaker exactly when both utterances come from one speaker."""
    problems = []
    for enroll, test, label in pairs:
        same = speaker_of[enroll] == speaker_of[test]
        if same != bool(label):
            problems.append(f"trial {enroll} / {test} labelled {label}, "
                            f"speakers say {same}")
    return problems


def check_none_row(row: Mapping, labels: Sequence[bool],
                   distances: Sequence[float]) -> List[str]:
    """The report's `none` row equals the EER of plain cosine distances
    recomputed by the benchmark."""
    labels = np.asarray(labels, dtype=bool)
    want_eer, _ = reference_eer(labels, distances)
    problems = []
    if abs(row["eer"] - want_eer) > EER_TOL:
        problems.append(f"none-row EER {row['eer']!r} differs from the "
                        f"recomputed {want_eer!r}")
    if (row["n_same"], row["n_diff"]) != (int(labels.sum()),
                                          int((~labels).sum())):
        problems.append(f"none-row counts {row['n_same']}/{row['n_diff']} "
                        f"differ from the trial labels")
    return problems


def eers(report: Mapping) -> Dict[str, float]:
    return {m["restoration"]: m["eer"] for m in report["matrix"]}


def bias_row(report: Mapping, method: str):
    for b in report["bias"]:
        if b["restoration"] == method:
            return b
    return None


def band_bias(buckets: Iterable[Mapping]) -> List[Tuple[Tuple[float, float],
                                                        float, int]]:
    """Per ALPHA_BANDS band: (band, mean error, trial count), pooled
    from the report's per-value buckets."""
    out = []
    buckets = list(buckets)
    for lo, hi in ALPHA_BANDS:
        sel = [b for b in buckets if lo <= b["alpha"] <= hi]
        n = sum(b["count"] for b in sel)
        if n:
            mean = sum(b["mean_error"] * b["count"] for b in sel) / n
            out.append(((lo, hi), mean, n))
    return out


def rms_error(bias: Mapping) -> float:
    return float(np.hypot(bias["mean_error"], bias["std_error"]))


def check_pitch_time(report: Mapping) -> List[str]:
    """Grid restoration wins back at least MIN_GRID_GAIN points;
    f0ratio does no worse than no restoration and recovers alpha less
    accurately than the grid; the grid's mean alpha error is within one
    semitone in every band of true alpha.

    The EER ordering grid <= f0ratio is not checked: at this size the
    two differ by less than their sampling error (see the README)."""
    e = eers(report)
    problems = []
    if e["none"] - e["pitch-freq"] < MIN_GRID_GAIN:
        problems.append(f"grid EER {e['pitch-freq']:.2f} is not "
                        f"{MIN_GRID_GAIN} points below none {e['none']:.2f}")
    if e["f0ratio"] > e["none"]:
        problems.append(f"f0ratio EER {e['f0ratio']:.2f} above none "
                        f"{e['none']:.2f}")
    grid, f0 = bias_row(report, "pitch-freq"), bias_row(report, "f0ratio")
    if grid is None or f0 is None:
        return problems + ["missing alpha-recovery statistics"]
    for (lo, hi), mean, n in band_bias(grid["buckets"]):
        if abs(mean) > MAX_BAND_BIAS:
            problems.append(f"grid mean alpha error {mean:+.2f} over "
                            f"{n} trials with true alpha in [{lo:g}, {hi:g}]")
    if rms_error(grid) > rms_error(f0):
        problems.append(f"grid RMS alpha error {rms_error(grid):.3f} above "
                        f"f0ratio's {rms_error(f0):.3f}")
    return problems


VTLN_FAMILIES = ("vtln-bilinear", "vtln-quadratic", "vtln-power",
                 "vtln-piecewise")


def check_vtln(report: Mapping) -> List[str]:
    """All four warp families drawn; matched vtln-power restoration
    below no restoration; on vtln-power trials it recovers the
    parameter within one grid step in every bucket.

    The EER ordering vtln-power <= pitch-freq is not checked: at this
    size the two differ by less than their sampling error (see the
    README)."""
    e = eers(report)
    problems = []
    missing = [f for f in VTLN_FAMILIES
               if report["trial_summary"].get(f, 0) == 0]
    if missing:
        problems.append(f"families never drawn: {', '.join(missing)}")
    if e["vtln-power"] >= e["none"]:
        problems.append(f"vtln-power EER {e['vtln-power']:.2f} not below "
                        f"none {e['none']:.2f}")
    bias = bias_row(report, "vtln-power")
    if bias is None:
        return problems + ["no vtln-power recovery statistics"]
    for b in bias["buckets"]:
        if abs(b["mean_error"]) > VTLN_POWER_STEP + 1e-9:
            problems.append(f"vtln-power mean error {b['mean_error']:+.3f} "
                            f"at true {b['alpha']:g}")
    return problems


def check_roundtrip_grid(report: Mapping) -> List[str]:
    """Grid restoration of pitch-freq trials lowers EER below no
    restoration.

    The MIN_GRID_GAIN margin is not required here: with four speakers a
    seed that draws two similar voices leaves a correct program a
    smaller gain (see the README)."""
    e = eers(report)
    if e["pitch-freq"] >= e["none"]:
        return [f"grid EER {e['pitch-freq']:.2f} not below none "
                f"{e['none']:.2f}"]
    return []


def _error_stats(errors: np.ndarray) -> Tuple[int, float, float]:
    return int(errors.size), float(errors.mean()), float(errors.std())


def check_recovery(bias: Optional[Mapping],
                   pairs: Sequence[Tuple[float, float]]) -> List[str]:
    """Alpha recovery against (true, estimated) pairs the benchmark
    computed trial by trial: the report's error statistics, overall and
    per true value, are those of the pairs, and at least MIN_WITHIN_ONE
    of the estimates are within one semitone."""
    if bias is None:
        return ["missing alpha-recovery statistics"]
    true = np.array([p[0] for p in pairs], dtype=np.float64)
    err = np.array([p[1] for p in pairs], dtype=np.float64) - true
    want = {"all": _error_stats(err),
            **{float(a): _error_stats(err[true == a]) for a in np.unique(true)}}
    got = {"all": (bias["count"], bias["mean_error"], bias["std_error"]),
           **{b["alpha"]: (b["count"], b["mean_error"], b["std_error"])
              for b in bias["buckets"]}}
    problems = []
    if got.keys() != want.keys():
        problems.append(f"report buckets {sorted(map(str, got))} differ "
                        f"from the trials' {sorted(map(str, want))}")
    for key in want.keys() & got.keys():
        (n, mean, std), (n_w, mean_w, std_w) = got[key], want[key]
        if n != n_w or abs(mean - mean_w) > STAT_TOL or \
                abs(std - std_w) > STAT_TOL:
            problems.append(f"alpha {key}: report gives {n} estimates, error "
                            f"{mean:+.3f} +- {std:.3f}; the trials give "
                            f"{n_w}, {mean_w:+.3f} +- {std_w:.3f}")
    within = float(np.mean(np.abs(err) <= 1.0)) if err.size else 0.0
    if within < MIN_WITHIN_ONE:
        problems.append(f"{100 * within:.0f} % of {err.size} grid estimates "
                        f"within one semitone, below "
                        f"{100 * MIN_WITHIN_ONE:.0f} %")
    return problems


def check_identical(files_a: Mapping[str, bytes],
                    files_b: Mapping[str, bytes]) -> List[str]:
    """Two sets of report files (name -> bytes) are byte-identical."""
    problems = []
    if sorted(files_a) != sorted(files_b):
        problems.append(f"report file sets differ: {sorted(files_a)} vs "
                        f"{sorted(files_b)}")
    for name in sorted(set(files_a) & set(files_b)):
        if files_a[name] != files_b[name]:
            problems.append(f"report file {name} differs between runs")
    return problems


def check_same_row(a: Mapping, b: Mapping, method: str) -> List[str]:
    """The `method` row of two reports agrees in every field."""
    row_a = [m for m in a["matrix"] if m["restoration"] == method]
    row_b = [m for m in b["matrix"] if m["restoration"] == method]
    if row_a != row_b:
        return [f"{method} rows differ: {row_a} vs {row_b}"]
    return []


def check_wav(data: bytes, n_samples: int, sample_rate: int) -> List[str]:
    """A WAV file, read with the standard library, has the expected
    sample count and rate."""
    try:
        with wave.open(io.BytesIO(data)) as w:
            got = (w.getnframes(), w.getframerate())
    except (wave.Error, EOFError) as exc:
        return [f"unreadable WAV: {exc}"]
    if got != (n_samples, sample_rate):
        return [f"WAV holds {got[0]} samples at {got[1]} Hz, expected "
                f"{n_samples} at {sample_rate}"]
    return []


def check_sidecar(text: str, expected: Mapping[str, np.ndarray]) -> List[str]:
    """The embedding sidecar holds exactly one row per expected
    utterance, with the embedding the benchmark computed for it."""
    rows: Dict[str, np.ndarray] = {}
    problems = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] in rows:
            problems.append(f"sidecar line {lineno}: duplicate {parts[0]}")
        rows[parts[0]] = np.array([float(p) for p in parts[1:]])
    for utt in sorted(set(expected) - set(rows)):
        problems.append(f"sidecar has no row for {utt}")
    for utt in sorted(set(rows) - set(expected)):
        problems.append(f"sidecar has an unexpected row {utt}")
    for utt in sorted(set(rows) & set(expected)):
        want = np.asarray(expected[utt], dtype=np.float64)
        got = rows[utt]
        if got.shape != want.shape or not np.allclose(
                got, want, rtol=SIDECAR_RTOL, atol=0.0):
            problems.append(f"sidecar row {utt} differs from the "
                            f"recomputed embedding")
    return problems
