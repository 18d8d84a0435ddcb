"""Synthetic speaker corpus, trial generation, EER computation and the
disguise x restoration evaluation matrix."""

import functools
import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .audio import AudioBuffer
from .disguise import (SEMITONE_FAMILIES, VTLN_FAMILIES, DisguiseFamily,
                       DisguiseSpec, disguise, parse_family)
from .restore import (EmbeddingRows, default_grid, parse_restoration,
                      search_pairs)
from .speaker import Embedding

log = logging.getLogger("voxrestore")


# ---------------------------------------------------------------------------
# corpus synthesis


@dataclass(frozen=True)
class CorpusConfig:
    n_speakers: int = 8
    utts_per_speaker: int = 5
    seed: int = 0
    sample_rate: int = 16000
    duration_s: float = 2.0

    def __post_init__(self):
        if self.n_speakers < 2 or self.utts_per_speaker < 2:
            raise ValueError(
                "need at least two speakers and two utterances each")
        if self.sample_rate < 8000:
            raise ValueError("sample rate below 8 kHz leaves no formant room")
        if self.duration_s < 0.5:
            raise ValueError("utterances shorter than 0.5 s are too thin "
                             "for stable statistics")


@dataclass
class Corpus:
    utterances: Dict[str, AudioBuffer]
    speaker_of: Dict[str, str]

    def by_speaker(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {}
        for utt, spk in self.speaker_of.items():
            out.setdefault(spk, []).append(utt)
        return out


def _resonator_poles(freq: float, bandwidth: float, sample_rate: int):
    """The conjugate poles r*exp(+-i*theta) of a two-pole resonator."""
    freq = min(freq, 0.45 * sample_rate)   # keep poles below Nyquist
    p = np.exp((2j * np.pi * freq - np.pi * bandwidth) / sample_rate)
    return [p, np.conj(p)]


@functools.lru_cache(maxsize=8)
def _delay(size: int) -> np.ndarray:
    """1/z on the bins of a `size`-point rfft, read-only."""
    delay = np.fft.rfft([0.0, 1.0], size)
    delay.flags.writeable = False
    return delay


def _all_pole(x: np.ndarray, poles: Sequence[complex]) -> np.ndarray:
    """`x` through 1 / prod(1 - p/z) as a product of spectra, zero-padded
    to a 2^k or 3 * 2^(k-2) past the slowest pole's 1e-17 decay."""
    need = x.size + np.log(1e-17) / np.log(max(abs(p) for p in poles))
    k = int(need).bit_length()
    size = min(s for s in (1 << k, 3 << k - 2) if s >= need)
    delay = _delay(size)
    spectrum = np.fft.rfft(x, size)
    for p in poles:
        spectrum /= 1.0 - p * delay
    return np.fft.irfft(spectrum, size)[:x.size]


def _synth_utterance(rng: "np.random.Generator", base_f0: float,
                     formants: Sequence[float], bandwidths: Sequence[float],
                     hiss_freq: float, hiss_bw: float, hiss_level: float,
                     sample_rate: int, duration_s: float) -> AudioBuffer:
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    # utterance-level pitch offset plus slow vibrato; formants also get a
    # small per-utterance drift so same-speaker pairs are not trivially equal
    f0_offset = 2.0 ** rng.uniform(-0.2, 0.2)
    vib_rate = rng.uniform(2.5, 4.5)
    vib_phase = rng.uniform(0.0, 2.0 * np.pi)
    vib_depth = rng.uniform(0.005, 0.02)
    f0_t = base_f0 * f0_offset * (
        1.0 + vib_depth * np.sin(2.0 * np.pi * vib_rate * t + vib_phase))
    phase = np.cumsum(f0_t / sample_rate)
    excitation = np.zeros(n)
    excitation[np.diff(np.floor(phase), prepend=0.0) >= 1.0] = 1.0
    poles = [0.95]   # glottal spectral tilt, then the formants
    for freq, bw in zip(formants, bandwidths):
        drift = 2.0 ** rng.uniform(-0.02, 0.02)
        poles += _resonator_poles(freq * drift, bw, sample_rate)
    x = _all_pole(excitation, poles)
    # frication fills the top octave; its center is shared across
    # speakers (warping it to match another speaker buys nothing) while
    # its bandwidth and level carry identity
    voiced_rms = np.sqrt(np.mean(x * x))
    hiss = _all_pole(rng.standard_normal(n),
                     _resonator_poles(hiss_freq, hiss_bw, sample_rate))
    x = x + hiss * (voiced_rms * hiss_level / np.sqrt(np.mean(hiss * hiss)))
    x = x + rng.standard_normal(n) * (voiced_rms * 0.003)
    fade = int(round(0.05 * sample_rate))   # CorpusConfig keeps n > 2 * fade
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(fade) / fade)
    x[:fade] *= ramp
    x[-fade:] *= ramp[::-1]
    x *= 0.3 / np.max(np.abs(x))
    return AudioBuffer(x, sample_rate)


def synth_corpus(config: CorpusConfig = CorpusConfig()) -> Corpus:
    """Generate a deterministic toy corpus of vowel-like utterances.

    Each speaker draws a base pitch, four formants and a hiss band;
    each utterance re-jitters pitch and formants slightly.
    Seeding is hierarchical, so utterance (i, j) does not depend on how
    many other speakers or utterances are generated.
    """
    utterances: Dict[str, AudioBuffer] = {}
    speaker_of: Dict[str, str] = {}
    for si in range(config.n_speakers):
        srng = np.random.default_rng([config.seed, si])
        base_f0 = srng.uniform(90.0, 250.0)
        formants = [srng.uniform(300.0, 900.0),
                    srng.uniform(1100.0, 2300.0),
                    srng.uniform(2500.0, 3400.0),
                    srng.uniform(3600.0, 4400.0)]
        bandwidths = [srng.uniform(60.0, 120.0),
                      srng.uniform(80.0, 160.0),
                      srng.uniform(100.0, 200.0),
                      srng.uniform(150.0, 250.0)]
        hiss_freq = srng.uniform(5100.0, 5300.0)
        hiss_bw = srng.uniform(400.0, 1000.0)
        hiss_level = srng.uniform(0.05, 0.13)
        spk = f"spk{si:02d}"
        for ui in range(config.utts_per_speaker):
            urng = np.random.default_rng([config.seed, si, ui])
            utt = f"{spk}_u{ui:02d}"
            utterances[utt] = _synth_utterance(
                urng, base_f0, formants, bandwidths, hiss_freq, hiss_bw,
                hiss_level, config.sample_rate, config.duration_s)
            speaker_of[utt] = spk
    return Corpus(utterances, speaker_of)


# ---------------------------------------------------------------------------
# trials


@dataclass
class Trial:
    """One verification trial: an enrolled utterance, a test utterance,
    the ground-truth label (True = same speaker) and, when the test side
    was disguised, the transform that produced it."""

    enroll_id: str
    test_id: str
    label: Optional[bool]
    disguise_meta: Optional[DisguiseSpec] = None


DISGUISE_POLICIES = ("none", "vtln-all") + tuple(f.value for f in DisguiseFamily)


def gen_trials(corpus: Corpus, n_trials: int, policy: str = "none",
               seed: int = 0
               ) -> Tuple[List[Trial], Dict[str, AudioBuffer]]:
    """Draw a label-balanced trial list, optionally disguising every
    test utterance.

    policy "none" leaves test audio untouched; a family name draws the
    parameter uniformly from that family's default grid; "vtln-all"
    additionally draws the family uniformly from the four warp
    families. Returns the trials plus the newly created disguised
    audio, keyed by ids that encode the source utterance and transform.
    Same-speaker trials always pair two distinct utterances.
    """
    if policy not in DISGUISE_POLICIES:
        raise ValueError(
            f"unknown disguise policy {policy!r} (one of: "
            f"{', '.join(DISGUISE_POLICIES)})")
    if n_trials < 2:
        raise ValueError("need at least two trials")
    by_spk = corpus.by_speaker()
    speakers = sorted(by_spk)
    n_same = n_trials // 2
    if n_same and any(len(v) < 2 for v in by_spk.values()):
        raise ValueError(
            "same-speaker trials need at least two utterances per speaker")
    if len(speakers) < 2:
        raise ValueError("impostor trials need at least two speakers")
    rng = np.random.default_rng([seed, 0x7261])
    labels = np.array([True] * n_same + [False] * (n_trials - n_same))
    rng.shuffle(labels)
    trials: List[Trial] = []
    extra: Dict[str, AudioBuffer] = {}
    for label in labels:
        if label:
            spk = speakers[rng.integers(len(speakers))]
            utts = by_spk[spk]
            i, j = rng.choice(len(utts), size=2, replace=False)
            enroll, probe = utts[i], utts[j]
        else:
            a, b = rng.choice(len(speakers), size=2, replace=False)
            ua = by_spk[speakers[a]]
            ub = by_spk[speakers[b]]
            enroll = ua[rng.integers(len(ua))]
            probe = ub[rng.integers(len(ub))]
        meta = None
        test_id = probe
        if policy != "none":
            grid = default_grid(VTLN_FAMILIES[rng.integers(len(VTLN_FAMILIES))]
                                if policy == "vtln-all" else policy)
            meta = grid[rng.integers(len(grid))]
            test_id = f"{probe}~{meta.spec_string()}"
            if test_id not in extra:
                extra[test_id] = disguise(corpus.utterances[probe], meta)
        trials.append(Trial(enroll, test_id, bool(label), meta))
    return trials, extra


# ---------------------------------------------------------------------------
# EER


@dataclass
class EerReport:
    eer_percent: float
    threshold: float
    n_same: int
    n_diff: int


def compute_eer(same_scores, diff_scores) -> EerReport:
    """Equal error rate for a distance-like score (accept iff score <=
    threshold).

    Thresholds sweep the sorted union of the observed scores; the one
    minimizing |FAR - FRR| wins, ties broken toward the smaller mean
    error and then the smaller threshold. EER is reported as the mean
    of FAR and FRR there, in percent.
    """
    same = np.sort(np.asarray(same_scores, dtype=np.float64))
    diff = np.sort(np.asarray(diff_scores, dtype=np.float64))
    if same.size == 0 or diff.size == 0:
        raise ValueError("need at least one score of each class")
    if not (np.all(np.isfinite(same)) and np.all(np.isfinite(diff))):
        raise ValueError("scores must be finite")
    thresholds = np.unique(np.concatenate([same, diff]))
    n_rej = same.size - np.searchsorted(same, thresholds, side="right")
    frr = n_rej / same.size
    far = np.searchsorted(diff, thresholds, side="right") / diff.size
    gap = np.abs(far - frr)
    mean_err = 0.5 * (far + frr)
    order = np.lexsort((thresholds, mean_err, gap))
    pick = order[0]
    return EerReport(float(mean_err[pick] * 100.0),
                     float(thresholds[pick]),
                     int(same.size), int(diff.size))


# ---------------------------------------------------------------------------
# bias of recovered parameters


@dataclass
class BiasStats:
    """Error statistics of recovered disguise parameters, overall and
    bucketed by the true value."""

    mean_error: float
    std_error: float
    count: int
    buckets: List[Tuple[float, float, float, int]]   # (alpha, mean, std, n)

    def to_dict(self) -> dict:
        return {"mean_error": self.mean_error,
                "std_error": self.std_error,
                "count": self.count,
                "buckets": [{"alpha": a, "mean_error": m,
                             "std_error": s, "count": n}
                            for a, m, s, n in self.buckets]}


def alpha_bias(pairs: Sequence[Tuple[float, float]]) -> BiasStats:
    """Statistics of (estimated - true) over (true, estimated) pairs,
    bucketed by distinct true values."""
    if not pairs:
        raise ValueError("no parameter pairs to analyze")
    true = np.array([p[0] for p in pairs], dtype=np.float64)
    est = np.array([p[1] for p in pairs], dtype=np.float64)
    err = est - true
    buckets = []
    for a in np.unique(true):
        sel = err[true == a]
        buckets.append((float(a), float(sel.mean()), float(sel.std()),
                        int(sel.size)))
    return BiasStats(float(err.mean()), float(err.std()), int(err.size),
                     buckets)


# ---------------------------------------------------------------------------
# evaluation matrix


@dataclass
class MatrixRow:
    restoration: str
    eer: EerReport
    bias: Optional[BiasStats]
    per_alpha: List[dict]


@dataclass
class MatrixReport:
    """Per-method rows of one evaluation. `embeddings` holds every
    embedding the run scored with, as `restore.embedding_table` gives
    them; it is not part of `to_dict`."""

    rows: List[MatrixRow]
    n_trials: int
    trial_summary: Dict[str, int]
    embeddings: Dict[str, EmbeddingRows]
    disguise_label: str = "none"

    def to_dict(self) -> dict:
        matrix = [{"disguise": self.disguise_label,
                   "restoration": r.restoration,
                   "eer": r.eer.eer_percent,
                   "threshold": r.eer.threshold,
                   "n_same": r.eer.n_same,
                   "n_diff": r.eer.n_diff} for r in self.rows]
        bias = [dict(restoration=r.restoration, **r.bias.to_dict())
                for r in self.rows if r.bias is not None]
        per_alpha = [dict(restoration=r.restoration, **entry)
                     for r in self.rows for entry in r.per_alpha]
        return {"matrix": matrix, "bias": bias, "per_alpha": per_alpha,
                "n_trials": self.n_trials,
                "trial_summary": self.trial_summary}

    def row(self, restoration: str) -> MatrixRow:
        for r in self.rows:
            if r.restoration == restoration:
                return r
        raise KeyError(f"no matrix row for restoration {restoration!r}")


def _disguise_label(trial_summary: Dict[str, int]) -> str:
    kinds = sorted(k for k in trial_summary if k != "none")
    if not kinds:
        return "none"
    if len(kinds) == 1:
        return kinds[0]
    if all(parse_family(k) in VTLN_FAMILIES for k in kinds):
        return "vtln-all"
    return "mixed"


def _same_units(a: DisguiseFamily, b: DisguiseFamily) -> bool:
    return a is b or (a in SEMITONE_FAMILIES and b in SEMITONE_FAMILIES)


def run_matrix(audio: Dict[str, AudioBuffer], trials: Sequence[Trial],
               restorations: Sequence[str],
               external: Optional[Dict[str, Embedding]] = None,
               jobs: int = 1) -> MatrixReport:
    """Score every trial under every requested restoration method (each
    named once) and report per-method EER, parameter-recovery bias and
    per-parameter EER breakdowns.

    Restoration methods are blind: they never read a trial's
    disguise_meta, which is used only to organize the report. The
    trials are scored by `restore.search_pairs`, from one table that
    holds every embedding once, however often a test utterance repeats,
    read from the `external` table when one is given; an unvoiced side
    makes the F0 ratio fall back to the no-op. `jobs` is accepted for
    compatibility and has no effect; the work runs in one thread.
    """
    trials = list(trials)
    if not trials:
        raise ValueError("no trials to evaluate")
    classes = {t.label for t in trials}
    if None in classes:
        raise ValueError("every trial needs a ground-truth label")
    if len(classes) < 2:
        missing = "impostor (0)" if True in classes else "same-speaker (1)"
        raise ValueError(f"no {missing} trials: the EER needs both classes")
    names = list(restorations)
    methods = [parse_restoration(name) for name in names]
    if not methods:
        raise ValueError("no restoration methods requested")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"restoration {name!r} requested twice")
    table, results, fallbacks = search_pairs(
        audio, [(t.enroll_id, t.test_id) for t in trials], methods, external,
        f0_fallback=True)
    if fallbacks is not None:
        log.info("f0ratio: %d of %d trials fell back to the no-op "
                 "parameter (a side is unvoiced)", fallbacks, len(trials))

    trial_summary: Dict[str, int] = {}
    groups: Dict[Tuple[str, float], List[int]] = {}   # per-alpha trials
    for i, t in enumerate(trials):
        meta = t.disguise_meta
        key = "none" if meta is None else meta.family.value
        trial_summary[key] = trial_summary.get(key, 0) + 1
        if meta is not None:
            groups.setdefault((key, meta.param), []).append(i)
    labels = np.array([t.label for t in trials], dtype=bool)

    rows: List[MatrixRow] = []
    for name, (_, candidates), searched in zip(names, methods, results):
        best = [b for b, _ in searched]
        scores = np.array([d for _, d in best])
        eer = compute_eer(scores[labels], scores[~labels])

        bias = None
        if len(candidates) > 1:
            pairs = [(t.disguise_meta.param, spec.param)
                     for t, (spec, _) in zip(trials, best)
                     if t.label and t.disguise_meta is not None
                     and _same_units(t.disguise_meta.family, spec.family)]
            if pairs:
                bias = alpha_bias(pairs)

        per_alpha: List[dict] = []
        for key in sorted(groups):
            idx = np.array(groups[key])
            g_labels = labels[idx]
            if g_labels.all() or not g_labels.any():
                continue   # EER undefined with a single class
            g = compute_eer(scores[idx][g_labels], scores[idx][~g_labels])
            per_alpha.append({"family": key[0], "param": key[1],
                              "eer_percent": g.eer_percent,
                              "n_same": g.n_same, "n_diff": g.n_diff})
        rows.append(MatrixRow(name, eer, bias, per_alpha))
    return MatrixReport(rows, len(trials), trial_summary, table,
                        _disguise_label(trial_summary))
