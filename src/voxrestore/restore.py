"""Blind voice restoration: undo an unknown disguise by exhaustive
parameter search against an enrolled speaker, or from the F0 ratio."""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .audio import AudioBuffer
from .disguise import (DisguiseFamily, DisguiseSpec, IDENTITY_PARAMS,
                       PARAM_RANGES, parse_family, warp_indices)
from .pitch import estimate_f0, f0_ratio_alpha, mean_f0
from .speaker import (Embedding, FeatureMatrix, active_magnitudes, distance,
                      embed, features_from_magnitudes)

_GRID_DEFS = {
    DisguiseFamily.PITCH_FREQ: (-11.0, 11.0, 1.0),
    DisguiseFamily.PITCH_TIME: (-11.0, 11.0, 1.0),
    DisguiseFamily.VTLN_BILINEAR: (-0.3, 0.3, 0.02),
    DisguiseFamily.VTLN_QUADRATIC: (-2.0, 2.0, 0.2),
    DisguiseFamily.VTLN_POWER: (-0.5, 0.5, 0.05),
    DisguiseFamily.VTLN_PIECEWISE: (0.5, 1.5, 0.05),
}


@dataclass(frozen=True)
class GridSpec:
    """Candidate parameter values for one disguise family.

    Values must be strictly increasing, lie inside the family's
    parameter range, and include the family's no-op parameter so a
    search over undisguised audio can settle on "no disguise".
    """

    family: DisguiseFamily
    values: Tuple[float, ...]

    def __post_init__(self):
        fam = parse_family(self.family)
        object.__setattr__(self, "family", fam)
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("grid has no candidate values")
        if any(not np.isfinite(v) for v in vals):
            raise ValueError("grid values must be finite")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("grid values must be strictly increasing")
        lo, hi = PARAM_RANGES[fam]
        if vals[0] < lo or vals[-1] > hi:
            raise ValueError(
                f"grid values outside [{lo}, {hi}] for {fam.value}")
        ident = IDENTITY_PARAMS[fam]
        if not any(v == ident for v in vals):
            raise ValueError(
                f"grid for {fam.value} must include the no-op value {ident}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


def grid_from_range(family, lo: float, hi: float, step: float) -> GridSpec:
    """Candidates from lo to hi inclusive, `step` apart, rounded to 10
    decimals so that fractional steps land on their nominal values."""
    if step <= 0 or hi < lo:
        raise ValueError(f"bad grid bounds {lo:g}:{hi:g}:{step:g}")
    count = int(round((hi - lo) / step)) + 1
    vals = np.round(lo + step * np.arange(count), 10)
    return GridSpec(parse_family(family), tuple(float(v) for v in vals))


def default_grid(family) -> GridSpec:
    """The stock search grid for a family (integer semitones for the
    pitch families, fixed-step sweeps for the warp families)."""
    fam = parse_family(family)
    return grid_from_range(fam, *_GRID_DEFS[fam])


def nearest_grid_value(grid: GridSpec, alpha: float) -> float:
    vals = np.asarray(grid.values)
    return float(vals[int(np.argmin(np.abs(vals - alpha)))])


@dataclass
class RestorationResult:
    """Outcome of one restoration attempt against one enrolled speaker."""

    alpha_hat: float
    d_hat: float
    family: DisguiseFamily
    method: str
    per_candidate: List[Tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "method": self.method,
            "alpha_hat": self.alpha_hat,
            "d_hat": self.d_hat,
            "per_candidate": [[a, d] for a, d in self.per_candidate],
        }


def _candidate_token(utt: str, family: DisguiseFamily, alpha: float) -> str:
    """Sidecar token of one candidate: `utt` itself, the plain row, for
    the family's no-op, else `utt#family:alpha`."""
    if alpha == IDENTITY_PARAMS[family]:
        return utt
    return f"{utt}#{family.value}:{alpha:g}"


class _RestorationContext:
    """VAD-active STFT magnitudes and geometry of one utterance,
    computed once and shared by all its candidates."""

    def __init__(self, disguised: AudioBuffer):
        self.sample_rate = disguised.sample_rate
        self.active = active_magnitudes(disguised)

    def features(self, alpha: float, family: DisguiseFamily) -> FeatureMatrix:
        # the inverse `apply_spectral_warp`, on the active rows only
        mags = self.active
        index = warp_indices(DisguiseSpec(family, alpha), mags.shape[1],
                             "inverse")
        if index is not None:
            lo, frac = index
            mags = mags[:, lo] * (1.0 - frac) + mags[:, lo + 1] * frac
        return FeatureMatrix(features_from_magnitudes(mags, self.sample_rate))


def restore_with(disguised: AudioBuffer, alpha: float,
                 family) -> FeatureMatrix:
    """Undo a disguise of known family and parameter in the spectral
    domain and return features of the restored utterance.

    The disguise's own frequency map is applied in the inverse
    direction to the STFT of the disguised audio; features come
    straight from the warped magnitudes, so alpha equal to the no-op
    parameter reproduces `mfcc(disguised)` exactly.
    """
    return _RestorationContext(disguised).features(alpha, family)


NO_OP = (DisguiseFamily.PITCH_FREQ, 0.0)    # the candidate of no restoration


def embedding_table(utterances,
                    external: Optional[Dict[str, Embedding]] = None
                    ) -> Dict[str, Embedding]:
    """Every embedding a restoration needs, keyed by sidecar token.

    `utterances` holds (utt_id, audio, candidates) entries; each
    (family, alpha) candidate asks for the embedding of one inversion,
    keyed by `_candidate_token`, so every family's no-op asks for the
    plain row `utt_id`. Given an `external` table, each token is looked
    up there (a missing one is a KeyError) and audio may be None.
    Otherwise each utterance is analyzed once and each distinct token
    is derived from that analysis once, by the first candidate that
    asks for it. Raises ValueError when the audio mixes sample rates or
    an utterance cannot be analyzed (naming the utterance).
    """
    utterances = list(utterances)
    rates = sorted({buf.sample_rate for _, buf, _ in utterances
                    if buf is not None})
    if len(rates) > 1:
        raise ValueError("audio mixes sample rates: "
                         + " and ".join(f"{r} Hz" for r in rates))
    table: Dict[str, Embedding] = {}
    for utt, buf, candidates in utterances:
        wanted: Dict[str, Tuple[DisguiseFamily, float]] = {}
        for fam, a in candidates:
            wanted.setdefault(_candidate_token(utt, fam, a), (fam, a))
        if external is not None:
            for tok in wanted:
                if tok not in external:
                    raise KeyError(f"utterance {tok!r} missing from external "
                                   f"embedding table")
                table[tok] = external[tok]
            continue
        if buf is None:
            raise KeyError(f"no audio for utterance {utt!r}")
        try:
            ctx = _RestorationContext(buf)
            table.update((tok, embed(ctx.features(a, fam)))
                         for tok, (fam, a) in wanted.items())
        except ValueError as exc:
            raise ValueError(f"{utt}: {exc}") from None
    return table


def _search(reference: Embedding, table: Dict[str, Embedding],
            test_id: str, candidates):
    """Argmin of the distance from `reference` over the embeddings of
    `test_id`'s (family, alpha) `candidates`; ties prefer the candidate
    nearest its family's no-op parameter, then the smaller alpha.
    Returns the best (family, alpha, distance) and every one scored."""
    scored = [(fam, float(a),
               distance(reference, table[_candidate_token(test_id, fam, a)]))
              for fam, a in candidates]
    best = min(scored, key=lambda c: (c[2], abs(c[1] - IDENTITY_PARAMS[c[0]]),
                                      c[1]))
    return best, scored


def _restore(enrolled, disguised, family, values, method, external,
             enroll_id, test_id) -> RestorationResult:
    """The best inversion of `disguised` at `values` (see `_search`)."""
    if enroll_id == test_id:
        # the test's no-op row would replace the enrollment's
        raise ValueError(f"utterance id {enroll_id!r} names both the "
                         f"enrolled and the disguised audio")
    candidates = [(family, a) for a in values]
    table = embedding_table([(enroll_id, enrolled, [NO_OP]),
                             (test_id, disguised, candidates)], external)
    (_, alpha_hat, d_hat), scored = _search(table[enroll_id], table,
                                            test_id, candidates)
    return RestorationResult(alpha_hat, d_hat, family, method,
                             [(a, d) for _, a, d in scored])


def grid_search_restore(enrolled: AudioBuffer, disguised: AudioBuffer,
                        grid: Optional[GridSpec] = None,
                        family=DisguiseFamily.PITCH_FREQ,
                        external: Optional[Dict[str, Embedding]] = None,
                        enroll_id: str = "enroll", test_id: str = "test"
                        ) -> RestorationResult:
    """Estimate the disguise parameter by trying every grid value,
    inverting with it, and keeping the candidate whose restored
    embedding lands closest to the enrolled speaker.

    Ties prefer the candidate nearest the no-op parameter (then the
    smaller value), so undisguised input maps to "no disguise". The
    analysis of the disguised utterance is computed once and shared by
    all candidates. The ids name the two sides in an `external` table
    (see `embedding_table`) and must differ.
    """
    grid = grid or default_grid(family)
    return _restore(enrolled, disguised, grid.family, grid.values, "grid",
                    external, enroll_id, test_id)


def f0_ratio_restore(enrolled: AudioBuffer, disguised: AudioBuffer,
                     family=DisguiseFamily.PITCH_FREQ,
                     grid: Optional[GridSpec] = None,
                     external: Optional[Dict[str, Embedding]] = None,
                     enroll_id: str = "enroll", test_id: str = "test"
                     ) -> RestorationResult:
    """Estimate a pitch disguise from mean F0s alone.

    The semitone offset implied by the two utterances' mean F0 is
    snapped to the family grid and a single inversion is scored. Only
    the pitch families carry semitone parameters, so others are
    rejected. Raises UnvoicedUtteranceError when either side has no
    voiced frames.
    """
    fam = parse_family(family)
    if fam not in (DisguiseFamily.PITCH_FREQ, DisguiseFamily.PITCH_TIME):
        raise ValueError(
            "F0-ratio restoration estimates semitones; family must be "
            "pitch-freq or pitch-time")
    grid = grid or default_grid(fam)
    f_x = mean_f0(estimate_f0(enrolled))
    f_y = mean_f0(estimate_f0(disguised))
    alpha_hat = nearest_grid_value(grid, f0_ratio_alpha(f_x, f_y))
    return _restore(enrolled, disguised, fam, (alpha_hat,), "f0-ratio",
                    external, enroll_id, test_id)
