"""Blind voice restoration: undo an unknown disguise by exhaustive
parameter search against an enrolled speaker, or from the F0 ratio."""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .audio import AudioBuffer
from .disguise import (DisguiseFamily, DisguiseSpec, IDENTITY_PARAMS,
                       PARAM_RANGES, parse_family, warp_indices)
from .pitch import (UnvoicedUtteranceError, estimate_f0, f0_ratio_alpha,
                    mean_f0)
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
    for name, bound in (("lo", lo), ("hi", hi), ("step", step)):
        if not np.isfinite(bound):
            raise ValueError(f"grid {name} must be finite, got {bound:g}")
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


def parse_restoration(name: str) -> Tuple[str, GridSpec]:
    """Restoration method id -> (kind, grid). Accepted: "none" (the one
    candidate `NO_OP`), "f0ratio" (the default pitch-freq grid, snapped
    to by the F0 ratio), a family name or "grid:<family>" (a search
    over the family's default grid)."""
    if name == "none":
        return "none", GridSpec(NO_OP[0], (NO_OP[1],))
    if name == "f0ratio":
        return "f0ratio", default_grid(DisguiseFamily.PITCH_FREQ)
    return "grid", default_grid(name[len("grid:"):]
                                if name.startswith("grid:") else name)


def search_pairs(audio: Dict[str, Optional[AudioBuffer]], pairs, methods,
                 external: Optional[Dict[str, Embedding]], f0_fallback: bool):
    """Score each (enroll_id, test_id) pair under each (kind, grid)
    method, from one `embedding_table`.

    A grid scores all its values; "f0ratio" scores the grid value
    nearest the F0 ratio of the pair's mean F0s. With `f0_fallback` an
    unvoiced side makes that the grid's no-op; without, it raises
    UnvoicedUtteranceError. F0 and analysis errors name the utterance.
    A builtin table also holds every pair's plain rows. Returns the
    table, per method the `_search` result of each pair, and how many
    pairs fell back (None when no method reads the F0).
    """
    reads_f0 = any(kind == "f0ratio" for kind, _ in methods)
    f0: Dict[str, Optional[float]] = {}
    if reads_f0:
        for utt in dict.fromkeys(u for pair in pairs for u in pair):
            if audio.get(utt) is None:
                raise KeyError(f"no audio for utterance {utt!r}")
            try:
                f0[utt] = mean_f0(estimate_f0(audio[utt]))
            except ValueError as exc:
                if not (f0_fallback
                        and isinstance(exc, UnvoicedUtteranceError)):
                    raise type(exc)(f"{utt}: {exc}") from None
                f0[utt] = None
    unvoiced = [reads_f0 and (f0[e] is None or f0[t] is None)
                for e, t in pairs]

    def candidates(kind: str, grid: GridSpec):
        """The (family, alpha) candidates of one method, per pair."""
        if kind != "f0ratio":
            return [[(grid.family, a) for a in grid.values]] * len(pairs)
        return [[(grid.family, IDENTITY_PARAMS[grid.family] if fell_back
                  else nearest_grid_value(grid, f0_ratio_alpha(f0[e], f0[t])))]
                for (e, t), fell_back in zip(pairs, unvoiced)]

    plan = [candidates(kind, grid) for kind, grid in methods]
    needs: Dict[str, dict] = {}       # utt -> {(family, alpha): None}
    for i, (e, t) in enumerate(pairs):
        needs.setdefault(e, {})[NO_OP] = None
        need = needs.setdefault(t, {} if external is not None
                               else {NO_OP: None})
        for per_pair in plan:
            need.update(dict.fromkeys(per_pair[i]))
    table = embedding_table(
        ((u, audio.get(u), cands) for u, cands in needs.items()), external)
    results = [[_search(table[e], table, t, cands)
                for (e, t), cands in zip(pairs, per_pair)]
               for per_pair in plan]
    return table, results, sum(unvoiced) if reads_f0 else None


def restore_pair(enrolled: Optional[AudioBuffer],
                 disguised: Optional[AudioBuffer], kind: str,
                 grid: Optional[GridSpec] = None,
                 external: Optional[Dict[str, Embedding]] = None,
                 enroll_id: str = "enroll", test_id: str = "test"
                 ) -> RestorationResult:
    """Estimate the disguise of `disguised` against `enrolled`.

    `kind` "grid" inverts with every value of `grid` and keeps the
    candidate whose restored embedding lands closest to the enrolled
    speaker; ties prefer the no-op (then the smaller value), so
    undisguised input maps to "no disguise". `kind` "f0ratio" snaps the
    semitone offset implied by the two mean F0s to the grid, which must
    be a pitch family's, and scores that one inversion; unlike
    `run_matrix`, which falls back to the no-op, it raises
    UnvoicedUtteranceError naming a side without voiced frames. The
    grid names the family and defaults to pitch-freq's. The ids name
    the two sides in an `external` table (see `embedding_table`) and
    must differ.
    """
    if kind not in ("grid", "f0ratio"):
        raise ValueError(f"restoration kind must be 'grid' or 'f0ratio', "
                         f"got {kind!r}")
    if grid is None:
        grid = default_grid(DisguiseFamily.PITCH_FREQ)
    if kind == "f0ratio" and grid.family not in (DisguiseFamily.PITCH_FREQ,
                                                 DisguiseFamily.PITCH_TIME):
        raise ValueError("F0-ratio restoration estimates semitones; family "
                         "must be pitch-freq or pitch-time")
    if enroll_id == test_id:
        # the test's no-op row would replace the enrollment's
        raise ValueError(f"utterance id {enroll_id!r} names both the "
                         f"enrolled and the disguised audio")
    _, [[((_, alpha_hat, d_hat), scored)]], _ = search_pairs(
        {enroll_id: enrolled, test_id: disguised}, [(enroll_id, test_id)],
        [(kind, grid)], external, f0_fallback=False)
    return RestorationResult(alpha_hat, d_hat, grid.family,
                             "f0-ratio" if kind == "f0ratio" else kind,
                             [(a, d) for _, a, d in scored])
