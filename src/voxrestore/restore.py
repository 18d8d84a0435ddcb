"""Blind voice restoration: undo an unknown disguise by exhaustive
parameter search against an enrolled speaker, or from the F0 ratio."""

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .audio import AudioBuffer
from .disguise import (NO_OP, SEMITONE_FAMILIES, DisguiseFamily,
                       DisguiseSpec, IDENTITY_PARAMS, parse_family)
from .pitch import (UnvoicedUtteranceError, estimate_f0, f0_ratio_alpha,
                    mean_f0)
from .speaker import (Embedding, active_magnitudes, candidate_embeddings,
                      candidate_features, cosine_distances, frames_major)

_GRID_DEFS = {
    DisguiseFamily.PITCH_FREQ: (-11.0, 11.0, 1.0),
    DisguiseFamily.PITCH_TIME: (-11.0, 11.0, 1.0),
    DisguiseFamily.VTLN_BILINEAR: (-0.3, 0.3, 0.02),
    DisguiseFamily.VTLN_QUADRATIC: (-2.0, 2.0, 0.2),
    DisguiseFamily.VTLN_POWER: (-0.5, 0.5, 0.05),
    DisguiseFamily.VTLN_PIECEWISE: (0.5, 1.5, 0.05),
}
# over 300 times the largest default grid (31 values), yet quick to build
MAX_GRID_CANDIDATES = 10_000


def grid_from_range(family, lo: float, hi: float,
                    step: float) -> Tuple[DisguiseSpec, ...]:
    """Candidates of one family from lo to hi inclusive, `step` apart,
    rounded to 10 decimals so that fractional steps land on their
    nominal values. The bounds, and a count of at most
    MAX_GRID_CANDIDATES, are checked before any value is made."""
    for name, bound in (("lo", lo), ("hi", hi), ("step", step)):
        if not np.isfinite(bound):
            raise ValueError(f"grid {name} must be finite, got {bound:g}")
    if step <= 0 or hi < lo:
        raise ValueError(f"bad grid bounds {lo:g}:{hi:g}:{step:g}")
    fam = DisguiseSpec(family, lo).family
    DisguiseSpec(fam, hi)
    if lo < hi and step < 1e-10:
        raise ValueError(f"grid step {step:g} is below 1e-10, the rounding "
                         f"unit of grid values")
    count = int(round((hi - lo) / step)) + 1
    if count > MAX_GRID_CANDIDATES:
        raise ValueError(f"grid {lo:g}:{hi:g}:{step:g} holds {count} "
                         f"candidates, over the {MAX_GRID_CANDIDATES} allowed")
    vals = np.round(lo + step * np.arange(count), 10) + 0.0   # no -0.0
    return tuple(DisguiseSpec(fam, float(v)) for v in vals)


@functools.lru_cache(maxsize=None)
def default_grid(family) -> Tuple[DisguiseSpec, ...]:
    """The stock search grid for a family (integer semitones for the
    pitch families, fixed-step sweeps for the warp families), built
    once per family name or member; a grid is a tuple of frozen specs,
    so every caller may share it."""
    fam = parse_family(family)
    return grid_from_range(fam, *_GRID_DEFS[fam])


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


def _candidate_token(utt: str, spec: DisguiseSpec) -> str:
    """Sidecar token of one candidate: `utt` itself, the plain row, for
    a no-op, else `utt#family:alpha`."""
    return utt if spec.is_identity else f"{utt}#{spec.spec_string()}"


class _RestorationContext:
    """VAD-active STFT power of one utterance, computed once and shared
    by all its candidates."""

    def __init__(self, disguised: AudioBuffer):
        self.sample_rate = disguised.sample_rate
        self.power = np.square(active_magnitudes(disguised))

    def features(self, alpha: float, family: DisguiseFamily) -> np.ndarray:
        return frames_major(candidate_features(
            self.power, self.sample_rate, (DisguiseSpec(family, alpha),)))


@dataclass(frozen=True)
class EmbeddingRows:
    """The embeddings of one utterance's candidates: candidate `spec`
    inverts to row `index[spec]` of `matrix`; candidates with one
    sidecar token share a row."""

    index: Dict[DisguiseSpec, int]
    matrix: np.ndarray

    def embedding(self, spec: DisguiseSpec) -> Embedding:
        return Embedding(self.matrix[self.index[spec]])


def restore_with(disguised: AudioBuffer, alpha: float,
                 family) -> np.ndarray:
    """Features of the disguised utterance restored by a disguise of
    known family and parameter, through its `speaker.warped_filterbank`;
    a no-op gives `mfcc(disguised)`."""
    return _RestorationContext(disguised).features(alpha, family)


def embedding_table(utterances, external: Optional[Dict[str, Embedding]]
                    ) -> Dict[str, EmbeddingRows]:
    """Every embedding a restoration needs, as one `EmbeddingRows` per
    utterance id.

    `utterances` holds (utt_id, audio, candidates) entries; each
    `DisguiseSpec` candidate asks for the embedding of its inversion,
    keyed by `_candidate_token`, so every family's no-op asks for the
    plain row `utt_id`. Given an `external` table, each token is looked
    up there (a missing one is a KeyError) and audio may be None.
    Otherwise each utterance is analyzed once, and its distinct tokens
    are computed together from that analysis, each equal bit for bit to
    its `restore_with` embedding. Raises ValueError when the audio
    mixes sample rates or an utterance cannot be analyzed (naming it).
    """
    utterances = list(utterances)
    rates = sorted({buf.sample_rate for _, buf, _ in utterances
                    if buf is not None})
    if len(rates) > 1:
        raise ValueError("audio mixes sample rates: "
                         + " and ".join(f"{r} Hz" for r in rates))
    table: Dict[str, EmbeddingRows] = {}
    for utt, buf, candidates in utterances:
        wanted: Dict[str, tuple] = {}       # token -> (row, first spec)
        index = {spec: wanted.setdefault(_candidate_token(utt, spec),
                                         (len(wanted), spec))[0]
                 for spec in candidates}
        if not wanted:
            continue
        if external is not None:
            for tok in wanted:
                if tok not in external:
                    raise KeyError(f"utterance {tok!r} missing from external "
                                   f"embedding table")
            matrix = np.array([external[tok].vector for tok in wanted])
        elif buf is None:
            raise KeyError(f"no audio for utterance {utt!r}")
        else:
            try:
                matrix = candidate_embeddings(
                    _RestorationContext(buf).power, buf.sample_rate,
                    [spec for _, spec in wanted.values()])
                if not np.all(np.isfinite(matrix)):
                    raise ValueError("embedding vector contains non-finite "
                                     "values")
            except ValueError as exc:
                raise ValueError(f"{utt}: {exc}") from None
        table[utt] = EmbeddingRows(index, matrix)
    return table


def _search(table: Dict[str, EmbeddingRows], enroll_id: str, test_id: str,
            candidates):
    """Argmin of the `cosine_distances` from the plain row of `enroll_id`
    to the embeddings of `test_id`'s `candidates`; ties prefer the
    candidate nearest its family's no-op parameter, then the smaller
    parameter. Returns the best (spec, distance) and every one scored."""
    ref, test = table[enroll_id], table[test_id]
    rows = test.matrix[[test.index[s] for s in candidates]]
    scored = list(zip(candidates, cosine_distances(
        rows, ref.matrix[ref.index[NO_OP]]).tolist()))
    best = min(scored, key=lambda c: (
        c[1], abs(c[0].param - IDENTITY_PARAMS[c[0].family]), c[0].param))
    return best, scored


def parse_restoration(name: str) -> Tuple[str, Tuple[DisguiseSpec, ...]]:
    """Restoration method id -> (kind, candidates). Accepted: "none" (a
    search over the one candidate `NO_OP`), "f0ratio" (the default
    pitch-freq grid, snapped to by the F0 ratio), a family name or
    "grid:<family>" (a search over the family's default grid)."""
    if name == "none":
        return "grid", (NO_OP,)
    if name == "f0ratio":
        return "f0ratio", default_grid(DisguiseFamily.PITCH_FREQ)
    return "grid", default_grid(name[len("grid:"):]
                                if name.startswith("grid:") else name)


def search_pairs(audio: Dict[str, Optional[AudioBuffer]], pairs, methods,
                 external: Optional[Dict[str, Embedding]], f0_fallback: bool):
    """Score each (enroll_id, test_id) pair under each (kind, grid)
    method, from one `embedding_table`.

    A grid scores all its candidates; "f0ratio" scores the one whose
    parameter is nearest the F0 ratio of the pair's mean F0s. With
    `f0_fallback` an unvoiced side makes that ratio 0; without, it raises
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

    def candidates(kind: str, grid):
        """The candidates of one method, per pair."""
        if kind != "f0ratio":
            return [grid] * len(pairs)
        ratios = [0.0 if fell_back else f0_ratio_alpha(f0[e], f0[t])
                  for (e, t), fell_back in zip(pairs, unvoiced)]
        return [(min(grid, key=lambda s: abs(s.param - r)),) for r in ratios]

    plan = [candidates(kind, grid) for kind, grid in methods]
    needs: Dict[str, dict] = {}       # utt -> {spec: None}
    for i, (e, t) in enumerate(pairs):
        needs.setdefault(e, {})[NO_OP] = None
        need = needs.setdefault(t, {} if external is not None
                               else {NO_OP: None})
        for per_pair in plan:
            need.update(dict.fromkeys(per_pair[i]))
    table = embedding_table(
        ((u, audio.get(u), cands) for u, cands in needs.items()), external)
    results = [[_search(table, e, t, cands)
                for (e, t), cands in zip(pairs, per_pair)]
               for per_pair in plan]
    return table, results, sum(unvoiced) if reads_f0 else None


def restore_pair(enrolled: Optional[AudioBuffer],
                 disguised: Optional[AudioBuffer], kind: str,
                 grid: Optional[Tuple[DisguiseSpec, ...]] = None,
                 external: Optional[Dict[str, Embedding]] = None,
                 enroll_id: str = "enroll", test_id: str = "test"
                 ) -> RestorationResult:
    """Estimate the disguise of `disguised` against `enrolled`.

    `kind` "grid" inverts with every candidate of `grid` and keeps the
    one whose restored embedding lands closest to the enrolled speaker;
    ties prefer the no-op (then the smaller parameter), so undisguised
    input maps to "no disguise". `kind` "f0ratio" snaps the semitone
    offset implied by the two mean F0s to the grid, which must hold
    pitch families only, and scores that one inversion; unlike
    `run_matrix`, which falls back to the no-op, it raises
    UnvoicedUtteranceError naming a side without voiced frames. The
    grid is a tuple of `DisguiseSpec`s that must include a no-op, and
    defaults to pitch-freq's; the chosen candidate names the family.
    The ids name the two sides in an `external` table (see
    `embedding_table`) and must differ.
    """
    if kind not in ("grid", "f0ratio"):
        raise ValueError(f"restoration kind must be 'grid' or 'f0ratio', "
                         f"got {kind!r}")
    if grid is None:
        grid = default_grid(DisguiseFamily.PITCH_FREQ)
    if not any(spec.is_identity for spec in grid):
        # else a search over undisguised audio cannot settle on "none"
        noops = dict.fromkeys(
            f"{s.family.value}:{IDENTITY_PARAMS[s.family]:g}" for s in grid)
        raise ValueError("grid must include a no-op candidate: "
                         + (" or ".join(noops) or "it is empty"))
    if kind == "f0ratio" and any(spec.family not in SEMITONE_FAMILIES
                                 for spec in grid):
        raise ValueError("F0-ratio restoration estimates semitones; family "
                         "must be pitch-freq or pitch-time")
    if enroll_id == test_id:
        # the test's no-op row would replace the enrollment's
        raise ValueError(f"utterance id {enroll_id!r} names both the "
                         f"enrolled and the disguised audio")
    _, [[((best, d_hat), scored)]], _ = search_pairs(
        {enroll_id: enrolled, test_id: disguised}, [(enroll_id, test_id)],
        [(kind, grid)], external, f0_fallback=False)
    return RestorationResult(best.param, d_hat, best.family,
                             "f0-ratio" if kind == "f0ratio" else kind,
                             [(spec.param, d) for spec, d in scored])
