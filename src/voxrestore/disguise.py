"""Voice disguise transforms: pitch scaling and four spectral-warping
families, each invertible from its parameter alone."""

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, istft
from .audio import resample as _resample
from .audio import stft as _stft

WARP_KNOTS = 4097


class DisguiseFamily(str, enum.Enum):
    PITCH_FREQ = "pitch-freq"
    PITCH_TIME = "pitch-time"
    VTLN_BILINEAR = "vtln-bilinear"
    VTLN_QUADRATIC = "vtln-quadratic"
    VTLN_POWER = "vtln-power"
    VTLN_PIECEWISE = "vtln-piecewise"

    def __str__(self) -> str:
        return self.value


# inclusive parameter bounds and the value that makes each family a no-op
PARAM_RANGES = {
    DisguiseFamily.PITCH_FREQ: (-12.0, 12.0),
    DisguiseFamily.PITCH_TIME: (-12.0, 12.0),
    DisguiseFamily.VTLN_BILINEAR: (-0.3, 0.3),
    DisguiseFamily.VTLN_QUADRATIC: (-2.0, 2.0),
    DisguiseFamily.VTLN_POWER: (-0.5, 0.5),
    DisguiseFamily.VTLN_PIECEWISE: (0.5, 1.5),
}

IDENTITY_PARAMS = {
    DisguiseFamily.PITCH_FREQ: 0.0,
    DisguiseFamily.PITCH_TIME: 0.0,
    DisguiseFamily.VTLN_BILINEAR: 0.0,
    DisguiseFamily.VTLN_QUADRATIC: 0.0,
    DisguiseFamily.VTLN_POWER: 0.0,
    DisguiseFamily.VTLN_PIECEWISE: 1.0,
}

VTLN_FAMILIES = (
    DisguiseFamily.VTLN_BILINEAR,
    DisguiseFamily.VTLN_QUADRATIC,
    DisguiseFamily.VTLN_POWER,
    DisguiseFamily.VTLN_PIECEWISE,
)

# the families whose parameter is a semitone offset
SEMITONE_FAMILIES = (DisguiseFamily.PITCH_FREQ, DisguiseFamily.PITCH_TIME)


def parse_family(name) -> DisguiseFamily:
    if isinstance(name, DisguiseFamily):
        return name
    try:
        return DisguiseFamily(str(name))
    except ValueError:
        valid = ", ".join(f.value for f in DisguiseFamily)
        raise ValueError(f"unknown disguise family {name!r} (one of: {valid})")


def semitone_to_scale(alpha: float) -> float:
    """Semitone offset -> frequency scale factor, s = 2**(alpha/12)."""
    if not np.isfinite(alpha):
        raise ValueError("semitone offset must be finite")
    return float(2.0 ** (alpha / 12.0))


def scale_to_semitone(scale: float) -> float:
    """Frequency scale factor -> semitone offset, alpha = 12*log2(s)."""
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError(f"scale factor must be positive, got {scale}")
    return float(12.0 * np.log2(scale))


@dataclass(frozen=True)
class DisguiseSpec:
    """One disguise transform: a family plus its single parameter."""

    family: DisguiseFamily
    param: float

    def __post_init__(self):
        fam = parse_family(self.family)
        object.__setattr__(self, "family", fam)
        p = float(self.param)
        if not np.isfinite(p):
            raise ValueError("disguise parameter must be finite")
        lo, hi = PARAM_RANGES[fam]
        if not (lo <= p <= hi):
            raise ValueError(
                f"parameter {p} outside [{lo}, {hi}] for family {fam.value}")
        object.__setattr__(self, "param", p)
        object.__setattr__(self, "_hash", hash((fam, p)))
        object.__setattr__(self, "_string", f"{fam.value}:{p:g}")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # str hashes are salted per process: a copy recomputes its own
        return DisguiseSpec, (self.family, self.param)

    @property
    def is_identity(self) -> bool:
        return self.param == IDENTITY_PARAMS[self.family]

    def spec_string(self) -> str:
        return self._string

    @classmethod
    def from_string(cls, text: str) -> "DisguiseSpec":
        head, sep, tail = str(text).partition(":")
        if not sep or not tail:
            raise ValueError(
                f"disguise spec {text!r} not of the form family:param")
        try:
            param = float(tail)
        except ValueError:
            raise ValueError(f"non-numeric disguise parameter {tail!r}")
        return cls(parse_family(head.strip()), param)


NO_OP = DisguiseSpec(DisguiseFamily.PITCH_FREQ, 0.0)   # no restoration


class WarpFunction:
    """A monotone frequency map stored as a dense piecewise-linear table.

    Evaluation interpolates the (knots, values) pairs; the inverse
    interpolates the swapped pairs, which inverts the interpolant
    exactly, so composing a warp with its own inverse is identity up
    to float rounding at any point of the domain.
    """

    def __init__(self, knots: np.ndarray, values: np.ndarray):
        knots = np.asarray(knots, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ValueError("warp table must be finite")
        if np.any(np.diff(knots) <= 0) or np.any(np.diff(values) <= 0):
            raise ValueError("warp table must be strictly increasing")
        self.knots = knots
        self.values = values

    def __call__(self, omega):
        return np.interp(omega, self.knots, self.values)

    def inverse(self, omega):
        return np.interp(omega, self.values, self.knots)


def _warp_values(family: DisguiseFamily, param: float,
                 omega: np.ndarray) -> np.ndarray:
    u = omega / np.pi
    if family in SEMITONE_FAMILIES:
        # linear scaling, which is also what resampling the waveform
        # does to its spectrum; deliberately not clipped at pi so that
        # the map stays strictly monotone and exactly invertible
        return semitone_to_scale(param) * omega
    if family is DisguiseFamily.VTLN_BILINEAR:
        z = np.exp(1j * omega)
        out = np.angle((z - param) / (1.0 - param * z))
    elif family is DisguiseFamily.VTLN_QUADRATIC:
        out = omega + param * (u - u * u)
    elif family is DisguiseFamily.VTLN_POWER:
        out = np.pi * u ** (1.0 + param)
    else:   # vtln-piecewise
        lam = param
        omega0 = 7.0 * np.pi / 8.0 if lam <= 1.0 else 7.0 * np.pi / (8.0 * lam)
        upper = lam * omega0 + (np.pi - lam * omega0) / (np.pi - omega0) \
            * (omega - omega0)
        out = np.where(omega <= omega0, lam * omega, upper)
    out[0], out[-1] = 0.0, np.pi
    return out


def build_warp(spec: DisguiseSpec) -> WarpFunction:
    """Tabulate the frequency map of a disguise family on WARP_KNOTS
    evenly spaced knots. Pitch-time gets pitch-freq's linear map: its
    resampling scales the spectrum the same way."""
    knots = np.linspace(0.0, np.pi, WARP_KNOTS)
    if spec.is_identity:
        return WarpFunction(knots, knots.copy())
    return WarpFunction(knots, _warp_values(spec.family, spec.param, knots))


@functools.lru_cache(maxsize=1024)
def warp_indices(spec: DisguiseSpec, n_bins: int, direction: str):
    """Source bin `lo` and weight `frac` of bin `lo + 1` for each of
    `n_bins` bins warped by `spec`, read-only. A no-op gives the
    identity table, built without a warp: every bin reads itself at
    weight 1 (the last one as bin `lo + 1`).

    "forward" reads output bin w from warp^-1(w) and "inverse" from
    warp(w), both clipped to [0, pi]. Each (spec, n_bins, direction) is
    built once.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be forward or inverse, got {direction!r}")
    if spec.is_identity:
        coord = np.arange(n_bins, dtype=np.float64)
    else:
        warp = build_warp(spec)
        omega = np.linspace(0.0, np.pi, n_bins)
        src = warp.inverse(omega) if direction == "forward" else warp(omega)
        coord = np.clip(src / np.pi * (n_bins - 1), 0.0, n_bins - 1.0)
    lo = np.minimum(coord.astype(np.int64), n_bins - 2)
    frac = coord - lo
    lo.flags.writeable = frac.flags.writeable = False
    return lo, frac


def warp_bins(values: np.ndarray, spec: DisguiseSpec,
              direction: str) -> np.ndarray:
    """Resample each row of a (frames, bins) array along the bin axis
    warped by `spec` (see `warp_indices`): the one place a warp is
    applied to spectral values. A no-op gives a copy equal to `values`."""
    lo, frac = warp_indices(spec, values.shape[1], direction)
    return values[:, lo] * (1.0 - frac) + values[:, lo + 1] * frac


def apply_spectral_warp(spectrum: np.ndarray, spec: DisguiseSpec,
                        direction: str) -> np.ndarray:
    """Warp every frame of a complex (frames, bins) spectrum along the
    frequency axis (see `warp_bins`); phases move with the magnitudes."""
    if spectrum.ndim != 2 or spectrum.shape[1] < 2:
        raise ValueError(f"need a (frames, bins) spectrum with bins >= 2, "
                         f"got shape {spectrum.shape}")
    return (warp_bins(np.abs(spectrum), spec, direction)
            * np.exp(1j * warp_bins(np.angle(spectrum), spec, direction)))


def disguise(buf: AudioBuffer, spec: DisguiseSpec) -> AudioBuffer:
    """Apply one disguise transform to an utterance.

    Pitch-time resamples the waveform; every other family round-trips
    through STFT, warps each frame and resynthesizes. Output peaks are
    rescaled to 0.999 only if they exceed it.
    """
    if spec.family is DisguiseFamily.PITCH_TIME:
        out = _resample(buf, semitone_to_scale(spec.param))
    else:
        out = istft(apply_spectral_warp(_stft(buf), spec, "forward"),
                    buf.sample_rate)
    peak = np.max(np.abs(out.samples))
    if peak > 0.999:
        return AudioBuffer(out.samples * (0.999 / peak), out.sample_rate)
    return out

