"""Positive profiles phi on the half line and their regularity metadata.

A model is always held through log phi; downstream kernels exponentiate sums
and differences of logs only.  Built-in families:

    exp-decay(c)            exp(-c x)                          c > 0
    power(c)                (1+x)^(-c)                         c > 1/2
    stretched-exp(c)        exp(-(1+x)^c)                      c > 0
    oscillating             exp(-x - sin(e^x))
    scattering-profile(c,z) exp(-c x - zeta(x))                c > 0
    tabulated               piecewise-linear log phi from samples
    custom-log-profile      user callables

Decay metadata is the sandwich c1*exp(-sigma) <= phi <= c2*exp(-sigma) with
sigma'(x) >= rate, attached automatically where the family admits a tight
choice.  A power profile never gets one (sub-exponential decay), and no
automatic discovery is attempted for user profiles.

phi' is only assumed locally square-integrable; for tabulated input that
regularity is a user obligation and is not (and cannot be) checked here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidParameterError,
    MissingDecayError,
    NegativeArgumentError,
    NonPositiveSampleError,
)
from .lse_quad import log_integral_exp

_L2_LOG_DROP = 46.0  # integrate phi^2 until log phi fell this far below its max


@dataclass(frozen=True)
class Zeta:
    """Bounded perturbation entering phi = exp(-c x - zeta(x))."""

    fn: Callable[[np.ndarray], np.ndarray]
    sup: float
    dfn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d2fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = "zeta"


def inv_power_zeta(k: float = 1.0, alpha: float = 1.0) -> Zeta:
    """zeta(x) = k (1+x)^(-alpha), the standard scattering test family."""
    if alpha <= 0:
        raise InvalidParameterError(f"inv-power zeta needs alpha > 0, got {alpha}")
    return Zeta(
        fn=lambda x: k * (1.0 + np.asarray(x, dtype=float)) ** (-alpha),
        dfn=lambda x: -k * alpha * (1.0 + np.asarray(x, dtype=float)) ** (-alpha - 1.0),
        d2fn=lambda x: k * alpha * (alpha + 1.0)
        * (1.0 + np.asarray(x, dtype=float)) ** (-alpha - 2.0),
        sup=abs(k),
        label=f"{k:g}*(1+x)^-{alpha:g}",
    )


@dataclass(frozen=True)
class PhiSpec:
    """Declarative description of a profile; realized by make_phi."""

    kind: str
    params: dict = field(default_factory=dict)

    @classmethod
    def exp_decay(cls, c: float) -> "PhiSpec":
        return cls("exp-decay", {"c": float(c)})

    @classmethod
    def power(cls, c: float) -> "PhiSpec":
        return cls("power", {"c": float(c)})

    @classmethod
    def stretched_exp(cls, c: float) -> "PhiSpec":
        return cls("stretched-exp", {"c": float(c)})

    @classmethod
    def oscillating(cls) -> "PhiSpec":
        return cls("oscillating", {})

    @classmethod
    def scattering_profile(cls, c: float, zeta: Zeta) -> "PhiSpec":
        return cls("scattering-profile", {"c": float(c), "zeta": zeta})

    @classmethod
    def tabulated(cls, x, values) -> "PhiSpec":
        return cls("tabulated", {"x": np.asarray(x, dtype=float),
                                 "values": np.asarray(values, dtype=float)})

    @classmethod
    def from_csv(cls, path) -> "PhiSpec":
        data = np.loadtxt(path, delimiter=",", dtype=float)
        if data.ndim != 2 or data.shape[1] != 2:
            raise InvalidParameterError(f"{path}: expected two columns (x, phi)")
        return cls.tabulated(data[:, 0], data[:, 1])

    @classmethod
    def custom(cls, log_phi, dlog_phi=None, d2log_phi=None, decay=None,
               label: str = "custom") -> "PhiSpec":
        return cls("custom-log-profile", {
            "log_phi": log_phi, "dlog_phi": dlog_phi, "d2log_phi": d2log_phi,
            "decay": decay, "label": label,
        })


@dataclass(frozen=True)
class DecayInfo:
    """Sandwich c1 e^{-sigma} <= phi <= c2 e^{-sigma}, sigma' >= rate > 0."""

    rate: float
    c_lower: float
    c_upper: float
    sigma: Callable[[np.ndarray], np.ndarray]
    dsigma: Callable[[np.ndarray], np.ndarray]

    def kernel_bound_const(self) -> float:
        """Prefactor c2^3 / (2 c c1^3) of the off-diagonal kernel bound."""
        return self.c_upper**3 / (2.0 * self.rate * self.c_lower**3)

    def tail_l2sq(self, X: float) -> float:
        """Upper estimate of int_X^inf phi^2 from the sandwich."""
        return self.c_upper**2 * math.exp(-2.0 * float(self.sigma(X))) / (2.0 * self.rate)


@dataclass(frozen=True)
class PhiModel:
    """Realized profile: log phi plus optional derivatives and decay data."""

    kind: str
    label: str
    log_phi: Callable[[np.ndarray], np.ndarray]
    dlog_phi: Optional[Callable[[np.ndarray], np.ndarray]]
    d2log_phi: Optional[Callable[[np.ndarray], np.ndarray]]
    decay: Optional[DecayInfo]
    l2_norm_phi: float


@dataclass(frozen=True)
class DecayReport:
    holds: bool
    worst_margin: float


def _as_nonneg(x):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise NegativeArgumentError("profiles live on x >= 0")
    return arr


def _l2_window(log_phi, x0: float = 8.0, cap: float = 2.0e4) -> float:
    """Smallest windowed X where log phi dropped _L2_LOG_DROP below its max."""
    X = x0
    probe = np.linspace(0.0, X, 257)
    peak = float(np.max(log_phi(probe)))
    while float(log_phi(np.asarray(X))) > peak - _L2_LOG_DROP:
        X *= 1.6
        if X > cap:
            raise InvalidParameterError(
                "profile does not decay enough to estimate its L2 norm; "
                "supply decay metadata or a finite-l2 profile")
        peak = max(peak, float(np.max(log_phi(np.linspace(0.0, X, 257)))))
    return X


def _l2_norm_by_quadrature(log_phi, decay: Optional[DecayInfo], label: str) -> float:
    """||phi|| from a windowed quadrature plus the sandwich tail; an error
    (no decay, or a log phi that is NaN) names the profile label."""
    try:
        X = _l2_window(log_phi)
        head = math.exp(log_integral_exp(lambda s: 2.0 * log_phi(s), 0.0, X))
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{label}: {exc}") from None
    tail = decay.tail_l2sq(X) if decay is not None else 0.0
    return math.sqrt(head + tail)


def make_phi(spec: PhiSpec) -> PhiModel:
    """Realize a PhiSpec, filling derivatives and decay metadata per kind.

    Raises InvalidParameterError when the kind-specific validity range is
    violated (e.g. power needs c > 1/2 for phi in L2) and
    NonPositiveSampleError for tabulated input that is not strictly positive.
    """
    kind = spec.kind
    p = spec.params

    if kind == "exp-decay":
        c = p["c"]
        if c <= 0:
            raise InvalidParameterError(f"exp-decay needs c > 0, got {c}")
        decay = DecayInfo(c, 1.0, 1.0,
                          sigma=lambda x, c=c: c * np.asarray(x, dtype=float),
                          dsigma=lambda x, c=c: np.full_like(np.asarray(x, dtype=float), c))
        return PhiModel(
            kind, f"exp-decay(c={c:g})",
            log_phi=lambda x, c=c: -c * _as_nonneg(x),
            dlog_phi=lambda x, c=c: np.full_like(_as_nonneg(x), -c),
            d2log_phi=lambda x: np.zeros_like(_as_nonneg(x)),
            decay=decay, l2_norm_phi=1.0 / math.sqrt(2.0 * c))

    if kind == "power":
        c = p["c"]
        if c <= 0.5:
            raise InvalidParameterError(f"power needs c > 1/2 for phi in L2, got {c}")
        return PhiModel(
            kind, f"power(c={c:g})",
            log_phi=lambda x, c=c: -c * np.log1p(_as_nonneg(x)),
            dlog_phi=lambda x, c=c: -c / (1.0 + _as_nonneg(x)),
            d2log_phi=lambda x, c=c: c / (1.0 + _as_nonneg(x)) ** 2,
            decay=None, l2_norm_phi=1.0 / math.sqrt(2.0 * c - 1.0))

    if kind == "stretched-exp":
        c = p["c"]
        if c <= 0:
            raise InvalidParameterError(f"stretched-exp needs c > 0, got {c}")
        log_phi = lambda x, c=c: -((1.0 + _as_nonneg(x)) ** c)
        decay = None
        if c >= 1.0:  # sigma' = c (1+x)^(c-1) >= c only from c >= 1 on
            decay = DecayInfo(
                c, 1.0, 1.0,
                sigma=lambda x, c=c: (1.0 + np.asarray(x, dtype=float)) ** c,
                dsigma=lambda x, c=c: c * (1.0 + np.asarray(x, dtype=float)) ** (c - 1.0))
        label = f"stretched-exp(c={c:g})"
        return PhiModel(
            kind, label,
            log_phi=log_phi,
            dlog_phi=lambda x, c=c: -c * (1.0 + _as_nonneg(x)) ** (c - 1.0),
            d2log_phi=lambda x, c=c: -c * (c - 1.0) * (1.0 + _as_nonneg(x)) ** (c - 2.0),
            decay=decay,
            l2_norm_phi=_l2_norm_by_quadrature(log_phi, decay, label))

    if kind == "oscillating":
        def log_phi(x):
            # the quadrature's hot integrand: one check of x, exp and sin in place
            x = _as_nonneg(x)
            s = np.exp(x, out=np.empty_like(x))
            np.sin(s, out=s)
            return np.subtract(-x, s, out=s)[()]  # a float for a 0-d x

        # tightest sandwich from |sin| <= 1: sigma(x) = x, e^-1 <= phi e^x <= e
        decay = DecayInfo(
            1.0, math.exp(-1.0), math.e,
            sigma=lambda x: np.asarray(x, dtype=float),
            dsigma=lambda x: np.ones_like(np.asarray(x, dtype=float)))
        return PhiModel(
            kind, "oscillating",
            log_phi=log_phi,
            dlog_phi=lambda x: -1.0 - np.exp(_as_nonneg(x)) * np.cos(np.exp(_as_nonneg(x))),
            d2log_phi=lambda x: (np.exp(2.0 * _as_nonneg(x)) * np.sin(np.exp(_as_nonneg(x)))
                                 - np.exp(_as_nonneg(x)) * np.cos(np.exp(_as_nonneg(x)))),
            decay=decay,
            l2_norm_phi=_l2_norm_by_quadrature(log_phi, decay, "oscillating"))

    if kind == "scattering-profile":
        c, zeta = p["c"], p["zeta"]
        if c <= 0:
            raise InvalidParameterError(f"scattering-profile needs c > 0, got {c}")
        log_phi = lambda x, c=c, z=zeta: -c * _as_nonneg(x) - z.fn(_as_nonneg(x))
        dlog = None
        if zeta.dfn is not None:
            dlog = lambda x, c=c, z=zeta: -c - z.dfn(_as_nonneg(x))
        d2log = None
        if zeta.d2fn is not None:
            d2log = lambda x, z=zeta: -z.d2fn(_as_nonneg(x))
        decay = DecayInfo(
            c, math.exp(-zeta.sup), math.exp(zeta.sup),
            sigma=lambda x, c=c: c * np.asarray(x, dtype=float),
            dsigma=lambda x, c=c: np.full_like(np.asarray(x, dtype=float), c))
        label = f"scattering(c={c:g}, zeta={zeta.label})"
        return PhiModel(
            kind, label, log_phi=log_phi, dlog_phi=dlog, d2log_phi=d2log, decay=decay,
            l2_norm_phi=_l2_norm_by_quadrature(log_phi, decay, label))

    if kind == "tabulated":
        xs, vals = p["x"], p["values"]
        if xs.ndim != 1 or xs.shape != vals.shape or xs.size < 2:
            raise InvalidParameterError("tabulated input needs matching 1-d arrays, >= 2 samples")
        if xs[0] != 0.0 or np.any(np.diff(xs) <= 0):
            raise InvalidParameterError("tabulated x must increase strictly, starting at 0")
        if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
            raise NonPositiveSampleError("tabulated phi samples must be finite and > 0")
        logs = np.log(vals)
        slope_end = (logs[-1] - logs[-2]) / (xs[-1] - xs[-2])
        if slope_end >= 0:
            raise InvalidParameterError(
                "tabulated profile must decay at its right end (phi in L2)")

        def log_phi(x, xs=xs, logs=logs, s=slope_end):
            arr = _as_nonneg(x)
            out = np.interp(arr, xs, logs)
            beyond = arr > xs[-1]
            if np.any(beyond):
                out = np.where(beyond, logs[-1] + s * (arr - xs[-1]), out)
            return out

        head = math.exp(log_integral_exp(lambda s: 2.0 * log_phi(s), 0.0, float(xs[-1])))
        tail = float(vals[-1]) ** 2 / (-2.0 * slope_end)
        return PhiModel(
            kind, f"tabulated({xs.size} samples)",
            log_phi=log_phi, dlog_phi=None, d2log_phi=None, decay=None,
            l2_norm_phi=math.sqrt(head + tail))

    if kind == "custom-log-profile":
        raw = p["log_phi"]
        log_phi = lambda x, f=raw: np.asarray(f(_as_nonneg(x)), dtype=float)
        dlog = p.get("dlog_phi")
        if dlog is not None:
            dlog = lambda x, f=p["dlog_phi"]: np.asarray(f(_as_nonneg(x)), dtype=float)
        d2log = p.get("d2log_phi")
        if d2log is not None:
            d2log = lambda x, f=p["d2log_phi"]: np.asarray(f(_as_nonneg(x)), dtype=float)
        decay = p.get("decay")
        label = p.get("label", "custom")
        return PhiModel(
            kind, label, log_phi=log_phi, dlog_phi=dlog, d2log_phi=d2log, decay=decay,
            l2_norm_phi=_l2_norm_by_quadrature(log_phi, decay, label))

    raise InvalidParameterError(f"unknown profile kind '{kind}'")


def verify_decay_hypothesis(model: PhiModel, audit_nodes) -> DecayReport:
    """Check c1 e^{-sigma} <= phi <= c2 e^{-sigma} and sigma' >= rate at every
    audit node.  Margins are log-scale slacks; worst_margin is their minimum.
    """
    if model.decay is None:
        raise MissingDecayError(f"{model.label} carries no decay metadata")
    nodes = _as_nonneg(audit_nodes)
    d = model.decay
    lp = model.log_phi(nodes)
    sig = np.asarray(d.sigma(nodes), dtype=float)
    lower = lp - (math.log(d.c_lower) - sig)          # phi >= c1 e^-sigma
    upper = (math.log(d.c_upper) - sig) - lp          # phi <= c2 e^-sigma
    slope = np.asarray(d.dsigma(nodes), dtype=float) - d.rate
    worst = float(np.min([lower, upper, slope]))
    return DecayReport(holds=bool(worst >= -1e-12), worst_margin=worst)
