"""Order estimation for ring endomorphisms.

The quantum phase-measurement subroutine is realized as a faithful classical
simulation: given the true order r of the endomorphism, a measurement outcome
k in [0, N) with N = 2^(2*ell+1) is drawn either from the exact closed-form
outcome distribution (``exact-dist``) or from the idealized model where a
uniform j in [0, r) yields k = round(j*N/r) (``idealized``).  Classical
post-processing (continued-fraction reconstruction, candidate assembly,
verification and minimization on cofactor powers) is shared by both and by
the ``exact`` reference backend.  A found estimate carries the cofactor
powers of its order, s^(d/rad d) and s^(d/p) for each prime p | d, which are
exactly the maps the factorization engine splits with.

The simulation needs the true order.  Callers that already know it (the
factorization engine derives it from a classical shadow computation) pass it
via ``true_order``; otherwise it is found by iterated composition, which is
only viable for small orders.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .fields import factor_int
from .poly import Endo, frobenius_power_sequence, modcomp
from .rng import make_rng, rand_below

__all__ = [
    "PhaseParams",
    "RunRecord",
    "OrderEstimate",
    "OracleConfig",
    "OrderOracle",
    "measurement_distribution",
    "sample_measurement",
    "rational_reconstruct",
    "exact_order",
    "cofactor_powers",
    "estimate_order",
    "factor_int",
]

MAX_EXACT_N = 1 << 20  # largest N for which the exact distribution is tabulated
DEFAULT_ORDER_CAP = 1 << 16  # iterated-composition budget when no hint is given

MODE_EXACT_DIST = "exact-dist"
MODE_IDEALIZED = "idealized"
MODE_AUTO = "auto"

BACKEND_SIM = "quantum-sim"
BACKEND_EXACT = "exact"


class PhaseParams:
    """Precision parameters: ell phase bits give m = 2*ell + 1, N = 2^m."""

    __slots__ = ("ell", "m", "N")

    def __init__(self, ell: int):
        if ell < 1:
            raise errors.BadInput("ell must be >= 1")
        self.ell = ell
        self.m = 2 * ell + 1
        self.N = 1 << self.m

    def __repr__(self):
        return f"PhaseParams(ell={self.ell}, m={self.m}, N={self.N})"


@dataclass
class RunRecord:
    """One measurement: outcome k, modulus N, reconstructed j/r, verified?"""

    k: int
    N: int
    j: int
    r: int
    verified: bool


# What cofactor_powers(s, c) returns: (s^(c/rad c), {p: s^(c/p) for primes p | c}).
_Powers = tuple[Endo, dict[int, Endo]]


@dataclass
class OrderEstimate:
    order: int | None
    attempts: int
    transcript: list[RunRecord] = field(default_factory=list)
    # cofactor_powers(s, order) when found; a foreign oracle may leave it None.
    powers: _Powers | None = None

    @property
    def found(self) -> bool:
        return self.order is not None


@dataclass
class OracleConfig:
    backend: str = BACKEND_SIM
    mode: str = MODE_AUTO
    max_attempts: int = 4
    seed: int | None = None
    order_cap: int = DEFAULT_ORDER_CAP


# ----------------------------------------------------------------------
# Measurement model.
# ----------------------------------------------------------------------


def _block_mass(theta: np.ndarray, M: int, N: int) -> np.ndarray:
    """|sum_{z<M} exp(2 pi i theta z / N)|^2, elementwise over theta."""
    if M == 0:
        return np.zeros(len(theta))
    out = np.empty(len(theta), dtype=np.float64)
    zero = theta == 0
    out[zero] = float(M) * float(M)
    nz = ~zero
    # sin^2 is invariant under the argument shifting by pi, so reduce the
    # numerator angle exactly in integers before any float rounding.
    num = (theta[nz] * M) % N
    s = np.sin(np.pi * num / N)
    d = np.sin(np.pi * theta[nz] / N)
    out[nz] = (s / d) ** 2
    return out


def measurement_distribution(r: int, pp: PhaseParams) -> np.ndarray:
    """Exact outcome distribution over k in [0, N) for true order r.

    Averaging over the r residue classes b, of which rho = N mod r contain
    q0 + 1 = floor(N/r) + 1 points and the rest q0, gives

        Pr(k) = (rho * |S_{q0+1}(theta)|^2 + (r - rho) * |S_{q0}(theta)|^2) / N^2

    with theta = k*r mod N and S_M the geometric phase sum.
    """
    if r < 1:
        raise errors.BadInput("order must be >= 1")
    N = pp.N
    if N > MAX_EXACT_N:
        raise errors.TooLarge(
            f"N = {N} exceeds the exact-distribution limit {MAX_EXACT_N}"
        )
    q0, rho = divmod(N, r)
    theta = (np.arange(N, dtype=np.int64) * (r % N)) % N
    probs = rho * _block_mass(theta, q0 + 1, N)
    if r - rho and q0:
        probs = probs + (r - rho) * _block_mass(theta, q0, N)
    return probs / (float(N) * float(N))


_cdf_cache: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
_CDF_CACHE_MAX = 8


def _cdf_for(r: int, pp: PhaseParams) -> np.ndarray:
    key = (r, pp.ell)
    hit = _cdf_cache.get(key)
    if hit is not None:
        _cdf_cache.move_to_end(key)
        return hit
    cdf = np.cumsum(measurement_distribution(r, pp))
    _cdf_cache[key] = cdf
    if len(_cdf_cache) > _CDF_CACHE_MAX:
        _cdf_cache.popitem(last=False)
    return cdf


def _round_half_even(num: int, den: int) -> int:
    """round(num/den) with ties to even, in exact integer arithmetic."""
    q, rem = divmod(num, den)
    twice = 2 * rem
    if twice > den or (twice == den and q % 2 == 1):
        q += 1
    return q


def sample_measurement(r: int, pp: PhaseParams, mode: str, rng) -> int:
    """Draw one outcome k for true order r."""
    if r < 1:
        raise errors.BadInput("order must be >= 1")
    if mode == MODE_EXACT_DIST:
        cdf = _cdf_for(r, pp)
        u = rng.random()
        k = int(np.searchsorted(cdf, u, side="right"))
        return min(k, pp.N - 1)
    if mode == MODE_IDEALIZED:
        j = rand_below(rng, r)
        return _round_half_even(j * pp.N, r) % pp.N
    raise errors.BadInput(f"unknown sampling mode {mode!r}")


def rational_reconstruct(k: int, N: int, bound: int) -> tuple[int, int]:
    """Best rational j/r approximating k/N with r <= bound, in lowest terms.

    Returns the continued-fraction convergent of k/N with the largest
    denominator not exceeding ``bound``; (0, 1) for k = 0.
    """
    if N < 1 or not 0 <= k < N or bound < 1:
        raise errors.BadInput("need 0 <= k < N and bound >= 1")
    a, b = k, N
    h_prev, h_cur = 0, 1
    d_prev, d_cur = 1, 0
    best = (0, 1)
    while b:
        q = a // b
        a, b = b, a - q * b
        h_prev, h_cur = h_cur, q * h_cur + h_prev
        d_prev, d_cur = d_cur, q * d_cur + d_prev
        if d_cur > bound:
            break
        best = (h_cur, d_cur)
    return best


# ----------------------------------------------------------------------
# Classical order computation and verification.
# ----------------------------------------------------------------------


def exact_order(s: Endo, cap: int | None = None) -> int:
    """Order of ``s`` by iterated composition; CapExceeded past ``cap``."""
    ident = s.identity_image()
    cur = s.image
    r = 1
    while cur != ident:
        cur = modcomp(cur, s.image, s.modulus)
        r += 1
        if cap is not None and r > cap:
            raise errors.CapExceeded(
                f"order exceeds cap {cap}; pass true_order if it is known"
            )
    return r


def cofactor_powers(s: Endo, c: int) -> _Powers:
    """(s^(c/rad c), {p: s^(c/p)}) over the primes p | c, rad c their product.

    One square-and-multiply to c/rad c, then recursive halving over the
    primes, each taken to the first power.  For c = 1 this is (s, {}).
    """
    primes = sorted(factor_int(c))
    u = s.pow(c // math.prod(primes))
    return u, dict(zip(primes, frobenius_power_sequence(u, [(p, 1) for p in primes])))


def _order_from(s: Endo, cands: set[int], rejected: list[int]) -> tuple[int, _Powers] | None:
    """The order of s and its cofactor powers, if a candidate is its multiple.

    A candidate c is verified on its cofactor powers: s^c is s^(c/p0) raised
    to p0, the smallest prime of c.  Candidates are tried largest first, and
    one that divides a rejected candidate is skipped, since s^c = 1 gives
    s^r = 1 for every multiple r of c; so when the lcm of the two
    reconstructions is a candidate, one verification settles the attempt.
    Rejected candidates are appended to ``rejected``, which the caller keeps
    across attempts on the same s.
    The order divides c/p for every prime p whose cofactor power is the
    identity, so a verified c is minimized by dividing those primes out and
    recomputing until no cofactor power is the identity.
    """
    for c in sorted(cands, reverse=True):
        if any(r % c == 0 for r in rejected):
            continue
        u, imgs = powers = cofactor_powers(s, c)
        p0 = min(imgs, default=None)
        if not (u if p0 is None else imgs[p0].pow(p0)).is_identity():  # s^c
            rejected.append(c)
            continue
        while (drop := math.prod(p for p, img in powers[1].items() if img.is_identity())) > 1:
            c //= drop
            powers = cofactor_powers(s, c)
        return c, powers
    return None


# ----------------------------------------------------------------------
# The estimator.
# ----------------------------------------------------------------------


def estimate_order(
    s: Endo,
    ell: int,
    cfg: OracleConfig | None = None,
    rng=None,
    true_order: int | None = None,
) -> OrderEstimate:
    """Estimate the order of ``s`` with ell bits of phase precision.

    Each attempt draws two measurements, reconstructs candidate orders by
    continued fractions, and tests candidates (the two reconstructions and
    their lcm, capped at 2^ell) largest first on their cofactor powers.  A
    verified candidate is minimized to the exact order, whose cofactor powers
    the estimate carries, and a reconstruction is marked verified when that
    order divides it.  Returns a failed estimate after ``max_attempts``
    attempts without a verified candidate.
    """
    if cfg is None:
        cfg = OracleConfig()
    if ell < 1:
        raise errors.BadInput("ell must be >= 1")
    if rng is None:
        rng = make_rng(cfg.seed)
    bound = 1 << ell

    if cfg.backend == BACKEND_EXACT:
        if true_order is None:
            try:
                r0 = exact_order(s, cap=min(bound, cfg.order_cap))
            except errors.CapExceeded:
                return OrderEstimate(None, 1)
        else:
            r0 = true_order
        found = _order_from(s, {r0} if r0 <= bound else set(), [])
        if found is None:
            return OrderEstimate(None, 1)
        return OrderEstimate(found[0], 1, powers=found[1])
    if cfg.backend != BACKEND_SIM:
        raise errors.BadInput(f"unknown backend {cfg.backend!r}")

    r_true = true_order
    if r_true is None:
        r_true = exact_order(s, cap=cfg.order_cap)
    pp = PhaseParams(ell)
    mode = cfg.mode
    if mode == MODE_AUTO:
        mode = MODE_EXACT_DIST if pp.N <= MAX_EXACT_N else MODE_IDEALIZED

    transcript: list[RunRecord] = []
    rejected: list[int] = []
    for attempt in range(1, cfg.max_attempts + 1):
        runs = []
        for _ in range(2):
            k = sample_measurement(r_true, pp, mode, rng)
            j, r_cand = rational_reconstruct(k, pp.N, bound)
            runs.append((k, j, r_cand))
        cands = {rc for (_, _, rc) in runs if 1 <= rc <= bound}
        l = math.lcm(runs[0][2], runs[1][2])
        if 1 <= l <= bound:
            cands.add(l)
        found = _order_from(s, cands, rejected)
        for k, j, rc in runs:
            # s^rc = 1 exactly when the order divides rc.
            ok = found is not None and rc in cands and rc % found[0] == 0
            transcript.append(RunRecord(k, pp.N, j, rc, ok))
        if found is not None:
            return OrderEstimate(found[0], attempt, transcript, found[1])
    return OrderEstimate(None, cfg.max_attempts, transcript)


class OrderOracle:
    """Shared front end the factorization engine calls for order estimates."""

    def __init__(self, cfg: OracleConfig | None = None):
        self.cfg = cfg if cfg is not None else OracleConfig()

    def estimate(
        self, s: Endo, ell: int, rng, true_order: int | None = None
    ) -> OrderEstimate:
        return estimate_order(s, ell, self.cfg, rng, true_order=true_order)
