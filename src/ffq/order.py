"""Order estimation for ring endomorphisms.

The quantum phase-measurement subroutine is realized as a faithful classical
simulation: given the true order r of the endomorphism, a measurement outcome
k in [0, N) with N = 2^(2*ell+1) is drawn either from the exact closed-form
outcome distribution (``exact-dist``, the default) or from the idealized model
where a uniform j in [0, r) yields k = round(j*N/r) (``idealized``).  The
exact draw is a rejection sampler that needs no table, so it runs at every
precision; ``measurement_distribution`` tabulates the same distribution for
small N and serves as its reference.  Classical
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

MAX_EXACT_N = 1 << 20  # largest N that measurement_distribution tabulates
DEFAULT_ORDER_CAP = 1 << 16  # iterated-composition budget when no hint is given

MODE_EXACT_DIST = "exact-dist"
MODE_IDEALIZED = "idealized"

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
    mode: str = MODE_EXACT_DIST
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


# Empty: sampling builds no tables.  Kept only because the benchmark's span
# recorder (perfbench/spans.py MEMO_TABLES) saves and restores it by name.
_cdf_cache: dict = {}


def _round_half_even(num: int, den: int) -> int:
    """round(num/den) with ties to even, in exact integer arithmetic."""
    q, rem = divmod(num, den)
    twice = 2 * rem
    if twice > den or (twice == den and q % 2 == 1):
        q += 1
    return q


_WORD = 1 << 64
_ULP = 1.0 / (1 << 53)


def _sample_exact(r: int, N: int, rng) -> int:
    """One outcome of the exact distribution, by rejection sampling.

    Pick the block size M as ``measurement_distribution`` weighs it: q0 + 1
    with probability rho*(q0 + 1)/N, else q0.  Given M, Pr(k | M) is
    |S_M(theta_k)|^2 / (N*M).  Each k in [0, N) is base_j + delta for exactly
    one peak j in [0, r), base_j = round(j*N/r), with t = k*r - j*N in
    [-N/2, N/2) on the unwrapped line; theta_k = t mod N.  A proposal draws j
    uniformly and delta from an envelope that bounds |S_M|^2 at every (j,
    delta): M^2 for |delta| <= 1, and A^2*(1/(d-1) - 1/d) for |delta| = d >= 2
    with A = N/(2r), since |t| >= r*(d - 1/2) there and so |S_M|^2 <=
    1/sin^2(pi*t/N) <= A^2/(d - 1/2)^2 <= A^2/(d(d - 1)).  The tail draws
    d = floor(1/U) + 1 with U uniform in (0, 1].  A proposal
    outside its peak's cell is rejected, and one inside is accepted with
    probability |S_M|^2 / envelope, so accepted k follow Pr(k | M) exactly, up
    to the 53-bit grid of the uniforms (64-bit for d) and float rounding of
    the sines.  About 3.5 proposals are drawn per outcome.
    """
    q0, rho = divmod(N, r)
    M = q0 + 1 if rand_below(rng, N) < rho * (q0 + 1) else q0
    if M == 1:
        return rand_below(rng, N)  # |S_1|^2 = 1: every outcome equally likely
    M2 = float(M) * float(M)
    A2 = (N / (2 * r)) ** 2
    center = 3.0 * M2
    total = center + 2.0 * A2
    # j = w % r is uniform over words w below the largest multiple of r.
    span = _WORD - _WORD % r if r < _WORD else 0
    raw = rng.bit_generator.random_raw
    while True:
        words = raw(16).tolist()  # four proposals' worth
        for i in range(0, 16, 4):
            w_j, w_v, w_d, w_a = words[i:i + 4]
            if span:
                if w_j >= span:
                    continue
                j = w_j % r
            else:
                j = rand_below(rng, r)
            v = (w_v >> 11) * _ULP * total
            if v < center:
                delta = min(int(v / M2), 2) - 1
                env = M2
            else:
                d = _WORD // (_WORD - w_d) + 1
                delta = d if v < center + A2 else -d
                env = A2 / (d * (d - 1))
            jN = j * N
            k = _round_half_even(jN, r) + delta
            t = k * r - jN
            if not -N <= 2 * t < N:
                continue
            # Reduce theta and theta*M mod N in integers, folded to [0, N/2]
            # where sin^2 is well conditioned, before any float.
            t = abs(t)
            if t:
                num = t * M % N
                g = (math.sin(math.pi * min(num, N - num) / N) / math.sin(math.pi * t / N)) ** 2
            else:
                g = M2
            if (w_a >> 11) * _ULP * env < g:
                return k % N


def sample_measurement(r: int, pp: PhaseParams, mode: str, rng) -> int:
    """Draw one outcome k for true order r."""
    if r < 1:
        raise errors.BadInput("order must be >= 1")
    if mode == MODE_EXACT_DIST:
        return _sample_exact(r, pp.N, rng)
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

    transcript: list[RunRecord] = []
    rejected: list[int] = []
    for attempt in range(1, cfg.max_attempts + 1):
        runs = []
        for _ in range(2):
            k = sample_measurement(r_true, pp, cfg.mode, rng)
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
