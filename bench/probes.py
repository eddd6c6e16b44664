"""Kernel probes: fixed inputs, independent of the workload and its seed.

For each probed modulus n one character chi of a fixed order m is taken,
so the common field Q(zeta_L), L = lcm(n, m), is fixed too:

    n   m   L     parity  r     path
    23  22  506   odd     3, 5  monomial subfield projection
    31  30  930   odd     3, 5
    46  11  506   even    4, 6  general embedding solver (_embedding_solver)
    47  46  2162  odd     3, 5  the largest L of the default float sweep
    49  42  294   odd     3, 5  a prime-power modulus

The coordinate y(chi | (i cot(pi/n))^r) and B_{r,chi} are exact zero when
the parity of chi differs from that of r, and the kernels return early on
zero.  So each character is probed at the two exponents of its own parity,
and every probed element is checked to be nonzero.

Each probe is called once untimed, so that the private caches inside the
kernel (cyclotomic_polynomial, _gauss_support, _galois_cached,
_embedding_solver) are warm, then timed until it has run MIN_CALLS times
and MIN_SECONDS in total; the median call is reported in milliseconds.
The lru-cached public functions are timed uncached through __wrapped__.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

# modulus -> (order of the probed character, the two exponents of its parity)
PROBES = {23: (22, (3, 5)), 31: (30, (3, 5)), 46: (11, (4, 6)), 47: (46, (3, 5)), 49: (42, (3, 5))}
# probes at the first exponent of a modulus, then probes at each of its exponents
PER_N = (
    "cyclotomic.from_polynomial", "cyclotomic.inverse", "cyclotomic.galois",
    "cyclotomic.embed", "cyclotomic.project_to_subfield", "characters.gauss_sum",
)
PER_R = (
    "cyclotomic.mul", "coordinates.coord_definitional",
    "bernoulli.generalized_bernoulli", "coordinates.direct_sum_float",
)
MIN_CALLS = 3
MIN_SECONDS = 0.05
MAX_CALLS = 200


def _time_ms(fn) -> float:
    fn()
    times: list[float] = []
    while len(times) < MIN_CALLS or (sum(times) < MIN_SECONDS and len(times) < MAX_CALLS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000


def probe_names() -> list[str]:
    names = []
    for n, (_, exponents) in PROBES.items():
        names += ["%s.n%d_ms" % (p, n) for p in PER_N]
        names += ["%s.n%d_r%d_ms" % (p, n, r) for r in exponents for p in PER_R]
    return names


def _probes_for(n: int) -> list:
    from charcoords.bernoulli import generalized_bernoulli
    from charcoords.characters import enumerate_characters, gauss_sum
    from charcoords.coordinates import coord_definitional, direct_sum_float
    from charcoords.cotangent import icot_power
    from charcoords.cyclotomic import CycElem, project_to_subfield, to_common_order

    order, exponents = PROBES[n]
    chi = next(c for c in enumerate_characters(n) if c.order == order)
    chif = chi.primitive_part()
    m = chi.order
    L = math.lcm(n, m)
    k = next(k for k in range(2, L) if math.gcd(k, L) == 1)
    a = icot_power(exponents[0], n)
    tau = gauss_sum(chif)
    y = coord_definitional(chi, a)
    yL = y.embed(L)
    # a dense element of the group ring Z[x]/(x^L - 1) with small rational
    # coefficients, the shape gauss_sum and coord_definitional reduce
    poly = [Fraction((7 * i) % 11 - 5, 1 + i % 3) for i in range(L)]
    # in the order of PER_N, then PER_R for each r
    calls = [
        lambda: CycElem.from_polynomial(L, poly),
        a.inverse,
        lambda: yL.galois(k),
        lambda: to_common_order(y, tau),
        lambda: project_to_subfield(yL, m),
        lambda: gauss_sum.__wrapped__(chif),
    ]
    for r in exponents:
        ar = icot_power(r, n)
        yr, taur = to_common_order(coord_definitional(chi, ar), tau)
        if yr.is_zero or generalized_bernoulli(r, chif).is_zero:
            raise ValueError("probe at n=%d, r=%d would time an exact zero" % (n, r))
        calls += [
            lambda yr=yr, taur=taur: yr * taur,
            lambda ar=ar: coord_definitional.__wrapped__(chi, ar),
            lambda r=r: generalized_bernoulli(r, chif),
            lambda r=r: direct_sum_float(chi, r),
        ]
    return calls


def run_probes() -> dict[str, float]:
    """Median milliseconds per call of every probe, by metric name."""
    calls = [fn for n in PROBES for fn in _probes_for(n)]
    return {name: _time_ms(fn) for name, fn in zip(probe_names(), calls, strict=True)}
