"""Algorithm 7: SeekUB — a tight upper bound on π̃(O⃗, R₁).

Exploits Theorem 3.2 applied in the sampling space: the endpoint runs of
Search certify lower bounds on π̃(T⃗*) in terms of π̃(O⃗) and γ, which invert
into upper bounds on π̃(O⃗) that are usually much tighter than the trivial
π̃(S⃗*)/λ (Lemma B.8 proves correctness of every branch).
"""
from __future__ import annotations

from repro.core.rm_oracle import OracleResult


def seek_ub(res: OracleResult, lam: float) -> float:
    """Upper bound z on π̃(O⃗, R₁), from the RM_with_Oracle result on R₁."""
    h = len(res.allocation)
    trivial = res.pi_star / lam
    if h == 1 or res.search is None:
        return trivial
    sr = res.search
    b1 = sr.t1.b if sr.t1 is not None else -1
    z = trivial
    if b1 < sr.b_min:
        # Search degenerated at γ=0: T₂* = ThresholdGreedy(0), b₂ < b_min.
        if sr.t2 is not None:
            z = 6.0 * sr.pi2
    elif sr.t2 is not None:
        if sr.t2.b == 0:
            z = 2.0 * sr.pi2 + h * sr.gamma2
        elif sr.t2.b == 1:
            z = 6.0 * sr.pi2 + h * sr.gamma2
    else:
        # b₁ ≥ b_min and the upper endpoint was never run: γ₁ is near γ_max.
        z = sr.pi1 / lam
    return min(z, trivial)
