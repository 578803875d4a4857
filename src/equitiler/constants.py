"""Rational constant hierarchies steering the structural pipeline.

All thresholds are Fractions and all comparisons exact; nothing downstream
touches floating point when deciding.  The ladder gamma << gamma_1 << ... <<
gamma_r << gamma_{r+1} = 1/r is geometric with ratio 10 by default.  For a
chosen part count s, the refinement scales alpha < beta' < beta must fit
strictly inside (gamma_s, gamma_{s+1}); the default ladder leaves only a
factor-10 window there, so they are placed at 2x, 4x, 8x gamma_s.  A custom
ladder with more room gets the wider 10x spacing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from fractions import Fraction
from typing import Optional, Tuple

__all__ = ["ConstantsConfig", "default_constants"]


@dataclass(frozen=True)
class ConstantsConfig:
    r: int
    gamma: Fraction
    gammas: Tuple[Fraction, ...]  # gamma_1 .. gamma_{r+1}, last = 1/r
    alpha: Fraction
    beta_prime: Fraction
    beta: Fraction
    zeta: Fraction
    xi: Fraction = Fraction(2, 25)
    epsilon: Fraction = Fraction(1, 50)
    s: Optional[int] = None
    ladder_ratio: Fraction = Fraction(1, 10)

    def gamma_i(self, i: int) -> Fraction:
        if not (1 <= i <= self.r + 1):
            raise ValueError(f"gamma index {i} outside 1..{self.r + 1}")
        return self.gammas[i - 1]

    def validate(self) -> None:
        r = self.r
        if r < 2:
            raise ValueError("need r >= 2")
        if len(self.gammas) != r + 1:
            raise ValueError(f"need {r + 1} ladder values, got {len(self.gammas)}")
        if self.gammas[-1] != Fraction(1, r):
            raise ValueError("ladder must end at 1/r")
        if not (0 < self.gamma < self.gammas[0]):
            raise ValueError("gamma must sit strictly below gamma_1")
        ratio = self.ladder_ratio
        if self.gamma > self.gammas[0] * ratio:
            raise ValueError("gamma too close to gamma_1")
        for i in range(r):
            if self.gammas[i] > self.gammas[i + 1] * ratio:
                raise ValueError(
                    f"gamma_{i + 1}={self.gammas[i]} too close to gamma_{i + 2}={self.gammas[i + 1]}"
                )
        if self.s is not None:
            if isinstance(self.s, bool) or not isinstance(self.s, int) or not 1 <= self.s <= r:
                raise ValueError(f"s={self.s!r} must be an integer in 1..{r}")
            lo = self.gammas[self.s - 1]
            hi = self.gammas[self.s]
            chain = (lo, self.alpha, self.beta_prime, self.beta, hi)
            for a, b in zip(chain, chain[1:]):
                if not a < b:
                    raise ValueError(
                        f"refinement scales must increase strictly: {chain}"
                    )
        for name in ("xi", "epsilon"):
            v = getattr(self, name)
            if not (0 < v < 1):
                raise ValueError(f"{name}={v} outside (0,1)")
        if not (0 < self.zeta <= Fraction(1, r)):
            raise ValueError(f"zeta={self.zeta} outside (0, 1/r]")

    def for_s(self, s: int) -> "ConstantsConfig":
        """Refinement scales for a concrete part count s (1 <= s <= r)."""
        if not (1 <= s <= self.r):
            raise ValueError(f"s={s} outside 1..{self.r}")
        lo = self.gammas[s - 1]
        hi = self.gammas[s]
        if 1000 * lo < hi:
            alpha, bp, beta = 10 * lo, 100 * lo, 1000 * lo
        else:
            alpha, bp, beta = 2 * lo, 4 * lo, 8 * lo
        out = replace(self, s=s, alpha=alpha, beta_prime=bp, beta=beta, zeta=hi)
        out.validate()
        return out


@lru_cache(maxsize=None)
def default_constants(r: int) -> ConstantsConfig:
    """Ladder gamma_i = (1/r) * 10^-(r+1-i); refinement scales filled per s.
    Built once per r: the config is frozen, so every caller shares it."""
    if r < 2:
        raise ValueError("need r >= 2")
    gammas = tuple(Fraction(1, r) * Fraction(1, 10 ** (r + 1 - i)) for i in range(1, r + 2))
    gamma = gammas[0] / 10
    # Placeholder refinement scales; for_s(s) replaces them before use.
    lo, hi = gammas[0], gammas[1]
    cfg = ConstantsConfig(
        r=r,
        gamma=gamma,
        gammas=gammas,
        alpha=2 * lo,
        beta_prime=4 * lo,
        beta=8 * lo,
        zeta=hi,
    )
    cfg.validate()
    return cfg
