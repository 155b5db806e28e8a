"""Paired statistics of two sides measured on the same seeds, one pair per
seed: the per-pair change/parent ratios and their median, the pairs the
change wins and loses, and the exact two-sided sign test.

``scripts/bench_pairs.py`` reads its benchmark pairs through this module; a
script that pairs arms or checkouts by seed can import it the same way.
"""
import math

import numpy as np


def ratios(parent, change) -> list:
    """change / parent per pair; the benchmark's end-to-end metrics read above 0."""
    return [c / p for p, c in zip(parent, change)]


def wins_losses(parent, change, better: str) -> tuple:
    """(pairs the change is better in, pairs it is worse in), ``better`` being
    "lower" or "higher"; a tie counts as neither."""
    sign = 1 if better == "higher" else -1
    diffs = [sign * (c - p) for p, c in zip(parent, change)]
    return sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)


def sign_test_p(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p of ``wins`` against ``losses``, ties
    dropped: twice the binomial(n, 1/2) tail at the rarer side, at most 1."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def paired(parent, change, better: str) -> dict:
    """The paired fields of one metric, from its per-pair values."""
    per_pair = ratios(parent, change)
    wins, losses = wins_losses(parent, change, better)
    return {"ratios": per_pair, "ratio_median": float(np.median(per_pair)),
            "wins": wins, "losses": losses, "sign_p": sign_test_p(wins, losses)}
