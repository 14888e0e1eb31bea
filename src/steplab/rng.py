"""Deterministic stream splitting.

Every random draw in the package derives from a single run seed.  Purpose
tags and sample indices are folded into the seed with splitmix64, and the
result keys numpy's counter-based Philox generator, so any sample can be
regenerated in isolation and results never depend on execution order.

A loop that takes one stream per index uses :func:`substreams`: it re-keys a
single Philox generator per index instead of building a fresh one, and gives
the same draws as :func:`substream` for each index.  Building a Philox and
reading its state costs more than a dozen draws, so a loop borrows its
(Philox, Generator, counter-0 state) triple from a module-level idle list
and returns it when the loop ends, is closed or is collected.  A borrowed
triple belongs to one loop alone, so loops may be nested or advanced side
by side; the list holds as many triples as loops were ever open at once.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(x):
    """One splitmix64 mixing round; maps u64 -> u64."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _fold(state, token):
    if isinstance(token, str):
        for b in token.encode():
            state = splitmix64(state ^ b)
        return state
    return splitmix64(state ^ (int(token) & _MASK))


def derive_seed(seed, *tags):
    """Mix purpose tags (ints or strings) into a 64-bit subseed."""
    state = splitmix64(int(seed) & _MASK)
    for tag in tags:
        state = _fold(state, tag)
    return state


def substream(seed, *tags):
    """Philox generator keyed by the (seed, tags) subseed."""
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, *tags)))


# (Philox, Generator, counter-0 state) triples that no open loop holds
_IDLE = []


def substreams(seed, tag, count):
    """Yield, for i < count, the generator that `substream(seed, tag, i)`
    gives.

    It is one generator, re-keyed per index (counter 0, empty buffer), so
    each one must be used before the next one is taken.  A yielded
    generator must not be kept after its loop ends: the loop's triple then
    goes back to the idle list, and the next loop re-keys it.
    """
    base = derive_seed(seed, tag)
    try:
        bits, gen, state = _IDLE.pop()
    except IndexError:
        bits = np.random.Philox(key=0)
        gen = np.random.Generator(bits)
        state = bits.state  # counter 0, empty buffer
    key = state["state"]["key"]  # key[1] stays 0; key[0] is per index
    try:
        for i in range(count):
            key[0] = _fold(base, i)
            bits.state = state
            yield gen
    finally:
        _IDLE.append((bits, gen, state))


def sample_prior(sched, d, count, seed):
    """Draw x_T ~ N(0, sigma_T^2 I), one substream per sample index."""
    out = np.empty((count, d), dtype=np.float64)
    for i, g in enumerate(substreams(seed, "prior", count)):
        g.standard_normal(out=out[i])
    out *= sched.sigma_T
    return out
