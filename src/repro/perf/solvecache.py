"""Incremental re-solve state shared across Algorithm 1 invocations.

Algorithm 1 calls ``solve_caching`` once per subgradient iteration, and the
online controllers repeat that over windows overlapping in ``w - 1`` slots,
so repeated per-SBS ``P1`` subproblems come up across a run — the stall
re-anchor and the best-dual recovery step re-solve byte-identical prices by
construction. :class:`SolveCache` carries the reuse state for those repeats
(DESIGN.md, "Incremental re-solve"):

- an exact **per-SBS memo**: each SBS solve is keyed on a blake2b digest of
  its ``(c_slice, x_initial_slice, cap, beta)`` bytes; a hit skips the
  solve entirely and returns the stored ``(x, objective)``. Because the key
  is digest-exact, hits cannot change any numeric output — a hit is the
  bitwise answer a cold solve would produce.
- plain **hit/miss counters**, incremented by the owner in the parent
  process (ContextVars do not cross pool workers), so recorded metric
  streams stay byte-identical across serial/thread/process executors.

A cache is owned by one logical solve sequence — a controller ``plan()``
or a single ``solve_primal_dual`` call — never shared across concurrently
running plans, which keeps counter ordering deterministic.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.types import FloatArray

#: Memo entries retained per cache (LRU). A 100-slot online run performs a
#: few hundred subgradient iterations, each contributing one entry per SBS,
#: so the default never evicts in practice while still bounding memory.
MEMO_LIMIT = 4096


def p1_digest(c: FloatArray, beta: float, cap: int, x0: FloatArray) -> bytes:
    """Exact identity of one SBS's ``P1`` subproblem, as a blake2b digest.

    Keyed on the raw bytes of the price slice and initial cache state plus
    the packed ``(cap, beta)`` scalars and the slice shape — byte-equal
    inputs, and only byte-equal inputs, collide (up to hash collisions,
    negligible at 16-byte digests).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<qqqd", c.shape[0], c.shape[1], cap, beta))
    h.update(np.ascontiguousarray(c).tobytes())
    h.update(np.ascontiguousarray(x0).tobytes())
    return h.digest()


@dataclass
class SolveCache:
    """Reuse state for a sequence of related ``P1`` solves.

    Attributes
    ----------
    memo:
        LRU digest -> ``(x_bits, objective)`` map; ``x_bits`` is the
        integral trajectory stored compactly as ``uint8``.
    hits, misses:
        Memo lookup counters (exact skips vs. real solves).
    """

    memo: "OrderedDict[bytes, tuple[np.ndarray, float]]" = field(
        default_factory=OrderedDict
    )
    hits: int = 0
    misses: int = 0
    memo_limit: int = MEMO_LIMIT

    def lookup(self, key: bytes) -> tuple[FloatArray, float] | None:
        """Return the memoized ``(x, objective)`` for ``key``, if present.

        Counts the hit/miss; the returned trajectory is a fresh float
        array (callers may write it into larger buffers).
        """
        entry = self.memo.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self.memo.move_to_end(key)
        x_bits, obj = entry
        return x_bits.astype(np.float64), obj

    def store(self, key: bytes, x: FloatArray, objective: float) -> None:
        """Memoize a solved ``(x, objective)`` under ``key`` (LRU-bounded)."""
        self.memo[key] = (x.astype(np.uint8), objective)
        self.memo.move_to_end(key)
        while len(self.memo) > self.memo_limit:
            self.memo.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the memo (0 when none)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Counter snapshot for telemetry and benchmark reports."""
        return {
            "p1_memo_hits": self.hits,
            "p1_memo_misses": self.misses,
            "p1_memo_hit_rate": self.hit_rate,
        }
