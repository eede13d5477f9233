"""Classical binary linear codes with coset-leader decoding.

A ``LinearCode`` carries four matrices that together form a dual basis of
the length-n bit space:

    generator             k x n      rows span the code
    check                 (n-k) x n  rows span the dual (syndrome map)
    check_complement      k x n      pairs with generator: C_c G^T = I
    generator_complement  (n-k) x n  pairs with check:     P G_c^T = I

The two complements are what make the code usable as one axis of a grid
code: ``check_complement`` rows play the role of encoded-Z operators and
``generator_complement`` rows the role of pure errors.  Stacked, they form
two n x n bases, ``basis`` E = [generator_complement; generator] and
``dual_basis`` D = [check; check_complement], with D E^T = I.

For n <= 20 a code also carries two lazily built, read-only lookup tables,
each filled by a vectorised pass over all 2**n words:

    decode_table  (2**(n-k), n)  row s is the coset leader of syndrome int s
                                 (syndrome bit r has weight 2**r), chosen by
                                 (weight, lexicographic) order
    fail          (2**n,)        fail[v] is True when decoding word v leaves
                                 a logical error: C_c (v xor leader(P v)) != 0

``fail`` is indexed by the word read as a binary numeral, position 0 being
the most significant bit.  It is all a grid code's Monte Carlo kernel needs
from the code (see :mod:`subqec.simulate`).
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from typing import Optional

import numpy as np

from . import gf2

# Syndrome decoding uses a full coset-leader table when the block length
# allows one; above this the decoder searches errors of weight at most
# DECODE_WEIGHT_CAP.  The tables' build enumerates all 2**n words.
_TABLE_MAX_N = 20
_DISTANCE_MAX_K = 24
DECODE_WEIGHT_CAP = 4


_loggers: dict = {}


def _log_debug(logger: str, msg: str, *args) -> None:
    """Log ``msg % args`` at DEBUG on the named logger, attributed to the
    caller.  A record can reach a handler only once the process has
    imported and configured :mod:`logging`, so the module is looked up at
    call time and a process that never imports it does not load it.  The
    logger is bound once per name: ``logging.getLogger`` returns the same
    object for a name every time, and the lookup costs more than the
    disabled call."""
    bound = _loggers.get(logger)
    if bound is None:
        logging = sys.modules.get("logging")
        if logging is None:
            return
        bound = _loggers[logger] = logging.getLogger(logger)
    bound.debug(msg, *args, stacklevel=2)


def _span_words(images: np.ndarray, dtype) -> np.ndarray:
    """XOR of ``images[i]`` over the positions i set in each n-bit word.

    Word v has position i at bit n-1-i.  Built by doubling: the words with
    top bit b are the words below 2**b with position n-1-b added.
    """
    n = images.shape[0]
    images = images.astype(dtype)
    out = np.zeros(1 << n, dtype)
    for b in range(n):
        out[1 << b:2 << b] = out[:1 << b] ^ images[n - 1 - b]
    return out


def _bit_weights(rows: np.ndarray) -> np.ndarray:
    """Per-column integer ``sum_r rows[r, i] << r`` of a 0/1 matrix."""
    return rows.T.astype(np.int64) @ (1 << np.arange(rows.shape[0], dtype=np.int64))


class LinearCode:
    """An [n, k] binary linear code.

    Construct via :meth:`from_generator`, :meth:`from_parity`, or directly
    with both matrices.  Instances are immutable: the matrices are
    read-only, and rebinding or deleting an attribute raises
    ``AttributeError``, so ``basis``/``dual_basis`` and the four matrices
    they stack cannot get out of step.  What is derived later (the
    distance, the lookup tables, :attr:`bases_are_dual`) is computed once
    and cached in the instance ``__dict__``.
    """

    def __init__(self, generator=None, check=None, distance: Optional[int] = None,
                 name: Optional[str] = None):
        if generator is None and check is None:
            raise ValueError("need a generator or a check matrix")
        # The algebra runs on packed bits (see gf2): g holds the rows of the
        # generator, and the dual completion reads the columns of the
        # check.  The given matrices are copied, since they are frozen below
        # and as_bits may return the caller's array.
        if generator is not None:
            generator = gf2.as_bits(generator).copy()
            g = gf2.pack_rows(generator)
        if check is not None:
            check = gf2.as_bits(check).copy()
        if generator is None:
            g = gf2.kernel_rows(gf2.pack_rows(check), check.shape[1])
            generator = gf2.unpack_rows(g, check.shape[1])
        elif check is None:
            check = gf2.unpack_rows(gf2.kernel_rows(g, generator.shape[1]),
                                    generator.shape[1])
        if generator.shape[1] != check.shape[1]:
            raise ValueError("generator and check column counts differ")
        n = generator.shape[1]
        if n < 1:
            raise ValueError("block length must be at least 1")
        # A kernel is full rank, so a derived matrix never trips these.
        if len(g) + len(check) != n:
            if gf2.rank_rows(g) != len(g):
                raise ValueError("generator rows are linearly dependent")
            if gf2.rank(check) != len(check):
                raise ValueError("check rows are linearly dependent")
            raise ValueError("generator and check ranks do not add up to n")
        h_c, g_c = gf2.dual_complete_columns(gf2.pack_rows(check.T), g, n)

        k = len(g)
        complements = gf2.unpack_rows(g_c + h_c, n)
        basis = np.concatenate([complements[:n - k], generator])
        dual_basis = np.concatenate([check, complements[n - k:]])
        for m in (generator, check, basis, dual_basis):
            m.setflags(write=False)  # the complements are views, read-only too
        # Written once here; __setattr__ refuses every later binding.
        vars(self).update(
            n=n, k=k, generator=generator, check=check, name=name,
            basis=basis, dual_basis=dual_basis,
            generator_complement=basis[:n - k],
            check_complement=dual_basis[n - k:],
            _generator_rows=g, _distance=None)
        if distance is not None:
            if self.min_distance() != distance:
                raise ValueError(
                    f"claimed distance {distance} but true distance is "
                    f"{self._distance}")

    def __setattr__(self, name, value):
        raise AttributeError(f"LinearCode is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"LinearCode is immutable: cannot delete "
                             f"{name!r}")

    @classmethod
    def from_generator(cls, generator, **kwargs) -> "LinearCode":
        return cls(generator=generator, **kwargs)

    @classmethod
    def from_parity(cls, check, **kwargs) -> "LinearCode":
        return cls(check=check, **kwargs)

    @property
    def d(self) -> Optional[int]:
        """Minimum distance if it has been computed, else None."""
        return self._distance

    @property
    def params(self) -> tuple:
        return (self.n, self.k, self._distance)

    def __repr__(self):
        d = self._distance if self._distance is not None else "?"
        tag = f" {self.name!r}" if self.name else ""
        return f"<LinearCode{tag} [{self.n},{self.k},{d}]>"

    def min_distance(self) -> int:
        """Minimum Hamming weight over nonzero codewords, by enumeration.

        Walks the 2**k codewords in Gray-code order on the packed generator
        rows, so each codeword costs one XOR and one popcount.  Caches the
        result.  Refuses k > 24 (the full 2**k sweep would not be desk-scale
        any more).
        """
        if self._distance is not None:
            return self._distance
        if self.k == 0:
            raise ValueError("the zero code has no nonzero codewords")
        if self.k > _DISTANCE_MAX_K:
            raise ValueError(
                f"refusing exhaustive distance computation for k={self.k} > "
                f"{_DISTANCE_MAX_K}")
        rows = self._generator_rows
        best = self.n
        word = 0
        for i in range(1, 1 << self.k):
            # Gray code i differs from i - 1 in bit i's trailing zero count.
            word ^= rows[(i & -i).bit_length() - 1]
            weight = word.bit_count()
            if weight < best:
                best = weight
        vars(self)["_distance"] = best
        return best

    @functools.cached_property
    def bases_are_dual(self) -> bool:
        """Whether ``D E^T = I`` for D = [check; check_complement] and
        E = [generator_complement; generator], the rows grid codes are
        built from.  Multiplied out once per code, however many grids
        read it."""
        d = np.concatenate([self.check, self.check_complement])
        e = np.concatenate([self.generator_complement, self.generator])
        return np.array_equal(gf2.mat_mul(d, e.T),
                              np.eye(self.n, dtype=np.uint8))

    def distance_if_enumerable(self) -> Optional[int]:
        """:meth:`min_distance` (cached like it), or None when the code is
        too large to enumerate."""
        try:
            return self.min_distance()
        except ValueError:
            return None

    def syndrome(self, e) -> np.ndarray:
        """Syndrome ``check @ e`` of an error vector of length n."""
        e = np.asarray(e, dtype=np.uint8).reshape(-1)
        if e.shape[0] != self.n:
            raise ValueError(f"error length {e.shape[0]} != n={self.n}")
        return (self.check @ e) & 1

    def decode(self, s) -> np.ndarray:
        """Coset-leader decoding: a minimum-weight error matching syndrome s.

        Deterministic; ties inside a weight class go to the
        lexicographically smallest vector.  For n <= 20 this is a row of
        :attr:`decode_table`.  For larger n the decoder searches weights
        0..DECODE_WEIGHT_CAP and raises if no error within the cap matches.
        """
        s = np.asarray(s, dtype=np.uint8).reshape(-1)
        if s.shape[0] != self.n - self.k:
            raise ValueError(
                f"syndrome length {s.shape[0]} != n-k={self.n - self.k}")
        if self.n <= _TABLE_MAX_N:
            return self.decode_table[self._syndrome_key(s)].copy()
        return self._bounded_search(s)

    def _syndrome_key(self, s: np.ndarray) -> int:
        return int(s @ (1 << np.arange(s.shape[0], dtype=np.int64)))

    def _coset_leaders(self) -> tuple:
        """Syndrome int of every n-bit word, and the leader word of every
        syndrome int, both as int arrays (words as in :attr:`fail`)."""
        n, m = self.n, self.n - self.k
        if n > _TABLE_MAX_N:
            raise ValueError(
                f"no lookup table for n={n} > {_TABLE_MAX_N}; it would have "
                f"2**{n} entries")
        syndromes = _span_words(_bit_weights(self.check), np.int32)
        weights = np.zeros(1 << n, np.int64)
        for b in range(n):
            weights[1 << b:2 << b] = weights[:1 << b] + 1
        # (weight, word) order is (weight, lexicographic) order, since a
        # word's numeral puts position 0 first.
        keys = (weights << n) | np.arange(1 << n, dtype=np.int64)
        best = np.full(1 << m, np.iinfo(np.int64).max)
        np.minimum.at(best, syndromes, keys)
        return syndromes, best & ((1 << n) - 1)

    @functools.cached_property
    def decode_table(self) -> np.ndarray:
        """Coset leaders as rows, indexed by syndrome int; n <= 20 only."""
        start = time.perf_counter()
        _, leaders = self._coset_leaders()
        table = np.empty((leaders.shape[0], self.n), np.uint8)
        for i in range(self.n):
            table[:, i] = (leaders >> (self.n - 1 - i)) & 1
        table.setflags(write=False)
        _log_debug(__name__, "decode_table of %r (n=%d) built in %.2f ms",
                   self, self.n, 1e3 * (time.perf_counter() - start))
        return table

    @functools.cached_property
    def fail(self) -> np.ndarray:
        """Per n-bit word v: does coset-leader decoding of v leave a logical
        error (``C_c (v xor leader(P v)) != 0``)?  n <= 20 only."""
        start = time.perf_counter()
        syndromes, leaders = self._coset_leaders()
        logical = _span_words(_bit_weights(self.check_complement), np.int32)
        table = logical != logical[leaders[syndromes]]
        table.setflags(write=False)
        _log_debug(__name__, "fail table of %r (n=%d) built in %.2f ms",
                   self, self.n, 1e3 * (time.perf_counter() - start))
        return table

    def _bounded_search(self, s: np.ndarray) -> np.ndarray:
        for w in range(DECODE_WEIGHT_CAP + 1):
            matches = []
            for support in itertools.combinations(range(self.n), w):
                v = np.zeros(self.n, dtype=np.uint8)
                v[list(support)] = 1
                if np.array_equal(self.syndrome(v), s):
                    matches.append(tuple(v))
            if matches:
                return np.array(min(matches), dtype=np.uint8)
        raise ValueError(
            f"the [{self.n},{self.k}] code is longer than {_TABLE_MAX_N} "
            f"bits, so it has no coset-leader table, and no error of weight "
            f"<= {DECODE_WEIGHT_CAP} matches this syndrome")

    def codewords(self) -> np.ndarray:
        """All 2**k codewords as rows (guarded like min_distance)."""
        if self.k > _DISTANCE_MAX_K:
            raise ValueError(f"refusing to enumerate 2**{self.k} codewords")
        msgs = np.arange(1 << self.k, dtype=np.int64)
        bits = ((msgs[:, None] >> np.arange(self.k)) & 1).astype(np.uint8)
        return (bits @ self.generator) & 1


def repetition(n: int) -> LinearCode:
    """The [n, 1, n] repetition code with the bidiagonal check matrix."""
    if n < 1:
        raise ValueError("repetition length must be >= 1")
    g = np.ones((1, n), dtype=np.uint8)
    p = np.zeros((n - 1, n), dtype=np.uint8)
    for i in range(n - 1):
        p[i, i] = 1
        p[i, i + 1] = 1
    return LinearCode(generator=g, check=p, distance=n, name=f"rep{n}")


def hamming_7_4() -> LinearCode:
    """The [7, 4, 3] Hamming code; check column j is the binary digits of j+1."""
    p = np.zeros((3, 7), dtype=np.uint8)
    for j in range(1, 8):
        for i in range(3):
            p[i, j - 1] = (j >> i) & 1
    return LinearCode(check=p, distance=3, name="hamming7_4")


def builtin(spec: str) -> LinearCode:
    """Look up a named code family: ``rep:<n>`` or ``hamming:7-4``."""
    spec = spec.strip()
    if spec.startswith("rep:"):
        try:
            n = int(spec[4:])
        except ValueError:
            raise ValueError(f"bad repetition length in {spec!r}") from None
        return repetition(n)
    if spec == "hamming:7-4":
        return hamming_7_4()
    raise ValueError(f"unknown code family {spec!r} (try rep:<n> or hamming:7-4)")
