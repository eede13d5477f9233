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
``dual_basis`` D = [check; check_complement], with D E^T = I: the two
halves of one read-only (2n, n) array, of which all six are views.

A word is an int whose binary numeral has position 0 as its top bit.  A
syndrome's coset leader is the least word of its coset in (weight,
lexicographic) order; :attr:`LinearCode.leaders` lists them, found by a
syndrome trellis.  :attr:`LinearCode.fails` is the code's one per-word
failure rule, all a grid code's Monte Carlo kernel needs (see
:mod:`subqec.simulate`): int64 words in, whether decoding leaves a logical
error (``C_c (v xor leader(P v)) != 0``) out: whether v is not its coset's
leader, as ``v xor leader(P v)`` is a codeword and ``C_c G^T = I``.  Its
route is the first row (n, k) fits, and any other code raises ValueError:

    n <= 20                     a table of all 2**n words
    n <= 63, k <= 1, or         v fails iff some codeword c != 0 gives
      n-k > 20 and k <= 16      (wt(v^c), v^c) < (wt(v), v)
    n <= 63, n-k <= 20          v fails iff leader(P v) != v
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Optional

import numpy as np

from . import gf2

_TABLE_MAX_N = 20  # fail tables: one entry per n-bit word
_WORD_MAX_N = 63  # the other routes: a word in one int64
_DISTANCE_MAX_K = 24


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


def _span_words(images: np.ndarray) -> np.ndarray:
    """XOR of ``images[i]`` over the positions i set in each n-bit word.

    Word v has position i at bit n-1-i.  Built by doubling: the words with
    top bit b are the words below 2**b with position n-1-b added.
    """
    n = images.shape[0]
    images = images.astype(np.int64)
    out = np.zeros(1 << n, np.int64)
    for b in range(n):
        out[1 << b:2 << b] = out[:1 << b] ^ images[n - 1 - b]
    return out


def _bit_weights(rows: np.ndarray) -> np.ndarray:
    """Per-column integer ``sum_r rows[r, i] << r`` of a 0/1 matrix."""
    return rows.T.astype(np.int64) @ (1 << np.arange(rows.shape[0], dtype=np.int64))


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits per int64 >= 0, by bitwise_count (numpy >= 2) or by SWAR."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x)
    x = x - (x >> 1 & 0x5555555555555555)
    x = (x & 0x3333333333333333) + (x >> 2 & 0x3333333333333333)
    return ((x + (x >> 4)) & 0x0F0F0F0F0F0F0F0F) * 0x0101010101010101 >> 56


def _as_word(v) -> np.ndarray:
    """``v`` flattened to a 0/1 uint8 vector, checked by gf2.as_bits."""
    return gf2.as_bits(np.reshape(v, (1, -1)))[0]


def _syndrome_rule(code: "LinearCode"):
    """v fails iff ``leader(P v) != v``, with the syndrome ``P v`` read off
    one table per byte of v."""
    n, weights, leaders = code.n, _bit_weights(code.check), code.leaders
    tables = [(b, _span_words(weights[max(0, n - b - 8):n - b]))
              for b in range(0, n, 8)]  # bits [b, b+8): positions n-b-8..

    def fails(words):
        return leaders[functools.reduce(np.bitwise_xor, (
            t[words >> b & 255] for b, t in tables),
            np.zeros_like(words))] != words
    return fails


def _codeword_rule(code: "LinearCode"):
    """v fails iff some codeword c != 0 gives (wt(v^c), v^c) < (wt(v), v),
    i.e. v is not its coset's leader, trying about 2**20 pairs at a time."""
    codewords = code._codewords

    def fails(words):
        out = np.zeros(words.shape, bool)
        weight, words = _popcount(words)[..., None], words[..., None]
        step = max(1, (1 << 20) // max(1, out.size))
        for c in range(0, len(codewords), step):
            x = words ^ codewords[c:c + step]
            w = _popcount(x)
            out |= ((w < weight) | (w == weight) & (x < words)).any(axis=-1)
        return out
    return fails


class LinearCode:
    """An [n, k] binary linear code.

    Construct via :meth:`from_generator`, :meth:`from_parity`, or directly
    with both matrices.  Construction multiplies out ``D E^T`` once and
    raises ValueError unless it is I, so every instance holds dual bases
    from the start.  Instances are immutable: the matrices are read-only,
    and rebinding or deleting an attribute raises ``AttributeError``, so
    ``basis``/``dual_basis`` and the four matrices they stack cannot get
    out of step.  What is derived later (the distance, the lookup tables)
    is computed once and cached in the instance ``__dict__``.
    """

    def __init__(self, generator=None, check=None, distance: Optional[int] = None,
                 name: Optional[str] = None):
        if generator is None and check is None:
            raise ValueError("need a generator or a check matrix")
        # The algebra runs on packed bits (see gf2), and elimination reads
        # only the generator's rows g and the check's columns: a missing
        # matrix is the kernel of the other's columns, and the dual
        # completion reads the check's columns.  Each given matrix is
        # checked once; the bases are one new array of the check and the
        # unpacked rows, so the caller's arrays are neither frozen nor
        # shared.
        if generator is not None:
            generator = gf2.as_bits(generator)
            g = gf2._pack(generator)
        if check is None:
            check = gf2.unpack_rows(
                gf2.kernel_columns(gf2._pack(generator.T), generator.shape[1]),
                generator.shape[1])
        else:
            check = gf2.as_bits(check)
        p_cols = gf2._pack(check.T)
        if generator is None:
            g = gf2.kernel_columns(p_cols, check.shape[1])
        elif generator.shape[1] != check.shape[1]:
            raise ValueError("generator and check column counts differ")
        n = check.shape[1]
        if n < 1:
            raise ValueError("block length must be at least 1")
        h_c, g_c = gf2.dual_complete_columns(p_cols, g, n, len(check))

        k = len(g)
        # E = [G_c; G] and D = [P; C_c] are the two halves of one array,
        # frozen before the views are taken (a view taken earlier would
        # stay writable).  E and C_c are unpacked in one call.
        unpacked = gf2.unpack_rows(g_c + g + h_c, n)
        bases = np.concatenate([unpacked[:n], check, unpacked[n:]])
        bases.setflags(write=False)
        basis, dual_basis = bases[:n], bases[n:]
        # D E^T = I is all that a grid built on this code relies on (see
        # subqec.builder), so it is checked once, here.  A 0/1 matrix is I
        # iff it has n ones, all on the diagonal.
        product = gf2._mat_mul(dual_basis, basis.T)
        if not (np.count_nonzero(product) == n
                == np.count_nonzero(product.diagonal())):
            raise ValueError("internal error: the dual completion does not "
                             "give D E^T = I")
        # Written once here; __setattr__ refuses every later binding.
        vars(self).update(
            n=n, k=k, generator=basis[n - k:], check=dual_basis[:n - k],
            name=name, basis=basis, dual_basis=dual_basis,
            generator_complement=basis[:n - k],
            check_complement=dual_basis[n - k:],
            _generator_rows=g, _distance=None)
        if distance is not None:
            distance = gf2._require_int("distance", distance)
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

    def distance_if_enumerable(self) -> Optional[int]:
        """:meth:`min_distance` (cached like it), or None when the code is
        too large to enumerate."""
        try:
            return self.min_distance()
        except ValueError:
            return None

    def syndrome(self, e) -> np.ndarray:
        """Syndrome ``check @ e`` of an error vector of length n."""
        e = _as_word(e)
        if e.shape[0] != self.n:
            raise ValueError(f"error length {e.shape[0]} != n={self.n}")
        return (self.check @ e) & 1

    def decode(self, s) -> np.ndarray:
        """Coset-leader decoding of syndrome s: a row of :attr:`leaders`,
        or the coset's least word on the codeword route, else ValueError."""
        s = _as_word(s)
        n, m = self.n, self.n - self.k
        if s.shape[0] != m:
            raise ValueError(f"syndrome length {s.shape[0]} != n-k={m}")
        if self._by_codewords:  # s G_c has syndrome s
            coset = np.append(0, self._codewords) ^ (
                s @ self.generator_complement & 1) @ (1 << np.arange(
                    n - 1, -1, -1, dtype=np.int64))
            word = coset[np.lexsort((coset, _popcount(coset)))[0]]
        else:
            word = self.leaders[s @ (1 << np.arange(m, dtype=np.int64))]
        return (int(word) >> np.arange(n - 1, -1, -1) & 1).astype(np.uint8)

    @property
    def _by_codewords(self) -> bool:
        """Whether the route is the codeword rule (module docstring): one
        comparison decodes k <= 1, and k >= 2 takes a leader table if any."""
        return _TABLE_MAX_N < self.n <= _WORD_MAX_N and self.k <= (
            16 if self.n - self.k > _TABLE_MAX_N else 1)

    @functools.cached_property
    def _codewords(self) -> np.ndarray:
        return _span_words(np.array(self._generator_rows, np.int64))[1:]

    @functools.cached_property
    def fails(self):
        """The per-word failure rule, by the route of the module docstring:
        int64 words (position i at bit n-1-i) to bools.  For n <= 20 it
        reads a read-only table of all 2**n words, True at every word but
        the :attr:`leaders`, as each coset has exactly one leader."""
        if self._by_codewords:
            return _codeword_rule(self)
        if self.n > _TABLE_MAX_N:
            return _syndrome_rule(self)
        leaders = self.leaders  # timed by its own record
        start, table = time.perf_counter(), np.ones(1 << self.n, bool)
        table[leaders] = False
        table.setflags(write=False)
        _log_debug(__name__, "fail table of %r (n=%d) built in %.2f ms",
                   self, self.n, 1e3 * (time.perf_counter() - start))
        return table.__getitem__

    @functools.cached_property
    def leaders(self) -> np.ndarray:
        """The leader word of each syndrome int (bit r at 2**r), read-only;
        n <= 63 and n-k <= 20 only.  A syndrome trellis over the positions,
        last first, in at most (k+1) * 2**(n-k) state updates: state j holds
        the least word of the syndrome j picks from the independent columns
        met so far, and any other column gives a state its bit only if that
        is strictly lighter, as at a tie the word without that bit is less."""
        n, m = self.n, self.n - self.k
        if n > _WORD_MAX_N or m > _TABLE_MAX_N:
            raise ValueError(f"no leader table for the [{n},{self.k}] code: "
                             f"it needs n <= 63 and n-k <= 20")
        start, cost = time.perf_counter(), np.zeros(1, np.uint8)
        words, pivots, independent = np.zeros(1, np.int64), {}, []
        for b, column in enumerate(_bit_weights(self.check)[::-1].tolist()):
            c = column << m  # reduced, tagged below bit m with what it took
            while c >> m and c.bit_length() - 1 in pivots:
                c ^= pivots[c.bit_length() - 1]
            if c >> m:  # the new half of the states adds bit b
                pivots[c.bit_length() - 1] = c | 1 << len(independent)
                independent.append(column)
                cost = np.concatenate([cost, cost + 1])
                words = np.concatenate([words, words | 1 << b])
            else:  # column is the XOR of the independent columns c picks
                take = np.flatnonzero(cost[np.arange(len(cost)) ^ c] + 1 < cost)
                cost[take] = cost[take ^ c] + 1  # never j and j^c both
                words[take] = words[take ^ c] | 1 << b
        leaders = np.empty(1 << m, np.int64)
        leaders[_span_words(np.array(independent[::-1], np.int64))] = words
        leaders.setflags(write=False)
        _log_debug(__name__, "leader table of %r (n=%d) built in %.2f ms",
                   self, n, 1e3 * (time.perf_counter() - start))
        return leaders


def repetition(n: int) -> LinearCode:
    """The [n, 1, n] repetition code with the bidiagonal check matrix."""
    n = gf2._require_int("repetition length", n, 1)
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


# The spec of each named code family that builtin reads.
_BUILTIN_SPECS = ("rep:<n>", "hamming:7-4")


def builtin(spec: str) -> LinearCode:
    """Look up a named code family, one of ``_BUILTIN_SPECS``."""
    spec = spec.strip()
    if spec.startswith("rep:"):
        # int() would also read "٣", "３", "1_1", "+3" and " 3".
        if not (spec[4:].isascii() and spec[4:].isdigit()):
            raise ValueError(f"bad repetition length in {spec!r}")
        return repetition(int(spec[4:]))
    if spec == "hamming:7-4":
        return hamming_7_4()
    raise ValueError(f"unknown code family {spec!r} "
                     f"(try {' or '.join(_BUILTIN_SPECS)})")
