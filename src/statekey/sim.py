"""Desk-scale simulation of the random-binning key-agreement schemes.

Two modes are implemented at tiny block lengths:

* ``no_discussion``: a codebook of u-sequences is drawn i.i.d. and randomly
  partitioned into key bins; the encoder picks a codeword jointly typical
  with the state sequence and declares that codeword's bin index as the key;
  the receiver declares the bin whose codewords have the largest summed
  likelihood of its channel output.
* ``one_round_discussion``: the sender transmits x ~ p(x|s); the receiver
  publishes the bin index of its output sequence, the sender reconstructs
  that sequence as the bin's member most likely given (x, s), and both
  declare the sub-bin index as the key.  Leakage accounting includes the
  public bin index in the eavesdropper's view.

Typicality is the strong (empirical-count) kind: every cell of the joint
empirical distribution must lie within ``epsilon`` of the model pmf, and
cells with zero model probability must be unoccupied.  ``_Typicality``
prepares the test of one (pmf, n, epsilon): it checks the count bands once,
and its ``pairs`` holds a batch of candidate rows against a batch of fixed
rows with one count per fixed row for each column with one positive cell,
one 0/1 product for all zero cells and one product for each other cell whose
band can fail.  A run builds each of its tests once, in its run tables: the
encoder's and the one-round typical set's, to which the public bins are
cut.  Wherever the exact leakage enumerates the state sequences (the
eavesdropper's view is not constant), the no-discussion run tables also hold
the encoder's test of every s^n against every codeword, made once: the
encoder and the exact leakage read its rows.

Neither decoder reads ``epsilon``; both are maximum likelihood under a
single-letter law, and a tie at the top counts as an error.  The
no-discussion receiver takes the key bin whose codewords have the largest
summed likelihood under p(yr | u), and ``decode`` returns keys.  The
one-round sender takes the member of the published bin with the largest
likelihood under p(yr | x, s); the run tables hold every member's
likelihood terms, grouped by public bin.  A no-discussion run with no more
receiver sequences |Yr|^n than trials (and at most ``MAX_CODEBOOK``)
decodes each yr^n once, before its trials, which look their keys up; any
other run decodes per trial.  The per-trial kernels themselves fill the
state and key tables, a chunk of sequences at a time.  When the
encoder finds no typical codeword it falls back to a uniformly random
codeword (counted in ``encode_failure_rate``); the exact-leakage enumeration
applies the same fallback law.  Exact leakage applies each codeword's
Kronecker product one mode at a time, never forming it: about count · n ·
max(|S|, |Ye|)^n multiply-adds, in chunks of codewords.  Leakage is always
exact, in both modes.  A run whose leakage would take more than
``MAX_LEAKAGE_MULADDS`` multiply-adds, or whose leakage arrays (the
state-sequence table and the one-round member terms among them) or encoder
and decoder tables would hold more than ``MAX_LEAKAGE_BYTES``, raises
``BudgetError`` before its first trial.

Every operation is a pure function of (inputs, seed): replays are
bit-identical, and trial t owns the random stream ``_rng_stream(seed, 1, t)``.
A trial's stream only draws; it makes the same draws, in the same order,
whatever the chunking:

* no-discussion: ``random(n)`` for s^n, then ``integers(k)`` for the pick
  among the k typical codewords (``integers(count)`` on the fallback), then
  ``random(n)`` for x^n and ``random(n)`` for the channel;
* one-round: ``random(3n)``, read as the uniforms of s^n, x^n and the
  channel in that order.

No generator is built per trial.  ``TrialStreams`` reads the streams of a
chunk of trials in lockstep from ``_trial_draws``, which computes their raw
words bit for bit: the 128-bit PCG64 states of the whole chunk come from one
float64 product of 16-bit limbs whose every partial sum is an integer below
2^53, so it is exact in any summation order (see the stream comments).  Only
a pick that Lemire's rejection rule refuses sends its trial back to
``_rng_stream``.

The trial loops run on chunks of trials: ``encode``, ``decode`` and the
typicality kernel take a leading trial axis.  Every categorical draw (s, x
and the receiver's yr) is ``_draw`` on a cdf table stored by column: one
comparison per inner threshold on a (trials, n) array, so a draw never
leaves the alphabet.  No trial needs the eavesdropper's output, so none
draws it: the receiver's thresholds are every |Ye|-th threshold of the joint
(yr, ye) cdf, and they draw yr exactly as the joint draw would, from the
same uniform.  The decoder scores every (trial, codeword) pair with one
matrix product of the trials' yr^n one-hot and the codewords'
log-likelihood terms, built once per run, where the finite floor
``_LOG_ZERO`` stands for log 0: a codeword of zero likelihood scores at or
below it.  The one-round reconstruction scores each published bin's
(trial, member) pairs the same way, from the trials' (x, s) one-hot.  A
chunk holds a few floats per (trial, codeword) or (trial, member) pair,
and the raw words and uniforms.

Each chunk runs in one call (``_no_disc_chunk``, ``_one_round_chunk``) that
returns only counts to ``_sum_chunks``, so no array of a chunk is alive
while the next one builds its stream words.  When the loop bodies held their
arrays until the next chunk replaced them, a no-discussion run of one chunk
peaked 30 % below a run of 20 on the benchmark configuration (0.67 against
0.87 MB, traced): the second chunk, not the number of trials, set the peak.
A chunk is sized to its largest per-trial temporary: two floats per stream
word, one float per (position, symbol) of a one-hot (the decoder's yr, or
the reconstruction's (x, s) pairs), or, in a no-discussion run, the
decoder's floats per codeword (budgeted as four); a channel draw holds only
(trials, n) arrays, one per cdf column.  The stream budget keeps each block
of the limb product under 16,384 floats, on OpenBLAS's single-threaded
path.  Run memory therefore does not grow with the number of trials.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (AuxiliaryEncoderPolicy, BudgetError, InputPolicy,
                      StateChannel, _entropy, _rng_stream, check_alphabets,
                      check_integer, mi_bits, policy_mi_triple)

MAX_CODEBOOK = 2 ** 20
# The exact-leakage budget, shared by both modes.  The sim-nodisc
# configuration at n = 18 needs 3.0e8 multiply-adds and 154 MiB.
MAX_LEAKAGE_MULADDS = 2 ** 30
MAX_LEAKAGE_BYTES = 192 * 2 ** 20
_KRON_CHUNK_BYTES = 8 * 2 ** 20
# The bytes of a trial chunk's largest temporary.  Several temporaries of
# that size are alive at once, and none outlives its chunk (see the module
# docstring); a larger budget makes the trial loops faster and their traced
# peak higher.
_TRIAL_CHUNK_BYTES = 256 * 2 ** 10
_TINY = np.finfo(float).tiny
# The decoder's log-likelihood of a cell of probability 0.  A sum of n <= 24
# log-likelihoods of positive cells lies above -745 n, and the one-hot
# product adds 0 times the floor as 0, so a codeword scores at or below the
# floor exactly when it crosses a zero cell.
_LOG_ZERO = -1e300


@dataclass(frozen=True)
class SimConfig:
    """Block length, typicality slack, rate backoff, and trial budget."""

    n: int
    epsilon: float
    rate_margin: float
    trials: int
    seed: int

    def __post_init__(self):
        for name, minimum in (("n", 1), ("trials", 1), ("seed", 0)):
            check_integer(name, getattr(self, name), minimum)
        if self.n > 24:
            raise ValueError("n must lie in [1, 24] (Monte Carlo ceiling)")
        # Chained comparisons are False for NaN, so NaN is rejected too.
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0 < self.rate_margin < math.inf:
            raise ValueError("rate_margin must be positive and finite")


@dataclass(frozen=True)
class BinningCodebook:
    """u-sequence codebook with its random bin structure.

    ``sequences`` has shape (count, n), both positive; ``bin_of`` maps
    sequence index to bin index.  The rates are bits per symbol, derived
    from the sizes: total_rate = key_rate + per_bin_rate.
    """

    sequences: np.ndarray
    bin_of: np.ndarray
    num_bins: int

    def __post_init__(self):
        seqs = np.array(self.sequences, dtype=np.int64, copy=True)
        bins = np.array(self.bin_of, dtype=np.int64, copy=True)
        if seqs.ndim != 2 or not seqs.size or bins.shape != (seqs.shape[0],):
            raise ValueError("sequences must be a nonempty (count, n) and "
                             "bin_of (count,)")
        check_integer("num_bins", self.num_bins, 1)
        if bins.min() < 0 or bins.max() >= self.num_bins:
            raise ValueError("bin indices out of range")
        if seqs.shape[0] >= self.num_bins and np.unique(bins).size != self.num_bins:
            raise ValueError("every bin must be nonempty when count >= num_bins")
        seqs.setflags(write=False)
        bins.setflags(write=False)
        object.__setattr__(self, "sequences", seqs)
        object.__setattr__(self, "bin_of", bins)

    @property
    def count(self) -> int:
        return self.sequences.shape[0]

    @property
    def n(self) -> int:
        return self.sequences.shape[1]

    @property
    def total_rate(self) -> float:
        return math.log2(self.count) / self.n

    @property
    def key_rate(self) -> float:
        return math.log2(self.num_bins) / self.n

    @property
    def per_bin_rate(self) -> float:
        return self.total_rate - self.key_rate

    def with_singleton_bins(self) -> "BinningCodebook":
        """View of the same codebook keyed by the codeword index itself."""
        return BinningCodebook(sequences=self.sequences,
                               bin_of=np.arange(self.count),
                               num_bins=self.count)


@dataclass(frozen=True)
class EncodeResult:
    """Per trial: the chosen codeword, the sampled input sequence, and
    whether any codeword was typical (False: the pick is the uniform
    fallback over the whole codebook)."""

    index: np.ndarray       # (trials,)
    x_seq: np.ndarray       # (trials, n)
    typical: np.ndarray     # (trials,) bool


@dataclass(frozen=True)
class SimReport:
    """Aggregate outcome of a simulation run.

    ``leakage_method`` is always "exact": leakage is the exact mutual
    information of the run's codebook or bins, never an estimate (a run over
    the leakage budget raises ``BudgetError`` instead).  In one-round mode
    ``encode_failure_rate`` carries the sender-reconstruction failure rate
    (also present in diagnostics under an explicit name).
    """

    disagreement_prob: float
    leakage_bits_per_symbol: float
    achieved_key_rate: float
    encode_failure_rate: float
    leakage_method: str
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the streams _rng_stream(seed, *key, t) of many trials at once
# ---------------------------------------------------------------------------
#
# numpy's SeedSequence hashes its entropy words into a pool of four uint32
# words and hashes the pool into the seed of PCG64, a 128-bit LCG whose
# outputs are the XSL-RR permutation of its states (O'Neill, "PCG",
# HMC-CS-2014-0905).  Only the trial index, the last word or two of the
# entropy, differs between the streams of a run.  So numpy supplies the pool
# of SeedSequence(seed, spawn_key=key) once per (seed, key), and mixing in
# each trial's index is uint32 arithmetic on arrays over trials.
#
# The state behind PCG64's j-th output is S_j = P_j initstate + Q_j inc
# (mod 2^128) for constants P_j and Q_j.  ``_limb_product`` takes every S_j
# of a chunk from one float64 matrix product: the 16 limbs of 16 bits of
# (initstate, inc) times a table of the constants' limbs in four blocks,
# A = (C0 + 2^16 C1) 2^-32, B = C2 + 2^16 C3, C = C4 + 2^16 C5 and
# D = C6 + 2^16 C7, where C_p sums the limb products at bit 16p.  A table
# entry is below 2^32, so each of a block's 16 terms is a non-negative
# integer (times 2^-32 in A) below 2^48, and a whole block sums to at most
# (2^20 + 14) (2^16 - 1)^2 < 2^52.  Every partial sum is then an integer
# below 2^53 and exact: the product is exact in any summation order, with or
# without FMA, and under any BLAS thread count.  Then S_j's low word is
# 2^32 (A + B) mod 2^64, its carry floor((floor(A) + B) 2^-32), and its high
# word 2^32 D + C + carry mod 2^64.

_M32 = 0xFFFFFFFF
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(const: int, mult: int):
    """The (constant, next constant) pairs of SeedSequence's hash, in order."""
    while True:
        nxt = const * mult & _M32
        yield const, nxt
        const = nxt


def _hashmix(value, consts):
    """SeedSequence's hashmix of uint32 words (ints or arrays)."""
    const, mult = consts
    value = (value ^ const) * mult & _M32
    return value ^ value >> 16


def _mix(x, y):
    value = (_SS_MIX_L * x - _SS_MIX_R * y) & _M32
    return value ^ value >> 16


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int, key: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The pool of SeedSequence(seed, spawn_key=(*key, t)) before any word
    of t is mixed in, and the hash constants, shape (2, 2, 4), with which
    t's low and high words are mixed into it."""
    pool = np.random.SeedSequence(seed, spawn_key=key).pool.astype(np.uint32)
    # The pool took 16 hash constants, and 4 more per entropy word past four,
    # where the seed's uint32 words are padded to four.
    words = [max(1, -(-int(v).bit_length() // 32)) for v in (seed, *key)]
    consts = itertools.islice(_hash_constants(_SS_INIT_A, _SS_MULT_A),
                              4 * (max(4, words[0]) + sum(words[1:])), None)
    t_consts = np.array([[next(consts) for _ in range(4)] for _ in range(2)],
                        dtype=np.uint32).transpose(0, 2, 1)
    pool.setflags(write=False)
    t_consts.setflags(write=False)
    return pool, t_consts


_STATE_CONSTS = np.array(list(itertools.islice(
    _hash_constants(_SS_INIT_B, _SS_MULT_B), 8)), dtype=np.uint32).T


def _limb_table(jumps) -> np.ndarray:
    """The table, shape (4, 16, k), of the jump constants (P_j, Q_j), j < k,
    such that 16-bit limbs of (initstate, inc) times block b give the
    C_{2b} + 2^16 C_{2b+1} of each S_j, block 0 scaled by 2^-32."""
    table = np.zeros((4, 16, len(jumps)))
    for j, consts in enumerate(jumps):
        for col, const in enumerate(consts):
            for a in range(8):
                for p in range(a, 8):
                    table[p // 2, 8 * col + a, j] += (
                        const >> 16 * (p - a) & 0xFFFF) << 16 * (p % 2)
    table[0] *= 2.0 ** -32
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=16)
def _jump_table(k: int) -> np.ndarray:
    """``_limb_table`` of PCG64's first k outputs.

    Seeding leaves the state A (initstate + inc) + inc, and each output
    first steps it to A state + inc.
    """
    p, q, jumps = _PCG_MULT, _PCG_MULT + 1, []
    for _ in range(k):
        p, q = p * _PCG_MULT % 2 ** 128, (q * _PCG_MULT + 1) % 2 ** 128
        jumps.append((p, q))
    return _limb_table(jumps)


def _limb_product(words: np.ndarray, table: np.ndarray):
    """(hi, lo) uint64 words of P_j initstate + Q_j inc mod 2^128, shape
    (rows, k), from ``table`` and rows of little-endian uint64 words
    (initstate low, high, inc low, high)."""
    # One array holds all four blocks.  At a full trial chunk it is past
    # glibc's initial 128 KiB mmap threshold, and its first release raises
    # that threshold and the heap-trim threshold above a chunk's
    # temporaries, which are then no longer returned to the system and
    # faulted back in by every chunk.
    a, b, c, d = words.view("<u2").astype(float) @ table
    lo = b.astype(np.int64).view(np.uint64)
    lo <<= 32
    hi = d.astype(np.int64).view(np.uint64)
    hi <<= 32
    part = np.multiply(a, 2.0 ** 32, out=d.view(np.uint64), casting="unsafe")
    lo += part
    # The carry out of lo, floor((a + b) 2^-32): b is an integer, so it is
    # floor((floor(a) + b) 2^-32), and floor(a) + b < 2^53 is exact.
    np.floor(a, out=a)
    a += b
    a *= 2.0 ** -32
    np.floor(a, out=a)
    c += a
    np.copyto(part, c, casting="unsafe")
    hi += part
    return hi, lo


def _trial_draws(seed: int, key: tuple, trials, k: int) -> np.ndarray:
    """The first k raw 64-bit outputs of ``_rng_stream(seed, *key, t)`` for
    each t in ``trials``, shape (len(trials), k), bit for bit."""
    trials = np.asarray(trials, dtype=np.int64)
    pool, t_consts = _seed_pool(seed, key)
    pool = _mix(pool, _hashmix((trials & _M32).astype(np.uint32)[:, None],
                               t_consts[0]))
    high = trials >> 32            # a second word only where t >= 2^32
    if high.any():
        pool = np.where((high > 0)[:, None],
                        _mix(pool, _hashmix(high.astype(np.uint32)[:, None],
                                            t_consts[1])), pool)
    # The seed's uint32 words, reordered so that a row reads as little-endian
    # uint64 words (initstate low, high, initseq low, high); then
    # inc = 2 initseq + 1 replaces initseq.
    state = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTS)
    words = np.ascontiguousarray(state[:, [2, 3, 0, 1, 6, 7, 4, 5]],
                                 dtype="<u4").view("<u8")
    words[:, 3] = words[:, 3] << 1 | words[:, 2] >> 63
    words[:, 2] = words[:, 2] << 1 | 1
    hi, lo = _limb_product(words, _jump_table(k))
    # XSL-RR: the xor of the halves, rotated right by the top six bits.
    rot = hi >> 58
    hi ^= lo
    np.left_shift(hi, (64 - rot) & 63, out=lo)
    hi >>= rot
    hi |= lo
    return hi


class TrialStreams:
    """The streams ``_rng_stream(seed, *key, t)`` of a chunk of trials, read
    in lockstep, one row per trial.

    ``random`` and ``integers`` make the draws of the Generator methods of
    the same names, from ``width`` raw words per row drawn up front by
    ``_trial_draws``.  ``pos`` holds each row's next word as a flat index
    into ``words``, so every read is one ``take``; a row must draw no more
    than its ``width`` words.  A uniform is (w >> 11) 2^-53 of the next word
    w.  ``integers(k)`` is Lemire's bounded integer (ACM TOMACS 2019) on the
    low 32 bits of the next word, and draws nothing for k = 1.  The rare row
    whose word Lemire's threshold rejects is redrawn by ``_rng_stream``
    itself, which then also supplies the row's later words.
    """

    def __init__(self, seed: int, key: tuple, trials, width: int):
        self.seed, self.key = seed, key
        self.trials = np.asarray(trials, dtype=np.int64)
        self.words = _trial_draws(seed, key, self.trials, width)
        self.pos = width * np.arange(len(self.trials))

    def __len__(self) -> int:
        return len(self.trials)

    def random(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1) per row, shape (rows, n)."""
        words = self.words.take(self.pos[:, None] + np.arange(n))
        self.pos += n
        return (words >> 11) * 2.0 ** -53

    def integers(self, bounds) -> np.ndarray:
        """One integer in [0, bounds[r]) per row r."""
        bounds = np.asarray(bounds, dtype=np.int64)
        k = bounds.astype(np.uint64)
        scaled = (self.words.take(self.pos) & _M32) * k
        picks = (scaled >> 32).astype(np.int64)
        # Past 2^32 the Generator draws 64-bit words; no simulator bound does.
        redraw = (k > 2 ** 32) | ((scaled & _M32) < 2 ** 32 % k)
        width = self.words.shape[1]
        for r in np.flatnonzero(redraw):
            rng = _rng_stream(self.seed, *self.key, int(self.trials[r]))
            start = int(self.pos[r]) - r * width
            rng.bit_generator.random_raw(start)
            picks[r] = rng.integers(bounds[r])
            self.words[r, start + 1:] = rng.bit_generator.random_raw(
                width - start - 1)
        self.pos += bounds > 1
        return picks


def _chunk_rows(row_bytes: int) -> int:
    """Rows (trials or state sequences) per chunk: at least one, and few
    enough that a temporary of ``row_bytes`` per row fits the budget."""
    return max(1, _TRIAL_CHUNK_BYTES // max(1, row_bytes))


def _sum_chunks(chunk, trials: int, row_bytes: int) -> list:
    """The counts ``chunk(t)`` returns, summed one by one over consecutive
    ranges t of ``_chunk_rows(row_bytes)`` of the trials 0, ..., trials - 1:
    none of a chunk's arrays is alive while the next one runs."""
    step, totals = _chunk_rows(row_bytes), None
    for lo in range(0, trials, step):
        counts = chunk(np.arange(lo, min(lo + step, trials)))
        totals = counts if totals is None else [a + b for a, b in
                                                zip(totals, counts)]
    return totals


def _sequences(alphabet: int, n: int, lo: int, hi: int) -> np.ndarray:
    """Sequences lo, ..., hi - 1 of alphabet^n in lexicographic order (the
    order of ``itertools.product``), shape (hi - lo, n)."""
    powers = alphabet ** np.arange(n - 1, -1, -1)
    return np.arange(lo, hi)[:, None] // powers % alphabet


def _index(seqs: np.ndarray, alphabet: int) -> np.ndarray:
    """The index of each row of ``seqs`` in the order of ``_sequences``."""
    return seqs @ alphabet ** np.arange(seqs.shape[1] - 1, -1, -1)


def _enumerated(fn, alphabet: int, n: int, row_bytes: int) -> np.ndarray:
    """``fn`` of every sequence of alphabet^n, applied to consecutive chunks
    of ``_chunk_rows(row_bytes)`` sequences and concatenated in order."""
    total, step = alphabet ** n, _chunk_rows(row_bytes)
    return np.concatenate([fn(_sequences(alphabet, n, lo, min(lo + step, total)))
                           for lo in range(0, total, step)])


def _check_symbols(name: str, seqs: np.ndarray, size: int) -> None:
    if seqs.size and (seqs.min() < 0 or seqs.max() >= size):
        raise ValueError(f"{name} symbols must be integers in [0, {size})")


class _Typicality:
    """Strong typicality against pmf[a, b] at block length n and slack eps,
    prepared once; a run keeps its tests in its run tables.

    A cell's count c passes if |c / n - pmf| <= eps + 1e-12, and only c = 0
    if pmf is 0, so each cell admits an interval [lo, hi] (empty if
    lo > hi).  ``pairs`` holds each candidate row (side a, prepared by
    ``_indicators``) against each fixed row (side b), with counts that 0/1
    float products give exactly:

    * the zero cells: one product counts the positions that fall on a cell
      of probability 0, and the pair needs none;
    * a column b with one positive cell a: once the zero cells are empty,
      that cell's count is the fixed row's own count of b, so it is tested
      once per fixed row, and a row that fails skips the pair work;
    * every other positive cell whose band is not [0, n]: one product per
      cell, compared only at the ends of the band that a count can cross.

    The encoder, the no-discussion state table and the one-round typical
    set call ``pairs``; both decoders rank likelihoods instead.  Per
    (fixed, candidate) pair it holds its float count buffer, the running
    result, and one comparison or the result scattered back to every fixed
    row.
    """

    def __init__(self, pmf: np.ndarray, n: int, eps: float):
        pmf = np.asarray(pmf, dtype=float)
        flat = pmf.ravel()
        c = np.arange(n + 1)[:, None]
        admitted = (np.abs(c / n - flat) <= eps + 1e-12) & ((flat > 0) | (c == 0))
        lo = np.where(admitted.any(axis=0), admitted.argmax(axis=0), n + 1)
        hi = n - admitted[::-1].argmax(axis=0)
        # c / n - p is nondecreasing in c, so no admitted set has a gap.
        assert (admitted.sum(axis=0) == np.maximum(hi - lo + 1, 0)).all()
        lo, hi = lo.reshape(pmf.shape), hi.reshape(pmf.shape)
        positive = pmf > 0
        self.n, (self.a_size, self.b_size) = n, pmf.shape
        # zero[a * |B| + b] is 1 on a zero cell, and zero_at[a] = a * |B|,
        # so zero[zero_at + fixed row] is its (|A|, n) column of zero cells.
        self.zero = (~positive).ravel().astype(float) if not positive.all() else None
        self.zero_at = (self.b_size * np.arange(self.a_size))[:, None]
        bounded = positive & ((lo > 0) | (hi < n))   # others admit any count
        single = positive.sum(axis=0) == 1
        a_of = positive.argmax(axis=0)
        self.row_cols = np.flatnonzero(single & bounded[a_of, np.arange(len(a_of))])
        self.row_lo = lo[a_of[self.row_cols], self.row_cols]
        self.row_hi = hi[a_of[self.row_cols], self.row_cols]
        cells = {}                  # b -> [(a, lo, hi)], the pair-wise cells
        for a, b in zip(*np.nonzero(bounded & ~single)):
            cells.setdefault(int(b), []).append((int(a), lo[a, b], hi[a, b]))
        # One prepared test serves every chunk, so nothing in it may change.
        self.cells = tuple((b, tuple(c)) for b, c in cells.items())
        for table in (self.zero, self.zero_at, self.row_cols, self.row_lo,
                      self.row_hi):
            if table is not None:
                table.setflags(write=False)

    def pairs(self, cand: np.ndarray, fixed: np.ndarray) -> np.ndarray:
        """(trials, m) typicality of each candidate against each fixed[t]."""
        trials = len(fixed)
        live = np.ones(trials, dtype=bool)
        if self.row_cols.size:
            offsets = self.b_size * np.arange(trials)[:, None]
            tally = np.bincount((fixed + offsets).ravel(),
                                minlength=self.b_size * trials).reshape(
                                    trials, self.b_size)[:, self.row_cols]
            live = (tally <= self.row_hi).all(axis=1)
            if self.row_lo.any():
                live &= (tally >= self.row_lo).all(axis=1)
        rows = fixed if live.all() else fixed[live]
        counts = np.empty((len(rows), len(cand)))   # one buffer for every product
        if self.zero is None:
            ok = np.ones(counts.shape, dtype=bool)
        else:
            width = self.a_size * self.n
            np.matmul(self.zero[rows[:, None, :] + self.zero_at].reshape(
                len(rows), width), cand.reshape(len(cand), width).T, out=counts)
            ok = counts == 0
        for b, cells in self.cells:
            is_b = (rows == b).astype(float)
            for a, lo, hi in cells:
                np.matmul(is_b, cand[:, a].T, out=counts)
                if lo > 0:
                    ok &= counts >= lo
                if hi < self.n:
                    ok &= counts <= hi
        if len(rows) == trials:
            return ok
        out = np.zeros((trials, len(cand)), dtype=bool)
        out[live] = ok
        return out


def _indicators(rows: np.ndarray, size: int) -> np.ndarray:
    """The candidate side of ``_Typicality.pairs``: rows (m, n) of symbols
    in [0, size) as 0/1 indicators of each symbol, shape (m, size, n), n size
    floats per row."""
    return (rows[:, None, :] == np.arange(size)[:, None]).astype(float)


def _onehot(seqs: np.ndarray, size: int) -> np.ndarray:
    """Rows (m, n) of symbols in [0, size) as (m, n size) 0/1 floats, a 1 at
    column i size + seqs[:, i]: times a table of n size log-likelihood terms
    per column, one matrix product sums each row's n terms."""
    rows, n = seqs.shape
    onehot = np.zeros((rows, n * size))
    onehot[np.arange(rows)[:, None], size * np.arange(n) + seqs] = 1.0
    return onehot


def _joint_u_s(channel: StateChannel, policy: AuxiliaryEncoderPolicy) -> np.ndarray:
    """p(u, s), shape (u, s)."""
    return (channel.state_pmf[:, None] * policy.u_given_s).T


def _cdf_columns(pmf_rows: np.ndarray) -> np.ndarray:
    """The inner thresholds of the cdf of each pmf row (cells, K), stored by
    column: cols[j, cell] = cdf[cell, j] for j < K - 1, shape (K - 1, cells).

    The last threshold, the row's total, is left out: a row may sum to
    1 - 1e-12, and a uniform past it must still draw the last symbol.
    """
    cols = np.ascontiguousarray(np.cumsum(pmf_rows, axis=1)[:, :-1].T)
    cols.setflags(write=False)
    return cols


def _draw(cols: np.ndarray, cells, uniforms: np.ndarray) -> np.ndarray:
    """One categorical draw per uniform, from the pmf row ``cells`` (an
    index array broadcast against ``uniforms``, or one index) of the table
    whose ``_cdf_columns`` are ``cols``: the count of inner thresholds below
    the uniform, always inside the alphabet."""
    draws = np.zeros(np.shape(uniforms), dtype=np.int64)
    for col in cols:
        draws += col.take(cells) < uniforms
    return draws


def _kernel_columns(channel: StateChannel) -> np.ndarray:
    """The receiver's cdf columns of the kernel, one cell per (x, s) coded
    x * |S| + s: rows |Ye| - 1, 2 |Ye| - 1, ... of the ``_cdf_columns`` over
    (yr, ye) pairs, shape (|Yr| - 1, |X| |S|).

    A cumsum of non-negative floats never decreases, so the count of these
    thresholds below a uniform is the joint draw's pair // |Ye| exactly:
    ``_draw`` on them gives yr bit for bit as the joint draw would, from the
    same uniform.
    """
    ye = channel.ye_size
    return _cdf_columns(channel.kernel.reshape(channel.x_size * channel.s_size,
                                               -1))[ye - 1::ye]


def _codebook_size(channel: StateChannel, policy: AuxiliaryEncoderPolicy,
                   cfg: SimConfig) -> tuple[int, int]:
    """(count, bins) of ``build_codebook``, computed before any draw.

    The sequence count is ceil(2^(n (I(U;Yr) - margin))), BudgetError over
    MAX_CODEBOOK, and the bin count ceil(2^(n (I(U;Yr) - I(U;Ye) -
    margin))), so each bin holds about 2^(n I(U;Ye)) sequences.  A
    nonpositive key exponent collapses to a single bin (key rate 0).
    """
    i_uyr, i_uye, _ = policy_mi_triple(channel, policy)
    n = cfg.n
    count = math.ceil(2.0 ** (n * (i_uyr - cfg.rate_margin)))
    if count > MAX_CODEBOOK:
        raise BudgetError(
            f"codebook would need {count} sequences (limit {MAX_CODEBOOK}); "
            "reduce n or increase rate_margin")
    count = max(1, count)
    bins = max(1, math.ceil(2.0 ** (n * (i_uyr - i_uye - cfg.rate_margin))))
    return count, min(bins, count)


def build_codebook(channel: StateChannel, policy: AuxiliaryEncoderPolicy,
                   cfg: SimConfig) -> BinningCodebook:
    """Draw the i.i.d. u-sequence codebook and randomly partition it into bins.

    Its sizes are ``_codebook_size``'s; with a single bin the simulator
    still runs and reports zero leakage.  A codebook whose exact leakage or
    run tables would be over budget raises ``BudgetError`` before the
    sequences and the partition are drawn from ``_rng_stream(cfg.seed, 0)``.
    """
    count, bins = _codebook_size(channel, policy, cfg)
    _check_exact_leakage(channel, policy, count, bins, cfg.n)
    _check_table_bytes(count, cfg.n, policy.u_size, channel.yr_size)
    p_u = np.einsum("s,su->u", channel.state_pmf, policy.u_given_s)
    p_u = p_u / p_u.sum()
    rng = _rng_stream(cfg.seed, 0)
    sequences = rng.choice(policy.u_size, size=(count, cfg.n), p=p_u)
    bin_of = np.empty(count, dtype=np.int64)
    bin_of[rng.permutation(count)] = np.arange(count) % bins
    return BinningCodebook(sequences=sequences, bin_of=bin_of, num_bins=bins)


def _log_law(joint: np.ndarray) -> np.ndarray:
    """log p(b | a) from a joint law p(a, b), ``_LOG_ZERO`` where
    p(a, b) = 0: the likelihood terms of both decoders."""
    rows = np.maximum(joint.sum(axis=1, keepdims=True), _TINY)
    with np.errstate(divide="ignore"):
        return np.maximum(np.log(joint / rows), _LOG_ZERO)


def _decoder_law(channel: StateChannel,
                 policy: AuxiliaryEncoderPolicy) -> np.ndarray:
    """``_log_law`` of p(u, yr): log p(yr | u), shape (u, yr)."""
    return _log_law(np.einsum("us,usx,xsr->ur", _joint_u_s(channel, policy),
                              policy.x_given_us, channel.receiver_kernel()))


def _check_table_bytes(count: int, n: int, u_size: int, yr_size: int) -> None:
    """BudgetError if the run tables of ``count`` codewords of length n
    would exceed MAX_LEAKAGE_BYTES: the codeword indicators, count · |U| · n
    floats, and the decoder's terms, count · n · |Yr|."""
    held = 8 * count * n * (u_size + yr_size)
    if held > MAX_LEAKAGE_BYTES:
        raise BudgetError(
            f"the encoder and decoder tables need {held} bytes (limit "
            f"{MAX_LEAKAGE_BYTES}); reduce n or increase rate_margin")


@dataclass(frozen=True)
class _NoDiscTables:
    """The tables of a no-discussion run and its codebook, built once per
    run by ``_no_disc_tables``.

    The cdf tables are ``_cdf_columns``, read by ``_draw``: p(s) has one
    cell (0), p(x | u, s) one per (u, s) coded u * |S| + s, and the kernel's
    receiver side one per (x, s), see ``_kernel_columns``.  ``codewords`` are the
    codebook's candidates for the encoder's test ``typical``.
    ``state_typical`` holds that test of every state sequence, in the order
    of ``_sequences``, against every codeword, filled by ``typical.pairs``
    in the chunks of ``exact_leakage``; it is None where the eavesdropper's
    view is constant, since the exact leakage then enumerates nothing and
    the encoder tests each chunk of trials itself.  The decoder's terms hold
    n |Yr| floats per codeword c: row i |Yr| + y is log p(y | u_ci),
    ``_LOG_ZERO`` where p(u_ci, y) = 0.
    """

    typical: _Typicality        # strong typicality against p(u, s)
    codewords: np.ndarray       # (count, u, n), _indicators of the codebook
    state_typical: np.ndarray | None    # (s^n, count) bool, or None
    x_cols: np.ndarray          # cdf columns of p(x | u, s), (x - 1, u * s)
    state_cols: np.ndarray      # cdf columns of p(s), shape (s - 1, 1)
    kernel_cols: np.ndarray     # see _kernel_columns
    yr_terms: np.ndarray        # (n * yr, count), log p(y | u_ci)


def _no_disc_tables(channel: StateChannel, policy: AuxiliaryEncoderPolicy,
                    codebook: BinningCodebook, epsilon: float) -> _NoDiscTables:
    """The run tables, whose bytes ``build_codebook`` checks.  The state
    table is built only after ``_check_exact_leakage`` of this codebook,
    which counts its bytes too, so a codebook that no draw budgeted is
    refused before any of its rows."""
    count, n = codebook.sequences.shape
    log_yr_given_u = _decoder_law(channel, policy)
    typical = _Typicality(_joint_u_s(channel, policy), n, epsilon)
    codewords = _indicators(codebook.sequences, policy.u_size)
    return _NoDiscTables(
        typical=typical, codewords=codewords,
        state_typical=_enumerated(functools.partial(typical.pairs, codewords),
                                  channel.s_size, n, 8 * max(count, n))
        if _check_exact_leakage(channel, policy, count, codebook.num_bins, n)
        else None,
        x_cols=_cdf_columns(policy.x_given_us.reshape(-1, channel.x_size)),
        state_cols=_cdf_columns(channel.state_pmf[None]),
        kernel_cols=_kernel_columns(channel),
        yr_terms=np.ascontiguousarray(
            log_yr_given_u[codebook.sequences].reshape(count, -1).T))


def encode(codebook: BinningCodebook, tables: _NoDiscTables, s_seqs,
           streams: TrialStreams) -> EncodeResult:
    """Per trial, pick a codeword jointly typical with s^n, then sample x^n.

    ``s_seqs`` is (trials, n), and row t of ``streams`` is trial t's stream.
    The codeword is drawn uniformly from the typical candidates; where none
    qualifies (an encode failure, reported in ``typical`` and not raised) it
    is drawn uniformly from the whole codebook.  Each stream draws its pick,
    then the n uniforms of x^n; x_i is drawn by ``_draw`` from the cell
    u_i * |S| + s_i of ``tables.x_cols``.  The typical candidates of each
    s^n are its row of ``tables.state_typical``, or, where the run tables
    hold no such table, one ``pairs`` test of the codewords against the
    whole chunk; ``tables`` must be built for this codebook.  A state symbol
    outside [0, |S|) raises ``ValueError``.
    """
    s_seqs = np.asarray(s_seqs, dtype=np.int64)
    if s_seqs.shape != (len(streams), codebook.n):
        raise ValueError(f"s_seqs must have shape ({len(streams)}, {codebook.n})")
    if tables.codewords.shape[::2] != codebook.sequences.shape:
        raise ValueError("tables were built for another codebook")
    s_size = tables.typical.b_size
    _check_symbols("s", s_seqs, s_size)
    mask = tables.typical.pairs(tables.codewords, s_seqs) \
        if tables.state_typical is None \
        else tables.state_typical[_index(s_seqs, s_size)]
    sizes = mask.sum(axis=1)
    picks = streams.integers(np.where(sizes > 0, sizes, codebook.count))
    uniforms = streams.random(codebook.n)
    typical = sizes > 0
    # The pick-th typical codeword is where the running count passes pick.
    nth = (mask.cumsum(axis=1) > picks[:, None]).argmax(axis=1)
    index = np.where(typical, nth, picks)
    cells = codebook.sequences[index] * s_size + s_seqs
    return EncodeResult(index=index, x_seq=_draw(tables.x_cols, cells, uniforms),
                        typical=typical)


def decode(codebook: BinningCodebook, tables: _NoDiscTables,
           yr_seqs) -> np.ndarray:
    """Maximum-likelihood key per trial: the bin whose codewords best
    explain the row of ``yr_seqs`` (shape (trials, n)).

    Each codeword u^n scores prod_i p(yr_i | u_i) under the single-letter law
    p(u, yr); the scores are summed per bin, in codeword order, and the bin
    with the largest sum is the key.  A tie for the top bin sum, or zero
    likelihood for every codeword, is a decode failure (key -1).

    The log-likelihoods of all (trial, codeword) pairs are one matrix
    product: the trials' yr^n one-hot, (trials, n |Yr|) with a 1 at column
    i |Yr| + yr_i, times ``tables.yr_terms``, which must be built for this
    codebook.  A codeword of zero likelihood scores at or below
    ``_LOG_ZERO``.
    """
    yr_seqs = np.asarray(yr_seqs, dtype=np.int64)
    if yr_seqs.ndim != 2 or yr_seqs.shape[1] != codebook.n:
        raise ValueError(f"yr_seqs must have shape (trials, {codebook.n})")
    width, count = tables.yr_terms.shape
    if count != codebook.count or width % codebook.n:
        raise ValueError("tables were built for another codebook")
    yr_size = width // codebook.n
    _check_symbols("yr", yr_seqs, yr_size)
    trials = len(yr_seqs)
    log_lik = _onehot(yr_seqs, yr_size) @ tables.yr_terms
    top = log_lik.max(axis=1)
    live = top > _LOG_ZERO
    scores = np.exp(log_lik - np.where(live, top, 0.0)[:, None])
    bins = codebook.num_bins
    offsets = (np.arange(trials) * bins)[:, None]
    bin_sums = np.bincount((codebook.bin_of + offsets).ravel(),
                           weights=scores.ravel(),
                           minlength=trials * bins).reshape(trials, bins)
    key = bin_sums.argmax(axis=1)
    # Sums that are equal in exact arithmetic may differ in the last bits
    # after rounding; a bin that close to the top is a tie, not a loss.
    best = bin_sums[np.arange(trials), key][:, None]
    ok = live & (np.count_nonzero(bin_sums >= best * (1.0 - 1e-12), axis=1) == 1)
    return np.where(ok, key, -1)


def _check_leakage_cost(rows: int, n: int, a: int, c: int, held: int) -> None:
    """Refuse an exact leakage over budget: ``_add_kron_rows`` over ``rows``
    rows of n (a, c) factors takes about rows · n · max(a, c)^n multiply-adds,
    and ``held`` counts the bytes of the arrays it holds: the weights, the
    key × view table and any candidate indicators or state table."""
    muladds = rows * n * max(a, c) ** n
    if muladds > MAX_LEAKAGE_MULADDS or held > MAX_LEAKAGE_BYTES:
        raise BudgetError(
            f"exact leakage needs {muladds} multiply-adds and {held} bytes "
            f"(limits {MAX_LEAKAGE_MULADDS} and {MAX_LEAKAGE_BYTES}); reduce n")


def _add_kron_rows(table: np.ndarray, rows: np.ndarray, v: np.ndarray,
                   law: np.ndarray, seqs: np.ndarray) -> None:
    """table[rows[b]] += v[b] @ (law[seqs[b, 0]] ⊗ ... ⊗ law[seqs[b, n-1]]).

    Each step contracts a row's leading a-axis with one (a, c) matrix law[u]
    and appends the c-axis last, so n steps end in Kronecker order.  Chunks
    of rows keep each intermediate under ``_KRON_CHUNK_BYTES``.
    """
    _, a, c = law.shape
    count, n = seqs.shape
    step = max(1, _KRON_CHUNK_BYTES // (8 * max(a, c) ** n))
    for lo in range(0, count, step):
        part, mats = v[lo:lo + step], law[seqs[lo:lo + step]]
        for i in range(n):
            part = np.einsum("bar,bac->brc",
                             part.reshape(len(part), a, -1), mats[:, i])
        np.add.at(table, rows[lo:lo + step], part.reshape(len(part), -1))


def _leakage_bits(table: np.ndarray, n: int) -> float:
    """I(key; view) / n in bits from an unnormalized (key, view) table,
    which it normalizes in place.  A one-valued key leaks exactly 0."""
    total = table.sum()
    if len(table) == 1 or not total > 0:
        return 0.0
    table /= total
    return float(mi_bits(table)) / n


def _check_exact_leakage(channel: StateChannel,
                         policy: AuxiliaryEncoderPolicy, count: int,
                         bins: int, n: int) -> bool:
    """False for a constant view, which costs nothing; else True, after
    ``_check_leakage_cost`` on the exact leakage of ``count`` codewords of
    length n in ``bins`` bins: its float weights, codeword indicators and
    key × view table, and the run tables' state table of one byte per
    (state sequence, codeword) pair."""
    if np.count_nonzero(channel.eavesdropper_kernel().any(axis=(0, 1))) == 1:
        return False
    states = channel.s_size ** n
    _check_leakage_cost(count, n, channel.s_size, channel.ye_size,
                        count * (9 * states + 8 * policy.u_size * n)
                        + 8 * bins * channel.ye_size ** n)
    return True


def exact_leakage(codebook: BinningCodebook, channel: StateChannel,
                  policy: AuxiliaryEncoderPolicy, tables: _NoDiscTables) -> float:
    """Exact I(K; Ye^n) / n in bits per symbol for the binned key.

    The joint law of (K, Ye^n) follows the i.i.d. state, the encoder's
    selection w(s^n, c) (uniform over typical candidates, else over the whole
    codebook), the per-symbol x sampling and the memoryless kernel: codeword
    c adds v_c (M_c1 ⊗ ... ⊗ M_cn) to its bin, with v_c[s^n] = p(s^n) w(s^n, c)
    and M_ci[s, ye] = p(ye | u_ci, s), applied mode by mode in about
    count · n · max(|S|, |Ye|)^n multiply-adds, plus count · |S|^n floats
    for v.  It scores the run's encoder: w takes the typical codewords of
    each s^n from its row of ``tables.state_typical``, read in chunks of
    state sequences, and ``tables`` must be built for this codebook.  This
    is the module's ground-truth secrecy oracle.  A constant view (one ye
    symbol whatever x and s are) leaks nothing and costs nothing; any other
    raises ``BudgetError`` over the leakage budget, before any work.
    """
    n = codebook.n
    if tables.codewords.shape[::2] != codebook.sequences.shape:
        raise ValueError("tables were built for another codebook")
    if not _check_exact_leakage(channel, policy, codebook.count,
                                codebook.num_bins, n):
        return 0.0
    p_ye_us = np.einsum("usx,xse->use", policy.x_given_us,   # x summed out
                        channel.eavesdropper_kernel())
    states = channel.s_size ** n
    weights = np.empty((codebook.count, states))
    log_ps = np.log(np.maximum(channel.state_pmf, 1e-300))
    step = _chunk_rows(8 * max(codebook.count, n))   # a float share per pair
    for lo in range(0, states, step):
        s_seqs = _sequences(channel.s_size, n, lo, min(lo + step, states))
        prob_s = np.exp(log_ps[s_seqs].sum(axis=1))
        mask = tables.state_typical[lo:lo + step]
        k = mask.sum(axis=1, keepdims=True)
        share = np.where(k > 0, mask / np.maximum(k, 1), 1.0 / codebook.count)
        weights[:, lo:lo + len(s_seqs)] = (prob_s[:, None] * share).T
    table = np.zeros((codebook.num_bins, channel.ye_size ** n))
    _add_kron_rows(table, codebook.bin_of, weights, p_ye_us, codebook.sequences)
    return _leakage_bits(table, n)


def _no_disc_chunk(channel: StateChannel, codebook: BinningCodebook,
                   tables: _NoDiscTables, key_of_yr: np.ndarray | None,
                   cfg: SimConfig,
                   trials: np.ndarray) -> tuple[int, int, np.ndarray]:
    """The no-discussion trials ``trials``, read through one
    ``TrialStreams``: their disagreements, encode failures and key counts.

    The streams draw s^n, each stream then draws its pick and the uniforms
    of x^n and of the channel, and ``encode`` and the draw of yr^n (the
    eavesdropper's output is never drawn) run on all the trials at once.
    The decoded keys are ``key_of_yr`` at each yr^n's index, or, without
    that table, one ``decode`` of the chunk.  Nothing else outlives the
    call.
    """
    n = cfg.n
    streams = TrialStreams(cfg.seed, (1,), trials, 3 * n + 1)
    s_seqs = _draw(tables.state_cols, 0, streams.random(n))
    enc = encode(codebook, tables, s_seqs, streams)
    yr_seqs = _draw(tables.kernel_cols, enc.x_seq * channel.s_size + s_seqs,
                    streams.random(n))
    keys = codebook.bin_of[enc.index]
    decoded = decode(codebook, tables, yr_seqs) if key_of_yr is None \
        else key_of_yr[_index(yr_seqs, channel.yr_size)]
    return (int(np.count_nonzero(decoded != keys)),
            int(np.count_nonzero(~enc.typical)),
            np.bincount(keys, minlength=codebook.num_bins))


def run_no_discussion(channel: StateChannel, policy: AuxiliaryEncoderPolicy,
                      cfg: SimConfig) -> SimReport:
    """Monte Carlo episodes of {draw state, encode, send, decode}.

    Trials run in chunks, one ``_no_disc_chunk`` call each, so no array of
    one chunk is alive while the next builds its stream words.  A chunk is
    sized to its largest per-trial temporary: two floats per stream word
    (3n + 1 per trial), the decoder's four floats per codeword, or its
    one-hot's n |Yr| floats.
    Disagreement counts decode failures (tied bins, or no codeword with
    nonzero likelihood) as well as key mismatches.  ``build_codebook``
    checks both budgets before its draw, and the exact leakage reads the
    run tables the trials use.

    When |Yr|^n is at most the number of trials and ``MAX_CODEBOOK``, every
    yr^n is decoded once, in chunks of the decoder's budget, before the
    trials: that key table holds at most 8 MiB, and it never decodes more
    rows than the trials would.  The trials then read their keys from it.
    Otherwise each chunk decodes its own trials.
    """
    codebook = build_codebook(channel, policy, cfg)
    tables = _no_disc_tables(channel, policy, codebook, cfg.epsilon)
    leakage = exact_leakage(codebook, channel, policy, tables)
    n, decoder_bytes = cfg.n, 32 * codebook.count
    key_of_yr = _enumerated(functools.partial(decode, codebook, tables),
                            channel.yr_size, n, decoder_bytes) \
        if channel.yr_size ** n <= min(cfg.trials, MAX_CODEBOOK) else None
    disagreements, encode_failures, key_counts = _sum_chunks(
        functools.partial(_no_disc_chunk, channel, codebook, tables, key_of_yr,
                          cfg), cfg.trials, max(16 * (3 * n + 1), decoder_bytes,
                                 8 * n * channel.yr_size))
    achieved = _entropy(key_counts / cfg.trials) / cfg.n
    return SimReport(
        disagreement_prob=disagreements / cfg.trials,
        leakage_bits_per_symbol=leakage,
        achieved_key_rate=achieved,
        encode_failure_rate=encode_failures / cfg.trials,
        leakage_method="exact",
        diagnostics={
            "num_sequences": float(codebook.count),
            "num_bins": float(codebook.num_bins),
            "total_rate": codebook.total_rate,
            "key_rate": codebook.key_rate,
            "trials": float(cfg.trials),
        })


# ---------------------------------------------------------------------------
# one-round discussion scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _OneRoundTables:
    """Receiver-sequence partition and single-letter laws for one-round runs,
    built once per run by ``_one_round_tables``.

    The members of public bin b, in increasing sequence order, are
    ``by_bin[bin_starts[b]:bin_starts[b + 1]]``, and their likelihood terms
    are the same slice of ``member_terms``: row j holds log p(yr_i | x, s)
    of member ``by_bin[j]`` at column i |X||S| + x |S| + s, ``_LOG_ZERO``
    where p(x, s, yr_i) = 0.  One stable argsort of ``bin_of`` and one term
    table, made once per run, serve every reconstruction.  The cdf tables
    are ``_cdf_columns``, read by ``_draw``: p(s) has one cell (0), p(x | s)
    one per s, and the kernel's receiver side one per (x, s), see
    ``_kernel_columns``.  The exact leakage reads only these tables.
    """

    all_yr: np.ndarray          # (|Yr|^n, n)
    bin_of: np.ndarray          # public bin per sequence (overflow = num_bins)
    by_bin: np.ndarray          # sequence indices sorted stably by bin
    bin_starts: np.ndarray      # (num_bins + 2,) offsets of each bin in by_bin
    member_terms: np.ndarray    # (|Yr|^n, n * x * s), in by_bin order
    sub_of: np.ndarray          # key sub-bin per sequence
    num_bins: int
    num_subbins: int
    state_cols: np.ndarray      # cdf columns of p(s), shape (s - 1, 1)
    x_cols: np.ndarray          # cdf columns of p(x | s), shape (x - 1, s)
    kernel_cols: np.ndarray     # see _kernel_columns
    yr_ye: np.ndarray           # p(yr, ye), x and s summed out
    key_rate_target: float


def _one_round_tables(channel: StateChannel, policy: InputPolicy,
                      cfg: SimConfig) -> _OneRoundTables:
    check_alphabets(channel, policy)
    p = np.einsum("s,sx,xsre->xsre", channel.state_pmf, policy.x_given_s,
                  channel.kernel)                              # p(x,s,yr,ye)
    p_xsr = p.sum(axis=3)
    h_yr_given_xs = _entropy(p_xsr) - _entropy(p.sum(axis=(2, 3)))
    # p(yr, (x, s)), (x, s) coded x * |S| + s; its transpose gives the
    # reconstruction's likelihood terms.
    p_yr_xs = np.ascontiguousarray(p_xsr.transpose(2, 0, 1)).reshape(
        channel.yr_size, -1)
    i_xs = float(mi_bits(p_yr_xs))
    i_e = float(mi_bits(p.sum(axis=(0, 1))))
    n = cfg.n
    outputs = channel.yr_size ** n
    # The bins are cut to the typical set below, at most |Yr|^n sequences,
    # so the exponent is capped at log2 |Yr|^n: 2^exponent may overflow.
    num_bins = max(1, math.ceil(2.0 ** min(
        n * (h_yr_given_xs + cfg.rate_margin), math.log2(outputs))))
    key_exponent = i_xs - i_e - cfg.rate_margin
    num_subbins = max(1, math.ceil(2.0 ** (n * key_exponent))) \
        if key_exponent > 0 else 1
    # Fail before any enumeration, on at most this many bins: the rows of
    # one_round_exact_leakage are the |Yr|^n sequences, with one weight and
    # n |X| |S| member terms each.
    _check_leakage_cost(outputs, n, 1, channel.ye_size, 8 * (
        outputs * (1 + n * p_yr_xs.shape[1]) + num_subbins
        * (min(num_bins, outputs) + 1) * channel.ye_size ** n))
    all_yr = _sequences(channel.yr_size, n, 0, outputs)
    # The marginal test: each sequence as a fixed row against one candidate
    # of a single symbol, so every positive cell is its column's one, and
    # the test is the fixed side's count bands and zero-cell product.
    typ_idx = np.flatnonzero(_Typicality(p.sum(axis=(0, 1, 3))[None], n,
                                         cfg.epsilon).pairs(np.ones((1, 1, n)),
                                                            all_yr))
    num_bins = min(num_bins, max(1, typ_idx.size))
    ranked = typ_idx[_rng_stream(cfg.seed, 0).permutation(typ_idx.size)]
    bin_of = np.full(all_yr.shape[0], num_bins, dtype=np.int64)   # overflow bin
    sub_of = np.zeros(all_yr.shape[0], dtype=np.int64)
    # Rank r fills bin r % num_bins as that bin's (r // num_bins)-th member.
    rounds, bin_of[ranked] = np.divmod(np.arange(ranked.size), num_bins)
    sub_of[ranked] = rounds % num_subbins
    bin_starts = np.concatenate(
        ([0], np.cumsum(np.bincount(bin_of, minlength=num_bins + 1))))
    by_bin = np.argsort(bin_of, kind="stable")
    return _OneRoundTables(all_yr=all_yr, bin_of=bin_of, by_bin=by_bin,
                           bin_starts=bin_starts,
                           member_terms=_log_law(p_yr_xs.T).T[
                               all_yr[by_bin]].reshape(outputs, -1),
                           sub_of=sub_of,
                           num_bins=num_bins, num_subbins=num_subbins,
                           state_cols=_cdf_columns(channel.state_pmf[None]),
                           x_cols=_cdf_columns(policy.x_given_s),
                           kernel_cols=_kernel_columns(channel),
                           yr_ye=np.einsum("s,sx,xsre->re", channel.state_pmf,
                                           policy.x_given_s, channel.kernel),
                           key_rate_target=max(0.0, key_exponent))


def _reconstruct(tables: _OneRoundTables, xs_seqs: np.ndarray,
                 published: np.ndarray) -> np.ndarray:
    """Per trial, the most likely member of its published bin given its
    (x, s) pairs, coded x * |S| + s in ``xs_seqs`` (trials, n): the largest
    sum_i log p(yr_i | x_i, s_i).  -1 where the bin is empty, where every
    member has zero likelihood (a top at or below ``_LOG_ZERO``), or where a
    second member lies within 1e-12 of the top (a tie).

    Each bin takes one product, as ``decode`` does: the (x, s) one-hot of
    the trials, sorted stably by published bin and built once, so a bin's
    trials are one slice of it, times the bin's slice of
    ``tables.member_terms``, in steps of trials whose (trials, members)
    scores fit the chunk budget.
    """
    terms, starts = tables.member_terms, tables.bin_starts
    order = np.argsort(published, kind="stable")
    onehot = _onehot(xs_seqs[order], terms.shape[1] // xs_seqs.shape[1])
    found = np.full(len(published), -1)
    bins, firsts = np.unique(published[order], return_index=True)
    for b, first, end in zip(bins, firsts, [*firsts[1:], len(order)]):
        lo, hi = starts[b], starts[b + 1]
        if lo == hi:
            continue
        step = _chunk_rows(8 * (hi - lo))
        for t in range(first, end, step):
            rows = slice(t, min(t + step, end))
            log_lik = onehot[rows] @ terms[lo:hi].T
            best = log_lik.argmax(axis=1)
            top = log_lik[np.arange(len(best)), best]
            ok = (top > _LOG_ZERO) & (np.count_nonzero(
                log_lik >= top[:, None] - 1e-12, axis=1) == 1)
            found[order[rows][ok]] = tables.by_bin[lo + best[ok]]
    return found


def one_round_exact_leakage(tables: _OneRoundTables) -> float:
    """Exact I(K; Ye^n, public bin) / n for the one-round scheme.

    Uses the factorization of (Yr^n, Ye^n) into the i.i.d. per-symbol joint
    ``tables.yr_ye``, so the mode products run over the |Yr|^n output
    sequences, a cost ``_one_round_tables`` has checked.
    """
    rows, n = tables.all_yr.shape
    # Rows (sub, bin): the key indexes blocks of rows, the view is (bin, ye^n).
    views = tables.num_bins + 1
    table = np.zeros((tables.num_subbins * views, tables.yr_ye.shape[1] ** n))
    _add_kron_rows(table, tables.sub_of * views + tables.bin_of,
                   np.ones((rows, 1)), tables.yr_ye[:, None], tables.all_yr)
    return _leakage_bits(table.reshape(tables.num_subbins, -1), n)


def _one_round_chunk(channel: StateChannel, tables: _OneRoundTables,
                     cfg: SimConfig,
                     trials: np.ndarray) -> tuple[int, int, int, np.ndarray]:
    """The one-round trials ``trials``: their disagreements (reconstruction
    failures included), reconstruction failures, unique and correct
    reconstructions, and key counts.

    One ``TrialStreams`` draws the 3n uniforms of every trial, and the rest
    runs on all the trials at once: the receiver's draw (the eavesdropper's
    output is never drawn), and the reconstruction, one likelihood product
    per published bin.  Nothing else outlives the call.
    """
    n = cfg.n
    uniforms = TrialStreams(cfg.seed, (1,), trials, 3 * n).random(3 * n)
    s_seqs = _draw(tables.state_cols, 0, uniforms[:, :n])
    x_seqs = _draw(tables.x_cols, s_seqs, uniforms[:, n:2 * n])
    yr_seqs = _draw(tables.kernel_cols, x_seqs * channel.s_size + s_seqs,
                    uniforms[:, 2 * n:])
    yr_index = _index(yr_seqs, channel.yr_size)
    receiver_keys = tables.sub_of[yr_index]
    recon = _reconstruct(tables, x_seqs * channel.s_size + s_seqs,
                         tables.bin_of[yr_index])
    found = recon >= 0
    failures = int(np.count_nonzero(~found))
    return (failures + int(np.count_nonzero(
                tables.sub_of[recon[found]] != receiver_keys[found])),
            failures, int(np.count_nonzero(recon == yr_index)),
            np.bincount(receiver_keys, minlength=tables.num_subbins))


def run_one_round_discussion(channel: StateChannel, policy: InputPolicy,
                             cfg: SimConfig) -> SimReport:
    """Simulate the one-round public-discussion scheme.

    Per trial: the sender draws x^n from p(x|s); the receiver observes yr^n,
    publishes its bin index (an overflow marker when yr^n is atypical), and
    keeps its sub-bin index as the key; the sender reconstructs yr^n as the
    member of the published bin most likely given (x^n, s^n), and declares
    the reconstructed sub-bin.  Reconstruction failures (an empty bin, zero
    likelihood, or a tie at the top) count as disagreements and are
    reported through ``encode_failure_rate``.  Trials run in chunks, one
    ``_one_round_chunk`` call each, so no array of one chunk is alive while
    the next builds its stream words.  A chunk is sized to two floats per
    stream word (3n per trial) or to the reconstruction's (x, s) one-hot,
    n |X| |S| floats per trial; ``_reconstruct`` splits its own scores.
    """
    tables = _one_round_tables(channel, policy, cfg)
    n = cfg.n
    disagreements, recon_failures, unique_correct, key_counts = _sum_chunks(
        functools.partial(_one_round_chunk, channel, tables, cfg), cfg.trials,
        max(48, 8 * channel.x_size * channel.s_size) * n)
    unique_lookups = cfg.trials - recon_failures
    leakage = one_round_exact_leakage(tables)
    achieved = _entropy(key_counts / cfg.trials) / n
    return SimReport(
        disagreement_prob=disagreements / cfg.trials,
        leakage_bits_per_symbol=leakage,
        achieved_key_rate=achieved,
        encode_failure_rate=recon_failures / cfg.trials,
        leakage_method="exact",
        diagnostics={
            "reconstruction_failure_rate": recon_failures / cfg.trials,
            "reconstruction_success_rate": 1.0 - recon_failures / cfg.trials,
            "unique_lookups": float(unique_lookups),
            "unique_and_correct": float(unique_correct),
            "num_public_bins": float(tables.num_bins),
            "num_subbins": float(tables.num_subbins),
            "key_rate_target": tables.key_rate_target,
            "trials": float(cfg.trials),
        })
