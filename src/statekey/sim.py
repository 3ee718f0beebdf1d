"""Desk-scale simulation of the random-binning key-agreement schemes.

Two modes are implemented at tiny block lengths:

* ``no_discussion``: a codebook of u-sequences is drawn i.i.d. and randomly
  partitioned into key bins; the encoder picks a codeword jointly typical
  with the state sequence and declares that codeword's bin index as the key;
  the receiver declares the bin whose codewords have the largest summed
  likelihood of its channel output.
* ``one_round_discussion``: the sender transmits x ~ p(x|s); the receiver
  publishes the bin index of its output sequence, the sender reconstructs
  that sequence from (x, s, bin) by unique joint typicality, and both declare
  the sub-bin index as the key.  Leakage accounting includes the public bin
  index in the eavesdropper's view.

Typicality is the strong (empirical-count) kind: every cell of the joint
empirical distribution must lie within ``epsilon`` of the model pmf, and
cells with zero model probability must be unoccupied.  ``_typicality``
prepares the test once per (pmf, n, epsilon): it checks the count bands once,
then holds a batch of candidate rows against a batch of fixed rows with one
0/1 product for all zero cells, one count per fixed row for a column with one
positive cell, and one product for each other cell whose band can fail.  The
encoder, the exact leakage, the one-round typical set and reconstruction (where
ambiguity is an error) and ``is_jointly_typical`` all use it.  The no-discussion
decoder is bin-wise maximum likelihood under the single-letter law
p(yr | u): it reads no ``epsilon``, and a tie between bins counts as an
error.  When the encoder finds no typical codeword it falls back to a
uniformly random codeword (counted in ``encode_failure_rate``); the
exact-leakage enumeration applies the same fallback law.  Exact leakage
applies each codeword's Kronecker product one mode at a time, never forming
it: about count · n · max(|S|, |Ye|)^n multiply-adds, in chunks of codewords.
Leakage is always exact, in both modes.  A run whose leakage would take more
than ``MAX_LEAKAGE_MULADDS`` multiply-adds, or hold more than
``MAX_LEAKAGE_BYTES`` of weights and key × view table, raises
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
words bit for bit with integer arithmetic on arrays over the chunk; only a
pick that Lemire's rejection rule refuses sends its trial back to
``_rng_stream``.

The trial loops run on chunks of trials: ``encode``, ``transmit``,
``decode`` and the typicality kernel take a leading trial axis.  Every
categorical draw (s, x and the channel's (yr, ye)) is ``_draw`` on a cdf
table stored by column: one comparison per inner threshold on a (trials, n)
array, so a draw never leaves the alphabet.  The decoder scores every
(trial, codeword) pair with one matrix product of the trials' yr^n one-hot
and the codewords' log-likelihood terms, built once per run.  A chunk holds
a few floats per (trial, codeword) pair in the decoder, at most
``_PAIR_BYTES`` (11) bytes per (trial, candidate) pair in the typicality
test, and the raw words and uniforms.  The chunk sizes still budget the n
floats per codeword and the n |Yr| |Ye| floats per trial that the decoder
and the channel draw once gathered: chunks sized to the smaller temporaries
would be about 2.4 times larger, and the traced peak of a no-discussion run
would then grow with its trials (1.4 MB at 1,000 trials, 1.9 MB at 20,000,
on the benchmark configuration).  One-round reconstruction splits each
public bin's members and trials to the same budget.  Run memory therefore
does not grow with the number of trials.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (AuxiliaryEncoderPolicy, InputPolicy, StateChannel,
                      _entropy, check_integer, entropy_bits,
                      induce_input_joint, mi_bits, mutual_information,
                      policy_mi_triple)

MAX_CODEBOOK = 2 ** 20
# The exact-leakage budget, shared by both modes.  The sim-nodisc
# configuration at n = 18 needs 3.0e8 multiply-adds and 138 MiB.
MAX_LEAKAGE_MULADDS = 2 ** 30
MAX_LEAKAGE_BYTES = 192 * 2 ** 20
_KRON_CHUNK_BYTES = 8 * 2 ** 20
# Several temporaries of a chunk's size are alive at once.  A larger budget
# makes the trial loops faster, but their traced peak then grows with the
# number of trials (see the module docstring).
_TRIAL_CHUNK_BYTES = 256 * 2 ** 10
# The most bytes _Typicality.pairs holds per (fixed, candidate) pair: its
# float count buffer, the running result, and one comparison or the result
# scattered back to every fixed row.
_PAIR_BYTES = 11
_TINY = np.finfo(float).tiny


class BudgetError(RuntimeError):
    """An enumeration or codebook size limit was exceeded."""


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
class CodebookRates:
    total_rate: float
    key_rate: float
    per_bin_rate: float


@dataclass(frozen=True)
class BinningCodebook:
    """u-sequence codebook with its random bin structure.

    ``sequences`` has shape (count, n); ``bin_of`` maps sequence index to bin
    index.  Rates are bits per symbol with total_rate = key_rate + per_bin_rate.
    """

    sequences: np.ndarray
    bin_of: np.ndarray
    num_bins: int
    rates: CodebookRates

    def __post_init__(self):
        seqs = np.array(self.sequences, dtype=np.int64, copy=True)
        bins = np.array(self.bin_of, dtype=np.int64, copy=True)
        if seqs.ndim != 2 or bins.shape != (seqs.shape[0],):
            raise ValueError("sequences must be (count, n) and bin_of (count,)")
        check_integer("num_bins", self.num_bins, 1)
        if bins.size and (bins.min() < 0 or bins.max() >= self.num_bins):
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

    def with_singleton_bins(self) -> "BinningCodebook":
        """View of the same codebook keyed by the codeword index itself."""
        total = math.log2(max(1, self.count)) / self.n
        return BinningCodebook(
            sequences=self.sequences,
            bin_of=np.arange(self.count),
            num_bins=max(1, self.count),
            rates=CodebookRates(total, total, 0.0))


@dataclass(frozen=True)
class EncodeResult:
    """Per trial: the chosen codeword, the sampled input sequence, and
    whether any codeword was typical (False: the pick is the uniform
    fallback over the whole codebook)."""

    index: np.ndarray       # (trials,)
    x_seq: np.ndarray       # (trials, n)
    typical: np.ndarray     # (trials,) bool


@dataclass(frozen=True)
class DecodeResult:
    """Per trial: the decoded key and the most likely codeword in its bin;
    both are -1 where decoding failed."""

    index: np.ndarray       # (trials,)
    key: np.ndarray         # (trials,)


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


def _rng_stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


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
# each trial's index, the seed of PCG64 and its outputs are integer
# arithmetic on arrays over trials.

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


@functools.lru_cache(maxsize=16)
def _pcg_jumps(k: int) -> tuple[np.ndarray, ...]:
    """(hi, lo) words of P_j and Q_j, j < k, such that the state behind
    PCG64's j-th output is P_j * initstate + Q_j * inc (mod 2^128).

    Seeding leaves the state A (initstate + inc) + inc, and each output
    first steps it to A state + inc.
    """
    mod = 2 ** 128
    p, q = _PCG_MULT, _PCG_MULT + 1
    jumps = []
    for _ in range(k):
        p, q = p * _PCG_MULT % mod, (q * _PCG_MULT + 1) % mod
        jumps.append((p >> 64, p & 2 ** 64 - 1, q >> 64, q & 2 ** 64 - 1))
    out = np.array(jumps, dtype=np.uint64).T.copy()
    out.setflags(write=False)
    return tuple(out)


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(a * b) mod 2^128 on (hi, lo) uint64 words, broadcast."""
    a1, a0 = a_lo >> 32, a_lo & _M32
    b1, b0 = b_lo >> 32, b_lo & _M32
    cross1, cross2 = a1 * b0, a0 * b1
    carry = a0 * b0
    carry >>= 32
    hi = a1 * b1
    for cross in (cross1, cross2):
        carry += cross & _M32
        cross >>= 32
        hi += cross
    carry >>= 32
    hi += carry
    hi += np.multiply(a_lo, b_hi, out=carry)
    hi += np.multiply(a_hi, b_lo, out=carry)
    return hi, np.multiply(a_lo, b_lo, out=carry)


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
    state = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTS)
    seeds = state[:, 0::2].astype(np.uint64) | state[:, 1::2].astype(np.uint64) << 32
    init_hi, init_lo, seq_hi, seq_lo = (seeds[:, i:i + 1] for i in range(4))
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    p_hi, p_lo, q_hi, q_lo = _pcg_jumps(k)
    hi, lo = _mul128(init_hi, init_lo, p_hi, p_lo)
    inc_part_hi, inc_part_lo = _mul128(inc_hi, inc_lo, q_hi, q_lo)
    lo += inc_part_lo
    hi += inc_part_hi
    hi += lo < inc_part_lo
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
    ``_trial_draws``.  A uniform is (w >> 11) 2^-53 of the next word w.
    ``integers(k)`` is Lemire's bounded integer (ACM TOMACS 2019) on the low
    32 bits of the next word, and draws nothing for k = 1.  The rare row whose
    word Lemire's threshold rejects is redrawn by ``_rng_stream`` itself,
    which then also supplies the row's later words.
    """

    def __init__(self, seed: int, key: tuple, trials, width: int):
        self.seed, self.key = seed, key
        self.trials = np.asarray(trials, dtype=np.int64)
        self.words = _trial_draws(seed, key, self.trials, width)
        self.pos = np.zeros(len(self.trials), dtype=np.int64)

    def __len__(self) -> int:
        return len(self.trials)

    def random(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1) per row, shape (rows, n)."""
        words = np.take_along_axis(self.words, self.pos[:, None] + np.arange(n),
                                   axis=1)
        self.pos += n
        return (words >> 11) * 2.0 ** -53

    def integers(self, bounds) -> np.ndarray:
        """One integer in [0, bounds[r]) per row r."""
        bounds = np.asarray(bounds, dtype=np.int64)
        k = bounds.astype(np.uint64)
        scaled = (self.words[np.arange(len(self)), self.pos] & _M32) * k
        picks = (scaled >> 32).astype(np.int64)
        # Past 2^32 the Generator draws 64-bit words; no simulator bound does.
        redraw = (k > 2 ** 32) | ((scaled & _M32) < 2 ** 32 % k)
        for r in np.flatnonzero(redraw):
            rng = _rng_stream(self.seed, *self.key, int(self.trials[r]))
            start = int(self.pos[r])
            rng.bit_generator.random_raw(start)
            picks[r] = rng.integers(bounds[r])
            self.words[r, start + 1:] = rng.bit_generator.random_raw(
                self.words.shape[1] - start - 1)
        self.pos += bounds > 1
        return picks


def _chunk_rows(row_bytes: int) -> int:
    """Rows (trials or state sequences) per chunk: at least one, and few
    enough that a temporary of ``row_bytes`` per row fits the budget."""
    return max(1, _TRIAL_CHUNK_BYTES // max(1, row_bytes))


def _sequences(alphabet: int, n: int, lo: int, hi: int) -> np.ndarray:
    """Sequences lo, ..., hi - 1 of alphabet^n in lexicographic order (the
    order of ``itertools.product``), shape (hi - lo, n)."""
    powers = alphabet ** np.arange(n - 1, -1, -1)
    return np.arange(lo, hi)[:, None] // powers % alphabet


class _Typicality:
    """Strong typicality against pmf[a, b] at block length n and slack eps,
    prepared once per (pmf, n, eps) by ``_typicality``.

    A cell's count c passes if |c / n - pmf| <= eps + 1e-12, and only c = 0
    if pmf is 0, so each cell admits an interval [lo, hi] (empty if
    lo > hi).  ``pairs`` holds each candidate row (side a, prepared by
    ``candidates``) against each fixed row (side b), with counts that 0/1
    float products give exactly:

    * the zero cells: one product counts the positions that fall on a cell
      of probability 0, and the pair needs none;
    * a column b with one positive cell a: once the zero cells are empty,
      that cell's count is the fixed row's own count of b, so it is tested
      once per fixed row, and a row that fails skips the pair work;
    * every other positive cell whose band is not [0, n]: one product per
      cell, compared only at the ends of the band that a count can cross.

    At most ``_PAIR_BYTES`` are alive per (fixed, candidate) pair.
    """

    def __init__(self, pmf: np.ndarray, n: int, eps: float):
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
        # One prepared test serves every caller, so nothing in it may change.
        self.cells = tuple((b, tuple(c)) for b, c in cells.items())
        for table in (self.zero, self.zero_at, self.row_cols, self.row_lo,
                      self.row_hi):
            if table is not None:
                table.setflags(write=False)

    def candidates(self, rows: np.ndarray) -> np.ndarray:
        """The candidate side of ``pairs``: rows (m, n) as 0/1 indicators of
        each symbol a, shape (m, |A|, n), n |A| floats per row."""
        return (rows[:, None, :] == np.arange(self.a_size)[:, None]).astype(float)

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


@functools.lru_cache(maxsize=16)
def _prepared_typicality(pmf_bytes: bytes, shape: tuple, n: int,
                         eps: float) -> _Typicality:
    """``_typicality``'s cache, keyed by the bytes of the pmf."""
    return _Typicality(np.frombuffer(pmf_bytes).reshape(shape), n, eps)


def _typicality(pmf: np.ndarray, n: int, eps: float) -> _Typicality:
    """The prepared typicality test of (pmf, n, eps), built on its first use
    and shared by every later call with equal arguments."""
    pmf = np.ascontiguousarray(pmf, dtype=float)
    return _prepared_typicality(pmf.tobytes(), pmf.shape, n, float(eps))


def _typical_pairs(rows: np.ndarray, fixed: np.ndarray, pmf: np.ndarray,
                   eps: float) -> np.ndarray:
    """(trials, m) strong typicality of each rows[i] (m, n) against each
    fixed[t] (trials, n) under pmf[a, b], in one call of ``_Typicality``."""
    test = _typicality(pmf, rows.shape[1], eps)
    return test.pairs(test.candidates(rows), fixed)


def is_jointly_typical(a_seq, b_seq, pmf: np.ndarray, eps: float) -> bool:
    """Strong joint typicality against pmf[a, b] of two nonempty 1-D sequences
    of equal length, with integer symbols inside pmf.shape (else ValueError)."""
    seqs = np.asarray(a_seq), np.asarray(b_seq)
    if seqs[0].ndim != 1 or seqs[0].shape != seqs[1].shape or not seqs[0].size:
        raise ValueError("sequences must be nonempty, 1-D and of equal length")
    for seq, size in zip(seqs, np.shape(pmf)):
        if seq.dtype.kind not in "iu" or seq.min() < 0 or seq.max() >= size:
            raise ValueError(f"symbols must be integers in [0, {size})")
    return bool(_typical_pairs(seqs[0][None], seqs[1][None], pmf, eps)[0, 0])


def _joint_u_s(channel: StateChannel, policy: AuxiliaryEncoderPolicy) -> np.ndarray:
    """p(u, s), shape (u, s)."""
    return (channel.state_pmf[:, None] * policy.u_given_s).T


def _joint_u_yr(channel: StateChannel, policy: AuxiliaryEncoderPolicy) -> np.ndarray:
    """p(u, yr), shape (u, yr)."""
    return np.einsum("us,usx,xsr->ur", _joint_u_s(channel, policy),
                     policy.x_given_us, channel.receiver_kernel())


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
    """``_cdf_columns`` of the kernel over (yr, ye) pairs, one cell per
    (x, s) coded x * |S| + s: shape (|Yr| |Ye| - 1, |X| |S|)."""
    return _cdf_columns(channel.kernel.reshape(channel.x_size * channel.s_size,
                                               -1))


def build_codebook(channel: StateChannel, policy: AuxiliaryEncoderPolicy,
                   cfg: SimConfig) -> BinningCodebook:
    """Draw the i.i.d. u-sequence codebook and randomly partition it into bins.

    The sequence count is ceil(2^(n (I(U;Yr) - margin))) and the bin count
    ceil(2^(n (I(U;Yr) - I(U;Ye) - margin))), so each bin holds about
    2^(n I(U;Ye)) sequences.  A nonpositive key exponent collapses to a single
    bin (key rate 0); the simulator still runs and reports zero leakage then.
    The sequences and the partition are drawn from ``_rng_stream(cfg.seed, 0)``.
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
    bins = min(bins, count)
    p_u = np.einsum("s,su->u", channel.state_pmf, policy.u_given_s)
    p_u = p_u / p_u.sum()
    rng = _rng_stream(cfg.seed, 0)
    sequences = rng.choice(policy.u_size, size=(count, n), p=p_u)
    bin_of = np.empty(count, dtype=np.int64)
    bin_of[rng.permutation(count)] = np.arange(count) % bins
    total_rate = math.log2(count) / n
    key_rate = math.log2(bins) / n
    return BinningCodebook(
        sequences=sequences, bin_of=bin_of, num_bins=bins,
        rates=CodebookRates(total_rate, key_rate, total_rate - key_rate))


@dataclass(frozen=True)
class _NoDiscTables:
    """The tables of a no-discussion run and its codebook, built once per
    run by ``_no_disc_tables``.

    The cdf tables are ``_cdf_columns``, read by ``_draw``: p(s) has one
    cell (0), p(x | u, s) one per (u, s) coded u * |S| + s, and the kernel
    one per (x, s), see ``_kernel_columns``.  The decoder's terms hold
    n |Yr| floats per codeword c: row i |Yr| + y is log p(y | u_ci), with 0
    in place of -inf where p(u_ci, y) = 0, and ``yr_zero`` marks those cells
    with 1.0 (None when the law has none).
    """

    p_us: np.ndarray            # p(u, s), the encoder's typicality pmf
    x_cols: np.ndarray          # cdf columns of p(x | u, s), (x - 1, u * s)
    state_cols: np.ndarray      # cdf columns of p(s), shape (s - 1, 1)
    kernel_cols: np.ndarray     # see _kernel_columns
    yr_terms: np.ndarray        # (n * yr, count), log p(y | u_ci)
    yr_zero: np.ndarray | None  # (n * yr, count), 1.0 where p(u_ci, y) = 0


def _no_disc_tables(channel: StateChannel, policy: AuxiliaryEncoderPolicy,
                    codebook: BinningCodebook) -> _NoDiscTables:
    joint = _joint_u_yr(channel, policy)
    p_u = np.maximum(joint.sum(axis=1, keepdims=True), _TINY)
    with np.errstate(divide="ignore"):
        log_yr_given_u = np.log(joint / p_u)
    zero = np.isneginf(log_yr_given_u)

    def terms(table):           # (u, yr) -> (n * yr, count)
        return np.ascontiguousarray(
            table[codebook.sequences].reshape(codebook.count, -1).T)

    return _NoDiscTables(
        p_us=_joint_u_s(channel, policy),
        x_cols=_cdf_columns(policy.x_given_us.reshape(-1, channel.x_size)),
        state_cols=_cdf_columns(channel.state_pmf[None]),
        kernel_cols=_kernel_columns(channel),
        yr_terms=terms(np.where(zero, 0.0, log_yr_given_u)),
        yr_zero=terms(zero.astype(float)) if zero.any() else None)


def encode(codebook: BinningCodebook, tables: _NoDiscTables, s_seqs,
           epsilon: float, streams: TrialStreams) -> EncodeResult:
    """Per trial, pick a codeword jointly typical with s^n, then sample x^n.

    ``s_seqs`` is (trials, n), and row t of ``streams`` is trial t's stream.
    The codeword is drawn uniformly from the typical candidates; where none
    qualifies (an encode failure, reported in ``typical`` and not raised) it
    is drawn uniformly from the whole codebook.  Each stream draws its pick,
    then the n uniforms of x^n; x_i is drawn by ``_draw`` from the cell
    u_i * |S| + s_i of ``tables.x_cols``.
    """
    s_seqs = np.asarray(s_seqs, dtype=np.int64)
    if s_seqs.shape != (len(streams), codebook.n):
        raise ValueError(f"s_seqs must have shape ({len(streams)}, {codebook.n})")
    test = _typicality(tables.p_us, codebook.n, epsilon)
    mask = test.pairs(test.candidates(codebook.sequences), s_seqs)
    sizes = mask.sum(axis=1)
    picks = streams.integers(np.where(sizes > 0, sizes, codebook.count))
    uniforms = streams.random(codebook.n)
    typical = sizes > 0
    # The pick-th typical codeword is where the running count passes pick.
    nth = (mask.cumsum(axis=1) > picks[:, None]).argmax(axis=1)
    index = np.where(typical, nth, picks)
    cells = codebook.sequences[index] * tables.p_us.shape[1] + s_seqs
    return EncodeResult(index=index, x_seq=_draw(tables.x_cols, cells, uniforms),
                        typical=typical)


def decode(codebook: BinningCodebook, tables: _NoDiscTables,
           yr_seqs) -> DecodeResult:
    """Maximum-likelihood key per trial: the bin whose codewords best
    explain the row of ``yr_seqs`` (shape (trials, n)).

    Each codeword u^n scores prod_i p(yr_i | u_i) under the single-letter law
    p(u, yr); the scores are summed per bin, in codeword order, and the bin
    with the largest sum is the key.  ``index`` is the most likely codeword
    inside that bin.  A tie for the top bin sum, or zero likelihood for
    every codeword, is a decode failure (key and index -1).

    The log-likelihoods of all (trial, codeword) pairs are one matrix
    product: the trials' yr^n one-hot, (trials, n |Yr|) with a 1 at column
    i |Yr| + yr_i, times ``tables.yr_terms``, which must be built for this
    codebook.  A second product with ``tables.yr_zero`` marks the codewords
    of zero likelihood; it is skipped when the law has no zero cell.
    """
    yr_seqs = np.asarray(yr_seqs, dtype=np.int64)
    if yr_seqs.ndim != 2 or yr_seqs.shape[1] != codebook.n:
        raise ValueError(f"yr_seqs must have shape (trials, {codebook.n})")
    width, count = tables.yr_terms.shape
    if count != codebook.count or width % codebook.n:
        raise ValueError("tables were built for another codebook")
    yr_size = width // codebook.n
    if yr_seqs.size and (yr_seqs.min() < 0 or yr_seqs.max() >= yr_size):
        raise ValueError(f"yr symbols must be integers in [0, {yr_size})")
    trials = len(yr_seqs)
    onehot = np.zeros((trials, width))
    onehot[np.arange(trials)[:, None],
           yr_size * np.arange(codebook.n) + yr_seqs] = 1.0
    log_lik = onehot @ tables.yr_terms
    if tables.yr_zero is not None:
        log_lik[onehot @ tables.yr_zero > 0] = -np.inf
    top = log_lik.max(axis=1)
    live = top > -np.inf
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
    in_bin = np.where(codebook.bin_of == key[:, None], log_lik, -np.inf)
    return DecodeResult(index=np.where(ok, in_bin.argmax(axis=1), -1),
                        key=np.where(ok, key, -1))


def transmit(channel: StateChannel, kernel_cols: np.ndarray, x_seqs, s_seqs,
             uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample (yr, ye) per symbol from the memoryless kernel, one uniform
    per symbol, by ``_draw`` from the cell x * |S| + s of ``kernel_cols``
    (``_kernel_columns(channel)``).  Any leading (trial) axes are kept."""
    pair = _draw(kernel_cols, np.asarray(x_seqs) * channel.s_size + s_seqs,
                 uniforms)
    return pair // channel.ye_size, pair % channel.ye_size


def _check_leakage_cost(rows: int, n: int, a: int, c: int, floats: int) -> None:
    """Refuse an exact leakage over budget: ``_add_kron_rows`` over ``rows``
    rows of n (a, c) factors takes about rows · n · max(a, c)^n multiply-adds,
    and ``floats`` counts the weights and the key × view table it holds."""
    muladds, held = rows * n * max(a, c) ** n, 8 * floats
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


def exact_leakage(codebook: BinningCodebook, channel: StateChannel,
                  policy: AuxiliaryEncoderPolicy, cfg: SimConfig) -> float:
    """Exact I(K; Ye^n) / n in bits per symbol for the binned key.

    The joint law of (K, Ye^n) follows the i.i.d. state, the encoder's
    selection w(s^n, c) (uniform over typical candidates, else over the whole
    codebook), the per-symbol x sampling and the memoryless kernel: codeword
    c adds v_c (M_c1 ⊗ ... ⊗ M_cn) to its bin, with v_c[s^n] = p(s^n) w(s^n, c)
    and M_ci[s, ye] = p(ye | u_ci, s), applied mode by mode in about
    count · n · max(|S|, |Ye|)^n multiply-adds, plus count · |S|^n floats
    for v.  This is the module's ground-truth secrecy oracle.  A constant
    view (one ye symbol whatever x and s are) leaks nothing and costs
    nothing; any other raises ``BudgetError`` over the leakage budget,
    before any work.
    """
    p_ye_xs = channel.eavesdropper_kernel()
    if np.count_nonzero(p_ye_xs.any(axis=(0, 1))) == 1:
        return 0.0
    n = codebook.n
    _check_leakage_cost(codebook.count, n, channel.s_size, channel.ye_size,
                        codebook.count * channel.s_size ** n
                        + codebook.num_bins * channel.ye_size ** n)
    p_us = _joint_u_s(channel, policy)
    p_ye_us = np.einsum("usx,xse->use", policy.x_given_us,   # x summed out
                        p_ye_xs)
    states = channel.s_size ** n
    weights = np.empty((codebook.count, states))
    log_ps = np.log(np.maximum(channel.state_pmf, 1e-300))
    test = _typicality(p_us, n, cfg.epsilon)
    codewords = test.candidates(codebook.sequences)
    step = _chunk_rows(8 * max(codebook.count, n))   # a float share per pair
    for lo in range(0, states, step):
        s_seqs = _sequences(channel.s_size, n, lo, min(lo + step, states))
        prob_s = np.exp(log_ps[s_seqs].sum(axis=1))
        mask = test.pairs(codewords, s_seqs)
        k = mask.sum(axis=1, keepdims=True)
        share = np.where(k > 0, mask / np.maximum(k, 1), 1.0 / codebook.count)
        weights[:, lo:lo + len(s_seqs)] = (prob_s[:, None] * share).T
    table = np.zeros((codebook.num_bins, channel.ye_size ** n))
    _add_kron_rows(table, codebook.bin_of, weights, p_ye_us, codebook.sequences)
    return _leakage_bits(table, n)


def run_no_discussion(channel: StateChannel, policy: AuxiliaryEncoderPolicy,
                      cfg: SimConfig) -> SimReport:
    """Monte Carlo episodes of {draw state, encode, transmit, decode}.

    Trials run in chunks, each read through one ``TrialStreams``: the
    chunk's streams draw s^n, one batched typicality test covers every
    (codeword, s^n) pair of the chunk, each stream then draws its pick and
    the uniforms of x^n and of the channel, and ``encode``, ``transmit`` and
    ``decode`` run on the whole chunk.
    Disagreement counts decode failures (tied bins, or no codeword with
    nonzero likelihood) as well as key mismatches.  Exact leakage is
    computed right after the codebook, so a run over the leakage budget
    raises ``BudgetError`` before its first trial.
    """
    codebook = build_codebook(channel, policy, cfg)
    leakage = exact_leakage(codebook, channel, policy, cfg)
    tables = _no_disc_tables(channel, policy, codebook)
    n = cfg.n
    disagreements = 0
    encode_failures = 0
    key_counts = np.zeros(codebook.num_bins, dtype=np.int64)
    width = 3 * n + 1               # s^n, the pick, x^n and the channel
    step = _chunk_rows(8 * max(codebook.count * n,
                               n * channel.yr_size * channel.ye_size, width + n))
    for lo in range(0, cfg.trials, step):
        streams = TrialStreams(cfg.seed, (1,),
                               np.arange(lo, min(lo + step, cfg.trials)), width)
        s_seqs = _draw(tables.state_cols, 0, streams.random(n))
        enc = encode(codebook, tables, s_seqs, cfg.epsilon, streams)
        yr_seqs, _ = transmit(channel, tables.kernel_cols, enc.x_seq, s_seqs,
                              streams.random(n))
        keys = codebook.bin_of[enc.index]
        key_counts += np.bincount(keys, minlength=codebook.num_bins)
        encode_failures += int(np.count_nonzero(~enc.typical))
        dec = decode(codebook, tables, yr_seqs)
        disagreements += int(np.count_nonzero(dec.key != keys))
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
            "total_rate": codebook.rates.total_rate,
            "key_rate": codebook.rates.key_rate,
            "trials": float(cfg.trials),
        })


# ---------------------------------------------------------------------------
# one-round discussion scheme
# ---------------------------------------------------------------------------

def _enumerate_sequences(alphabet: int, n: int) -> np.ndarray:
    if alphabet ** n > MAX_CODEBOOK:
        raise BudgetError(
            f"enumerating {alphabet}^{n} output sequences exceeds the "
            f"{MAX_CODEBOOK} limit; reduce n")
    return _sequences(alphabet, n, 0, alphabet ** n)


@dataclass(frozen=True)
class _OneRoundTables:
    """Receiver-sequence partition and single-letter laws for one-round runs.

    The members of public bin b, in increasing sequence order, are
    ``by_bin[bin_starts[b]:bin_starts[b + 1]]``: one stable argsort of
    ``bin_of``, made once per run, serves every reconstruction.  The cdf
    tables are ``_cdf_columns``, read by ``_draw``: p(s) has one cell (0),
    p(x | s) one per s, and the kernel one per (x, s), see
    ``_kernel_columns``.
    """

    all_yr: np.ndarray          # (|Yr|^n, n)
    bin_of: np.ndarray          # public bin per sequence (overflow = num_bins)
    by_bin: np.ndarray          # sequence indices sorted stably by bin
    bin_starts: np.ndarray      # (num_bins + 2,) offsets of each bin in by_bin
    sub_of: np.ndarray          # key sub-bin per sequence
    num_bins: int
    num_subbins: int
    p_yr_xs: np.ndarray         # p(yr, (x, s)) single-letter
    state_cols: np.ndarray      # cdf columns of p(s), shape (s - 1, 1)
    x_cols: np.ndarray          # cdf columns of p(x | s), shape (x - 1, s)
    kernel_cols: np.ndarray     # see _kernel_columns
    key_rate_target: float


def _one_round_tables(channel: StateChannel, policy: InputPolicy,
                      cfg: SimConfig) -> _OneRoundTables:
    joint = induce_input_joint(channel, policy)
    h_yr_given_xs = (entropy_bits(joint, ["X", "S", "Yr"])
                     - entropy_bits(joint, ["X", "S"]))
    i_xs = mutual_information(joint, ["Yr"], ["X", "S"])
    i_e = mutual_information(joint, ["Yr"], ["Ye"])
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
    # one_round_exact_leakage are the |Yr|^n sequences, with one weight each.
    _check_leakage_cost(outputs, n, 1, channel.ye_size, outputs + num_subbins
                        * (min(num_bins, outputs) + 1) * channel.ye_size ** n)
    all_yr = _enumerate_sequences(channel.yr_size, cfg.n)
    p_yr = joint.probs.sum(axis=(0, 1, 3))
    # The marginal test: each sequence against one all-zero row, in pieces
    # that keep the candidate matrices within the chunk budget.
    test = _typicality(p_yr[:, None], n, cfg.epsilon)
    step = _chunk_rows(8 * channel.yr_size * n)
    typ_idx = np.flatnonzero(np.concatenate([
        test.pairs(test.candidates(all_yr[lo:lo + step]),
                   np.zeros((1, n), dtype=np.int64))[0]
        for lo in range(0, outputs, step)]))
    num_bins = min(num_bins, max(1, typ_idx.size))
    ranked = typ_idx[_rng_stream(cfg.seed, 0).permutation(typ_idx.size)]
    bin_of = np.full(all_yr.shape[0], num_bins, dtype=np.int64)   # overflow bin
    sub_of = np.zeros(all_yr.shape[0], dtype=np.int64)
    # Rank r fills bin r % num_bins as that bin's (r // num_bins)-th member.
    rounds, bin_of[ranked] = np.divmod(np.arange(ranked.size), num_bins)
    sub_of[ranked] = rounds % num_subbins
    bin_starts = np.concatenate(
        ([0], np.cumsum(np.bincount(bin_of, minlength=num_bins + 1))))
    p_yr_xs = np.einsum("s,sx,xsr->rxs", channel.state_pmf, policy.x_given_s,
                        channel.receiver_kernel()).reshape(channel.yr_size, -1)
    return _OneRoundTables(all_yr=all_yr, bin_of=bin_of,
                           by_bin=np.argsort(bin_of, kind="stable"),
                           bin_starts=bin_starts, sub_of=sub_of,
                           num_bins=num_bins, num_subbins=num_subbins,
                           p_yr_xs=p_yr_xs,
                           state_cols=_cdf_columns(channel.state_pmf[None]),
                           x_cols=_cdf_columns(policy.x_given_s),
                           kernel_cols=_kernel_columns(channel),
                           key_rate_target=max(0.0, key_exponent))


def _reconstruct(tables: _OneRoundTables, xs_seqs: np.ndarray,
                 published: np.ndarray, epsilon: float) -> np.ndarray:
    """Per trial, the unique member of its published bin jointly typical
    with its (x, s) pairs, coded x * |S| + s in ``xs_seqs`` (trials, n);
    -1 where no member or several are.

    One stable argsort groups the trials by bin, and ``tables.by_bin``
    holds each bin's members.  A bin's members go in pieces whose candidate
    matrices fit the chunk budget, built for that piece alone, and its
    trials in pieces whose pairs do; per trial, the hits and the sum of
    the hit members' indices add up over the pieces, so a lone hit's sum is
    that member.
    """
    test = _typicality(tables.p_yr_xs, xs_seqs.shape[1], epsilon)
    hits = np.zeros(len(published), dtype=np.int64)
    hit_sum = np.zeros(len(published), dtype=np.int64)
    order = np.argsort(published, kind="stable")
    bins, starts = np.unique(published[order], return_index=True)
    member_step = _chunk_rows(8 * test.a_size * xs_seqs.shape[1])
    for b, start, end in zip(bins, starts, [*starts[1:], len(order)]):
        members = tables.by_bin[tables.bin_starts[b]:tables.bin_starts[b + 1]]
        for lo in range(0, len(members), member_step):
            piece = members[lo:lo + member_step]
            cand = test.candidates(tables.all_yr[piece])
            step = _chunk_rows(_PAIR_BYTES * len(piece))
            for first in range(start, end, step):
                trials = order[first:min(first + step, end)]
                ok = test.pairs(cand, xs_seqs[trials])
                hits[trials] += ok.sum(axis=1)
                hit_sum[trials] += ok @ piece
    return np.where(hits == 1, hit_sum, -1)


def one_round_exact_leakage(tables: _OneRoundTables, channel: StateChannel,
                            policy: InputPolicy, cfg: SimConfig) -> float:
    """Exact I(K; Ye^n, public bin) / n for the one-round scheme.

    Uses the factorization of (Yr^n, Ye^n) into an i.i.d. per-symbol joint
    (x and s are marginalized per symbol), so the mode products run over the
    |Yr|^n output sequences, a cost ``_one_round_tables`` has checked.
    """
    n = cfg.n
    m = np.einsum("s,sx,xsre->re", channel.state_pmf, policy.x_given_s,
                  channel.kernel)
    # Rows (sub, bin): the key indexes blocks of rows, the view is (bin, ye^n).
    views = tables.num_bins + 1
    table = np.zeros((tables.num_subbins * views, channel.ye_size ** n))
    _add_kron_rows(table, tables.sub_of * views + tables.bin_of,
                   np.ones((len(tables.all_yr), 1)), m[:, None, :], tables.all_yr)
    return _leakage_bits(table.reshape(tables.num_subbins, -1), n)


def run_one_round_discussion(channel: StateChannel, policy: InputPolicy,
                             cfg: SimConfig) -> SimReport:
    """Simulate the one-round public-discussion scheme.

    Per trial: the sender draws x^n from p(x|s); the receiver observes yr^n,
    publishes its bin index (an overflow marker when yr^n is atypical), and
    keeps its sub-bin index as the key; the sender reconstructs yr^n from
    (x^n, s^n, bin) by unique joint typicality and declares the reconstructed
    sub-bin.  Reconstruction failures count as disagreements and are reported
    through ``encode_failure_rate``.  Trials run in chunks: one
    ``TrialStreams`` draws the 3n uniforms of every trial of the chunk, and
    the rest runs on the chunk, the reconstruction once per published bin.
    """
    tables = _one_round_tables(channel, policy, cfg)
    n = cfg.n
    powers = channel.yr_size ** np.arange(n - 1, -1, -1)
    disagreements = 0
    recon_failures = 0
    unique_correct = 0
    key_counts = np.zeros(tables.num_subbins, dtype=np.int64)
    # 3n raw words and 3n uniforms per trial; _reconstruct splits its own.
    step = _chunk_rows(8 * n * max(channel.yr_size * channel.ye_size, 6))
    for lo in range(0, cfg.trials, step):
        uniforms = TrialStreams(cfg.seed, (1,),
                                np.arange(lo, min(lo + step, cfg.trials)),
                                3 * n).random(3 * n)
        s_seqs = _draw(tables.state_cols, 0, uniforms[:, :n])
        x_seqs = _draw(tables.x_cols, s_seqs, uniforms[:, n:2 * n])
        yr_seqs, _ = transmit(channel, tables.kernel_cols, x_seqs, s_seqs,
                              uniforms[:, 2 * n:])
        yr_index = yr_seqs @ powers
        receiver_keys = tables.sub_of[yr_index]
        key_counts += np.bincount(receiver_keys, minlength=tables.num_subbins)
        recon = _reconstruct(tables, x_seqs * channel.s_size + s_seqs,
                             tables.bin_of[yr_index], cfg.epsilon)
        found = recon >= 0
        recon_failures += int(np.count_nonzero(~found))
        unique_correct += int(np.count_nonzero(recon == yr_index))
        disagreements += int(np.count_nonzero(
            tables.sub_of[recon[found]] != receiver_keys[found]))
    disagreements += recon_failures
    unique_lookups = cfg.trials - recon_failures
    leakage = one_round_exact_leakage(tables, channel, policy, cfg)
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
